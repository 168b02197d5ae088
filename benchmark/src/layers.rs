//! The traced run's instruments, all outside the simulator: spans
//! around calls into each layer, a counting allocator, and the
//! counters and profiler the simulator already exposes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use elanib_simcore::trace::MetricsSummary;

use crate::json::quote;

// ---------------------------------------------------------------------------
// Counting allocator
// ---------------------------------------------------------------------------

/// The system allocator, counting allocations made by the thread that
/// turned counting on. Off, it costs one relaxed load per call.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);

thread_local! {
    static ON_THIS_THREAD: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    if !COUNTING.load(Ordering::Relaxed) {
        return;
    }
    // Const-initialized, destructor-free thread locals never allocate;
    // `try_with` covers calls during thread teardown.
    if ON_THIS_THREAD.try_with(Cell::get).unwrap_or(false) {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        let _ = BYTES.try_with(|c| c.set(c.get() + bytes as u64));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting only touches
// thread-local integers and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's `layout` obligations pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Count this thread's allocations (and bytes) while `f` runs.
pub fn count_allocs<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let read = || (ALLOCS.with(Cell::get), BYTES.with(Cell::get));
    ON_THIS_THREAD.with(|c| c.set(true));
    COUNTING.store(true, Ordering::Relaxed);
    let (a0, b0) = read();
    let out = f();
    let (a1, b1) = read();
    COUNTING.store(false, Ordering::Relaxed);
    ON_THIS_THREAD.with(|c| c.set(false));
    (out, a1 - a0, b1 - b0)
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// Runs a call into one layer, recording it or not.
pub trait Recorder {
    fn call<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T;
}

/// Untraced passes: calls run bare.
pub struct Bare;

impl Recorder for Bare {
    fn call<T>(&mut self, _layer: &'static str, f: impl FnOnce() -> T) -> T {
        f()
    }
}

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub detail: String,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// In-memory span tree (pass → point → layer call), written out once
/// the run ends.
pub struct Spans {
    t0: Instant,
    list: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new(capacity: usize) -> Spans {
        Spans {
            t0: Instant::now(),
            list: Vec::with_capacity(capacity),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a child of the innermost open span.
    pub fn open(&mut self, name: &'static str, detail: String) -> usize {
        let id = self.list.len();
        let start_ns = self.now_ns();
        self.list.push(Span {
            name,
            detail,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    pub fn close(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.list[id].end_ns = self.now_ns();
    }

    pub fn list(&self) -> &[Span] {
        &self.list
    }

    /// Total seconds of the spans named `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        // A fold from +0.0: `sum` of nothing is -0.0.
        self.list
            .iter()
            .filter(|s| s.name == name)
            .fold(0.0, |acc, s| acc + s.secs())
    }

    /// One JSON object per line: id, parent, name, detail, start, and
    /// duration and self time (duration minus the child spans) in ns.
    pub fn write_jsonl(&self, w: &mut impl Write) -> io::Result<()> {
        let mut child_ns = vec![0u64; self.list.len()];
        for s in &self.list {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        for (id, s) in self.list.iter().enumerate() {
            let dur = s.end_ns - s.start_ns;
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{id},\"parent\":{parent},\"name\":{},\"detail\":{},\"start_ns\":{},\"dur_ns\":{dur},\"self_ns\":{}}}",
                quote(s.name),
                quote(&s.detail),
                s.start_ns,
                dur.saturating_sub(child_ns[id])
            )?;
        }
        w.flush()
    }
}

impl Recorder for Spans {
    fn call<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.open(layer, String::new());
        let out = f();
        self.close(id);
        out
    }
}

// ---------------------------------------------------------------------------
// Simulator counters
// ---------------------------------------------------------------------------

/// Tracer counters of every simulation that finished since the last
/// call, summed across simulations (gauges: max; histograms: count and
/// sum).
#[derive(Clone, Debug, Default)]
pub struct Counters {
    pub counters: BTreeMap<String, u64>,
    pub gauge_max: BTreeMap<String, i64>,
    pub hist: BTreeMap<String, (u64, u64)>,
}

impl Counters {
    pub fn drain() -> Counters {
        let mut c = Counters::default();
        for t in elanib_simcore::trace::drain() {
            c.add_summary(t.summary);
        }
        c
    }

    /// Add one simulation's tracer summary.
    pub fn add_summary(&mut self, s: MetricsSummary) {
        for (k, v) in s.counters {
            *self.counters.entry(k.into_owned()).or_default() += v;
        }
        for (k, g) in s.gauges {
            let e = self.gauge_max.entry(k.into_owned()).or_insert(g.max);
            *e = (*e).max(g.max);
        }
        for (k, h) in s.hists {
            let e = self.hist.entry(k.into_owned()).or_default();
            e.0 += h.count;
            e.1 += h.sum;
        }
    }

    pub fn absorb(&mut self, o: Counters) {
        for (k, v) in o.counters {
            *self.counters.entry(k).or_default() += v;
        }
        for (k, v) in o.gauge_max {
            let e = self.gauge_max.entry(k).or_insert(v);
            *e = (*e).max(v);
        }
        for (k, (n, s)) in o.hist {
            let e = self.hist.entry(k).or_default();
            e.0 += n;
            e.1 += s;
        }
    }

    pub fn get(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// MPI-level sends on both stacks.
    pub fn mpi_sends(&self) -> u64 {
        [
            "mpi.eager_sends",
            "mpi.rdv_sends",
            "elan.eager_sends",
            "elan.rdv_sends",
        ]
        .iter()
        .map(|k| self.get(k))
        .sum()
    }

    /// Queue pairs driven into the error state: one per failed post.
    /// (`ib.qp_errors` counts the same event again, once in the
    /// transport and once more in the fabric's fault summary.)
    pub fn qp_errors(&self) -> u64 {
        self.get("hca.qp_errors")
    }
}

#[cfg(test)]
mod tests {
    use std::panic::{catch_unwind, AssertUnwindSafe};

    use elanib_fabric::FaultPlan;
    use elanib_mpi::{
        bytes_of_f64, recv, run_scenario_on, send, Communicator, JobSpec, NetConfig, Network,
        RankProgram,
    };
    use elanib_simcore::trace::Tracer;
    use elanib_simcore::Sim;

    use super::*;

    #[test]
    fn spans_nest_and_report_self_time() {
        let mut s = Spans::new(4);
        let pass = s.open("pass", "p".into());
        let point = s.open("point", "x".into());
        let v = s.call("layer", || {
            std::thread::sleep(std::time::Duration::from_millis(2));
            7
        });
        s.close(point);
        s.close(pass);
        assert_eq!(v, 7);
        let l = s.list();
        assert_eq!(
            (l[0].parent, l[1].parent, l[2].parent),
            (None, Some(0), Some(1))
        );
        assert!(s.total_s("layer") >= 0.002);
        let mut out = Vec::new();
        s.write_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<_> = text
            .lines()
            .map(|l| crate::json::parse(l).unwrap())
            .collect();
        assert_eq!(lines.len(), 3);
        let num = |i: usize, k: &str| lines[i].get(k).and_then(crate::json::Json::as_f64).unwrap();
        // The point's self time excludes the layer call inside it.
        assert!(num(1, "self_ns") <= num(1, "dur_ns") - num(2, "dur_ns") + 1.0);
        assert_eq!(num(2, "parent"), 1.0);
    }

    /// `iters` ping-pongs of `bytes` between ranks 0 and 1.
    #[derive(Clone)]
    struct PingPong {
        bytes: u64,
        iters: u32,
    }

    impl RankProgram for PingPong {
        #[allow(clippy::manual_async_fn)]
        fn run<C: Communicator>(self, c: C) -> impl std::future::Future<Output = ()> + 'static {
            async move {
                let payload = bytes_of_f64(&vec![0.0; self.bytes as usize / 8]);
                for _ in 0..self.iters {
                    if c.rank() == 0 {
                        send(&c, 1, 1, payload.clone(), self.bytes).await;
                        recv(&c, Some(1), Some(2)).await;
                    } else {
                        recv(&c, Some(0), Some(1)).await;
                        send(&c, 0, 2, payload.clone(), self.bytes).await;
                    }
                }
            }
        }
    }

    #[test]
    fn one_qp_error_counts_once() {
        // 3% loss on 64 KiB ping-pongs exhausts IB's retries, as in the
        // QP-ERR cell of the committed `faults_latency` table.
        let plan = FaultPlan::parse("loss=0.03,seed=11").unwrap();
        let cfg = NetConfig {
            faults: Some(std::sync::Arc::new(plan)),
            ..NetConfig::default()
        };
        let spec = JobSpec {
            network: Network::InfiniBand,
            nodes: 2,
            ppn: 1,
            seed: 5,
        };
        let tr = Tracer::forced(spec.seed);
        let sim = Sim::with_tracer(spec.seed, tr.clone());
        let program = PingPong {
            bytes: 65_536,
            iters: 30,
        };
        let run = catch_unwind(AssertUnwindSafe(|| {
            run_scenario_on(&sim, spec, &cfg, None, program)
        }));
        assert!(
            !matches!(run, Ok(Ok(_))),
            "the plan must drive the QP into the error state"
        );
        let mut c = Counters::default();
        c.add_summary(tr.summary());
        assert_eq!(c.qp_errors(), 1, "{:?}", c.counters);
    }

    #[test]
    fn allocations_are_counted_only_inside_the_window() {
        let (v, allocs, bytes) = count_allocs(|| {
            let v: Vec<Vec<u8>> = (0..10).map(|i| vec![0u8; 100 + i]).collect();
            std::hint::black_box(v).len()
        });
        assert_eq!(v, 10);
        assert!(allocs >= 11, "{allocs}");
        assert!(bytes >= 1045, "{bytes}");
        let (_, after, _) = count_allocs(|| 1 + 1);
        assert_eq!(after, 0);
    }
}
