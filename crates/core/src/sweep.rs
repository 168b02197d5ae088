//! Parallel sweep engine for exhibit regeneration.
//!
//! Every figure and table in the reproduction is a *sweep*: the same
//! simulation family evaluated over a grid of independent points
//! (message sizes, node counts, network types, config ablations). Each
//! point builds its own [`elanib_simcore::Sim`], runs it to completion
//! and extracts one number — no point shares any state with another.
//! That makes the grid embarrassingly parallel **across** simulations
//! while each kernel stays strictly single-threaded, so parallel
//! execution cannot perturb results: every sim's event sequence is a
//! pure function of its seed and program, and [`sweep`] returns results
//! in item order regardless of which worker finished first or last.
//!
//! ```
//! let squares = elanib_core::sweep::sweep(&[1u64, 2, 3, 4], |&x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```
//!
//! ## Scheduling
//!
//! [`sweep`] fans the items across a scoped pool of OS threads
//! (`std::thread::scope` — no runtime dependency, workers borrow the
//! item slice and the closure directly). Work is claimed by atomic
//! counter, so a slow point (the 32-node MD job dwarfs the 1-node one)
//! doesn't leave siblings idle behind a static partition. The pool
//! size comes from `ELANIB_SWEEP_THREADS`, defaulting to the machine's
//! available parallelism; `ELANIB_SWEEP_THREADS=1` bypasses the pool
//! entirely and runs the items inline, in order, on the calling thread
//! — the reference serial mode the determinism regression tests diff
//! against.
//!
//! ## Placement
//!
//! [`sweep_guided_with_stats`] takes one cost hint per item and has the
//! workers claim items biggest hint first, so a grid whose largest
//! point dwarfs the rest does not end with that point running alone on
//! a drained pool. Placement is scheduling only: results come back in
//! item order and each kernel is single-threaded, so every exhibit CSV
//! is byte-identical at any thread count.
//!
//! ## Instrumentation
//!
//! [`sweep_with_stats`] also returns a [`SweepStats`]: jobs run, pool
//! width, kernel events dispatched (sampled from
//! [`elanib_simcore::thread_events`] around each job, so only
//! simulation work is counted) and wall time.
//! [`SweepStats::record`] appends a JSON-lines perf record to the file
//! named by `ELANIB_BENCH_JSON`, which is how `BENCH_sweep.json`
//! speedup evidence is captured.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Per-worker observability record of one sweep: how many points the
/// worker claimed, the kernel events it dispatched, and how long it
/// was busy. Always gathered — a few samples per worker, not per job.
#[derive(Clone, Copy, Debug, Default)]
pub struct WorkerStat {
    pub worker: usize,
    pub jobs: u64,
    pub events: u64,
    /// Wall time from the worker's first claim attempt to its exit.
    pub busy: Duration,
}

/// Upper bound on panic messages retained in [`SweepStats::failures`]
/// (and serialized into the JSONL record). Keeps a pathological batch
/// — every point dead — from ballooning the perf log.
pub const MAX_RETAINED_FAILURES: usize = 5;

/// Throughput report for one [`sweep_with_stats`] call.
#[derive(Clone, Debug)]
pub struct SweepStats {
    /// Number of sweep points executed.
    pub jobs: usize,
    /// Worker threads used (1 = serial inline mode).
    pub threads: usize,
    /// Kernel events dispatched by the jobs' simulations, summed over
    /// workers. Zero if the jobs ran no sims.
    pub events: u64,
    /// Wall-clock duration of the whole sweep.
    pub wall: Duration,
    /// Points that panicked and were isolated (always 0 unless the
    /// sweep ran with [`SweepOpts::isolate_panics`]).
    pub failed: usize,
    /// The first [`MAX_RETAINED_FAILURES`] isolated panic messages, in
    /// completion order — so a fuzz batch's failures are attributable
    /// from the JSONL record alone, without re-running the sweep.
    /// `failed` still counts *every* failure; this is a bounded sample.
    pub failures: Vec<String>,
    /// Per-worker breakdown, indexed by worker (one entry, worker 0,
    /// in the serial inline mode).
    pub per_worker: Vec<WorkerStat>,
    /// Kernel events dispatched by each item's own simulation, in item
    /// order — the per-point cost feedback [`sweep_guided_with_stats`]
    /// hints are calibrated from. Not serialized into the JSONL record
    /// (per-worker rollups cover the balance evidence).
    pub per_item_events: Vec<u64>,
}

impl SweepStats {
    /// Aggregate event throughput across the pool.
    pub fn events_per_sec(&self) -> f64 {
        let s = self.wall.as_secs_f64();
        if s > 0.0 {
            self.events as f64 / s
        } else {
            0.0
        }
    }

    /// Merge another sweep's stats into this one (summing jobs, events
    /// and wall time; keeping the widest pool). Lets a driver that runs
    /// several sweeps report one combined record.
    pub fn absorb(&mut self, other: &SweepStats) {
        self.jobs += other.jobs;
        self.events += other.events;
        self.wall += other.wall;
        self.threads = self.threads.max(other.threads);
        self.failed += other.failed;
        for m in &other.failures {
            if self.failures.len() >= MAX_RETAINED_FAILURES {
                break;
            }
            self.failures.push(m.clone());
        }
        self.per_item_events
            .extend_from_slice(&other.per_item_events);
        // Merge worker breakdowns by worker index (the pools of the
        // absorbed sweeps map onto the same OS-thread slots).
        for w in &other.per_worker {
            if self.per_worker.len() <= w.worker {
                self.per_worker
                    .resize_with(w.worker + 1, WorkerStat::default);
                for (i, s) in self.per_worker.iter_mut().enumerate() {
                    s.worker = i;
                }
            }
            let s = &mut self.per_worker[w.worker];
            s.jobs += w.jobs;
            s.events += w.events;
            s.busy += w.busy;
        }
    }

    /// Append a `{"kind":"sweep",...}` JSON record for this sweep to
    /// the JSON-lines file named by `ELANIB_BENCH_JSON`. No-op when the
    /// variable is unset or empty.
    ///
    /// Several exhibit binaries can append to the same file from a
    /// driver script, so the line goes through
    /// [`elanib_simcore::trace::jsonl::append_line`], which issues the
    /// whole record as one `O_APPEND` write — concurrent appenders can
    /// interleave lines but never split one.
    pub fn record(&self, label: &str) {
        let Ok(path) = std::env::var("ELANIB_BENCH_JSON") else {
            return;
        };
        if path.is_empty() {
            return;
        }
        let ts = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        let mut line = format!(
            "{{\"kind\":\"sweep\",\"schema\":3,\"git_rev\":\"{}\",\"label\":\"{}\",\"jobs\":{},\"threads\":{},\"events\":{},\"failed\":{},\"wall_s\":{:.6},\"events_per_sec\":{:.1},\"unix_ts\":{}",
            elanib_simcore::trace::git_rev(),
            label.replace('\\', "\\\\").replace('"', "\\\""),
            self.jobs,
            self.threads,
            self.events,
            self.failed,
            self.wall.as_secs_f64(),
            self.events_per_sec(),
            ts
        );
        if !self.failures.is_empty() {
            line.push_str(",\"failures\":[");
            for (i, m) in self.failures.iter().enumerate() {
                if i > 0 {
                    line.push(',');
                }
                // Panic messages can span lines (deadlock reports do);
                // JSON strings cannot.
                let esc = m
                    .replace('\\', "\\\\")
                    .replace('"', "\\\"")
                    .replace('\n', "\\n")
                    .replace('\t', "\\t");
                line.push('"');
                line.push_str(&esc);
                line.push('"');
            }
            line.push(']');
        }
        // Worker breakdown last, with short non-colliding keys, so the
        // first-occurrence field scans the gate/report use still hit
        // the top-level fields above.
        line.push_str(",\"workers\":[");
        for (i, w) in self.per_worker.iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            line.push_str(&format!(
                "{{\"w\":{},\"j\":{},\"e\":{},\"busy_s\":{:.6}}}",
                w.worker,
                w.jobs,
                w.events,
                w.busy.as_secs_f64()
            ));
        }
        line.push_str("]}");
        let _ = elanib_simcore::trace::jsonl::append_line(std::path::Path::new(&path), &line);
    }
}

/// Pool width a sweep will use for `n_items` work items:
/// `ELANIB_SWEEP_THREADS` if set (clamped to ≥ 1), otherwise the
/// machine's available parallelism — never more threads than items.
pub fn sweep_threads(n_items: usize) -> usize {
    let configured = std::env::var("ELANIB_SWEEP_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        });
    configured.max(1).min(n_items.max(1))
}

/// Item indices in longest-processing-time order: descending cost
/// hint, ties broken by the lower index — fully deterministic.
fn lpt_order(hints: &[u64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..hints.len()).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(hints[i]), i));
    order
}

/// Evaluate `f` over every item, in parallel, returning results in
/// item order. See the [module docs](self) for the execution model.
///
/// A panic in any job is propagated to the caller after the scope
/// joins (sibling jobs already claimed still run to completion).
pub fn sweep<I, T, F>(items: &[I], f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(&I) -> T + Sync,
{
    sweep_with_stats(items, f).0
}

/// [`sweep`], additionally reporting a [`SweepStats`].
pub fn sweep_with_stats<I, T, F>(items: &[I], f: F) -> (Vec<T>, SweepStats)
where
    I: Sync,
    T: Send,
    F: Fn(&I) -> T + Sync,
{
    sweep_on_pool(items, f, sweep_threads(items.len()), None)
}

/// [`sweep_with_stats`] with per-item cost hints guiding placement
/// (`hints[i]` ∝ the expected work of `items[i]`: kernel events from a
/// previous run's [`SweepStats::per_item_events`], or an analytic
/// proxy like the point's rank count). Big jobs are claimed first, so
/// a grid whose largest point dwarfs the rest no longer serializes
/// behind a nearly-drained pool. Placement never affects results —
/// every item is still its own single-threaded sim, returned in item
/// order.
pub fn sweep_guided_with_stats<I, T, F>(items: &[I], hints: &[u64], f: F) -> (Vec<T>, SweepStats)
where
    I: Sync,
    T: Send,
    F: Fn(&I) -> T + Sync,
{
    assert_eq!(
        hints.len(),
        items.len(),
        "one cost hint per sweep item required"
    );
    sweep_on_pool(items, f, sweep_threads(items.len()), Some(hints))
}

/// [`sweep_guided_with_stats`] without the stats.
pub fn sweep_guided<I, T, F>(items: &[I], hints: &[u64], f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(&I) -> T + Sync,
{
    sweep_guided_with_stats(items, hints, f).0
}

/// The engine under [`sweep_with_stats`]: explicit pool width, atomic
/// work claiming, and with cost `hints` a biggest-first claim order.
/// Separated out (and kept crate-visible) so tests can drive any pool
/// width without mutating process-global environment.
pub(crate) fn sweep_on_pool<I, T, F>(
    items: &[I],
    f: F,
    threads: usize,
    hints: Option<&[u64]>,
) -> (Vec<T>, SweepStats)
where
    I: Sync,
    T: Send,
    F: Fn(&I) -> T + Sync,
{
    let t0 = Instant::now();
    let events = AtomicU64::new(0);
    let done = AtomicUsize::new(0);
    let per_item: Vec<AtomicU64> = (0..items.len()).map(|_| AtomicU64::new(0)).collect();

    let run_one = |i: usize| -> T {
        let ev0 = elanib_simcore::thread_events();
        let out = f(&items[i]);
        let delta = elanib_simcore::thread_events() - ev0;
        per_item[i].store(delta, Ordering::Relaxed);
        events.fetch_add(delta, Ordering::Relaxed);
        let d = done.fetch_add(1, Ordering::Relaxed) + 1;
        // Live heartbeat for long sweeps (no-op unless ELANIB_PROGRESS
        // is set; rate-limited inside, fields built lazily).
        elanib_simcore::trace::progress::beat("sweep", || {
            format!(
                "\"done\":{d},\"total\":{},\"events\":{}",
                items.len(),
                events.load(Ordering::Relaxed)
            )
        });
        out
    };

    // Per-worker accounting: thread_events is per-OS-thread, so
    // sampling it at a worker's entry and exit attributes events to
    // that worker exactly.
    let worker_stat = |w: usize, jobs: u64, ev0: u64, started: Instant| WorkerStat {
        worker: w,
        jobs,
        events: elanib_simcore::thread_events() - ev0,
        busy: started.elapsed(),
    };

    let (results, per_worker): (Vec<T>, Vec<WorkerStat>) = if threads <= 1 {
        // Serial reference mode: inline, in order, on this thread.
        let ev0 = elanib_simcore::thread_events();
        let out: Vec<T> = (0..items.len()).map(run_one).collect();
        let ws = worker_stat(0, items.len() as u64, ev0, t0);
        (out, vec![ws])
    } else {
        let next = AtomicUsize::new(0);
        // With hints the shared counter walks the items biggest hint
        // first; the order is resolved once, up front, into plain data.
        let claim_order: Option<Vec<usize>> = hints.map(lpt_order);
        let mut slots: Vec<Option<T>> = Vec::with_capacity(items.len());
        slots.resize_with(items.len(), || None);

        let worker = |w: usize| {
            let next = &next;
            let run_one = &run_one;
            let worker_stat = &worker_stat;
            let claim_order = &claim_order;
            move || {
                let started = Instant::now();
                let ev0 = elanib_simcore::thread_events();
                let mut out: Vec<(usize, T)> = Vec::new();
                loop {
                    let n = next.fetch_add(1, Ordering::Relaxed);
                    if n >= items.len() {
                        break;
                    }
                    let i = claim_order.as_ref().map_or(n, |o| o[n]);
                    out.push((i, run_one(i)));
                }
                let ws = worker_stat(w, out.len() as u64, ev0, started);
                (out, ws)
            }
        };

        let mut panic_payload = None;
        let mut worker_stats: Vec<WorkerStat> = vec![WorkerStat::default(); threads];
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads).map(|w| scope.spawn(worker(w))).collect();
            for h in handles {
                match h.join() {
                    Ok((batch, ws)) => {
                        worker_stats[ws.worker] = ws;
                        for (i, t) in batch {
                            slots[i] = Some(t);
                        }
                    }
                    Err(p) => panic_payload = Some(p),
                }
            }
        });
        if let Some(p) = panic_payload {
            std::panic::resume_unwind(p);
        }
        (
            slots
                .into_iter()
                .map(|s| s.expect("every sweep index claimed exactly once"))
                .collect(),
            worker_stats,
        )
    };

    let stats = SweepStats {
        jobs: items.len(),
        threads,
        events: events.into_inner(),
        wall: t0.elapsed(),
        failed: 0,
        failures: Vec::new(),
        per_worker,
        per_item_events: per_item.into_iter().map(AtomicU64::into_inner).collect(),
    };
    (results, stats)
}

/// Execution options for [`sweep_with_opts`].
#[derive(Clone, Copy, Debug, Default)]
pub struct SweepOpts {
    /// Catch a panicking point instead of propagating it: the point
    /// becomes [`PointResult::Failed`], every other point still runs,
    /// and the failure count lands in [`SweepStats::failed`] (and the
    /// JSONL perf record). Off by default — a panic in a *trusted*
    /// exhibit grid is a bug and should abort loudly.
    pub isolate_panics: bool,
}

/// Outcome of one sweep point under [`SweepOpts::isolate_panics`].
#[derive(Clone, Debug, PartialEq)]
pub enum PointResult<T> {
    Ok(T),
    /// The point panicked. `payload` is the panic message;
    /// `params_hash` fingerprints the item's `Debug` form so a driver
    /// can report *which* grid cell died without carrying the item.
    Failed {
        payload: String,
        params_hash: u64,
    },
}

impl<T> PointResult<T> {
    pub fn ok(self) -> Option<T> {
        match self {
            PointResult::Ok(t) => Some(t),
            PointResult::Failed { .. } => None,
        }
    }

    pub fn is_failed(&self) -> bool {
        matches!(self, PointResult::Failed { .. })
    }
}

/// Fingerprint a sweep item for failure reports.
fn params_hash<I: std::fmt::Debug>(item: &I) -> u64 {
    use std::hash::Hasher;
    let mut h = elanib_simcore::FxHasher::default();
    h.write(format!("{item:?}").as_bytes());
    h.finish()
}

/// [`sweep_with_stats`] with per-point panic isolation available. With
/// `opts.isolate_panics` a panicking job is caught on its worker
/// thread, recorded as [`PointResult::Failed`], and the sweep finishes
/// every remaining point; without it the semantics are exactly
/// [`sweep_with_stats`] (panics propagate after the scope joins).
pub fn sweep_with_opts<I, T, F>(
    items: &[I],
    opts: SweepOpts,
    f: F,
) -> (Vec<PointResult<T>>, SweepStats)
where
    I: Sync + std::fmt::Debug,
    T: Send,
    F: Fn(&I) -> T + Sync,
{
    if !opts.isolate_panics {
        let (out, stats) = sweep_with_stats(items, f);
        return (out.into_iter().map(PointResult::Ok).collect(), stats);
    }
    let failed = AtomicUsize::new(0);
    let retained: std::sync::Mutex<Vec<String>> = std::sync::Mutex::new(Vec::new());
    let (out, mut stats) = sweep_with_stats(items, |item| {
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(item))) {
            Ok(t) => PointResult::Ok(t),
            Err(p) => {
                let payload = if let Some(s) = p.downcast_ref::<&str>() {
                    (*s).to_string()
                } else if let Some(s) = p.downcast_ref::<String>() {
                    s.clone()
                } else {
                    "non-string panic payload".to_string()
                };
                failed.fetch_add(1, Ordering::Relaxed);
                {
                    let mut r = retained.lock().unwrap();
                    if r.len() < MAX_RETAINED_FAILURES {
                        r.push(payload.clone());
                    }
                }
                eprintln!("[sweep] point {item:?} failed: {payload}");
                PointResult::Failed {
                    payload,
                    params_hash: params_hash(item),
                }
            }
        }
    });
    stats.failed = failed.into_inner();
    stats.failures = retained.into_inner().unwrap();
    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use elanib_simcore::{Dur, Sim};

    /// Tiny sim: `n` tasks each sleeping a few times; returns
    /// (final time in ns, events processed).
    fn toy_sim(seed_and_n: &(u64, u32)) -> (u64, u64) {
        let &(seed, n) = seed_and_n;
        let sim = Sim::new(seed);
        for i in 0..n {
            let s = sim.clone();
            sim.spawn(format!("t{i}"), async move {
                for k in 1..=4u64 {
                    s.sleep(Dur::from_ns(k * (i as u64 + 1))).await;
                }
            });
        }
        let t = sim.run().unwrap();
        (t.as_ps(), sim.events_processed())
    }

    #[test]
    fn results_are_in_item_order() {
        let items: Vec<(u64, u32)> = (0..40).map(|i| (i, (i % 7) as u32 + 1)).collect();
        let out = sweep(&items, toy_sim);
        let serial: Vec<_> = items.iter().map(toy_sim).collect();
        assert_eq!(out, serial);
    }

    #[test]
    fn explicit_thread_counts_agree_with_serial() {
        // Can't set the env var here (tests share a process), so
        // exercise both engine paths directly via sweep_threads' two
        // regimes: 1 item forces the serial path, many items the pool.
        let items: Vec<(u64, u32)> = (0..16).map(|i| (100 + i, 3)).collect();
        let (par, stats) = sweep_with_stats(&items, toy_sim);
        let serial: Vec<_> = items.iter().map(toy_sim).collect();
        assert_eq!(par, serial);
        assert_eq!(stats.jobs, 16);
        assert!(stats.threads >= 1);
        // Event accounting must equal the sum over jobs.
        let total: u64 = serial.iter().map(|&(_, e)| e).sum();
        assert_eq!(stats.events, total);
    }

    #[test]
    fn empty_and_single_item_sweeps() {
        let none: Vec<(u64, u32)> = vec![];
        assert!(sweep(&none, toy_sim).is_empty());
        let one = [(7u64, 2u32)];
        let (out, stats) = sweep_with_stats(&one, toy_sim);
        assert_eq!(out, vec![toy_sim(&one[0])]);
        assert_eq!(stats.threads, 1, "one item must use the inline path");
    }

    #[test]
    fn worker_panic_propagates() {
        let items: Vec<u32> = (0..8).collect();
        let r = std::panic::catch_unwind(|| {
            sweep(&items, |&i| {
                if i == 5 {
                    panic!("boom at {i}");
                }
                i * 2
            })
        });
        assert!(r.is_err());
    }

    #[test]
    fn stats_absorb_sums() {
        let mut a = SweepStats {
            jobs: 2,
            threads: 4,
            events: 100,
            wall: Duration::from_millis(10),
            failed: 1,
            failures: vec!["boom-a".into()],
            per_worker: vec![WorkerStat {
                worker: 0,
                jobs: 2,
                events: 100,
                busy: Duration::from_millis(9),
            }],
            per_item_events: vec![60, 40],
        };
        let b = SweepStats {
            jobs: 3,
            threads: 2,
            events: 50,
            wall: Duration::from_millis(5),
            failed: 2,
            failures: vec!["boom-b1".into(), "boom-b2".into()],
            per_worker: vec![
                WorkerStat {
                    worker: 0,
                    jobs: 1,
                    events: 20,
                    busy: Duration::from_millis(2),
                },
                WorkerStat {
                    worker: 1,
                    jobs: 2,
                    events: 30,
                    busy: Duration::from_millis(3),
                },
            ],
            per_item_events: vec![20, 10, 20],
        };
        a.absorb(&b);
        assert_eq!(a.jobs, 5);
        assert_eq!(a.events, 150);
        assert_eq!(a.threads, 4);
        assert_eq!(a.wall, Duration::from_millis(15));
        assert_eq!(a.failed, 3);
        assert_eq!(
            a.failures,
            vec!["boom-a".to_string(), "boom-b1".into(), "boom-b2".into()]
        );
        // Worker breakdowns merged by index.
        assert_eq!(a.per_worker.len(), 2);
        assert_eq!(a.per_worker[0].jobs, 3);
        assert_eq!(a.per_worker[0].events, 120);
        assert_eq!(a.per_worker[1].worker, 1);
        assert_eq!(a.per_worker[1].events, 30);
        assert_eq!(a.per_item_events, vec![60, 40, 20, 10, 20]);
    }

    #[test]
    fn per_worker_stats_account_for_all_jobs_and_events() {
        let items: Vec<(u64, u32)> = (0..20).map(|i| (i, (i % 5) as u32 + 1)).collect();
        for threads in [1usize, 4] {
            let (_, stats) = sweep_on_pool(&items, toy_sim, threads, None);
            assert_eq!(stats.per_worker.len(), threads);
            let jobs: u64 = stats.per_worker.iter().map(|w| w.jobs).sum();
            assert_eq!(jobs, items.len() as u64, "threads={threads}");
            let events: u64 = stats.per_worker.iter().map(|w| w.events).sum();
            assert_eq!(events, stats.events, "threads={threads}");
        }
    }

    #[test]
    fn profiler_histograms_identical_across_runs_and_thread_counts() {
        use elanib_simcore::profile::ProfDet;
        use elanib_simcore::KernelProfiler;
        use std::sync::Mutex;

        // toy_sim's program, with an explicit per-sim profiler whose
        // deterministic half is merged into a local accumulator.
        let items: Vec<(u64, u32)> = (0..12).map(|i| (i, (i % 4) as u32 + 1)).collect();
        let run = |threads: usize| -> String {
            let agg = Mutex::new(ProfDet::default());
            sweep_on_pool(
                &items,
                |&(seed, n)| {
                    let prof = KernelProfiler::forced();
                    let sim = Sim::with_profiler(seed, prof.clone());
                    for i in 0..n {
                        let s = sim.clone();
                        sim.spawn(format!("t{i}"), async move {
                            for k in 1..=4u64 {
                                s.sleep(Dur::from_ns(k * (i as u64 + 1))).await;
                            }
                        });
                    }
                    sim.run().unwrap();
                    agg.lock().unwrap().merge(&prof.snapshot().det);
                },
                threads,
                None,
            );
            agg.into_inner().unwrap().to_json()
        };
        // Byte-identical across pool widths and across repeat runs: the
        // deterministic half is a pure function of the grid, and the
        // merge is commutative, so worker scheduling cannot leak in.
        let base = run(1);
        assert!(base.contains("\"poll\""));
        assert_eq!(base, run(2), "2-thread pool diverged");
        assert_eq!(base, run(3), "3-thread pool diverged");
        assert_eq!(base, run(1), "repeat run diverged");
    }

    #[test]
    fn isolated_panic_completes_every_other_point() {
        let items: Vec<u32> = (0..12).collect();
        let opts = SweepOpts {
            isolate_panics: true,
        };
        let (out, stats) = sweep_with_opts(&items, opts, |&i| {
            if i == 5 {
                panic!("boom at {i}");
            }
            i * 2
        });
        assert_eq!(out.len(), 12);
        assert_eq!(stats.failed, 1);
        assert_eq!(stats.failures.len(), 1);
        assert!(
            stats.failures[0].contains("boom at 5"),
            "{:?}",
            stats.failures
        );
        for (i, r) in out.into_iter().enumerate() {
            if i == 5 {
                match r {
                    PointResult::Failed {
                        payload,
                        params_hash,
                    } => {
                        assert!(payload.contains("boom at 5"), "{payload}");
                        assert_eq!(params_hash, super::params_hash(&5u32));
                    }
                    PointResult::Ok(_) => panic!("point 5 should have failed"),
                }
            } else {
                assert_eq!(r.ok(), Some(i as u32 * 2));
            }
        }
    }

    #[test]
    fn retained_failure_sample_is_bounded() {
        // Every point dies: the count reports all of them, the retained
        // message sample stays at the bound.
        let items: Vec<u32> = (0..20).collect();
        let opts = SweepOpts {
            isolate_panics: true,
        };
        let (out, stats) = sweep_with_opts(&items, opts, |&i| -> u32 { panic!("dead {i}") });
        assert_eq!(stats.failed, 20);
        assert_eq!(stats.failures.len(), MAX_RETAINED_FAILURES);
        assert!(out.iter().all(|r| r.is_failed()));
    }

    #[test]
    fn opts_without_isolation_match_plain_sweep() {
        let items: Vec<u32> = (0..6).collect();
        let (out, stats) = sweep_with_opts(&items, SweepOpts::default(), |&i| i + 1);
        let flat: Vec<u32> = out.into_iter().map(|r| r.ok().unwrap()).collect();
        assert_eq!(flat, vec![1, 2, 3, 4, 5, 6]);
        assert_eq!(stats.failed, 0);
    }

    #[test]
    fn lpt_order_is_descending_with_index_ties() {
        assert_eq!(lpt_order(&[3, 9, 9, 1, 7]), vec![1, 2, 4, 0, 3]);
        assert_eq!(lpt_order(&[5, 5, 5]), vec![0, 1, 2]);
        assert!(lpt_order(&[]).is_empty());
    }

    #[test]
    fn guided_placement_matches_unguided_results() {
        // Placement is pure scheduling: hinted and unhinted pools must
        // return byte-identical item-ordered results, and the per-item
        // event feedback must match the serial reference per index.
        let items: Vec<(u64, u32)> = (0..17).map(|i| (i, (i % 6) as u32 + 1)).collect();
        let serial: Vec<_> = items.iter().map(toy_sim).collect();
        let serial_events: Vec<u64> = serial.iter().map(|&(_, e)| e).collect();
        let hints: Vec<u64> = (0..items.len() as u64).rev().collect();
        for hints in [None, Some(&hints[..])] {
            let (out, stats) = sweep_on_pool(&items, toy_sim, 3, hints);
            assert_eq!(out, serial, "hints={hints:?}");
            assert_eq!(stats.per_item_events, serial_events, "hints={hints:?}");
            let jobs: u64 = stats.per_worker.iter().map(|w| w.jobs).sum();
            assert_eq!(jobs, items.len() as u64);
        }
    }

    #[test]
    fn sweep_guided_with_stats_runs_and_reports_per_item_events() {
        let items: Vec<(u64, u32)> = (0..9).map(|i| (i, (i % 3) as u32 + 1)).collect();
        let hints: Vec<u64> = items.iter().map(|&(_, n)| n as u64 * 10).collect();
        let (out, stats) = sweep_guided_with_stats(&items, &hints, toy_sim);
        assert_eq!(out, items.iter().map(toy_sim).collect::<Vec<_>>());
        assert_eq!(stats.per_item_events.len(), items.len());
        let total: u64 = stats.per_item_events.iter().sum();
        assert_eq!(
            total, stats.events,
            "per-item feedback must sum to the total"
        );
    }

    #[test]
    #[should_panic(expected = "one cost hint per sweep item")]
    fn guided_sweep_rejects_mismatched_hints() {
        let items = [(1u64, 1u32), (2, 1)];
        sweep_guided(&items, &[5], toy_sim);
    }
}
