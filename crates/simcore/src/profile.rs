//! Deterministic kernel profiler: per-event-type cost attribution.
//!
//! End-to-end wall time says nothing about *where* events/sec goes —
//! payload dispatch? wheel cascades? wake drains? This module answers
//! that with the same
//! zero-cost-when-off discipline as the tracer (`elanib-trace`): the
//! kernel carries an `Option<Rc<KernelProfiler>>` that is `None`
//! unless `ELANIB_PROFILE=1`, so the hot path pays one null check
//! per dispatch when profiling is off and no timestamping, no
//! histogram update, no allocation.
//!
//! ## What is recorded
//!
//! Per [`EventPayload`](crate::kernel) tag (`poll` / `timer` / `call`)
//! plus a `wake` bucket for wake-queue drains. Timer expiry dispatches
//! as a `poll` of the sleeping task, so the `timer` bucket is always
//! empty; it keeps its slot so the record layout stays stable:
//!
//! * event **counts** — deterministic (a pure function of seed and
//!   program);
//! * **simulated-ps advance histograms** (log2 buckets of `at - now`
//!   per dispatched event) — deterministic;
//! * **wall-ns attribution** — each dispatch-loop segment is timed and
//!   charged to the bucket of the event that ran, so the bucket sums
//!   account for essentially the whole `run()` wall time. Wall times
//!   are *not* deterministic and are kept separate from the
//!   deterministic fields in the output.
//!
//! Plus timing-wheel stats (cascade totals, occupancy histogram
//! sampled at each pop, high-water pending count) and a wake-drain
//! batch-size histogram.
//!
//! ## Determinism contract
//!
//! Profiling *observes*; it never schedules events, draws randomness
//! or alters model timing — exhibit CSVs are byte-identical with
//! `ELANIB_PROFILE` on or off (locked by
//! `crates/bench/tests/profile_determinism.rs`). The deterministic
//! fields of a merged profile are themselves byte-identical across
//! runs and across sweep thread counts: per-sim profiles merge by
//! commutative summation, so worker scheduling cannot leak in.
//!
//! ## Collection
//!
//! On drop, a profiler that saw any event submits its totals to a
//! process-global accumulator. [`flush`] (called from the bench
//! harness's `emit`, right next to the tracer flush) takes the merged
//! totals and writes `<label>.profile.json`; the repository benchmark
//! (`benchmark/`) instead drains them with [`take`] after its traced
//! pass and reports them as its `simcore.*` per-layer metrics.

use std::cell::RefCell;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Duration;

/// Number of event-type buckets: poll, timer, call, wake-drain.
pub const TAGS: usize = 4;
/// Bucket names, indexed by tag. `wake` covers wake-queue drains
/// (task polls triggered by synchronization primitives rather than by
/// a popped event).
pub const TAG_NAMES: [&str; TAGS] = ["poll", "timer", "call", "wake"];

/// log2 histogram width: bucket 0 holds zero, bucket `i` holds values
/// `v` with `floor(log2 v) == i - 1`, the last bucket saturates.
pub const HIST_BUCKETS: usize = 64;

#[inline]
fn log2_bucket(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        ((64 - v.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
    }
}

fn env_enabled() -> bool {
    static ON: OnceLock<bool> = OnceLock::new();
    *ON.get_or_init(|| elanib_trace::env_flag("ELANIB_PROFILE"))
}

/// Runtime override used by tests (env vars are cached once per
/// process). `Some(true)` forces every subsequently created simulation
/// to profile; `Some(false)` forces off; `None` restores env behavior.
static OVERRIDE_SET: AtomicBool = AtomicBool::new(false);
static OVERRIDE: Mutex<Option<bool>> = Mutex::new(None);

pub fn set_override(on: Option<bool>) {
    OVERRIDE_SET.store(on.is_some(), Ordering::SeqCst);
    *OVERRIDE.lock().unwrap() = on;
}

/// Whether new simulations should carry a profiler: the test override
/// if set, else the (cached) `ELANIB_PROFILE` environment flag.
pub fn enabled() -> bool {
    if OVERRIDE_SET.load(Ordering::SeqCst) {
        if let Some(on) = *OVERRIDE.lock().unwrap() {
            return on;
        }
    }
    env_enabled()
}

/// The deterministic half of a profile: counts and simulated-time
/// histograms. A pure function of (seed, program) per sim; merged
/// across sims by summation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProfDet {
    /// Dispatched events per tag (`wake` counts woken tasks polled).
    pub count: [u64; TAGS],
    /// log2 histogram of simulated-ps clock advance per popped event,
    /// per tag (the `wake` row stays empty: drains never move the
    /// clock).
    pub advance_hist: [[u64; HIST_BUCKETS]; TAGS],
    /// log2 histogram of wake-drain batch sizes.
    pub wake_batch_hist: [u64; HIST_BUCKETS],
    /// log2 histogram of wheel occupancy (pending events) sampled
    /// before each pop.
    pub occupancy_hist: [u64; HIST_BUCKETS],
    /// Wheel cascade total (events re-filed by bucket rollovers).
    pub cascades: u64,
    /// High-water pending-event count across the run.
    pub high_water: u64,
}

// [u64; 64] has no derived Default (std stops at 32-element arrays).
impl Default for ProfDet {
    fn default() -> ProfDet {
        ProfDet {
            count: [0; TAGS],
            advance_hist: [[0; HIST_BUCKETS]; TAGS],
            wake_batch_hist: [0; HIST_BUCKETS],
            occupancy_hist: [0; HIST_BUCKETS],
            cascades: 0,
            high_water: 0,
        }
    }
}

impl ProfDet {
    /// Commutative summation merge (high-water maxes): the totals of a
    /// set of sims are independent of merge order, which is what makes
    /// merged profiles insensitive to sweep placement.
    pub fn merge(&mut self, o: &ProfDet) {
        for t in 0..TAGS {
            self.count[t] += o.count[t];
            for b in 0..HIST_BUCKETS {
                self.advance_hist[t][b] += o.advance_hist[t][b];
            }
        }
        for b in 0..HIST_BUCKETS {
            self.wake_batch_hist[b] += o.wake_batch_hist[b];
            self.occupancy_hist[b] += o.occupancy_hist[b];
        }
        self.cascades += o.cascades;
        self.high_water = self.high_water.max(o.high_water);
    }

    /// Deterministic JSON rendering of the deterministic fields —
    /// what the cross-run / cross-thread-count identity tests compare.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        for (t, name) in TAG_NAMES.iter().enumerate() {
            s.push_str(&format!(
                "\"{name}\":{{\"count\":{},\"advance_hist\":{}}},",
                self.count[t],
                sparse_hist(&self.advance_hist[t])
            ));
        }
        s.push_str(&format!(
            "\"wake_batch_hist\":{},\"occupancy_hist\":{},\"cascades\":{},\"high_water\":{}}}",
            sparse_hist(&self.wake_batch_hist),
            sparse_hist(&self.occupancy_hist),
            self.cascades,
            self.high_water
        ));
        s
    }
}

/// Render a log2 histogram sparsely: `{"3":17,"5":2}` (bucket index →
/// count, zero buckets omitted) so 64-wide arrays don't bloat the
/// profile files.
fn sparse_hist(h: &[u64; HIST_BUCKETS]) -> String {
    let mut s = String::from("{");
    let mut first = true;
    for (i, &c) in h.iter().enumerate() {
        if c == 0 {
            continue;
        }
        if !first {
            s.push(',');
        }
        first = false;
        s.push_str(&format!("\"{i}\":{c}"));
    }
    s.push('}');
    s
}

/// One simulation's (or one merged flush window's) profile totals.
#[derive(Clone, Debug, Default)]
pub struct ProfTotals {
    pub det: ProfDet,
    /// Wall nanoseconds attributed per tag (dispatch-loop segment of
    /// each event, charged to its bucket). Not deterministic.
    pub wall_ns: [u64; TAGS],
    /// Total wall nanoseconds spent inside `run_events` dispatch
    /// loops, including the unattributed residue (loop entry/exit).
    pub run_wall_ns: u64,
    /// Simulations merged into these totals.
    pub sims: u64,
}

impl ProfTotals {
    /// Commutative summation merge; see [`ProfDet::merge`].
    pub fn merge(&mut self, o: &ProfTotals) {
        self.det.merge(&o.det);
        for t in 0..TAGS {
            self.wall_ns[t] += o.wall_ns[t];
        }
        self.run_wall_ns += o.run_wall_ns;
        self.sims += o.sims;
    }

    pub fn events(&self) -> u64 {
        // `wake` counts polled tasks, not popped events; the popped
        // total is the first three tags.
        self.det.count[0] + self.det.count[1] + self.det.count[2]
    }

    /// Wall-ns attributed to named buckets.
    pub fn attributed_ns(&self) -> u64 {
        self.wall_ns.iter().sum::<u64>()
    }

    /// Share of measured kernel wall time the named buckets account
    /// for, in percent (100.0 when nothing was measured).
    pub fn attribution_pct(&self) -> f64 {
        if self.run_wall_ns == 0 {
            return 100.0;
        }
        100.0 * self.attributed_ns() as f64 / self.run_wall_ns as f64
    }
}

/// Per-simulation profiler. Lives on [`Sim`](crate::Sim) as an
/// `Option<Rc<KernelProfiler>>`; interior mutability keeps the kernel
/// call sites `&self`. On drop, non-empty totals are submitted to the
/// process-global accumulator for [`flush`].
pub struct KernelProfiler {
    t: RefCell<ProfTotals>,
}

impl KernelProfiler {
    /// Build a profiler for a new simulation if profiling is
    /// [`enabled`].
    pub fn from_config() -> Option<Rc<KernelProfiler>> {
        if !enabled() {
            return None;
        }
        Some(Self::forced())
    }

    /// Profiler regardless of environment (tests and harnesses that
    /// read the snapshot directly instead of going through the global
    /// accumulator).
    pub fn forced() -> Rc<KernelProfiler> {
        Rc::new(KernelProfiler {
            t: RefCell::new(ProfTotals {
                sims: 1,
                ..ProfTotals::default()
            }),
        })
    }

    /// Record one dispatched event: its tag, the simulated-ps clock
    /// advance it caused, the wheel occupancy before the pop, and the
    /// wall time of its dispatch-loop segment.
    #[inline]
    pub fn event(&self, tag: usize, advance_ps: u64, occupancy: u64, wall: Duration) {
        let mut t = self.t.borrow_mut();
        let ns = wall.as_nanos() as u64;
        t.det.count[tag] += 1;
        t.det.advance_hist[tag][log2_bucket(advance_ps)] += 1;
        t.det.occupancy_hist[log2_bucket(occupancy)] += 1;
        t.wall_ns[tag] += ns;
        t.run_wall_ns += ns;
    }

    /// Record one wake-queue drain: `batch` tasks polled, charged to
    /// the `wake` bucket.
    #[inline]
    pub fn wake_drain(&self, batch: u64, wall: Duration) {
        let mut t = self.t.borrow_mut();
        let ns = wall.as_nanos() as u64;
        t.det.count[3] += batch;
        t.det.wake_batch_hist[log2_bucket(batch)] += 1;
        t.wall_ns[3] += ns;
        t.run_wall_ns += ns;
    }

    /// Unattributed dispatch-loop wall (entry/exit residue): counted
    /// in the total so attribution honesty is measurable.
    #[inline]
    pub fn loop_residue(&self, wall: Duration) {
        self.t.borrow_mut().run_wall_ns += wall.as_nanos() as u64;
    }

    /// Latest wheel totals (monotone; called at the end of each run).
    pub fn note_wheel(&self, cascades: u64, high_water: u64) {
        let mut t = self.t.borrow_mut();
        t.det.cascades = t.det.cascades.max(cascades);
        t.det.high_water = t.det.high_water.max(high_water);
    }

    /// Wall-ns recorded in dispatch loops so far — the run-loop
    /// wrapper samples this before/after to compute its residue.
    pub fn run_wall_ns(&self) -> u64 {
        self.t.borrow().run_wall_ns
    }

    /// Copy of the totals so far (tests compare these directly).
    pub fn snapshot(&self) -> ProfTotals {
        self.t.borrow().clone()
    }
}

impl Drop for KernelProfiler {
    fn drop(&mut self) {
        let t = self.t.borrow();
        if t.events() == 0 && t.det.count[3] == 0 {
            return;
        }
        accumulator().lock().unwrap().merge(&t);
    }
}

fn accumulator() -> &'static Mutex<ProfTotals> {
    static ACC: OnceLock<Mutex<ProfTotals>> = OnceLock::new();
    ACC.get_or_init(|| Mutex::new(ProfTotals::default()))
}

/// Drain the global accumulator (tests and [`flush`]).
pub fn take() -> ProfTotals {
    std::mem::take(&mut *accumulator().lock().unwrap())
}

/// Paths written by one [`flush`] call.
#[derive(Debug, Default)]
pub struct FlushedProfile {
    pub profile_json: Option<PathBuf>,
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Full profile JSON for one flush window (label + totals).
fn profile_json(label: &str, t: &ProfTotals) -> String {
    let mut s = format!(
        "{{\n  \"exhibit\": \"{}\",\n  \"schema\": 3,\n  \"sims\": {},\n  \"events\": {},\n",
        json_escape(label),
        t.sims,
        t.events(),
    );
    s.push_str(&format!(
        "  \"run_wall_ns\": {},\n  \"attributed_ns\": {},\n  \"attribution_pct\": {:.2},\n",
        t.run_wall_ns,
        t.attributed_ns(),
        t.attribution_pct()
    ));
    s.push_str("  \"buckets\": {\n");
    for (tag, name) in TAG_NAMES.iter().enumerate() {
        let count = t.det.count[tag];
        let ns_per_event = if count > 0 {
            t.wall_ns[tag] as f64 / count as f64
        } else {
            0.0
        };
        let sep = if tag + 1 < TAGS { "," } else { "" };
        s.push_str(&format!(
            "    \"{name}\": {{\"count\": {count}, \"wall_ns\": {}, \"ns_per_event\": {ns_per_event:.1}}}{sep}\n",
            t.wall_ns[tag]
        ));
    }
    s.push_str("  },\n");
    s.push_str(&format!("  \"deterministic\": {}\n}}\n", t.det.to_json()));
    s
}

/// Drain the accumulator and write `<label>.profile.json` for run
/// `label` into `dir`. Returns `None` when nothing was collected — the
/// every-day case of profiling disabled, so exhibit binaries call this
/// unconditionally.
pub fn flush(label: &str, dir: &Path) -> Option<FlushedProfile> {
    let t = take();
    if t.sims == 0 {
        return None;
    }
    let _ = std::fs::create_dir_all(dir);
    let mut out = FlushedProfile::default();
    let p = dir.join(format!("{label}.profile.json"));
    if std::fs::write(&p, profile_json(label, &t)).is_ok() {
        out.profile_json = Some(p);
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log2_buckets_are_monotone_and_saturate() {
        assert_eq!(log2_bucket(0), 0);
        assert_eq!(log2_bucket(1), 1);
        assert_eq!(log2_bucket(2), 2);
        assert_eq!(log2_bucket(3), 2);
        assert_eq!(log2_bucket(4), 3);
        assert_eq!(log2_bucket(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn disabled_config_builds_no_profiler() {
        set_override(Some(false));
        assert!(KernelProfiler::from_config().is_none());
        set_override(None);
    }

    #[test]
    fn merge_sums_counts_and_histograms() {
        let a = KernelProfiler::forced();
        a.event(0, 100, 3, Duration::from_nanos(50));
        a.wake_drain(2, Duration::from_nanos(10));
        let b = KernelProfiler::forced();
        b.event(0, 100, 3, Duration::from_nanos(70));
        b.event(2, 0, 1, Duration::from_nanos(30));
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m.det.count[0], 2);
        assert_eq!(m.det.count[2], 1);
        assert_eq!(m.det.count[3], 2);
        assert_eq!(m.sims, 2);
        assert_eq!(m.events(), 3);
        assert_eq!(m.wall_ns[0], 120);
        assert_eq!(m.det.advance_hist[0][log2_bucket(100)], 2);
        // Attribution: every recorded nanosecond is in a named bucket.
        assert_eq!(m.attribution_pct(), 100.0);
    }

    #[test]
    fn deterministic_json_is_stable_and_sparse() {
        let p = KernelProfiler::forced();
        p.event(1, 4096, 10, Duration::from_nanos(5));
        let s1 = p.snapshot().det.to_json();
        let s2 = p.snapshot().det.to_json();
        assert_eq!(s1, s2);
        assert!(s1.contains("\"timer\":{\"count\":1"), "{s1}");
        // Sparse: only the touched buckets appear.
        assert!(s1.contains(&format!("\"{}\":1", log2_bucket(4096))), "{s1}");
        assert!(!s1.contains("\"0\":0"), "{s1}");
    }
}
