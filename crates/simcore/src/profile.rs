//! Kernel profiler: per-event-type wall-time attribution, the
//! instrument behind the repository benchmark's `simcore.*` metrics.
//!
//! End-to-end wall time says nothing about *where* events/sec goes —
//! payload dispatch? wake drains? This module answers that with the
//! same zero-cost-when-off discipline as the tracer (`elanib-trace`):
//! the kernel carries an `Option<Rc<KernelProfiler>>` that is `None`
//! unless [`set_override`] turned profiling on, so the hot path pays
//! one null check per dispatch when profiling is off and no
//! timestamping, no allocation.
//!
//! ## What is recorded
//!
//! Per [`EventPayload`](crate::kernel) tag (`poll` / `timer` / `call`)
//! plus a `wake` bucket for wake-queue drains. Timer expiry dispatches
//! as a `poll` of the sleeping task, so the `timer` bucket is always
//! empty; it keeps its slot so the record layout stays stable:
//!
//! * event **counts** — deterministic (a pure function of the
//!   program);
//! * **wall-ns attribution** — each dispatch-loop segment is timed and
//!   charged to the bucket of the event that ran, so the bucket sums
//!   account for essentially the whole `run()` wall time. Wall times
//!   are *not* deterministic and are kept apart from the counts.
//!
//! ## Determinism contract
//!
//! Profiling *observes*; it never schedules events or alters model
//! timing — exhibit CSVs are byte-identical with the profiler on or
//! off (locked by `crates/bench/tests/profile_determinism.rs`). The
//! counts of a merged profile are themselves identical across runs
//! and across sweep thread counts: per-sim profiles merge by
//! commutative summation, so worker scheduling cannot leak in.
//!
//! ## Collection
//!
//! On drop, a profiler that saw any event submits its totals to a
//! process-global accumulator. The repository benchmark (`benchmark/`)
//! drains them with [`take`] after its traced pass and reports them as
//! its `simcore.*` per-layer metrics.

use std::cell::RefCell;
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

static OVERRIDE: AtomicBool = AtomicBool::new(false);

/// Switch profiling for every subsequently created simulation:
/// `Some(true)` turns it on; `Some(false)` and `None` turn it off.
pub fn set_override(on: Option<bool>) {
    OVERRIDE.store(on == Some(true), Ordering::SeqCst);
}

/// Whether new simulations should carry a profiler.
pub fn enabled() -> bool {
    OVERRIDE.load(Ordering::SeqCst)
}

/// The deterministic half of a profile: event counts. A pure function
/// of the program per sim; merged across sims by summation.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ProfDet {
    /// Dispatched events per tag (`wake` counts woken tasks polled).
    pub count: [u64; TAGS],
}

impl ProfDet {
    /// Commutative summation merge: the totals of a set of sims are
    /// independent of merge order, which is what makes merged profiles
    /// insensitive to sweep placement.
    pub fn merge(&mut self, o: &ProfDet) {
        for t in 0..TAGS {
            self.count[t] += o.count[t];
        }
    }
}

/// One simulation's (or one merged window's) profile totals.
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
/// process-global accumulator that [`take`] drains.
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

    /// Profiler regardless of the override (tests and harnesses that
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

    /// Record one dispatched event: its tag and the wall time of its
    /// dispatch-loop segment.
    #[inline]
    pub fn event(&self, tag: usize, wall: Duration) {
        let mut t = self.t.borrow_mut();
        let ns = wall.as_nanos() as u64;
        t.det.count[tag] += 1;
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
        t.wall_ns[3] += ns;
        t.run_wall_ns += ns;
    }

    /// Unattributed dispatch-loop wall (entry/exit residue): counted
    /// in the total so attribution honesty is measurable.
    #[inline]
    pub fn loop_residue(&self, wall: Duration) {
        self.t.borrow_mut().run_wall_ns += wall.as_nanos() as u64;
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

/// Drain the global accumulator.
pub fn take() -> ProfTotals {
    std::mem::take(&mut *accumulator().lock().unwrap())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_config_builds_no_profiler() {
        set_override(Some(false));
        assert!(KernelProfiler::from_config().is_none());
        set_override(None);
    }

    #[test]
    fn merge_sums_counts_and_wall_ns() {
        let a = KernelProfiler::forced();
        a.event(0, Duration::from_nanos(50));
        a.wake_drain(2, Duration::from_nanos(10));
        let b = KernelProfiler::forced();
        b.event(0, Duration::from_nanos(70));
        b.event(2, Duration::from_nanos(30));
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m.det.count[0], 2);
        assert_eq!(m.det.count[2], 1);
        assert_eq!(m.det.count[3], 2);
        assert_eq!(m.sims, 2);
        assert_eq!(m.events(), 3);
        assert_eq!(m.wall_ns[0], 120);
        // Attribution: every recorded nanosecond is in a named bucket.
        assert_eq!(m.attribution_pct(), 100.0);
    }
}
