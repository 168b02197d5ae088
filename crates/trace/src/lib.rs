//! # elanib-trace — deterministic tracing & metrics for the simulation stack
//!
//! The paper's whole argument is about *internal* mechanisms — pin-down
//! cache misses, unexpected-message queues, host vs. NIC progress —
//! that end-to-end times hide. This crate is the observability layer
//! that makes those mechanisms visible without perturbing them:
//!
//! * a per-simulation [`Tracer`] records **typed events stamped with
//!   simulated time** (task lifecycles, transfers, collective phases)
//!   and a registry of monotonic [counters](Tracer::add),
//!   [gauges](Tracer::gauge) and [histograms](Tracer::observe);
//! * two deterministic sinks: a Chrome `trace_event` JSON exporter
//!   ([`chrome`]) for single-run deep dives (open in Perfetto /
//!   `chrome://tracing`) and a per-run metrics summary ([`metrics`])
//!   that sweep drivers aggregate into JSON + CSV next to the exhibit
//!   CSVs;
//! * everything is **off by default and zero-cost when off**: the
//!   simulation kernel carries an `Option<Rc<Tracer>>` that is `None`
//!   unless `ELANIB_TRACE=1` or `ELANIB_METRICS=1`, so the hot path
//!   pays one predictable null check per instrumentation point and no
//!   allocation, no dyn dispatch, no formatting.
//!
//! ## Determinism contract
//!
//! Tracing *observes*; it never schedules events, draws randomness, or
//! alters model timing. Timestamps are simulated picoseconds, so a
//! trace of a given (seed, program) is itself reproducible. The
//! repo-wide guarantee — all exhibit CSVs byte-identical with tracing
//! on or off — is locked by `crates/bench/tests/determinism.rs`.
//!
//! ## Environment variables
//!
//! | variable | effect |
//! |---|---|
//! | `ELANIB_TRACE` | `1` → record events, emit `<label>.trace.json` |
//! | `ELANIB_METRICS` | `1` → record counters, emit `<label>.metrics.{json,csv}` |
//!
//! Both are flags read by [`parse_flag`]: unset, empty or `0` is off,
//! `1` is on, and anything else is an error naming the variable. The
//! sinks go to the directory the driver passes to [`flush`]; each
//! simulation keeps at most [`MAX_EVENTS`] events.
//!
//! This crate is dependency-free and knows nothing about the simulator;
//! `elanib-simcore` owns the `SimTime → u64 ps` conversion.

use std::borrow::Cow;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};

pub mod chrome;
pub mod metrics;

pub use metrics::{Gauge, Hist, MetricsSummary};

/// What tracing work a new simulation should do.
#[derive(Clone, Debug, Default)]
pub struct TraceConfig {
    /// Record typed events for the Chrome trace sink.
    pub events: bool,
    /// Record counters/gauges/histograms for the metrics sink.
    pub metrics: bool,
}

impl TraceConfig {
    pub fn enabled(&self) -> bool {
        self.events || self.metrics
    }

    /// Both sinks on — the configuration tests force.
    pub fn all() -> TraceConfig {
        TraceConfig {
            events: true,
            metrics: true,
        }
    }
}

/// Per-simulation event cap: events beyond it are counted as dropped
/// rather than stored, which bounds trace file size in sweeps.
pub const MAX_EVENTS: usize = 200_000;

/// Parse the value of an on/off variable `name`: unset, empty and `0`
/// are off, `1` is on, anything else is an error naming the variable
/// and the value.
pub fn parse_flag(name: &str, v: Option<&str>) -> Result<bool, String> {
    match v {
        None | Some("") | Some("0") => Ok(false),
        Some("1") => Ok(true),
        Some(v) => Err(format!(
            "{name}={v:?} is not a flag: use 1 (on), or 0 or empty (off)"
        )),
    }
}

/// Read the on/off variable `name` from the environment. A value
/// [`parse_flag`] refuses panics with its message; the binaries check
/// every variable before any simulation starts, so only a library
/// caller reaches that.
fn env_flag(name: &str) -> bool {
    parse_flag(name, std::env::var(name).ok().as_deref()).unwrap_or_else(|e| panic!("{e}"))
}

fn env_config() -> &'static TraceConfig {
    static CFG: OnceLock<TraceConfig> = OnceLock::new();
    CFG.get_or_init(|| TraceConfig {
        events: env_flag("ELANIB_TRACE"),
        metrics: env_flag("ELANIB_METRICS"),
    })
}

/// Runtime override used by tests (env vars are cached once per
/// process, so flipping them mid-run is not reliable). `Some(cfg)`
/// forces every subsequently created simulation to trace with `cfg`;
/// `None` restores env-driven behaviour.
static OVERRIDE_SET: AtomicBool = AtomicBool::new(false);
static OVERRIDE: Mutex<Option<TraceConfig>> = Mutex::new(None);

pub fn set_override(cfg: Option<TraceConfig>) {
    OVERRIDE_SET.store(cfg.is_some(), Ordering::SeqCst);
    *OVERRIDE.lock().unwrap() = cfg;
}

/// Effective configuration for the next simulation: the test override
/// if set, else the (cached) environment.
pub fn config() -> TraceConfig {
    if OVERRIDE_SET.load(Ordering::SeqCst) {
        if let Some(cfg) = OVERRIDE.lock().unwrap().clone() {
            return cfg;
        }
    }
    env_config().clone()
}

/// Event phase, mirroring the Chrome `trace_event` phases we emit.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Phase {
    /// A complete event with a duration (`ph:"X"`).
    Span,
    /// A point-in-time marker (`ph:"i"`).
    Instant,
}

/// Interned-or-owned event name. Instrumentation points use `&'static
/// str` (free); task-derived names pay one `String` only when events
/// are actually recorded.
pub type Name = Cow<'static, str>;

/// One recorded trace event. Times are simulated picoseconds.
#[derive(Clone, Debug)]
pub struct Event {
    pub ts_ps: u64,
    pub dur_ps: u64,
    pub ph: Phase,
    /// Track id: task slot, MPI rank, or link index — whatever lane
    /// the category renders on.
    pub tid: u32,
    pub cat: &'static str,
    pub name: Name,
    /// Free argument (bytes, depth).
    pub arg: i64,
}

/// Per-simulation trace recorder. Cheap handle (`Rc`); interior
/// mutability keeps the call sites `&self` like everything else in the
/// single-threaded kernel.
///
/// On drop, a tracer that recorded anything submits its events and
/// metrics snapshot to the process-wide [`collector`], where a driver
/// picks them up with [`flush`].
pub struct Tracer {
    events_on: bool,
    metrics_on: bool,
    seed: u64,
    label: RefCell<String>,
    events: RefCell<Vec<Event>>,
    dropped: Cell<u64>,
    counters: RefCell<BTreeMap<Name, u64>>,
    gauges: RefCell<BTreeMap<Name, Gauge>>,
    hists: RefCell<BTreeMap<Name, Hist>>,
}

impl Tracer {
    /// Build a tracer for the run keyed `seed`, if the current
    /// [`config`] enables any sink.
    pub fn from_config(seed: u64) -> Option<Rc<Tracer>> {
        let cfg = config();
        cfg.enabled()
            .then(|| Rc::new(Tracer::new(cfg.events, cfg.metrics, seed)))
    }

    /// Tracer with both sinks on regardless of environment (tests).
    pub fn forced(seed: u64) -> Rc<Tracer> {
        Rc::new(Tracer::new(true, true, seed))
    }

    fn new(events_on: bool, metrics_on: bool, seed: u64) -> Tracer {
        Tracer {
            events_on,
            metrics_on,
            seed,
            label: RefCell::new(format!("sim-seed{seed}")),
            events: RefCell::new(Vec::new()),
            dropped: Cell::new(0),
            counters: RefCell::new(BTreeMap::new()),
            gauges: RefCell::new(BTreeMap::new()),
            hists: RefCell::new(BTreeMap::new()),
        }
    }

    #[inline]
    pub fn events_on(&self) -> bool {
        self.events_on
    }
    #[inline]
    pub fn metrics_on(&self) -> bool {
        self.metrics_on
    }
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Human-readable identity of this simulation in the sinks
    /// (e.g. `"4X InfiniBand 8n x 2ppn"`). Drivers set it right after
    /// creating the sim.
    pub fn set_label(&self, label: impl Into<String>) {
        *self.label.borrow_mut() = label.into();
    }
    pub fn label(&self) -> String {
        self.label.borrow().clone()
    }

    fn push(&self, ev: Event) {
        let mut evs = self.events.borrow_mut();
        if evs.len() >= MAX_EVENTS {
            self.dropped.set(self.dropped.get() + 1);
            return;
        }
        evs.push(ev);
    }

    /// Point event at `ts_ps` on track `tid`.
    pub fn instant(
        &self,
        cat: &'static str,
        name: impl Into<Name>,
        ts_ps: u64,
        tid: u32,
        arg: i64,
    ) {
        if !self.events_on {
            return;
        }
        self.push(Event {
            ts_ps,
            dur_ps: 0,
            ph: Phase::Instant,
            tid,
            cat,
            name: name.into(),
            arg,
        });
    }

    /// Complete event spanning `[start_ps, end_ps]` on track `tid`.
    pub fn span(
        &self,
        cat: &'static str,
        name: impl Into<Name>,
        start_ps: u64,
        end_ps: u64,
        tid: u32,
        arg: i64,
    ) {
        if !self.events_on {
            return;
        }
        self.push(Event {
            ts_ps: start_ps,
            dur_ps: end_ps.saturating_sub(start_ps),
            ph: Phase::Span,
            tid,
            cat,
            name: name.into(),
            arg,
        });
    }

    /// Bump a monotonic counter.
    pub fn add(&self, name: impl Into<Name>, delta: u64) {
        if !self.metrics_on {
            return;
        }
        *self.counters.borrow_mut().entry(name.into()).or_insert(0) += delta;
    }

    /// Record a gauge observation (keeps last and max).
    pub fn gauge(&self, name: impl Into<Name>, value: i64) {
        if !self.metrics_on {
            return;
        }
        self.gauges
            .borrow_mut()
            .entry(name.into())
            .or_default()
            .record(value);
    }

    /// Record a histogram observation (count/sum/min/max).
    pub fn observe(&self, name: impl Into<Name>, value: u64) {
        if !self.metrics_on {
            return;
        }
        self.hists
            .borrow_mut()
            .entry(name.into())
            .or_default()
            .record(value);
    }

    /// Current value of a monotonic counter (0 if never bumped).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.borrow().get(name).copied().unwrap_or(0)
    }

    /// Snapshot the metrics registry.
    pub fn summary(&self) -> MetricsSummary {
        MetricsSummary {
            label: self.label(),
            seed: self.seed,
            counters: self.counters.borrow().clone(),
            gauges: self.gauges.borrow().clone(),
            hists: self.hists.borrow().clone(),
            dropped_events: self.dropped.get(),
        }
    }

    /// One-line digest of the largest counters — the deadlock report
    /// appends this so a stuck sweep point ships its telemetry with
    /// the panic message.
    pub fn counter_digest(&self, max_entries: usize) -> String {
        let counters = self.counters.borrow();
        let mut items: Vec<(&Name, &u64)> = counters.iter().collect();
        items.sort_by(|a, b| b.1.cmp(a.1).then_with(|| a.0.cmp(b.0)));
        let mut s = String::new();
        for (i, (k, v)) in items.iter().take(max_entries).enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!("{k}={v}"));
        }
        s
    }

    /// Events recorded so far (for tests; sinks use the collector).
    pub fn event_count(&self) -> usize {
        self.events.borrow().len()
    }
    pub fn dropped_events(&self) -> u64 {
        self.dropped.get()
    }
}

impl Drop for Tracer {
    fn drop(&mut self) {
        let has_events = !self.events.borrow().is_empty();
        let has_metrics = !self.counters.borrow().is_empty()
            || !self.gauges.borrow().is_empty()
            || !self.hists.borrow().is_empty();
        if !has_events && !has_metrics {
            return;
        }
        let mut events = std::mem::take(&mut *self.events.borrow_mut());
        // Chrome viewers tolerate any order, but the acceptance
        // contract (and diffability) wants monotone timestamps.
        events.sort_by_key(|e| (e.ts_ps, e.tid));
        collector().lock().unwrap().push(FinishedTrace {
            summary: self.summary(),
            events,
        });
    }
}

/// Everything one finished simulation contributed to the sinks.
pub struct FinishedTrace {
    pub summary: MetricsSummary,
    pub events: Vec<Event>,
}

fn collector() -> &'static Mutex<Vec<FinishedTrace>> {
    static COLLECTOR: OnceLock<Mutex<Vec<FinishedTrace>>> = OnceLock::new();
    COLLECTOR.get_or_init(|| Mutex::new(Vec::new()))
}

/// Drain every finished trace submitted since the last drain, in a
/// deterministic order (sorted by label then seed — sweep workers
/// finish in a scheduler-dependent order, the sinks must not).
pub fn drain() -> Vec<FinishedTrace> {
    let mut traces = std::mem::take(&mut *collector().lock().unwrap());
    traces.sort_by(|a, b| {
        (a.summary.label.as_str(), a.summary.seed).cmp(&(b.summary.label.as_str(), b.summary.seed))
    });
    traces
}

/// Paths written by one [`flush`] call.
#[derive(Debug, Default)]
pub struct FlushedFiles {
    pub trace_json: Option<PathBuf>,
    pub metrics_json: Option<PathBuf>,
    pub metrics_csv: Option<PathBuf>,
}

/// Drain the collector and write the sinks for run `label` into
/// `dir`: `<label>.trace.json` (when any events were recorded) plus
/// `<label>.metrics.json` / `<label>.metrics.csv` (when any metrics
/// were). Returns `None` when nothing was collected — which is the
/// every-day case of tracing disabled, so drivers call this
/// unconditionally.
pub fn flush(label: &str, dir: &Path) -> Option<FlushedFiles> {
    let traces = drain();
    if traces.is_empty() {
        return None;
    }
    let _ = std::fs::create_dir_all(dir);
    let mut out = FlushedFiles::default();
    if traces.iter().any(|t| !t.events.is_empty()) {
        let p = dir.join(format!("{label}.trace.json"));
        if chrome::write_chrome_trace(&p, &traces).is_ok() {
            out.trace_json = Some(p);
        }
    }
    let summaries: Vec<&MetricsSummary> = traces.iter().map(|t| &t.summary).collect();
    if summaries.iter().any(|s| !s.is_empty()) {
        let pj = dir.join(format!("{label}.metrics.json"));
        if metrics::write_metrics_json(&pj, label, &summaries).is_ok() {
            out.metrics_json = Some(pj);
        }
        let pc = dir.join(format!("{label}.metrics.csv"));
        if metrics::write_metrics_csv(&pc, &summaries).is_ok() {
            out.metrics_csv = Some(pc);
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_config_builds_no_tracer() {
        // Env vars are unset in the test harness; override must win.
        set_override(Some(TraceConfig::default()));
        assert!(Tracer::from_config(1).is_none());
        set_override(None);
    }

    #[test]
    fn forced_tracer_records_events_and_counters() {
        let t = Tracer::forced(7);
        t.instant("test", "marker", 100, 0, 0);
        t.span("test", "work", 100, 400, 1, 64);
        t.add("test.count", 2);
        t.add("test.count", 3);
        t.gauge("test.depth", 5);
        t.gauge("test.depth", 2);
        t.observe("test.size", 10);
        assert_eq!(t.event_count(), 2);
        assert_eq!(t.counter("test.count"), 5);
        let s = t.summary();
        assert_eq!(s.gauges["test.depth"].max, 5);
        assert_eq!(s.gauges["test.depth"].last, 2);
        assert_eq!(s.hists["test.size"].count, 1);
    }

    #[test]
    fn event_cap_counts_drops() {
        let t = Tracer::new(true, false, 0);
        for i in 0..MAX_EVENTS as u64 + 7 {
            t.instant("test", "e", i, 0, 0);
        }
        assert_eq!(t.event_count(), MAX_EVENTS);
        assert_eq!(t.dropped_events(), 7);
        // Keep the capped events out of the shared collector.
        t.events.borrow_mut().clear();
    }

    #[test]
    fn counter_digest_ranks_by_value() {
        let t = Tracer::forced(0);
        t.add("small", 1);
        t.add("big", 100);
        t.add("mid", 10);
        assert_eq!(t.counter_digest(2), "big=100, mid=10");
    }

    #[test]
    fn drop_submits_to_collector_and_drain_sorts() {
        // Use distinctive labels so concurrent tests don't interfere.
        let t1 = Tracer::forced(2);
        t1.set_label("zzz-drain-test");
        t1.add("x", 1);
        drop(t1);
        let t2 = Tracer::forced(1);
        t2.set_label("zzz-drain-test");
        t2.add("x", 1);
        drop(t2);
        let drained = drain();
        let ours: Vec<u64> = drained
            .iter()
            .filter(|t| t.summary.label == "zzz-drain-test")
            .map(|t| t.summary.seed)
            .collect();
        assert_eq!(ours, vec![1, 2], "drain must sort by (label, seed)");
        // Put back what we stole from other concurrently-running tests.
        let mut keep: Vec<FinishedTrace> = drained
            .into_iter()
            .filter(|t| t.summary.label != "zzz-drain-test")
            .collect();
        collector().lock().unwrap().append(&mut keep);
    }
}
