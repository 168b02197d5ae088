//! Quick kernel micro-benchmark and allocation audit.
//!
//! Exercises the three kernel event paths in isolation — direct timer
//! dispatch (`timers`), the inline call slab (`calls`), and the wake
//! queue (`pingpong`) — then one fig2-shaped MD point (`model`) as the
//! end-to-end reference. For each scenario it reports events, wall
//! time, events/s, and allocations per event (via a counting global
//! allocator), plus the thread's waker-`Arc` allocation count.
//!
//! Runs in under a second; CI runs it inside the throughput-gate stage
//! so a dispatch-path or allocation regression is visible right next
//! to the rolled-up events/s numbers it would eventually sink. It exits
//! non-zero when `calls`, `pingpong` or `model` allocates more per
//! event than its budget (`MAX_ALLOCS_PER_EVENT_*`): allocation counts
//! are deterministic, so that gate is hard.
//!
//! Diagnostics: set `ALLOCPROBE_BT=<size>` to print a sampled
//! backtrace of every 20000th allocation of exactly `<size>` bytes —
//! the tool that located the hot allocation sites this kernel no
//! longer has.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use elanib_core::sweep::WorkerStat;
use elanib_core::SweepStats;
use elanib_simcore::{Dur, Sim};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static EXACT: [AtomicU64; 512] = [const { AtomicU64::new(0) }; 512];
static PROBE_SIZE: AtomicU64 = AtomicU64::new(0);
static PROBE_N: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static IN_BT: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

struct Counting;

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        EXACT[layout.size().min(511)].fetch_add(1, Ordering::Relaxed);
        // Optional: sample backtraces of allocations of one exact size
        // (ALLOCPROBE_BT=<size>), every 20000th hit.
        if layout.size() as u64 == PROBE_SIZE.load(Ordering::Relaxed)
            && PROBE_N
                .fetch_add(1, Ordering::Relaxed)
                .is_multiple_of(20000)
            && IN_BT.with(|g| !g.replace(true))
        {
            eprintln!(
                "--- {} B alloc ---\n{}",
                layout.size(),
                std::backtrace::Backtrace::force_capture()
            );
            IN_BT.with(|g| g.set(false));
        }
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static A: Counting = Counting;

/// Allocation gates, in allocations per dispatched event. Allocation
/// counts are deterministic, so unlike wall time they can fail a run
/// outright. Each budget sits a few times above the scenario's current
/// figure (calls 0.003, pingpong 0.006, model 0.067) and far below
/// what it measures with one dispatch fast path replaced by a plain
/// allocation, so losing any of them trips the gate:
///
/// * boxed call closures instead of the inline call slab: calls 1.003,
///   model 0.431;
/// * a fresh `Rc` per `Flag` instead of the flag pool: pingpong 1.005,
///   model 0.435;
/// * a plain box per spawned future instead of the future pool:
///   model 0.168.
const MAX_ALLOCS_PER_EVENT_CALLS: f64 = 0.01;
const MAX_ALLOCS_PER_EVENT_PINGPONG: f64 = 0.01;
const MAX_ALLOCS_PER_EVENT_MODEL: f64 = 0.10;

/// Append a sweep-shaped BENCH record for one scenario so the CI
/// events/s gate can judge kernel dispatch throughput directly,
/// best-on-record style, next to the exhibit sweeps. No-op unless
/// `ELANIB_BENCH_JSON` is set.
fn record(label: &str, events: u64, wall: Duration) {
    SweepStats {
        jobs: 1,
        threads: 1,
        events,
        wall,
        failed: 0,
        failures: Vec::new(),
        per_worker: vec![WorkerStat {
            worker: 0,
            jobs: 1,
            events,
            busy: wall,
        }],
        per_item_events: vec![events],
    }
    .record(&format!("kernel_{label}"));
}

/// Run `body` and report the events it dispatched on this thread, its
/// wall time, events/s and allocations per event; `body` returns any
/// extra text for the line. Returns allocations per event.
fn measure(name: &str, body: impl FnOnce() -> String) -> f64 {
    let e0 = elanib_simcore::thread_events();
    let a0 = ALLOCS.load(Ordering::Relaxed);
    let t0 = Instant::now();
    let extra = body();
    let wall = t0.elapsed();
    let events = elanib_simcore::thread_events() - e0;
    let allocs_per_event = (ALLOCS.load(Ordering::Relaxed) - a0) as f64 / events as f64;
    println!(
        "{name:8} events={events:9} wall={:7.3}s  ev/s={:7.2}M  allocs/event={allocs_per_event:.3}{extra}",
        wall.as_secs_f64(),
        events as f64 / wall.as_secs_f64() / 1e6,
    );
    record(name, events, wall);
    allocs_per_event
}

/// Build a scenario on a fresh sim and run it to completion.
fn run(build: fn(&Sim)) -> String {
    let sim = Sim::new(7);
    build(&sim);
    sim.run().unwrap();
    String::new()
}

/// Direct timer dispatch: every event is a `Delay` firing straight
/// back into its task, no waker round-trip.
fn timers(sim: &Sim) {
    for t in 0..64u64 {
        let s = sim.clone();
        sim.spawn_fmt(format_args!("timer{t}"), async move {
            for i in 0..4000u64 {
                s.sleep(Dur::from_ns(10 + ((t + i) % 17))).await;
            }
        });
    }
}

/// Inline call slab: self-rescheduling closures, zero tasks involved.
fn calls(sim: &Sim) {
    fn chain(sim: &Sim, left: u32) {
        if left == 0 {
            return;
        }
        let at = sim.now() + Dur::from_ns(25);
        sim.call_at(at, move |sim| chain(sim, left - 1));
    }
    for _ in 0..64 {
        chain(sim, 4000);
    }
}

/// Wake path: pairs of tasks ping-ponging one-shot flags, re-created
/// per round (also exercises the flag pool).
fn pingpong(sim: &Sim) {
    use elanib_simcore::Flag;
    use std::cell::RefCell;
    use std::rc::Rc;
    for p in 0..32u64 {
        let a: Rc<RefCell<Flag>> = Rc::new(RefCell::new(Flag::new()));
        let b: Rc<RefCell<Flag>> = Rc::new(RefCell::new(Flag::new()));
        let (a2, b2) = (a.clone(), b.clone());
        let s = sim.clone();
        sim.spawn_fmt(format_args!("ping{p}"), async move {
            for _ in 0..2000 {
                s.sleep(Dur::from_ns(20)).await;
                let f = a.borrow().clone();
                f.set();
                let f = b.borrow().clone();
                f.wait().await;
                *b.borrow_mut() = Flag::new();
            }
        });
        let s = sim.clone();
        sim.spawn_fmt(format_args!("pong{p}"), async move {
            for _ in 0..2000 {
                let f = a2.borrow().clone();
                f.wait().await;
                *a2.borrow_mut() = Flag::new();
                s.sleep(Dur::from_ns(20)).await;
                let f = b2.borrow().clone();
                f.set();
            }
        });
    }
}

fn main() {
    if let Ok(s) = std::env::var("ALLOCPROBE_BT") {
        PROBE_SIZE.store(s.parse().unwrap_or(0), Ordering::Relaxed);
    }
    measure("timers", || run(timers));
    let calls_allocs = measure("calls", || run(calls));
    let pingpong_allocs = measure("pingpong", || run(pingpong));

    // End-to-end reference: one fig2-shaped MD point, uncached.
    std::env::set_var("ELANIB_CACHE", "off");
    let model_allocs = measure("model", || {
        let t = elanib_apps::md::proxy::md_step_time(
            elanib_mpi::Network::InfiniBand,
            elanib_apps::md::proxy::ljs(),
            32,
            2,
        );
        format!("  step_s={t:.6}")
    });
    println!(
        "waker_allocs={}  (thread total)",
        elanib_simcore::kernel::thread_waker_allocs()
    );
    // Top exact allocation sizes — the audit trail for new hot sites.
    let mut exact: Vec<(usize, u64)> = EXACT
        .iter()
        .enumerate()
        .map(|(s, c)| (s, c.load(Ordering::Relaxed)))
        .filter(|&(_, c)| c > 5000)
        .collect();
    exact.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
    for (s, c) in exact.iter().take(10) {
        println!("  exactly {s:4} B x {c}");
    }

    let gates = [
        ("calls", calls_allocs, MAX_ALLOCS_PER_EVENT_CALLS),
        ("pingpong", pingpong_allocs, MAX_ALLOCS_PER_EVENT_PINGPONG),
        ("model", model_allocs, MAX_ALLOCS_PER_EVENT_MODEL),
    ];
    let mut over = 0;
    for (name, got, max) in gates {
        let verdict = if got > max { "FAIL" } else { "ok" };
        println!("alloc gate {name:8} {got:.3} allocs/event (max {max}) {verdict}");
        if got > max {
            over += 1;
        }
    }
    if over > 0 {
        eprintln!("kernelbench: {over} scenario(s) over their allocation budget");
        std::process::exit(1);
    }
}
