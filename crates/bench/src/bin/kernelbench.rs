//! Quick kernel micro-benchmark and allocation audit.
//!
//! Exercises the three kernel event paths in isolation — direct timer
//! dispatch (`timers`), the inline call slab (`calls`), and the wake
//! queue (`pingpong`) — then one fig2-shaped MD point (`model`) as the
//! end-to-end reference. For each scenario it reports events, wall
//! time, events/s, and allocations per event (via a counting global
//! allocator), plus the thread's waker-`Arc` allocation count.
//!
//! Runs in under a second and gates itself; CI's `perf-gate` stage is
//! this binary alone. It exits non-zero when `calls`, `pingpong` or
//! `model` allocates more per event than its budget
//! (`MAX_ALLOCS_PER_EVENT_*`; allocation counts are deterministic, so
//! that gate is exact), or when any scenario dispatches more than
//! [`EPS_GATE_RATIO`] times fewer events per second than its best on
//! record (`BEST_EVENTS_PER_SEC_*`), which catches a dispatch-path
//! slowdown even when every CSV is still byte-identical.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use elanib_simcore::{Dur, Sim};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static EXACT: [AtomicU64; 512] = [const { AtomicU64::new(0) }; 512];

struct Counting;

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        EXACT[layout.size().min(511)].fetch_add(1, Ordering::Relaxed);
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

/// Events/s gates: each scenario's best events/s on record, measured
/// on a 2-vCPU host (the `kernel_*` records of
/// `git show c46c8a7:BENCH_sweep.json`). Wall time is noisy on shared
/// hosts, so the gate only fails a scenario that runs more than
/// [`EPS_GATE_RATIO`] times below its figure: halving dispatch
/// throughput trips it, host jitter does not.
const BEST_EVENTS_PER_SEC_TIMERS: f64 = 12_416_851.5;
const BEST_EVENTS_PER_SEC_CALLS: f64 = 18_047_888.2;
const BEST_EVENTS_PER_SEC_PINGPONG: f64 = 5_206_837.9;
const BEST_EVENTS_PER_SEC_MODEL: f64 = 4_205_790.0;
const EPS_GATE_RATIO: f64 = 2.0;

/// The events/s verdict: a scenario passes while it runs at most
/// [`EPS_GATE_RATIO`] times below its best on record.
fn eps_within_gate(events_per_sec: f64, best: f64) -> bool {
    events_per_sec * EPS_GATE_RATIO >= best
}

/// What [`measure`] reports for one scenario.
struct Measured {
    events_per_sec: f64,
    allocs_per_event: f64,
}

/// Run `body` and report the events it dispatched on this thread, its
/// wall time, events/s and allocations per event; `body` returns any
/// extra text for the line.
fn measure(name: &str, body: impl FnOnce() -> String) -> Measured {
    let e0 = elanib_simcore::thread_events();
    let a0 = ALLOCS.load(Ordering::Relaxed);
    let t0 = Instant::now();
    let extra = body();
    let wall = t0.elapsed();
    let events = elanib_simcore::thread_events() - e0;
    let allocs_per_event = (ALLOCS.load(Ordering::Relaxed) - a0) as f64 / events as f64;
    let events_per_sec = events as f64 / wall.as_secs_f64();
    println!(
        "{name:8} events={events:9} wall={:7.3}s  ev/s={:7.2}M  allocs/event={allocs_per_event:.3}{extra}",
        wall.as_secs_f64(),
        events_per_sec / 1e6,
    );
    Measured {
        events_per_sec,
        allocs_per_event,
    }
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
    elanib_bench::check_env();
    let timers = measure("timers", || run(timers));
    let calls = measure("calls", || run(calls));
    let pingpong = measure("pingpong", || run(pingpong));

    // End-to-end reference: one fig2-shaped MD point.
    let model = measure("model", || {
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

    let alloc_gates = [
        ("calls", &calls, MAX_ALLOCS_PER_EVENT_CALLS),
        ("pingpong", &pingpong, MAX_ALLOCS_PER_EVENT_PINGPONG),
        ("model", &model, MAX_ALLOCS_PER_EVENT_MODEL),
    ];
    let mut failed = Vec::new();
    for (name, m, max) in alloc_gates {
        let got = m.allocs_per_event;
        let verdict = if got > max { "FAIL" } else { "ok" };
        println!("alloc gate {name:8} {got:.3} allocs/event (max {max}) {verdict}");
        if got > max {
            failed.push(format!("{name} allocates {got:.3} per event (max {max})"));
        }
    }
    let eps_gates = [
        ("timers", &timers, BEST_EVENTS_PER_SEC_TIMERS),
        ("calls", &calls, BEST_EVENTS_PER_SEC_CALLS),
        ("pingpong", &pingpong, BEST_EVENTS_PER_SEC_PINGPONG),
        ("model", &model, BEST_EVENTS_PER_SEC_MODEL),
    ];
    for (name, m, best) in eps_gates {
        let got = m.events_per_sec;
        let ok = eps_within_gate(got, best);
        println!(
            "eps gate   {name:8} {:.2}M events/s (best {:.2}M, min {:.2}M) {}",
            got / 1e6,
            best / 1e6,
            best / EPS_GATE_RATIO / 1e6,
            if ok { "ok" } else { "FAIL" }
        );
        if !ok {
            failed.push(format!(
                "{name} runs {:.2}M events/s, {:.1}x below its best on record {:.2}M (allowed {EPS_GATE_RATIO}x)",
                got / 1e6,
                best / got,
                best / 1e6
            ));
        }
    }
    for f in &failed {
        eprintln!("kernelbench: FAIL {f}");
    }
    if !failed.is_empty() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eps_gate_passes_at_exactly_the_ratio_and_fails_past_it() {
        let best = BEST_EVENTS_PER_SEC_MODEL;
        assert!(eps_within_gate(best, best));
        assert!(eps_within_gate(best / EPS_GATE_RATIO, best));
        assert!(!eps_within_gate(best / EPS_GATE_RATIO * (1.0 - 1e-9), best));
        assert!(!eps_within_gate(best / 2.5, best));
    }
}
