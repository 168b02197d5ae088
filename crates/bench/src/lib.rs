//! # elanib-bench — exhibit regeneration harness
//!
//! One binary per paper exhibit (`table1`, `fig1` … `fig8`, `tables`),
//! each printing the same rows/series the paper reports, labelled from
//! [`elanib_core::inventory`]. Set `ELANIB_RESULTS_DIR` to also write
//! each table as CSV for plotting.

pub mod conformance;
pub mod knobs;
pub mod perf_report;

use std::fs;
use std::path::Path;
use std::sync::{LazyLock, Mutex};
use std::time::Instant;

use elanib_core::{exhibit, panic_message, TextTable};

pub use knobs::check_env;

/// Process-start anchor for the first exhibit's wall-time delta.
/// Forced by [`regen_begin`]; falls back to first-[`emit`] time if a
/// driver forgets to call it (wall then reads ~0 for its first
/// exhibit, never wrong for later ones).
static EPOCH: LazyLock<Instant> = LazyLock::new(Instant::now);

/// When the last exhibit finished: the gap between consecutive
/// [`emit`] calls is each exhibit's wall time.
static LAST_MARK: Mutex<Option<Instant>> = Mutex::new(None);

/// Called first thing in every exhibit driver's `main`: refuses bad
/// `ELANIB_*` input ([`check_env`]), silences the expected QP-ERR
/// panics ([`quiet_qp_errors`]) and pins the wall-clock epoch so the
/// first exhibit's `[regen …]` line covers its simulation time, not
/// just the `emit` call.
pub fn regen_begin() {
    check_env();
    quiet_qp_errors();
    let _ = *EPOCH;
}

/// Keep the IB QP's bounded-retry panic ([`elanib_fuzz::is_qp_error`])
/// out of stderr: the `faults` sweep and the fuzzer catch it as a
/// measured outcome, not a failure. Every other panic still goes to
/// the previously installed hook.
pub fn quiet_qp_errors() {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if !elanib_fuzz::is_qp_error(&panic_message(info.payload())) {
            prev(info);
        }
    }));
}

/// Per-exhibit regeneration record: wall time since the previous
/// exhibit (or [`regen_begin`]), as one stderr `[regen …]` line
/// (`regen_all.sh` surfaces these) so stdout stays byte-stable.
fn record_regen(name: &str) {
    let now = Instant::now();
    let since = LAST_MARK.lock().unwrap().replace(now).unwrap_or(*EPOCH);
    eprintln!("[regen {name}: {:.2} s wall]", (now - since).as_secs_f64());
}

/// Print an exhibit header, render the table, and (optionally) write
/// CSV into `$ELANIB_RESULTS_DIR/<name>.csv`.
///
/// When tracing, metrics or profiling are enabled (`ELANIB_TRACE` /
/// `ELANIB_METRICS` / `ELANIB_PROFILE`), this is also the sink point:
/// every simulation that finished since the previous `emit` is flushed
/// to `<name>.trace.json` / `<name>.metrics.{json,csv}` /
/// `<name>.profile.json` in `ELANIB_RESULTS_DIR`, else the working
/// directory. Flush notices go to stderr so stdout stays byte-stable
/// run to run.
///
/// Each call also reports the table's wall time since the previous
/// `emit` (or `regen_begin`) as one `[regen <name>: ...]` stderr line.
pub fn emit(exhibit_id: &str, name: &str, table: &TextTable) {
    if let Some(e) = exhibit(exhibit_id) {
        println!("== {} — {} ==", e.id, e.title);
        println!("   workload: {}", e.workload);
        println!("   modules:  {}", e.modules);
    } else {
        println!("== {exhibit_id} ==");
    }
    println!();
    println!("{}", table.render());
    let dir = knobs::results_dir();
    if let Some(dir) = &dir {
        let _ = fs::create_dir_all(dir);
        let p = dir.join(format!("{name}.csv"));
        if let Err(e) = fs::write(&p, table.to_csv()) {
            eprintln!("warning: could not write {}: {e}", p.display());
        } else {
            println!("[csv written to {}]", p.display());
        }
    }
    record_regen(name);
    let dir = dir.as_deref().unwrap_or(Path::new("."));
    if let Some(files) = elanib_simcore::trace::flush(name, dir) {
        if let Some(p) = &files.trace_json {
            eprintln!("[trace written to {}]", p.display());
        }
        if let Some(p) = &files.metrics_json {
            eprintln!("[metrics written to {}]", p.display());
        }
    }
    if let Some(files) = elanib_simcore::profile::flush(name, dir) {
        if let Some(p) = &files.profile_json {
            eprintln!("[profile written to {}]", p.display());
        }
    }
}

/// The node counts of the paper's application studies.
pub const STUDY_NODES: [usize; 6] = [1, 2, 4, 8, 16, 32];

/// Report a sweep's throughput on stderr, keeping stdout (the
/// captured exhibit output) byte-stable run to run.
pub fn report_sweep(label: &str, stats: &elanib_core::SweepStats) {
    eprintln!(
        "[sweep {label}: {} jobs on {} threads, {:.2} s wall, {:.1}M events/s]",
        stats.jobs,
        stats.threads,
        stats.wall.as_secs_f64(),
        stats.events_per_sec() / 1e6,
    );
}

/// Build the Figure 2/3 table: the four-curve MD scaled study
/// (network × PPN), times and efficiencies.
///
/// All `4 series × node counts` jobs are independent simulations, so
/// they are flattened into ONE sweep (rather than one per series) to
/// give the engine the widest possible grid; the per-series efficiency
/// normalization is folded serially afterwards. Split from
/// [`md_figure`] so the determinism regression test can rebuild the
/// table under different `ELANIB_SWEEP_THREADS` settings and compare
/// CSVs.
pub fn md_figure_table(
    problem: elanib_apps::md::MdProblem,
    node_counts: &[usize],
) -> (TextTable, elanib_core::SweepStats) {
    use elanib_apps::md::md_step_time;
    use elanib_core::f;
    use elanib_mpi::Network;
    const SERIES: [(Network, usize); 4] = [
        (Network::InfiniBand, 1),
        (Network::InfiniBand, 2),
        (Network::Elan4, 1),
        (Network::Elan4, 2),
    ];
    let jobs: Vec<(Network, usize, usize)> = SERIES
        .iter()
        .flat_map(|&(net, ppn)| node_counts.iter().map(move |&n| (net, ppn, n)))
        .collect();
    // Cost hints for guided placement: an MD point's event count grows
    // with its rank count (nodes × ppn), so the big end of the grid is
    // scheduled first / packed evenly instead of round-robin'd.
    let hints: Vec<u64> = jobs
        .iter()
        .map(|&(_, ppn, nodes)| (nodes * ppn) as u64)
        .collect();
    let (times, stats) =
        elanib_core::sweep_guided_with_stats(&jobs, &hints, |&(net, ppn, nodes)| {
            md_step_time(net, problem, nodes, ppn)
        });
    // series[s][i] = (s/step, efficiency) at node_counts[i].
    let series: Vec<Vec<(f64, f64)>> = (0..SERIES.len())
        .map(|s| {
            let ts = &times[s * node_counts.len()..(s + 1) * node_counts.len()];
            let base = ts[0];
            ts.iter().map(|&t| (t, base / t)).collect()
        })
        .collect();
    let mut t = TextTable::new(vec![
        "nodes",
        "IB 1PPN s/step",
        "IB 2PPN s/step",
        "Elan 1PPN s/step",
        "Elan 2PPN s/step",
        "IB 1PPN eff%",
        "IB 2PPN eff%",
        "Elan 1PPN eff%",
        "Elan 2PPN eff%",
    ]);
    for (i, &nodes) in node_counts.iter().enumerate() {
        t.row(vec![
            nodes.to_string(),
            f(series[0][i].0),
            f(series[1][i].0),
            f(series[2][i].0),
            f(series[3][i].0),
            f(series[0][i].1 * 100.0),
            f(series[1][i].1 * 100.0),
            f(series[2][i].1 * 100.0),
            f(series[3][i].1 * 100.0),
        ]);
    }
    (t, stats)
}

/// Shared generator for Figures 2 and 3: emit the four-curve MD scaled
/// study and report the sweep's throughput.
pub fn md_figure(id: &str, name: &str, problem: elanib_apps::md::MdProblem) {
    let (t, stats) = md_figure_table(problem, &STUDY_NODES);
    emit(id, name, &t);
    report_sweep(name, &stats);
}

/// Build the Figure 6 table: NAS CG class A MOps/s/process and scaling
/// efficiency on both networks. Both per-network studies are sweeps;
/// their stats are merged into one record. Split from the `fig6`
/// binary so the determinism regression tests can rebuild the table
/// at different `ELANIB_SWEEP_THREADS` pool widths and compare CSVs
/// byte-for-byte.
pub fn cg_figure_table(
    problem: elanib_apps::nascg::CgProblem,
    proc_counts: &[usize],
    ppn: usize,
) -> (TextTable, elanib_core::SweepStats) {
    use elanib_apps::nascg::cg_study_with_stats;
    use elanib_core::f;
    use elanib_mpi::Network;
    let (ib, mut stats) = cg_study_with_stats(Network::InfiniBand, problem, proc_counts, ppn);
    let (el, el_stats) = cg_study_with_stats(Network::Elan4, problem, proc_counts, ppn);
    stats.absorb(&el_stats);
    let mut t = TextTable::new(vec![
        "procs",
        "IB MOps/s/proc",
        "Elan MOps/s/proc",
        "IB eff%",
        "Elan eff%",
    ]);
    for (i, &procs) in proc_counts.iter().enumerate() {
        t.row(vec![
            procs.to_string(),
            f(ib[i].1),
            f(el[i].1),
            f(ib[i].0.efficiency_pct()),
            f(el[i].0.efficiency_pct()),
        ]);
    }
    (t, stats)
}

/// Loss rates of the fault-injection latency study. Index 0 is the
/// clean baseline (an effectless plan, byte-identical to no plan).
pub const FAULT_RATES: [f64; 4] = [0.0, 1e-3, 1e-2, 3e-2];

/// Message sizes of the fault-injection latency study.
pub const FAULT_SIZES: [u64; 3] = [64, 4096, 65_536];

fn fault_cell(p: &elanib_microbench::FaultPoint) -> String {
    use elanib_core::f;
    if p.failed {
        "QP-ERR".to_string()
    } else {
        f(p.latency_us)
    }
}

fn fault_slowdown(
    p: &elanib_microbench::FaultPoint,
    base: &elanib_microbench::FaultPoint,
) -> String {
    use elanib_core::f;
    if p.failed || base.latency_us <= 0.0 {
        "-".to_string()
    } else {
        f(p.latency_us / base.latency_us)
    }
}

/// The fault-rate × message-size latency grid: ping-pong on both
/// networks under seeded per-packet loss. Shows Elan's link-level
/// retry degrading latency by microseconds while IB's end-to-end ACK
/// timeout cliffs it by orders of magnitude — and, at the most
/// aggressive rate, kills the QP outright (`QP-ERR` cells).
///
/// The whole `rate × size × network` grid is ONE flattened sweep;
/// rates enter as indices into a prebuilt plan table so the sweep
/// items stay integer-valued.
pub fn faults_latency_table() -> (TextTable, elanib_core::SweepStats) {
    use elanib_core::f;
    use elanib_fabric::FaultPlan;
    use elanib_microbench::fault_pingpong;
    use elanib_mpi::Network;
    use std::sync::Arc;

    let iters = 30u32;
    let plans: Vec<Arc<FaultPlan>> = FAULT_RATES
        .iter()
        .map(|&r| Arc::new(FaultPlan::parse(&format!("loss={r},seed=11")).unwrap()))
        .collect();
    let jobs: Vec<(Network, usize, u64)> = Network::BOTH
        .iter()
        .flat_map(|&net| {
            (0..FAULT_RATES.len())
                .flat_map(move |ri| FAULT_SIZES.iter().map(move |&b| (net, ri, b)))
        })
        .collect();
    let plans_ref = &plans;
    // Guided placement hint: segment count dominates a point's event
    // cost, so the payload size is a faithful analytic proxy.
    let hints: Vec<u64> = jobs.iter().map(|&(_, _, b)| b).collect();
    let (points, stats) =
        elanib_core::sweep_guided_with_stats(&jobs, &hints, |&(net, ri, bytes)| {
            fault_pingpong(net, bytes, iters, &plans_ref[ri])
        });
    // points[net_idx * rates*sizes + ri * sizes + si]
    let idx = |net: usize, ri: usize, si: usize| {
        net * FAULT_RATES.len() * FAULT_SIZES.len() + ri * FAULT_SIZES.len() + si
    };
    let mut t = TextTable::new(vec![
        "bytes",
        "loss rate",
        "IB us",
        "Elan us",
        "IB slowdown",
        "Elan slowdown",
        "IB retransmits",
        "Elan link retries",
    ]);
    for (ri, &rate) in FAULT_RATES.iter().enumerate() {
        for (si, &bytes) in FAULT_SIZES.iter().enumerate() {
            let ib = &points[idx(0, ri, si)];
            let el = &points[idx(1, ri, si)];
            let (ib0, el0) = (&points[idx(0, 0, si)], &points[idx(1, 0, si)]);
            t.row(vec![
                bytes.to_string(),
                f(rate),
                fault_cell(ib),
                fault_cell(el),
                fault_slowdown(ib, ib0),
                fault_slowdown(el, el0),
                ib.retries.to_string(),
                el.retries.to_string(),
            ]);
        }
    }
    (t, stats)
}

/// The link-outage recovery study: stream 100 × 64 KiB across the full
/// diameter of a 16-node fabric while a link on the clean static route
/// goes down for 1 ms / 3 ms. Elan's adaptive routing detours around
/// the outage (reroutes > 0, near-clean time); InfiniBand's static
/// route stalls on timeout-paced whole-message retransmits.
pub fn faults_outage_table() -> (TextTable, elanib_core::SweepStats) {
    use elanib_core::f;
    use elanib_fabric::{elan_fabric, ib_fabric, FaultPlan};
    use elanib_microbench::outage_stream;
    use elanib_mpi::Network;
    use std::sync::Arc;

    let (msgs, bytes) = (100u32, 65_536u64);
    const OUTAGE_US: [u64; 3] = [0, 1_000, 3_000]; // 0 = clean baseline
                                                   // Fault the first switch-side link on each network's own clean
                                                   // 0 -> 15 route, so the outage provably intersects the static path.
    let probe_edge = |net: Network| -> usize {
        let fabric = match net {
            Network::InfiniBand => ib_fabric(16),
            Network::Elan4 => elan_fabric(16),
            Network::RoceV2(_) => elanib_fabric::roce_fabric(16),
        };
        fabric.routes().path(0, 15)[1]
    };
    let plans: Vec<Arc<FaultPlan>> = Network::BOTH
        .iter()
        .flat_map(|&net| {
            let edge = probe_edge(net);
            OUTAGE_US.iter().map(move |&us| {
                // Start at 2 ms: past InfiniBand's per-peer QP setup
                // (~2.25 ms at 16 nodes), so the window intersects the
                // data phase of both networks' streams.
                let spec = if us == 0 {
                    "loss=0,seed=11".to_string()
                } else {
                    format!("outage=link{edge}@2ms+{us}us,seed=11")
                };
                Arc::new(FaultPlan::parse(&spec).unwrap())
            })
        })
        .collect();
    let jobs: Vec<(Network, usize)> = Network::BOTH
        .iter()
        .flat_map(|&net| (0..OUTAGE_US.len()).map(move |oi| (net, oi)))
        .collect();
    let plans_ref = &plans;
    let (points, stats) = elanib_core::sweep_with_stats(&jobs, |&(net, oi)| {
        let pi = match net {
            Network::InfiniBand => oi,
            Network::Elan4 => OUTAGE_US.len() + oi,
            Network::RoceV2(_) => unreachable!("outage sweep iterates Network::BOTH"),
        };
        outage_stream(net, msgs, bytes, &plans_ref[pi])
    });
    let idx = |net: usize, oi: usize| net * OUTAGE_US.len() + oi;
    let mut t = TextTable::new(vec![
        "network",
        "outage ms",
        "stream time us",
        "slowdown",
        "reroutes",
        "outage waits",
        "retries",
    ]);
    for (ni, net) in Network::BOTH.iter().enumerate() {
        let base = &points[idx(ni, 0)];
        for (oi, &us) in OUTAGE_US.iter().enumerate() {
            let p = &points[idx(ni, oi)];
            t.row(vec![
                net.label().to_string(),
                f(us as f64 / 1e3),
                fault_cell(p),
                fault_slowdown(p, base),
                p.reroutes.to_string(),
                p.outage_waits.to_string(),
                p.retries.to_string(),
            ]);
        }
    }
    (t, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use elanib_core::f;

    #[test]
    fn emit_writes_csv_when_requested() {
        let dir = std::env::temp_dir().join("elanib-bench-test");
        std::env::set_var("ELANIB_RESULTS_DIR", &dir);
        let mut t = TextTable::new(vec!["a", "b"]);
        t.row(vec![f(1.0), f(2.0)]);
        emit("Figure 7", "unit_test_table", &t);
        let csv = std::fs::read_to_string(dir.join("unit_test_table.csv")).unwrap();
        assert!(csv.starts_with("a,b"));
        std::env::remove_var("ELANIB_RESULTS_DIR");
        let _ = std::fs::remove_dir_all(dir);
    }
}
