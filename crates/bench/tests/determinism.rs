//! Regression tests for the determinism contract of the parallel sweep
//! engine: regenerating an exhibit serially and through the thread
//! pool must produce byte-identical CSV tables from the same
//! simulations.
//!
//! Each sweep point is its own single-threaded simulation, so the pool
//! width only decides which worker runs which point. The grids are
//! reduced so the tests stay fast in debug builds, but they still
//! cross both networks, both PPN shapes and the fault-injection path.

use std::sync::Mutex;

use elanib_apps::md::{ljs, MdProblem};
use elanib_apps::nascg::{class_a_reduced, CgProblem};
use elanib_bench::{cg_figure_table, faults_latency_table, faults_outage_table, md_figure_table};
use elanib_core::SweepStats;

/// `ELANIB_SWEEP_THREADS` and the point-cache override are process
/// global; the tests in this binary take turns with them.
static ENV: Mutex<()> = Mutex::new(());

/// Run `f` with `ELANIB_SWEEP_THREADS=threads` and the point cache off
/// (a memo hit runs no simulation and would zero its event count, so
/// every regeneration here must be live).
fn at_threads<T>(threads: usize, f: impl FnOnce() -> T) -> T {
    elanib_core::simcache::set_override(Some(elanib_core::simcache::Mode::Off));
    std::env::set_var("ELANIB_SWEEP_THREADS", threads.to_string());
    let out = f();
    std::env::remove_var("ELANIB_SWEEP_THREADS");
    elanib_core::simcache::set_override(None);
    out
}

/// The study grid, seeds (`JobSpec::seed = 21` per job) and fold logic
/// are exactly those of the `fig2` regenerator; only the measured step
/// count is reduced. Node counts span 1..32 so the 2- and 3-D
/// decompositions, both networks and both PPNs are all exercised.
#[test]
fn fig2_study_serial_vs_sweep_engine_identical_csv() {
    let _env = ENV.lock().unwrap_or_else(|e| e.into_inner());
    let problem = MdProblem { steps: 6, ..ljs() };
    let nodes = [1usize, 2, 4, 8, 16, 32];

    let (serial, serial_stats) = at_threads(1, || md_figure_table(problem, &nodes));
    assert_eq!(serial_stats.threads, 1);
    let (parallel, parallel_stats) = at_threads(4, || md_figure_table(problem, &nodes));
    assert_eq!(parallel_stats.threads, 4);

    assert_eq!(
        serial.to_csv(),
        parallel.to_csv(),
        "sweep engine must reproduce the serial fig2 table byte for byte"
    );
    // Same simulations ran in both modes: identical total event count.
    assert_eq!(serial_stats.jobs, parallel_stats.jobs);
    assert_eq!(serial_stats.events, parallel_stats.events);
}

/// fig2, fig6 and both fault tables at 1, 2 and 4 sweep threads: every
/// CSV byte-identical, and the same jobs and events behind each.
#[test]
fn exhibit_tables_identical_at_one_two_and_four_threads() {
    let _env = ENV.lock().unwrap_or_else(|e| e.into_inner());
    let md = MdProblem { steps: 4, ..ljs() };
    let cg = CgProblem {
        outer: 2,
        inner: 4,
        ..class_a_reduced(1024)
    };
    let regenerate = |threads: usize| -> Vec<(&'static str, String, SweepStats)> {
        at_threads(threads, || {
            let (fig2, s2) = md_figure_table(md, &[1usize, 2, 4, 8]);
            let (fig6, s6) = cg_figure_table(cg, &[1usize, 2, 4, 8], 1);
            let (flat, sl) = faults_latency_table();
            let (fout, so) = faults_outage_table();
            vec![
                ("fig2", fig2.to_csv(), s2),
                ("fig6", fig6.to_csv(), s6),
                ("faults_latency", flat.to_csv(), sl),
                ("faults_outage", fout.to_csv(), so),
            ]
        })
    };

    let serial = regenerate(1);
    for threads in [2usize, 4] {
        for ((name, csv, stats), (_, base_csv, base)) in regenerate(threads).iter().zip(&serial) {
            assert_eq!(
                base_csv, csv,
                "{name} must be byte-identical at 1 vs {threads} threads"
            );
            assert_eq!(base.jobs, stats.jobs, "{name} jobs at {threads} threads");
            assert_eq!(
                base.events, stats.events,
                "{name} events at {threads} threads"
            );
        }
    }
}
