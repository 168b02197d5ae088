//! Regression test for the observability contract: turning on the
//! kernel profiler (`profile::set_override`, as the repository
//! benchmark's traced pass does) and the tracer must not change a
//! single byte of any committed exhibit, at any sweep thread count.
//!
//! The profiler reads wall clocks and the tracer records events, but
//! both are strictly out-of-band: simulated time, event order and
//! every CSV cell must be identical with them on or off. This is the
//! load-bearing guarantee behind "zero-cost-when-off *and*
//! distortion-free-when-on" — without it, profiled runs could not be
//! trusted to describe the untraced runs they stand in for.

use elanib_apps::md::{ljs, MdProblem};
use elanib_apps::nascg::{class_a_reduced, CgProblem};
use elanib_bench::{cg_figure_table, faults_latency_table, faults_outage_table, md_figure_table};
use elanib_simcore::trace;

struct Tables {
    fig2: String,
    fig6: String,
    flat: String,
    fout: String,
}

fn regenerate(threads: usize) -> Tables {
    std::env::set_var("ELANIB_SWEEP_THREADS", threads.to_string());
    let md = MdProblem { steps: 4, ..ljs() };
    let cg = CgProblem {
        outer: 2,
        inner: 4,
        ..class_a_reduced(1024)
    };
    let (fig2, stats) = md_figure_table(md, &[1usize, 2, 4, 8]);
    assert_eq!(stats.threads, threads);
    let (fig6, _) = cg_figure_table(cg, &[1usize, 2, 4, 8], 1);
    let (flat, _) = faults_latency_table();
    let (fout, _) = faults_outage_table();
    std::env::remove_var("ELANIB_SWEEP_THREADS");
    Tables {
        fig2: fig2.to_csv(),
        fig6: fig6.to_csv(),
        flat: flat.to_csv(),
        fout: fout.to_csv(),
    }
}

#[test]
fn profiled_and_traced_runs_are_byte_identical_to_untraced() {
    // Baseline: untraced, unprofiled.
    trace::set_override(Some(trace::TraceConfig::default()));
    elanib_simcore::profile::set_override(Some(false));
    let base: Vec<Tables> = [1, 2].into_iter().map(regenerate).collect();

    // Tracer + profiler fully on. Nothing flushes here (no `emit`
    // call), so this only exercises the in-sim recording paths.
    trace::set_override(Some(trace::TraceConfig::all()));
    elanib_simcore::profile::set_override(Some(true));
    for (i, threads) in [1usize, 2].into_iter().enumerate() {
        let t = regenerate(threads);
        let label = format!("{threads} threads");
        assert_eq!(
            base[i].fig2, t.fig2,
            "fig2 changed under profiling+tracing ({label})"
        );
        assert_eq!(
            base[i].fig6, t.fig6,
            "fig6 changed under profiling+tracing ({label})"
        );
        assert_eq!(
            base[i].flat, t.flat,
            "fault latency table changed under profiling+tracing ({label})"
        );
        assert_eq!(
            base[i].fout, t.fout,
            "fault outage table changed under profiling+tracing ({label})"
        );
    }
    // Profiling must actually have happened — the identity above is
    // vacuous if the override never reached the kernel.
    let collected = elanib_simcore::profile::take();
    assert!(collected.events() > 0, "profiler saw no events");

    elanib_simcore::profile::set_override(None);
    trace::set_override(None);
}
