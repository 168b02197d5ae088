//! Acceptance contract of the fault-injection exhibit:
//!
//! 1. The faults tables are **byte-identical** serial vs through the
//!    sweep engine (every fault draw is a pure function of plan seed,
//!    channel, and packet sequence — no engine or thread state leaks
//!    in).
//! 2. InfiniBand degrades qualitatively faster than Elan-4 under the
//!    same plan — the point of the whole exhibit.
//! 3. Harness self-healing: a sweep with one panicking point still
//!    completes every other point and reports the failure.

use std::sync::Mutex;

use elanib_bench::{faults_latency_table, faults_outage_table};

/// `ELANIB_SWEEP_THREADS` is process-global; tests in this binary that
/// run sweeps serialize on this.
static LOCK: Mutex<()> = Mutex::new(());

fn tables() -> (String, String) {
    let (lat, _) = faults_latency_table();
    let (out, _) = faults_outage_table();
    (lat.to_csv(), out.to_csv())
}

#[test]
fn fault_tables_identical_serial_vs_parallel() {
    let _g = LOCK.lock().unwrap();
    std::env::set_var("ELANIB_SWEEP_THREADS", "1");
    let serial = tables();
    std::env::set_var("ELANIB_SWEEP_THREADS", "4");
    let parallel = tables();
    std::env::remove_var("ELANIB_SWEEP_THREADS");
    assert_eq!(
        serial, parallel,
        "fault draws must not depend on sweep scheduling"
    );
}

#[test]
fn ib_degrades_faster_than_elan_under_the_same_plan() {
    use elanib_fabric::FaultPlan;
    use elanib_microbench::fault_pingpong;
    use elanib_mpi::Network;
    use std::sync::Arc;

    let clean = Arc::new(FaultPlan::parse("loss=0,seed=11").unwrap());
    let lossy = Arc::new(FaultPlan::parse("loss=0.01,seed=11").unwrap());
    let (bytes, iters) = (65_536u64, 20u32);
    let ib0 = fault_pingpong(Network::InfiniBand, bytes, iters, &clean);
    let ib1 = fault_pingpong(Network::InfiniBand, bytes, iters, &lossy);
    let el0 = fault_pingpong(Network::Elan4, bytes, iters, &clean);
    let el1 = fault_pingpong(Network::Elan4, bytes, iters, &lossy);

    assert!(!el1.failed, "Elan must survive 1% loss");
    let el_slow = el1.latency_us / el0.latency_us;
    assert!(
        el_slow < 1.2,
        "Elan degrades smoothly under 1% loss: {el_slow}x"
    );
    if ib1.failed {
        assert!(ib1.retries > 0, "a failed IB point must show retry work");
    } else {
        let ib_slow = ib1.latency_us / ib0.latency_us;
        assert!(
            ib_slow > 3.0 * el_slow,
            "IB must cliff where Elan bends: ib {ib_slow}x vs elan {el_slow}x"
        );
        assert!(ib1.retries > 0);
    }
}

/// One panicking sweep point: every other point completes with its
/// value, and the failure is visible in the stats.
#[test]
fn panicking_point_is_survived_and_reported() {
    use elanib_core::{sweep_with_opts, PointResult, SweepOpts};

    let _g = LOCK.lock().unwrap();
    let items: Vec<u32> = (0..8).collect();
    let opts = SweepOpts {
        isolate_panics: true,
    };
    let (results, stats) = sweep_with_opts(&items, opts, |&x| {
        if x == 3 {
            panic!("injected harness failure at {x}");
        }
        x as f64 * 2.0
    });

    // Every non-panicking point completed with the right value.
    assert_eq!(results.len(), 8);
    assert_eq!(stats.failed, 1);
    assert_eq!(stats.failures.len(), 1, "{:?}", stats.failures);
    assert!(
        stats.failures[0].contains("injected harness failure at 3"),
        "the panic message must be retained: {:?}",
        stats.failures
    );
    for (i, r) in results.into_iter().enumerate() {
        if i == 3 {
            match r {
                PointResult::Failed { payload, .. } => {
                    assert!(payload.contains("injected harness failure"))
                }
                PointResult::Ok(_) => panic!("point 3 must have failed"),
            }
        } else {
            assert_eq!(r.ok(), Some(i as f64 * 2.0));
        }
    }
}
