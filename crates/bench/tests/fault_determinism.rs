//! Acceptance contract of the fault-injection exhibit:
//!
//! 1. The faults tables are **byte-identical** serial vs through the
//!    sweep engine (every fault draw is a pure function of plan seed,
//!    channel, and packet sequence — no engine or thread state leaks
//!    in).
//! 2. They are byte-identical with the cache disabled, cold, and warm
//!    (hits must be indistinguishable from fresh simulation).
//! 3. InfiniBand degrades qualitatively faster than Elan-4 under the
//!    same plan — the point of the whole exhibit.
//! 4. Harness self-healing: a sweep with one panicking point and one
//!    corrupt disk-cache entry still completes every other point and
//!    reports both failures.
//!
//! One test function per contract, but a single `#[test]` for the
//! cache walk (like `cache_determinism.rs`) since mode overrides are
//! process-global.

use std::sync::Mutex;

use elanib_bench::{faults_latency_table, faults_outage_table};
use elanib_core::simcache::{self, Mode};

/// The cache-mode override and `ELANIB_SWEEP_THREADS` are
/// process-global; tests in this binary run concurrently by default,
/// so every test serializes on this.
static LOCK: Mutex<()> = Mutex::new(());

fn tables() -> (String, String) {
    let (lat, _) = faults_latency_table();
    let (out, _) = faults_outage_table();
    (lat.to_csv(), out.to_csv())
}

#[test]
fn fault_tables_identical_serial_vs_parallel_and_across_cache_modes() {
    let _g = LOCK.lock().unwrap();
    simcache::set_override(Some(Mode::Off));
    std::env::set_var("ELANIB_SWEEP_THREADS", "1");
    let serial = tables();
    std::env::set_var("ELANIB_SWEEP_THREADS", "4");
    let parallel = tables();
    std::env::remove_var("ELANIB_SWEEP_THREADS");
    assert_eq!(
        serial, parallel,
        "fault draws must not depend on sweep scheduling"
    );

    // Cold disk cache, then warm from disk: still the same bytes.
    let dir = std::env::temp_dir().join(format!("elanib-fault-determinism-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    simcache::set_override(Some(Mode::Disk(dir.clone())));
    let cold = tables();
    simcache::clear_memo();
    let before = simcache::stats();
    let warm = tables();
    let d = simcache::stats().delta_since(before);
    assert_eq!(d.misses, 0, "warm run must be answered entirely by disk");
    assert!(d.hits > 0);
    simcache::set_override(None);
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(serial, cold, "cold cache must not change a byte");
    assert_eq!(serial, warm, "disk hits must not change a byte");
}

#[test]
fn ib_degrades_faster_than_elan_under_the_same_plan() {
    use elanib_fabric::FaultPlan;
    use elanib_microbench::fault_pingpong;
    use elanib_mpi::Network;
    use std::sync::Arc;

    let _g = LOCK.lock().unwrap();
    simcache::set_override(Some(Mode::Off));
    let clean = Arc::new(FaultPlan::parse("loss=0,seed=11").unwrap());
    let lossy = Arc::new(FaultPlan::parse("loss=0.01,seed=11").unwrap());
    let (bytes, iters) = (65_536u64, 20u32);
    let ib0 = fault_pingpong(Network::InfiniBand, bytes, iters, &clean);
    let ib1 = fault_pingpong(Network::InfiniBand, bytes, iters, &lossy);
    let el0 = fault_pingpong(Network::Elan4, bytes, iters, &clean);
    let el1 = fault_pingpong(Network::Elan4, bytes, iters, &lossy);
    simcache::set_override(None);

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

/// One panicking sweep point plus one pre-corrupted disk-cache entry:
/// every other point completes, and both failures are visible in the
/// stats.
#[test]
fn panicking_point_and_corrupt_cache_entry_are_both_survived_and_reported() {
    use elanib_core::{sweep_with_opts, PointResult, SweepOpts};

    let _g = LOCK.lock().unwrap();
    let dir = std::env::temp_dir().join(format!("elanib-fault-harness-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    simcache::set_override(Some(Mode::Disk(dir.clone())));

    // Populate the disk tier, then flip a bit in one entry.
    let warm =
        |x: &u32| -> f64 { simcache::get_or_compute("fault.harness", x, || *x as f64 * 2.0) };
    let items: Vec<u32> = (0..8).collect();
    for x in &items {
        warm(x);
    }
    // Flip a bit in every stored entry (directory order is arbitrary,
    // so targeting "one" entry could land on the point that panics and
    // is never read back).
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        let mut blob = std::fs::read(&path).unwrap();
        let last = blob.len() - 1;
        blob[last] ^= 0x01;
        std::fs::write(&path, blob).unwrap();
    }
    simcache::clear_memo();

    let corrupt_before = simcache::stats().corrupt;
    let opts = SweepOpts {
        isolate_panics: true,
    };
    let (results, stats) = sweep_with_opts(&items, opts, |&x| {
        if x == 3 {
            panic!("injected harness failure at {x}");
        }
        warm(&x)
    });

    // Every non-panicking point completed with the right value —
    // including the one whose cache entry was corrupt (silently
    // recomputed).
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
    assert!(
        simcache::stats().corrupt > corrupt_before,
        "the bit-flipped entry must be counted as corrupt"
    );

    simcache::set_override(None);
    let _ = std::fs::remove_dir_all(&dir);
}
