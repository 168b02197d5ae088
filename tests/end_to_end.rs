//! End-to-end integration tests across the whole workspace, driven
//! through the umbrella crate's public API exactly as a downstream
//! user would.

use elanib::apps::md::{md_study, membrane, MdProblem};
use elanib::apps::nascg::{cg_run, class_a_reduced, serial_cg, CgProblem, SparseSpd};
use elanib::core::{exhibit, figure8_series, EfficiencyTrend, EXHIBITS};
use elanib::cost::{
    elan_network, ib96_network, ib_mixed_network, system_cost_per_node, IbPrices, QuadricsPrices,
};
use elanib::microbench::{beff, pingpong, streaming};
use elanib::mpi::Network;

/// The full pipeline of the paper in miniature: micro-benchmarks →
/// application study → extrapolation → cost-performance, producing the
/// paper's conclusion ("Quadrics scales better; InfiniBand costs
/// less; they could be cost-competitive at scale").
#[test]
fn whole_paper_pipeline() {
    // 1. Micro: Elan has lower latency, similar asymptotic bandwidth.
    let ib_small = pingpong(Network::InfiniBand, 8, 30);
    let el_small = pingpong(Network::Elan4, 8, 30);
    assert!(el_small.latency_us < ib_small.latency_us);
    let ib_big = pingpong(Network::InfiniBand, 1 << 20, 8);
    let el_big = pingpong(Network::Elan4, 1 << 20, 8);
    assert!((el_big.bandwidth_mb_s / ib_big.bandwidth_mb_s) < 1.25);

    // 2. Application: membrane scaling efficiency at 16 nodes.
    let p = MdProblem {
        steps: 8,
        ..membrane()
    };
    let nodes = [1usize, 4, 16];
    let el = md_study(Network::Elan4, p, &nodes, 1);
    let ib = md_study(Network::InfiniBand, p, &nodes, 1);
    assert!(el[2].efficiency > ib[2].efficiency);

    // 3. Extrapolation: fit both and project to 1024.
    let fit = |pts: &[elanib::apps::ScalingPoint]| {
        EfficiencyTrend::fit(
            &pts.iter()
                .map(|s| (s.procs, s.efficiency))
                .collect::<Vec<_>>(),
        )
    };
    let el_1024 = fit(&el).at(1024);
    let ib_1024 = fit(&ib).at(1024);
    assert!(el_1024 > ib_1024);

    // 4. Cost-performance at 1024 nodes.
    let q = QuadricsPrices::default();
    let ibp = IbPrices::default();
    let el_cp = system_cost_per_node(elan_network(&q, 1024)) / el_1024;
    let ib_cp = system_cost_per_node(ib_mixed_network(&ibp, 1024)) / ib_1024;
    // "could be cost-competitive at scale": within 2x either way.
    let ratio = el_cp / ib_cp;
    assert!(
        (0.5..2.0).contains(&ratio),
        "cost-performance ratio {ratio}"
    );
}

/// Determinism across the entire stack: the same experiment twice
/// gives bit-identical timing.
#[test]
fn whole_stack_determinism() {
    let run = || {
        let a = pingpong(Network::InfiniBand, 4096, 12).latency_us;
        let b = beff(Network::Elan4, 3, 2, 1).beff_mb_s;
        let p = MdProblem {
            steps: 4,
            ..membrane()
        };
        let c = md_study(Network::Elan4, p, &[1, 3], 2)[1].time_s;
        (a, b, c)
    };
    assert_eq!(run(), run());
}

/// Real data survives the full simulated stack: distributed CG on a
/// 2-PPN InfiniBand cluster equals the serial solver exactly.
#[test]
fn numerics_survive_the_network() {
    let p = CgProblem {
        n: 512,
        outer: 3,
        inner: 12,
        ..class_a_reduced(512)
    };
    let a = SparseSpd::generate(p.n, p.nz_per_row, 0xC6);
    let (zeta, _) = serial_cg(&a, p.outer, p.inner, p.shift);
    let run = cg_run(Network::InfiniBand, p, 4, 2);
    assert!((run.zeta - zeta).abs() < 1e-10);
    // And the eigenvalue is not the degenerate shift+1.
    assert!((run.zeta - (p.shift + 1.0)).abs() > 1e-3);
}

/// Golden pin on the Figure 6 solver: ζ and simulated time of the 2-D
/// NAS CG at class A timing (n = 1024 real arithmetic, 15×25
/// iterations), one process per node, must not move by a single bit.
/// ζ is blind to last-bit changes in the matvec's partial sums; their
/// bit-exactness is `two_d`'s unit test.
#[test]
fn cg_results_are_pinned_bit_for_bit() {
    use Network::{Elan4, InfiniBand};
    // (network, procs, ζ bits, simulated seconds bits)
    let pins: [(Network, usize, u64, u64); 6] = [
        (InfiniBand, 1, 0x40357a8e87968464, 0x3fdb6e58a32f4491),
        (InfiniBand, 8, 0x40357a8e87968465, 0x3fd34a07e279188f),
        (InfiniBand, 32, 0x40357a8e87968464, 0x3fd0451d620f3678),
        (Elan4, 1, 0x40357a8e87968464, 0x3fdb6e58a32f4491),
        (Elan4, 8, 0x40357a8e87968465, 0x3fcf261baecdcfa2),
        (Elan4, 32, 0x40357a8e87968464, 0x3fc5914e7ebae638),
    ];
    for (net, procs, zeta, time_s) in pins {
        let run = cg_run(net, class_a_reduced(1024), procs, 1);
        assert_eq!(
            (run.zeta.to_bits(), run.time_s.to_bits()),
            (zeta, time_s),
            "{net} at {procs} procs: ζ {} time {} s",
            run.zeta,
            run.time_s
        );
    }
}

/// Golden pin on the Figure 1 microbenchmarks: b_eff over both
/// networks at 2, 4 and 8 nodes, and ping-pong latency at 0 B, 4 KiB
/// and 4 MiB with `fig1`'s iteration counts, must not move by a single
/// bit. The committed CSVs round to 0.1 and would hide last-bit drift.
#[test]
fn microbench_results_are_pinned_bit_for_bit() {
    use Network::{Elan4, InfiniBand};
    // (network, nodes, b_eff MB/s bits)
    let beff_pins: [(Network, usize, u64); 6] = [
        (InfiniBand, 2, 0x4072f755d0e0d373),
        (InfiniBand, 4, 0x4082998d7553461e),
        (InfiniBand, 8, 0x4092f41c4dfe87ff),
        (Elan4, 2, 0x407c18f0c104eedb),
        (Elan4, 4, 0x408a121c7d9462b1),
        (Elan4, 8, 0x4097c095e2f13d2f),
    ];
    for (net, nodes, bits) in beff_pins {
        let p = beff(net, nodes, 1, 2);
        assert_eq!(
            p.beff_mb_s.to_bits(),
            bits,
            "{net} b_eff at {nodes} nodes: {}",
            p.beff_mb_s
        );
    }
    // (network, bytes, iterations, one-way latency µs bits)
    let pingpong_pins: [(Network, u64, u32, u64); 6] = [
        (InfiniBand, 0, 60, 0x401b8fe64f54d1ea),
        (InfiniBand, 4096, 60, 0x403d5d98fd033d13),
        (InfiniBand, 4 << 20, 8, 0x40baf59aadb402d1),
        (Elan4, 0, 60, 0x400688e4fb97bb73),
        (Elan4, 4096, 60, 0x401c7241c3efae7a),
        (Elan4, 4 << 20, 8, 0x40b145dedafd1138),
    ];
    for (net, bytes, iters, bits) in pingpong_pins {
        let p = pingpong(net, bytes, iters);
        assert_eq!(
            p.latency_us.to_bits(),
            bits,
            "{net} ping-pong at {bytes} B: {} µs",
            p.latency_us
        );
    }
}

/// The experiment inventory is complete and every exhibit names a
/// real binary target.
#[test]
fn exhibit_inventory_names_real_binaries() {
    let bins = [
        "table1",
        "fig1",
        "fig2",
        "fig3",
        "fig4",
        "fig5",
        "fig6",
        "fig7",
        "fig8",
        "tables",
        "ablations",
        "faults",
        "roce",
    ];
    for e in EXHIBITS {
        assert!(
            bins.contains(&e.bin),
            "exhibit {} names unknown binary {}",
            e.id,
            e.bin
        );
    }
    assert!(exhibit("Figure 3").is_some());
}

/// Streaming beats ping-pong bandwidth on both networks at small
/// sizes, and the 96-port IB switch premium shows in the cost model —
/// spot checks that cross-crate wiring stays sane.
#[test]
fn cross_crate_sanity() {
    for net in Network::BOTH {
        let st = streaming(net, 512, 100);
        let pp = pingpong(net, 512, 40);
        assert!(st.bandwidth_mb_s > pp.bandwidth_mb_s);
    }
    let ib = IbPrices::default();
    assert!(
        ib96_network(&ib, 96).per_port > ib_mixed_network(&ib, 96).per_port,
        "96-port chassis carries a premium at equal size"
    );
    let s = figure8_series(&[(1, 1.0), (32, 0.9)], 1.0, 1024);
    assert_eq!(s.last().unwrap().0, 1024);
}
