//! Ablation tests — the paper's §7 program ("study the exact source of
//! differences in scaling efficiency") made executable: toggle one
//! architectural mechanism at a time and verify it moves the needle in
//! the predicted direction.

use std::cell::Cell;
use std::rc::Rc;

use elanib_mpi::tports::{ElanWorld, TportsMpiParams};
use elanib_mpi::verbs::{IbWorld, VerbsParams};
use elanib_mpi::{bytes_of_f64, irecv, isend, Communicator, NetConfig, CTX_WORLD};
use elanib_nic::ElanParams;
use elanib_simcore::{Dur, Sim};

/// Rendezvous-while-computing experiment (as in the behavior suite):
/// returns the receiver's completion time in ms.
fn ib_recv_time_ms(params: VerbsParams, compute_ms: u64) -> f64 {
    let sim = Sim::new(9);
    let w = IbWorld::with_config(
        &sim,
        2,
        1,
        &NetConfig {
            verbs: params,
            ..NetConfig::default()
        },
    );
    let done = Rc::new(Cell::new(0.0));
    for r in 0..2usize {
        let c = w.comm(r);
        let (d, s) = (done.clone(), sim.clone());
        sim.spawn(format!("r{r}"), async move {
            if c.rank() == 0 {
                let req = isend(&c, 1, 1, bytes_of_f64(&[0.0; 16]), 2_000_000).await;
                c.compute(Dur::from_ms(compute_ms), 0.1).await;
                c.wait(req).await;
            } else {
                let req = irecv(&c, Some(0), Some(1)).await;
                c.wait(req).await;
                d.set(s.now().as_secs_f64() * 1e3);
            }
        });
    }
    sim.run().unwrap();
    done.get()
}

/// ABLATION 1: giving MVAPICH an asynchronous progress engine removes
/// the rendezvous stall — InfiniBand then behaves like Elan-4 on the
/// independent-progress experiment. This isolates §3.3.3 as the cause.
#[test]
fn async_progress_removes_the_stall() {
    let baseline = ib_recv_time_ms(VerbsParams::default(), 40);
    assert!(
        baseline > 40.0,
        "stock MVAPICH must stall until the sender re-enters MPI: {baseline} ms"
    );
    let ablated = ib_recv_time_ms(
        VerbsParams {
            async_progress: true,
            ..VerbsParams::default()
        },
        40,
    );
    assert!(
        ablated < 10.0,
        "async progress must complete the transfer during compute: {ablated} ms"
    );
}

/// The ablated progress engine is not free: its per-message interrupt
/// cost shows up in a latency-sensitive exchange.
#[test]
fn async_progress_costs_latency() {
    // Many small round trips: per message the interrupt dispatch adds
    // async_progress_cost over the polling path.
    fn pingpong_us(params: VerbsParams) -> f64 {
        let sim = Sim::new(4);
        let w = IbWorld::with_config(
            &sim,
            2,
            1,
            &NetConfig {
                verbs: params,
                ..NetConfig::default()
            },
        );
        let out = Rc::new(Cell::new(0.0));
        for r in 0..2usize {
            let c = w.comm(r);
            let (o, s) = (out.clone(), sim.clone());
            sim.spawn(format!("r{r}"), async move {
                let payload = bytes_of_f64(&[0.0]);
                if c.rank() == 0 {
                    let t0 = s.now();
                    for _ in 0..50 {
                        let sr = isend(&c, 1, 1, payload.clone(), 8).await;
                        c.wait(sr).await;
                        let rr = irecv(&c, Some(1), Some(2)).await;
                        c.wait(rr).await;
                    }
                    o.set(s.now().since(t0).as_us_f64() / 100.0);
                } else {
                    for _ in 0..50 {
                        let rr = irecv(&c, Some(0), Some(1)).await;
                        c.wait(rr).await;
                        let sr = isend(&c, 0, 2, payload.clone(), 8).await;
                        c.wait(sr).await;
                    }
                }
            });
        }
        sim.run().unwrap();
        out.get()
    }
    let poll = pingpong_us(VerbsParams::default());
    let intr = pingpong_us(VerbsParams {
        async_progress: true,
        ..VerbsParams::default()
    });
    assert!(
        intr > poll + 2.0,
        "interrupt-driven progress must cost latency: poll {poll} vs intr {intr}"
    );
}

/// ABLATION 2: charging Elan-4 explicit host-based registration makes
/// it buffer-reuse sensitive, quantifying how much §3.3.2 protects it.
#[test]
fn explicit_registration_makes_elan_reuse_sensitive() {
    fn elan_pingpong_us(params: TportsMpiParams, fresh_buffers: bool) -> f64 {
        let sim = Sim::new(4);
        let w = ElanWorld::with_config(
            &sim,
            2,
            1,
            &NetConfig {
                tports: params,
                ..NetConfig::default()
            },
        );
        let out = Rc::new(Cell::new(0.0));
        let bytes = 256 * 1024u64;
        for r in 0..2usize {
            let c = w.comm(r);
            let (o, s) = (out.clone(), sim.clone());
            sim.spawn(format!("r{r}"), async move {
                let payload = bytes_of_f64(&vec![0.0; 64]);
                let region = |dir: u64, i: u32| {
                    if fresh_buffers {
                        (dir << 58) | (5_000 + i as u64)
                    } else {
                        dir << 58
                    }
                };
                if c.rank() == 0 {
                    let t0 = s.now();
                    for i in 0..20 {
                        let sr = c
                            .isend_full(1, 1, CTX_WORLD, payload.clone(), bytes, region(1, i))
                            .await;
                        c.wait(sr).await;
                        let rr = c
                            .irecv_full(Some(1), Some(2), CTX_WORLD, region(2, i))
                            .await;
                        c.wait(rr).await;
                    }
                    o.set(s.now().since(t0).as_us_f64() / 40.0);
                } else {
                    for i in 0..20 {
                        let rr = c
                            .irecv_full(Some(0), Some(1), CTX_WORLD, region(3, i))
                            .await;
                        c.wait(rr).await;
                        let sr = c
                            .isend_full(0, 2, CTX_WORLD, payload.clone(), bytes, region(4, i))
                            .await;
                        c.wait(sr).await;
                    }
                }
            });
        }
        sim.run().unwrap();
        out.get()
    }
    // Stock Elan: fresh buffers cost nothing.
    let stock = TportsMpiParams::default();
    let a = elan_pingpong_us(stock, false);
    let b = elan_pingpong_us(stock, true);
    assert!(
        (b / a - 1.0).abs() < 0.02,
        "stock Elan reuse-insensitive: {a} vs {b}"
    );
    // Ablated Elan: fresh buffers pay IB-style registration.
    let ablated = TportsMpiParams {
        explicit_registration: true,
        ..stock
    };
    let hot = elan_pingpong_us(ablated, false);
    let cold = elan_pingpong_us(ablated, true);
    assert!(
        cold > hot * 1.15,
        "ablated Elan must become reuse-sensitive: hot {hot} vs cold {cold}"
    );
    // With warm caches, the ablation costs only the reg_check lookup.
    assert!(hot < a * 1.10, "warm ablated path near stock: {hot} vs {a}");
}

/// EXTENSION: QsNet's hardware barrier — constant-time at any scale,
/// versus the log-depth software dissemination barrier.
#[test]
fn hardware_barrier_is_flat_in_rank_count() {
    use elanib_mpi::collectives::barrier;

    fn barrier_time_us(nodes: usize, hw: Option<Dur>) -> f64 {
        let sim = Sim::new(6);
        let w = ElanWorld::with_config(
            &sim,
            nodes,
            1,
            &NetConfig {
                elan: ElanParams {
                    hw_barrier: hw,
                    ..ElanParams::default()
                },
                ..NetConfig::default()
            },
        );
        let t = Rc::new(Cell::new(0.0));
        for r in 0..nodes {
            let c = w.comm(r);
            let (t2, s) = (t.clone(), sim.clone());
            sim.spawn(format!("r{r}"), async move {
                for _ in 0..10 {
                    barrier(&c).await;
                }
                if c.rank() == 0 {
                    t2.set(s.now().as_us_f64() / 10.0);
                }
            });
        }
        sim.run().unwrap();
        t.get()
    }

    let hw = Some(Dur::from_us(4));
    let hw4 = barrier_time_us(4, hw);
    let hw32 = barrier_time_us(32, hw);
    let sw4 = barrier_time_us(4, None);
    let sw32 = barrier_time_us(32, None);
    // Hardware: flat in rank count, ~the configured pulse latency.
    assert!(
        (hw32 / hw4 - 1.0).abs() < 0.15,
        "hw barrier flat: {hw4} -> {hw32}"
    );
    assert!(hw4 > 3.9 && hw4 < 8.0, "hw barrier ~pulse latency: {hw4}");
    // Software: grows with log2(n).
    assert!(sw32 > sw4 * 1.5, "sw barrier grows: {sw4} -> {sw32}");
    // At 32 nodes hardware clearly wins.
    assert!(hw32 < sw32 * 0.5, "hw {hw32} vs sw {sw32}");
}
