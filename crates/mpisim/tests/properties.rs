//! Property-based tests across both MPI transports: random traffic
//! must deliver intact, in order, with identical *results* (not
//! timings) on InfiniBand and Elan-4; collectives must agree with
//! serial reference reductions.

use std::cell::RefCell;
use std::rc::Rc;

use proptest::prelude::*;

use elanib_mpi::collectives::{allreduce, bcast, Op};
use elanib_mpi::tports::ElanWorld;
use elanib_mpi::verbs::IbWorld;
use elanib_mpi::{isend, recv, waitall, Communicator, Network, Payload};
use elanib_simcore::Sim;

/// Random pairwise traffic: rank 0 sends a sequence of (tag, value,
/// size) messages to rank 1; rank 1 receives them by tag in a shuffled
/// order. Returns what rank 1 observed, in its receive order.
fn run_traffic(net: Network, msgs: Vec<(i64, f64, u64)>, recv_order: Vec<usize>) -> Vec<f64> {
    let sim = Sim::new(23);
    let got = Rc::new(RefCell::new(Vec::new()));
    macro_rules! body {
        ($world:expr) => {{
            let w = $world;
            for r in 0..2usize {
                let c = w.comm(r);
                let msgs = msgs.clone();
                let order = recv_order.clone();
                let g = got.clone();
                sim.spawn(format!("r{r}"), async move {
                    if c.rank() == 0 {
                        // Non-blocking sends: the receiver drains in a
                        // shuffled order, so blocking rendezvous sends
                        // would deadlock (correct MPI unsafe-ordering
                        // behaviour, verified elsewhere).
                        let mut reqs = Vec::new();
                        for (i, &(tag, v, bytes)) in msgs.iter().enumerate() {
                            reqs.push(
                                isend(&c, 1, tag * 100 + i as i64, Payload::from([v]), bytes).await,
                            );
                        }
                        waitall(&c, reqs).await;
                    } else {
                        for &i in &order {
                            let (tag, _, _) = msgs[i];
                            let m = recv(&c, Some(0), Some(tag * 100 + i as i64)).await;
                            g.borrow_mut().push(m.data[0]);
                        }
                    }
                });
            }
        }};
    }
    match net {
        Network::InfiniBand => body!(IbWorld::new(&sim, 2, 1)),
        Network::Elan4 => body!(ElanWorld::new(&sim, 2, 1)),
        Network::RoceV2(_) => unreachable!("properties iterate Network::BOTH"),
    }
    sim.run().unwrap();
    Rc::try_unwrap(got).unwrap().into_inner()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any message schedule, received in any order (by unique tag),
    /// delivers exactly the sent values — on both networks, with byte
    /// sizes straddling every protocol boundary.
    #[test]
    fn random_traffic_integrity(
        msgs in prop::collection::vec(
            (0i64..3, -1e6f64..1e6, prop_oneof![
                Just(8u64), Just(512), Just(1024), Just(2048),
                Just(4096), Just(8192), Just(100_000)
            ]),
            1..12,
        ),
        seed in 0u64..1000,
    ) {
        // Deterministic shuffle of the receive order.
        let n = msgs.len();
        let mut order: Vec<usize> = (0..n).collect();
        let mut state = seed | 1;
        for i in (1..n).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            order.swap(i, (state >> 33) as usize % (i + 1));
        }
        let expect: Vec<f64> = order.iter().map(|&i| msgs[i].1).collect();
        for net in Network::BOTH {
            let got = run_traffic(net, msgs.clone(), order.clone());
            prop_assert_eq!(&got, &expect, "{} delivered wrong values", net);
        }
    }

    /// allreduce equals the serial reduction for any operator, vector,
    /// and rank count, on both networks.
    #[test]
    fn allreduce_matches_serial(
        per_rank in prop::collection::vec(-1e3f64..1e3, 1..4),
        nodes in 1usize..6,
        ppn in 1usize..3,
        op_sel in 0u8..3,
    ) {
        let op = [Op::Sum, Op::Max, Op::Min][op_sel as usize];
        let nranks = nodes * ppn;
        // Rank r contributes per_rank rotated by r (deterministic,
        // distinct across ranks).
        let contrib = |r: usize| -> Vec<f64> {
            per_rank.iter().map(|v| v + r as f64).collect()
        };
        let mut expect = contrib(0);
        for r in 1..nranks {
            let c = contrib(r);
            for (e, x) in expect.iter_mut().zip(&c) {
                *e = match op {
                    Op::Sum => *e + x,
                    Op::Max => e.max(*x),
                    Op::Min => e.min(*x),
                };
            }
        }
        for net in Network::BOTH {
            let sim = Sim::new(31);
            let results = Rc::new(RefCell::new(Vec::new()));
            macro_rules! body {
                ($world:expr) => {{
                    let w = $world;
                    for r in 0..nranks {
                        let c = w.comm(r);
                        let mine = contrib(r);
                        let res = results.clone();
                        sim.spawn(format!("r{r}"), async move {
                            let out = allreduce(&c, op, &mine).await;
                            res.borrow_mut().push(out);
                        });
                    }
                }};
            }
            match net {
                Network::InfiniBand => body!(IbWorld::new(&sim, nodes, ppn)),
                Network::Elan4 => body!(ElanWorld::new(&sim, nodes, ppn)),
                Network::RoceV2(_) => unreachable!("properties iterate Network::BOTH"),
            }
            sim.run().unwrap();
            for out in results.borrow().iter() {
                for (a, b) in out.iter().zip(&expect) {
                    prop_assert!((a - b).abs() < 1e-9,
                        "{}: got {a}, expected {b}", net);
                }
            }
        }
    }

    /// bcast delivers the root's payload to every rank for any root.
    #[test]
    fn bcast_from_any_root(
        nodes in 1usize..7,
        root_sel in 0usize..7,
        payload in prop::collection::vec(-1e3f64..1e3, 1..5),
    ) {
        let root = root_sel % nodes;
        let sim = Sim::new(37);
        let w = ElanWorld::new(&sim, nodes, 1);
        let seen = Rc::new(RefCell::new(0usize));
        for r in 0..nodes {
            let c = w.comm(r);
            let p = payload.clone();
            let s = seen.clone();
            sim.spawn(format!("r{r}"), async move {
                let data = if c.rank() == root {
                    Payload::from(&p[..])
                } else {
                    elanib_mpi::empty()
                };
                let out = bcast(&c, root, data, (p.len() * 8) as u64).await;
                assert_eq!(out[..], p[..]);
                *s.borrow_mut() += 1;
            });
        }
        sim.run().unwrap();
        prop_assert_eq!(*seen.borrow(), nodes);
    }
}
