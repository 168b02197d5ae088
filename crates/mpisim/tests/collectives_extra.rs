//! Unit tests for the allgather collective on both transports and both
//! algorithms (recursive doubling for 2^k, ring otherwise).

use std::cell::RefCell;
use std::rc::Rc;

use elanib_mpi::collectives::allgather;
use elanib_mpi::tports::ElanWorld;
use elanib_mpi::verbs::IbWorld;
use elanib_mpi::{Communicator, Network, Payload};
use elanib_simcore::Sim;

/// Rank `r`'s contribution in the default tests: two floats.
fn pair(r: usize) -> Vec<f64> {
    vec![r as f64 * 3.0, 1.0]
}

/// Every rank contributes `contribution(rank)`, charged at 8 bytes per
/// float, and checks that it gets back every rank's contribution.
fn run_allgather(net: Network, nodes: usize, ppn: usize, contribution: fn(usize) -> Vec<f64>) {
    let sim = Sim::new(51);
    let done = Rc::new(RefCell::new(0usize));
    macro_rules! body {
        ($world:expr) => {{
            let w = $world;
            for r in 0..nodes * ppn {
                let c = w.comm(r);
                let d = done.clone();
                sim.spawn(format!("r{r}"), async move {
                    let mine = contribution(c.rank());
                    let bytes = (mine.len() * 8) as u64;
                    let out = allgather(&c, Payload::from(mine), bytes).await;
                    assert_eq!(out.len(), c.size());
                    for (src, b) in out.iter().enumerate() {
                        assert_eq!(b[..], contribution(src)[..]);
                    }
                    *d.borrow_mut() += 1;
                });
            }
        }};
    }
    match net {
        Network::InfiniBand => body!(IbWorld::new(&sim, nodes, ppn)),
        Network::Elan4 => body!(ElanWorld::new(&sim, nodes, ppn)),
        Network::RoceV2(_) => unreachable!("collectives iterate Network::BOTH"),
    }
    sim.run().unwrap();
    assert_eq!(*done.borrow(), nodes * ppn);
}

#[test]
fn allgather_power_of_two() {
    for net in Network::BOTH {
        run_allgather(net, 4, 2, pair); // 8 ranks: recursive doubling
        run_allgather(net, 2, 1, pair); // 2 ranks
    }
}

#[test]
fn allgather_ring_fallback() {
    for net in Network::BOTH {
        run_allgather(net, 3, 1, pair); // 3 ranks: ring
        run_allgather(net, 5, 1, pair); // 5 ranks: ring
    }
}

#[test]
fn allgather_single_rank() {
    run_allgather(Network::Elan4, 1, 1, pair);
}

#[test]
fn allgather_zero_length_contributions() {
    for net in Network::BOTH {
        run_allgather(net, 4, 2, |_| Vec::new()); // recursive doubling
        run_allgather(net, 3, 1, |_| Vec::new()); // ring
    }
}

#[test]
#[should_panic(expected = "MPI_Allgather: every rank must contribute the same count")]
fn allgather_rejects_unequal_contributions() {
    run_allgather(Network::Elan4, 4, 1, |r| vec![1.0; 1 + (r == 0) as usize]);
}
