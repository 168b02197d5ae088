//! The paper's §3.3.3 argument, as a runnable experiment: a rank posts
//! a large non-blocking send and then computes without calling MPI;
//! the receiver measures when its blocking receive completes.
//!
//! On Elan-4 the NIC answers the rendezvous autonomously — the
//! transfer finishes in wire time. On InfiniBand/MVAPICH the CTS sits
//! unprocessed in the sender's inbox until the sender re-enters the
//! MPI library, so the receive completes only after the compute phase.
//!
//! ```sh
//! cargo run --release --example independent_progress
//! ```

use std::cell::Cell;
use std::rc::Rc;

use elanib::mpi::tports::ElanWorld;
use elanib::mpi::verbs::IbWorld;
use elanib::mpi::{irecv, isend, Communicator, Network, Payload};
use elanib::simcore::{Dur, Sim};

const MSG_BYTES: u64 = 2_000_000;
const COMPUTE_MS: u64 = 25;

fn run(network: Network) -> (f64, f64) {
    let sim = Sim::new(1);
    let recv_done_ms = Rc::new(Cell::new(0.0));
    let total_ms = Rc::new(Cell::new(0.0));

    macro_rules! ranks {
        ($world:expr) => {{
            let w = $world;
            for r in 0..2usize {
                let c = w.comm(r);
                let (rd, tt, s) = (recv_done_ms.clone(), total_ms.clone(), sim.clone());
                sim.spawn(format!("rank{r}"), async move {
                    if c.rank() == 0 {
                        let req = isend(&c, 1, 1, Payload::from([1.0; 64]), MSG_BYTES).await;
                        // Compute phase: NO MPI calls in here.
                        c.compute(Dur::from_ms(COMPUTE_MS), 0.2).await;
                        c.wait(req).await;
                        tt.set(s.now().as_secs_f64() * 1e3);
                    } else {
                        let req = irecv(&c, Some(0), Some(1)).await;
                        c.wait(req).await;
                        rd.set(s.now().as_secs_f64() * 1e3);
                    }
                });
            }
        }};
    }
    match network {
        // RoCE rides the same verbs world as native IB.
        Network::InfiniBand | Network::RoceV2(_) => ranks!(IbWorld::new(&sim, 2, 1)),
        Network::Elan4 => ranks!(ElanWorld::new(&sim, 2, 1)),
    }
    sim.run().unwrap();
    (recv_done_ms.get(), total_ms.get())
}

fn main() {
    println!(
        "Sender: isend {} MB, compute {} ms with no MPI calls, then wait.\n",
        MSG_BYTES / 1_000_000,
        COMPUTE_MS
    );
    for net in Network::BOTH {
        let (recv_ms, total_ms) = run(net);
        println!("{net}:");
        println!("  receiver's recv completed at {recv_ms:>7.2} ms");
        println!("  sender finished everything at {total_ms:>6.2} ms");
        if recv_ms < COMPUTE_MS as f64 {
            println!("  -> transfer completed DURING the compute phase (independent progress)\n");
        } else {
            println!(
                "  -> transfer stalled until the sender re-entered MPI (no independent progress)\n"
            );
        }
    }
}
