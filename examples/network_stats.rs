//! Observability demo: run the same halo-exchange workload on both
//! networks and dump the run statistics — wire traffic, NIC
//! transactions, unexpected-message rates, registration-cache
//! behaviour. These counters are where the §3 architecture differences
//! become visible even before any timing is read.
//!
//! ```sh
//! cargo run --release --example network_stats
//! ```

use elanib::mpi::collectives::{allreduce, barrier, Op};
use elanib::mpi::tports::ElanWorld;
use elanib::mpi::verbs::IbWorld;
use elanib::mpi::{irecv, isend, waitall, Communicator, Network, Payload, WorldStats};
use elanib::simcore::{Dur, Sim};

async fn workload<C: Communicator>(c: C) {
    let n = c.size();
    let me = c.rank();
    let right = (me + 1) % n;
    let left = (me + n - 1) % n;
    for _step in 0..10 {
        // Fixed tag: steps are ordered by the non-overtaking guarantee,
        // and the stable tag means stable buffer identity (so the
        // registration cache can do its job after the first step).
        let rr = irecv(&c, Some(left), Some(7)).await;
        let sr = isend(&c, right, 7, Payload::from([me as f64; 16]), 32 * 1024).await;
        c.compute(Dur::from_us(400), 0.3).await;
        waitall(&c, vec![rr, sr]).await;
        let _ = allreduce(&c, Op::Sum, &[1.0]).await;
    }
    barrier(&c).await;
}

fn main() {
    let nodes = 8;
    let ppn = 2;
    println!("ring halo workload: {nodes} nodes x {ppn} PPN, 10 steps of 32 KB + allreduce\n");
    let mut rows: Vec<(Network, WorldStats, f64)> = Vec::new();
    {
        let sim = Sim::new(61);
        let w = IbWorld::new(&sim, nodes, ppn);
        w.spawn_ranks("stats", workload);
        let t = sim.run().unwrap();
        rows.push((Network::InfiniBand, w.stats(), t.as_secs_f64() * 1e3));
    }
    {
        let sim = Sim::new(61);
        let w = ElanWorld::new(&sim, nodes, ppn);
        w.spawn_ranks("stats", workload);
        let t = sim.run().unwrap();
        rows.push((Network::Elan4, w.stats(), t.as_secs_f64() * 1e3));
    }
    println!(
        "{:<18} {:>10} {:>12} {:>12} {:>10} {:>10} {:>10}",
        "network", "time ms", "wire MB", "NIC msgs", "unexpected", "reg hits", "reg miss"
    );
    for (net, s, ms) in &rows {
        println!(
            "{:<18} {:>10.2} {:>12.2} {:>12} {:>10} {:>10} {:>10}",
            net.label(),
            ms,
            s.wire_bytes as f64 / 1e6,
            s.nic_messages,
            s.unexpected,
            s.reg_hits,
            s.reg_misses,
        );
    }
    println!(
        "\nReading the counters:\n\
         - InfiniBand registers every rendezvous buffer: misses on the\n\
           first step, hits once the pin-down cache is warm. Elan-4\n\
           shows zero registrations ever (NIC MMU, §3.3.2).\n\
         - Link-bytes differ because the two fabrics route differently\n\
           (the Elan 4-ary tree crosses more switch stages at this size).\n\
         - Unexpected counts reveal receivers lagging senders —\n\
           buffered by host software on IB, by the NIC on Elan."
    );
}
