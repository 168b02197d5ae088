//! Fabric-contention behaviour through the full MPI stack: incast
//! (many-to-one) and hotspot patterns must show the congestion the
//! b_eff benchmark (Figure 1(d)) depends on, and disjoint traffic must
//! not.

use std::cell::Cell;
use std::rc::Rc;

use elanib_mpi::{
    irecv, isend, recv, send, waitall, Communicator, JobSpec, Network, Payload, RankProgram,
};
use elanib_simcore::SimTime;

/// All ranks except 0 send `bytes` to rank 0 simultaneously; returns
/// the simulated completion time.
#[derive(Clone)]
struct Incast {
    bytes: u64,
    done_at: Rc<Cell<f64>>,
}

impl RankProgram for Incast {
    #[allow(clippy::manual_async_fn)]
    fn run<C: Communicator>(self, c: C) -> impl std::future::Future<Output = ()> + 'static {
        async move {
            let n = c.size();
            if c.rank() == 0 {
                let mut reqs = Vec::new();
                for src in 1..n {
                    reqs.push(irecv(&c, Some(src), Some(1)).await);
                }
                waitall(&c, reqs).await;
                self.done_at.set(c.sim().now().as_secs_f64());
            } else {
                send(&c, 0, 1, Payload::from([c.rank() as f64]), self.bytes).await;
            }
        }
    }
}

fn incast_time(net: Network, nodes: usize, bytes: u64) -> f64 {
    let done = Rc::new(Cell::new(0.0));
    elanib_mpi::run_job(
        JobSpec {
            network: net,
            nodes,
            ppn: 1,
            seed: 19,
        },
        Incast {
            bytes,
            done_at: done.clone(),
        },
    );
    done.get()
}

#[test]
fn incast_is_receiver_bandwidth_bound() {
    // 8 senders of 1 MB each into one node: the receiver's cable and
    // PCI-X serialize ~8 MB, so completion must take at least
    // 8 MB / 0.95 GB/s regardless of network.
    let total_bytes = 8.0 * 1_000_000.0;
    for net in Network::BOTH {
        let t = incast_time(net, 9, 1_000_000);
        let floor = total_bytes / 0.96e9;
        assert!(
            t > floor,
            "{net}: incast in {t}s beats the receiver bandwidth floor {floor}s"
        );
        assert!(
            t < floor * 1.6,
            "{net}: incast too slow: {t}s vs floor {floor}s"
        );
    }
}

#[test]
fn incast_scales_with_sender_count() {
    for net in Network::BOTH {
        let t4 = incast_time(net, 5, 500_000);
        let t8 = incast_time(net, 9, 500_000);
        // Twice the data through the same choke point: ~2x the time.
        let ratio = t8 / t4;
        assert!(
            (1.6..2.4).contains(&ratio),
            "{net}: incast time should ~double with senders: {ratio}"
        );
    }
}

/// Disjoint pairs must run at full speed — no false sharing anywhere in
/// the stack.
#[derive(Clone)]
struct DisjointPairs {
    bytes: u64,
    done_at: Rc<Cell<f64>>,
}

impl RankProgram for DisjointPairs {
    #[allow(clippy::manual_async_fn)]
    fn run<C: Communicator>(self, c: C) -> impl std::future::Future<Output = ()> + 'static {
        async move {
            use elanib_mpi::collectives::barrier;
            let me = c.rank();
            let n = c.size();
            // Exclude MPI_Init (InfiniBand's O(P) queue-pair setup is
            // real, and measured separately in microbench::init_time).
            barrier(&c).await;
            let t0 = c.sim().now();
            if me.is_multiple_of(2) {
                send(&c, me + 1, 1, Payload::from([me as f64]), self.bytes).await;
            } else {
                let _ = recv(&c, Some(me - 1), Some(1)).await;
                if me == n - 1 {
                    self.done_at.set(c.sim().now().since(t0).as_secs_f64());
                }
            }
        }
    }
}

#[test]
fn disjoint_pairs_do_not_contend() {
    // 1 pair vs 4 pairs moving the same per-pair volume: wall time must
    // be nearly identical (paths are disjoint; only switch fan-out is
    // shared).
    for net in Network::BOTH {
        let run = |nodes: usize| {
            let done = Rc::new(Cell::new(0.0));
            elanib_mpi::run_job(
                JobSpec {
                    network: net,
                    nodes,
                    ppn: 1,
                    seed: 19,
                },
                DisjointPairs {
                    bytes: 1_000_000,
                    done_at: done.clone(),
                },
            );
            done.get()
        };
        let t1 = run(2);
        let t4 = run(8);
        assert!(
            t4 < t1 * 1.35,
            "{net}: disjoint pairs must not contend: 1 pair {t1}s vs 4 pairs {t4}s"
        );
    }
}

/// Congestion at the MPI level shows up as reduced aggregate
/// bandwidth, not lost messages: every payload still arrives intact.
#[test]
fn congested_payloads_survive() {
    #[derive(Clone)]
    struct Checked {
        sum: Rc<Cell<f64>>,
    }
    impl RankProgram for Checked {
        #[allow(clippy::manual_async_fn)]
        fn run<C: Communicator>(self, c: C) -> impl std::future::Future<Output = ()> + 'static {
            async move {
                let n = c.size();
                if c.rank() == 0 {
                    let mut sum = 0.0;
                    for _ in 1..n {
                        let m = recv(&c, None, Some(1)).await;
                        sum += m.data[0];
                    }
                    self.sum.set(sum);
                } else {
                    // Two concurrent sends per rank for extra pressure.
                    let r1 = isend(&c, 0, 1, Payload::from([c.rank() as f64]), 300_000).await;
                    c.wait(r1).await;
                }
            }
        }
    }
    let sum = Rc::new(Cell::new(0.0));
    elanib_mpi::run_job(
        JobSpec {
            network: Network::InfiniBand,
            nodes: 12,
            ppn: 1,
            seed: 19,
        },
        Checked { sum: sum.clone() },
    );
    assert_eq!(sum.get(), (1..12).sum::<usize>() as f64);
}

#[test]
fn simulated_clock_is_shared_not_perrank() {
    // Regression guard: incast completion is one global instant, after
    // every sender's traffic — not any per-rank illusion.
    let done = Rc::new(Cell::new(0.0));
    elanib_mpi::run_job(
        JobSpec {
            network: Network::Elan4,
            nodes: 4,
            ppn: 1,
            seed: 19,
        },
        Incast {
            bytes: 100_000,
            done_at: done.clone(),
        },
    );
    assert!(done.get() > 0.0);
    let t = SimTime::ZERO + elanib_simcore::Dur::from_secs_f64(done.get());
    assert!(t > SimTime::ZERO);
}
