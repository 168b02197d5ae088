//! MPI semantics tests, run identically against every modelled
//! network: the same rank program must produce the same *answers* on
//! InfiniBand, Elan-4 and each RoCEv2 mode — only the timing may
//! differ. This is the transport contract: host matching over verbs
//! and NIC matching over Tports must agree on ordering, wildcards,
//! unexpected-queue matching and payload integrity.

use std::cell::RefCell;
use std::rc::Rc;

use elanib_mpi::collectives::{allreduce, alltoall, barrier, bcast, gather, reduce, Op};
use elanib_mpi::tports::ElanWorld;
use elanib_mpi::verbs::IbWorld;
use elanib_mpi::{
    empty, irecv, isend, recv, send, sendrecv, waitall, Communicator, NetConfig, Network, Payload,
    RoceParams, WorldStats,
};
use elanib_simcore::{Dur, Sim};

/// Run `f` as the rank program on one network and return the world's
/// end-of-run counters.
fn run_on<F, Fut>(net: Network, nodes: usize, ppn: usize, f: F) -> WorldStats
where
    F: Fn(Box<dyn CommAny>) -> Fut + 'static,
    Fut: std::future::Future<Output = ()> + 'static,
{
    let sim = Sim::new(7);
    let stats: Box<dyn Fn() -> WorldStats> = match net {
        Network::Elan4 => {
            let w = ElanWorld::new(&sim, nodes, ppn);
            w.spawn_ranks("test", move |c| f(Box::new(c)));
            Box::new(move || w.stats())
        }
        Network::InfiniBand => {
            let w = IbWorld::new(&sim, nodes, ppn);
            w.spawn_ranks("test", move |c| f(Box::new(c)));
            Box::new(move || w.stats())
        }
        Network::RoceV2(mode) => {
            let cfg = NetConfig::default();
            let w = IbWorld::with_config_roce(&sim, nodes, ppn, &cfg, RoceParams::for_mode(mode));
            w.spawn_ranks("test", move |c| f(Box::new(c)));
            Box::new(move || w.stats())
        }
    };
    sim.run().unwrap_or_else(|e| panic!("{net} deadlock: {e}"));
    stats()
}

/// Run `f` as the rank program on every network in [`Network::ALL`].
fn run_all<F, Fut>(nodes: usize, ppn: usize, f: F)
where
    F: Fn(Box<dyn CommAny>) -> Fut + Clone + 'static,
    Fut: std::future::Future<Output = ()> + 'static,
{
    for net in Network::ALL {
        run_on(net, nodes, ppn, f.clone());
    }
}

/// Object-safe adapter so one test body can run over any transport
/// without generics leaking into every closure.
///
/// (Apps use the generic [`Communicator`] directly; this adapter is a
/// test convenience only.)
pub trait CommAny {
    fn rank(&self) -> usize;
    fn size(&self) -> usize;
    fn sim(&self) -> Sim;
    fn send_b<'a>(
        &'a self,
        dst: usize,
        tag: i64,
        data: elanib_mpi::Payload,
        bytes: u64,
    ) -> std::pin::Pin<Box<dyn std::future::Future<Output = ()> + 'a>>;
    fn recv_b<'a>(
        &'a self,
        src: Option<usize>,
        tag: Option<i64>,
    ) -> std::pin::Pin<Box<dyn std::future::Future<Output = elanib_mpi::RecvMsg> + 'a>>;
    fn barrier_b<'a>(&'a self) -> std::pin::Pin<Box<dyn std::future::Future<Output = ()> + 'a>>;
    fn allreduce_b<'a>(
        &'a self,
        op: Op,
        x: Vec<f64>,
    ) -> std::pin::Pin<Box<dyn std::future::Future<Output = Vec<f64>> + 'a>>;
    fn bcast_b<'a>(
        &'a self,
        root: usize,
        data: elanib_mpi::Payload,
        bytes: u64,
    ) -> std::pin::Pin<Box<dyn std::future::Future<Output = elanib_mpi::Payload> + 'a>>;
    fn gather_b<'a>(
        &'a self,
        root: usize,
        data: elanib_mpi::Payload,
        bytes: u64,
    ) -> std::pin::Pin<Box<dyn std::future::Future<Output = Option<Vec<elanib_mpi::Payload>>> + 'a>>;
    fn alltoall_b<'a>(
        &'a self,
        payloads: Vec<elanib_mpi::Payload>,
        per_peer: u64,
    ) -> std::pin::Pin<Box<dyn std::future::Future<Output = Vec<elanib_mpi::Payload>> + 'a>>;
    fn reduce_b<'a>(
        &'a self,
        root: usize,
        op: Op,
        x: Vec<f64>,
    ) -> std::pin::Pin<Box<dyn std::future::Future<Output = Option<Vec<f64>>> + 'a>>;
    fn sendrecv_b<'a>(
        &'a self,
        dst: usize,
        stag: i64,
        data: elanib_mpi::Payload,
        bytes: u64,
        src: usize,
        rtag: i64,
    ) -> std::pin::Pin<Box<dyn std::future::Future<Output = elanib_mpi::RecvMsg> + 'a>>;
}

impl<C: Communicator> CommAny for C {
    fn rank(&self) -> usize {
        Communicator::rank(self)
    }
    fn size(&self) -> usize {
        Communicator::size(self)
    }
    fn sim(&self) -> Sim {
        Communicator::sim(self)
    }
    fn send_b<'a>(
        &'a self,
        dst: usize,
        tag: i64,
        data: elanib_mpi::Payload,
        bytes: u64,
    ) -> std::pin::Pin<Box<dyn std::future::Future<Output = ()> + 'a>> {
        Box::pin(send(self, dst, tag, data, bytes))
    }
    fn recv_b<'a>(
        &'a self,
        src: Option<usize>,
        tag: Option<i64>,
    ) -> std::pin::Pin<Box<dyn std::future::Future<Output = elanib_mpi::RecvMsg> + 'a>> {
        Box::pin(recv(self, src, tag))
    }
    fn barrier_b<'a>(&'a self) -> std::pin::Pin<Box<dyn std::future::Future<Output = ()> + 'a>> {
        Box::pin(barrier(self))
    }
    fn allreduce_b<'a>(
        &'a self,
        op: Op,
        x: Vec<f64>,
    ) -> std::pin::Pin<Box<dyn std::future::Future<Output = Vec<f64>> + 'a>> {
        Box::pin(async move { allreduce(self, op, &x).await })
    }
    fn bcast_b<'a>(
        &'a self,
        root: usize,
        data: elanib_mpi::Payload,
        bytes: u64,
    ) -> std::pin::Pin<Box<dyn std::future::Future<Output = elanib_mpi::Payload> + 'a>> {
        Box::pin(bcast(self, root, data, bytes))
    }
    fn gather_b<'a>(
        &'a self,
        root: usize,
        data: elanib_mpi::Payload,
        bytes: u64,
    ) -> std::pin::Pin<Box<dyn std::future::Future<Output = Option<Vec<elanib_mpi::Payload>>> + 'a>>
    {
        Box::pin(gather(self, root, data, bytes))
    }
    fn alltoall_b<'a>(
        &'a self,
        payloads: Vec<elanib_mpi::Payload>,
        per_peer: u64,
    ) -> std::pin::Pin<Box<dyn std::future::Future<Output = Vec<elanib_mpi::Payload>> + 'a>> {
        Box::pin(alltoall(self, payloads, per_peer))
    }
    fn reduce_b<'a>(
        &'a self,
        root: usize,
        op: Op,
        x: Vec<f64>,
    ) -> std::pin::Pin<Box<dyn std::future::Future<Output = Option<Vec<f64>>> + 'a>> {
        Box::pin(async move { reduce(self, root, op, &x).await })
    }
    fn sendrecv_b<'a>(
        &'a self,
        dst: usize,
        stag: i64,
        data: elanib_mpi::Payload,
        bytes: u64,
        src: usize,
        rtag: i64,
    ) -> std::pin::Pin<Box<dyn std::future::Future<Output = elanib_mpi::RecvMsg> + 'a>> {
        Box::pin(sendrecv(self, dst, stag, data, bytes, src, rtag))
    }
}

#[test]
fn pingpong_payload_integrity() {
    run_all(2, 1, |c| async move {
        if c.rank() == 0 {
            c.send_b(1, 5, Payload::from([1.0, 2.0, 3.0]), 24).await;
            let m = c.recv_b(Some(1), Some(6)).await;
            assert_eq!(m.data[..], [2.0, 4.0, 6.0]);
        } else {
            let m = c.recv_b(Some(0), Some(5)).await;
            let doubled: Vec<f64> = m.data.iter().map(|x| x * 2.0).collect();
            c.send_b(0, 6, Payload::from(&doubled[..]), 24).await;
        }
    });
}

#[test]
fn large_message_rendezvous_integrity() {
    // 256 KiB: rendezvous on every network.
    run_all(2, 1, |c| async move {
        let n = 1024usize;
        if c.rank() == 0 {
            let data: Vec<f64> = (0..n).map(|i| i as f64).collect();
            c.send_b(1, 1, Payload::from(&data[..]), 256 * 1024).await;
        } else {
            let m = c.recv_b(Some(0), Some(1)).await;
            assert_eq!(m.bytes, 256 * 1024);
            let got = &m.data[..];
            assert_eq!(got.len(), n);
            assert_eq!(got[1023], 1023.0);
        }
    });
}

#[test]
fn non_overtaking_same_tag() {
    run_all(2, 1, |c| async move {
        let count = 20;
        if c.rank() == 0 {
            for i in 0..count {
                c.send_b(1, 9, Payload::from([i as f64]), 8).await;
            }
        } else {
            for i in 0..count {
                let m = c.recv_b(Some(0), Some(9)).await;
                assert_eq!(m.data[0], i as f64, "overtaken at {i}");
            }
        }
    });
}

#[test]
fn mixed_eager_and_rendezvous_stay_ordered() {
    run_all(2, 1, |c| async move {
        if c.rank() == 0 {
            // Rendezvous first (slow), eager second (fast): the
            // receiver must still match them in posted order.
            c.send_b(1, 3, Payload::from([111.0]), 500_000).await;
            c.send_b(1, 3, Payload::from([222.0]), 8).await;
        } else {
            let a = c.recv_b(Some(0), Some(3)).await;
            let b = c.recv_b(Some(0), Some(3)).await;
            assert_eq!(a.data[0], 111.0);
            assert_eq!(b.data[0], 222.0);
            assert_eq!(a.bytes, 500_000);
            assert_eq!(b.bytes, 8);
        }
    });
}

#[test]
fn wildcard_source_and_tag() {
    run_all(3, 1, |c| async move {
        match c.rank() {
            0 => {
                // Two receives with ANY_SOURCE/ANY_TAG get both sends.
                let mut got = vec![];
                for _ in 0..2 {
                    let m = c.recv_b(None, None).await;
                    got.push((m.src, m.tag, m.data[0]));
                }
                got.sort_by_key(|g| g.0);
                assert_eq!(got[0], (1, 10, 1.5));
                assert_eq!(got[1], (2, 20, 2.5));
            }
            1 => c.send_b(0, 10, Payload::from([1.5]), 8).await,
            2 => c.send_b(0, 20, Payload::from([2.5]), 8).await,
            _ => unreachable!(),
        }
    });
}

#[test]
fn unexpected_messages_match_later_receive() {
    run_all(2, 1, |c| async move {
        if c.rank() == 0 {
            c.send_b(1, 1, Payload::from([7.0]), 8).await;
            c.send_b(1, 2, Payload::from([8.0]), 8).await;
        } else {
            // Sleep so both messages are unexpected, then receive in
            // the *reverse* tag order.
            c.sim().sleep(Dur::from_ms(1)).await;
            let b = c.recv_b(Some(0), Some(2)).await;
            let a = c.recv_b(Some(0), Some(1)).await;
            assert_eq!(b.data[0], 8.0);
            assert_eq!(a.data[0], 7.0);
        }
    });
}

#[test]
fn sendrecv_exchange_ring() {
    run_all(4, 1, |c| async move {
        let n = c.size();
        let me = c.rank();
        let right = (me + 1) % n;
        let left = (me + n - 1) % n;
        let m = c
            .sendrecv_b(right, 7, Payload::from([me as f64]), 8, left, 7)
            .await;
        assert_eq!(m.data[0], left as f64);
    });
}

#[test]
fn intra_node_2ppn_messaging() {
    run_all(2, 2, |c| async move {
        // 4 ranks; 0&1 share node 0. Ring exchange crosses both the
        // loopback path and the wire.
        let n = c.size();
        let me = c.rank();
        let m = c
            .sendrecv_b(
                (me + 1) % n,
                1,
                Payload::from([me as f64]),
                1024,
                (me + n - 1) % n,
                1,
            )
            .await;
        assert_eq!(m.data[0], ((me + n - 1) % n) as f64);
    });
}

#[test]
fn barrier_synchronizes() {
    for nodes in [2, 3, 5] {
        run_all(nodes, 1, |c| async move {
            let before = c.sim().now();
            c.barrier_b().await;
            let after = c.sim().now();
            assert!(after > before);
            c.barrier_b().await;
            c.barrier_b().await;
        });
    }
}

#[test]
fn allreduce_sum_and_max() {
    for (nodes, ppn) in [(4, 1), (3, 2)] {
        run_all(nodes, ppn, |c| async move {
            let me = c.rank() as f64;
            let n = c.size() as f64;
            let s = c.allreduce_b(Op::Sum, vec![me, 1.0]).await;
            assert_eq!(s[0], n * (n - 1.0) / 2.0);
            assert_eq!(s[1], n);
            let m = c.allreduce_b(Op::Max, vec![me]).await;
            assert_eq!(m[0], n - 1.0);
            let mn = c.allreduce_b(Op::Min, vec![me]).await;
            assert_eq!(mn[0], 0.0);
        });
    }
}

#[test]
fn bcast_from_nonzero_root() {
    run_all(5, 1, |c| async move {
        let payload = if c.rank() == 3 {
            Payload::from([42.0, 43.0])
        } else {
            empty()
        };
        let data = c.bcast_b(3, payload, 16).await;
        assert_eq!(data[..], [42.0, 43.0]);
    });
}

#[test]
fn reduce_to_root() {
    run_all(6, 1, |c| async move {
        let r = c.reduce_b(2, Op::Sum, vec![1.0]).await;
        if c.rank() == 2 {
            assert_eq!(r.unwrap(), vec![6.0]);
        } else {
            assert!(r.is_none());
        }
    });
}

#[test]
fn gather_collects_in_rank_order() {
    run_all(4, 1, |c| async move {
        let me = c.rank();
        let out = c.gather_b(0, Payload::from([me as f64 * 10.0]), 8).await;
        if me == 0 {
            let v: Vec<f64> = out.unwrap().iter().map(|b| b[0]).collect();
            assert_eq!(v, vec![0.0, 10.0, 20.0, 30.0]);
        }
    });
}

#[test]
fn alltoall_exchanges_everything() {
    run_all(4, 1, |c| async move {
        let me = c.rank();
        let n = c.size();
        let payloads: Vec<_> = (0..n)
            .map(|d| Payload::from([(me * 100 + d) as f64]))
            .collect();
        let got = c.alltoall_b(payloads, 8).await;
        for (src, b) in got.iter().enumerate() {
            assert_eq!(b[0], (src * 100 + me) as f64);
        }
    });
}

#[test]
fn waitall_completes_batch() {
    // Uses the generic API directly (not the adapter).
    let sim = Sim::new(3);
    let w = IbWorld::new(&sim, 2, 1);
    w.spawn_ranks("batch", |c| async move {
        if Communicator::rank(&c) == 0 {
            let mut reqs = vec![];
            for i in 0..8 {
                reqs.push(isend(&c, 1, i, Payload::from([i as f64]), 8).await);
            }
            waitall(&c, reqs).await;
        } else {
            let mut reqs = vec![];
            for i in 0..8 {
                reqs.push(irecv(&c, Some(0), Some(i)).await);
            }
            let msgs = waitall(&c, reqs).await;
            for (i, m) in msgs.iter().enumerate() {
                assert_eq!(m.as_ref().unwrap().data[0], i as f64);
            }
        }
    });
    sim.run().unwrap();
}

#[test]
fn determinism_same_seed_same_time() {
    let run = || {
        let sim = Sim::new(11);
        let w = ElanWorld::new(&sim, 4, 2);
        w.spawn_ranks("det", |c| async move {
            for _ in 0..3 {
                barrier(&c).await;
                let _ = allreduce(&c, Op::Sum, &[Communicator::rank(&c) as f64]).await;
            }
        });
        sim.run().unwrap()
    };
    assert_eq!(run(), run());
}

#[test]
fn results_recorded_outside_tasks() {
    // Sanity that rank tasks can export results through Rc<RefCell>.
    let sim = Sim::new(1);
    let w = ElanWorld::new(&sim, 2, 1);
    let out = Rc::new(RefCell::new(Vec::new()));
    let out2 = out.clone();
    w.spawn_ranks("export", move |c| {
        let out = out2.clone();
        async move {
            let v = allreduce(&c, Op::Sum, &[1.0]).await;
            out.borrow_mut().push(v[0]);
        }
    });
    sim.run().unwrap();
    assert_eq!(*out.borrow(), vec![2.0, 2.0]);
}

#[test]
fn world_stats_reflect_traffic() {
    for net in Network::ALL {
        let s = run_on(net, 2, 1, |c| async move {
            if c.rank() == 0 {
                // One eager, then the same rendezvous buffer twice:
                // the first send registers, the second hits the cache.
                c.send_b(1, 1, Payload::from([1.0]), 64).await;
                c.send_b(1, 2, Payload::from([2.0]), 100_000).await;
                c.send_b(1, 2, Payload::from([3.0]), 100_000).await;
            } else {
                c.sim().sleep(Dur::from_us(500)).await; // force unexpected
                for tag in [1, 2, 2] {
                    let _ = c.recv_b(Some(0), Some(tag)).await;
                }
            }
        });
        assert!(
            s.wire_bytes > 200_000,
            "{net}: rendezvous data crossed the wire"
        );
        assert!(
            s.unexpected >= 1,
            "{net}: the delayed receiver saw unexpected arrivals"
        );
        if net == Network::Elan4 {
            assert!(s.nic_messages >= 3, "{net}");
            assert_eq!(s.reg_misses, 0, "Elan never registers");
            assert_eq!(s.reg_hits, 0);
        } else {
            assert!(
                s.nic_messages >= 4,
                "{net}: eager + RTS + CTS + FIN at least"
            );
            assert!(
                s.reg_misses >= 2,
                "{net}: both rendezvous buffers registered"
            );
            assert!(
                s.reg_hits >= 1,
                "{net}: the re-sent buffer was not re-charged"
            );
        }
    }
}
