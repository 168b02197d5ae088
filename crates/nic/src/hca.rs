//! The 4X InfiniBand host channel adapter model (Voltaire HCS 400).
//!
//! Deliberately dumb hardware, faithful to §3 of the paper:
//!
//! * **Connection-oriented** (§3.3.1): a queue pair must be set up per
//!   peer before any transfer; [`IbNet::connect_all`] charges the full
//!   O(P) setup at init time, and per-peer receive resources
//!   (MVAPICH's eager RDMA buffers) are accounted per connection.
//! * **Explicit registration** (§3.3.2): [`Hca::register`] consults the
//!   pin-down cache and returns the host cost of any miss.
//! * **No matching, no progress** (§3.3.3/3.3.4): the HCA's only
//!   delivery action is to place the message record in the destination
//!   process's [`inbox`](Hca::inbox) — a passive queue. *Nothing*
//!   happens to it until host software (the MVAPICH-style progress
//!   engine in `elanib-mpi`) polls; an RTS landing while the target
//!   rank computes sits unprocessed, which is precisely the paper's
//!   independent-progress argument.
//!
//! The inbox is per *process* (rank), while the DMA engines and the
//! physical port are per *node* — two ranks on one node (2 PPN) share
//! the PCI-X path and the HCA engines but have separate queues.

use std::cell::RefCell;
use std::rc::Rc;

use elanib_fabric::Fabric;
use elanib_nodesim::Node;
use elanib_simcore::{Dur, Flag, Mailbox, Sim};

use crate::common::SerialEngine;
use crate::params::HcaParams;
use crate::regcache::{RegCache, RegionId};
use crate::transfer::{launch, PairChains, RecoveryPolicy, TransportError};

/// Handle returned by [`IbNet::post`]: the buffer-reuse flag plus the
/// transport outcome of this specific work request.
pub struct PostHandle {
    /// Set when the source buffer is reusable (source DMA drained) —
    /// also set on failure (flush semantics).
    pub local: Flag,
    err: Rc<RefCell<Option<TransportError>>>,
}

impl PostHandle {
    /// The typed transport failure of this WQE, if recovery gave up.
    /// `None` until completion, and forever on success.
    pub fn error(&self) -> Option<TransportError> {
        self.err.borrow().clone()
    }
}

/// Per-node HCA hardware: the engines and ordering chains shared by
/// every rank on the node.
pub struct HcaPort {
    pub node: Rc<Node>,
    pub ep: usize,
    tx_engine: SerialEngine,
    rx_engine: SerialEngine,
    chains: PairChains,
}

impl HcaPort {
    /// Work requests this port's send engine has processed.
    pub fn messages_sent(&self) -> u64 {
        self.tx_engine.jobs_served()
    }
}

/// Interrupt-style delivery hook (see [`Hca::set_arrival_hook`]).
pub type ArrivalHook<M> = Box<dyn Fn(&Sim, M)>;

/// Per-rank HCA state: registration cache (MVAPICH keeps one per
/// process) and the passive receive queue.
pub struct Hca<M> {
    pub rank: usize,
    pub port: Rc<HcaPort>,
    pub params: HcaParams,
    regcache: RefCell<RegCache>,
    /// Passive arrival queue: `(source rank, protocol message)`.
    /// The host progress engine is the only consumer.
    pub inbox: Mailbox<(usize, M)>,
    connections: RefCell<usize>,
    /// When set, arrivals are dispatched through this hook instead of
    /// queued in the inbox — models an interrupt-driven progress
    /// engine (the §7 independent-progress ablation). Default: unset,
    /// i.e. the faithful passive-inbox behaviour.
    hook: RefCell<Option<ArrivalHook<M>>>,
    /// First transport error on any of this rank's connections: the
    /// QP error state. Further sends flush; the progress engine
    /// surfaces it instead of spinning forever.
    qp_error: RefCell<Option<TransportError>>,
    /// Set the instant [`qp_error`](Hca::qp_error) becomes `Some` —
    /// lets the progress engine race on it without polling.
    pub qp_error_flag: Flag,
}

/// A whole InfiniBand network: fabric + one HCA view per rank.
pub struct IbNet<M> {
    pub fabric: Rc<Fabric>,
    pub params: HcaParams,
    ports: Vec<Rc<HcaPort>>,
    hcas: Vec<Rc<Hca<M>>>,
    /// rank -> fabric endpoint (node id).
    rank_ep: Vec<usize>,
    /// Shared never-written error slot handed to every [`PostHandle`]
    /// when the fabric has no fault plan. Transport errors only arise
    /// from fault injection, so on the fault-free hot path all posts
    /// can alias one slot instead of allocating an `Rc` per WQE.
    no_err: Rc<RefCell<Option<TransportError>>>,
    /// RoCEv2 congestion control (EXTENSION). `None` — the plain
    /// InfiniBand case — leaves the post path untouched.
    cc: Option<Rc<crate::roce::RoceCc>>,
}

impl<M: 'static> IbNet<M> {
    /// Build a network for `nodes` with `ppn` ranks per node. Rank `r`
    /// lives on node `r / ppn`, CPU `r % ppn` (block placement, as the
    /// paper's MPI launches did).
    pub fn new(nodes: &[Rc<Node>], fabric: Rc<Fabric>, ppn: usize, params: HcaParams) -> IbNet<M> {
        IbNet::new_with_cc(nodes, fabric, ppn, params, None)
    }

    /// [`IbNet::new`] with a RoCEv2 congestion-control engine attached
    /// (EXTENSION): every post asks `cc` for an injection delay before
    /// entering the fabric. `None` is byte-identical to [`IbNet::new`].
    pub fn new_with_cc(
        nodes: &[Rc<Node>],
        fabric: Rc<Fabric>,
        ppn: usize,
        params: HcaParams,
        cc: Option<Rc<crate::roce::RoceCc>>,
    ) -> IbNet<M> {
        assert!(ppn >= 1);
        assert_eq!(fabric.n_endpoints(), nodes.len());
        let ports: Vec<Rc<HcaPort>> = nodes
            .iter()
            .enumerate()
            .map(|(i, n)| {
                Rc::new(HcaPort {
                    node: n.clone(),
                    ep: i,
                    tx_engine: SerialEngine::new(),
                    rx_engine: SerialEngine::new(),
                    chains: PairChains::new(),
                })
            })
            .collect();
        let nranks = nodes.len() * ppn;
        let hcas = (0..nranks)
            .map(|r| {
                Rc::new(Hca {
                    rank: r,
                    port: ports[r / ppn].clone(),
                    params,
                    regcache: RefCell::new(RegCache::new(params.reg_cache_bytes)),
                    inbox: Mailbox::new(),
                    connections: RefCell::new(0),
                    hook: RefCell::new(None),
                    qp_error: RefCell::new(None),
                    qp_error_flag: Flag::new(),
                })
            })
            .collect();
        let rank_ep = (0..nranks).map(|r| r / ppn).collect();
        IbNet {
            fabric,
            params,
            ports,
            hcas,
            rank_ep,
            no_err: Rc::new(RefCell::new(None)),
            cc,
        }
    }

    /// The attached congestion-control engine, when this net is a
    /// RoCEv2 instance.
    pub fn cc(&self) -> Option<&Rc<crate::roce::RoceCc>> {
        self.cc.as_ref()
    }

    pub fn n_ranks(&self) -> usize {
        self.hcas.len()
    }

    pub fn hca(&self, rank: usize) -> &Rc<Hca<M>> {
        &self.hcas[rank]
    }

    pub fn node_of(&self, rank: usize) -> &Rc<Node> {
        &self.ports[self.rank_ep[rank]].node
    }

    pub fn same_node(&self, a: usize, b: usize) -> bool {
        self.rank_ep[a] == self.rank_ep[b]
    }

    /// Total work requests across all ports (stats).
    pub fn total_messages(&self) -> u64 {
        self.ports.iter().map(|p| p.messages_sent()).sum()
    }

    /// Time for rank `r` to establish queue pairs with all remote
    /// peers, as MVAPICH 0.9.2 does inside `MPI_Init` (fully connected
    /// at startup — the connection-oriented cost of §3.3.1).
    pub fn connection_setup_time(&self, rank: usize) -> Dur {
        let remote_peers = (0..self.n_ranks())
            .filter(|&p| p != rank && !self.same_node(rank, p))
            .count();
        *self.hcas[rank].connections.borrow_mut() = remote_peers;
        Dur::from_ps(self.params.qp_setup.as_ps() * remote_peers as u64)
    }

    /// Transmit `m` with `bytes` of wire payload from `src` rank to
    /// `dst` rank (must be on different nodes). Returns a
    /// [`PostHandle`]: `local` is set when the source buffer is
    /// reusable (source DMA drained). Delivery pushes `(src, m)` into
    /// the destination inbox after the destination HCA's
    /// receive-engine slot — and nothing more: the destination host
    /// discovers it only by polling.
    ///
    /// If the transport gives up (fault plan + `retry_cnt`/`rnr_retry`
    /// exhausted), the message is never delivered; the error is stored
    /// on the handle and the *source* rank's QP enters the error state
    /// ([`Hca::qp_error`]).
    pub fn post(&self, sim: &Sim, src: usize, dst: usize, m: M, bytes: u64) -> PostHandle {
        let src_port = &self.ports[self.rank_ep[src]];
        let dst_port = self.ports[self.rank_ep[dst]].clone();
        let dst_hca = self.hcas[dst].clone();
        let src_hca = self.hcas[src].clone();
        let local_done = Flag::new();
        // The send engine serializes all WQEs on this node's HCA —
        // including the sibling rank's in 2 PPN mode.
        let start_at = src_port.tx_engine.next_slot(sim, self.params.wqe_engine);
        // RoCEv2 only: congestion control may hold the message back
        // (PFC pause) or pace it (DCQCN rate limiter) before it enters
        // the fabric.
        let start_at = match &self.cc {
            None => start_at,
            Some(cc) => {
                start_at
                    + cc.tx_delay(
                        sim,
                        &self.fabric,
                        self.rank_ep[src],
                        self.rank_ep[dst],
                        bytes,
                    )
            }
        };
        let (prev, tail) = src_port.chains.enqueue(dst);
        let rx_cost = self.params.rx_engine;
        let dst_node = dst_port.node.clone();
        if let Some(tr) = sim.tracer() {
            tr.add("hca.posts", 1);
            tr.add("hca.post_bytes", bytes);
        }
        // A dedicated per-WQE error slot is only needed when faults can
        // actually produce one; otherwise alias the shared empty slot.
        let err: Rc<RefCell<Option<TransportError>>> = if self.fabric.faults().is_some() {
            Rc::new(RefCell::new(None))
        } else {
            self.no_err.clone()
        };
        let err2 = err.clone();
        launch(
            sim,
            &self.fabric,
            &src_port.node,
            &dst_node,
            src_port.ep,
            dst_port.ep,
            bytes,
            start_at,
            local_done.clone(),
            prev,
            tail,
            RecoveryPolicy::ib(&self.params),
            move |sim, result| {
                if let Err(e) = result {
                    *err2.borrow_mut() = Some(e.clone());
                    src_hca.fail_qp(e);
                    if let Some(tr) = sim.tracer() {
                        tr.add("hca.qp_errors", 1);
                    }
                    return;
                }
                // Receive-side HCA processing (CQE/steering) is serial
                // per port, then the record becomes host-visible.
                let slot = dst_port.rx_engine.next_slot(sim, rx_cost);
                let hca = dst_hca;
                sim.call_at(slot, move |sim| {
                    let hook = hca.hook.borrow();
                    match &*hook {
                        Some(h) => h(sim, m),
                        None => {
                            hca.inbox.push((src, m));
                            if let Some(tr) = sim.tracer() {
                                // Depth of the passive queue at delivery:
                                // how far host polling lags the NIC.
                                tr.gauge("hca.inbox_depth", hca.inbox.len() as i64);
                            }
                        }
                    }
                });
            },
        );
        PostHandle {
            local: local_done,
            err,
        }
    }
}

impl<M> Hca<M> {
    /// The first transport error observed on this rank's connections
    /// (the QP error state), if any.
    pub fn qp_error(&self) -> Option<TransportError> {
        self.qp_error.borrow().clone()
    }

    /// Drive this rank's QP into the error state. First error wins;
    /// the flag wakes anything racing on it.
    pub fn fail_qp(&self, e: TransportError) {
        let mut slot = self.qp_error.borrow_mut();
        if slot.is_none() {
            *slot = Some(e);
            self.qp_error_flag.set();
        }
    }

    /// Install an interrupt-style delivery hook: arrivals bypass the
    /// inbox and invoke `h` at hardware-delivery time. Used only by
    /// the independent-progress ablation.
    pub fn set_arrival_hook(&self, h: ArrivalHook<M>) {
        *self.hook.borrow_mut() = Some(h);
    }

    /// Register `region` (`len` bytes) through the pin-down cache;
    /// returns the host time the caller must charge (zero on a hit).
    pub fn register(&self, region: RegionId, len: u64) -> Dur {
        self.regcache
            .borrow_mut()
            .register(&self.params, region, len)
    }

    /// [`register`](Hca::register) plus regcache hit/miss/evict
    /// accounting into the simulation's tracer. The protocol layers use
    /// this variant; the counter names are part of the metrics surface
    /// (`regcache.hits` / `regcache.misses` / `regcache.evictions`).
    pub fn register_traced(&self, sim: &Sim, region: RegionId, len: u64) -> Dur {
        let tr = match sim.tracer() {
            None => return self.register(region, len),
            Some(tr) => tr,
        };
        let mut c = self.regcache.borrow_mut();
        let before = (c.hits, c.misses, c.evictions);
        let cost = c.register(&self.params, region, len);
        tr.add("regcache.hits", c.hits - before.0);
        tr.add("regcache.misses", c.misses - before.1);
        tr.add("regcache.evictions", c.evictions - before.2);
        cost
    }

    /// Registration-cache statistics `(hits, misses, evictions)`.
    pub fn regcache_stats(&self) -> (u64, u64, u64) {
        let c = self.regcache.borrow();
        (c.hits, c.misses, c.evictions)
    }

    /// Host cost of one progress-engine poll sweep. MVAPICH polls a
    /// per-peer set of eager RDMA buffers, so the sweep cost grows
    /// linearly with connected peers — the §4.1 observation that
    /// "buffer space ... grows with the number of processes" has a
    /// time cost too.
    pub fn poll_sweep_cost(&self) -> Dur {
        let peers = *self.connections.borrow();
        Dur::from_ns(100) + Dur::from_ns(20) * peers as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elanib_fabric::{infiniband_4x, Topology};
    use elanib_nodesim::NodeParams;
    use std::cell::Cell;

    #[derive(Debug, PartialEq)]
    struct TestMsg(u64);

    fn net(nodes: usize, ppn: usize) -> (Sim, Rc<IbNet<TestMsg>>) {
        let sim = Sim::new(1);
        let nn: Vec<_> = (0..nodes)
            .map(|i| Node::new(i, NodeParams::default()))
            .collect();
        let fabric = Rc::new(Fabric::new(
            Topology::single_crossbar(nodes),
            infiniband_4x(),
        ));
        let n = Rc::new(IbNet::new(&nn, fabric, ppn, HcaParams::default()));
        (sim, n)
    }

    #[test]
    fn post_delivers_to_inbox_in_order() {
        let (sim, net) = net(2, 1);
        for i in 0..5 {
            net.post(&sim, 0, 1, TestMsg(i), 64);
        }
        let n2 = net.clone();
        let got = Rc::new(RefCell::new(Vec::new()));
        let g = got.clone();
        sim.spawn("rx", async move {
            for _ in 0..5 {
                let (src, m) = n2.hca(1).inbox.recv().await;
                assert_eq!(src, 0);
                g.borrow_mut().push(m.0);
            }
        });
        sim.run().unwrap();
        assert_eq!(*got.borrow(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn mixed_sizes_still_deliver_in_order() {
        let (sim, net) = net(2, 1);
        net.post(&sim, 0, 1, TestMsg(0), 2_000_000);
        net.post(&sim, 0, 1, TestMsg(1), 16);
        let n2 = net.clone();
        let got = Rc::new(RefCell::new(Vec::new()));
        let g = got.clone();
        sim.spawn("rx", async move {
            for _ in 0..2 {
                let (_, m) = n2.hca(1).inbox.recv().await;
                g.borrow_mut().push(m.0);
            }
        });
        sim.run().unwrap();
        assert_eq!(*got.borrow(), vec![0, 1]);
    }

    #[test]
    fn connection_setup_scales_with_remote_peers() {
        let (_sim, net) = net(4, 2); // 8 ranks
        let d = net.connection_setup_time(0);
        // Rank 0: 8 ranks total, 1 sibling on-node => 6 remote peers.
        assert_eq!(d, HcaParams::default().qp_setup * 6);
        // Poll sweep now reflects 6 peers.
        let p = net.hca(0).poll_sweep_cost();
        assert_eq!(p, Dur::from_ns(100) + Dur::from_ns(20) * 6);
    }

    #[test]
    fn intra_node_post_loops_back_through_nic() {
        let (sim, net) = net(2, 2);
        net.post(&sim, 0, 1, TestMsg(0), 64); // ranks 0,1 on node 0
        let n2 = net.clone();
        let t = Rc::new(Cell::new(0.0));
        let t2 = t.clone();
        let s2 = sim.clone();
        sim.spawn("rx", async move {
            let (src, m) = n2.hca(1).inbox.recv().await;
            assert_eq!((src, m.0), (0, 0));
            t2.set(s2.now().as_us_f64());
        });
        sim.run().unwrap();
        // Loopback is fast but not free: two PCI-X crossings plus the
        // HCA engines.
        assert!(t.get() > 0.5 && t.get() < 5.0, "{}", t.get());
    }

    #[test]
    fn local_done_signals_buffer_reuse() {
        let (sim, net) = net(2, 1);
        let h = net.post(&sim, 0, 1, TestMsg(9), 1_000_000);
        let seen = Rc::new(Cell::new(false));
        let (s2, seen2) = (sim.clone(), seen.clone());
        sim.spawn("wait-local", async move {
            h.local.wait().await;
            assert!(h.error().is_none());
            assert!(s2.now().as_us_f64() > 0.0);
            seen2.set(true);
        });
        // Drain the inbox so the run completes.
        let n2 = net.clone();
        sim.spawn("rx", async move {
            let _ = n2.hca(1).inbox.recv().await;
        });
        sim.run().unwrap();
        assert!(seen.get());
    }

    #[test]
    fn exhausted_retries_surface_as_qp_error_not_hang() {
        use elanib_fabric::faults::FaultPlan;
        use std::sync::Arc;
        let sim = Sim::new(1);
        let nn: Vec<_> = (0..2)
            .map(|i| Node::new(i, NodeParams::default()))
            .collect();
        // Endpoint 1's only cable is down for the whole run.
        let plan = Arc::new(FaultPlan::parse("outage=link1@0+10s").unwrap());
        let fabric = Rc::new(Fabric::with_faults(
            Topology::single_crossbar(2),
            infiniband_4x(),
            Some(plan),
        ));
        let params = HcaParams {
            retry_cnt: 2,
            ack_timeout: Dur::from_us(100),
            ..HcaParams::default()
        };
        let net: Rc<IbNet<TestMsg>> = Rc::new(IbNet::new(&nn, fabric, 1, params));
        let h = net.post(&sim, 0, 1, TestMsg(1), 64);
        // The run terminates (no deadlock): delivery never happens but
        // the flush still returns the buffer and records the error.
        sim.run().unwrap();
        assert!(h.local.is_set());
        assert_eq!(
            h.error(),
            Some(TransportError::RetryExceeded {
                src: 0,
                dst: 1,
                bytes: 64,
                attempts: 3,
            })
        );
        assert_eq!(net.hca(0).qp_error(), h.error());
        assert!(net.hca(0).qp_error_flag.is_set());
        assert!(net.hca(1).qp_error().is_none());
        assert_eq!(net.hca(1).inbox.len(), 0);
    }

    #[test]
    fn register_traced_counters_match_hand_computed_sequence() {
        use elanib_simcore::trace::Tracer;
        // 3 MiB cache, 1 MiB regions — small enough to walk the LRU by
        // hand. Expected state after each step is noted inline.
        let sim = Sim::with_tracer(1, Tracer::forced(1));
        let nn: Vec<_> = (0..2)
            .map(|i| Node::new(i, NodeParams::default()))
            .collect();
        let fabric = Rc::new(Fabric::new(Topology::single_crossbar(2), infiniband_4x()));
        let params = HcaParams {
            reg_cache_bytes: 3 * 1024 * 1024,
            ..HcaParams::default()
        };
        let net: Rc<IbNet<TestMsg>> = Rc::new(IbNet::new(&nn, fabric, 1, params));
        let h = net.hca(0);
        let mb = 1024 * 1024;
        for (region, expect_hit) in [
            (1u64, false), // cold miss              LRU: 1
            (2, false),    // cold miss              LRU: 1,2
            (3, false),    // cold miss (full)       LRU: 1,2,3
            (1, true),     // hit refreshes          LRU: 2,3,1
            (4, false),    // miss, evicts 2         LRU: 3,1,4
            (3, true),     // hit refreshes          LRU: 1,4,3
            (2, false),    // miss, evicts 1         LRU: 4,3,2
        ] {
            let cost = h.register_traced(&sim, region, mb);
            assert_eq!(cost == Dur::ZERO, expect_hit, "region {region}");
        }
        let tr = sim.tracer().unwrap();
        assert_eq!(tr.counter("regcache.hits"), 2);
        assert_eq!(tr.counter("regcache.misses"), 5);
        assert_eq!(tr.counter("regcache.evictions"), 2);
        // The tracer view must agree with the cache's own counters.
        assert_eq!(h.regcache_stats(), (2, 5, 2));
    }

    #[test]
    fn registration_costs_flow_through() {
        let (_sim, net) = net(2, 1);
        let h = net.hca(0);
        let c1 = h.register(7, 65536);
        assert!(c1 > Dur::ZERO);
        assert_eq!(h.register(7, 65536), Dur::ZERO);
        let (hits, misses, _) = h.regcache_stats();
        assert_eq!((hits, misses), (1, 1));
    }
}
