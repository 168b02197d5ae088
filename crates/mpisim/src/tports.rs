//! The Quadrics MPI implementation: a thin shim over Tports.
//!
//! Quadrics' MPI "uses Tports as its underlying transport layer"
//! (§3.1); because the NIC does matching, unexpected buffering, and
//! rendezvous, the host-side MPI is little more than descriptor posting
//! and completion waiting. The brevity of this file relative to
//! `verbs.rs` is the architectural point the paper makes.

use std::rc::Rc;

use std::cell::RefCell;

use elanib_fabric::elan_fabric_with;
use elanib_nic::{ElanNet, HcaParams, Payload, RegCache, TportHeader, TportRecvHandle, TportSel};
use elanib_nodesim::Node;
use elanib_simcore::{Dur, Flag, Sim};

use crate::{Communicator, RecvMsg};

/// Host-side software constants for the Quadrics MPI shim.
#[derive(Clone, Copy, Debug)]
pub struct TportsMpiParams {
    /// MPI-library bookkeeping per call, on top of the Tports PIO.
    pub shim_overhead: Dur,
    /// ABLATION (§7 / §3.3.2): charge Elan the *explicit* host-based
    /// memory registration that InfiniBand pays, instead of its real
    /// NIC-MMU implicit translation. Quantifies how much of the gap
    /// registration alone explains. Off by default.
    pub explicit_registration: bool,
}

impl Default for TportsMpiParams {
    fn default() -> Self {
        TportsMpiParams {
            shim_overhead: Dur::from_ns(80),
            explicit_registration: false,
        }
    }
}

/// One Elan-4 cluster running one MPI job.
pub struct ElanWorld {
    pub sim: Sim,
    pub net: Rc<ElanNet>,
    pub nodes: Vec<Rc<Node>>,
    pub params: TportsMpiParams,
    /// Only populated for the explicit-registration ablation.
    regcaches: Vec<RefCell<RegCache>>,
    reg_params: HcaParams,
    /// Hardware-barrier rendezvous state (EXTENSION; see
    /// `ElanParams::hw_barrier`).
    hw_barrier: RefCell<HwBarrierState>,
}

#[derive(Default)]
struct HwBarrierState {
    arrived: usize,
    waiting: Vec<Flag>,
}

impl ElanWorld {
    pub fn new(sim: &Sim, n_nodes: usize, ppn: usize) -> Rc<ElanWorld> {
        ElanWorld::with_config(sim, n_nodes, ppn, &crate::NetConfig::default())
    }

    /// An Elan-4 world on the node, Elan, Tports and fault settings of
    /// `cfg`.
    pub fn with_config(
        sim: &Sim,
        n_nodes: usize,
        ppn: usize,
        cfg: &crate::NetConfig,
    ) -> Rc<ElanWorld> {
        let nodes: Vec<_> = (0..n_nodes).map(|i| Node::new(i, cfg.node)).collect();
        let fabric = Rc::new(elan_fabric_with(n_nodes, cfg.faults.clone()));
        let net = ElanNet::new(&nodes, fabric, ppn, cfg.elan);
        let reg_params = HcaParams::default();
        let regcaches = (0..n_nodes * ppn)
            .map(|_| RefCell::new(RegCache::new(reg_params.reg_cache_bytes)))
            .collect();
        Rc::new(ElanWorld {
            sim: sim.clone(),
            net,
            nodes,
            params: cfg.tports,
            regcaches,
            reg_params,
            hw_barrier: RefCell::new(HwBarrierState::default()),
        })
    }

    pub fn n_ranks(&self) -> usize {
        self.net.n_ranks()
    }

    /// Run statistics: traffic volumes and NIC-visible events.
    /// Registration counters stay zero unless the
    /// explicit-registration ablation is enabled.
    pub fn stats(&self) -> crate::WorldStats {
        let (mut hits, mut misses, mut evictions) = (0, 0, 0);
        for rc in &self.regcaches {
            let c = rc.borrow();
            hits += c.hits;
            misses += c.misses;
            evictions += c.evictions;
        }
        crate::WorldStats {
            wire_bytes: self.net.fabric.total_link_bytes(),
            nic_messages: self.net.total_messages(),
            unexpected: self.net.total_unexpected(),
            reg_hits: hits,
            reg_misses: misses,
            reg_evictions: evictions,
        }
    }

    pub fn comm(self: &Rc<Self>, rank: usize) -> TportsComm {
        assert!(rank < self.n_ranks());
        TportsComm {
            w: self.clone(),
            rank,
        }
    }

    /// Spawn one task per rank running `f`. (Quadrics is
    /// connectionless — there is no per-peer setup to charge at init,
    /// §3.3.1.)
    pub fn spawn_ranks<F, Fut>(self: &Rc<Self>, name: &str, f: F)
    where
        F: Fn(TportsComm) -> Fut,
        Fut: std::future::Future<Output = ()> + 'static,
    {
        for r in 0..self.n_ranks() {
            self.sim
                .spawn_fmt(format_args!("{name}[elan:{r}]"), f(self.comm(r)));
        }
    }
}

/// Rank-local communicator handle for the Elan world.
#[derive(Clone)]
pub struct TportsComm {
    w: Rc<ElanWorld>,
    rank: usize,
}

impl TportsComm {
    fn node(&self) -> &Rc<Node> {
        self.w.net.node_of(self.rank)
    }
    pub fn world(&self) -> &Rc<ElanWorld> {
        &self.w
    }

    /// Ablation: explicit registration cost for one buffer, zero when
    /// the ablation is off (Elan's MMU makes registration implicit).
    fn ablated_reg_cost(&self, region: u64, bytes: u64) -> Dur {
        if !self.w.params.explicit_registration || bytes <= self.w.net.params.eager_threshold {
            return Dur::ZERO;
        }
        self.w.regcaches[self.rank]
            .borrow_mut()
            .register(&self.w.reg_params, region, bytes)
    }
}

/// Outstanding Tports operation.
pub enum TportsReq {
    Send(Flag),
    Recv(TportRecvHandle),
}

impl Communicator for TportsComm {
    type Req = TportsReq;

    fn rank(&self) -> usize {
        self.rank
    }
    fn size(&self) -> usize {
        self.w.n_ranks()
    }
    fn sim(&self) -> Sim {
        self.w.sim.clone()
    }

    async fn isend_full(
        &self,
        dst: usize,
        tag: i64,
        ctx: u32,
        data: Payload,
        bytes: u64,
        region: u64, // unused unless the explicit-registration ablation is on
    ) -> TportsReq {
        let cost = self.w.net.params.pio_issue
            + self.w.params.shim_overhead
            + self.ablated_reg_cost(region, bytes);
        self.node().cpu_work(&self.w.sim, cost).await;
        let hdr = TportHeader {
            src_rank: self.rank,
            dst_rank: dst,
            tag,
            ctx,
        };
        TportsReq::Send(self.w.net.tport_send(&self.w.sim, hdr, data, bytes))
    }

    async fn irecv_full(
        &self,
        src: Option<usize>,
        tag: Option<i64>,
        ctx: u32,
        _region: u64,
    ) -> TportsReq {
        let cost = self.w.net.params.post_recv + self.w.params.shim_overhead;
        self.node().cpu_work(&self.w.sim, cost).await;
        let sel = TportSel {
            dst_rank: self.rank,
            src,
            tag,
            ctx,
        };
        TportsReq::Recv(self.w.net.tport_post_recv(&self.w.sim, sel))
    }

    async fn compute(&self, dur: Dur, mem_intensity: f64) {
        self.node().compute(&self.w.sim, dur, mem_intensity).await;
    }

    async fn hw_barrier(&self) -> bool {
        let Some(latency) = self.w.net.params.hw_barrier else {
            return false;
        };
        // Arm the barrier network (one PIO), then wait for the global
        // pulse: released `latency` after the last rank arrives.
        self.node()
            .cpu_work(&self.w.sim, self.w.net.params.pio_issue)
            .await;
        let flag = Flag::new();
        let release = {
            let mut st = self.w.hw_barrier.borrow_mut();
            st.arrived += 1;
            st.waiting.push(flag.clone());
            if st.arrived == self.w.n_ranks() {
                let waiters = std::mem::take(&mut st.waiting);
                st.arrived = 0;
                Some(waiters)
            } else {
                None
            }
        };
        if let Some(waiters) = release {
            self.w.sim.call_in(latency, move |_| {
                for w in waiters {
                    w.set();
                }
            });
        }
        flag.wait().await;
        true
    }

    async fn wait(&self, req: TportsReq) -> Option<RecvMsg> {
        match req {
            TportsReq::Send(flag) => {
                flag.wait().await;
                None
            }
            TportsReq::Recv(handle) => {
                handle.done.wait().await;
                let a = handle.take();
                Some(RecvMsg {
                    src: a.src_rank,
                    tag: a.tag,
                    bytes: a.bytes,
                    data: a.data,
                })
            }
        }
    }
}
