//! The MVAPICH-0.9.2-style MPI implementation over InfiniBand verbs.
//!
//! Everything the Elan NIC does in hardware happens *here*, in host
//! software, on the application's CPU — and only while the application
//! is inside an MPI call:
//!
//! * **Eager protocol** (≤ [`VerbsParams::eager_threshold`]): the
//!   sender memcpys the payload into a pre-registered per-peer RDMA
//!   buffer slot and RDMA-writes it; the receiver discovers it by
//!   *polling*, matches it against the host posted-receive queue, and
//!   memcpys it out. Two copies, both across the shared memory bus.
//!   The paper notes the buffer pool grows with the number of
//!   processes; the poll sweep cost here grows with it
//!   ([`elanib_nic::Hca::poll_sweep_cost`]).
//! * **Rendezvous protocol** (larger): RTS → (receiver matches *when it
//!   next enters MPI*) → register receive buffer → CTS → sender (when
//!   *it* next enters MPI) registers and RDMA-writes the data carrying
//!   a FIN. Zero-copy, but registration costs flow through the
//!   pin-down cache — including the 4 MB thrash of Figure 1(b).
//! * **No independent progress** (§3.3.3): the progress engine runs in
//!   [`VerbsComm::progress_until`], i.e. only inside MPI calls. An RTS
//!   that arrives while this rank computes waits in the inbox, exactly
//!   like MVAPICH. This is the single most consequential line of the
//!   whole reproduction.

use elanib_simcore::FxHashMap;
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;

use elanib_fabric::{faults::FaultPlan, ib_fabric_with, roce_fabric_with};
use elanib_nic::{IbNet, Payload, RoceCc, RoceParams};
use elanib_nodesim::Node;
use elanib_simcore::{Dur, Flag, Race2, Sim};

use crate::{Communicator, RecvMsg};

/// MVAPICH-style software constants.
#[derive(Clone, Copy, Debug)]
pub struct VerbsParams {
    /// Eager/rendezvous switch point. The paper observes the latency
    /// jump "between 1 KB and 2 KB messages" (§4.1): 1 KiB.
    pub eager_threshold: u64,
    /// Extra wire bytes per eager message (software envelope).
    pub eager_envelope: u64,
    /// Wire size of RTS/CTS control messages.
    pub ctl_bytes: u64,
    /// Host software cost to initiate a send (descriptor bookkeeping).
    pub send_setup: Dur,
    /// Flow-control bookkeeping per send: eager-buffer credit
    /// accounting and completion-queue reaping. This is the dominant
    /// per-message host cost that caps MVAPICH's small-message
    /// streaming rate (Figure 1(c)).
    pub credit_check: Dur,
    /// Host software cost to post a receive.
    pub recv_setup: Dur,
    /// Host matching cost: base + per queue entry scanned.
    pub match_base: Dur,
    pub match_per_entry: Dur,
    /// Host cost to process an incoming RTS (allocate rendezvous
    /// state, build the reply).
    pub rts_handle: Dur,
    /// Host cost to process a CTS and launch the data write.
    pub cts_handle: Dur,
    /// Host cost to retire a rendezvous FIN.
    pub fin_handle: Dur,
    /// Pin-down cache lookup/validation per rendezvous registration,
    /// charged even on a hit.
    pub reg_check: Dur,
    /// ABLATION (§7 of the paper): give MVAPICH an independent
    /// progress engine. When set, every arrival is handled immediately
    /// (as if by an interrupt-driven progress thread) at
    /// `async_progress_cost` per message, instead of waiting for the
    /// application to enter an MPI call. Off by default — MVAPICH
    /// 0.9.2 "does not support independent progress" (§3.3.3).
    pub async_progress: bool,
    /// Per-message interrupt/dispatch cost of the ablated progress
    /// thread (interrupt coalescing was poor in 2004; this is why
    /// implementations avoided it).
    pub async_progress_cost: Dur,
}

impl Default for VerbsParams {
    fn default() -> Self {
        VerbsParams {
            eager_threshold: 1024,
            eager_envelope: 48,
            ctl_bytes: 32,
            send_setup: Dur::from_ns(400),
            credit_check: Dur::from_ns(1500),
            recv_setup: Dur::from_ns(250),
            match_base: Dur::from_ns(150),
            match_per_entry: Dur::from_ns(20),
            rts_handle: Dur::from_us(3),
            cts_handle: Dur::from_us(3),
            fin_handle: Dur::from_ns(1500),
            reg_check: Dur::from_ns(800),
            async_progress: false,
            async_progress_cost: Dur::from_us(4),
        }
    }
}

/// Protocol messages carried by the HCA between ranks.
pub enum IbMsg {
    Eager {
        hdr: MsgHdr,
        data: Payload,
        bytes: u64,
    },
    Rts {
        hdr: MsgHdr,
        bytes: u64,
        send_id: u64,
    },
    Cts {
        send_id: u64,
        recv_id: u64,
    },
    /// Rendezvous payload + completion marker in one wire transfer
    /// (the RDMA write into the registered user buffer, tailed by the
    /// FIN the receiver polls for).
    Fin {
        recv_id: u64,
        hdr: MsgHdr,
        data: Payload,
        bytes: u64,
    },
}

#[derive(Clone, Copy, Debug)]
pub struct MsgHdr {
    pub src: usize,
    pub dst: usize,
    pub tag: i64,
    pub ctx: u32,
}

#[derive(Clone, Copy)]
struct Sel {
    src: Option<usize>,
    tag: Option<i64>,
    ctx: u32,
}

impl Sel {
    fn matches(&self, h: &MsgHdr) -> bool {
        self.ctx == h.ctx
            && self.src.is_none_or(|s| s == h.src)
            && self.tag.is_none_or(|t| t == h.tag)
    }
}

struct PostedRecv {
    sel: Sel,
    recv_id: u64,
    region: u64,
}

enum UnexpKind {
    Eager { data: Payload, bytes: u64 },
    Rts { bytes: u64, send_id: u64 },
}

struct UnexpMsg {
    hdr: MsgHdr,
    kind: UnexpKind,
}

/// Completion slot for one posted receive (public only because it
/// appears inside [`VerbsReq`]).
pub struct RecvSlot {
    done: Flag,
    result: RefCell<Option<RecvMsg>>,
}

struct SendPending {
    hdr: MsgHdr,
    data: Payload,
    bytes: u64,
    done: Flag,
}

/// Host-software state of one MPI process.
struct RankState {
    posted: RefCell<Vec<PostedRecv>>,
    unexpected: RefCell<VecDeque<UnexpMsg>>,
    recvs: RefCell<FxHashMap<u64, Rc<RecvSlot>>>,
    sends: RefCell<FxHashMap<u64, SendPending>>,
    next_id: Cell<u64>,
    /// Stats mirrored by tests and EXPERIMENTS.md.
    unexpected_count: Cell<u64>,
}

impl RankState {
    fn new() -> RankState {
        RankState {
            posted: RefCell::new(Vec::new()),
            unexpected: RefCell::new(VecDeque::new()),
            recvs: RefCell::new(FxHashMap::default()),
            sends: RefCell::new(FxHashMap::default()),
            next_id: Cell::new(1),
            unexpected_count: Cell::new(0),
        }
    }

    fn alloc_id(&self) -> u64 {
        let id = self.next_id.get();
        self.next_id.set(id + 1);
        id
    }
}

/// One InfiniBand cluster running one MPI job.
pub struct IbWorld {
    pub sim: Sim,
    pub net: Rc<IbNet<IbMsg>>,
    pub nodes: Vec<Rc<Node>>,
    pub params: VerbsParams,
    ranks: Vec<Rc<RankState>>,
    ppn: usize,
}

impl IbWorld {
    pub fn new(sim: &Sim, n_nodes: usize, ppn: usize) -> Rc<IbWorld> {
        IbWorld::with_config(sim, n_nodes, ppn, &crate::NetConfig::default())
    }

    /// An InfiniBand world on the node, HCA, verbs and fault settings
    /// of `cfg`.
    pub fn with_config(
        sim: &Sim,
        n_nodes: usize,
        ppn: usize,
        cfg: &crate::NetConfig,
    ) -> Rc<IbWorld> {
        IbWorld::with_faults(sim, n_nodes, ppn, cfg, None)
    }

    /// [`IbWorld::with_config`] over RoCEv2 (EXTENSION): the same
    /// MVAPICH software stack and HCA timing, but the fabric is 10GbE
    /// and every post flows through the congestion-control engine for
    /// `roce.mode`. A `roce.lossy` rate without an explicit fault plan
    /// synthesizes a seeded loss plan (classic lossy-Ethernet RoCE:
    /// drops surface as IB-style retransmits).
    pub fn with_config_roce(
        sim: &Sim,
        n_nodes: usize,
        ppn: usize,
        cfg: &crate::NetConfig,
        roce: RoceParams,
    ) -> Rc<IbWorld> {
        IbWorld::with_faults(sim, n_nodes, ppn, cfg, Some(roce))
    }

    fn with_faults(
        sim: &Sim,
        n_nodes: usize,
        ppn: usize,
        cfg: &crate::NetConfig,
        roce: Option<RoceParams>,
    ) -> Rc<IbWorld> {
        let faults = cfg.faults.clone();
        let nodes: Vec<_> = (0..n_nodes).map(|i| Node::new(i, cfg.node)).collect();
        let (fabric, cc) = match roce {
            None => (Rc::new(ib_fabric_with(n_nodes, faults)), None),
            Some(rp) => {
                let faults = faults.or_else(|| {
                    rp.lossy.map(|rate| {
                        let spec = format!("loss={rate},seed={}", rp.seed);
                        std::sync::Arc::new(
                            FaultPlan::parse(&spec).expect("lossy RoCE plan spec is well-formed"),
                        )
                    })
                });
                (
                    Rc::new(roce_fabric_with(n_nodes, faults)),
                    Some(RoceCc::new(rp, n_nodes)),
                )
            }
        };
        let net = Rc::new(IbNet::new_with_cc(&nodes, fabric, ppn, cfg.hca, cc));
        let ranks = (0..n_nodes * ppn)
            .map(|_| Rc::new(RankState::new()))
            .collect();
        let w = Rc::new(IbWorld {
            sim: sim.clone(),
            net,
            nodes,
            params: cfg.verbs,
            ranks,
            ppn,
        });
        if cfg.verbs.async_progress {
            // ABLATION (§7): interrupt-driven progress. Each arrival
            // dispatches a handler immediately, charged at
            // `async_progress_cost`, regardless of whether the
            // application is inside MPI. Weak reference breaks the
            // world -> net -> hca -> hook -> world cycle.
            for r in 0..w.n_ranks() {
                let weak = Rc::downgrade(&w);
                w.net.hca(r).set_arrival_hook(Box::new(move |sim, m| {
                    let Some(world) = weak.upgrade() else { return };
                    let comm = world.comm(r);
                    let cost = world.params.async_progress_cost;
                    sim.spawn("ib-intr", async move {
                        comm.charge(cost).await;
                        comm.handle(m).await;
                    });
                }));
            }
        }
        w
    }

    pub fn n_ranks(&self) -> usize {
        self.net.n_ranks()
    }

    /// Run statistics: traffic volumes and software-visible events.
    pub fn stats(&self) -> crate::WorldStats {
        let (mut hits, mut misses, mut evictions) = (0, 0, 0);
        let mut unexpected = 0;
        for r in 0..self.n_ranks() {
            let (h, m, e) = self.net.hca(r).regcache_stats();
            hits += h;
            misses += m;
            evictions += e;
            unexpected += self.ranks[r].unexpected_count.get();
        }
        crate::WorldStats {
            wire_bytes: self.net.fabric.total_link_bytes(),
            nic_messages: self.net.total_messages(),
            unexpected,
            reg_hits: hits,
            reg_misses: misses,
            reg_evictions: evictions,
        }
    }

    pub fn comm(self: &Rc<Self>, rank: usize) -> VerbsComm {
        assert!(rank < self.n_ranks());
        VerbsComm {
            w: self.clone(),
            rank,
        }
    }

    /// Spawn one task per rank. Each rank first pays the
    /// connection-oriented price of InfiniBand: full queue-pair setup
    /// with every remote peer at init (§3.3.1), as MVAPICH 0.9.2 did.
    pub fn spawn_ranks<F, Fut>(self: &Rc<Self>, name: &str, f: F)
    where
        F: Fn(VerbsComm) -> Fut,
        Fut: std::future::Future<Output = ()> + 'static,
    {
        for r in 0..self.n_ranks() {
            let comm = self.comm(r);
            let setup = self.net.connection_setup_time(r);
            let sim = self.sim.clone();
            let fut = f(comm.clone());
            self.sim
                .spawn_fmt(format_args!("{name}[ib:{r}]"), async move {
                    comm.node().cpu_work(&sim, comm.cpu(), setup).await;
                    fut.await;
                });
        }
    }
}

/// Rank-local communicator handle for the InfiniBand world.
#[derive(Clone)]
pub struct VerbsComm {
    w: Rc<IbWorld>,
    rank: usize,
}

/// Outstanding verbs-MPI operation.
pub enum VerbsReq {
    Send(Flag),
    Recv(Rc<RecvSlot>),
}

impl VerbsComm {
    fn cpu(&self) -> usize {
        self.rank % self.w.ppn
    }
    fn node(&self) -> &Rc<Node> {
        self.w.net.node_of(self.rank)
    }
    fn st(&self) -> &Rc<RankState> {
        &self.w.ranks[self.rank]
    }
    pub fn world(&self) -> &Rc<IbWorld> {
        &self.w
    }
    /// Messages that arrived before a matching receive was posted.
    pub fn unexpected_count(&self) -> u64 {
        self.st().unexpected_count.get()
    }

    /// Host MPI processing is cache- and memory-intensive (buffer
    /// copies, queue walks, completion polling), so it both occupies
    /// this CPU and dilates under a busy sibling — the host-load /
    /// cache-pollution effect the paper blames for InfiniBand's 2 PPN
    /// behaviour (§4.2.1).
    ///
    /// Under the async-progress ablation, MPI processing runs on the
    /// progress engine (deployments pinned it to the spare core), so
    /// it costs latency but does not contend with application compute.
    async fn charge(&self, d: Dur) {
        if d.is_zero() {
            return;
        }
        if self.w.params.async_progress {
            self.node().cpu_work(&self.w.sim, self.cpu(), d).await;
        } else {
            self.node().compute(&self.w.sim, self.cpu(), d, 0.5).await;
        }
    }

    /// One host-side matching pass over `scanned` queue entries.
    fn match_cost(&self, scanned: usize) -> Dur {
        self.w.params.match_base
            + Dur::from_ps(self.w.params.match_per_entry.as_ps() * scanned as u64)
    }

    /// THE progress engine. Runs only while this rank is inside an MPI
    /// call; drains the HCA inbox, handling each protocol message on
    /// the host CPU, until `done` is set.
    async fn progress_until(&self, done: Flag) {
        let hca = self.w.net.hca(self.rank).clone();
        loop {
            // Transport retries are exhausted: the QP is in the error
            // state and every outstanding work request is flushed.
            // MVAPICH 0.9.2 had no recovery path for this — the job
            // dies with the (typed) transport error.
            if let Some(e) = hca.qp_error() {
                panic!("InfiniBand QP error at rank {}: {e}", self.rank);
            }
            // Drain whatever has already landed.
            while let Some((_src, m)) = hca.inbox.try_recv() {
                self.charge(hca.params.poll_detect).await;
                self.handle(m).await;
            }
            if done.is_set() {
                return;
            }
            // Nothing pending and not done: block on the next arrival.
            // (A real implementation spins; the spin occupies only this
            // rank's own CPU, so the block is time-equivalent.)
            // The wait may race with our own completion (e.g. a send
            // completing via local DMA) or a QP failure. Poll order is
            // message, then done, then error — deterministic, and
            // identical to the pre-fault behaviour when no plan is
            // active (the error flag never fires then).
            let race = elanib_simcore::race2(
                hca.inbox.recv(),
                elanib_simcore::race2(done.wait(), hca.qp_error_flag.wait()),
            );
            match race.await {
                Race2::First((_src, m)) => {
                    // One poll sweep across all per-peer buffers to
                    // find it (cost scales with connections), plus the
                    // detection itself.
                    self.charge(hca.poll_sweep_cost()).await;
                    self.charge(hca.params.poll_detect).await;
                    self.handle(m).await;
                }
                Race2::Second(Race2::First(())) => return, // done flag fired
                Race2::Second(Race2::Second(())) => continue, // loop top surfaces the QP error
            }
        }
    }

    /// Host-side handling of one incoming protocol message.
    ///
    /// Matching decisions commit *atomically* (no await between the
    /// posted-queue lookup and the unexpected-queue park): with the
    /// async-progress ablation this runs concurrently with the rank's
    /// own MPI calls, and a decision spanning an await point can lose
    /// a message to a receive posted in between.
    async fn handle(&self, m: IbMsg) {
        match m {
            IbMsg::Eager { hdr, data, bytes } => {
                let (matched, scanned) = {
                    let (matched, scanned) = self.match_posted(&hdr);
                    if matched.is_none() {
                        let st = self.st();
                        st.unexpected_count.set(st.unexpected_count.get() + 1);
                        st.unexpected.borrow_mut().push_back(UnexpMsg {
                            hdr,
                            kind: UnexpKind::Eager {
                                data: data.clone(),
                                bytes,
                            },
                        });
                        self.trace_unexpected();
                    }
                    (matched, scanned)
                };
                self.charge(self.match_cost(scanned)).await;
                if let Some(p) = matched {
                    // Copy out of the eager RDMA buffer into the user
                    // buffer.
                    self.node().host_copy(&self.w.sim, bytes).await;
                    self.complete_recv(p.recv_id, hdr, data, bytes);
                }
            }
            IbMsg::Rts {
                hdr,
                bytes,
                send_id,
            } => {
                let (matched, scanned) = {
                    let (matched, scanned) = self.match_posted(&hdr);
                    if matched.is_none() {
                        let st = self.st();
                        st.unexpected_count.set(st.unexpected_count.get() + 1);
                        st.unexpected.borrow_mut().push_back(UnexpMsg {
                            hdr,
                            kind: UnexpKind::Rts { bytes, send_id },
                        });
                        self.trace_unexpected();
                    }
                    (matched, scanned)
                };
                self.charge(self.match_cost(scanned) + self.w.params.rts_handle)
                    .await;
                if let Some(p) = matched {
                    self.rendezvous_reply(hdr, bytes, send_id, p).await;
                }
            }
            IbMsg::Cts { send_id, recv_id } => {
                self.charge(self.w.params.cts_handle).await;
                let pending = self
                    .st()
                    .sends
                    .borrow_mut()
                    .remove(&send_id)
                    .expect("CTS for unknown send");
                // RDMA-write the payload with the FIN; the send request
                // completes when the source DMA drains.
                let h = self.w.net.post(
                    &self.w.sim,
                    self.rank,
                    pending.hdr.dst,
                    IbMsg::Fin {
                        recv_id,
                        hdr: pending.hdr,
                        data: pending.data,
                        bytes: pending.bytes,
                    },
                    pending.bytes,
                );
                let done = pending.done;
                let sim = self.w.sim.clone();
                sim.clone().spawn("ib-send-complete", async move {
                    h.local.wait().await;
                    done.set();
                });
            }
            IbMsg::Fin {
                recv_id,
                hdr,
                data,
                bytes,
            } => {
                // Data already landed in the registered user buffer
                // (zero copy); retire the request.
                self.charge(self.w.params.fin_handle).await;
                self.complete_recv(recv_id, hdr, data, bytes);
            }
        }
    }

    /// Account one unexpected arrival: count plus the host-software
    /// queue depth (the §4 unexpected-queue growth MVAPICH pays to
    /// walk on every receive).
    fn trace_unexpected(&self) {
        if let Some(tr) = self.w.sim.tracer() {
            tr.add("mpi.unexpected", 1);
            tr.gauge(
                "mpi.unexpected_depth",
                self.st().unexpected.borrow().len() as i64,
            );
        }
    }

    /// Receiver side of the rendezvous: register the user buffer and
    /// send CTS.
    async fn rendezvous_reply(&self, _hdr: MsgHdr, bytes: u64, send_id: u64, p: PostedRecv) {
        let reg = self
            .w
            .net
            .hca(self.rank)
            .register_traced(&self.w.sim, p.region, bytes);
        self.charge(self.w.params.reg_check + reg).await;
        let src = _hdr.src;
        let _ = self.w.net.post(
            &self.w.sim,
            self.rank,
            src,
            IbMsg::Cts {
                send_id,
                recv_id: p.recv_id,
            },
            self.w.params.ctl_bytes,
        );
    }

    /// Find and remove the first posted receive matching `hdr`.
    /// Returns the entry and the number of queue entries scanned.
    fn match_posted(&self, hdr: &MsgHdr) -> (Option<PostedRecv>, usize) {
        let mut posted = self.st().posted.borrow_mut();
        match posted.iter().position(|p| p.sel.matches(hdr)) {
            Some(i) => (Some(posted.remove(i)), i + 1),
            None => {
                let n = posted.len();
                (None, n)
            }
        }
    }

    fn complete_recv(&self, recv_id: u64, hdr: MsgHdr, data: Payload, bytes: u64) {
        let slot = self
            .st()
            .recvs
            .borrow_mut()
            .remove(&recv_id)
            .expect("completion for unknown recv");
        *slot.result.borrow_mut() = Some(RecvMsg {
            src: hdr.src,
            tag: hdr.tag,
            bytes,
            data,
        });
        slot.done.set();
    }
}

impl Communicator for VerbsComm {
    type Req = VerbsReq;

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
        region: u64,
    ) -> VerbsReq {
        let p = self.w.params;
        self.charge(p.send_setup + p.credit_check).await;
        let hdr = MsgHdr {
            src: self.rank,
            dst,
            tag,
            ctx,
        };
        if bytes <= p.eager_threshold {
            // Eager: copy into the pre-registered per-peer slot, ring
            // the doorbell, done (buffered-send semantics).
            if let Some(tr) = self.w.sim.tracer() {
                tr.add("mpi.eager_sends", 1);
            }
            self.node().host_copy(&self.w.sim, bytes).await;
            self.charge(self.w.net.params.doorbell).await;
            let _ = self.w.net.post(
                &self.w.sim,
                self.rank,
                dst,
                IbMsg::Eager { hdr, data, bytes },
                bytes + p.eager_envelope,
            );
            let done = Flag::new();
            done.set();
            VerbsReq::Send(done)
        } else {
            // Rendezvous: register the send buffer, ship an RTS, and
            // wait for the CTS (processed only inside MPI calls).
            if let Some(tr) = self.w.sim.tracer() {
                tr.add("mpi.rdv_sends", 1);
            }
            let reg = self
                .w
                .net
                .hca(self.rank)
                .register_traced(&self.w.sim, region, bytes);
            self.charge(p.reg_check + reg).await;
            self.charge(self.w.net.params.doorbell).await;
            let st = self.st();
            let send_id = st.alloc_id();
            let done = Flag::new();
            st.sends.borrow_mut().insert(
                send_id,
                SendPending {
                    hdr,
                    data,
                    bytes,
                    done: done.clone(),
                },
            );
            let _ = self.w.net.post(
                &self.w.sim,
                self.rank,
                dst,
                IbMsg::Rts {
                    hdr,
                    bytes,
                    send_id,
                },
                p.ctl_bytes,
            );
            VerbsReq::Send(done)
        }
    }

    async fn irecv_full(
        &self,
        src: Option<usize>,
        tag: Option<i64>,
        ctx: u32,
        region: u64,
    ) -> VerbsReq {
        let p = self.w.params;
        self.charge(p.recv_setup).await;
        let sel = Sel { src, tag, ctx };
        let st = self.st();
        let recv_id = st.alloc_id();
        let slot = Rc::new(RecvSlot {
            done: Flag::new(),
            result: RefCell::new(None),
        });
        st.recvs.borrow_mut().insert(recv_id, slot.clone());

        // Charge the host matching cost for the sweep *before* acting,
        // then scan-and-commit without awaits in between: with the
        // async-progress ablation the handler runs concurrently with
        // this task, so the queue may change across any await point.
        let scan_est = st.unexpected.borrow().len();
        self.charge(self.match_cost(scan_est)).await;
        let claimed = {
            let mut unexp = st.unexpected.borrow_mut();
            match unexp.iter().position(|u| sel.matches(&u.hdr)) {
                Some(i) => Some(unexp.remove(i).unwrap()),
                None => {
                    st.posted.borrow_mut().push(PostedRecv {
                        sel,
                        recv_id,
                        region,
                    });
                    if let Some(tr) = self.w.sim.tracer() {
                        tr.gauge("mpi.posted_depth", st.posted.borrow().len() as i64);
                    }
                    None
                }
            }
        };
        if let Some(u) = claimed {
            match u.kind {
                UnexpKind::Eager { data, bytes } => {
                    self.node().host_copy(&self.w.sim, bytes).await;
                    self.complete_recv(recv_id, u.hdr, data, bytes);
                }
                UnexpKind::Rts { bytes, send_id } => {
                    let posted = PostedRecv {
                        sel,
                        recv_id,
                        region,
                    };
                    self.rendezvous_reply(u.hdr, bytes, send_id, posted).await;
                }
            }
        }
        VerbsReq::Recv(slot)
    }

    async fn compute(&self, dur: Dur, mem_intensity: f64) {
        self.node()
            .compute(&self.w.sim, self.cpu(), dur, mem_intensity)
            .await;
    }

    async fn wait(&self, req: VerbsReq) -> Option<RecvMsg> {
        match req {
            VerbsReq::Send(done) => {
                self.progress_until(done).await;
                None
            }
            VerbsReq::Recv(slot) => {
                self.progress_until(slot.done.clone()).await;
                let m = slot.result.borrow_mut().take();
                Some(m.expect("recv completed without result"))
            }
        }
    }
}
