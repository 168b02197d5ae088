//! The Quadrics Elan-4 NIC model (QM500) with its Tports interface.
//!
//! Everything §3 of the paper credits to Quadrics happens *here*, on
//! the NIC, in simulated-NIC-thread time, with no involvement from the
//! host MPI process:
//!
//! * **Tag matching on the NIC** (§3.1): arrivals are matched against
//!   the posted-receive queue by the Elan thread processor; the cost is
//!   `nic_dispatch + match_per_entry × entries scanned` — the "long
//!   queues on a slow processor" trade-off of §3.3.4.
//! * **Unexpected-message buffering** (§3.1): unmatched eager data
//!   parks in a NIC-managed system buffer; a later matching receive
//!   pays one memory-bus copy to drain it.
//! * **Independent progress** (§3.3.3): a long-message RTS is answered
//!   by the *NIC* issuing a get and pulling the data — the host can be
//!   deep in a compute loop and the transfer still completes. Compare
//!   `Hca`, where the same RTS would rot in the inbox.
//! * **Connectionless** (§3.3.1): there is no per-peer setup and no
//!   per-peer receive resource; any rank can send to any other at any
//!   time.
//! * **Implicit registration** (§3.3.2): the Elan MMU shares address
//!   translations with the host OS, so there is no register call and
//!   no pin-down cache in this file at all.

use elanib_simcore::FxHashMap;
use std::cell::{Cell, RefCell};
use std::rc::Rc;

use elanib_fabric::Fabric;
use elanib_nodesim::Node;
use elanib_simcore::{Dur, Flag, Sim};

use crate::common::{Payload, SerialEngine};
use crate::params::ElanParams;
use crate::transfer::{launch, PairChains, RecoveryPolicy};

/// Message envelope: MPI-level addressing carried by every Tports
/// transaction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TportHeader {
    pub src_rank: usize,
    pub dst_rank: usize,
    pub tag: i64,
    /// Communicator context id.
    pub ctx: u32,
}

/// Receive selector: which messages a posted receive accepts.
#[derive(Clone, Copy, Debug)]
pub struct TportSel {
    pub dst_rank: usize,
    /// `None` = MPI_ANY_SOURCE.
    pub src: Option<usize>,
    /// `None` = MPI_ANY_TAG.
    pub tag: Option<i64>,
    pub ctx: u32,
}

impl TportSel {
    fn matches(&self, h: &TportHeader) -> bool {
        self.dst_rank == h.dst_rank
            && self.ctx == h.ctx
            && self.src.is_none_or(|s| s == h.src_rank)
            && self.tag.is_none_or(|t| t == h.tag)
    }
}

/// What a completed receive yields.
#[derive(Clone, Debug)]
pub struct TportArrival {
    pub src_rank: usize,
    pub tag: i64,
    pub bytes: u64,
    pub data: Payload,
}

/// Handle the host blocks on for one posted receive.
#[derive(Clone)]
pub struct TportRecvHandle {
    pub done: Flag,
    result: Rc<RefCell<Option<TportArrival>>>,
}

impl TportRecvHandle {
    fn new() -> TportRecvHandle {
        TportRecvHandle {
            done: Flag::new(),
            result: Rc::new(RefCell::new(None)),
        }
    }

    /// The arrival record; panics if awaited before `done` is set.
    pub fn take(&self) -> TportArrival {
        self.result
            .borrow_mut()
            .take()
            .expect("TportRecvHandle::take before completion")
    }
}

/// Wire transactions between Elan NICs.
enum WireMsg {
    Eager {
        hdr: TportHeader,
        bytes: u64,
        data: Payload,
    },
    Rts {
        hdr: TportHeader,
        bytes: u64,
        send_id: u64,
        src_ep: usize,
    },
    Get {
        send_id: u64,
        recv_id: u64,
        dst_ep: usize,
    },
    RdvData {
        recv_id: u64,
        bytes: u64,
        data: Payload,
        hdr: TportHeader,
    },
}

enum UnexpKind {
    Eager(Payload),
    Rts { send_id: u64, src_ep: usize },
}

struct UnexpMsg {
    hdr: TportHeader,
    bytes: u64,
    kind: UnexpKind,
}

struct PostedRecv {
    sel: TportSel,
    recv_id: u64,
}

struct PendingSend {
    hdr: TportHeader,
    data: Payload,
    bytes: u64,
    local_done: Flag,
}

/// Per-node Elan adapter.
pub struct ElanPort {
    pub node: Rc<Node>,
    pub ep: usize,
    tx_engine: SerialEngine,
    /// The Elan thread processor: every matching decision is a serial
    /// slot on this engine.
    thread: SerialEngine,
    chains: PairChains,
    posted: RefCell<Vec<PostedRecv>>,
    unexpected: RefCell<Vec<UnexpMsg>>,
    pending_sends: RefCell<FxHashMap<u64, PendingSend>>,
    recvs: RefCell<FxHashMap<u64, TportRecvHandle>>,
    next_id: Cell<u64>,
    /// Stats: messages that arrived before their receive was posted.
    pub unexpected_count: Cell<u64>,
}

/// A whole Elan-4 network.
pub struct ElanNet {
    pub fabric: Rc<Fabric>,
    pub params: ElanParams,
    ports: Vec<Rc<ElanPort>>,
    rank_ep: Vec<usize>,
}

impl ElanNet {
    pub fn new(
        nodes: &[Rc<Node>],
        fabric: Rc<Fabric>,
        ppn: usize,
        params: ElanParams,
    ) -> Rc<ElanNet> {
        assert!(ppn >= 1);
        assert_eq!(fabric.n_endpoints(), nodes.len());
        let ports = nodes
            .iter()
            .enumerate()
            .map(|(i, n)| {
                Rc::new(ElanPort {
                    node: n.clone(),
                    ep: i,
                    tx_engine: SerialEngine::new(),
                    thread: SerialEngine::new(),
                    chains: PairChains::new(),
                    posted: RefCell::new(Vec::new()),
                    unexpected: RefCell::new(Vec::new()),
                    pending_sends: RefCell::new(FxHashMap::default()),
                    recvs: RefCell::new(FxHashMap::default()),
                    next_id: Cell::new(1),
                    unexpected_count: Cell::new(0),
                })
            })
            .collect();
        let rank_ep = (0..nodes.len() * ppn).map(|r| r / ppn).collect();
        Rc::new(ElanNet {
            fabric,
            params,
            ports,
            rank_ep,
        })
    }

    pub fn n_ranks(&self) -> usize {
        self.rank_ep.len()
    }
    pub fn node_of(&self, rank: usize) -> &Rc<Node> {
        &self.ports[self.rank_ep[rank]].node
    }
    pub fn same_node(&self, a: usize, b: usize) -> bool {
        self.rank_ep[a] == self.rank_ep[b]
    }
    pub fn port_of(&self, rank: usize) -> &Rc<ElanPort> {
        &self.ports[self.rank_ep[rank]]
    }

    /// Total wire transactions across all ports (stats).
    pub fn total_messages(&self) -> u64 {
        self.ports.iter().map(|p| p.messages_sent()).sum()
    }

    /// Total messages that arrived before their receive was posted.
    pub fn total_unexpected(&self) -> u64 {
        self.ports.iter().map(|p| p.unexpected_count.get()).sum()
    }

    /// Two-sided tagged send. The caller has already charged the host
    /// PIO cost ([`ElanParams::pio_issue`]); everything after that is
    /// NIC-driven. Returns the local-completion flag (send buffer
    /// reusable / MPI_Send may return).
    pub fn tport_send(
        self: &Rc<Self>,
        sim: &Sim,
        hdr: TportHeader,
        data: Payload,
        bytes: u64,
    ) -> Flag {
        let src_ep = self.rank_ep[hdr.src_rank];
        let dst_ep = self.rank_ep[hdr.dst_rank];
        let src_port = &self.ports[src_ep];
        if bytes <= self.params.eager_threshold {
            if let Some(tr) = sim.tracer() {
                tr.add("elan.eager_sends", 1);
            }
            let local = Flag::new();
            self.transmit(
                sim,
                src_ep,
                dst_ep,
                WireMsg::Eager { hdr, bytes, data },
                bytes,
                local.clone(),
            );
            local
        } else {
            // Rendezvous: park the data, ship a small RTS. The local
            // flag is only set once the destination NIC has pulled the
            // data (synchronous-send semantics for long messages).
            if let Some(tr) = sim.tracer() {
                tr.add("elan.rdv_sends", 1);
            }
            let send_id = src_port.alloc_id();
            let local = Flag::new();
            src_port.pending_sends.borrow_mut().insert(
                send_id,
                PendingSend {
                    hdr,
                    data,
                    bytes,
                    local_done: local.clone(),
                },
            );
            self.transmit(
                sim,
                src_ep,
                dst_ep,
                WireMsg::Rts {
                    hdr,
                    bytes,
                    send_id,
                    src_ep,
                },
                16,
                Flag::new(),
            );
            local
        }
    }

    /// Post a receive. The caller has already charged
    /// [`ElanParams::post_recv`]; insertion and any unexpected-queue
    /// match run in NIC-thread time.
    pub fn tport_post_recv(self: &Rc<Self>, sim: &Sim, sel: TportSel) -> TportRecvHandle {
        let port = self.ports[self.rank_ep[sel.dst_rank]].clone();
        let handle = TportRecvHandle::new();
        let recv_id = port.alloc_id();
        port.recvs.borrow_mut().insert(recv_id, handle.clone());
        // Fast path: nothing unexpected — the host appends the
        // descriptor to the NIC-visible queue directly; the Elan thread
        // only gets involved when there is matching work to do.
        if port.unexpected.borrow().is_empty() {
            port.posted.borrow_mut().push(PostedRecv { sel, recv_id });
            if let Some(tr) = sim.tracer() {
                tr.gauge("elan.posted_depth", port.posted.borrow().len() as i64);
            }
            return handle;
        }
        let scanned = port
            .unexpected
            .borrow()
            .iter()
            .position(|u| sel.matches(&u.hdr))
            .map(|i| i + 1)
            .unwrap_or_else(|| port.unexpected.borrow().len());
        let cost = self.params.nic_dispatch
            + Dur::from_ps(self.params.match_per_entry.as_ps() * scanned as u64);
        let slot = port.thread.next_slot(sim, cost);
        let net = self.clone();
        sim.call_at(slot, move |sim| {
            net.nic_post_recv(sim, &port, sel, recv_id);
        });
        handle
    }

    /// NIC-thread half of posting a receive: match the unexpected
    /// queue or append to the posted queue.
    fn nic_post_recv(self: Rc<Self>, sim: &Sim, port: &Rc<ElanPort>, sel: TportSel, recv_id: u64) {
        let pos = port
            .unexpected
            .borrow()
            .iter()
            .position(|u| sel.matches(&u.hdr));
        match pos {
            Some(i) => {
                let u = port.unexpected.borrow_mut().remove(i);
                match u.kind {
                    UnexpKind::Eager(data) => {
                        // Drain the system buffer into the user buffer:
                        // one memory-bus pass, then complete.
                        let net = self.clone();
                        let port = port.clone();
                        let sim2 = sim.clone();
                        let bytes = u.bytes;
                        sim.spawn("elan-unexp-drain", async move {
                            port.node.mem_transfer(&sim2, bytes).await;
                            net.complete_recv(
                                &sim2,
                                &port,
                                recv_id,
                                TportArrival {
                                    src_rank: u.hdr.src_rank,
                                    tag: u.hdr.tag,
                                    bytes,
                                    data,
                                },
                            );
                        });
                    }
                    UnexpKind::Rts { send_id, src_ep } => {
                        self.issue_get(sim, port, send_id, recv_id, src_ep);
                    }
                }
            }
            None => {
                port.posted.borrow_mut().push(PostedRecv { sel, recv_id });
                if let Some(tr) = sim.tracer() {
                    tr.gauge("elan.posted_depth", port.posted.borrow().len() as i64);
                }
            }
        }
    }

    /// Transmit one wire message; arrival enters the destination NIC
    /// thread.
    fn transmit(
        self: &Rc<Self>,
        sim: &Sim,
        src_ep: usize,
        dst_ep: usize,
        msg: WireMsg,
        bytes: u64,
        local_done: Flag,
    ) {
        let src_port = &self.ports[src_ep];
        let dst_port = self.ports[dst_ep].clone();
        let start_at = src_port.tx_engine.next_slot(sim, self.params.nic_dispatch);
        let (prev, tail) = src_port.chains.enqueue(dst_ep);
        let net = self.clone();
        let dst_node = dst_port.node.clone();
        launch(
            sim,
            &self.fabric,
            &src_port.node,
            &dst_node,
            src_ep,
            dst_ep,
            bytes,
            start_at,
            local_done,
            prev,
            tail,
            RecoveryPolicy::elan(&self.params),
            move |sim, result| {
                // Elan's link layer hides transient faults in hardware;
                // a surfaced transport error means the path is
                // persistently dead, which QsNet treats as fatal.
                if let Err(e) = result {
                    panic!("Elan transport failure {src_ep}->{dst_ep}: {e}");
                }
                net.on_arrival(sim, &dst_port, msg);
            },
        );
    }

    /// Wire arrival: claim an Elan-thread slot, then act.
    fn on_arrival(self: Rc<Self>, sim: &Sim, port: &Rc<ElanPort>, msg: WireMsg) {
        // Entries the Elan thread scans before finding (or missing) a
        // match — long posted queues cost real NIC-processor time, the
        // offload risk §3.3.4 cites.
        let scanned = match &msg {
            WireMsg::Eager { hdr, .. } | WireMsg::Rts { hdr, .. } => {
                let posted = port.posted.borrow();
                posted
                    .iter()
                    .position(|p| p.sel.matches(hdr))
                    .map(|i| i + 1)
                    .unwrap_or(posted.len())
            }
            _ => 0,
        };
        let cost = self.params.nic_dispatch
            + Dur::from_ps(self.params.match_per_entry.as_ps() * scanned as u64);
        let slot = port.thread.next_slot(sim, cost);
        let port = port.clone();
        sim.call_at(slot, move |sim| {
            self.nic_handle(sim, &port, msg);
        });
    }

    fn nic_handle(self: Rc<Self>, sim: &Sim, port: &Rc<ElanPort>, msg: WireMsg) {
        match msg {
            WireMsg::Eager { hdr, bytes, data } => {
                match port.match_posted(&hdr) {
                    Some(recv_id) => {
                        // Pre-posted: the wire DMA already placed the
                        // data in the user buffer (zero copy).
                        self.complete_recv(
                            sim,
                            port,
                            recv_id,
                            TportArrival {
                                src_rank: hdr.src_rank,
                                tag: hdr.tag,
                                bytes,
                                data,
                            },
                        );
                    }
                    None => {
                        port.unexpected_count.set(port.unexpected_count.get() + 1);
                        port.unexpected.borrow_mut().push(UnexpMsg {
                            hdr,
                            bytes,
                            kind: UnexpKind::Eager(data),
                        });
                        port.trace_unexpected(sim);
                    }
                }
            }
            WireMsg::Rts {
                hdr,
                bytes,
                send_id,
                src_ep,
            } => match port.match_posted(&hdr) {
                Some(recv_id) => self.issue_get(sim, port, send_id, recv_id, src_ep),
                None => {
                    port.unexpected_count.set(port.unexpected_count.get() + 1);
                    port.unexpected.borrow_mut().push(UnexpMsg {
                        hdr,
                        bytes,
                        kind: UnexpKind::Rts { send_id, src_ep },
                    });
                    port.trace_unexpected(sim);
                }
            },
            WireMsg::Get {
                send_id,
                recv_id,
                dst_ep,
            } => {
                let pending = port
                    .pending_sends
                    .borrow_mut()
                    .remove(&send_id)
                    .expect("Get for unknown send");
                self.transmit(
                    sim,
                    port.ep,
                    dst_ep,
                    WireMsg::RdvData {
                        recv_id,
                        bytes: pending.bytes,
                        data: pending.data,
                        hdr: pending.hdr,
                    },
                    pending.bytes,
                    pending.local_done,
                );
            }
            WireMsg::RdvData {
                recv_id,
                bytes,
                data,
                hdr,
            } => {
                self.complete_recv(
                    sim,
                    port,
                    recv_id,
                    TportArrival {
                        src_rank: hdr.src_rank,
                        tag: hdr.tag,
                        bytes,
                        data,
                    },
                );
            }
        }
    }

    /// The destination NIC pulls rendezvous data: send a get request to
    /// the source NIC.
    fn issue_get(
        self: &Rc<Self>,
        sim: &Sim,
        dst_port: &Rc<ElanPort>,
        send_id: u64,
        recv_id: u64,
        src_ep: usize,
    ) {
        self.transmit(
            sim,
            dst_port.ep,
            src_ep,
            WireMsg::Get {
                send_id,
                recv_id,
                dst_ep: dst_port.ep,
            },
            16,
            Flag::new(),
        );
    }

    /// NIC writes the completion event; the host notices after the
    /// wake-up latency.
    fn complete_recv(&self, sim: &Sim, port: &Rc<ElanPort>, recv_id: u64, arrival: TportArrival) {
        let handle = port
            .recvs
            .borrow_mut()
            .remove(&recv_id)
            .expect("completion for unknown recv");
        sim.call_in(self.params.host_wakeup, move |_| {
            *handle.result.borrow_mut() = Some(arrival);
            handle.done.set();
        });
    }
}

impl ElanPort {
    fn alloc_id(&self) -> u64 {
        let id = self.next_id.get();
        self.next_id.set(id + 1);
        id
    }

    /// First posted receive matching `hdr`, removed from the queue.
    fn match_posted(&self, hdr: &TportHeader) -> Option<u64> {
        let mut posted = self.posted.borrow_mut();
        let pos = posted.iter().position(|p| p.sel.matches(hdr))?;
        Some(posted.remove(pos).recv_id)
    }

    pub fn posted_depth(&self) -> usize {
        self.posted.borrow().len()
    }
    pub fn unexpected_depth(&self) -> usize {
        self.unexpected.borrow().len()
    }
    /// Wire transactions this port has injected.
    pub fn messages_sent(&self) -> u64 {
        self.tx_engine.jobs_served()
    }
    /// Events the Elan thread processor has dispatched.
    pub fn thread_events(&self) -> u64 {
        self.thread.jobs_served()
    }

    /// Account one unexpected arrival into the tracer: the NIC-buffer
    /// depth the §3.1 system-buffer argument is about.
    fn trace_unexpected(&self, sim: &Sim) {
        if let Some(tr) = sim.tracer() {
            tr.add("elan.unexpected", 1);
            tr.gauge(
                "elan.unexpected_depth",
                self.unexpected.borrow().len() as i64,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elanib_fabric::{elan4, Topology};
    use elanib_nodesim::NodeParams;
    use std::rc::Rc;

    fn net(nodes: usize, ppn: usize) -> (Sim, Rc<ElanNet>) {
        let sim = Sim::new(1);
        let nn: Vec<_> = (0..nodes)
            .map(|i| Node::new(i, NodeParams::default()))
            .collect();
        let fabric = Rc::new(Fabric::new(Topology::single_crossbar(nodes), elan4()));
        let n = ElanNet::new(&nn, fabric, ppn, ElanParams::default());
        (sim, n)
    }

    fn hdr(src: usize, dst: usize, tag: i64) -> TportHeader {
        TportHeader {
            src_rank: src,
            dst_rank: dst,
            tag,
            ctx: 0,
        }
    }

    fn sel(dst: usize, src: Option<usize>, tag: Option<i64>) -> TportSel {
        TportSel {
            dst_rank: dst,
            src,
            tag,
            ctx: 0,
        }
    }

    fn payload(x: f64) -> Payload {
        Rc::from([x])
    }

    #[test]
    fn preposted_eager_recv_completes() {
        let (sim, net) = net(2, 1);
        let h = net.tport_post_recv(&sim, sel(1, Some(0), Some(7)));
        net.tport_send(&sim, hdr(0, 1, 7), payload(42.0), 64);
        let (h2, s2) = (h.clone(), sim.clone());
        sim.spawn("rx", async move {
            h2.done.wait().await;
            let a = h2.take();
            assert_eq!(a.src_rank, 0);
            assert_eq!(a.tag, 7);
            assert_eq!(a.bytes, 64);
            assert_eq!(a.data[0], 42.0);
            // One-way eager small-message time: a few microseconds.
            assert!(s2.now().as_us_f64() < 5.0, "{}", s2.now());
        });
        sim.run().unwrap();
    }

    #[test]
    fn unexpected_eager_costs_a_drain_copy() {
        // Timing: recv posted long after arrival must still complete,
        // and the pre-posted path must be at least as fast.
        let (sim, net) = net(2, 1);
        net.tport_send(&sim, hdr(0, 1, 1), payload(9.0), 2048);
        let (n2, s2) = (net.clone(), sim.clone());
        sim.spawn("late-rx", async move {
            s2.sleep(Dur::from_us(50)).await; // message long arrived
            assert_eq!(n2.port_of(1).unexpected_depth(), 1);
            let h = n2.tport_post_recv(&s2, sel(1, None, None));
            let before = s2.now();
            h.done.wait().await;
            let a = h.take();
            assert_eq!(a.data[0], 9.0);
            // Completion needed NIC dispatch + drain copy, not a wire
            // round trip.
            let took = s2.now().since(before).as_us_f64();
            assert!(took > 0.5 && took < 10.0, "took {took}");
            assert_eq!(n2.port_of(1).unexpected_depth(), 0);
        });
        sim.run().unwrap();
    }

    #[test]
    fn rendezvous_roundtrip_preposted() {
        let (sim, net) = net(2, 1);
        let bytes = 1_000_000; // > eager_threshold
        let h = net.tport_post_recv(&sim, sel(1, Some(0), Some(3)));
        let local = net.tport_send(&sim, hdr(0, 1, 3), payload(5.0), bytes);
        let (h2, l2, s2) = (h.clone(), local.clone(), sim.clone());
        sim.spawn("rx", async move {
            h2.done.wait().await;
            let a = h2.take();
            assert_eq!(a.bytes, bytes);
            assert_eq!(a.src_rank, 0);
            // ~1 MB at ~0.9 GB/s ≈ 1.1 ms (+ handshake).
            let t = s2.now().as_us_f64();
            assert!(t > 1000.0 && t < 1600.0, "t={t}");
            l2.wait().await; // sender completion must also fire
        });
        sim.run().unwrap();
    }

    #[test]
    fn rendezvous_waits_for_late_receiver() {
        let (sim, net) = net(2, 1);
        let bytes = 500_000;
        let local = net.tport_send(&sim, hdr(0, 1, 3), payload(5.0), bytes);
        let (n2, s2, l2) = (net.clone(), sim.clone(), local.clone());
        sim.spawn("late-rx", async move {
            s2.sleep(Dur::from_ms(2)).await;
            assert!(!l2.is_set(), "send must not complete before recv posts");
            let h = n2.tport_post_recv(&s2, sel(1, Some(0), Some(3)));
            h.done.wait().await;
            assert_eq!(h.take().bytes, bytes);
            l2.wait().await;
        });
        sim.run().unwrap();
    }

    #[test]
    fn independent_progress_rendezvous_completes_while_host_computes() {
        // The §3.3.3 behaviour: receive pre-posted, then the host goes
        // compute-bound; the NICs complete the whole rendezvous anyway.
        let (sim, net) = net(2, 1);
        let bytes = 2_000_000;
        let h = net.tport_post_recv(&sim, sel(1, Some(0), None));
        net.tport_send(&sim, hdr(0, 1, 0), payload(1.0), bytes);
        let (s2, h2) = (sim.clone(), h.clone());
        sim.spawn("compute-bound-host", async move {
            // Host busy for 50 ms — far longer than the transfer.
            s2.sleep(Dur::from_ms(50)).await;
            // Transfer already done despite zero host attention.
            assert!(h2.done.is_set());
        });
        sim.run().unwrap();
    }

    #[test]
    fn wildcard_and_specific_matching() {
        let (sim, net) = net(3, 1);
        // rank2 posts: any-source tag 5, then src0 any-tag.
        let h_any = net.tport_post_recv(&sim, sel(2, None, Some(5)));
        let h_src0 = net.tport_post_recv(&sim, sel(2, Some(0), None));
        net.tport_send(&sim, hdr(1, 2, 5), payload(11.0), 32); // matches h_any
        net.tport_send(&sim, hdr(0, 2, 9), payload(22.0), 32); // matches h_src0
        let (a, b, s2) = (h_any.clone(), h_src0.clone(), sim.clone());
        sim.spawn("rx", async move {
            a.done.wait().await;
            b.done.wait().await;
            let _ = s2;
            assert_eq!(a.take().data[0], 11.0);
            assert_eq!(b.take().data[0], 22.0);
        });
        sim.run().unwrap();
    }

    #[test]
    fn same_tag_messages_match_in_send_order() {
        let (sim, net) = net(2, 1);
        let h1 = net.tport_post_recv(&sim, sel(1, Some(0), Some(1)));
        let h2 = net.tport_post_recv(&sim, sel(1, Some(0), Some(1)));
        net.tport_send(&sim, hdr(0, 1, 1), payload(1.0), 64);
        net.tport_send(&sim, hdr(0, 1, 1), payload(2.0), 64);
        let (a, b) = (h1.clone(), h2.clone());
        sim.spawn("rx", async move {
            a.done.wait().await;
            b.done.wait().await;
            assert_eq!(a.take().data[0], 1.0, "first posted gets first sent");
            assert_eq!(b.take().data[0], 2.0);
        });
        sim.run().unwrap();
    }

    #[test]
    fn two_ppn_ranks_share_one_port() {
        let (sim, net) = net(2, 2);
        assert_eq!(net.n_ranks(), 4);
        assert!(net.same_node(0, 1));
        assert!(!net.same_node(1, 2));
        // rank0 (node0) -> rank3 (node1).
        let h = net.tport_post_recv(&sim, sel(3, Some(0), Some(0)));
        net.tport_send(&sim, hdr(0, 3, 0), payload(7.0), 64);
        let a = h.clone();
        sim.spawn("rx", async move {
            a.done.wait().await;
            assert_eq!(a.take().data[0], 7.0);
        });
        sim.run().unwrap();
    }
}
