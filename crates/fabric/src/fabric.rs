//! Runtime fabric instance: directed channels per cable, cut-through
//! message forwarding with per-link contention.
//!
//! The forwarding model is packet-train cut-through: a message's head
//! ripples through the path paying per-switch hop latency and
//! propagation per cable, while each directed link it crosses is
//! reserved for the message's full serialization time. This captures
//! the two first-order effects the experiments need — pipelining (large
//! messages pay serialization roughly once, not per hop) and
//! contention (two messages crossing the same directed link serialize).

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use elanib_simcore::{Dur, FifoChannel, FxHashMap, Sim, SimTime};

use crate::faults::{self, FaultPlan, FaultState, FaultStats};
use crate::params::FabricParams;
use crate::routing::Routes;
use crate::topology::Topology;

/// Outcome of one wire attempt under fault injection
/// ([`Fabric::deliver_attempt`]).
#[derive(Clone, Copy, Debug)]
pub enum WireOutcome {
    /// The message crossed the fabric. `lost`/`corrupted` count the
    /// packets the fault process hit en route (the *transport* decides
    /// what that means: IB retransmits the whole message, Elan pays a
    /// per-packet hardware retry). `rerouted` marks an adaptive detour
    /// around a downed link; `hops` is the path length actually taken.
    Delivered {
        arrives: SimTime,
        lost: u64,
        corrupted: u64,
        hops: u32,
        rerouted: bool,
    },
    /// Every usable route crosses a downed link; `until` is when the
    /// blocking outage window ends.
    LinkDown { until: SimTime },
}

/// A fabric ready to carry traffic in one simulation.
pub struct Fabric {
    pub topo: Topology,
    pub params: FabricParams,
    routes: Routes,
    /// Two directed channels per undirected edge: `2*edge + dir`,
    /// where `dir = 0` carries a→b and `dir = 1` carries b→a.
    channels: Vec<FifoChannel>,
    /// Fault-injection state; `None` (the overwhelmingly common case)
    /// keeps the zero-fault hot path untouched.
    faults: Option<Rc<FaultState>>,
    /// Lazily filled per-(src, dst) static route cache. Routing is
    /// static and deterministic, yet every delivery used to rebuild
    /// the same two path vectors from the next-hop tables — on every
    /// message of every exchange. Filled on first use per pair.
    path_cache: RefCell<FxHashMap<(usize, usize), CachedPath>>,
    /// Per-priority pause/ECN wire-signal totals (EXTENSION, RoCEv2).
    cong: RefCell<CongStats>,
}

/// Switch path + channel path for one (src, dst) pair, shared between
/// the cache and in-flight deliveries.
type CachedPath = Rc<(Vec<usize>, Vec<usize>)>;

/// Per-priority congestion-signal totals (EXTENSION, RoCEv2): 802.1Qbb
/// PFC pause frames and ECN congestion-experienced marks emitted on
/// this fabric's wires, indexed by traffic class `0..8`. All-zero on
/// the IB/Elan paths — only the RoCE congestion machinery emits them.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CongStats {
    pub pause_frames: [u64; 8],
    pub ecn_marks: [u64; 8],
}

impl CongStats {
    /// Total pause frames across all traffic classes.
    pub fn total_pauses(&self) -> u64 {
        self.pause_frames.iter().sum()
    }
}

impl Fabric {
    /// Build a fabric, picking up the process-wide `ELANIB_FAULTS`
    /// plan if one is set (see [`faults::env_plan`]).
    pub fn new(topo: Topology, params: FabricParams) -> Fabric {
        Self::with_faults(topo, params, faults::env_plan())
    }

    /// Build a fabric with an explicit fault plan (or none). An
    /// effectless plan is dropped so the fault-free hot path stays
    /// byte-identical to a plan-free run.
    pub fn with_faults(
        topo: Topology,
        params: FabricParams,
        plan: Option<Arc<FaultPlan>>,
    ) -> Fabric {
        let routes = Routes::compute(&topo);
        let channels: Vec<FifoChannel> = (0..topo.edges.len() * 2)
            .map(|_| FifoChannel::new(params.link.data_rate, Dur::ZERO))
            .collect();
        let faults = plan
            .filter(|p| !p.is_effectless())
            .map(|p| Rc::new(FaultState::new(p, channels.len())));
        Fabric {
            topo,
            params,
            routes,
            channels,
            faults,
            path_cache: RefCell::new(FxHashMap::default()),
            cong: RefCell::new(CongStats::default()),
        }
    }

    /// The static `(vertices, edges)` route for `src -> dst`, computed
    /// once per pair and shared thereafter.
    fn static_path(&self, src: usize, dst: usize) -> Rc<(Vec<usize>, Vec<usize>)> {
        if let Some(p) = self.path_cache.borrow().get(&(src, dst)) {
            return p.clone();
        }
        let verts = self.routes.vertex_path(&self.topo, src, dst);
        let edges = self.routes.path(src, dst);
        let p = Rc::new((verts, edges));
        self.path_cache.borrow_mut().insert((src, dst), p.clone());
        p
    }

    /// The fault-injection state, when a plan is active.
    pub fn faults(&self) -> Option<&Rc<FaultState>> {
        self.faults.as_ref()
    }

    /// End-of-run fault/recovery totals (all-zero when no plan).
    pub fn fault_stats(&self) -> FaultStats {
        self.faults.as_ref().map(|f| f.stats()).unwrap_or_default()
    }

    pub fn n_endpoints(&self) -> usize {
        self.topo.n_endpoints
    }

    pub fn routes(&self) -> &Routes {
        &self.routes
    }

    /// Reserve the path for a `bytes`-long message from endpoint `src`
    /// to endpoint `dst`, starting no earlier than now, and return the
    /// simulated time at which the **last byte arrives at `dst`'s NIC
    /// port**. Purely a reservation — the caller models occupancy by
    /// sleeping until the returned instant.
    ///
    /// `src == dst` is not meaningful at the fabric level (intra-node
    /// traffic never reaches the cable) and panics.
    pub fn deliver_at(&self, sim: &Sim, src: usize, dst: usize, bytes: u64) -> SimTime {
        assert_ne!(src, dst, "fabric loopback is handled above the NIC");
        let path = self.static_path(src, dst);
        self.walk(sim, &path.0, &path.1, bytes, None).0
    }

    /// Reserve the links `edges` (link `i` entered from vertex
    /// `verts[i]`) for one `bytes`-long message leaving now, and return
    /// when its last byte arrives, with the packets lost and corrupted
    /// on the way. Under a fault plan `fs` each link may be degraded
    /// (serialization stretched by the reciprocal of the factor) and
    /// each MTU packet is drawn against the loss/corruption rates;
    /// without one the counts are zero.
    fn walk(
        &self,
        sim: &Sim,
        verts: &[usize],
        edges: &[usize],
        bytes: u64,
        fs: Option<&Rc<FaultState>>,
    ) -> (SimTime, u64, u64) {
        let wire = self.params.link.wire_bytes(bytes);
        let ser = self.params.link.serialize(bytes);
        let hop = self.params.switch.hop_latency;
        let prop = self.params.link.propagation;
        let packets = bytes.div_ceil(self.params.link.mtu as u64).max(1);

        // Head time advances link by link; each link is additionally
        // reserved for the full serialization time so later messages
        // queue behind this one.
        let now = sim.now();
        let mut head = now;
        let mut stall = Dur::ZERO;
        let (mut lost, mut corrupted) = (0u64, 0u64);
        let mut min_factor = 1.0f64;
        for (i, &edge) in edges.iter().enumerate() {
            let chan_idx = directed_channel(&self.topo, edge, verts[i]);
            let ch = &self.channels[chan_idx];
            let factor = fs.map_or(1.0, |fs| fs.degrade(edge, now));
            min_factor = min_factor.min(factor);
            let wire_eff = if factor < 1.0 {
                (wire as f64 / factor).ceil() as u64
            } else {
                wire
            };
            // Cut-through: the head cannot enter the link before the
            // link has drained whatever is ahead of it.
            let free = ch.next_free();
            if free > head {
                stall += free.since(head);
            }
            head = head.max_t(free);
            // Occupy the link for our serialization time starting at
            // `head`: the link is busy for [head, head+ser).
            let _ = ch.reserve_from(head, wire_eff);
            if let Some(fs) = fs {
                let (l, c) = fs.sample_link(chan_idx, packets);
                lost += l;
                corrupted += c;
            }
            head += prop;
            if i + 1 < edges.len() {
                // The next vertex is a switch: pay its cut-through
                // latency before the head appears on the next link.
                head += hop;
            }
        }
        if let Some(tr) = sim.tracer() {
            tr.add("fabric.messages", 1);
            tr.add("fabric.wire_bytes", wire * edges.len() as u64);
            if !stall.is_zero() {
                tr.add("fabric.contention_stalls", 1);
                tr.observe("fabric.stall_ps", stall.as_ps());
            }
        }
        // Cut-through still pays serialization once; a degraded link on
        // the path throttles the whole pipeline to its rate.
        let ser_eff = if min_factor < 1.0 {
            ser.scale(1.0 / min_factor)
        } else {
            ser
        };
        (head + ser_eff, lost, corrupted)
    }

    /// One wire attempt under the active fault plan: like
    /// [`Fabric::deliver_at`], but the path may cross outage windows
    /// (→ [`WireOutcome::LinkDown`], or an adaptive detour when
    /// `adaptive` — the Elan behaviour), links may be degraded
    /// (serialization stretched by the reciprocal of the factor), and
    /// each MTU packet is drawn against the loss/corruption rates.
    ///
    /// Without an active plan this is exactly `deliver_at` — same
    /// reservations, same timing, zero extra work.
    ///
    /// Modelling notes: outage/degradation windows are evaluated at
    /// the attempt's start time (windows are µs–ms, message flight
    /// times ns–µs, so the head never straddles a window edge in
    /// practice), and a `LinkDown` attempt reserves nothing — the
    /// message never entered the fabric.
    pub fn deliver_attempt(
        &self,
        sim: &Sim,
        src: usize,
        dst: usize,
        bytes: u64,
        adaptive: bool,
    ) -> WireOutcome {
        let fs = match &self.faults {
            Some(fs) => fs,
            None => {
                return WireOutcome::Delivered {
                    arrives: self.deliver_at(sim, src, dst, bytes),
                    lost: 0,
                    corrupted: 0,
                    hops: self.routes.hops(src, dst),
                    rerouted: false,
                }
            }
        };
        assert_ne!(src, dst, "fabric loopback is handled above the NIC");
        let now = sim.now();

        let path = self.static_path(src, dst);
        let mut verts: &[usize] = &path.0;
        let mut edges: &[usize] = &path.1;
        let detour_path: (Vec<usize>, Vec<usize>);
        let mut rerouted = false;
        let down_until = edges
            .iter()
            .filter_map(|&e| fs.link_down(e, now))
            .fold(None::<SimTime>, |acc, t| {
                Some(acc.map_or(t, |a| a.max_t(t)))
            });
        if let Some(until) = down_until {
            let detour = if adaptive {
                self.routes
                    .path_avoiding(&self.topo, src, dst, &|e| fs.link_down(e, now).is_some())
            } else {
                None
            };
            match detour {
                Some((v, e)) => {
                    fs.note_reroute();
                    if let Some(tr) = sim.tracer() {
                        tr.add("fault.reroutes", 1);
                    }
                    detour_path = (v, e);
                    verts = &detour_path.0;
                    edges = &detour_path.1;
                    rerouted = true;
                }
                None => {
                    fs.note_down_hit();
                    if let Some(tr) = sim.tracer() {
                        tr.add("fault.link_down_hits", 1);
                    }
                    return WireOutcome::LinkDown { until };
                }
            }
        }

        let (arrives, lost, corrupted) = self.walk(sim, verts, edges, bytes, Some(fs));
        WireOutcome::Delivered {
            arrives,
            lost,
            corrupted,
            hops: edges.len() as u32,
            rerouted,
        }
    }

    /// Hop count between endpoints (for latency accounting / tests).
    pub fn hops(&self, src: usize, dst: usize) -> u32 {
        self.routes.hops(src, dst)
    }

    /// Record one 802.1Qbb PFC pause frame on traffic class `prio`
    /// (EXTENSION, RoCEv2 wire signaling).
    pub fn note_pause(&self, prio: usize) {
        self.cong.borrow_mut().pause_frames[prio & 7] += 1;
    }

    /// Record one ECN congestion-experienced mark on traffic class
    /// `prio` (EXTENSION, RoCEv2 wire signaling).
    pub fn note_ecn(&self, prio: usize) {
        self.cong.borrow_mut().ecn_marks[prio & 7] += 1;
    }

    /// End-of-run per-priority pause/ECN totals (all-zero off the RoCE
    /// path).
    pub fn cong_stats(&self) -> CongStats {
        self.cong.borrow().clone()
    }

    /// Total bytes carried over all directed links (stats).
    pub fn total_link_bytes(&self) -> u64 {
        self.channels.iter().map(|c| c.stats().bytes_total).sum()
    }

    /// Bytes carried by each directed channel, indexed `2*edge + dir`.
    pub fn per_link_bytes(&self) -> Vec<u64> {
        self.channels
            .iter()
            .map(|c| c.stats().bytes_total)
            .collect()
    }

    /// Fold this fabric's per-link statistics into the metrics
    /// registry. Called once at end of run (per-link counters are
    /// string-keyed, far too expensive to bump per message); only links
    /// that actually carried traffic get a counter.
    pub fn record_metrics(&self, tr: &elanib_simcore::trace::Tracer) {
        let mut busiest = 0u64;
        for (i, ch) in self.channels.iter().enumerate() {
            let st = ch.stats();
            if st.bytes_total == 0 {
                continue;
            }
            busiest = busiest.max(st.bytes_total);
            tr.add(format!("fabric.link{i}.bytes"), st.bytes_total);
        }
        tr.add(
            "fabric.links_used",
            self.per_link_bytes().iter().filter(|&&b| b > 0).count() as u64,
        );
        tr.gauge("fabric.busiest_link_bytes", busiest as i64);
        // The recovery counters (`fault.reroutes`, `ib.retransmits`, …)
        // are added where each event happens; only the per-packet drop
        // and corruption totals are published here.
        if let Some(fs) = &self.faults {
            let st = fs.stats();
            for (key, v) in [("fault.drops", st.drops), ("fault.corrupts", st.corrupts)] {
                if v > 0 {
                    tr.add(key, v);
                }
            }
        }
        let cong = self.cong.borrow();
        for p in 0..8 {
            if cong.pause_frames[p] > 0 {
                tr.add(format!("roce.prio{p}.pause_frames"), cong.pause_frames[p]);
            }
            if cong.ecn_marks[p] > 0 {
                tr.add(format!("roce.prio{p}.ecn_marks"), cong.ecn_marks[p]);
            }
        }
    }
}

/// Index of the directed channel carrying traffic out of vertex `from`
/// across `edge`.
fn directed_channel(topo: &Topology, edge: usize, from: usize) -> usize {
    let e = topo.edges[edge];
    if topo.vertex_index(e.a) == from {
        2 * edge
    } else {
        debug_assert_eq!(topo.vertex_index(e.b), from);
        2 * edge + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{elan4, infiniband_4x};
    use std::cell::Cell;
    use std::rc::Rc;

    fn ib_crossbar(n: usize) -> Fabric {
        Fabric::new(Topology::single_crossbar(n), infiniband_4x())
    }

    #[test]
    fn small_message_latency_is_hops_plus_serialization() {
        let sim = Sim::new(1);
        let f = ib_crossbar(4);
        let p = f.params;
        let t = f.deliver_at(&sim, 0, 1, 8);
        // 2 cables + 1 switch: serialization once (cut-through),
        // 2 propagations, 1 hop latency.
        let expect = p.link.serialize(8) + p.link.propagation * 2 + p.switch.hop_latency;
        assert_eq!(t, SimTime::ZERO + expect);
    }

    #[test]
    fn large_message_dominated_by_one_serialization() {
        let sim = Sim::new(1);
        let f = Fabric::new(Topology::fat_tree(4, 3, 64), elan4());
        let bytes = 1_000_000;
        let t = f.deliver_at(&sim, 0, 63, bytes);
        let ser = f.params.link.serialize(bytes);
        // 6 hops of pipeline latency are negligible next to 1 MB of
        // serialization: total must be within 1% of one serialization.
        assert!(t.as_secs_f64() < ser.as_secs_f64() * 1.01);
        assert!(t.as_secs_f64() >= ser.as_secs_f64());
    }

    #[test]
    fn contention_serializes_on_shared_link() {
        // Two endpoints under the same leaf both send 1 MB to the same
        // destination: the destination's cable is shared, so the second
        // message finishes a full serialization later.
        let sim = Sim::new(1);
        let f = ib_crossbar(4);
        let t1 = f.deliver_at(&sim, 0, 3, 1_000_000);
        let t2 = f.deliver_at(&sim, 1, 3, 1_000_000);
        let ser = f.params.link.serialize(1_000_000);
        assert!(t2 >= t1 + (ser - Dur::from_ns(1)), "t1={t1:?} t2={t2:?}");
    }

    #[test]
    fn disjoint_paths_do_not_interfere() {
        let sim = Sim::new(1);
        let f = ib_crossbar(8);
        let t1 = f.deliver_at(&sim, 0, 1, 1_000_000);
        let t2 = f.deliver_at(&sim, 2, 3, 1_000_000);
        assert_eq!(t1, t2);
    }

    #[test]
    fn delivery_usable_from_tasks() {
        let sim = Sim::new(1);
        let f = Rc::new(ib_crossbar(2));
        let done = Rc::new(Cell::new(false));
        let (ff, s, d) = (f.clone(), sim.clone(), done.clone());
        sim.spawn("sender", async move {
            let at = ff.deliver_at(&s, 0, 1, 4096);
            s.sleep_until(at).await;
            assert!(s.now() > SimTime::ZERO);
            d.set(true);
        });
        sim.run().unwrap();
        assert!(done.get());
    }

    #[test]
    fn attempt_without_plan_matches_deliver_at() {
        let sim = Sim::new(1);
        let a = ib_crossbar(4);
        let b = ib_crossbar(4);
        let direct = a.deliver_at(&sim, 0, 1, 4096);
        match b.deliver_attempt(&sim, 0, 1, 4096, false) {
            WireOutcome::Delivered {
                arrives,
                lost,
                corrupted,
                hops,
                rerouted,
            } => {
                assert_eq!(arrives, direct);
                assert_eq!((lost, corrupted), (0, 0));
                assert_eq!(hops, 2);
                assert!(!rerouted);
            }
            WireOutcome::LinkDown { .. } => panic!("no plan, no outage"),
        }
        assert_eq!(b.per_link_bytes(), a.per_link_bytes());
        assert_eq!(b.fault_stats(), crate::faults::FaultStats::default());
    }

    #[test]
    fn outage_blocks_static_route_without_adaptivity() {
        use crate::faults::FaultPlan;
        use std::sync::Arc;
        let sim = Sim::new(1);
        let base = Fabric::new(Topology::fat_tree(12, 2, 16), infiniband_4x());
        let dead = base.routes().path(0, 15)[1];
        let plan = FaultPlan::parse(&format!("outage=link{dead}@0+1ms")).unwrap();
        let f = Fabric::with_faults(
            Topology::fat_tree(12, 2, 16),
            infiniband_4x(),
            Some(Arc::new(plan)),
        );
        match f.deliver_attempt(&sim, 0, 15, 4096, false) {
            WireOutcome::LinkDown { until } => {
                assert_eq!(until, SimTime::ZERO + Dur::from_ms(1));
            }
            WireOutcome::Delivered { .. } => panic!("static route must hit the outage"),
        }
        // A blocked attempt reserves nothing.
        assert_eq!(f.total_link_bytes(), 0);
        assert_eq!(f.fault_stats().down_hits, 1);
    }

    #[test]
    fn adaptive_attempt_reroutes_around_outage() {
        use crate::faults::FaultPlan;
        use std::sync::Arc;
        let sim = Sim::new(1);
        let base = Fabric::new(Topology::fat_tree(4, 3, 16), elan4());
        let dead = base.routes().path(0, 15)[1];
        let plan = FaultPlan::parse(&format!("outage=link{dead}@0+1ms")).unwrap();
        let f = Fabric::with_faults(Topology::fat_tree(4, 3, 16), elan4(), Some(Arc::new(plan)));
        let expected_hops = f.hops(0, 15);
        match f.deliver_attempt(&sim, 0, 15, 4096, true) {
            WireOutcome::Delivered { rerouted, hops, .. } => {
                assert!(rerouted);
                // Fat-tree up-phase has equal-cost siblings: the
                // detour keeps the hop count.
                assert_eq!(hops, expected_hops);
            }
            WireOutcome::LinkDown { .. } => panic!("adaptive routing must detour"),
        }
        // The dead edge carried nothing in either direction.
        let per_link = f.per_link_bytes();
        assert_eq!(per_link[2 * dead] + per_link[2 * dead + 1], 0);
        assert_eq!(f.fault_stats().reroutes, 1);
    }

    #[test]
    fn outage_boundary_at_exact_packet_timestamps() {
        use crate::faults::FaultPlan;
        use std::cell::RefCell;
        use std::sync::Arc;
        // A packet attempted at *exactly* the window start is down; one
        // at exactly the end sails through ([start, end) is
        // end-exclusive). Probed from simulation tasks so the attempt
        // really happens at those clock values.
        let base = ib_crossbar(4);
        let dead = base.routes().path(0, 1)[0];
        let plan = FaultPlan::parse(&format!("outage=link{dead}@100us+100us")).unwrap();
        let f = Rc::new(Fabric::with_faults(
            Topology::single_crossbar(4),
            infiniband_4x(),
            Some(Arc::new(plan)),
        ));
        let sim = Sim::new(1);
        let outcomes = Rc::new(RefCell::new(Vec::new()));
        for us in [99u64, 100, 199, 200] {
            let (ff, s, out) = (f.clone(), sim.clone(), outcomes.clone());
            sim.spawn(format!("probe{us}"), async move {
                s.sleep(Dur::from_us(us)).await;
                let down = matches!(
                    ff.deliver_attempt(&s, 0, 1, 64, false),
                    WireOutcome::LinkDown { .. }
                );
                out.borrow_mut().push((us, down));
            });
        }
        sim.run().unwrap();
        let o = outcomes.borrow();
        assert!(o.contains(&(99, false)), "{o:?}");
        assert!(o.contains(&(100, true)), "window start is inclusive: {o:?}");
        assert!(o.contains(&(199, true)), "{o:?}");
        assert!(o.contains(&(200, false)), "window end is exclusive: {o:?}");
    }

    #[test]
    fn zero_length_messages_still_face_crc_corruption() {
        use crate::faults::FaultPlan;
        use std::sync::Arc;
        // A zero-byte message still travels as one header packet, so
        // the CRC process must get a draw at it — with corrupt=1 every
        // such packet corrupts on every link of the path.
        let sim = Sim::new(1);
        let plan = FaultPlan::parse("corrupt=1, seed=2").unwrap();
        let f = Fabric::with_faults(
            Topology::single_crossbar(4),
            infiniband_4x(),
            Some(Arc::new(plan)),
        );
        match f.deliver_attempt(&sim, 0, 1, 0, false) {
            WireOutcome::Delivered {
                lost, corrupted, ..
            } => {
                assert_eq!(lost, 0);
                assert!(corrupted >= 1, "one packet minimum, all corrupted");
                assert_eq!(f.fault_stats().corrupts, corrupted);
            }
            WireOutcome::LinkDown { .. } => panic!("corruption is not an outage"),
        }
    }

    #[test]
    fn degraded_link_stretches_serialization() {
        use crate::faults::FaultPlan;
        use std::sync::Arc;
        let sim = Sim::new(1);
        let clean = ib_crossbar(4);
        let plan = FaultPlan::parse("degrade=link0@0+1s*0.5").unwrap();
        let slow = Fabric::with_faults(
            Topology::single_crossbar(4),
            infiniband_4x(),
            Some(Arc::new(plan)),
        );
        let t_clean = clean.deliver_at(&sim, 0, 1, 1_000_000);
        let t_slow = match slow.deliver_attempt(&sim, 0, 1, 1_000_000, false) {
            WireOutcome::Delivered { arrives, .. } => arrives,
            WireOutcome::LinkDown { .. } => panic!("degrade is not an outage"),
        };
        let ser = clean.params.link.serialize(1_000_000);
        // Half rate on the first cable throttles the pipeline: one
        // extra serialization time, give or take fixed latencies.
        assert!(
            t_slow >= t_clean + (ser - Dur::from_us(1)),
            "{t_clean:?} vs {t_slow:?}"
        );
    }

    #[test]
    fn lossy_plan_draws_are_counted() {
        use crate::faults::FaultPlan;
        use std::sync::Arc;
        let sim = Sim::new(1);
        let plan = FaultPlan::parse("loss=0.5, seed=3").unwrap();
        let f = Fabric::with_faults(
            Topology::single_crossbar(4),
            infiniband_4x(),
            Some(Arc::new(plan)),
        );
        let (mut lost_total, mut corrupted_total) = (0u64, 0u64);
        for _ in 0..100 {
            match f.deliver_attempt(&sim, 0, 1, 2048, false) {
                WireOutcome::Delivered {
                    lost, corrupted, ..
                } => {
                    lost_total += lost;
                    corrupted_total += corrupted;
                }
                WireOutcome::LinkDown { .. } => unreachable!(),
            }
        }
        // 100 messages × 1 packet × 2 links at p=0.5 — some must drop.
        assert!(lost_total > 50, "lost {lost_total}");
        assert_eq!(corrupted_total, 0);
        assert_eq!(f.fault_stats().drops, lost_total);
    }

    #[test]
    fn elan_delivers_faster_than_ib() {
        let sim = Sim::new(1);
        let ib = Fabric::new(Topology::fat_tree(12, 2, 32), infiniband_4x());
        let elan = Fabric::new(Topology::fat_tree(4, 3, 32), elan4());
        for bytes in [8u64, 1024, 65536, 1_000_000] {
            let t_ib = ib.deliver_at(&sim, 0, 31, bytes);
            let t_el = elan.deliver_at(&sim, 0, 31, bytes);
            assert!(t_el < t_ib, "bytes={bytes}: elan {t_el:?} vs ib {t_ib:?}");
        }
    }
}
