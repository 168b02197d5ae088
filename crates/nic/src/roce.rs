//! RoCEv2 congestion control (EXTENSION, not in the paper).
//!
//! The third backend of the N-way comparison: InfiniBand verbs
//! semantics carried over lossless(ish) Ethernet. The protocol stack
//! reuses the HCA model wholesale ([`crate::hca::IbNet`] — queue
//! pairs, explicit registration, passive inbox); what changes is the
//! wire (10GbE link parameters, `elanib_fabric::roce_ethernet`) and
//! the congestion machinery modelled here. Three seeded-deterministic
//! modes:
//!
//! * **PFC** ([`RoceMode::Pfc`]): 802.1Qbb priority flow control.
//!   When the cross-traffic backlog on a flow's path crosses
//!   [`RoceParams::pause_threshold`], the switch pauses the sender's
//!   traffic class for [`RoceParams::pause_quanta`]. Pause frames
//!   propagate up the tree: every *concurrently paused* endpoint
//!   multiplies the next pause (the pause tree saturating), bounded
//!   by [`RoceParams::storm_cap`] — which is exactly the pause-storm
//!   collapse that makes PFC-only RoCE fall over at scale.
//! * **DCQCN** ([`RoceMode::Dcqcn`]): rate-based ECN. Backlog past
//!   [`RoceParams::ecn_k`] marks the flow congestion-experienced; the
//!   per-QP rate limiter reacts with multiplicative decrease
//!   ([`RoceParams::md_factor`]) and recovers with additive increase
//!   ([`RoceParams::rai`]) — AIMD pacing instead of stop/go.
//! * **Hybrid** ([`RoceMode::Hybrid`]): DCQCN with gentler marking
//!   plus PFC as a rarely-hit backstop (the threshold sits several
//!   times higher) — the deployed-practice configuration, and the one
//!   expected to stay within ~10% of native InfiniBand.
//!
//! Lossy mode ([`RoceParams::lossy`]) drops PFC's lossless guarantee:
//! a seeded per-packet loss plan is installed on the fabric and
//! recovery rides the PR-4 plumbing unchanged —
//! [`crate::transfer::RecoveryPolicy::IbRc`] whole-message retransmit
//! with typed [`crate::transfer::TransportError`]s.
//!
//! Everything here is deterministic: the only randomness is a
//! SplitMix64 stream seeded from [`RoceParams::seed`] (pause-resume
//! jitter), so a given scenario replays byte-identically.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use elanib_fabric::Fabric;
use elanib_simcore::{Dur, FxHashMap, Sim, SimTime};

/// Which congestion-control mode a RoCEv2 network runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RoceMode {
    Pfc,
    Dcqcn,
    Hybrid,
}

impl RoceMode {
    pub const ALL: [RoceMode; 3] = [RoceMode::Pfc, RoceMode::Dcqcn, RoceMode::Hybrid];

    /// Short lowercase label, as used in the fuzz repro files
    /// (`roce = "pfc|dcqcn|hybrid"`) and by `Display`.
    pub fn label(self) -> &'static str {
        match self {
            RoceMode::Pfc => "pfc",
            RoceMode::Dcqcn => "dcqcn",
            RoceMode::Hybrid => "hybrid",
        }
    }

    pub fn parse(s: &str) -> Option<RoceMode> {
        match s {
            "pfc" => Some(RoceMode::Pfc),
            "dcqcn" => Some(RoceMode::Dcqcn),
            "hybrid" => Some(RoceMode::Hybrid),
            _ => None,
        }
    }
}

impl std::fmt::Display for RoceMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Congestion-control calibration for one RoCEv2 network.
#[derive(Clone, Copy, Debug)]
pub struct RoceParams {
    pub mode: RoceMode,
    /// Traffic class (0..8) the pause/ECN wire signals are tagged
    /// with; RDMA traffic conventionally rides priority 3.
    pub priority: usize,
    /// Cross-traffic backlog (drain time) that triggers a PFC pause.
    pub pause_threshold: Dur,
    /// Base pause duration per pause frame (802.1Qbb quanta are
    /// 512-bit times; switches re-arm them continuously, so the
    /// effective unit is tens of microseconds).
    pub pause_quanta: Dur,
    /// Pause-storm bound: the pause multiplier saturates at this many
    /// concurrently active contenders.
    pub storm_cap: u32,
    /// Storm stall divisor: a pause stalls the sender for
    /// `pause_quanta + serialize × m² / storm_softness`, where `m` is
    /// the contender count (≤ `storm_cap`). Quadratic in the storm
    /// width — pause frames propagate through already-paused
    /// neighbours — so narrow fan-ins barely notice while wide incasts
    /// collapse; larger softness tames the backstop variant.
    pub storm_softness: f64,
    /// Cross-traffic backlog that draws an ECN mark (DCQCN's K
    /// threshold, expressed in drain time).
    pub ecn_k: Dur,
    /// Multiplicative decrease applied to a QP's rate per mark.
    pub md_factor: f64,
    /// Additive rate recovery per unmarked post.
    pub rai: f64,
    /// Rate floor — DCQCN never strangles a QP entirely.
    pub min_rate: f64,
    /// `Some(rate)`: drop PFC's lossless guarantee and run the fabric
    /// with seeded per-packet loss at `rate`; recovery is the IB RC
    /// retransmit path (typed errors on exhaustion).
    pub lossy: Option<f64>,
    /// Seed of the deterministic jitter stream.
    pub seed: u64,
}

impl RoceParams {
    /// The calibrated defaults for one mode. PFC is stop/go with the
    /// storm amplifier live; DCQCN marks early and aggressively;
    /// Hybrid marks gently and keeps PFC only as a distant backstop.
    pub fn for_mode(mode: RoceMode) -> RoceParams {
        let base = RoceParams {
            mode,
            priority: 3,
            pause_threshold: Dur::from_us(150),
            // Small base quantum: the damage comes from the storm
            // multiplier compounding quadratically, not from any one
            // pause — a wide incast saturates the multiplier and the
            // per-message stall grows to many serialization times,
            // while narrow fan-ins stay harmless.
            pause_quanta: Dur::from_us(4),
            storm_cap: 32,
            // Offered load under a full-width storm of m senders is
            // roughly m / (1 + m²/softness): ≥1 (link saturated, no
            // collapse) through m≈8, ~0.76 at m=15, ~0.38 at m=31.
            storm_softness: 12.0,
            // DCQCN: K deep enough that a transient burst does not
            // mark (the drain-aware signal must exceed a real switch
            // buffer's worth of cross-traffic), decrease shallow
            // enough and recovery fast enough that the rate tracks the
            // sink horizon instead of overshooting past it.
            ecn_k: Dur::from_us(250),
            md_factor: 0.80,
            rai: 0.15,
            min_rate: 0.10,
            lossy: None,
            seed: 0xD0CE,
        };
        match mode {
            RoceMode::Pfc => base,
            RoceMode::Dcqcn => base,
            RoceMode::Hybrid => RoceParams {
                // Backstop PFC: threshold far above DCQCN's operating
                // point, short quanta, no storm amplification.
                pause_threshold: Dur::from_us(900),
                pause_quanta: Dur::from_us(20),
                storm_cap: 1,
                storm_softness: 64.0,
                // Gentle marking: later threshold, shallower decrease,
                // faster recovery.
                ecn_k: Dur::from_us(400),
                md_factor: 0.90,
                rai: 0.20,
                ..base
            },
        }
    }
}

/// End-of-run congestion-control totals.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RoceCcStats {
    /// PFC pause frames emitted.
    pub pauses: u64,
    /// Largest concurrent-pause multiplier observed (1 = no storm).
    pub storm_peak: u64,
    /// ECN congestion-experienced marks.
    pub marks: u64,
}

/// The per-network congestion-control engine. One instance is shared
/// by every QP of a RoCE [`crate::hca::IbNet`]; `IbNet::post` asks it
/// for an injection delay before every wire message.
///
/// The engine keeps its own deterministic schedule model rather than
/// peeking at fabric channel state: when the MPI layer posts a burst,
/// every post lands at the same instant, *before* any transfer has
/// reserved wire time — channel occupancy is blind to offered load at
/// exactly the moment CC must react. So the engine tracks
///
/// * a per-endpoint **injection gate** ([`RoceCc::gate`]): each
///   message is scheduled no earlier than the previous one's paced
///   finish, which is what lets a single burst-time decision stretch
///   into a sustained rate limit;
/// * a per-endpoint **sink horizon** ([`RoceCc::sink_busy`]): when
///   each endpoint's downlink will drain, given everything any sender
///   has scheduled toward it — the queue depth a real switch's
///   PFC/ECN machinery watches;
///
/// and evaluates the congestion signal at the message's *scheduled*
/// start, so a schedule that has already backed off sees the queue it
/// will actually meet, not the one at post time. That closes the loop:
/// pacing drains the signal, the signal releases the pacing.
pub struct RoceCc {
    pub params: RoceParams,
    /// Per-endpoint injection gate: the next message from endpoint `e`
    /// enters the wire no earlier than `gate[e]`.
    gate: RefCell<Vec<SimTime>>,
    /// Per-endpoint sink-drain horizon: when `e`'s downlink goes idle
    /// given every message scheduled toward it so far.
    sink_busy: RefCell<Vec<SimTime>>,
    /// Per-endpoint PFC pause horizon.
    pause_until: RefCell<Vec<SimTime>>,
    /// Current storm width: *distinct* endpoints that have paused
    /// since the storm began. Sticky — it only resets when a post
    /// starts past [`RoceCc::storm_until`], i.e. after every member's
    /// pause horizon has expired. (Distinctness is tracked by epoch,
    /// not by timestamps: per-endpoint schedule times are not monotone
    /// across endpoints, so a lagging endpoint would look "pre-storm"
    /// forever under any time comparison.)
    storm_level: Cell<u64>,
    /// Storm generation counter; bumped each time a fresh storm seeds.
    storm_epoch: Cell<u64>,
    /// Per-endpoint epoch of the storm it last joined.
    joined: RefCell<Vec<u64>>,
    /// Storm liveness horizon (ps): one full pause cycle past the
    /// latest pause. Not merely the latest pause *end*: the schedule
    /// front-runner's next post always starts just past its own pause
    /// end (end + one serialization time), so a storm whose horizon
    /// were the max end would be "over" every time its fastest member
    /// posted. The horizon must outlive a member's whole next cycle.
    storm_until: Cell<u64>,
    /// Per-endpoint own-injection horizon: the time until which the
    /// endpoint's *own* scheduled bytes keep links busy. Sink backlog
    /// beyond this is cross-traffic — the congestion signal.
    /// (Self-queueing behind your own burst is not congestion.)
    own_horizon: RefCell<Vec<SimTime>>,
    /// Per-QP `(src endpoint, dst endpoint)` DCQCN rate, in (0, 1].
    rates: RefCell<FxHashMap<(usize, usize), f64>>,
    pauses: Cell<u64>,
    storm_peak: Cell<u64>,
    marks: Cell<u64>,
    /// SplitMix64 jitter stream state.
    rng: Cell<u64>,
}

impl RoceCc {
    pub fn new(params: RoceParams, n_endpoints: usize) -> Rc<RoceCc> {
        Rc::new(RoceCc {
            params,
            gate: RefCell::new(vec![SimTime::ZERO; n_endpoints]),
            sink_busy: RefCell::new(vec![SimTime::ZERO; n_endpoints]),
            pause_until: RefCell::new(vec![SimTime::ZERO; n_endpoints]),
            storm_level: Cell::new(0),
            storm_epoch: Cell::new(0),
            joined: RefCell::new(vec![0; n_endpoints]),
            storm_until: Cell::new(0),
            own_horizon: RefCell::new(vec![SimTime::ZERO; n_endpoints]),
            rates: RefCell::new(FxHashMap::default()),
            pauses: Cell::new(0),
            storm_peak: Cell::new(0),
            marks: Cell::new(0),
            rng: Cell::new(params.seed),
        })
    }

    pub fn stats(&self) -> RoceCcStats {
        RoceCcStats {
            pauses: self.pauses.get(),
            storm_peak: self.storm_peak.get(),
            marks: self.marks.get(),
        }
    }

    /// Next jitter sample in `[0, cap_ps)` — SplitMix64, so the
    /// sequence is a pure function of [`RoceParams::seed`].
    fn next_jitter_ps(&self, cap_ps: u64) -> u64 {
        let mut z = self.rng.get().wrapping_add(0x9E37_79B9_7F4A_7C15);
        self.rng.set(z);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        if cap_ps == 0 {
            0
        } else {
            z % cap_ps
        }
    }

    /// Injection delay for one wire message from `src_ep` to `dst_ep`
    /// of `bytes`, given the fabric's state right now. Called by
    /// [`crate::hca::IbNet::post`] before launching the transfer; the
    /// returned delay shifts the message's fabric entry, which is what
    /// turns pause frames and rate limiting into wire idle time.
    pub fn tx_delay(
        &self,
        sim: &Sim,
        fabric: &Fabric,
        src_ep: usize,
        dst_ep: usize,
        bytes: u64,
    ) -> Dur {
        if src_ep == dst_ep {
            return Dur::ZERO; // loopback never reaches the wire
        }
        let now = sim.now();
        let ser = fabric.params.link.serialize(bytes.max(16));
        let p = &self.params;

        // Earliest injection: behind everything this endpoint already
        // has scheduled (line rate is a hard ceiling even with no CC).
        let mut start = {
            let g = self.gate.borrow();
            if g[src_ep] > now {
                g[src_ep]
            } else {
                now
            }
        };

        // Congestion signal, evaluated at the *scheduled* start: how
        // long the sink's downlink will still be backed up when this
        // message enters the wire, minus what this endpoint's own
        // scheduled bytes explain.
        let backlog = {
            let sb = self.sink_busy.borrow();
            if sb[dst_ep] > start {
                sb[dst_ep].since(start)
            } else {
                Dur::ZERO
            }
        };
        let own = {
            let oh = self.own_horizon.borrow();
            if oh[src_ep] > start {
                oh[src_ep].since(start)
            } else {
                Dur::ZERO
            }
        };
        let signal = Dur::from_ps(backlog.as_ps().saturating_sub(own.as_ps()));

        // PFC: Pfc mode always, Hybrid as its high-threshold backstop.
        if matches!(p.mode, RoceMode::Pfc | RoceMode::Hybrid) {
            let mut pu = self.pause_until.borrow_mut();
            let cap = p.storm_cap as u64;
            let start_ps = start.since(SimTime::ZERO).as_ps();
            // A storm ends only when a post starts past every member's
            // pause horizon; until then its width is *sticky*.
            if start_ps > self.storm_until.get() {
                self.storm_level.set(0);
            }
            // A queue over threshold *seeds* a storm; an existing
            // multi-member storm *sustains itself* — pause frames keep
            // propagating between paused switches even after the
            // original queue would have drained (the hysteresis that
            // makes PFC-only collapse at scale, and the reason the
            // queue signal alone cannot end a wide storm). The
            // single-member backstop (`storm_cap == 1`, Hybrid) stays
            // strictly queue-driven.
            let in_storm = cap > 1 && self.storm_level.get() >= 2;
            if signal > p.pause_threshold || in_storm {
                // Distinct-membership ramp: an endpoint joins a given
                // storm at most once. Distinct counting is what makes
                // the multiplier a *width* signal — a narrow fan-in
                // can pause every cycle and still never push it past
                // its own sender count.
                if self.storm_level.get() == 0 {
                    self.storm_epoch.set(self.storm_epoch.get() + 1);
                }
                let mut joined = self.joined.borrow_mut();
                if joined[src_ep] != self.storm_epoch.get() {
                    joined[src_ep] = self.storm_epoch.get();
                    self.storm_level.set(self.storm_level.get() + 1);
                }
                let mult = self.storm_level.get().min(cap).max(1);
                if mult > self.storm_peak.get() {
                    self.storm_peak.set(mult);
                }
                fabric.note_pause(p.priority);
                self.pauses.set(self.pauses.get() + 1);
                if let Some(tr) = sim.tracer() {
                    tr.add("roce.pause_frames", 1);
                }
                // Deterministic resume jitter de-synchronizes the
                // post-pause burst (real switches re-arm pause frames
                // asynchronously).
                let jitter = Dur::from_ps(self.next_jitter_ps(p.pause_quanta.as_ps() / 8));
                let storm = Dur::from_ps(
                    (ser.as_ps() as f64 * (mult * mult) as f64 / p.storm_softness) as u64,
                );
                pu[src_ep] = start + p.pause_quanta + storm + jitter;
                // Keep the storm alive through a member's entire next
                // cycle: stall, then the message itself, then the next
                // stall it will take on arrival.
                let live_until =
                    start_ps + 2 * (p.pause_quanta.as_ps() + storm.as_ps()) + ser.as_ps();
                if live_until > self.storm_until.get() {
                    self.storm_until.set(live_until);
                }
            }
            if pu[src_ep] > start {
                start = pu[src_ep];
            }
        }

        // DCQCN: Dcqcn mode and Hybrid (gentler constants). The gate
        // advance below stretches this message's wire occupancy to
        // `ser / rate` — AIMD pacing instead of stop/go.
        let mut rate = 1.0;
        if matches!(p.mode, RoceMode::Dcqcn | RoceMode::Hybrid) {
            let mut rates = self.rates.borrow_mut();
            let r = rates.entry((src_ep, dst_ep)).or_insert(1.0);
            if signal > p.ecn_k {
                fabric.note_ecn(p.priority);
                self.marks.set(self.marks.get() + 1);
                if let Some(tr) = sim.tracer() {
                    tr.add("roce.ecn_marks", 1);
                }
                *r = (*r * p.md_factor).max(p.min_rate);
            } else {
                *r = (*r + p.rai).min(1.0);
            }
            rate = *r;
        }

        // Commit the schedule: this message occupies [start, start+ser]
        // on its own uplink and the sink's downlink; the gate holds the
        // *next* message back by the paced occupancy.
        let paced = Dur::from_ps((ser.as_ps() as f64 / rate) as u64);
        self.gate.borrow_mut()[src_ep] = start + paced;
        {
            let mut oh = self.own_horizon.borrow_mut();
            let from = if oh[src_ep] > start {
                oh[src_ep]
            } else {
                start
            };
            oh[src_ep] = from + ser;
        }
        {
            let mut sb = self.sink_busy.borrow_mut();
            let from = if sb[dst_ep] > start {
                sb[dst_ep]
            } else {
                start
            };
            sb[dst_ep] = from + ser;
        }
        start.since(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elanib_fabric::{roce_ethernet, Topology};

    fn fabric(n: usize) -> Fabric {
        Fabric::new(Topology::single_crossbar(n), roce_ethernet())
    }

    #[test]
    fn uncongested_flow_pays_only_line_rate_spacing() {
        // A lone flow is never paused or marked; its only delay is the
        // injection gate holding a same-instant burst to line rate —
        // message k starts exactly k serialization times in.
        let sim = Sim::new(1);
        let f = fabric(4);
        let cc = RoceCc::new(RoceParams::for_mode(RoceMode::Pfc), 4);
        let ser = f.params.link.serialize(65_536);
        for k in 0..10u64 {
            assert_eq!(cc.tx_delay(&sim, &f, 0, 1, 65_536), ser * k);
        }
        assert_eq!(cc.stats(), RoceCcStats::default());
        assert_eq!(f.cong_stats().total_pauses(), 0);
    }

    #[test]
    fn own_backlog_is_not_congestion() {
        // A single sender saturating its own sink must never draw a
        // mark: the sink backlog is fully explained by the
        // own-injection horizon, so DCQCN keeps the rate at 1 and the
        // spacing stays exactly one serialization time.
        let sim = Sim::new(1);
        let f = fabric(2);
        let cc = RoceCc::new(RoceParams::for_mode(RoceMode::Dcqcn), 2);
        let ser = f.params.link.serialize(1_000_000);
        let mut prev = Dur::ZERO;
        for k in 0..50 {
            let d = cc.tx_delay(&sim, &f, 0, 1, 1_000_000);
            if k > 0 {
                assert_eq!(
                    Dur::from_ps(d.as_ps() - prev.as_ps()),
                    ser,
                    "spacing must stay line-rate"
                );
            }
            prev = d;
        }
        assert_eq!(cc.stats().marks, 0);
    }

    #[test]
    fn cross_traffic_draws_marks_and_throttles() {
        // Two senders incast into endpoint 2: each sees the other's
        // scheduled bytes as cross-traffic once the shared sink backs
        // up, and pacing stretches the schedule past plain line rate.
        let sim = Sim::new(1);
        let f = fabric(3);
        let cc = RoceCc::new(RoceParams::for_mode(RoceMode::Dcqcn), 3);
        let ser = f.params.link.serialize(1_000_000);
        let mut last = Dur::ZERO;
        for _ in 0..40 {
            for src in 0..2 {
                let d = cc.tx_delay(&sim, &f, src, 2, 1_000_000);
                if d > last {
                    last = d;
                }
            }
        }
        assert!(cc.stats().marks > 0, "{:?}", cc.stats());
        // 40 messages per sender at line rate would finish the
        // schedule at 39×ser; pacing must push well past that.
        assert!(last > ser * 45, "paced schedule {last:?} vs ser {ser:?}");
        assert_eq!(f.cong_stats().ecn_marks[3], cc.stats().marks);
    }

    #[test]
    fn pause_storm_amplifies_with_concurrent_pauses() {
        let sim = Sim::new(1);
        let f = fabric(17);
        let cc = RoceCc::new(RoceParams::for_mode(RoceMode::Pfc), 17);
        // 16 senders incast into endpoint 16.
        for _ in 0..30 {
            for src in 0..16 {
                cc.tx_delay(&sim, &f, src, 16, 1_000_000);
            }
        }
        let st = cc.stats();
        assert!(st.pauses > 0);
        assert!(st.storm_peak > 4, "pause tree must saturate: {st:?}");
        assert_eq!(f.cong_stats().pause_frames[3], st.pauses);
    }

    #[test]
    fn storm_stalls_compound_with_fan_in() {
        // The PFC collapse mechanism: the same per-sender offered load
        // takes disproportionately longer to schedule at 16-wide
        // fan-in than at 4-wide, because the pause multiplier
        // compounds. (Ratio of schedule horizons, normalized by the
        // extra senders.)
        let sim = Sim::new(1);
        let horizon = |senders: usize| -> f64 {
            let f = fabric(senders + 1);
            let cc = RoceCc::new(RoceParams::for_mode(RoceMode::Pfc), senders + 1);
            let mut last = Dur::ZERO;
            for _ in 0..12 {
                for src in 0..senders {
                    let d = cc.tx_delay(&sim, &f, src, senders, 1_000_000);
                    if d > last {
                        last = d;
                    }
                }
            }
            last.as_ps() as f64
        };
        let narrow = horizon(4) / 4.0;
        let wide = horizon(16) / 16.0;
        assert!(
            wide > narrow * 2.0,
            "per-sender stall must compound: narrow {narrow} wide {wide}"
        );
    }

    #[test]
    fn jitter_stream_is_seeded_deterministic() {
        let a = RoceCc::new(RoceParams::for_mode(RoceMode::Pfc), 2);
        let b = RoceCc::new(RoceParams::for_mode(RoceMode::Pfc), 2);
        let sa: Vec<u64> = (0..16).map(|_| a.next_jitter_ps(1_000_000)).collect();
        let sb: Vec<u64> = (0..16).map(|_| b.next_jitter_ps(1_000_000)).collect();
        assert_eq!(sa, sb);
        let c = RoceCc::new(
            RoceParams {
                seed: 7,
                ..RoceParams::for_mode(RoceMode::Pfc)
            },
            2,
        );
        let sc: Vec<u64> = (0..16).map(|_| c.next_jitter_ps(1_000_000)).collect();
        assert_ne!(sa, sc);
    }

    #[test]
    fn mode_labels_roundtrip() {
        for m in RoceMode::ALL {
            assert_eq!(RoceMode::parse(m.label()), Some(m));
        }
        assert_eq!(RoceMode::parse("nope"), None);
    }
}
