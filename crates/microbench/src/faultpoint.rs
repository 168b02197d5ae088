//! Fault-injected micro-benchmarks for the `faults` exhibit.
//!
//! The paper's §3.1 reliability argument in numbers: Quadrics detects
//! and retries a bad packet in the *link layer* (microseconds, per
//! packet), while InfiniBand's RC transport recovers end-to-end at ACK
//! -timeout granularity (hundreds of microseconds, whole message).
//! Under the same injected fault plan the two stacks therefore diverge
//! qualitatively: Elan degrades smoothly, IB latency cliffs — and past
//! `retry_cnt` the IB QP errors out entirely.
//!
//! Both points here run a *fault-configured* cluster built through
//! `with_config`, then read the fabric's fault counters back out. A
//! run that dies (IB QP error, Elan dead link, or a deadlock induced
//! by the fault plan) is caught and reported as a failed point with
//! `latency_us = -1.0` rather than killing the whole sweep.

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::Arc;

use elanib_fabric::{FaultPlan, FaultStats};
use elanib_mpi::tports::ElanWorld;
use elanib_mpi::verbs::IbWorld;
use elanib_mpi::{empty, recv, send, Communicator, NetConfig, Network, RankProgram};
use elanib_simcore::Sim;

/// One fault-injected measurement.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultPoint {
    pub bytes: u64,
    /// One-way latency (ping-pong) or total stream time in µs;
    /// `-1.0` when the run failed.
    pub latency_us: f64,
    /// Packets dropped by the injected plan.
    pub drops: u64,
    /// Recovery actions: IB whole-message retransmits, or Elan
    /// per-packet link-level retries — *not* comparable magnitudes,
    /// which is the point.
    pub retries: u64,
    /// Adaptive reroutes around downed links (Elan only; IB's static
    /// routes cannot detour).
    pub reroutes: u64,
    /// Outage windows waited out on a path with no detour.
    pub outage_waits: u64,
    /// The run panicked (QP error, dead link) or deadlocked.
    pub failed: bool,
}

impl elanib_core::simcache::CacheValue for FaultPoint {
    fn encode(&self) -> Vec<u8> {
        use elanib_core::simcache::{put_f64, put_u64};
        let mut b = Vec::with_capacity(56);
        put_u64(&mut b, self.bytes);
        put_f64(&mut b, self.latency_us);
        put_u64(&mut b, self.drops);
        put_u64(&mut b, self.retries);
        put_u64(&mut b, self.reroutes);
        put_u64(&mut b, self.outage_waits);
        put_u64(&mut b, self.failed as u64);
        b
    }

    fn decode(mut bytes: &[u8]) -> Option<Self> {
        use elanib_core::simcache::{take_f64, take_u64};
        let p = FaultPoint {
            bytes: take_u64(&mut bytes)?,
            latency_us: take_f64(&mut bytes)?,
            drops: take_u64(&mut bytes)?,
            retries: take_u64(&mut bytes)?,
            reroutes: take_u64(&mut bytes)?,
            outage_waits: take_u64(&mut bytes)?,
            failed: take_u64(&mut bytes)? != 0,
        };
        bytes.is_empty().then_some(p)
    }
}

/// Run `program` on a fault-configured cluster; returns the final
/// simulated time in µs (`None` on panic or deadlock) plus the
/// fabric's fault counters. The panic path is the *expected* outcome
/// for aggressive plans — IB surfaces exhausted retries as a typed QP
/// error, Elan surfaces a persistently dead link — so it is caught
/// here and turned into data.
fn run_faulty<P: RankProgram>(
    network: Network,
    nodes: usize,
    seed: u64,
    cfg: &NetConfig,
    program: P,
) -> (Option<f64>, FaultStats) {
    let sim = Sim::new(seed);
    match network {
        Network::InfiniBand | Network::RoceV2(_) => {
            let w = match network {
                Network::RoceV2(mode) => {
                    let rp = cfg
                        .roce
                        .unwrap_or_else(|| elanib_mpi::RoceParams::for_mode(mode));
                    IbWorld::with_config_roce(&sim, nodes, 1, cfg, rp)
                }
                _ => IbWorld::with_config(&sim, nodes, 1, cfg),
            };
            w.spawn_ranks("faultpt", move |c| program.clone().run(c));
            let t = catch_unwind(AssertUnwindSafe(|| sim.run()))
                .ok()
                .and_then(|r| r.ok())
                .map(|t| t.as_ps() as f64 / 1e6);
            (t, w.net.fabric.fault_stats())
        }
        Network::Elan4 => {
            let w = ElanWorld::with_config(&sim, nodes, 1, cfg);
            w.spawn_ranks("faultpt", move |c| program.clone().run(c));
            let t = catch_unwind(AssertUnwindSafe(|| sim.run()))
                .ok()
                .and_then(|r| r.ok())
                .map(|t| t.as_ps() as f64 / 1e6);
            (t, w.net.fabric.fault_stats())
        }
    }
}

fn cfg_with(plan: &Arc<FaultPlan>) -> NetConfig {
    NetConfig {
        faults: Some(plan.clone()),
        ..NetConfig::default()
    }
}

fn point_from(bytes: u64, network: Network, latency_us: Option<f64>, st: FaultStats) -> FaultPoint {
    FaultPoint {
        bytes,
        latency_us: latency_us.unwrap_or(-1.0),
        drops: st.drops,
        retries: match network {
            // RoCE rides the same verbs transport: drops surface as
            // IB-style retransmits.
            Network::InfiniBand | Network::RoceV2(_) => st.ib_retransmits,
            Network::Elan4 => st.elan_link_retries,
        },
        reroutes: st.reroutes,
        outage_waits: st.outage_waits,
        failed: latency_us.is_none(),
    }
}

#[derive(Clone)]
struct FaultPingPong {
    bytes: u64,
    iters: u32,
    out_us: Rc<Cell<f64>>,
}

impl RankProgram for FaultPingPong {
    #[allow(clippy::manual_async_fn)]
    fn run<C: Communicator>(self, c: C) -> impl std::future::Future<Output = ()> + 'static {
        async move {
            let sim = c.sim();
            if c.rank() == 0 {
                let t0 = sim.now();
                for _ in 0..self.iters {
                    send(&c, 1, 1, empty(), self.bytes).await;
                    let _ = recv(&c, Some(1), Some(2)).await;
                }
                let total = sim.now().since(t0).as_us_f64();
                self.out_us.set(total / (2.0 * self.iters as f64));
            } else if c.rank() == 1 {
                for _ in 0..self.iters {
                    let _ = recv(&c, Some(0), Some(1)).await;
                    send(&c, 0, 2, empty(), self.bytes).await;
                }
            }
        }
    }
}

/// Ping-pong under an injected fault plan: mean one-way latency over
/// `iters` exchanges (no warm-up discard — under faults every exchange
/// is a sample of the recovery path).
pub fn fault_pingpong(
    network: Network,
    bytes: u64,
    iters: u32,
    plan: &Arc<FaultPlan>,
) -> FaultPoint {
    elanib_core::simcache::get_or_compute("mb.faultpp", &(network, bytes, iters, &**plan), || {
        let out = Rc::new(Cell::new(-1.0));
        let (t, st) = run_faulty(
            network,
            2,
            5,
            &cfg_with(plan),
            FaultPingPong {
                bytes,
                iters,
                out_us: out.clone(),
            },
        );
        // The per-exchange mean is the figure of merit; the run's
        // end time only gates success.
        point_from(bytes, network, t.map(|_| out.get()), st)
    })
}

#[derive(Clone)]
struct FaultStream {
    bytes: u64,
    msgs: u32,
    last: usize,
    out_us: Rc<Cell<f64>>,
}

impl RankProgram for FaultStream {
    #[allow(clippy::manual_async_fn)]
    fn run<C: Communicator>(self, c: C) -> impl std::future::Future<Output = ()> + 'static {
        async move {
            let sim = c.sim();
            if c.rank() == 0 {
                for _ in 0..self.msgs {
                    send(&c, self.last, 1, empty(), self.bytes).await;
                }
                let _ = recv(&c, Some(self.last), Some(2)).await;
                self.out_us.set(sim.now().as_us_f64());
            } else if c.rank() == self.last {
                for _ in 0..self.msgs {
                    let _ = recv(&c, Some(0), Some(1)).await;
                }
                send(&c, 0, 2, empty(), 8).await;
            }
        }
    }
}

/// Stream `msgs` messages across the full diameter of a 16-node fabric
/// (rank 0 → rank 15) under an injected plan, acknowledged once at the
/// end. With a link-outage plan on the static route this is where the
/// architectures split: Elan's adaptive routing detours around the
/// downed link, IB's static route stalls on timeout-paced retransmits.
pub fn outage_stream(network: Network, msgs: u32, bytes: u64, plan: &Arc<FaultPlan>) -> FaultPoint {
    elanib_core::simcache::get_or_compute(
        "mb.faultstream",
        &(network, msgs, bytes, &**plan),
        || {
            let nodes = 16;
            let out = Rc::new(Cell::new(-1.0));
            let (t, st) = run_faulty(
                network,
                nodes,
                5,
                &cfg_with(plan),
                FaultStream {
                    bytes,
                    msgs,
                    last: nodes - 1,
                    out_us: out.clone(),
                },
            );
            point_from(bytes, network, t.map(|_| out.get()), st)
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(spec: &str) -> Arc<FaultPlan> {
        Arc::new(FaultPlan::parse(spec).unwrap())
    }

    #[test]
    fn zero_rate_plan_matches_clean_pingpong() {
        // An all-zero plan is filtered to "no faults" at fabric build;
        // the numbers must equal the unfaulted benchmark exactly.
        for net in Network::BOTH {
            let clean = crate::pingpong(net, 4096, 20).latency_us;
            let p = fault_pingpong(net, 4096, 20, &plan("loss=0,seed=9"));
            assert!(!p.failed);
            assert_eq!(p.latency_us, clean, "{net}");
            assert_eq!(p.drops + p.retries + p.reroutes, 0);
        }
    }

    #[test]
    fn loss_slows_ib_more_than_elan() {
        // 2% per-packet loss: every IB recovery is a >=100 µs timeout,
        // every Elan recovery a ~µs link retry.
        let pl = plan("loss=0.02,seed=7");
        let ib = fault_pingpong(Network::InfiniBand, 4096, 30, &pl);
        let el = fault_pingpong(Network::Elan4, 4096, 30, &pl);
        assert!(!el.failed);
        let ib_clean = crate::pingpong(Network::InfiniBand, 4096, 30).latency_us;
        let el_clean = crate::pingpong(Network::Elan4, 4096, 30).latency_us;
        let el_added = el.latency_us - el_clean;
        assert!(
            (0.0..5.0).contains(&el_added),
            "Elan degrades by microseconds: +{el_added} µs"
        );
        if ib.failed {
            // Retry exhaustion is a legitimate (and telling) outcome.
            assert!(ib.retries > 0);
        } else {
            let ib_added = ib.latency_us - ib_clean;
            assert!(
                ib_added > 10.0 * el_added.max(0.1),
                "IB cliffs at timeout granularity: +{ib_added} µs vs elan +{el_added} µs"
            );
        }
    }

    #[test]
    fn outage_stream_is_deterministic() {
        let pl = plan("outage=link4@100us+1ms,seed=3");
        elanib_core::simcache::set_override(Some(elanib_core::simcache::Mode::Off));
        let a = outage_stream(Network::Elan4, 20, 65536, &pl);
        let b = outage_stream(Network::Elan4, 20, 65536, &pl);
        elanib_core::simcache::set_override(None);
        assert_eq!(a, b);
        assert!(!a.failed);
    }
}
