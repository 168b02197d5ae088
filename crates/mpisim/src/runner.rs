//! Network-generic job launcher: run the same rank program on either
//! network and get the final simulated time back.
//!
//! [`run_job`]-family launches run under a fixed in-kernel watchdog of
//! 10 000 simulated seconds, and `ELANIB_BACKEND` (parsed by
//! [`parse_backend`]) can force every launch onto one network.

use elanib_fabric::FaultStats;
use elanib_nic::{ElanParams, HcaParams, RoceMode, RoceParams};
use elanib_nodesim::NodeParams;
use elanib_simcore::{Dur, Sim, SimError, SimTime};

use crate::tports::{ElanWorld, TportsMpiParams};
use crate::verbs::{IbWorld, VerbsParams};
use crate::Communicator;

/// Which interconnect a job runs on.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Network {
    InfiniBand,
    Elan4,
    /// EXTENSION: RoCEv2 over lossless-configured 10GbE, one variant
    /// per congestion-control mode. Same MVAPICH software stack as
    /// [`Network::InfiniBand`]; the fabric and the CC engine differ.
    RoceV2(RoceMode),
}

impl Network {
    pub fn label(self) -> &'static str {
        match self {
            Network::InfiniBand => "4X InfiniBand",
            Network::Elan4 => "Quadrics Elan-4",
            Network::RoceV2(RoceMode::Pfc) => "RoCEv2/pfc",
            Network::RoceV2(RoceMode::Dcqcn) => "RoCEv2/dcqcn",
            Network::RoceV2(RoceMode::Hybrid) => "RoCEv2/hybrid",
        }
    }

    /// The paper's two study networks — every committed exhibit
    /// iterates exactly these.
    pub const BOTH: [Network; 2] = [Network::InfiniBand, Network::Elan4];

    /// Every modelled interconnect, including the RoCEv2 extension
    /// modes (the CI backend matrix and the fuzzer draw from here).
    pub const ALL: [Network; 5] = [
        Network::InfiniBand,
        Network::Elan4,
        Network::RoceV2(RoceMode::Pfc),
        Network::RoceV2(RoceMode::Dcqcn),
        Network::RoceV2(RoceMode::Hybrid),
    ];

    /// The registry name of this network (the `ELANIB_BACKEND` names).
    pub fn name(self) -> &'static str {
        match self {
            Network::InfiniBand => "hca",
            Network::Elan4 => "elan",
            Network::RoceV2(RoceMode::Pfc) => "roce-pfc",
            Network::RoceV2(RoceMode::Dcqcn) => "roce-dcqcn",
            Network::RoceV2(RoceMode::Hybrid) => "roce-hybrid",
        }
    }

    /// Parse a registry name, trimmed and case-insensitive;
    /// `ib`/`infiniband` alias `hca`, `elan4`/`quadrics` alias `elan`,
    /// and a bare `roce` means the hybrid (deployed-practice) mode.
    pub fn parse(s: &str) -> Option<Network> {
        match s.trim().to_ascii_lowercase().as_str() {
            "hca" | "ib" | "infiniband" => Some(Network::InfiniBand),
            "elan" | "elan4" | "quadrics" => Some(Network::Elan4),
            "roce" | "roce-hybrid" => Some(Network::RoceV2(RoceMode::Hybrid)),
            "roce-pfc" => Some(Network::RoceV2(RoceMode::Pfc)),
            "roce-dcqcn" => Some(Network::RoceV2(RoceMode::Dcqcn)),
            _ => None,
        }
    }
}

impl std::fmt::Display for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A rank program that can run over any [`Communicator`]. Cloned once
/// per rank.
pub trait RankProgram: Clone + 'static {
    fn run<C: Communicator>(self, c: C) -> impl std::future::Future<Output = ()> + 'static;
}

/// Job description shared by every experiment in the reproduction.
#[derive(Clone, Copy, Debug)]
pub struct JobSpec {
    pub network: Network,
    pub nodes: usize,
    pub ppn: usize,
    /// Run key of the trace and metrics sinks (see [`Sim::new`]); it
    /// changes no simulated value.
    pub seed: u64,
}

impl JobSpec {
    pub fn n_ranks(&self) -> usize {
        self.nodes * self.ppn
    }
}

/// Every tunable of both stacks in one bundle — the handle the
/// ablation studies turn.
#[derive(Clone, Debug, Default)]
pub struct NetConfig {
    pub node: NodeParams,
    pub hca: HcaParams,
    pub verbs: VerbsParams,
    pub elan: ElanParams,
    pub tports: TportsMpiParams,
    /// Deterministic fault-injection plan threaded down to the fabric.
    /// `None` falls back to the `ELANIB_FAULTS` environment plan (or
    /// no faults at all) — the hot path stays untouched either way.
    pub faults: Option<std::sync::Arc<elanib_fabric::FaultPlan>>,
    /// RoCEv2 congestion-control override. `None` (the default) means
    /// a [`Network::RoceV2`] job runs on [`RoceParams::for_mode`] of
    /// its mode; ignored entirely by the two paper networks.
    pub roce: Option<RoceParams>,
}

/// Run `program` on every rank of a fresh cluster; returns the final
/// simulated time (all ranks and all in-flight hardware activity
/// complete). Panics on deadlock — a deadlock in an experiment is a
/// bug, not a result.
pub fn run_job<P: RankProgram>(spec: JobSpec, program: P) -> SimTime {
    run_job_configured(spec, &NetConfig::default(), program)
}

/// In-kernel simulated-time watchdog for [`run_job`]-family launches.
/// A runaway simulation (livelock, a fault plan that never lets a
/// retransmit through) ends as a typed [`SimError::ScenarioTimeout`]
/// with the flight-ring tail attached instead of spinning; the
/// script-level `ELANIB_REGEN_TIMEOUT` stays as the outer backstop.
/// 10 000 simulated seconds is orders of magnitude past any committed
/// exhibit, so the fixed results never feel it.
const JOB_BUDGET_SECS: u64 = 10_000;

/// [`run_job`] with explicit stack parameters (ablations, sweeps).
pub fn run_job_configured<P: RankProgram>(spec: JobSpec, cfg: &NetConfig, program: P) -> SimTime {
    let budget = SimTime::ZERO + Dur::from_secs(JOB_BUDGET_SECS);
    match run_scenario(spec, cfg, Some(budget), program) {
        Ok(run) => run.end,
        Err(e @ SimError::Deadlock { .. }) => panic!("{} job deadlocked: {e}", spec.network),
        Err(e) => panic!("{} job failed: {e}", spec.network),
    }
}

/// One completed scenario run: the final clock plus every end-of-run
/// counter the fuzzer's cross-cutting invariants read.
#[derive(Clone, Debug)]
pub struct ScenarioRun {
    /// Final simulated time (all ranks and hardware activity done).
    pub end: SimTime,
    /// Whole-world traffic and software-event totals.
    pub stats: crate::WorldStats,
    /// Fault-injection and recovery totals from the fabric.
    pub faults: FaultStats,
    /// Per-link byte totals, in link order — the determinism invariant
    /// compares these byte-for-byte across traced/profiled and
    /// cold/warm-cache replays.
    pub link_bytes: Vec<u64>,
}

/// Programmatic scenario entry point for the property fuzzer:
/// identical cluster construction to [`run_job_configured`], but a
/// deadlock — or a blown simulated-time `budget` — comes back as a
/// typed `Err(SimError)` instead of a panic, so a fuzz batch can treat
/// failures as data, shrink them, and replay them.
pub fn run_scenario<P: RankProgram>(
    spec: JobSpec,
    cfg: &NetConfig,
    budget: Option<SimTime>,
    program: P,
) -> Result<ScenarioRun, SimError> {
    run_scenario_on(&Sim::new(spec.seed), spec, cfg, budget, program)
}

/// `ELANIB_BACKEND`: force every scenario onto one backend by registry
/// name (`hca`/`ib`, `elan`, `roce`, `roce-pfc`, `roce-dcqcn`,
/// `roce-hybrid`) regardless of what the harness asked for. This is
/// the CI backend-matrix hook: the same exhibit binary re-runs under
/// each backend without recompilation.
fn backend_override(spec: JobSpec) -> JobSpec {
    apply_backend(spec, std::env::var("ELANIB_BACKEND").ok().as_deref())
}

/// Parse an `ELANIB_BACKEND` value: unset is no override, a registry
/// name is that network, anything else is an error naming the
/// variable, the value and the known names.
pub fn parse_backend(name: Option<&str>) -> Result<Option<Network>, String> {
    match name {
        None => Ok(None),
        Some(name) => Network::parse(name).map(Some).ok_or_else(|| {
            format!(
                "ELANIB_BACKEND={name:?} is not a backend; known: {}",
                Network::ALL.map(Network::name).join(", ")
            )
        }),
    }
}

fn apply_backend(spec: JobSpec, name: Option<&str>) -> JobSpec {
    match parse_backend(name).unwrap_or_else(|e| panic!("{e}")) {
        Some(network) => JobSpec { network, ..spec },
        None => spec,
    }
}

/// [`run_scenario`] on a caller-built kernel — the hook for harnesses
/// that pin a tracer or profiler regardless of environment
/// ([`Sim::with_tracer`] / [`Sim::with_profiler`]): the fuzzer's
/// observer-effect invariant re-runs a scenario with telemetry
/// attached and demands byte-identical metrics. `spec.seed` is not
/// read here: the run key is whatever the caller built `sim` with.
pub fn run_scenario_on<P: RankProgram>(
    sim: &Sim,
    spec: JobSpec,
    cfg: &NetConfig,
    budget: Option<SimTime>,
    program: P,
) -> Result<ScenarioRun, SimError> {
    let spec = backend_override(spec);
    if let Some(tr) = sim.tracer() {
        tr.set_label(format!(
            "{} {}n x {}ppn",
            spec.network, spec.nodes, spec.ppn
        ));
    }
    let drive = |sim: &Sim| match budget {
        Some(b) => sim.run_until_budget(b),
        None => sim.run(),
    };
    match spec.network {
        Network::InfiniBand | Network::RoceV2(_) => {
            let w = match spec.network {
                Network::RoceV2(mode) => {
                    let rp = cfg.roce.unwrap_or_else(|| RoceParams::for_mode(mode));
                    IbWorld::with_config_roce(sim, spec.nodes, spec.ppn, cfg, rp)
                }
                _ => IbWorld::with_config(sim, spec.nodes, spec.ppn, cfg),
            };
            w.spawn_ranks("job", move |c| program.clone().run(c));
            let end = drive(sim)?;
            if let Some(tr) = sim.tracer() {
                record_world_metrics(tr, &w.stats());
                w.net.fabric.record_metrics(tr);
            }
            Ok(ScenarioRun {
                end,
                stats: w.stats(),
                faults: w.net.fabric.fault_stats(),
                link_bytes: w.net.fabric.per_link_bytes(),
            })
        }
        Network::Elan4 => {
            let w = ElanWorld::with_config(sim, spec.nodes, spec.ppn, cfg);
            w.spawn_ranks("job", move |c| program.clone().run(c));
            let end = drive(sim)?;
            if let Some(tr) = sim.tracer() {
                record_world_metrics(tr, &w.stats());
                w.net.fabric.record_metrics(tr);
            }
            Ok(ScenarioRun {
                end,
                stats: w.stats(),
                faults: w.net.fabric.fault_stats(),
                link_bytes: w.net.fabric.per_link_bytes(),
            })
        }
    }
}

/// Fold end-of-run [`crate::WorldStats`] into the metrics registry.
/// Live per-event counters cover the software path; these cover
/// whole-world hardware totals that are cheapest to read once at the
/// end (fabric byte counts, NIC work-request totals, regcache state).
fn record_world_metrics(tr: &elanib_simcore::trace::Tracer, st: &crate::WorldStats) {
    tr.add("world.wire_bytes", st.wire_bytes);
    tr.add("world.nic_messages", st.nic_messages);
    tr.add("world.unexpected", st.unexpected);
    tr.add("world.reg_hits", st.reg_hits);
    tr.add("world.reg_misses", st.reg_misses);
    tr.add("world.reg_evictions", st.reg_evictions);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collectives::{allreduce, Op};
    use std::cell::Cell;
    use std::rc::Rc;

    #[derive(Clone)]
    struct SumProgram {
        out: Rc<Cell<f64>>,
    }

    impl RankProgram for SumProgram {
        #[allow(clippy::manual_async_fn)]
        fn run<C: Communicator>(self, c: C) -> impl std::future::Future<Output = ()> + 'static {
            async move {
                let v = allreduce(&c, Op::Sum, &[1.0]).await;
                if c.rank() == 0 {
                    self.out.set(v[0]);
                }
            }
        }
    }

    #[test]
    fn run_scenario_returns_counters_on_success() {
        for net in Network::ALL {
            let out = Rc::new(Cell::new(0.0));
            let run = run_scenario(
                JobSpec {
                    network: net,
                    nodes: 4,
                    ppn: 1,
                    seed: 2,
                },
                &NetConfig::default(),
                Some(SimTime::ZERO + Dur::from_secs(1)),
                SumProgram { out: out.clone() },
            )
            .expect("scenario completes well under budget");
            assert_eq!(out.get(), 4.0);
            assert!(run.end > SimTime::ZERO);
            assert!(run.stats.wire_bytes > 0, "allreduce moved bytes");
            assert_eq!(run.faults, FaultStats::default(), "no plan, no faults");
            assert_eq!(
                run.link_bytes.iter().sum::<u64>(),
                run.stats.wire_bytes,
                "per-link bytes account for the wire total"
            );
        }
    }

    #[test]
    fn run_scenario_reports_blown_budget_as_typed_error() {
        let out = Rc::new(Cell::new(0.0));
        let err = run_scenario(
            JobSpec {
                network: Network::InfiniBand,
                nodes: 4,
                ppn: 1,
                seed: 2,
            },
            &NetConfig::default(),
            // One picosecond of simulated time: nothing real finishes.
            Some(SimTime::ZERO + Dur::from_ps(1)),
            SumProgram { out },
        )
        .expect_err("budget must blow");
        assert!(
            matches!(err, SimError::ScenarioTimeout { .. }),
            "expected timeout, got {err:?}"
        );
    }

    #[test]
    fn run_job_on_every_roce_mode() {
        for mode in RoceMode::ALL {
            let out = Rc::new(Cell::new(0.0));
            let t = run_job(
                JobSpec {
                    network: Network::RoceV2(mode),
                    nodes: 4,
                    ppn: 2,
                    seed: 1,
                },
                SumProgram { out: out.clone() },
            );
            assert_eq!(out.get(), 8.0, "{mode} allreduce result");
            assert!(t > SimTime::ZERO);
        }
    }

    #[test]
    fn backend_override_maps_registry_names_onto_networks() {
        let spec = JobSpec {
            network: Network::InfiniBand,
            nodes: 2,
            ppn: 1,
            seed: 0,
        };
        assert_eq!(apply_backend(spec, None).network, Network::InfiniBand);
        // Round trip: every modelled network survives its own name.
        for net in Network::ALL {
            assert_eq!(Network::parse(net.name()), Some(net));
            assert_eq!(apply_backend(spec, Some(net.name())).network, net);
        }
        for (alias, net) in [
            ("ib", Network::InfiniBand),
            ("InfiniBand", Network::InfiniBand),
            (" hca ", Network::InfiniBand),
            ("elan4", Network::Elan4),
            ("QUADRICS", Network::Elan4),
            ("roce", Network::RoceV2(RoceMode::Hybrid)),
            ("Roce-PFC", Network::RoceV2(RoceMode::Pfc)),
        ] {
            assert_eq!(apply_backend(spec, Some(alias)).network, net, "{alias:?}");
        }
        assert_eq!(Network::parse("myrinet"), None);
        let err = std::panic::catch_unwind(|| apply_backend(spec, Some("myrinet")))
            .expect_err("an unknown backend name must be refused");
        assert_eq!(
            panic_text(&*err),
            "ELANIB_BACKEND=\"myrinet\" is not a backend; known: \
             hca, elan, roce-pfc, roce-dcqcn, roce-hybrid"
        );
    }

    /// Rank 0 sends one 4 KiB message to rank 1.
    #[derive(Clone)]
    struct OneSend;

    impl RankProgram for OneSend {
        #[allow(clippy::manual_async_fn)]
        fn run<C: Communicator>(self, c: C) -> impl std::future::Future<Output = ()> + 'static {
            async move {
                if c.rank() == 0 {
                    crate::send(&c, 1, 1, crate::empty(), 4096).await;
                } else {
                    let _ = crate::recv(&c, Some(0), Some(1)).await;
                }
            }
        }
    }

    fn panic_text(p: &(dyn std::any::Any + Send)) -> String {
        p.downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default()
    }

    /// A persistently dead path is never silent: the verbs family
    /// (IB and every RoCE mode) exhausts `retry_cnt` and the MPI layer
    /// raises the QP error, while Elan's link layer absorbs any loss
    /// rate and only declares the link dead once an outage covers
    /// every route past its retry limit. Each family gets the plan
    /// that actually kills it; the run must panic, never return `Ok`,
    /// a deadlock or a blown budget.
    #[test]
    fn dead_path_fails_loudly_on_every_network() {
        use elanib_fabric::faults::Outage;
        use elanib_fabric::FaultPlan;
        use std::sync::Arc;

        let loss = Arc::new(FaultPlan::parse("loss=1,seed=3").unwrap());
        // Back-to-back 100 µs windows on every link (out-of-range
        // indices are inert): each cleared window the NIC waits out is
        // one link retry, and 70 > the 64-wait limit.
        let outages = (0..32)
            .flat_map(|link| {
                (0..70u64).map(move |w| Outage {
                    link,
                    start: Dur::from_us(100 * w),
                    dur: Dur::from_us(100),
                })
            })
            .collect();
        let all_down = Arc::new(FaultPlan {
            seed: 3,
            outages,
            ..FaultPlan::default()
        });
        for net in Network::ALL {
            let (plan, expect): (_, &[&str]) = match net {
                Network::Elan4 => (&all_down, &["link dead"]),
                _ => (&loss, &["QP error", "retry_cnt exhausted"]),
            };
            let cfg = NetConfig {
                faults: Some(plan.clone()),
                ..NetConfig::default()
            };
            let spec = JobSpec {
                network: net,
                nodes: 2,
                ppn: 1,
                seed: 15,
            };
            let budget = Some(SimTime::ZERO + Dur::from_secs(1));
            let run = std::panic::catch_unwind(|| {
                run_scenario(spec, &cfg, budget, OneSend).map(|r| r.end)
            });
            let msg = match run {
                Err(p) => panic_text(&*p),
                Ok(r) => panic!("{net}: dead path did not fail loudly: {r:?}"),
            };
            for want in expect {
                assert!(msg.contains(want), "{net}: {msg:?} lacks {want:?}");
            }
        }
    }

    /// Every rank sends `rounds` 8 KiB messages to its right neighbour
    /// and receives as many from its left one.
    #[derive(Clone)]
    struct Ring {
        rounds: u32,
    }

    impl RankProgram for Ring {
        #[allow(clippy::manual_async_fn)]
        fn run<C: Communicator>(self, c: C) -> impl std::future::Future<Output = ()> + 'static {
            async move {
                let n = c.size();
                let (right, left) = ((c.rank() + 1) % n, (c.rank() + n - 1) % n);
                for _ in 0..self.rounds {
                    crate::sendrecv(&c, right, 1, crate::empty(), 8192, left, 1).await;
                }
            }
        }
    }

    /// A traced faulty run counts each recovery event once: the
    /// tracer's counters equal the fabric's [`FaultStats`]. The outage
    /// sits on a switch-to-switch link of the 8-node tree, so Elan's
    /// adaptive routing detours around it.
    #[test]
    fn traced_fault_counters_equal_fault_stats() {
        let plan = "loss=2e-2,corrupt=1e-2,outage=link11@0us+50us,seed=5";
        let cfg = NetConfig {
            faults: Some(elanib_fabric::FaultPlan::parse(plan).unwrap().into()),
            ..NetConfig::default()
        };
        for network in Network::BOTH {
            let tr = elanib_simcore::trace::Tracer::forced(4);
            let sim = Sim::with_tracer(4, tr.clone());
            let spec = JobSpec {
                network,
                nodes: 8,
                ppn: 1,
                seed: 4,
            };
            let st = run_scenario_on(&sim, spec, &cfg, None, Ring { rounds: 16 })
                .unwrap()
                .faults;
            let recovered = match network {
                Network::Elan4 => st.elan_link_retries.min(st.reroutes),
                _ => st.ib_retransmits,
            };
            assert!(recovered > 0, "{network}: no recovery to count: {st:?}");
            for (key, v) in [
                ("fault.drops", st.drops),
                ("fault.corrupts", st.corrupts),
                ("fault.reroutes", st.reroutes),
                ("fault.link_down_hits", st.down_hits),
                ("fault.outage_waits", st.outage_waits),
                ("ib.retransmits", st.ib_retransmits),
                ("ib.rnr_naks", st.rnr_naks),
                ("ib.qp_errors", st.qp_errors),
                ("elan.link_retries", st.elan_link_retries),
            ] {
                assert_eq!(tr.counter(key), v, "{network}: {key}");
            }
        }
    }

    #[test]
    fn run_job_on_both_networks() {
        for net in Network::BOTH {
            let out = Rc::new(Cell::new(0.0));
            let t = run_job(
                JobSpec {
                    network: net,
                    nodes: 4,
                    ppn: 2,
                    seed: 1,
                },
                SumProgram { out: out.clone() },
            );
            assert_eq!(out.get(), 8.0);
            assert!(t > SimTime::ZERO);
        }
    }
}
