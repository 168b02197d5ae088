//! Scenario execution and invariant checking.
//!
//! [`check_scenario`] runs one generated [`Scenario`] through **both**
//! simulated stacks and compares the measured values directly; each
//! violation names its invariant and prints both values:
//!
//! * **byte conservation** — every application byte a rank sends is
//!   received exactly once (faults cost retransmits, never payload),
//!   and the fabric's per-link byte ledger sums to the wire total;
//! * **no deadlock** — both runs complete inside a simulated-time
//!   budget; a blown budget surfaces the typed
//!   [`SimError::ScenarioTimeout`] with the flight-ring tail attached;
//! * **determinism / observer effect** — re-running the same seed,
//!   optionally with a tracer or kernel profiler attached, reproduces
//!   the end time, wire and message totals, application tallies, and
//!   per-link byte vector exactly;
//! * **monotone degradation** — adding packet loss/corruption to an
//!   otherwise identical scenario never *materially* shortens
//!   completion (a calibrated slack absorbs the genuine
//!   unexpected-queue timing effect), and — on window-free plans —
//!   never reduces total wire traffic, with zero slack;
//! * **paper ordering** — on clean, default-threshold, small-message
//!   points, Elan-4 completes no later than InfiniBand (the paper's
//!   §4 small-message claim as a predicate over generated points).

use std::cell::Cell;
use std::rc::Rc;

use elanib_core::panic_message;
use elanib_fabric::FaultPlan;
use elanib_mpi::collectives::{allreduce, Op};
use elanib_mpi::{
    empty, irecv, isend, run_scenario_on, waitall, Communicator, JobSpec, NetConfig, Network,
    RankProgram, ScenarioRun,
};
use elanib_simcore::trace::Tracer;
use elanib_simcore::{Dur, KernelProfiler, Sim, SimError, SimTime};

use crate::scenario::Scenario;

/// Deliberate harness defects for mutation-testing the fuzzer itself:
/// a fuzzer whose invariants cannot catch a planted bug is decoration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mutation {
    /// Miscount one sent byte on the IB side — the conservation
    /// invariant must flag it and the shrinker must minimize it.
    Conservation,
}

impl Mutation {
    pub fn parse(name: &str) -> Result<Mutation, String> {
        match name {
            "conservation" => Ok(Mutation::Conservation),
            other => Err(format!("unknown mutation {other:?}")),
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Mutation::Conservation => "conservation",
        }
    }
}

/// Harness options shared by a whole batch.
#[derive(Clone, Copy, Debug, Default)]
pub struct FuzzOpts {
    /// Active harness mutation, if any.
    pub mutate: Option<Mutation>,
}

/// Per-run simulated-time budget: generous against the microsecond
/// scale of generated scenarios, tight against a livelock.
pub fn default_budget() -> Dur {
    Dur::from_secs(1)
}

/// The outcome of checking one scenario: empty `violations` means
/// every invariant held.
#[derive(Clone, Debug)]
pub struct ScenarioReport {
    pub scenario: Scenario,
    pub violations: Vec<String>,
    /// Set when the scenario landed on a *specified* failure mode
    /// instead of a result — the bounded IB retry budget erroring out
    /// under heavy loss (the faults exhibit's `QP-ERR` rows). Such
    /// scenarios are skipped, not failed: the model behaved exactly as
    /// documented.
    pub skipped: Option<String>,
}

impl ScenarioReport {
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

// ---------------------------------------------------------------------------
// Workload
// ---------------------------------------------------------------------------

/// The generated workload: every rank posts all its ring-exchange
/// receives, sends one message per configured size to its successor,
/// tallies the bytes that actually arrive, and finishes with an
/// allreduce so the collective path runs under the same faults.
#[derive(Clone)]
struct ExchangeProgram {
    sizes: Rc<Vec<u64>>,
    sent: Rc<Cell<u64>>,
    recvd: Rc<Cell<u64>>,
}

impl RankProgram for ExchangeProgram {
    #[allow(clippy::manual_async_fn)]
    fn run<C: Communicator>(self, c: C) -> impl std::future::Future<Output = ()> + 'static {
        async move {
            let n = c.size();
            let me = c.rank();
            let from = (me + n - 1) % n;
            let to = (me + 1) % n;
            let mut recvs = Vec::with_capacity(self.sizes.len());
            for (i, _) in self.sizes.iter().enumerate() {
                recvs.push(irecv(&c, Some(from), Some(i as i64)).await);
            }
            let mut sends = Vec::with_capacity(self.sizes.len());
            for (i, &b) in self.sizes.iter().enumerate() {
                self.sent.set(self.sent.get() + b);
                sends.push(isend(&c, to, i as i64, empty(), b).await);
            }
            for m in waitall(&c, recvs).await.into_iter().flatten() {
                self.recvd.set(self.recvd.get() + m.bytes);
            }
            waitall(&c, sends).await;
            allreduce(&c, Op::Sum, &[1.0]).await;
        }
    }
}

/// One measured run: application tallies plus the kernel-level
/// counters the invariants compare.
struct Measured {
    run: ScenarioRun,
    sent: u64,
    recvd: u64,
}

/// Where a replay departs from its base run: one `name: base, replay`
/// entry per differing field, empty when the replay reproduced the run
/// exactly.
fn replay_diffs(base: &Measured, replay: &Measured) -> Vec<String> {
    let (b, r) = (&base.run, &replay.run);
    let fields = [
        ("end ps", b.end.as_ps(), r.end.as_ps()),
        ("wire bytes", b.stats.wire_bytes, r.stats.wire_bytes),
        ("NIC messages", b.stats.nic_messages, r.stats.nic_messages),
        ("unexpected", b.stats.unexpected, r.stats.unexpected),
        ("sent", base.sent, replay.sent),
        ("received", base.recvd, replay.recvd),
        (
            "links",
            b.link_bytes.len() as u64,
            r.link_bytes.len() as u64,
        ),
    ];
    let links = b.link_bytes.iter().zip(&r.link_bytes).enumerate();
    fields
        .into_iter()
        .filter(|(_, x, y)| x != y)
        .map(|(name, x, y)| format!("{name}: base {x}, replay {y}"))
        .chain(
            links
                .filter(|(_, (x, y))| x != y)
                .map(|(i, (x, y))| format!("link {i} bytes: base {x}, replay {y}")),
        )
        .collect()
}

fn net_config(sc: &Scenario, faults: &FaultPlan) -> NetConfig {
    let mut cfg = NetConfig::default();
    cfg.verbs.eager_threshold = sc.eager_ib;
    cfg.elan.eager_threshold = sc.eager_elan;
    if !faults.is_effectless() {
        cfg.faults = Some(std::sync::Arc::new(faults.clone()));
    }
    cfg
}

/// Run the workload on `net`, on a caller-built kernel.
fn run_on(
    sim: &Sim,
    sc: &Scenario,
    net: Network,
    faults: &FaultPlan,
    budget: Dur,
) -> Result<Measured, SimError> {
    let sent = Rc::new(Cell::new(0));
    let recvd = Rc::new(Cell::new(0));
    let program = ExchangeProgram {
        sizes: Rc::new(sc.msg_sizes.clone()),
        sent: sent.clone(),
        recvd: recvd.clone(),
    };
    let spec = JobSpec {
        network: net,
        nodes: sc.nodes,
        ppn: sc.ppn,
        seed: sc.seed,
    };
    let run = run_scenario_on(
        sim,
        spec,
        &net_config(sc, faults),
        Some(SimTime::ZERO + budget),
        program,
    )?;
    Ok(Measured {
        run,
        sent: sent.get(),
        recvd: recvd.get(),
    })
}

/// One run's outcome, with the *specified* failure modes separated
/// from invariant-relevant errors.
enum RunOutcome {
    Ok(Measured),
    /// Typed kernel error: deadlock or blown simulated-time budget.
    Err(SimError),
    /// The IB QP's bounded retry budget errored out — documented
    /// behavior under heavy loss (`QP-ERR` in the faults exhibit), not
    /// an invariant violation. Carries the panic message.
    QpError(String),
}

/// Run with panics classified: a QP retry-exhaustion panic becomes
/// [`RunOutcome::QpError`]; anything else is a genuine model bug and
/// resumes unwinding (the batch driver's panic isolation retains it).
fn run_caught(
    sim: &Sim,
    sc: &Scenario,
    net: Network,
    faults: &FaultPlan,
    budget: Dur,
) -> RunOutcome {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_on(sim, sc, net, faults, budget)
    })) {
        Ok(Ok(m)) => RunOutcome::Ok(m),
        Ok(Err(e)) => RunOutcome::Err(e),
        Err(p) => {
            let msg = panic_message(&*p);
            if is_qp_error(&msg) {
                RunOutcome::QpError(msg)
            } else {
                std::panic::resume_unwind(p)
            }
        }
    }
}

/// Is `panic_msg` the IB QP's bounded-retry exhaustion — the specified
/// `QP-ERR` outcome under heavy loss, not a model bug?
pub fn is_qp_error(panic_msg: &str) -> bool {
    panic_msg.contains("retry_cnt exhausted")
}

fn run_plain(sc: &Scenario, net: Network, faults: &FaultPlan, budget: Dur) -> RunOutcome {
    run_caught(&Sim::new(sc.seed), sc, net, faults, budget)
}

// ---------------------------------------------------------------------------
// The check
// ---------------------------------------------------------------------------

/// How much earlier a faulty run may finish than its clean twin before
/// `monotone-degradation` fires. The slack is real model physics, not
/// hand-waving: a retry-delayed eager message can arrive after its
/// receive is posted instead of before, skipping the unexpected-queue
/// copy — the same receiver-side overhead the paper measures — so
/// small runs legitimately finish several percent earlier under light
/// loss (calibrated max over 5k generated scenarios: 6.9%). 15%
/// absorbs that with 2x headroom; a genuine "faults speed things up"
/// inversion scales with the loss rate and lands an order of magnitude
/// higher — and the exact wire-bytes ladder backstops the byte domain
/// with zero slack.
const DEGRADATION_SLACK: f64 = 0.15;

/// Does this scenario qualify as a paper-ordering comparison point?
/// Only clean, default-threshold, all-eager-regime runs are claims the
/// paper actually makes; everything else is out of contract.
fn ordering_qualified(sc: &Scenario) -> bool {
    // The §4 claim is about *native* InfiniBand; a RoCE-backed verbs
    // side is out of contract (Ethernet framing alone shifts it).
    sc.roce.is_none()
        && sc.faults.is_effectless()
        && sc.eager_ib == 1024
        && sc.eager_elan == 4096
        && !sc.msg_sizes.is_empty()
        && sc.msg_sizes.iter().all(|&b| (1..=1024).contains(&b))
}

/// Run every invariant against one scenario. Never panics on a
/// *violation* — those come back as data — but does propagate panics
/// from genuinely broken model code (the batch driver isolates those).
pub fn check_scenario(sc: &Scenario, opts: &FuzzOpts) -> ScenarioReport {
    check_within(sc, opts, default_budget())
}

/// [`check_scenario`] with each run's simulated time capped at `budget`.
fn check_within(sc: &Scenario, opts: &FuzzOpts, budget: Dur) -> ScenarioReport {
    let report = |violations, skipped| ScenarioReport {
        scenario: sc.clone(),
        violations,
        skipped,
    };
    let mut violations = Vec::new();

    // The verbs-side network honors the scenario's backend draw:
    // native IB, or RoCEv2 under the drawn CC mode (same world, same
    // QP-ERR contract — the CC layer only paces injections).
    let verbs_net = sc.roce.map(Network::RoceV2).unwrap_or(Network::InfiniBand);
    let nets = [("ib", verbs_net), ("elan", Network::Elan4)];

    // Base runs on both stacks. A typed error (deadlock or blown
    // budget) is itself a no-deadlock violation, diagnostics included;
    // a QP retry-exhaustion is a specified outcome and skips the
    // scenario.
    let mut base = Vec::with_capacity(nets.len());
    for (_, net) in nets {
        match run_plain(sc, net, &sc.faults, budget) {
            RunOutcome::Ok(m) => base.push(m),
            RunOutcome::Err(e) => {
                violations.push(format!("invariant `no-deadlock` broken on {net}: {e}"))
            }
            RunOutcome::QpError(msg) => return report(violations, Some(msg)),
        }
    }
    let [ib, elan] = &base[..] else {
        return report(violations, None);
    };

    // Replay runs, with the scenario's observers attached: tracing and
    // profiling must not perturb a single metric. The base run
    // completed, so a replay that errors — or lands on QP-ERR — has
    // already diverged.
    let replay = |net: Network| -> RunOutcome {
        let sim = if sc.trace {
            Sim::with_tracer(sc.seed, Tracer::forced(sc.seed))
        } else if sc.profile {
            Sim::with_profiler(sc.seed, KernelProfiler::forced())
        } else {
            Sim::new(sc.seed)
        };
        run_caught(&sim, sc, net, &sc.faults, budget)
    };
    let (ib_replay, elan_replay) = match (replay(verbs_net), replay(Network::Elan4)) {
        (RunOutcome::Ok(a), RunOutcome::Ok(b)) => (a, b),
        (a, b) => {
            for ((key, net), r) in nets.into_iter().zip([&a, &b]) {
                match r {
                    RunOutcome::Ok(_) => {}
                    RunOutcome::Err(e) => violations.push(format!(
                        "invariant `determinism-replay-{key}` broken: replay on {net} errored: {e}"
                    )),
                    RunOutcome::QpError(msg) => violations.push(format!(
                        "invariant `determinism-replay-{key}` broken: replay on {net} hit QP-ERR \
                         where the base run completed: {msg}"
                    )),
                }
            }
            return report(violations, None);
        }
    };

    let mut sent_ib = ib.sent;
    if opts.mutate == Some(Mutation::Conservation) {
        // Planted defect: pretend the IB side sent one byte more than
        // it did. The conservation invariant must catch this.
        sent_ib += 1;
    }

    for (key, m, sent, replayed) in [
        ("ib", ib, sent_ib, &ib_replay),
        ("elan", elan, elan.sent, &elan_replay),
    ] {
        if sent != m.recvd {
            violations.push(format!(
                "invariant `byte-conservation-{key}` broken: {sent} B sent, {} B received",
                m.recvd
            ));
        }
        let link_sum: u64 = m.run.link_bytes.iter().sum();
        if m.run.stats.wire_bytes != link_sum {
            violations.push(format!(
                "invariant `link-accounting-{key}` broken: {} wire bytes, links sum to {link_sum}",
                m.run.stats.wire_bytes
            ));
        }
        let diffs = replay_diffs(m, replayed);
        if !diffs.is_empty() {
            violations.push(format!(
                "invariant `determinism-replay-{key}` broken: {}",
                diffs.join("; ")
            ));
        }
    }

    // Monotone degradation: re-run with rates zeroed (windows kept, so
    // the only delta is the loss/corruption process) and demand the
    // clean run is no slower.
    if sc.faults.loss > 0.0 || sc.faults.corrupt > 0.0 {
        let mut clean = sc.faults.clone();
        clean.loss = 0.0;
        clean.corrupt = 0.0;
        match (
            run_plain(sc, verbs_net, &clean, budget),
            run_plain(sc, Network::Elan4, &clean, budget),
        ) {
            (RunOutcome::Ok(ib_clean), RunOutcome::Ok(elan_clean)) => {
                // The wire-bytes ladder is exact, but only on plans with
                // no outage/degrade/stall windows — each makes per-link
                // reservations timing-sensitive. Outages shift reroutes,
                // degrades inflate the reserved wire size, and a receiver
                // stall turns an unlucky arrival into an RNR-NAK
                // retransmit, so on windowed plans a loss-shifted message
                // moves the byte totals in both directions. With
                // loss/corruption alone the accounting is exactly
                // monotone: IB RC re-reserves the whole message per
                // retransmit, Elan link retries cost time but no wire
                // bytes, so `faulty >= clean` holds with zero slack.
                let window_free = sc.faults.outages.is_empty()
                    && sc.faults.degrades.is_empty()
                    && sc.faults.stalls.is_empty();
                for (net, clean, faulty) in [
                    (verbs_net, &ib_clean, ib),
                    (Network::Elan4, &elan_clean, elan),
                ] {
                    let (c, f) = (clean.run.end.as_ps(), faulty.run.end.as_ps());
                    let floor = c as f64 - c as f64 * DEGRADATION_SLACK;
                    if (f as f64) < floor {
                        violations.push(format!(
                            "invariant `monotone-degradation` broken on {net}: ends at {f} ps \
                             with faults, {c} ps with rates zeroed"
                        ));
                    }
                    let (c, f) = (clean.run.stats.wire_bytes, faulty.run.stats.wire_bytes);
                    if window_free && f < c {
                        violations.push(format!(
                            "invariant `monotone-wire-traffic` broken on {net}: {f} wire bytes \
                             with faults, {c} with rates zeroed"
                        ));
                    }
                }
            }
            (a, b) => {
                for (net, r) in [(verbs_net, &a), (Network::Elan4, &b)] {
                    match r {
                        // A clean run that errors is a real violation;
                        // a clean run should never hit QP-ERR (no loss
                        // left to exhaust retries), so that diverging
                        // is one too.
                        RunOutcome::Ok(_) => {}
                        RunOutcome::Err(e) => violations.push(format!(
                            "invariant `monotone-degradation` broken: clean {net} run errored: {e}"
                        )),
                        RunOutcome::QpError(msg) => violations.push(format!(
                            "invariant `monotone-degradation` broken: clean {net} run hit \
                             QP-ERR with rates zeroed: {msg}"
                        )),
                    }
                }
            }
        }
    }

    // Paper ordering, on qualified points only.
    let (ib_end, elan_end) = (ib.run.end.as_ps(), elan.run.end.as_ps());
    if ordering_qualified(sc) && elan_end > ib_end {
        violations.push(format!(
            "invariant `paper-ordering` broken: {} ends at {elan_end} ps, after {verbs_net}'s \
             {ib_end} ps",
            Network::Elan4
        ));
    }

    report(violations, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use elanib_mpi::WorldStats;

    fn tiny_clean() -> Scenario {
        Scenario {
            seed: 5,
            nodes: 4,
            ppn: 1,
            msg_sizes: vec![64, 1024],
            eager_ib: 1024,
            eager_elan: 4096,
            faults: FaultPlan::default(),
            trace: true,
            profile: false,
            shards: 1,
            roce: None,
        }
    }

    #[test]
    fn clean_scenario_satisfies_every_invariant() {
        let rep = check_scenario(&tiny_clean(), &FuzzOpts::default());
        assert!(rep.ok(), "unexpected violations: {:#?}", rep.violations);
    }

    #[test]
    fn roce_backed_scenario_satisfies_every_invariant() {
        // Each CC mode runs the verbs side paced; conservation,
        // replay determinism, and observer-effect checks must all
        // hold on the paced path, faulted and clean.
        use elanib_mpi::RoceMode;
        for (i, mode) in RoceMode::ALL.into_iter().enumerate() {
            let mut sc = tiny_clean();
            sc.seed = 20 + i as u64;
            sc.roce = Some(mode);
            if i == 0 {
                sc.faults.loss = 5e-3;
            }
            let rep = check_scenario(&sc, &FuzzOpts::default());
            assert!(
                rep.ok(),
                "{mode}: unexpected violations: {:#?}",
                rep.violations
            );
        }
    }

    #[test]
    fn faulty_scenario_still_conserves_bytes() {
        let mut sc = tiny_clean();
        sc.seed = 6;
        sc.faults.loss = 1e-2;
        sc.faults.corrupt = 1e-3;
        let rep = check_scenario(&sc, &FuzzOpts::default());
        assert!(rep.ok(), "unexpected violations: {:#?}", rep.violations);
    }

    #[test]
    fn planted_conservation_bug_is_caught() {
        let rep = check_scenario(
            &tiny_clean(),
            &FuzzOpts {
                mutate: Some(Mutation::Conservation),
            },
        );
        assert!(!rep.ok(), "mutation must violate conservation");
        assert!(
            rep.violations
                .iter()
                .any(|v| v.contains("byte-conservation-ib")),
            "wrong violation set: {:#?}",
            rep.violations
        );
    }

    #[test]
    fn blown_budget_reports_a_no_deadlock_violation() {
        let rep = check_within(&tiny_clean(), &FuzzOpts::default(), Dur::from_ps(1));
        assert!(!rep.ok());
        assert!(
            rep.violations.iter().any(|v| v.contains("no-deadlock")),
            "wrong violation set: {:#?}",
            rep.violations
        );
    }

    #[test]
    fn replay_check_sees_divergence_above_bit_31() {
        // Each replay differs from the base run by exactly 2^32 in one
        // field — invisible to any digest folded down to 32 bits.
        let base = || Measured {
            run: ScenarioRun {
                end: SimTime::ZERO + Dur::from_ps(1_234_567),
                stats: WorldStats {
                    wire_bytes: 6_144,
                    nic_messages: 8,
                    unexpected: 2,
                    ..WorldStats::default()
                },
                faults: Default::default(),
                link_bytes: vec![1_024, 2_048, 3_072],
            },
            sent: 4_352,
            recvd: 4_352,
        };
        assert_eq!(replay_diffs(&base(), &base()), Vec::<String>::new());
        let mut late = base();
        late.run.end += Dur::from_ps(1 << 32);
        let mut heavy = base();
        heavy.run.link_bytes[1] += 1 << 32;
        for (field, replay) in [("end ps", late), ("link 1 bytes", heavy)] {
            let diffs = replay_diffs(&base(), &replay);
            assert_eq!(diffs.len(), 1, "{diffs:?}");
            assert!(diffs[0].starts_with(field), "{diffs:?}");
        }
    }
}
