//! What one pass of each workload runs, and the checks on its outputs.
//!
//! Untraced passes call the exhibit code as the regenerators do
//! (`cg_figure_table`, `md_figure_table`, the Figure 1 sweeps, a
//! panic-isolated fuzz sweep). The traced pass and the CG verification
//! pass run the same simulations point by point through [`run_point`],
//! so each call into a layer can be timed from outside.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use elanib_apps::md::md_step_time;
use elanib_apps::nascg::{cg_run, serial_cg, CgProblem, SparseSpd};
use elanib_bench::{cg_figure_table, md_figure_table, STUDY_NODES};
use elanib_core::{
    f, sweep_guided_with_stats, sweep_with_opts, sweep_with_stats, PointResult, SweepOpts,
    SweepStats, TextTable,
};
use elanib_fuzz::{check_scenario, FuzzOpts, Scenario};
use elanib_microbench::{beff, pingpong, streaming};
use elanib_mpi::tports::ElanWorld;
use elanib_mpi::verbs::IbWorld;
use elanib_mpi::{NetConfig, Network, RoceParams};
use elanib_simcore::Sim;

use crate::inputs::{Inputs, Workload, BEFF_NODES, CG_PROCS};
use crate::layers::{Bare, Recorder};

/// Seed of the matrix every CG rank builds (`apps::nascg` fixes it), so
/// the serial replay solves the same system as the simulated ranks.
pub const CG_MATRIX_SEED: u64 = 0xC6;
/// Largest allowed gap between distributed and serial ζ.
pub const ZETA_TOLERANCE: f64 = 1e-10;

/// Figure 1 ping-pong iterations per size (as `bin/fig1.rs`).
pub fn iters_for(bytes: u64) -> u32 {
    match bytes {
        0..=65_536 => 60,
        65_537..=1_048_576 => 20,
        _ => 8,
    }
}

/// Figure 1 streaming window per size (as `bin/fig1.rs`).
pub fn window_for(bytes: u64) -> u32 {
    match bytes {
        0..=4_096 => 200,
        4_097..=262_144 => 50,
        _ => 10,
    }
}

/// Exhibit tables a workload produces that have a committed CSV under
/// `results/`: at seed 0 each must match it byte for byte.
pub fn reference_tables(w: Workload) -> &'static [&'static str] {
    match w {
        Workload::Cg => &["fig6_nascg"],
        Workload::Md => &["fig2_ljs", "fig3_membrane"],
        Workload::P2p => &[
            "fig1a_latency",
            "fig1b_bandwidth",
            "fig1c_ratio",
            "fig1d_beff",
        ],
        Workload::Fuzz => &[],
    }
}

/// Load the committed reference CSVs (run from the repository root).
pub fn load_references(w: Workload) -> BTreeMap<&'static str, Result<String, String>> {
    reference_tables(w)
        .iter()
        .map(|&name| {
            let path = format!("results/{name}.csv");
            (
                name,
                std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}")),
            )
        })
        .collect()
}

/// One pass's outputs.
pub struct Pass {
    /// `(name, CSV)` of every table the pass produced.
    pub tables: Vec<(&'static str, String)>,
    /// Sweep statistics of the pass, merged over its sweeps.
    pub stats: SweepStats,
    /// Failed operations: fuzz scenarios with violations or panics, and
    /// CG points whose ζ missed the serial replay.
    pub failures: Vec<String>,
}

fn merged(mut stats: Vec<SweepStats>) -> SweepStats {
    let mut total = stats.remove(0);
    for s in &stats {
        total.absorb(s);
    }
    total
}

/// One pass through the exhibit code.
pub fn exhibit_pass(inputs: &Inputs) -> Pass {
    match inputs {
        Inputs::Cg(problem) => {
            let (t, stats) = cg_figure_table(*problem, &CG_PROCS, 1);
            Pass {
                tables: vec![("fig6_nascg", t.to_csv())],
                stats,
                failures: Vec::new(),
            }
        }
        Inputs::Md([ljs, membrane]) => {
            let (t2, s2) = md_figure_table(*ljs, &STUDY_NODES);
            let (t3, s3) = md_figure_table(*membrane, &STUDY_NODES);
            Pass {
                tables: vec![("fig2_ljs", t2.to_csv()), ("fig3_membrane", t3.to_csv())],
                stats: merged(vec![s2, s3]),
                failures: Vec::new(),
            }
        }
        Inputs::P2p(sizes) => figure1_pass(sizes),
        Inputs::Fuzz(scenarios) => {
            let (results, stats) = sweep_with_opts(
                scenarios,
                SweepOpts {
                    isolate_panics: true,
                },
                |sc| check_scenario(sc, &FuzzOpts::default()),
            );
            let outcomes: Vec<FuzzOutcome> = results
                .into_iter()
                .map(|r| match r {
                    PointResult::Ok(rep) => FuzzOutcome::of(&rep),
                    PointResult::Failed { payload, .. } => FuzzOutcome::Panicked(payload),
                })
                .collect();
            fuzz_pass(scenarios, &outcomes, stats)
        }
    }
}

/// Figure 1 (a)–(d), built exactly as `bin/fig1.rs` builds it.
fn figure1_pass(sizes: &[u64]) -> Pass {
    let (pp, pp_stats) = sweep_with_stats(sizes, |&s| {
        (
            pingpong(Network::InfiniBand, s, iters_for(s)),
            pingpong(Network::Elan4, s, iters_for(s)),
        )
    });
    let bw_sizes: Vec<u64> = sizes.iter().copied().filter(|&s| s != 0).collect();
    let (st, st_stats) = sweep_with_stats(&bw_sizes, |&s| {
        (
            streaming(Network::InfiniBand, s, window_for(s)),
            streaming(Network::Elan4, s, window_for(s)),
        )
    });
    let mut a = TextTable::new(vec!["bytes", "IB us", "Elan us"]);
    let mut b = TextTable::new(vec![
        "bytes",
        "IB pp MB/s",
        "Elan pp MB/s",
        "IB st MB/s",
        "Elan st MB/s",
    ]);
    let mut c = TextTable::new(vec!["bytes", "ratio pingpong", "ratio streaming"]);
    for (i, &s) in sizes.iter().enumerate() {
        let (ib, el) = &pp[i];
        a.row(vec![s.to_string(), f(ib.latency_us), f(el.latency_us)]);
        if s == 0 {
            continue;
        }
        let (ib_st, el_st) = &st[i - 1];
        b.row(vec![
            s.to_string(),
            f(ib.bandwidth_mb_s),
            f(el.bandwidth_mb_s),
            f(ib_st.bandwidth_mb_s),
            f(el_st.bandwidth_mb_s),
        ]);
        c.row(vec![
            s.to_string(),
            f(el.bandwidth_mb_s / ib.bandwidth_mb_s),
            f(el_st.bandwidth_mb_s / ib_st.bandwidth_mb_s),
        ]);
    }
    let (points, beff_stats) = sweep_with_stats(&BEFF_NODES, |&nodes| {
        (
            beff(Network::InfiniBand, nodes, 1, 2),
            beff(Network::Elan4, nodes, 1, 2),
        )
    });
    let mut d = TextTable::new(vec!["procs", "IB b_eff/proc MB/s", "Elan b_eff/proc MB/s"]);
    for (i, &nodes) in BEFF_NODES.iter().enumerate() {
        let (ib, el) = &points[i];
        d.row(vec![
            nodes.to_string(),
            f(ib.per_process_mb_s),
            f(el.per_process_mb_s),
        ]);
    }
    Pass {
        tables: vec![
            ("fig1a_latency", a.to_csv()),
            ("fig1b_bandwidth", b.to_csv()),
            ("fig1c_ratio", c.to_csv()),
            ("fig1d_beff", d.to_csv()),
        ],
        stats: merged(vec![pp_stats, st_stats, beff_stats]),
        failures: Vec::new(),
    }
}

/// How one fuzz scenario ended.
#[derive(Clone, Debug)]
pub enum FuzzOutcome {
    Green,
    /// A specified failure mode (IB QP-ERR under heavy loss).
    Skipped,
    Violated(Vec<String>),
    Panicked(String),
}

impl FuzzOutcome {
    fn of(rep: &elanib_fuzz::ScenarioReport) -> FuzzOutcome {
        if !rep.ok() {
            FuzzOutcome::Violated(rep.violations.clone())
        } else if rep.skipped.is_some() {
            FuzzOutcome::Skipped
        } else {
            FuzzOutcome::Green
        }
    }
}

/// A fuzz pass's outcome table (seed, outcome) plus its failures.
fn fuzz_pass(scenarios: &[Scenario], outcomes: &[FuzzOutcome], stats: SweepStats) -> Pass {
    let mut t = TextTable::new(vec!["seed", "outcome"]);
    let mut failures = Vec::new();
    for (sc, o) in scenarios.iter().zip(outcomes) {
        let word = match o {
            FuzzOutcome::Green => "green",
            FuzzOutcome::Skipped => "skipped",
            FuzzOutcome::Violated(v) => {
                failures.push(format!("fuzz seed {}: {}", sc.seed, v.join("; ")));
                "violated"
            }
            FuzzOutcome::Panicked(p) => {
                failures.push(format!("fuzz seed {} panicked: {p}", sc.seed));
                "panicked"
            }
        };
        t.row(vec![sc.seed.to_string(), word.to_string()]);
    }
    Pass {
        tables: vec![("fuzz_outcomes", t.to_csv())],
        stats,
        failures,
    }
}

// ---------------------------------------------------------------------------
// Point by point
// ---------------------------------------------------------------------------

/// One simulated point; for p2p, one size or node count on both
/// networks, as the Figure 1 sweeps pair them.
#[derive(Clone, Copy, Debug)]
pub enum Point {
    Cg {
        net: Network,
        procs: usize,
    },
    Md {
        problem: usize,
        net: Network,
        ppn: usize,
        nodes: usize,
    },
    PingPong {
        bytes: u64,
    },
    Streaming {
        bytes: u64,
    },
    Beff {
        nodes: usize,
    },
    Fuzz {
        index: usize,
    },
}

/// Every point of one pass, in exhibit order.
pub fn points(inputs: &Inputs) -> Vec<Point> {
    match inputs {
        Inputs::Cg(_) => Network::BOTH
            .iter()
            .flat_map(|&net| CG_PROCS.iter().map(move |&procs| Point::Cg { net, procs }))
            .collect(),
        Inputs::Md(_) => {
            const SERIES: [(Network, usize); 4] = [
                (Network::InfiniBand, 1),
                (Network::InfiniBand, 2),
                (Network::Elan4, 1),
                (Network::Elan4, 2),
            ];
            (0..2)
                .flat_map(|problem| {
                    SERIES.iter().flat_map(move |&(net, ppn)| {
                        STUDY_NODES.iter().map(move |&nodes| Point::Md {
                            problem,
                            net,
                            ppn,
                            nodes,
                        })
                    })
                })
                .collect()
        }
        Inputs::P2p(sizes) => sizes
            .iter()
            .map(|&bytes| Point::PingPong { bytes })
            .chain(
                sizes
                    .iter()
                    .filter(|&&b| b != 0)
                    .map(|&bytes| Point::Streaming { bytes }),
            )
            .chain(BEFF_NODES.iter().map(|&nodes| Point::Beff { nodes }))
            .collect(),
        Inputs::Fuzz(scs) => (0..scs.len()).map(|index| Point::Fuzz { index }).collect(),
    }
}

impl Point {
    /// `(network, nodes, ppn)` of every world this point simulates.
    pub fn shapes(&self, inputs: &Inputs) -> Vec<(Network, usize, usize)> {
        match *self {
            Point::Cg { net, procs } => vec![(net, procs, 1)],
            Point::Md {
                net, ppn, nodes, ..
            } => vec![(net, nodes, ppn)],
            Point::PingPong { .. } | Point::Streaming { .. } => {
                Network::BOTH.iter().map(|&n| (n, 2, 1)).collect()
            }
            Point::Beff { nodes } => Network::BOTH.iter().map(|&n| (n, nodes, 1)).collect(),
            Point::Fuzz { index } => {
                let Inputs::Fuzz(scs) = inputs else {
                    unreachable!("fuzz points come from fuzz inputs")
                };
                let sc = &scs[index];
                let verbs = sc.roce.map(Network::RoceV2).unwrap_or(Network::InfiniBand);
                vec![
                    (verbs, sc.nodes, sc.ppn),
                    (Network::Elan4, sc.nodes, sc.ppn),
                ]
            }
        }
    }

    /// The message size of a Figure 1 (a)–(c) point.
    pub fn msg_bytes(&self) -> Option<u64> {
        match *self {
            Point::PingPong { bytes } | Point::Streaming { bytes } => Some(bytes),
            _ => None,
        }
    }
}

/// What a point returns that the checks need.
pub enum PointOut {
    Zeta(f64),
    Fuzz(FuzzOutcome),
    Done,
}

/// Run one point, each call into a layer through `rec`.
pub fn run_point(inputs: &Inputs, p: Point, rec: &mut impl Recorder) -> PointOut {
    match (inputs, p) {
        (Inputs::Cg(problem), Point::Cg { net, procs }) => PointOut::Zeta(
            rec.call("apps.cg_run", || cg_run(net, *problem, procs, 1))
                .zeta,
        ),
        (
            Inputs::Md(problems),
            Point::Md {
                problem,
                net,
                ppn,
                nodes,
            },
        ) => {
            rec.call("apps.md_step_time", || {
                md_step_time(net, problems[problem], nodes, ppn)
            });
            PointOut::Done
        }
        (Inputs::P2p(_), Point::PingPong { bytes }) => {
            for net in Network::BOTH {
                rec.call("microbench.pingpong", || {
                    pingpong(net, bytes, iters_for(bytes))
                });
            }
            PointOut::Done
        }
        (Inputs::P2p(_), Point::Streaming { bytes }) => {
            for net in Network::BOTH {
                rec.call("microbench.streaming", || {
                    streaming(net, bytes, window_for(bytes))
                });
            }
            PointOut::Done
        }
        (Inputs::P2p(_), Point::Beff { nodes }) => {
            for net in Network::BOTH {
                rec.call("microbench.beff", || beff(net, nodes, 1, 2));
            }
            PointOut::Done
        }
        (Inputs::Fuzz(scs), Point::Fuzz { index }) => {
            let sc = &scs[index];
            let r = rec.call("fuzz.check_scenario", || {
                catch_unwind(AssertUnwindSafe(|| {
                    check_scenario(sc, &FuzzOpts::default())
                }))
            });
            PointOut::Fuzz(match r {
                Ok(rep) => FuzzOutcome::of(&rep),
                Err(p) => FuzzOutcome::Panicked(panic_message(p.as_ref())),
            })
        }
        (inputs, p) => unreachable!("point {p:?} does not belong to {inputs:?}"),
    }
}

pub fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    p.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into())
}

/// The matrix every simulated CG rank of `problem` solves.
pub fn cg_matrix(problem: &CgProblem) -> SparseSpd {
    SparseSpd::generate(problem.n, problem.nz_per_row, CG_MATRIX_SEED)
}

/// ζ of the serial solver on `problem`'s matrix `a`: what every
/// distributed CG point must reproduce.
pub fn serial_zeta(problem: &CgProblem, a: &SparseSpd) -> f64 {
    serial_cg(a, problem.outer, problem.inner, problem.shift).0
}

/// CG's first pass: the simulations of [`exhibit_pass`], swept as
/// `cg_figure_table` sweeps them (one guided sweep per network, widest
/// first) but through [`run_point`], so each distributed ζ can be
/// checked against the serial replay.
pub fn cg_verify_pass(inputs: &Inputs) -> Pass {
    let Inputs::Cg(problem) = inputs else {
        unreachable!("CG verification runs on CG inputs")
    };
    let hints: Vec<u64> = CG_PROCS.iter().map(|&p| p as u64).collect();
    let mut outs = Vec::new();
    let mut stats = Vec::new();
    for net in Network::BOTH {
        let pts: Vec<Point> = CG_PROCS
            .iter()
            .map(|&procs| Point::Cg { net, procs })
            .collect();
        let (zetas, s) =
            sweep_guided_with_stats(&pts, &hints, |&p| match run_point(inputs, p, &mut Bare) {
                PointOut::Zeta(z) => z,
                _ => unreachable!("CG points return ζ"),
            });
        outs.extend(pts.into_iter().zip(zetas));
        stats.push(s);
    }
    let want = serial_zeta(problem, &cg_matrix(problem));
    let failures = outs
        .iter()
        .filter(|(_, z)| (z - want).abs() > ZETA_TOLERANCE)
        .map(|(p, z)| format!("{p:?}: distributed ζ {z} vs serial {want}"))
        .collect();
    Pass {
        tables: Vec::new(),
        stats: merged(stats),
        failures,
    }
}

/// Build (and drop) the world of one point shape, outside any run.
pub fn build_world(net: Network, nodes: usize, ppn: usize) {
    let sim = Sim::new(0);
    let cfg = NetConfig::default();
    match net {
        Network::InfiniBand => drop(IbWorld::with_config(&sim, nodes, ppn, &cfg)),
        Network::Elan4 => drop(ElanWorld::with_config(&sim, nodes, ppn, &cfg)),
        Network::RoceV2(mode) => drop(IbWorld::with_config_roce(
            &sim,
            nodes,
            ppn,
            &cfg,
            RoceParams::for_mode(mode),
        )),
    }
}

// ---------------------------------------------------------------------------
// Checks
// ---------------------------------------------------------------------------

/// Counts operations and failures across a run's passes. An operation
/// is a simulated point or an output check.
pub struct Checker {
    references: BTreeMap<&'static str, Result<String, String>>,
    first_tables: Option<Vec<(&'static str, String)>>,
    first_events: Option<u64>,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Checker {
    /// `references` are compared only at seed 0 (empty otherwise).
    pub fn new(references: BTreeMap<&'static str, Result<String, String>>) -> Checker {
        Checker {
            references,
            first_tables: None,
            first_events: None,
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
        }
    }

    /// Count one operation (a point or a check), failed unless `ok`.
    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.problems.push(problem());
        }
    }

    /// Count a pass's points and check its outputs: the same event
    /// count as the first pass, tables identical to the first pass's,
    /// and (at seed 0) to the committed CSVs.
    pub fn pass(&mut self, label: &str, pass: &Pass) {
        self.attempted += pass.stats.jobs as u64;
        self.failed += pass.failures.len() as u64;
        self.problems
            .extend(pass.failures.iter().map(|f| format!("{label}: {f}")));

        let events = pass.stats.events;
        let first = *self.first_events.get_or_insert(events);
        self.check(events == first, || {
            format!("{label}: {events} kernel events, first pass had {first}")
        });
        self.tables(label, &pass.tables);
    }

    /// The traced pass must dispatch exactly the untraced event count.
    pub fn traced_events(&mut self, events: u64) {
        let first = self.first_events.unwrap_or(0);
        self.check(events == first, || {
            format!("traced pass: {events} kernel events, untraced passes had {first} (observer effect)")
        });
    }

    fn tables(&mut self, label: &str, tables: &[(&'static str, String)]) {
        if tables.is_empty() {
            return;
        }
        let first = self
            .first_tables
            .get_or_insert_with(|| tables.to_vec())
            .clone();
        for (name, csv) in tables {
            let same = first.iter().any(|(n, c)| n == name && c == csv);
            self.check(same, || {
                format!("{label}: table {name} differs from the first pass's")
            });
            if let Some(want) = self.references.get(name).cloned() {
                self.check(want.as_deref() == Ok(csv.as_str()), || match want {
                    Ok(_) => format!("{label}: table {name} differs from results/{name}.csv"),
                    Err(e) => format!("{label}: reference for {name} unreadable: {e}"),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn points_cover_each_exhibit_grid() {
        for (w, n) in [
            (Workload::Cg, 12),
            (Workload::Md, 48),
            (Workload::P2p, 22 + 21 + 5),
        ] {
            assert_eq!(points(&Inputs::generate(w, 0)).len(), n, "{w:?}");
        }
        let fuzz = Inputs::generate(Workload::Fuzz, 0);
        assert_eq!(points(&fuzz).len() as u64, crate::inputs::FUZZ_SCENARIOS);
        assert!(points(&fuzz).iter().all(|p| p.shapes(&fuzz).len() == 2));
    }

    #[test]
    fn every_exhibit_table_has_a_committed_reference() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
        for w in Workload::ALL {
            for name in reference_tables(w) {
                let path = format!("{root}/results/{name}.csv");
                assert!(std::path::Path::new(&path).is_file(), "{path}");
            }
        }
    }

    fn pass_with(tables: Vec<(&'static str, String)>, events: u64) -> Pass {
        let (_, mut stats) = sweep_with_stats(&[0u8], |_| ());
        stats.events = events;
        Pass {
            tables,
            stats,
            failures: Vec::new(),
        }
    }

    #[test]
    fn checker_flags_drift_against_first_pass_and_reference() {
        let refs = BTreeMap::from([("fig6_nascg", Ok("a,b\n1,2\n".to_string()))]);
        let mut c = Checker::new(refs);
        c.pass(
            "pass 1",
            &pass_with(vec![("fig6_nascg", "a,b\n1,2\n".into())], 10),
        );
        assert_eq!((c.attempted, c.failed), (4, 0));
        c.pass(
            "pass 2",
            &pass_with(vec![("fig6_nascg", "a,b\n1,3\n".into())], 11),
        );
        assert_eq!(c.failed, 3, "{:?}", c.problems);
        c.traced_events(10);
        assert_eq!(c.failed, 3);
        c.traced_events(9);
        assert_eq!(c.failed, 4);
    }

    #[test]
    fn missing_reference_is_a_failed_check() {
        let refs = BTreeMap::from([("fig2_ljs", Err("results/fig2_ljs.csv: missing".to_string()))]);
        let mut c = Checker::new(refs);
        c.pass("pass 1", &pass_with(vec![("fig2_ljs", "x\n".into())], 1));
        assert_eq!(c.failed, 1);
        assert!(c.problems[0].contains("unreadable"), "{:?}", c.problems);
    }
}
