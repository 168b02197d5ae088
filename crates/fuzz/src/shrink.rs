//! Failing-scenario minimization and batch execution.
//!
//! [`shrink`] is greedy delta-debugging over
//! [`Scenario::shrink_candidates`]: try each strictly-simpler variant,
//! keep the first that still fails, repeat until nothing simpler
//! fails. Termination is structural — every candidate strictly
//! decreases [`Scenario::complexity`], which is a finite non-negative
//! word. [`write_repro`] then lands the minimized scenario in
//! `fuzz_failures/<seed>.toml`, ready for
//! `cargo run -p elanib-bench --bin fuzz -- --replay <file>`.
//!
//! [`fuzz_batch`] is the batch driver: one [`check_scenario`] per
//! generated seed, fanned across the `elanib-core` sweep pool with
//! panic isolation on — a panicking scenario becomes an attributable
//! failure record, not a dead batch.

use std::path::{Path, PathBuf};

use elanib_core::{sweep_with_opts, PointResult, SweepOpts, SweepStats};

use crate::harness::{check_scenario, FuzzOpts, ScenarioReport};
use crate::scenario::Scenario;

/// Outcome of a whole fuzz batch.
#[derive(Debug)]
pub struct BatchOutcome {
    /// Scenarios checked (including passing ones).
    pub scenarios: usize,
    /// Reports whose invariants were violated, in seed order.
    pub failures: Vec<ScenarioReport>,
    /// Scenarios that panicked inside the model code itself (message,
    /// from the isolated sweep).
    pub panics: Vec<String>,
    /// Scenarios skipped on a specified failure mode (IB `QP-ERR`
    /// under heavy loss) — the model behaving as documented.
    pub skipped: usize,
    /// Pool statistics, ready for the JSONL perf record.
    pub stats: SweepStats,
}

impl BatchOutcome {
    pub fn ok(&self) -> bool {
        self.failures.is_empty() && self.panics.is_empty()
    }
}

/// Derive the scenario seed for batch element `i` of `base_seed` —
/// SplitMix64, so neighbouring indices land far apart.
pub fn batch_seed(base_seed: u64, i: u64) -> u64 {
    let mut z = base_seed
        .wrapping_add(i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Check `n` generated scenarios derived from `base_seed` across the
/// sweep pool. Panics are isolated per point.
pub fn fuzz_batch(base_seed: u64, n: usize, opts: &FuzzOpts) -> BatchOutcome {
    let seeds: Vec<u64> = (0..n as u64).map(|i| batch_seed(base_seed, i)).collect();
    let (results, stats) = sweep_with_opts(
        &seeds,
        SweepOpts {
            isolate_panics: true,
        },
        |&seed| check_scenario(&Scenario::generate(seed), opts),
    );
    let mut failures = Vec::new();
    let mut panics = Vec::new();
    let mut skipped = 0;
    for r in results {
        match r {
            PointResult::Ok(rep) if rep.ok() => skipped += rep.skipped.is_some() as usize,
            PointResult::Ok(rep) => failures.push(rep),
            PointResult::Failed { payload, .. } => panics.push(payload),
        }
    }
    BatchOutcome {
        scenarios: n,
        failures,
        panics,
        skipped,
        stats,
    }
}

/// Greedily minimize a failing scenario: keep applying the first
/// strictly-simpler candidate that still fails until none does.
/// Returns the minimized scenario and its (still-failing) report.
pub fn shrink(failing: &Scenario, opts: &FuzzOpts) -> (Scenario, ScenarioReport) {
    let mut current = failing.clone();
    let mut report = check_scenario(&current, opts);
    debug_assert!(!report.ok(), "shrink called on a passing scenario");
    'outer: loop {
        for cand in current.shrink_candidates() {
            let rep = check_scenario(&cand, opts);
            if !rep.ok() {
                current = cand;
                report = rep;
                continue 'outer;
            }
        }
        return (current, report);
    }
}

/// Write the repro file for a (minimized) failing scenario under
/// `dir`, named after its seed. Returns the path written.
pub fn write_repro(dir: &Path, sc: &Scenario, opts: &FuzzOpts) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{}.toml", sc.seed));
    std::fs::write(&path, sc.to_repro(opts.mutate.map(|m| m.name())))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Mutation;
    use elanib_fabric::FaultPlan;

    #[test]
    fn batch_seeds_are_deterministic_and_spread() {
        let a: Vec<u64> = (0..20).map(|i| batch_seed(42, i)).collect();
        let b: Vec<u64> = (0..20).map(|i| batch_seed(42, i)).collect();
        assert_eq!(a, b);
        let distinct: std::collections::HashSet<&u64> = a.iter().collect();
        assert_eq!(distinct.len(), a.len(), "collisions in {a:?}");
        assert_ne!(batch_seed(42, 0), batch_seed(43, 0));
    }

    #[test]
    fn small_clean_batch_runs_green() {
        let out = fuzz_batch(7, 4, &FuzzOpts::default());
        assert_eq!(out.scenarios, 4);
        assert!(
            out.ok(),
            "failures: {:#?}, panics: {:?}",
            out.failures
                .iter()
                .map(|f| (&f.scenario, &f.violations))
                .collect::<Vec<_>>(),
            out.panics
        );
    }

    #[test]
    fn planted_bug_shrinks_to_a_minimal_deterministic_repro() {
        let opts = FuzzOpts {
            budget: None,
            mutate: Some(Mutation::Conservation),
        };
        let sc = Scenario::generate(batch_seed(42, 0));
        let rep = check_scenario(&sc, &opts);
        assert!(!rep.ok(), "mutation must fail: {:?}", sc);
        let (min, min_rep) = shrink(&sc, &opts);
        assert!(!min_rep.ok());
        assert!(min.complexity() <= sc.complexity());
        // The conservation mutation survives every reduction, so the
        // shrinker must bottom out at the floor of the space: 2 nodes,
        // 1 ppn, a single message, nothing else switched on.
        assert_eq!(min.nodes, 2, "not fully shrunk: {min:?}");
        assert_eq!(min.ppn, 1);
        assert_eq!(min.msg_sizes.len(), 1);
        assert!(min.faults.is_effectless() || min.faults == FaultPlan::default());
        assert!(!min.trace && !min.profile);
        // Replay from the serialized repro reproduces the violation
        // byte-for-byte.
        let dir = std::env::temp_dir().join(format!("elanib_fuzz_test_{}", std::process::id()));
        let path = write_repro(&dir, &min, &opts).expect("repro written");
        let text = std::fs::read_to_string(&path).unwrap();
        let (back, mutate) = Scenario::parse_repro(&text).expect("repro parses");
        assert_eq!(back, min);
        let replay_opts = FuzzOpts {
            budget: None,
            mutate: mutate.as_deref().map(|m| Mutation::parse(m).unwrap()),
        };
        let replay = check_scenario(&back, &replay_opts);
        assert_eq!(
            replay.violations, min_rep.violations,
            "replay must reproduce"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
