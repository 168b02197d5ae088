//! Property-fuzz driver: seeded scenario batches over both simulated
//! stacks, with shrinking and replayable repros.
//!
//! ```text
//! fuzz [--scenarios N] [--seed S] [--budget-secs B] [--replay FILE] [--mutate NAME]
//! ```
//!
//! * Batch mode (default): generate `N` scenarios from base seed `S`,
//!   check every cross-cutting invariant on each
//!   (`elanib_fuzz::check_scenario`), and on any violation shrink the
//!   first failing scenario to a minimal repro under `fuzz_failures/`
//!   before exiting non-zero.
//! * `--replay FILE`: re-run one saved repro and report its
//!   violations — the deterministic second half of a bug report.
//! * `--mutate NAME`: plant a deliberate harness defect (mutation
//!   testing; `conservation` is the one defined today) to prove the
//!   invariants still catch bugs.
//!
//! The batch defaults to 100 scenarios from base seed 42.
//! `--budget-secs B` (whole seconds) caps the batch's *wall-clock*
//! time — the run stops launching new chunks once the budget is spent,
//! so a CI stage is time-boxed without killing the process
//! mid-scenario. Per-run *simulated* time is bounded
//! separately by the harness's 1 s watchdog (a blown budget is a typed
//! `ScenarioTimeout`, reported as a no-deadlock violation). Every
//! `ELANIB_*` variable and every flag is checked before anything runs;
//! bad input exits 2.
//! Reports a `[sweep fuzz: …]` stderr line per chunk, like every other
//! exhibit binary.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use elanib_fuzz::{check_scenario, fuzz_batch, write_repro, FuzzOpts, Mutation, Scenario};

struct Args {
    scenarios: usize,
    seed: u64,
    wall_budget: Option<Duration>,
    replay: Option<PathBuf>,
    mutate: Option<Mutation>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        scenarios: 100,
        seed: 42,
        wall_budget: None,
        replay: None,
        mutate: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = |what: &str| it.next().ok_or_else(|| format!("{what} requires a value"));
        match a.as_str() {
            "--scenarios" => {
                args.scenarios = val("--scenarios")?
                    .parse()
                    .map_err(|e| format!("bad --scenarios: {e}"))?;
            }
            "--seed" => {
                args.seed = val("--seed")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?;
            }
            "--budget-secs" => {
                let secs = val("--budget-secs")?
                    .parse()
                    .map_err(|e| format!("bad --budget-secs: {e}"))?;
                args.wall_budget = Some(Duration::from_secs(secs));
            }
            "--replay" => args.replay = Some(PathBuf::from(val("--replay")?)),
            "--mutate" => args.mutate = Some(Mutation::parse(&val("--mutate")?)?),
            other => {
                return Err(format!(
                    "unknown argument {other:?} \
                     (usage: fuzz [--scenarios N] [--seed S] [--budget-secs B] \
                     [--replay FILE] [--mutate NAME])"
                ))
            }
        }
    }
    Ok(args)
}

/// Re-run one saved repro; exit status mirrors whether the recorded
/// violation still reproduces (a repro that no longer fails means the
/// bug is fixed — report that as success).
fn replay(path: &Path, cli_mutate: Option<Mutation>) -> i32 {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("fuzz: cannot read {}: {e}", path.display());
            return 2;
        }
    };
    let (sc, recorded) = match Scenario::parse_repro(&text) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("fuzz: cannot parse {}: {e}", path.display());
            return 2;
        }
    };
    let mutate = match (cli_mutate, recorded.as_deref()) {
        (Some(m), _) => Some(m),
        (None, Some(name)) => match Mutation::parse(name) {
            Ok(m) => Some(m),
            Err(e) => {
                eprintln!("fuzz: repro records an unknown mutation: {e}");
                return 2;
            }
        },
        (None, None) => None,
    };
    let opts = FuzzOpts { mutate };
    println!("replaying {} (seed {})", path.display(), sc.seed);
    let rep = check_scenario(&sc, &opts);
    if let Some(why) = &rep.skipped {
        println!("scenario skipped on a specified failure mode: {why}");
    }
    if rep.ok() {
        println!("replay PASSED: every invariant holds (the recorded bug no longer reproduces)");
        0
    } else {
        println!("replay reproduced {} violation(s):", rep.violations.len());
        for v in &rep.violations {
            println!("  - {v}");
        }
        1
    }
}

fn main() {
    elanib_bench::check_env();
    // The harness expects IB's bounded-retry panic and counts it as a
    // skip.
    elanib_bench::quiet_qp_errors();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fuzz: {e}");
            std::process::exit(2);
        }
    };
    if let Some(path) = &args.replay {
        std::process::exit(replay(path, args.mutate));
    }

    let opts = FuzzOpts {
        mutate: args.mutate,
    };
    let started = Instant::now();
    // Chunked batches so the wall-clock budget is honoured at a
    // scenario-chunk boundary instead of killing mid-run.
    const CHUNK: usize = 25;
    let mut done = 0usize;
    let mut skipped = 0usize;
    while done < args.scenarios {
        if let Some(budget) = args.wall_budget {
            if started.elapsed() >= budget && done > 0 {
                println!(
                    "wall budget ({}s) spent after {done}/{} scenarios — stopping early",
                    budget.as_secs(),
                    args.scenarios
                );
                break;
            }
        }
        let n = CHUNK.min(args.scenarios - done);
        let chunk_base = args.seed.wrapping_add(done as u64);
        let out = fuzz_batch(chunk_base, n, &opts);
        elanib_bench::report_sweep("fuzz", &out.stats);
        skipped += out.skipped;
        done += n;
        if !out.ok() {
            for p in &out.panics {
                println!("model panic (isolated): {p}");
            }
            let Some(first) = out.failures.first() else {
                // Panics only: nothing to shrink, but still a failure.
                std::process::exit(1);
            };
            println!(
                "seed {} violated {} invariant(s):",
                first.scenario.seed,
                first.violations.len()
            );
            for v in &first.violations {
                println!("  - {v}");
            }
            println!("shrinking ...");
            let (min, min_rep) = elanib_fuzz::shrink::shrink(&first.scenario, &opts);
            let dir = Path::new("fuzz_failures");
            match write_repro(dir, &min, &opts) {
                Ok(path) => {
                    println!("minimized repro written to {}", path.display());
                    println!(
                        "replay with: cargo run -p elanib-bench --bin fuzz -- --replay {}",
                        path.display()
                    );
                }
                Err(e) => eprintln!("fuzz: cannot write repro: {e}"),
            }
            println!("minimized scenario still violates:");
            for v in &min_rep.violations {
                println!("  - {v}");
            }
            std::process::exit(1);
        }
    }
    println!(
        "fuzz OK: {done} scenarios green (base seed {}, {skipped} skipped on specified \
         QP-ERR outcomes) in {:.1}s",
        args.seed,
        started.elapsed().as_secs_f64()
    );
}
