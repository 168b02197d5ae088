//! Command line and environment, checked where they enter. Every input
//! mistake is a typed [`InputError`]: one line on stderr, exit code 2.

use std::fmt;
use std::path::PathBuf;

use crate::inputs::Workload;

pub const USAGE: &str = "usage: benchmark --workload <cg|md|p2p|fuzz> [--seed N] [--seconds N] \
     [--trace 0|1] [--out FILE] | benchmark --compare A.jsonl B.jsonl";

/// Sweep worker threads: the run protocol measures a 2-worker closed
/// loop, and refuses to run on fewer CPUs.
pub const THREADS: usize = 2;
/// Time budget of a run when `--seconds` is not given.
pub const DEFAULT_SECONDS: u64 = 20;

#[derive(Clone, Debug, PartialEq)]
pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Span file of a traced run.
    pub out: PathBuf,
}

#[derive(Debug, PartialEq)]
pub enum Command {
    Run(RunArgs),
    /// Internal: one cold start (set-up and pass 1) in a fresh process
    /// (see `setup_s`).
    ColdProbe(RunArgs),
    Compare(PathBuf, PathBuf),
}

#[derive(Debug, PartialEq)]
pub enum InputError {
    Usage(String),
    UnknownWorkload(String),
    BadSeed(String),
    BadNumber { flag: &'static str, value: String },
    TooManyThreads { nproc: usize },
    StrayEnv(String),
    UnwritableOut { path: PathBuf, err: String },
}

impl fmt::Display for InputError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InputError::Usage(m) => write!(f, "{m}; {USAGE}"),
            InputError::UnknownWorkload(w) => {
                write!(
                    f,
                    "unknown workload {w:?} (expected one of cg, md, p2p, fuzz)"
                )
            }
            InputError::BadSeed(s) => write!(f, "--seed {s:?} is not an unsigned 64-bit integer"),
            InputError::BadNumber { flag, value } => {
                write!(f, "{flag} {value:?} is not a positive integer")
            }
            InputError::TooManyThreads { nproc } => write!(
                f,
                "the benchmark runs {THREADS} sweep threads but only {nproc} CPU(s) are \
                 available (nproc); the closed loop must not oversubscribe the host"
            ),
            InputError::StrayEnv(k) => write!(
                f,
                "environment variable {k} is set; unset every ELANIB_* variable \
                 so the benchmark measures the default program"
            ),
            InputError::UnwritableOut { path, err } => {
                write!(f, "cannot write span file {}: {err}", path.display())
            }
        }
    }
}

/// Parse the arguments after the program name. A run needs `nproc` of
/// at least [`THREADS`].
pub fn parse(args: impl IntoIterator<Item = String>, nproc: usize) -> Result<Command, InputError> {
    let mut workload = None;
    let mut seed = 0u64;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    let mut out = None;
    let mut probe = false;
    let mut it = args.into_iter();
    let value = |flag: &str, it: &mut dyn Iterator<Item = String>| {
        it.next()
            .ok_or_else(|| InputError::Usage(format!("{flag} needs a value")))
    };
    let positive = |flag: &'static str, v: String| match v.parse::<u64>() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(InputError::BadNumber { flag, value: v }),
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--compare" => {
                let a = value("--compare", &mut it)?;
                let b = value("--compare", &mut it)?;
                if let Some(extra) = it.next() {
                    return Err(InputError::Usage(format!("unexpected argument {extra:?}")));
                }
                return Ok(Command::Compare(a.into(), b.into()));
            }
            "--workload" => {
                let w = value("--workload", &mut it)?;
                workload = Some(Workload::parse(&w).ok_or(InputError::UnknownWorkload(w))?);
            }
            "--seed" => {
                let s = value("--seed", &mut it)?;
                seed = s.parse().map_err(|_| InputError::BadSeed(s))?;
            }
            "--seconds" => seconds = positive("--seconds", value("--seconds", &mut it)?)?,
            "--trace" => {
                trace = match value("--trace", &mut it)?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => {
                        return Err(InputError::Usage(format!(
                            "--trace {other:?} is not 0 or 1"
                        )))
                    }
                }
            }
            "--out" => out = Some(PathBuf::from(value("--out", &mut it)?)),
            "--cold-probe" => probe = true,
            other => return Err(InputError::Usage(format!("unknown argument {other:?}"))),
        }
    }
    let workload = workload.ok_or_else(|| InputError::Usage("--workload is required".into()))?;
    if nproc < THREADS {
        return Err(InputError::TooManyThreads { nproc });
    }
    if out.is_some() && !trace {
        return Err(InputError::Usage(
            "--out names the span file of a traced run; add --trace 1".into(),
        ));
    }
    let run = RunArgs {
        workload,
        seed,
        seconds,
        trace,
        out: out
            .unwrap_or_else(|| format!("target/benchmark/{}.spans.jsonl", workload.name()).into()),
    };
    Ok(if probe {
        Command::ColdProbe(run)
    } else {
        Command::Run(run)
    })
}

/// Refuse to run when any `ELANIB_*` variable is set: each one selects
/// a different program (fault plans, shards, legacy payloads, thread
/// counts) and would silently change what is measured.
pub fn check_env(keys: impl IntoIterator<Item = String>) -> Result<(), InputError> {
    match keys.into_iter().find(|k| k.starts_with("ELANIB_")) {
        Some(k) => Err(InputError::StrayEnv(k)),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    fn run(s: &str) -> RunArgs {
        match parse(args(s), 2) {
            Ok(Command::Run(r)) => r,
            other => panic!("{s}: {other:?}"),
        }
    }

    #[test]
    fn defaults_and_every_flag() {
        let r = run("--workload md");
        assert_eq!((r.seed, r.seconds, r.trace), (0, DEFAULT_SECONDS, false));
        let r = run("--workload fuzz --seed 18446744073709551615 --seconds 7 --trace 1");
        assert_eq!(
            (r.workload, r.seed, r.seconds, r.trace),
            (Workload::Fuzz, u64::MAX, 7, true)
        );
        assert!(matches!(
            parse(args("--cold-probe --workload cg --seed 4"), 2),
            Ok(Command::ColdProbe(RunArgs { seed: 4, .. }))
        ));
    }

    #[test]
    fn typed_input_errors() {
        let err = |s: &str| parse(args(s), 2).unwrap_err();
        assert_eq!(
            err("--workload nbody"),
            InputError::UnknownWorkload("nbody".into())
        );
        assert_eq!(
            err("--workload cg --seed -1"),
            InputError::BadSeed("-1".into())
        );
        assert_eq!(
            err("--workload cg --seed 1e3"),
            InputError::BadSeed("1e3".into())
        );
        assert_eq!(
            parse(args("--workload cg"), 1),
            Err(InputError::TooManyThreads { nproc: 1 })
        );
        assert!(matches!(
            err("--workload cg --traced"),
            InputError::Usage(_)
        ));
        assert!(matches!(
            err("--workload cg --threads 2"),
            InputError::Usage(_)
        ));
        assert!(matches!(
            err("--workload cg --seconds x"),
            InputError::BadNumber { .. }
        ));
        assert!(matches!(
            err("--workload cg --trace 2"),
            InputError::Usage(_)
        ));
        assert!(matches!(
            err("--workload cg --out x.jsonl"),
            InputError::Usage(_)
        ));
        assert!(matches!(err("--seed 3"), InputError::Usage(_)));
        assert!(matches!(err("--workload"), InputError::Usage(_)));
        // Every message is one line.
        for e in [
            err("--workload nbody"),
            parse(args("--workload cg"), 1).unwrap_err(),
            err("--bogus"),
        ] {
            assert!(!e.to_string().contains('\n'), "{e}");
        }
    }

    #[test]
    fn compare_takes_two_files() {
        assert_eq!(
            parse(args("--compare a.jsonl b.jsonl"), 2),
            Ok(Command::Compare("a.jsonl".into(), "b.jsonl".into()))
        );
        assert!(parse(args("--compare a.jsonl"), 2).is_err());
        // Comparing records needs no spare CPUs.
        assert!(parse(args("--compare a.jsonl b.jsonl"), 1).is_ok());
    }

    #[test]
    fn stray_elanib_variables_are_refused() {
        assert_eq!(check_env(args("PATH HOME CARGO_TARGET_DIR")), Ok(()));
        assert_eq!(
            check_env(args("PATH ELANIB_FAULTS")),
            Err(InputError::StrayEnv("ELANIB_FAULTS".into()))
        );
        assert!(check_env(args("ELANIB_SWEEP_THREADS")).is_err());
    }
}
