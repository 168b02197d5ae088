//! The run-time knobs: every `ELANIB_*` variable the programs read,
//! each with the parser that vets its value.
//!
//! [`check_env`] runs at the binary edge — first thing in every exhibit
//! driver (through [`crate::regen_begin`]), `fuzz` and `kernelbench` —
//! so bad input stops a run before any simulation starts. An
//! `ELANIB_*` name outside [`KNOBS`], or a value its parser refuses,
//! prints one stderr line naming the variable and the value and exits
//! with status 2. The library readers parse the same values lazily and
//! panic with the same message when a caller skipped the check.

use std::collections::BTreeMap;
use std::ffi::OsString;
use std::path::PathBuf;

use elanib_core::sweep::parse_sweep_threads;
use elanib_fabric::faults::parse_env_plan;
use elanib_mpi::parse_backend;
use elanib_simcore::trace::parse_flag;

/// Vets the value of variable `name` (`None` = unset); the error names
/// the variable and the value.
pub type Parser = fn(name: &str, v: Option<&str>) -> Result<(), String>;

/// Every `ELANIB_*` variable, in name order.
pub const KNOBS: [(&str, Parser); 7] = [
    ("ELANIB_BACKEND", |_, v| parse_backend(v).map(drop)),
    ("ELANIB_FAULTS", |_, v| parse_env_plan(v).map(drop)),
    ("ELANIB_METRICS", flag),
    ("ELANIB_REGEN_TIMEOUT", secs),
    ("ELANIB_RESULTS_DIR", |_, _| Ok(())),
    ("ELANIB_SWEEP_THREADS", |_, v| {
        parse_sweep_threads(v).map(drop)
    }),
    ("ELANIB_TRACE", flag),
];

fn flag(name: &str, v: Option<&str>) -> Result<(), String> {
    parse_flag(name, v).map(drop)
}

fn secs(name: &str, v: Option<&str>) -> Result<(), String> {
    parse_secs(name, v).map(drop)
}

/// Parse a whole number of seconds for variable `name`: unset or empty
/// is `None` (the caller's default, as in the scripts' `${VAR:-300}`).
pub fn parse_secs(name: &str, v: Option<&str>) -> Result<Option<u64>, String> {
    match v {
        None | Some("") => Ok(None),
        Some(v) => v
            .parse()
            .map(Some)
            .map_err(|_| format!("{name}={v:?} is not a whole number of seconds")),
    }
}

/// Check a process environment against [`KNOBS`]: every `ELANIB_*`
/// name must be a knob, and every knob's parser runs once on its value.
/// The first error, unknown names first, comes back as one line.
pub fn check(vars: impl IntoIterator<Item = (OsString, OsString)>) -> Result<(), String> {
    let set: BTreeMap<String, OsString> = vars
        .into_iter()
        .filter_map(|(k, v)| Some((k.into_string().ok()?, v)))
        .filter(|(k, _)| k.starts_with("ELANIB_"))
        .collect();
    if let Some((k, v)) = set.iter().find(|(k, _)| !KNOBS.iter().any(|(n, _)| n == k)) {
        return Err(format!(
            "{k}={v:?} is not a run-time variable; known: {}",
            KNOBS.map(|(n, _)| n).join(", ")
        ));
    }
    for (name, parse) in KNOBS {
        let v = set.get(name).map(|v| {
            v.to_str()
                .ok_or_else(|| format!("{name}={v:?} is not UTF-8"))
        });
        parse(name, v.transpose()?)?;
    }
    Ok(())
}

/// [`check`] the process environment; on an error print it as one
/// stderr line and exit with status 2.
pub fn check_env() {
    if let Err(e) = check(std::env::vars_os()) {
        eprintln!("error: {e}");
        std::process::exit(2);
    }
}

/// Where output files go: `ELANIB_RESULTS_DIR`, unless unset or empty.
pub fn results_dir() -> Option<PathBuf> {
    std::env::var_os("ELANIB_RESULTS_DIR")
        .filter(|d| !d.is_empty())
        .map(PathBuf::from)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_refuses_unknown_names_and_bad_values() {
        let cases = [
            // Deleted knobs fail loudly instead of being ignored.
            ("ELANIB_FUZZ_SEED", "42", false),
            ("ELANIB_FUZZ_SCENARIOS", "100", false),
            ("ELANIB_SIM_BUDGET_SECS", "10", false),
            ("ELANIB_TRACE_MAX_EVENTS", "5000", false),
            ("ELANIB_TRACE_DIR", "x", false),
            ("ELANIB_FUZZ_BUDGET_SECS", "60", false),
            ("ELANIB_PROFILE", "1", false),
            ("ELANIB_TRACE", "off", false),
            ("ELANIB_TRACE", "true", false),
            ("ELANIB_TRACE", "yes", false),
            ("ELANIB_METRICS", "on", false),
            ("ELANIB_SWEEP_THREADS", "0", false),
            ("ELANIB_SWEEP_THREADS", "abc", false),
            ("ELANIB_BACKEND", "nope", false),
            ("ELANIB_FAULTS", "bogus", false),
            ("ELANIB_FAULTS", "loss=2", false),
            ("ELANIB_REGEN_TIMEOUT", "5m", false),
            ("ELANIB_TRACE", "1", true),
            ("ELANIB_TRACE", "0", true),
            ("ELANIB_TRACE", "", true),
            ("ELANIB_METRICS", "1", true),
            ("ELANIB_SWEEP_THREADS", "2", true),
            ("ELANIB_BACKEND", "elan", true),
            ("ELANIB_FAULTS", "loss=1e-3,seed=7", true),
            ("ELANIB_FAULTS", "", true),
            ("ELANIB_FAULTS", "loss=0,seed=1", true),
            ("ELANIB_REGEN_TIMEOUT", "300", true),
            ("ELANIB_RESULTS_DIR", "out", true),
            ("PATH", "not ours", true),
        ];
        for (name, value, ok) in cases {
            let got = check([(name.into(), value.into())]);
            if ok {
                assert_eq!(got, Ok(()), "{name}={value:?}");
            } else {
                let e = got.expect_err(&format!("{name}={value:?} must be refused"));
                assert!(e.starts_with(&format!("{name}={value:?} ")), "{e}");
            }
        }
        assert_eq!(check([]), Ok(()));
    }

    #[test]
    fn non_utf8_values_are_refused() {
        use std::os::unix::ffi::OsStringExt;
        let v = OsString::from_vec(vec![b'o', 0xff]);
        let e = check([("ELANIB_RESULTS_DIR".into(), v)]).unwrap_err();
        assert!(e.starts_with("ELANIB_RESULTS_DIR="), "{e}");
    }

    #[test]
    fn readme_table_lists_exactly_the_knobs() {
        let readme = include_str!("../../../README.md");
        let table = readme
            .split("### Runtime environment variables")
            .nth(1)
            .and_then(|s| s.split("\n#").next())
            .expect("README has a runtime environment variables section");
        let mut rows: Vec<&str> = table
            .lines()
            .filter_map(|l| l.strip_prefix("| `"))
            .map(|l| l.split('`').next().unwrap())
            .collect();
        rows.sort();
        assert_eq!(rows, KNOBS.map(|(n, _)| n));
    }
}
