//! `conformance` — validate the committed `results/` against the
//! paper-shape expectations in `expectations/*.toml`.
//!
//! Where `regen_all.sh` proves the exhibits are *deterministic* (byte
//! diffs), this binary proves they still *say what the paper says*:
//! who wins which regime, where the crossovers sit, which anomalies
//! exist. Every expectation term is evaluated — never fail-fast — so a
//! behavioral change shows its full blast radius in one run, then the
//! process exits non-zero naming every violated term.
//!
//! ```text
//! conformance [--expectations DIR] [--results DIR] [--json PATH] [--quiet]
//! ```
//!
//! Exit codes: 0 = conformant; 1 = violated expectations or coverage
//! gaps; 2 = usage or setup error (unreadable directory, unparseable
//! expectation file).

use std::path::PathBuf;
use std::process::ExitCode;

use elanib_bench::conformance::{run, ConformanceOptions};

fn usage() -> ! {
    eprintln!("usage: conformance [--expectations DIR] [--results DIR] [--json PATH] [--quiet]");
    std::process::exit(2);
}

fn main() -> ExitCode {
    let mut opts = ConformanceOptions::new(PathBuf::from("expectations"), PathBuf::from("results"));
    let mut quiet = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| -> PathBuf {
            match args.next() {
                Some(v) => PathBuf::from(v),
                None => {
                    eprintln!("conformance: {name} needs a value");
                    usage();
                }
            }
        };
        match arg.as_str() {
            "--expectations" => opts.expectations = value("--expectations"),
            "--results" => opts.results = value("--results"),
            "--json" => opts.json = Some(value("--json")),
            "--quiet" => quiet = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("conformance: unknown argument `{other}`");
                usage();
            }
        }
    }
    let outcome = match run(&opts) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("conformance: {e}");
            return ExitCode::from(2);
        }
    };
    if !quiet || !outcome.ok() {
        print!("{}", outcome.render_text());
    }
    if let Some(path) = &opts.json {
        if let Err(e) = std::fs::write(path, outcome.to_json()) {
            eprintln!("conformance: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        eprintln!("[conformance report written to {}]", path.display());
    }
    if outcome.ok() {
        println!("CONFORMANT: the committed results still reproduce the paper's shapes");
        ExitCode::SUCCESS
    } else {
        println!("NOT CONFORMANT: see the violated terms above");
        ExitCode::FAILURE
    }
}
