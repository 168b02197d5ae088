//! `elanib-report` — render the repository benchmark's run records and
//! the conformance verdict as one perf dashboard.
//!
//! ```text
//! elanib-report [--bench FILE]... [--conformance FILE]
//!               [--out-md PATH] [--out-json PATH]
//! ```
//!
//! `--bench` files are stdout captures of `benchmark/` runs (untraced
//! runs give the end-to-end table, traced runs the per-layer table);
//! without one the report reads the committed traced baseline
//! `scripts/benchmark_counts.jsonl`. Without `--out-md`/`--out-json`
//! the markdown goes to stdout.
//!
//! Exit codes: 0 = report written; 2 = usage error, or an input that
//! cannot be read or holds no well-formed run record (one line on
//! stderr naming the file).

use std::path::PathBuf;
use std::process::ExitCode;

use elanib_bench::perf_report::generate;

fn usage() -> ! {
    eprintln!(
        "usage: elanib-report [--bench FILE]... [--conformance FILE]\n\
         \x20                    [--out-md PATH] [--out-json PATH]"
    );
    std::process::exit(2);
}

fn main() -> ExitCode {
    let mut inputs: Vec<PathBuf> = Vec::new();
    let mut conformance: Option<PathBuf> = None;
    let mut out_md: Option<PathBuf> = None;
    let mut out_json: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| -> PathBuf {
            match args.next() {
                Some(v) => PathBuf::from(v),
                None => {
                    eprintln!("elanib-report: {name} needs a value");
                    usage();
                }
            }
        };
        match arg.as_str() {
            "--bench" => inputs.push(value("--bench")),
            "--conformance" => conformance = Some(value("--conformance")),
            "--out-md" => out_md = Some(value("--out-md")),
            "--out-json" => out_json = Some(value("--out-json")),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("elanib-report: unknown argument `{other}`");
                usage();
            }
        }
    }
    if inputs.is_empty() {
        inputs.push(PathBuf::from("scripts/benchmark_counts.jsonl"));
    }
    // A conformance file that does not exist yet (e.g. the stage was
    // skipped) degrades to "not supplied" rather than an error.
    let conformance = conformance.filter(|p| p.exists());

    let report = match generate(&inputs, conformance.as_deref()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("elanib-report: {e}");
            return ExitCode::from(2);
        }
    };
    for (path, body) in [(&out_md, &report.markdown), (&out_json, &report.json)] {
        if let Some(path) = path {
            if let Err(e) = std::fs::write(path, body) {
                eprintln!("elanib-report: cannot write {}: {e}", path.display());
                return ExitCode::from(2);
            }
            eprintln!("[perf report written to {}]", path.display());
        }
    }
    if out_md.is_none() && out_json.is_none() {
        print!("{}", report.markdown);
    }
    ExitCode::SUCCESS
}
