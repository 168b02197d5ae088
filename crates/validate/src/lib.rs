//! # elanib-validate — paper-conformance validator
//!
//! The repo's determinism checks (`scripts/regen_all.sh`) prove that a
//! change did not alter a single byte of any exhibit CSV. They prove
//! nothing about *fidelity*: a kernel or model change that legitimately
//! regenerates every CSV could silently move a crossover, flatten an
//! anomaly, or flip who wins a regime — and byte-diffing the new files
//! against themselves would pass. This crate closes that gap by
//! encoding the paper's qualitative claims as machine-checked
//! assertions.
//!
//! ## Shape of the system
//!
//! * [`toml`] — a minimal, dependency-free parser for the subset of
//!   TOML the expectation files use (top-level scalars plus
//!   `[[expect]]` blocks).
//! * [`csv`] — a parser for the exhibit CSVs in `results/` (quoted
//!   cells, numeric-or-text values).
//! * [`expect`] — the expectation DSL: [`expect::Expectation`] terms
//!   like `Wins`, `Crossover`, `Monotonic`, `WithinFactor`, `Anomaly`,
//!   `Bound`, `RowCount`, and `Cell`, each evaluated against a parsed
//!   table to produce zero or more [`expect::Violation`]s.
//! * [`report`] — aggregates per-file results into a [`report::Report`]
//!   and renders it as text and as machine-readable JSON
//!   (`conformance.json`).
//!
//! ## Expectation files
//!
//! One TOML file per paper exhibit lives in `expectations/`. Each file
//! names the exhibit it covers, a default CSV, and a list of terms:
//!
//! ```toml
//! exhibit = "Figure 1(a)"
//! file = "fig1a_latency.csv"
//!
//! [[expect]]
//! kind = "wins"
//! series = "Elan us"      # the claimed winner
//! over = "IB us"
//! better = "lower"        # latency: lower is better
//! range = [0, 1024]       # rows whose key (first column) is in range
//! min_factor = 2.0        # Elan-4 wins small messages by >= 2x
//! ```
//!
//! Every term is evaluated — a violated term never stops the run — so
//! one report shows the full blast radius of a behavioral change.
//!
//! The driver ([`run_file`] / [`run_files`]) is what the `conformance`
//! binary in `elanib-bench` wraps with exhibit-coverage checking and
//! BENCH regression gating.

pub mod csv;
pub mod expect;
pub mod report;
pub mod toml;

use std::path::Path;

use expect::{ExpectFile, Violation};
use report::{FileResult, Report, TermResult};

/// Parse one expectation TOML file. Errors carry the file name and the
/// offending line or block so a typo'd expectation fails CI with a
/// message that points at itself.
pub fn parse_expect_file(path: &Path) -> Result<ExpectFile, String> {
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| path.display().to_string());
    let text = std::fs::read_to_string(path).map_err(|e| format!("{name}: cannot read: {e}"))?;
    ExpectFile::parse(&name, &text)
}

/// Evaluate one parsed expectation file against the CSVs under
/// `results_dir`. Missing or unreadable CSVs are reported as term
/// violations (every term against that CSV fails), not as hard errors:
/// a deleted results file is exactly the kind of drift the validator
/// exists to catch.
pub fn run_file(ef: &ExpectFile, results_dir: &Path) -> FileResult {
    let mut terms = Vec::with_capacity(ef.terms.len());
    for (idx, term) in ef.terms.iter().enumerate() {
        let csv_name = term.file.as_deref().unwrap_or(&ef.default_file);
        let table = match csv::Table::load(&results_dir.join(csv_name)) {
            Ok(t) => t,
            Err(e) => {
                terms.push(TermResult {
                    index: idx,
                    kind: term.expectation.kind_name().to_string(),
                    desc: term.expectation.describe(),
                    file: csv_name.to_string(),
                    violations: vec![Violation::new(format!("{csv_name}: {e}"))],
                });
                continue;
            }
        };
        terms.push(TermResult {
            index: idx,
            kind: term.expectation.kind_name().to_string(),
            desc: term.expectation.describe(),
            file: csv_name.to_string(),
            violations: term.expectation.check(&table),
        });
    }
    FileResult {
        source: ef.source.clone(),
        exhibit: ef.exhibit.clone(),
        terms,
    }
}

/// Evaluate a set of expectation files against `results_dir` and
/// aggregate into a [`Report`]. Never fails fast: every term of every
/// file is evaluated.
pub fn run_files(files: &[ExpectFile], results_dir: &Path) -> Report {
    Report {
        files: files.iter().map(|ef| run_file(ef, results_dir)).collect(),
    }
}

/// Load every `*.toml` under `dir`, sorted by file name for a
/// deterministic report order. Parse errors abort (an unparseable
/// expectation is a broken contract, not a failed one).
pub fn load_expect_dir(dir: &Path) -> Result<Vec<ExpectFile>, String> {
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: cannot read directory: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "toml"))
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err(format!("{}: no expectation files found", dir.display()));
    }
    paths.iter().map(|p| parse_expect_file(p)).collect()
}
