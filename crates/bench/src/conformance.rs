//! Driver behind the `conformance` binary: expectation evaluation plus
//! the repo-level gate the dep-free `elanib-validate` crate cannot
//! know about — exhibit *coverage* (every entry of
//! [`elanib_core::EXHIBITS`] must be claimed by an expectation file).
//!
//! Lives in the library (not the binary) so the integration tests can
//! run the exact production code path against mutated CSV fixtures.

use std::path::PathBuf;

use elanib_validate::report::{escape, Report};

/// Everything one conformance run needs.
pub struct ConformanceOptions {
    /// Directory of `*.toml` expectation files.
    pub expectations: PathBuf,
    /// Directory of exhibit CSVs to validate.
    pub results: PathBuf,
    /// Where to write `conformance.json` (`None` = don't).
    pub json: Option<PathBuf>,
}

impl ConformanceOptions {
    pub fn new(expectations: PathBuf, results: PathBuf) -> ConformanceOptions {
        ConformanceOptions {
            expectations,
            results,
            json: None,
        }
    }
}

/// Result of a full conformance run.
pub struct Outcome {
    pub report: Report,
    /// Exhibit ids with no expectation file, and expectation files
    /// naming unknown exhibits.
    pub uncovered: Vec<String>,
    pub unknown_exhibits: Vec<String>,
}

impl Outcome {
    /// Expectations + coverage verdict.
    pub fn ok(&self) -> bool {
        self.report.ok() && self.uncovered.is_empty() && self.unknown_exhibits.is_empty()
    }

    /// Full human-readable rendering: the expectation report, then
    /// coverage.
    pub fn render_text(&self) -> String {
        let mut out = self.report.render_text();
        if !self.uncovered.is_empty() {
            out.push_str(&format!(
                "\nCOVERAGE: {} exhibit(s) have no expectation file: {}\n",
                self.uncovered.len(),
                self.uncovered.join(", ")
            ));
        }
        if !self.unknown_exhibits.is_empty() {
            out.push_str(&format!(
                "\nCOVERAGE: expectation file(s) name unknown exhibits: {}\n",
                self.unknown_exhibits.join(", ")
            ));
        }
        out
    }

    /// `conformance.json`: the validator's JSON with the coverage
    /// verdict appended, still deterministic.
    pub fn to_json(&self) -> String {
        let core = self.report.to_json();
        // Splice our extra fields before the final closing brace.
        let body = core.trim_end().trim_end_matches('}').trim_end();
        let mut out = String::from(body);
        out.push_str(",\n  \"coverage_ok\": ");
        out.push_str(
            if self.uncovered.is_empty() && self.unknown_exhibits.is_empty() {
                "true"
            } else {
                "false"
            },
        );
        out.push_str(&format!(
            ",\n  \"uncovered\": [{}]",
            self.uncovered
                .iter()
                .map(|s| format!("\"{}\"", escape(s)))
                .collect::<Vec<_>>()
                .join(", ")
        ));
        out.push_str(&format!(
            ",\n  \"unknown_exhibits\": [{}]",
            self.unknown_exhibits
                .iter()
                .map(|s| format!("\"{}\"", escape(s)))
                .collect::<Vec<_>>()
                .join(", ")
        ));
        out.push_str(&format!(",\n  \"ok\": {}\n}}\n", self.ok()));
        out
    }
}

/// Run the whole conformance check. `Err` is reserved for setup
/// problems (unreadable dirs, unparseable expectations) — evaluation
/// findings land in the `Outcome`, never fail fast.
pub fn run(opts: &ConformanceOptions) -> Result<Outcome, String> {
    let files = elanib_validate::load_expect_dir(&opts.expectations)?;
    let report = elanib_validate::run_files(&files, &opts.results);

    // Coverage, both directions.
    let covered: Vec<&str> = files.iter().map(|f| f.exhibit.as_str()).collect();
    let uncovered: Vec<String> = elanib_core::EXHIBITS
        .iter()
        .filter(|e| !covered.contains(&e.id))
        .map(|e| e.id.to_string())
        .collect();
    let unknown_exhibits: Vec<String> = files
        .iter()
        .filter(|f| elanib_core::exhibit(&f.exhibit).is_none())
        .map(|f| format!("{} (from {})", f.exhibit, f.source))
        .collect();

    Ok(Outcome {
        report,
        uncovered,
        unknown_exhibits,
    })
}
