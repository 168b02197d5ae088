//! The `elanib-report` binary's library half: the repository
//! benchmark's run records plus the conformance verdict, rendered as
//! one perf dashboard.
//!
//! Inputs are whole stdout captures of `benchmark/` runs and the
//! conformance run's `conformance.json`. Of a capture only the run
//! records count, the lines starting `{"workload"` (format in
//! `benchmark/README.md`, "Output and `--compare`"): an untraced record
//! (`"trace":0`) carries the end-to-end metrics, a traced one
//! (`"trace":1`) the per-layer metrics, each as
//! `"name":{"value":…,"unit":…}`. Output is a markdown dashboard
//! (`perf_report.md`) and a JSON twin (`perf_report.json`), both pure
//! functions of the input files: records group by workload and seed in
//! order of first appearance, so re-running the report on the same
//! inputs is byte-identical.
//!
//! The report only renders. Gates live where the numbers are made:
//! `benchmark --compare` for the traced counts, `kernelbench` for
//! kernel events/s and allocations, `conformance` for the paper's
//! shapes.

use std::path::{Path, PathBuf};

/// One metric of a run record: name, value, unit.
type Metric = (String, f64, String);

/// One benchmark run record.
#[derive(Debug)]
struct RunRecord {
    workload: String,
    seed: u64,
    trace: bool,
    /// In record order (the benchmark's catalogue order).
    metrics: Vec<Metric>,
}

/// The generated report.
#[derive(Debug)]
pub struct PerfReport {
    pub markdown: String,
    pub json: String,
}

/// The string value of the first `"key":"…"` in `line`.
fn str_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":\"");
    let rest = &line[line.find(&pat)? + pat.len()..];
    Some(&rest[..rest.find('"')?])
}

/// The number after the first `"key":` in `line`, unparsed (the
/// benchmark prints plain decimals).
fn num_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let rest = &line[line.find(&pat)? + pat.len()..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .unwrap_or(rest.len());
    Some(&rest[..end])
}

/// The `"metrics"` object of a run record, entries in record order.
/// Each entry is a flat object, `"name":{"value":…,"unit":…,…}`; a
/// record cut short or otherwise out of that shape reads `None`.
fn metrics(line: &str) -> Option<Vec<Metric>> {
    const OPEN: &str = "\"metrics\":{";
    let mut rest = &line[line.find(OPEN)? + OPEN.len()..];
    let mut out = Vec::new();
    while !rest.starts_with('}') {
        let (name, body) = rest.strip_prefix('"')?.split_once("\":{")?;
        let (entry, tail) = body.split_once('}')?;
        let value = num_field(entry, "value")?.parse().ok()?;
        let unit = str_field(entry, "unit")?;
        out.push((name.to_string(), value, unit.to_string()));
        rest = tail.strip_prefix(',').unwrap_or(tail);
    }
    Some(out)
}

fn parse_record(line: &str) -> Result<RunRecord, &'static str> {
    Ok(RunRecord {
        workload: str_field(line, "workload")
            .ok_or("no workload")?
            .to_string(),
        seed: num_field(line, "seed")
            .and_then(|v| v.parse().ok())
            .ok_or("no seed")?,
        trace: num_field(line, "trace").ok_or("no trace")? == "1",
        metrics: metrics(line).ok_or("unreadable metrics")?,
    })
}

/// Every run record of every input, in input then line order. A file
/// that cannot be read, holds a malformed run record or holds none at
/// all is an error naming the file.
fn load(inputs: &[PathBuf]) -> Result<Vec<RunRecord>, String> {
    let mut out = Vec::new();
    for path in inputs {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let before = out.len();
        for (i, line) in text.lines().enumerate() {
            if line.starts_with("{\"workload\"") {
                let rec = parse_record(line).map_err(|what| {
                    format!(
                        "{}:{}: malformed run record ({what})",
                        path.display(),
                        i + 1
                    )
                })?;
                out.push(rec);
            }
        }
        if out.len() == before {
            return Err(format!("{}: no benchmark run records", path.display()));
        }
    }
    Ok(out)
}

/// Conformance summary pulled out of `conformance.json`.
#[derive(Debug, Default)]
struct ConformanceSummary {
    present: bool,
    ok: bool,
    terms: u64,
    failed_terms: u64,
}

fn load_conformance(path: &Path) -> Result<ConformanceSummary, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let flat = text.replace(char::is_whitespace, "");
    Ok(ConformanceSummary {
        present: true,
        ok: flat.contains("\"ok\":true"),
        terms: num_field(&flat, "terms")
            .and_then(|v| v.parse().ok())
            .unwrap_or(0),
        failed_terms: num_field(&flat, "failed_terms")
            .and_then(|v| v.parse().ok())
            .unwrap_or(0),
    })
}

/// The records of one workload and seed.
struct Group<'a> {
    workload: &'a str,
    seed: u64,
    runs: Vec<&'a RunRecord>,
}

/// Group `records` with the given trace flag by (workload, seed), in
/// order of first appearance.
fn groups(records: &[RunRecord], trace: bool) -> Vec<Group<'_>> {
    let mut out: Vec<Group> = Vec::new();
    for r in records.iter().filter(|r| r.trace == trace) {
        match out
            .iter_mut()
            .find(|g| g.workload == r.workload && g.seed == r.seed)
        {
            Some(g) => g.runs.push(r),
            None => out.push(Group {
                workload: &r.workload,
                seed: r.seed,
                runs: vec![r],
            }),
        }
    }
    out
}

/// Metric names and units over `groups`, in order of first appearance.
fn columns(groups: &[Group]) -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = Vec::new();
    for (name, _, unit) in groups.iter().flat_map(|g| &g.runs).flat_map(|r| &r.metrics) {
        if !out.iter().any(|(n, _)| n == name) {
            out.push((name.clone(), unit.clone()));
        }
    }
    out
}

fn value(r: &RunRecord, name: &str) -> Option<f64> {
    r.metrics.iter().find(|m| m.0 == name).map(|m| m.1)
}

fn median(mut xs: Vec<f64>) -> Option<f64> {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(xs[n / 2]),
        _ => Some((xs[n / 2 - 1] + xs[n / 2]) / 2.0),
    }
}

/// Markdown cell: counts and large values whole, the rest to four
/// decimals.
fn cell(v: Option<f64>, unit: &str) -> String {
    match v {
        None => "—".to_string(),
        Some(v) if matches!(unit, "count" | "B") || v.abs() >= 1000.0 => format!("{v:.0}"),
        Some(v) => format!("{v:.4}"),
    }
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// One JSON object per group: workload, seed, runs and the `cols`
/// metrics `value` gives it, absent values skipped.
fn json_groups(
    groups: &[Group],
    cols: &[(String, String)],
    value: impl Fn(&Group, &str) -> Option<f64>,
) -> String {
    groups
        .iter()
        .map(|g| {
            let metrics: Vec<String> = cols
                .iter()
                .filter_map(|(name, _)| Some(format!("{}: {}", json_str(name), value(g, name)?)))
                .collect();
            format!(
                "    {{\"workload\": {}, \"seed\": {}, \"runs\": {}, \"metrics\": {{{}}}}}",
                json_str(g.workload),
                g.seed,
                g.runs.len(),
                metrics.join(", ")
            )
        })
        .collect::<Vec<_>>()
        .join(",\n")
}

/// Generate the dashboard from benchmark captures (`inputs`, in order)
/// and an optional `conformance.json`. Pure function of the file
/// contents; `Err` names the file that could not be used.
pub fn generate(inputs: &[PathBuf], conformance: Option<&Path>) -> Result<PerfReport, String> {
    let records = load(inputs)?;
    let conf = match conformance {
        Some(p) => load_conformance(p)?,
        None => ConformanceSummary::default(),
    };
    let file_name = |p: &Path| {
        p.file_name()
            .map_or_else(|| p.display().to_string(), |n| n.to_string_lossy().into())
    };
    let names: Vec<String> = inputs
        .iter()
        .map(|p| file_name(p))
        .chain(conformance.map(file_name))
        .collect();

    // End to end: the median over each group's untraced runs.
    let e2e = groups(&records, false);
    let e2e_cols = columns(&e2e);
    let e2e_value =
        |g: &Group, name: &str| median(g.runs.iter().filter_map(|r| value(r, name)).collect());
    // Per layer: each group's last traced run.
    let layer = groups(&records, true);
    let layer_cols = columns(&layer);
    let layer_value = |g: &Group, name: &str| value(g.runs.last()?, name);

    // ---- markdown ----
    let mut md = String::from("# elanib perf report\n\n");
    md.push_str(&format!("Inputs: {}\n\n", names.join(", ")));

    md.push_str("## End to end (untraced benchmark runs)\n\n");
    if e2e.is_empty() {
        md.push_str("No untraced run records.\n\n");
    } else {
        md.push_str("Median over the runs of each workload and seed.\n\n");
        md.push_str("| workload | seed | runs |");
        for (name, unit) in &e2e_cols {
            md.push_str(&format!(" {name} ({unit}) |"));
        }
        md.push_str("\n|---|---:|---:|");
        md.push_str(&"---:|".repeat(e2e_cols.len()));
        md.push('\n');
        for g in &e2e {
            md.push_str(&format!(
                "| {} | {} | {} |",
                g.workload,
                g.seed,
                g.runs.len()
            ));
            for (name, unit) in &e2e_cols {
                md.push_str(&format!(" {} |", cell(e2e_value(g, name), unit)));
            }
            md.push('\n');
        }
        md.push('\n');
    }

    md.push_str("## Per layer (traced benchmark runs)\n\n");
    if layer.is_empty() {
        md.push_str("No traced run records.\n\n");
    } else {
        md.push_str("The last traced run of each workload and seed.\n\n");
        md.push_str("| metric | unit |");
        for g in &layer {
            md.push_str(&format!(" {} seed {} |", g.workload, g.seed));
        }
        md.push_str("\n|---|---|");
        md.push_str(&"---:|".repeat(layer.len()));
        md.push('\n');
        for (name, unit) in &layer_cols {
            md.push_str(&format!("| {name} | {unit} |"));
            for g in &layer {
                md.push_str(&format!(" {} |", cell(layer_value(g, name), unit)));
            }
            md.push('\n');
        }
        md.push('\n');
    }

    md.push_str("## Conformance\n\n");
    if conf.present {
        md.push_str(&format!(
            "conformance.json: **{}**, {} of {} term(s) violated.\n",
            if conf.ok { "ok" } else { "FAILING" },
            conf.failed_terms,
            conf.terms
        ));
    } else {
        md.push_str("No conformance.json supplied.\n");
    }

    // ---- json twin ----
    let mut js = String::from("{\n");
    js.push_str(&format!(
        "  \"inputs\": [{}],\n",
        names
            .iter()
            .map(|s| json_str(s))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    js.push_str(&format!(
        "  \"end_to_end\": [\n{}\n  ],\n",
        json_groups(&e2e, &e2e_cols, e2e_value)
    ));
    js.push_str(&format!(
        "  \"per_layer\": [\n{}\n  ],\n",
        json_groups(&layer, &layer_cols, layer_value)
    ));
    js.push_str(&format!(
        "  \"conformance\": {{\"present\": {}, \"ok\": {}, \"terms\": {}, \"failed_terms\": {}}}\n}}\n",
        conf.present, conf.ok, conf.terms, conf.failed_terms
    ));

    Ok(PerfReport {
        markdown: md,
        json: js,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write(dir: &Path, name: &str, body: &str) -> PathBuf {
        let p = dir.join(name);
        std::fs::write(&p, body).unwrap();
        p
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("elanib_report_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    /// One untraced run of `md` as the benchmark prints it: a progress
    /// line, the run record, the result line.
    const UNTRACED: &str = concat!(
        "[benchmark md: 27 warm passes]\n",
        "{\"workload\":\"md\",\"seed\":0,\"trace\":0,\"threads\":2,\"nproc\":2,\"warm_passes\":27,\"cold_starts\":7,\"correct\":true,\"attempted\":1519,\"failed\":0,\"metrics\":{\"wall_s\":{\"value\":0.514,\"unit\":\"s\",\"min\":0.49,\"max\":0.61,\"n\":27},\"cpu_s\":{\"value\":1.02,\"unit\":\"s\",\"min\":0.98,\"max\":1.2,\"n\":27},\"events_per_s\":{\"value\":8450000.5,\"unit\":\"1/s\",\"min\":7000000,\"max\":8800000,\"n\":27},\"peak_rss_mb\":{\"value\":12.1,\"unit\":\"MiB\",\"min\":12,\"max\":12.3,\"n\":7},\"setup_s\":{\"value\":0.559,\"unit\":\"s\",\"min\":0.5,\"max\":0.6,\"n\":7}}}\n",
        "{\"correct\":true,\"attempted\":1519,\"failed\":0,\"metrics\":{}}\n",
    );
    /// One traced run of `md`, a few of its per-layer metrics.
    const TRACED: &str = concat!(
        "{\"workload\":\"md\",\"seed\":0,\"trace\":1,\"threads\":2,\"nproc\":2,\"warm_passes\":3,\"cold_starts\":3,\"correct\":true,\"attempted\":100,\"failed\":0,\"metrics\":{\"simcore.events\":{\"value\":4340631,\"unit\":\"count\"},\"simcore.ns_per_event\":{\"value\":279.25,\"unit\":\"ns\"},\"host.allocs_per_event\":{\"value\":0.096,\"unit\":\"1/event\"},\"fabric.wire_bytes\":{\"value\":123456789,\"unit\":\"B\"}}}\n",
        "{\"correct\":true,\"attempted\":100,\"failed\":0,\"metrics\":{}}\n",
    );

    #[test]
    fn run_records_parse_in_catalogue_order() {
        let line = UNTRACED.lines().nth(1).unwrap();
        let r = parse_record(line).unwrap();
        assert_eq!((r.workload.as_str(), r.seed, r.trace), ("md", 0, false));
        let names: Vec<&str> = r.metrics.iter().map(|m| m.0.as_str()).collect();
        assert_eq!(
            names,
            ["wall_s", "cpu_s", "events_per_s", "peak_rss_mb", "setup_s"]
        );
        assert_eq!(
            r.metrics[2],
            ("events_per_s".into(), 8450000.5, "1/s".into())
        );
        let t = parse_record(TRACED.lines().next().unwrap()).unwrap();
        assert!(t.trace);
        assert_eq!(
            t.metrics[0],
            ("simcore.events".into(), 4340631.0, "count".into())
        );
    }

    #[test]
    fn report_renders_both_record_kinds_and_is_byte_identical_across_runs() {
        let dir = tmpdir("full");
        let bench = write(&dir, "runs.jsonl", &format!("{UNTRACED}{TRACED}"));
        let conf = write(
            &dir,
            "conformance.json",
            "{\n  \"pass\": true,\n  \"files\": 14,\n  \"terms\": 102,\n  \"failed_terms\": 0,\n  \"exhibits\": [],\n  \"ok\": true\n}\n",
        );
        let r1 = generate(std::slice::from_ref(&bench), Some(&conf)).unwrap();
        let r2 = generate(std::slice::from_ref(&bench), Some(&conf)).unwrap();
        assert_eq!(r1.markdown, r2.markdown, "markdown must be deterministic");
        assert_eq!(r1.json, r2.json, "json must be deterministic");
        let md = &r1.markdown;
        assert!(
            md.contains("| workload | seed | runs | wall_s (s) |"),
            "{md}"
        );
        assert!(
            md.contains("| md | 0 | 1 | 0.5140 | 1.0200 | 8450000 |"),
            "{md}"
        );
        assert!(md.contains("| metric | unit | md seed 0 |"), "{md}");
        assert!(md.contains("| simcore.events | count | 4340631 |"), "{md}");
        assert!(
            md.contains("| host.allocs_per_event | 1/event | 0.0960 |"),
            "{md}"
        );
        assert!(md.contains("| fabric.wire_bytes | B | 123456789 |"), "{md}");
        assert!(md.contains("**ok**, 0 of 102 term(s) violated"), "{md}");
        assert!(
            r1.json.contains("\"simcore.events\": 4340631"),
            "{}",
            r1.json
        );
        assert!(r1.json.contains("\"wall_s\": 0.514"), "{}", r1.json);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn untraced_runs_report_their_median() {
        let dir = tmpdir("median");
        let slower = UNTRACED.replace("\"value\":0.514", "\"value\":0.714");
        let slowest = UNTRACED.replace("\"value\":0.514", "\"value\":0.914");
        let bench = write(&dir, "runs.jsonl", &format!("{slowest}{UNTRACED}{slower}"));
        let r = generate(&[bench], None).unwrap();
        assert!(
            r.markdown.contains("| md | 0 | 3 | 0.7140 |"),
            "{}",
            r.markdown
        );
        assert!(
            r.markdown.contains("No traced run records."),
            "{}",
            r.markdown
        );
        assert!(r.markdown.contains("No conformance.json supplied."));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn unusable_inputs_are_errors_naming_the_file() {
        let dir = tmpdir("bad");
        let missing = dir.join("absent.jsonl");
        let e = generate(std::slice::from_ref(&missing), None).unwrap_err();
        assert!(e.contains("absent.jsonl"), "{e}");
        let empty = write(&dir, "empty.jsonl", "[benchmark md]\nnot a record\n");
        let e = generate(&[empty], None).unwrap_err();
        assert!(
            e.contains("empty.jsonl") && e.contains("no benchmark run records"),
            "{e}"
        );
        let cut = write(
            &dir,
            "cut.jsonl",
            "{\"workload\":\"md\",\"seed\":0,\"trace\":1,\"metrics\":{\"simcore.events\":{\"val",
        );
        let e = generate(&[cut], None).unwrap_err();
        assert!(e.contains("cut.jsonl:1: malformed run record"), "{e}");
        assert!(!e.contains('\n'), "one line: {e}");
        let _ = std::fs::remove_dir_all(dir);
    }
}
