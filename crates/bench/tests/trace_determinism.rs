//! Regression tests for the tracing layer's two core promises:
//!
//! 1. **Observation must not perturb the experiment.** Rebuilding the
//!    Figure 2 study with full tracing forced on must produce a CSV
//!    table byte-identical to the untraced build — the tracer only
//!    reads simulated time, never advances it.
//! 2. **The sinks must be loadable.** The Chrome `trace_event` export
//!    of the traced run has to parse as JSON (checked with a small
//!    recursive-descent validator — no serde in this workspace) with
//!    monotone timestamps within each process, and the metrics CSV has
//!    to carry the headline counters EXPERIMENTS.md documents.
//!
//! Tracing is driven through `set_override` rather than `ELANIB_TRACE`
//! because the env configuration is cached per process.

use elanib_apps::md::{ljs, MdProblem};
use elanib_bench::md_figure_table;
use elanib_simcore::trace::{self, TraceConfig};

/// Skip whitespace.
fn ws(b: &[u8], i: &mut usize) {
    while *i < b.len() && matches!(b[*i], b' ' | b'\t' | b'\n' | b'\r') {
        *i += 1;
    }
}

/// Consume one JSON string (opening quote already checked).
fn string(b: &[u8], i: &mut usize) -> bool {
    debug_assert_eq!(b[*i], b'"');
    *i += 1;
    while *i < b.len() {
        match b[*i] {
            b'"' => {
                *i += 1;
                return true;
            }
            b'\\' => *i += 2,
            _ => *i += 1,
        }
    }
    false
}

/// Consume one JSON value; returns false on malformed input.
fn value(b: &[u8], i: &mut usize) -> bool {
    ws(b, i);
    if *i >= b.len() {
        return false;
    }
    match b[*i] {
        b'"' => string(b, i),
        b'{' => {
            *i += 1;
            ws(b, i);
            if *i < b.len() && b[*i] == b'}' {
                *i += 1;
                return true;
            }
            loop {
                ws(b, i);
                if *i >= b.len() || b[*i] != b'"' || !string(b, i) {
                    return false;
                }
                ws(b, i);
                if *i >= b.len() || b[*i] != b':' {
                    return false;
                }
                *i += 1;
                if !value(b, i) {
                    return false;
                }
                ws(b, i);
                match b.get(*i) {
                    Some(b',') => *i += 1,
                    Some(b'}') => {
                        *i += 1;
                        return true;
                    }
                    _ => return false,
                }
            }
        }
        b'[' => {
            *i += 1;
            ws(b, i);
            if *i < b.len() && b[*i] == b']' {
                *i += 1;
                return true;
            }
            loop {
                if !value(b, i) {
                    return false;
                }
                ws(b, i);
                match b.get(*i) {
                    Some(b',') => *i += 1,
                    Some(b']') => {
                        *i += 1;
                        return true;
                    }
                    _ => return false,
                }
            }
        }
        b't' => eat(b, i, b"true"),
        b'f' => eat(b, i, b"false"),
        b'n' => eat(b, i, b"null"),
        b'-' | b'0'..=b'9' => {
            let start = *i;
            while *i < b.len() && matches!(b[*i], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9') {
                *i += 1;
            }
            std::str::from_utf8(&b[start..*i])
                .ok()
                .and_then(|s| s.parse::<f64>().ok())
                .is_some()
        }
        _ => false,
    }
}

fn eat(b: &[u8], i: &mut usize, lit: &[u8]) -> bool {
    if b[*i..].starts_with(lit) {
        *i += lit.len();
        true
    } else {
        false
    }
}

/// True iff `s` is exactly one well-formed JSON value.
fn json_is_valid(s: &str) -> bool {
    let b = s.as_bytes();
    let mut i = 0;
    if !value(b, &mut i) {
        return false;
    }
    ws(b, &mut i);
    i == b.len()
}

/// Pull a `"key":<number>` field out of one event line, if present.
fn num_field(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let at = line.find(&pat)? + pat.len();
    let rest = &line[at..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

#[test]
fn fig2_csv_identical_traced_vs_untraced_and_sinks_are_loadable() {
    let problem = MdProblem { steps: 4, ..ljs() };
    let nodes = [1usize, 2, 4];

    // Phase 1: tracing forced OFF (an explicit disabled override, so a
    // stray ELANIB_TRACE in the environment can't flip this phase).
    trace::set_override(Some(TraceConfig::default()));
    let (plain, _) = md_figure_table(problem, &nodes);

    // Phase 2: both sinks forced ON, flushing into a scratch dir.
    let dir = std::env::temp_dir().join("elanib-trace-determinism-test");
    let _ = std::fs::remove_dir_all(&dir);
    trace::set_override(Some(TraceConfig::all()));
    let (traced, _) = md_figure_table(problem, &nodes);
    let files = trace::flush("fig2_traced", &dir).expect("traced run must collect traces");
    trace::set_override(None);

    assert_eq!(
        plain.to_csv(),
        traced.to_csv(),
        "tracing must not perturb the fig2 study by a single byte"
    );

    // Chrome export: valid JSON, timestamps monotone within each pid.
    let tj = files.trace_json.expect("events were recorded");
    let text = std::fs::read_to_string(&tj).unwrap();
    assert!(json_is_valid(&text), "chrome trace must parse as JSON");
    let mut last_ts: std::collections::HashMap<u64, f64> = Default::default();
    let mut seen = 0usize;
    for line in text.lines() {
        let (Some(ts), Some(pid)) = (num_field(line, "ts"), num_field(line, "pid")) else {
            continue; // '[' / ']' / "M" metadata records carry no ts
        };
        let prev = last_ts.entry(pid as u64).or_insert(f64::NEG_INFINITY);
        assert!(
            ts >= *prev,
            "timestamps must be monotone within pid {pid}: {ts} after {prev}"
        );
        *prev = ts;
        seen += 1;
    }
    assert!(
        seen > 100,
        "expected a real event stream, got {seen} events"
    );

    // Metrics summary: the headline counters of the acceptance surface.
    let mc = files.metrics_csv.expect("metrics were recorded");
    let csv = std::fs::read_to_string(&mc).unwrap();
    for needle in [
        "regcache.hits",
        "regcache.misses",
        "fabric.link",
        "mpi.unexpected_depth",
        "world.unexpected",
        "coll.count",
    ] {
        assert!(
            csv.contains(needle),
            "metrics csv must mention {needle}:\n{csv}"
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}
