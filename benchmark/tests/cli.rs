//! The benchmark binary end to end, run from the repository root as the
//! README documents: result lines, metric names, span file, exit codes.

use std::process::{Command, Output};

#[allow(dead_code)]
#[path = "../src/json.rs"]
mod json;

use json::Json;

fn benchmark() -> Command {
    let mut c = Command::new(env!("CARGO_BIN_EXE_benchmark"));
    c.current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/.."));
    for (k, _) in std::env::vars_os() {
        if k.to_string_lossy().starts_with("ELANIB_") {
            c.env_remove(k);
        }
    }
    c
}

/// Metric names `BENCHMARK.json` lists under `section`.
fn listed(section: &str) -> Vec<String> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    json::parse(&text)
        .expect("BENCHMARK.json parses")
        .get(section)
        .and_then(Json::as_arr)
        .expect("a list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("a name")
                .to_string()
        })
        .collect()
}

/// The run record and the result object: the last two stdout lines.
fn record_and_result(out: &Output) -> (Json, Json) {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(lines.len() >= 2, "stdout: {stdout}");
    let parse = |l: &str| json::parse(l).unwrap_or_else(|e| panic!("{e}: {l}"));
    (parse(lines[lines.len() - 2]), parse(lines[lines.len() - 1]))
}

fn metric_names(result: &Json) -> Vec<String> {
    let m = result
        .get("metrics")
        .and_then(Json::as_obj)
        .expect("metrics");
    let mut names: Vec<String> = m.keys().cloned().collect();
    names.sort();
    names
}

fn sorted(mut v: Vec<String>) -> Vec<String> {
    v.sort();
    v
}

#[test]
fn untraced_run_reports_every_end_to_end_metric() {
    let out = benchmark()
        .args(["--workload", "md", "--seconds", "1"])
        .output()
        .expect("benchmark runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let (record, result) = record_and_result(&out);
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
    assert!(result.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
    assert_eq!(metric_names(&result), sorted(listed("end_to_end")));
    assert_eq!(record.get("workload").and_then(Json::as_str), Some("md"));
    let n = ["metrics", "wall_s", "n"]
        .iter()
        .try_fold(&record, |j, k| j.get(k))
        .and_then(Json::as_f64);
    assert!(n.unwrap() >= 3.0, "{n:?}");
}

#[test]
fn traced_run_reports_per_layer_metrics_and_writes_spans() {
    let spans = std::env::temp_dir().join(format!("benchmark-spans-{}.jsonl", std::process::id()));
    let out = benchmark()
        .args([
            "--workload",
            "md",
            "--seconds",
            "1",
            "--trace",
            "1",
            "--out",
        ])
        .arg(&spans)
        .output()
        .expect("benchmark runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let (_, result) = record_and_result(&out);
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
    assert_eq!(metric_names(&result), sorted(listed("per_layer")));
    let points = ["metrics", "point.count", "value"]
        .iter()
        .try_fold(&result, |j, k| j.get(k));
    assert_eq!(points, Some(&Json::Num(48.0)));

    let text = std::fs::read_to_string(&spans).expect("span file written");
    let names: Vec<String> = text
        .lines()
        .map(|l| {
            let span = json::parse(l).expect("span line parses");
            span.get("name")
                .and_then(Json::as_str)
                .expect("a name")
                .to_string()
        })
        .collect();
    for want in ["pass", "point", "apps.md_step_time", "mpisim.world_build"] {
        assert!(names.iter().any(|n| n == want), "no {want} span");
    }
    let _ = std::fs::remove_file(&spans);
}

/// A typed input error: exit 2, one line on stderr, no result.
fn assert_input_error(mut c: Command, what: &str) {
    let out = c.output().expect("benchmark runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{what}: {stderr}");
    assert!(out.stdout.is_empty(), "{what} printed a result");
    assert_eq!(stderr.lines().count(), 1, "{what}: {stderr}");
}

#[test]
fn input_errors_exit_2_with_one_line() {
    for args in [
        &["--workload", "nbody"][..],
        &["--workload", "md", "--seed", "-3"],
        &["--workload", "md", "--threads", "2"],
        &[
            "--workload",
            "md",
            "--trace",
            "1",
            "--out",
            "/proc/benchmark-spans.jsonl",
        ],
        &["--compare", "missing-a.jsonl", "missing-b.jsonl"],
    ] {
        let mut c = benchmark();
        c.args(args);
        assert_input_error(c, &args.join(" "));
    }
    let mut c = benchmark();
    c.args(["--workload", "md"])
        .env("ELANIB_FAULTS", "loss=1e-3");
    assert_input_error(c, "stray ELANIB_FAULTS");
}

/// On one CPU the 2-thread closed loop would oversubscribe the host: the
/// benchmark refuses to run. `taskset` pins it to one CPU, which lowers
/// what `available_parallelism` reports.
#[test]
fn one_cpu_is_refused() {
    if let Err(e) = Command::new("taskset").arg("--version").output() {
        eprintln!("skipped: taskset cannot run here: {e}");
        return;
    }
    let mut c = Command::new("taskset");
    c.args([
        "-c",
        "0",
        env!("CARGO_BIN_EXE_benchmark"),
        "--workload",
        "md",
    ]);
    c.current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/.."));
    assert_input_error(c, "one CPU");
}
