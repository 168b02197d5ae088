//! `benchmark --compare A.jsonl B.jsonl`: do two sets of runs agree?
//!
//! Each file holds run records, the line a run prints before its
//! result (other lines are skipped, so whole stdout captures work).
//! For every workload and end-to-end metric this prints each set's
//! median and quartiles and whether the medians agree within the
//! metric's `BENCHMARK.json` bound; for traced runs it checks that every
//! count metric is identical across all runs of one workload and seed.
//! Records of different sweep thread counts or CPU counts measure
//! different programs and are refused. Exit 0 when everything agrees,
//! 1 when something does not, 2 when an input cannot be read or is
//! refused.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

use crate::inputs::Workload;
use crate::json::{parse, Json};
use crate::metrics::{is_count, Better, END_TO_END, PER_LAYER};
use crate::stats::{median, quartiles};

/// One run record: workload, seed, trace flag, the host it ran on and
/// metric values.
#[derive(Debug)]
struct Record {
    workload: String,
    seed: u64,
    trace: bool,
    /// Sweep worker threads and the CPUs available (`nproc`).
    threads: u64,
    nproc: u64,
    metrics: BTreeMap<String, f64>,
}

fn records(path: &Path) -> Result<Vec<Record>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if !line.starts_with("{\"workload\"") {
            continue;
        }
        let bad = |what: &str| format!("{}:{}: {what}", path.display(), i + 1);
        let v = parse(line).map_err(|e| bad(&e))?;
        let metrics = v
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or_else(|| bad("record has no metrics"))?
            .iter()
            .filter_map(|(k, m)| Some((k.clone(), m.get("value")?.as_f64()?)))
            .collect();
        let whole = |key: &str| {
            v.get(key)
                .and_then(Json::as_f64)
                .map(|x| x as u64)
                .ok_or_else(|| bad(&format!("no {key}")))
        };
        out.push(Record {
            workload: v
                .get("workload")
                .and_then(Json::as_str)
                .ok_or_else(|| bad("no workload"))?
                .to_string(),
            seed: whole("seed")?,
            trace: v.get("trace").and_then(Json::as_f64) == Some(1.0),
            threads: whole("threads")?,
            nproc: whole("nproc")?,
            metrics,
        });
    }
    if out.is_empty() {
        return Err(format!("{}: no run records", path.display()));
    }
    Ok(out)
}

/// Every record must come from the same sweep thread count on the same
/// number of CPUs: otherwise the two sets measured different programs.
fn same_host(records: &[&Record]) -> Result<(), String> {
    let first = records.first().map(|r| (r.threads, r.nproc));
    match records.iter().find(|r| Some((r.threads, r.nproc)) != first) {
        Some(r) => {
            let (t, n) = first.unwrap_or_default();
            Err(format!(
                "records differ in threads/nproc ({t}/{n} vs {}/{}); refusing to compare them",
                r.threads, r.nproc
            ))
        }
        None => Ok(()),
    }
}

/// `bound` of every end-to-end metric in `BENCHMARK.json`.
fn bounds() -> Result<BTreeMap<String, f64>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    let doc = parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    doc.get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str);
            let bound = m.get("bound").and_then(Json::as_f64);
            match (name, bound) {
                (Some(n), Some(b)) => Ok((n.to_string(), b)),
                _ => Err("BENCHMARK.json end_to_end entry without name or bound".to_string()),
            }
        })
        .collect()
}

/// Median and quartiles, formatted `median [q1, q3] (n)`.
fn summary(xs: &[f64]) -> String {
    let f = |x: f64| {
        if x.abs() >= 1e4 {
            format!("{x:.0}")
        } else {
            format!("{x:.6}")
        }
    };
    match (median(xs), quartiles(xs)) {
        (Some(m), Some((q1, q3))) => format!("{} [{}, {}] ({})", f(m), f(q1), f(q3), xs.len()),
        (Some(m), None) => format!("{} ({})", f(m), xs.len()),
        _ => "no runs".into(),
    }
}

/// Relative change of B's median over A's: `None` when either is empty.
fn relative_change(a: &[f64], b: &[f64]) -> Option<f64> {
    let (ma, mb) = (median(a)?, median(b)?);
    Some(if ma == 0.0 {
        if mb == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (mb - ma) / ma.abs()
    })
}

pub fn run(a: &Path, b: &Path) -> ExitCode {
    let loaded = (|| {
        let (ra, rb) = (records(a)?, records(b)?);
        same_host(&ra.iter().chain(&rb).collect::<Vec<_>>())?;
        Ok::<_, String>((ra, rb, bounds()?))
    })();
    let (ra, rb, bounds) = match loaded {
        Ok(x) => x,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let mut agree = true;
    println!(
        "{:<6} {:<14} {:<44} {:<44} {:>8} {:>6}  verdict",
        "load", "metric", "A median [q1, q3] (n)", "B median [q1, q3] (n)", "change", "bound"
    );
    for w in Workload::ALL.map(Workload::name) {
        let values = |rs: &[Record], metric: &str| -> Vec<f64> {
            rs.iter()
                .filter(|r| r.workload == w && !r.trace)
                .filter_map(|r| r.metrics.get(metric).copied())
                .collect()
        };
        for m in END_TO_END {
            let (va, vb) = (values(&ra, m.name), values(&rb, m.name));
            if va.is_empty() && vb.is_empty() {
                continue;
            }
            let bound = bounds.get(m.name).copied().unwrap_or(0.0);
            let change = relative_change(&va, &vb);
            let verdict = match change {
                None => "MISSING",
                Some(c) if c.abs() <= bound => "agree",
                Some(c) if (c > 0.0) == (m.better == Better::Lower) => "DIFFER: B worse",
                Some(_) => "DIFFER: B better",
            };
            agree &= verdict == "agree";
            println!(
                "{w:<6} {:<14} {:<44} {:<44} {:>7.2}% {:>5.0}%  {verdict}",
                m.name,
                summary(&va),
                summary(&vb),
                change.unwrap_or(f64::NAN) * 100.0,
                bound * 100.0,
            );
        }
    }

    // Deterministic counts of traced runs, per workload and seed.
    let mut groups: BTreeMap<(String, u64), Vec<&Record>> = BTreeMap::new();
    for r in ra.iter().chain(&rb).filter(|r| r.trace) {
        groups
            .entry((r.workload.clone(), r.seed))
            .or_default()
            .push(r);
    }
    for ((w, seed), rs) in &groups {
        let differing: Vec<&str> = PER_LAYER
            .iter()
            .filter(|m| is_count(m.unit))
            .filter(|m| {
                let first = rs[0].metrics.get(m.name);
                rs.iter().any(|r| r.metrics.get(m.name) != first)
            })
            .map(|m| m.name)
            .collect();
        if differing.is_empty() {
            println!(
                "{w} seed {seed}: per-layer counts identical across {} traced runs",
                rs.len()
            );
        } else {
            agree = false;
            println!(
                "{w} seed {seed}: per-layer counts DIFFER across {} traced runs: {}",
                rs.len(),
                differing.join(", ")
            );
        }
    }
    if agree {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relative_change_is_signed_and_guarded() {
        assert_eq!(
            relative_change(&[1.0, 2.0, 3.0], &[2.2, 2.2, 2.2]),
            Some(0.10000000000000009)
        );
        assert_eq!(relative_change(&[], &[1.0]), None);
        assert_eq!(relative_change(&[0.0], &[0.0]), Some(0.0));
    }

    #[test]
    fn records_skip_other_lines_and_read_values() {
        let dir = std::env::temp_dir().join(format!("benchmark-compare-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("runs.jsonl");
        std::fs::write(
            &p,
            "[benchmark cg ...]\n\
             {\"workload\":\"cg\",\"seed\":0,\"trace\":0,\"threads\":2,\"nproc\":4,\"metrics\":{\"wall_s\":{\"value\":3.5,\"unit\":\"s\",\"min\":3.4,\"max\":3.6,\"n\":3}}}\n\
             {\"correct\":true,\"attempted\":1,\"failed\":0,\"metrics\":{}}\n",
        )
        .unwrap();
        let rs = records(&p).unwrap();
        assert_eq!(rs.len(), 1);
        assert_eq!(
            (rs[0].workload.as_str(), rs[0].seed, rs[0].trace),
            ("cg", 0, false)
        );
        assert_eq!((rs[0].threads, rs[0].nproc), (2, 4));
        assert_eq!(rs[0].metrics["wall_s"], 3.5);
        std::fs::write(&p, "nothing here\n").unwrap();
        assert!(records(&p).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn records_from_different_hosts_are_refused() {
        let rec = |threads, nproc| Record {
            workload: "md".into(),
            seed: 0,
            trace: false,
            threads,
            nproc,
            metrics: BTreeMap::new(),
        };
        let (a, b, c) = (rec(2, 2), rec(2, 2), rec(2, 8));
        assert_eq!(same_host(&[&a, &b]), Ok(()));
        assert!(same_host(&[&a, &b, &c]).is_err());
        assert!(same_host(&[&rec(1, 2), &a]).is_err());
    }
}
