//! Driver behind the `elanib-report` binary: merge BENCH history,
//! profiler output and `conformance.json` into one perf dashboard.
//!
//! Inputs are the flat JSONL records the rest of the repo already
//! emits to `ELANIB_BENCH_JSON` — `{"kind":"regen"}` per-exhibit wall
//! times, `{"kind":"sweep"}` throughput records (with the schema-3
//! per-worker breakdown), `{"kind":"profile"}` kernel-profiler
//! flushes — plus the conformance run's JSON verdict. Output is a
//! markdown dashboard (`perf_report.md`) and a structured JSON twin
//! (`perf_report.json`), both deterministic functions of the input
//! files: records are processed in file order, line order, and every
//! table is sorted by explicit keys, so re-running the report on the
//! same inputs is byte-identical.
//!
//! The report also extends the warn-only regression gate from wall
//! time to **per-event-type cost**: for each exhibit with profile
//! history, the latest `ns/event` of every kernel bucket is compared
//! against the best historical value; a bucket that got more than
//! `ratio` times slower is flagged (warning by default, failure with
//! `--strict`) — the same generous-threshold policy as the bench gate,
//! but attributed to a named kernel bucket instead of a whole run.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use crate::conformance::{json_num_field, json_str_field};

/// Kernel buckets a profile record reports, in record order.
const BUCKETS: [&str; 4] = ["poll", "timer", "call", "wake"];

/// Buckets with fewer events than this are not cost-gated: per-event
/// cost over a handful of dispatches is process noise. Shared with the
/// BENCH rotation so it preserves exactly the records this gate
/// considers "best".
pub(crate) const GATE_MIN_EVENTS: f64 = 10_000.0;

/// One `{"kind":"sweep"}` or `{"kind":"regen"}` record.
#[derive(Clone, Debug, Default)]
struct WallRecord {
    label: String,
    wall_s: f64,
    events_per_sec: Option<f64>,
    threads: Option<f64>,
    jobs: Option<f64>,
    /// Per-worker `(jobs, events, busy_s)` from the schema-3 breakdown.
    workers: Vec<(f64, f64, f64)>,
}

/// One `{"kind":"profile"}` record.
#[derive(Clone, Debug, Default)]
struct ProfileRecord {
    exhibit: String,
    sims: f64,
    events: f64,
    run_wall_ns: f64,
    attribution_pct: f64,
    /// `(count, wall_ns)` per bucket, indexed like [`BUCKETS`].
    buckets: [(f64, f64); 4],
}

impl ProfileRecord {
    fn ns_per_event(&self, b: usize) -> Option<f64> {
        let (count, wall) = self.buckets[b];
        (count > 0.0).then(|| wall / count)
    }
}

/// Everything parsed out of the input files.
#[derive(Debug, Default)]
struct History {
    /// Records in input order, keyed for "latest" = last occurrence.
    regen: Vec<WallRecord>,
    sweeps: Vec<WallRecord>,
    profiles: Vec<ProfileRecord>,
    inputs: Vec<String>,
    git_revs: Vec<String>,
}

/// The generated report.
#[derive(Debug, Default)]
pub struct PerfReport {
    pub markdown: String,
    pub json: String,
    /// Per-event-type cost regressions (warn-only unless strict).
    pub flags: Vec<String>,
}

/// Extract the bodies of the objects in a `"key":[{...},{...}]` array
/// (flat objects only — exactly what the sweep record emits).
fn json_obj_array(line: &str, key: &str) -> Vec<String> {
    let pat = format!("\"{key}\":[");
    let Some(start) = line.find(&pat) else {
        return Vec::new();
    };
    let rest = &line[start + pat.len()..];
    let Some(end) = rest.find(']') else {
        return Vec::new();
    };
    rest[..end]
        .split('{')
        .filter(|s| !s.is_empty())
        .map(|s| format!("{{{}", s.trim_end_matches(',')))
        .collect()
}

fn parse_line(line: &str, h: &mut History) {
    let Some(kind) = json_str_field(line, "kind") else {
        return;
    };
    if let Some(rev) = json_str_field(line, "git_rev") {
        if !rev.is_empty() && !h.git_revs.contains(&rev) {
            h.git_revs.push(rev);
        }
    }
    match kind.as_str() {
        "regen" | "sweep" => {
            let Some(label) =
                json_str_field(line, "exhibit").or_else(|| json_str_field(line, "label"))
            else {
                return;
            };
            let Some(wall_s) = json_num_field(line, "wall_s") else {
                return;
            };
            let rec = WallRecord {
                label,
                wall_s,
                events_per_sec: json_num_field(line, "events_per_sec"),
                threads: json_num_field(line, "threads"),
                jobs: json_num_field(line, "jobs"),
                workers: json_obj_array(line, "workers")
                    .iter()
                    .map(|w| {
                        (
                            json_num_field(w, "j").unwrap_or(0.0),
                            json_num_field(w, "e").unwrap_or(0.0),
                            json_num_field(w, "busy_s").unwrap_or(0.0),
                        )
                    })
                    .collect(),
            };
            if kind == "regen" {
                h.regen.push(rec);
            } else {
                h.sweeps.push(rec);
            }
        }
        "profile" => {
            let Some(exhibit) = json_str_field(line, "exhibit") else {
                return;
            };
            let mut rec = ProfileRecord {
                exhibit,
                sims: json_num_field(line, "sims").unwrap_or(0.0),
                events: json_num_field(line, "events").unwrap_or(0.0),
                run_wall_ns: json_num_field(line, "run_wall_ns").unwrap_or(0.0),
                attribution_pct: json_num_field(line, "attribution_pct").unwrap_or(0.0),
                ..ProfileRecord::default()
            };
            for (i, b) in BUCKETS.iter().enumerate() {
                rec.buckets[i] = (
                    json_num_field(line, &format!("{b}_count")).unwrap_or(0.0),
                    json_num_field(line, &format!("{b}_wall_ns")).unwrap_or(0.0),
                );
            }
            h.profiles.push(rec);
        }
        _ => {}
    }
}

fn load(inputs: &[PathBuf]) -> Result<History, String> {
    let mut h = History::default();
    for path in inputs {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("report: cannot read {}: {e}", path.display()))?;
        h.inputs.push(
            path.file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_else(|| path.display().to_string()),
        );
        for line in text.lines() {
            let line = line.trim();
            if !line.is_empty() {
                parse_line(line, &mut h);
            }
        }
    }
    Ok(h)
}

/// Conformance summary pulled out of `conformance.json`.
#[derive(Debug, Default)]
struct ConformanceSummary {
    present: bool,
    ok: bool,
    bench_flags: usize,
}

fn load_conformance(path: &Path) -> Result<ConformanceSummary, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("report: cannot read {}: {e}", path.display()))?;
    let flat = text.replace(char::is_whitespace, "");
    Ok(ConformanceSummary {
        present: true,
        ok: flat.contains("\"ok\":true"),
        bench_flags: flat
            .find("\"bench_flags\":[")
            .map(|i| {
                let rest = &flat[i + "\"bench_flags\":[".len()..];
                let body = &rest[..rest.find(']').unwrap_or(0)];
                if body.is_empty() {
                    0
                } else {
                    body.matches('"').count() / 2
                }
            })
            .unwrap_or(0),
    })
}

fn fmt_eps(eps: f64) -> String {
    format!("{:.2}M", eps / 1e6)
}

/// Latest-vs-best trend tables keyed by label: `(best, latest, n)`.
fn trend<'a>(
    recs: impl Iterator<Item = &'a WallRecord>,
    value: impl Fn(&WallRecord) -> Option<f64>,
    best_is_max: bool,
) -> BTreeMap<String, (f64, f64, usize)> {
    let mut out: BTreeMap<String, (f64, f64, usize)> = BTreeMap::new();
    for r in recs {
        let Some(v) = value(r) else { continue };
        let e = out.entry(r.label.clone()).or_insert((v, v, 0));
        if (best_is_max && v > e.0) || (!best_is_max && v < e.0) {
            e.0 = v;
        }
        e.1 = v; // input order: last record wins "latest"
        e.2 += 1;
    }
    out
}

/// Per-event-type cost gate: latest ns/event per (exhibit, bucket) vs
/// the best (minimum) historical ns/event over the earlier records.
fn cost_flags(profiles: &[ProfileRecord], ratio: f64) -> Vec<String> {
    let mut flags = Vec::new();
    let mut by_exhibit: BTreeMap<&str, Vec<&ProfileRecord>> = BTreeMap::new();
    for p in profiles {
        by_exhibit.entry(p.exhibit.as_str()).or_default().push(p);
    }
    for (exhibit, recs) in by_exhibit {
        let (latest, history) = match recs.split_last() {
            Some((l, h)) if !h.is_empty() => (l, h),
            _ => continue, // nothing to compare against
        };
        for (b, name) in BUCKETS.iter().enumerate() {
            let Some(now) = latest.ns_per_event(b) else {
                continue;
            };
            if latest.buckets[b].0 < GATE_MIN_EVENTS {
                continue;
            }
            let best = history
                .iter()
                .filter(|p| p.buckets[b].0 >= GATE_MIN_EVENTS)
                .filter_map(|p| p.ns_per_event(b))
                .fold(f64::INFINITY, f64::min);
            if best.is_finite() && now > best * ratio {
                flags.push(format!(
                    "{exhibit}/{name}: {now:.1} ns/event vs best {best:.1} ({:.1}x > allowed {ratio}x)",
                    now / best
                ));
            }
        }
    }
    flags
}

/// Generate the dashboard from `inputs` (JSONL files, in order) and an
/// optional `conformance.json`. Pure function of the file contents.
pub fn generate(
    inputs: &[PathBuf],
    conformance: Option<&Path>,
    ratio: f64,
) -> Result<PerfReport, String> {
    let h = load(inputs)?;
    let conf = match conformance {
        Some(p) => load_conformance(p)?,
        None => ConformanceSummary::default(),
    };
    let flags = cost_flags(&h.profiles, ratio);

    let eps_trend = trend(h.sweeps.iter(), |r| r.events_per_sec, true);
    let wall_trend = trend(h.regen.iter(), |r| Some(r.wall_s), false);

    // Latest profile per exhibit, plus a cross-exhibit bucket rollup.
    let mut latest_prof: BTreeMap<&str, &ProfileRecord> = BTreeMap::new();
    for p in &h.profiles {
        latest_prof.insert(p.exhibit.as_str(), p);
    }
    let mut rollup = [(0.0f64, 0.0f64); 4];
    let mut roll_run_ns = 0.0f64;
    for p in latest_prof.values() {
        for (r, b) in rollup.iter_mut().zip(p.buckets.iter()) {
            r.0 += b.0;
            r.1 += b.1;
        }
        roll_run_ns += p.run_wall_ns;
    }

    // ---- markdown ----
    let mut md = String::from("# elanib perf report\n\n");
    md.push_str(&format!("Inputs: {}\n", h.inputs.join(", ")));
    if !h.git_revs.is_empty() {
        md.push_str(&format!("Git revisions seen: {}\n", h.git_revs.join(", ")));
    }
    md.push('\n');

    md.push_str("## Sweep throughput (events/s per label)\n\n");
    if eps_trend.is_empty() {
        md.push_str("No sweep records.\n\n");
    } else {
        md.push_str("| label | records | best | latest | latest/best |\n");
        md.push_str("|---|---:|---:|---:|---:|\n");
        for (label, (best, latest, n)) in &eps_trend {
            md.push_str(&format!(
                "| {label} | {n} | {} | {} | {:.2} |\n",
                fmt_eps(*best),
                fmt_eps(*latest),
                latest / best
            ));
        }
        md.push('\n');
    }

    md.push_str("## Regen wall time (s per exhibit)\n\n");
    if wall_trend.is_empty() {
        md.push_str("No regen records.\n\n");
    } else {
        md.push_str("| exhibit | records | best | latest | latest/best |\n");
        md.push_str("|---|---:|---:|---:|---:|\n");
        for (label, (best, latest, n)) in &wall_trend {
            md.push_str(&format!(
                "| {label} | {n} | {best:.3} | {latest:.3} | {:.2} |\n",
                latest / best.max(1e-9)
            ));
        }
        md.push('\n');
    }

    md.push_str("## Hot kernel events (latest profile per exhibit, rolled up)\n\n");
    if latest_prof.is_empty() {
        md.push_str("No profile records (run with ELANIB_PROFILE=1 to collect).\n\n");
    } else {
        let total_attr: f64 = rollup.iter().map(|&(_, w)| w).sum();
        let pct = if roll_run_ns > 0.0 {
            100.0 * total_attr / roll_run_ns
        } else {
            100.0
        };
        md.push_str("| bucket | events | wall ms | ns/event | share of attributed |\n");
        md.push_str("|---|---:|---:|---:|---:|\n");
        let mut order: Vec<usize> = (0..BUCKETS.len()).collect();
        order.sort_by(|&a, &b| rollup[b].1.total_cmp(&rollup[a].1));
        for b in order {
            let (count, wall) = rollup[b];
            let npe = if count > 0.0 { wall / count } else { 0.0 };
            md.push_str(&format!(
                "| {} | {:.0} | {:.2} | {npe:.1} | {:.1}% |\n",
                BUCKETS[b],
                count,
                wall / 1e6,
                if total_attr > 0.0 {
                    100.0 * wall / total_attr
                } else {
                    0.0
                }
            ));
        }
        md.push('\n');
        md.push_str(&format!(
            "Attribution: **{pct:.1}%** of measured kernel wall time is in named buckets.\n\n"
        ));
        md.push_str("Per exhibit:\n\n");
        md.push_str("| exhibit | sims | events | run wall ms | attribution |\n");
        md.push_str("|---|---:|---:|---:|---:|\n");
        for (exhibit, p) in &latest_prof {
            md.push_str(&format!(
                "| {exhibit} | {:.0} | {:.0} | {:.2} | {:.1}% |\n",
                p.sims,
                p.events,
                p.run_wall_ns / 1e6,
                p.attribution_pct
            ));
        }
        md.push('\n');
    }

    md.push_str("## Worker efficiency\n\n");
    let pooled: Vec<&WallRecord> = h.sweeps.iter().filter(|r| !r.workers.is_empty()).collect();
    if pooled.is_empty() {
        md.push_str("No sweep records with worker breakdowns (schema 3).\n\n");
    } else {
        md.push_str("| label | threads | jobs | events/s | worker balance |\n");
        md.push_str("|---|---:|---:|---:|---:|\n");
        for r in pooled {
            let balance = if r.workers.len() > 1 {
                let evs: Vec<f64> = r.workers.iter().map(|&(_, e, _)| e).collect();
                let max = evs.iter().cloned().fold(0.0f64, f64::max);
                let mean = evs.iter().sum::<f64>() / evs.len() as f64;
                if mean > 0.0 {
                    format!("{:.2} max/mean", max / mean)
                } else {
                    "—".to_string()
                }
            } else {
                "—".to_string()
            };
            md.push_str(&format!(
                "| {} | {} | {} | {} | {balance} |\n",
                r.label,
                r.threads.map_or("—".into(), |t| format!("{t:.0}")),
                r.jobs.map_or("—".into(), |j| format!("{j:.0}")),
                r.events_per_sec.map_or("—".into(), fmt_eps),
            ));
        }
        md.push('\n');
    }

    md.push_str("## Per-event-type cost gate\n\n");
    if flags.is_empty() {
        md.push_str(&format!(
            "Clean: no kernel bucket got more than {ratio}x slower than its best historical ns/event.\n\n"
        ));
    } else {
        for f in &flags {
            md.push_str(&format!("- WARN {f}\n"));
        }
        md.push('\n');
    }

    md.push_str("## Conformance\n\n");
    if conf.present {
        md.push_str(&format!(
            "conformance.json: **{}**, {} bench flag(s).\n",
            if conf.ok { "ok" } else { "FAILING" },
            conf.bench_flags
        ));
    } else {
        md.push_str("No conformance.json supplied.\n");
    }

    // ---- json twin ----
    let mut js = String::from("{\n");
    js.push_str(&format!(
        "  \"inputs\": [{}],\n",
        h.inputs
            .iter()
            .map(|s| format!("\"{s}\""))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    js.push_str("  \"sweep_eps\": {");
    js.push_str(
        &eps_trend
            .iter()
            .map(|(l, (b, latest, n))| {
                format!("\"{l}\": {{\"best\": {b:.1}, \"latest\": {latest:.1}, \"records\": {n}}}")
            })
            .collect::<Vec<_>>()
            .join(", "),
    );
    js.push_str("},\n  \"regen_wall_s\": {");
    js.push_str(
        &wall_trend
            .iter()
            .map(|(l, (b, latest, n))| {
                format!("\"{l}\": {{\"best\": {b:.6}, \"latest\": {latest:.6}, \"records\": {n}}}")
            })
            .collect::<Vec<_>>()
            .join(", "),
    );
    js.push_str("},\n  \"profiles\": {");
    js.push_str(
        &latest_prof
            .iter()
            .map(|(e, p)| {
                let buckets = BUCKETS
                    .iter()
                    .enumerate()
                    .map(|(b, name)| {
                        format!(
                            "\"{name}\": {{\"count\": {:.0}, \"wall_ns\": {:.0}}}",
                            p.buckets[b].0, p.buckets[b].1
                        )
                    })
                    .collect::<Vec<_>>()
                    .join(", ");
                format!(
                    "\"{e}\": {{\"events\": {:.0}, \"run_wall_ns\": {:.0}, \"attribution_pct\": {:.2}, {buckets}}}",
                    p.events, p.run_wall_ns, p.attribution_pct
                )
            })
            .collect::<Vec<_>>()
            .join(", "),
    );
    js.push_str("},\n");
    js.push_str(&format!(
        "  \"cost_flags\": [{}],\n",
        flags
            .iter()
            .map(|f| format!("\"{}\"", f.replace('"', "\\\"")))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    js.push_str(&format!(
        "  \"conformance\": {{\"present\": {}, \"ok\": {}, \"bench_flags\": {}}}\n}}\n",
        conf.present, conf.ok, conf.bench_flags
    ));

    Ok(PerfReport {
        markdown: md,
        json: js,
        flags,
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

    const SWEEP_A: &str = "{\"kind\":\"sweep\",\"schema\":3,\"git_rev\":\"abc123\",\"label\":\"fig2_ljs\",\"jobs\":24,\"threads\":4,\"shards\":null,\"payload_mode\":\"tagged\",\"events\":1000000,\"failed\":0,\"wall_s\":0.5,\"events_per_sec\":2000000.0,\"unix_ts\":1,\"workers\":[{\"w\":0,\"j\":12,\"e\":600000,\"busy_s\":0.4},{\"w\":1,\"j\":12,\"e\":400000,\"busy_s\":0.3}]}";
    const PROF_1: &str = "{\"kind\":\"profile\",\"schema\":3,\"git_rev\":\"abc123\",\"exhibit\":\"fig2_ljs\",\"sims\":24,\"events\":1000000,\"run_wall_ns\":100000000,\"attribution_pct\":98.50,\"poll_count\":800000,\"poll_wall_ns\":70000000,\"timer_count\":100000,\"timer_wall_ns\":10000000,\"call_count\":100000,\"call_wall_ns\":10000000,\"wake_count\":50000,\"wake_wall_ns\":8000000,\"barrier_rounds\":0,\"barrier_stall_ns\":0,\"wheel_cascades\":12,\"wheel_high_water\":900,\"unix_ts\":1}";
    // Same exhibit, poll 10x slower per event.
    const PROF_2: &str = "{\"kind\":\"profile\",\"schema\":3,\"git_rev\":\"def456\",\"exhibit\":\"fig2_ljs\",\"sims\":24,\"events\":1000000,\"run_wall_ns\":800000000,\"attribution_pct\":97.00,\"poll_count\":800000,\"poll_wall_ns\":700000000,\"timer_count\":100000,\"timer_wall_ns\":11000000,\"call_count\":100000,\"call_wall_ns\":11000000,\"wake_count\":50000,\"wake_wall_ns\":9000000,\"barrier_rounds\":0,\"barrier_stall_ns\":0,\"wheel_cascades\":12,\"wheel_high_water\":900,\"unix_ts\":2}";

    #[test]
    fn report_renders_all_sections_and_is_deterministic() {
        let dir = tmpdir("full");
        let bench = write(
            &dir,
            "bench.json",
            &format!(
                "{SWEEP_A}\n{{\"kind\":\"regen\",\"schema\":3,\"git_rev\":\"abc123\",\"exhibit\":\"fig2_ljs\",\"wall_s\":0.6,\"unix_ts\":1}}\n{PROF_1}\n"
            ),
        );
        let conf = write(
            &dir,
            "conformance.json",
            "{\n  \"ok\": true,\n  \"bench_flags\": []\n}\n",
        );
        let r1 = generate(std::slice::from_ref(&bench), Some(&conf), 8.0).unwrap();
        let r2 = generate(std::slice::from_ref(&bench), Some(&conf), 8.0).unwrap();
        assert_eq!(r1.markdown, r2.markdown, "markdown must be deterministic");
        assert_eq!(r1.json, r2.json);
        assert!(r1.flags.is_empty(), "{:?}", r1.flags);
        assert!(r1.markdown.contains("| fig2_ljs | 1 | 2.00M | 2.00M |"));
        assert!(r1.markdown.contains("| poll | 800000 |"), "{}", r1.markdown);
        assert!(r1.markdown.contains("1.20 max/mean"), "{}", r1.markdown);
        assert!(r1.markdown.contains("**ok**"), "{}", r1.markdown);
        assert!(
            r1.markdown.contains("Attribution: **98.0%"),
            "{}",
            r1.markdown
        );
        assert!(r1.json.contains("\"attribution_pct\": 98.50"));
        // The fixtures' `shards` and `barrier_*` keys are history only.
        assert!(!r1.markdown.contains("barrier") && !r1.markdown.contains("shards"));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn cost_gate_flags_per_bucket_regressions() {
        let dir = tmpdir("gate");
        let bench = write(&dir, "bench.json", &format!("{PROF_1}\n{PROF_2}\n"));
        let r = generate(std::slice::from_ref(&bench), None, 8.0).unwrap();
        assert_eq!(r.flags.len(), 1, "{:?}", r.flags);
        assert!(r.flags[0].starts_with("fig2_ljs/poll:"), "{}", r.flags[0]);
        assert!(r.markdown.contains("WARN fig2_ljs/poll"), "{}", r.markdown);
        // A single record has no history: nothing to flag.
        let solo = write(&dir, "solo.json", &format!("{PROF_2}\n"));
        let r = generate(std::slice::from_ref(&solo), None, 8.0).unwrap();
        assert!(r.flags.is_empty());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn worker_array_parsing_is_robust() {
        let objs = json_obj_array(SWEEP_A, "workers");
        assert_eq!(objs.len(), 2);
        assert_eq!(json_num_field(&objs[0], "e"), Some(600000.0));
        assert_eq!(json_num_field(&objs[1], "busy_s"), Some(0.3));
        assert!(json_obj_array(SWEEP_A, "absent").is_empty());
    }
}
