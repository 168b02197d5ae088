//! The metric catalogue and the result lines.
//!
//! Every name here appears in `BENCHMARK.json` with the same unit and
//! direction, and nowhere else; a unit test holds the two in step.

use std::collections::BTreeMap;

use crate::json::{num, quote};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Clone, Copy, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric { name, unit, better }
}

use Better::{Higher, Lower};

/// Reported by every untraced run (`--trace 0`).
pub const END_TO_END: [Metric; 5] = [
    m("wall_s", "s", Lower),
    m("cpu_s", "s", Lower),
    m("events_per_s", "1/s", Higher),
    m("peak_rss_mb", "MiB", Lower),
    m("setup_s", "s", Lower),
];

/// Reported by every traced run (`--trace 1`), on every workload;
/// a layer a workload does not reach reads 0.
pub const PER_LAYER: [Metric; 52] = [
    // elanib_core::sweep, from the untraced warm passes.
    m("sweep.balance", "ratio", Lower),
    m("sweep.efficiency", "ratio", Higher),
    // Point layer: apps / microbench / fuzz calls, spanned from outside.
    m("point.count", "count", Lower),
    m("point.s_p50", "s", Lower),
    m("point.s_p90", "s", Lower),
    m("point.s_max", "s", Lower),
    m("p2p.pingpong_s", "s", Lower),
    m("p2p.streaming_s", "s", Lower),
    m("p2p.beff_s", "s", Lower),
    m("p2p.us_per_msg_eager", "us", Lower),
    m("p2p.us_per_msg_rdv", "us", Lower),
    m("fuzz.us_per_scenario", "us", Lower),
    m("fuzz.skipped", "count", Lower),
    // apps numerics, replayed outside the simulator.
    m("apps.cg_numerics_s", "s", Lower),
    m("apps.cg_numerics_share", "ratio", Lower),
    m("apps.cg_matgen_s", "s", Lower),
    // simcore: tracer counters and the kernel profiler.
    m("simcore.events", "count", Lower),
    m("simcore.timers", "count", Lower),
    m("simcore.wakes", "count", Lower),
    m("simcore.tasks_spawned", "count", Lower),
    m("simcore.wheel_cascades", "count", Lower),
    m("simcore.ns_per_event", "ns", Lower),
    m("simcore.poll_ns", "ns", Lower),
    m("simcore.timer_ns", "ns", Lower),
    m("simcore.call_ns", "ns", Lower),
    m("simcore.wake_ns", "ns", Lower),
    m("simcore.dispatch_share", "ratio", Lower),
    m("simcore.attribution_pct", "%", Higher),
    // mpisim
    m("mpisim.eager_sends", "count", Lower),
    m("mpisim.rdv_sends", "count", Lower),
    m("mpisim.unexpected", "count", Lower),
    m("mpisim.collectives", "count", Lower),
    m("mpisim.world_build_s", "s", Lower),
    // nic
    m("nic.hca_posts", "count", Lower),
    m("nic.regcache_hit_rate", "ratio", Higher),
    m("nic.regcache_misses", "count", Lower),
    m("nic.regcache_evictions", "count", Lower),
    m("nic.elan_rdv_sends", "count", Lower),
    m("nic.elan_unexpected", "count", Lower),
    m("nic.ib_retransmits", "count", Lower),
    m("nic.elan_link_retries", "count", Lower),
    m("nic.qp_errors", "count", Lower),
    // fabric
    m("fabric.messages", "count", Lower),
    m("fabric.wire_bytes", "B", Lower),
    m("fabric.contention_stalls", "count", Lower),
    m("fabric.stall_ps_mean", "ps", Lower),
    m("fabric.busiest_link_bytes", "B", Lower),
    m("fabric.reroutes", "count", Lower),
    // host
    m("host.allocs_per_event", "1/event", Lower),
    m("host.alloc_bytes_per_event", "B/event", Lower),
    m("host.trace_overhead_pct", "%", Lower),
    m("host.rss_growth_mb_per_pass", "MiB/pass", Lower),
];

/// Units whose values are deterministic counts: identical on every
/// run of one workload and seed.
pub fn is_count(unit: &str) -> bool {
    matches!(unit, "count" | "B")
}

/// One measured value, with its spread when it is a median of samples.
#[derive(Clone, Copy, Debug)]
pub struct Value {
    pub value: f64,
    /// `(min, max, samples)` of the samples the value is the median of.
    pub spread: Option<(f64, f64, usize)>,
}

impl From<f64> for Value {
    fn from(value: f64) -> Value {
        Value {
            value,
            spread: None,
        }
    }
}

/// `{"name": {"value": …, "unit": …}, …}` over `catalogue`, in its
/// order. With `detail`, medians also carry `min`, `max` and `n`.
/// Panics if a catalogue metric was not measured: that is a bug here.
pub fn render(
    catalogue: &[Metric],
    values: &BTreeMap<&'static str, Value>,
    detail: bool,
) -> String {
    assert_eq!(
        values.len(),
        catalogue.len(),
        "measured metrics must be exactly the catalogue"
    );
    let fields: Vec<String> = catalogue
        .iter()
        .map(|m| {
            let v = values
                .get(m.name)
                .unwrap_or_else(|| panic!("metric {} was not measured", m.name));
            let mut s = format!(
                "{}:{{\"value\":{},\"unit\":{}",
                quote(m.name),
                num(v.value),
                quote(m.unit)
            );
            if let (true, Some((lo, hi, n))) = (detail, v.spread) {
                s.push_str(&format!(
                    ",\"min\":{},\"max\":{},\"n\":{n}",
                    num(lo),
                    num(hi)
                ));
            }
            s.push('}');
            s
        })
        .collect();
    format!("{{{}}}", fields.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::Workload;
    use crate::json::{parse, Json};

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        parse(&text).expect("BENCHMARK.json parses")
    }

    fn listed(doc: &Json, key: &str) -> Vec<(String, String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json has a {key} list"))
            .iter()
            .map(|e| {
                let s = |k: &str| {
                    e.get(k)
                        .and_then(Json::as_str)
                        .unwrap_or_default()
                        .to_string()
                };
                (s("name"), s("unit"), s("better"))
            })
            .collect()
    }

    fn ours(catalogue: &[Metric]) -> Vec<(String, String, String)> {
        catalogue
            .iter()
            .map(|m| {
                let better = match m.better {
                    Lower => "lower",
                    Higher => "higher",
                };
                (m.name.to_string(), m.unit.to_string(), better.to_string())
            })
            .collect()
    }

    #[test]
    fn names_are_valid_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(
                !m.name.is_empty()
                    && m.name.len() <= 64
                    && m.name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "bad metric name {:?}",
                m.name
            );
            assert!(
                m.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {:?}",
                m.unit
            );
            assert!(seen.insert(m.name), "duplicate metric {}", m.name);
        }
    }

    #[test]
    fn catalogue_matches_benchmark_json_both_ways() {
        let doc = benchmark_json();
        assert_eq!(listed(&doc, "end_to_end"), ours(&END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), ours(&PER_LAYER));
        let workloads: Vec<String> = listed(&doc, "workloads").into_iter().map(|w| w.0).collect();
        let names: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(workloads, names);
    }

    #[test]
    fn render_lists_every_metric_with_its_unit() {
        let values: BTreeMap<&'static str, Value> = END_TO_END
            .iter()
            .enumerate()
            .map(|(i, m)| (m.name, Value::from(i as f64 + 0.5)))
            .collect();
        let out = parse(&render(&END_TO_END, &values, false)).unwrap();
        for (i, m) in END_TO_END.iter().enumerate() {
            let e = out.get(m.name).unwrap();
            assert_eq!(e.get("value").and_then(Json::as_f64), Some(i as f64 + 0.5));
            assert_eq!(e.get("unit").and_then(Json::as_str), Some(m.unit));
            assert!(e.get("min").is_none());
        }
    }
}
