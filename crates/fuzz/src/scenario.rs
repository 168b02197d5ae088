//! Seeded scenario generation, shrinking, and the replayable repro
//! format.
//!
//! A [`Scenario`] is one point in the configuration space the paper's
//! claims are supposed to hold over: cluster shape, message-size mix,
//! protocol thresholds, fault schedule, backend, and every observer
//! knob that must *not* change results (tracing, profiling, the point
//! cache). [`Scenario::generate`] is a pure function of its seed — the
//! same SplitMix64 discipline the fault layer uses — so a failing seed
//! is a complete bug report on its own.
//!
//! When a scenario does fail, [`Scenario::shrink_candidates`] offers
//! strictly simpler variants (fewer nodes, shorter messages, a quieter
//! fault plan, native IB, observers off) for the shrinker in
//! [`crate::shrink`] to re-run, and [`Scenario::to_repro`] /
//! [`Scenario::parse_repro`] round-trip the minimized scenario through
//! the `fuzz_failures/<seed>.toml` file a human replays.

use elanib_fabric::faults::{Degrade, NicStall, Outage};
use elanib_fabric::{FaultPlan, Topology};
use elanib_mpi::RoceMode;
use elanib_simcore::Dur;

/// One generated configuration point. Every field but `shards`
/// participates in repro serialization; `seed` doubles as the
/// simulation seed.
#[derive(Clone, Debug, PartialEq)]
pub struct Scenario {
    /// Generator seed — also seeds both simulations and names the
    /// repro file.
    pub seed: u64,
    /// Cluster nodes (the Elan chassis caps at 64, IB at 144; the
    /// generator stays far below both).
    pub nodes: usize,
    /// Processes per node.
    pub ppn: usize,
    /// Ring-exchange message sizes, one message per entry per rank.
    pub msg_sizes: Vec<u64>,
    /// Verbs eager/rendezvous switch point (bytes).
    pub eager_ib: u64,
    /// Tports eager/rendezvous switch point (bytes).
    pub eager_elan: u64,
    /// Deterministic fault schedule (may be effectless — about half of
    /// all seeds run clean, mirroring real usage).
    pub faults: FaultPlan,
    /// Exercise the point cache's encode/decode roundtrip.
    pub cache: bool,
    /// Re-run with a structured tracer attached (observer-effect
    /// check).
    pub trace: bool,
    /// Re-run with the kernel profiler attached.
    pub profile: bool,
    /// Vestigial: always 1, and read by nothing. The in-simulation
    /// sharded engine it once sized is gone; the field stays only
    /// because the benchmark package still assigns it.
    pub shards: usize,
    /// Verbs-side backend choice: `None` runs native InfiniBand,
    /// `Some(mode)` swaps in the RoCEv2 backend under that
    /// congestion-control mode — every invariant (conservation,
    /// determinism, observer effect, monotone degradation) must hold
    /// on the CC-paced path too. About 40% of seeds stay native.
    pub roce: Option<RoceMode>,
}

/// SplitMix64 — the same stateless generator the fault layer draws
/// from, reimplemented here so the crate stays dependency-light and a
/// scenario is a pure function of `(seed, draw index)`.
fn mix(seed: u64, k: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(k.wrapping_mul(0xbf58_476d_1ce4_e5b9))
        .wrapping_add(0x94d0_49bb_1331_11eb);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Uniform draw in `[0, 1)` from `(seed, k)`.
fn unit(seed: u64, k: u64) -> f64 {
    (mix(seed, k) >> 11) as f64 / (1u64 << 53) as f64
}

/// Pick one element of `xs` from draw `(seed, k)`.
fn pick<T: Copy>(seed: u64, k: u64, xs: &[T]) -> T {
    xs[(unit(seed, k) * xs.len() as f64) as usize % xs.len()]
}

/// Simulated-time horizon fault windows are scheduled inside. Short
/// scenarios finish well under it; windows past the actual end simply
/// never fire (and [`FaultPlan::truncated_to`] can prove as much).
pub fn fault_horizon() -> Dur {
    Dur::from_us(500)
}

impl Scenario {
    /// Deterministically generate the scenario for `seed`.
    pub fn generate(seed: u64) -> Scenario {
        let nodes = pick(seed, 10, &[2usize, 3, 4, 6, 8, 12, 16]);
        let ppn = pick(seed, 11, &[1usize, 1, 2]);
        let n_msgs = 2 + (unit(seed, 12) * 7.0) as usize;
        // Size regimes, weighted so both protocols' paths get steady
        // coverage: all-eager, all-rendezvous, a bimodal mix, and a
        // zero-heavy mix (zero-length messages are a boundary the
        // fault layer must survive too).
        let msg_sizes: Vec<u64> = match (unit(seed, 13) * 4.0) as usize {
            0 => (0..n_msgs)
                .map(|i| pick(seed, 100 + i as u64, &[1u64, 8, 64, 256, 1024]))
                .collect(),
            1 => (0..n_msgs)
                .map(|i| pick(seed, 100 + i as u64, &[4096u64, 16384, 65536]))
                .collect(),
            2 => (0..n_msgs)
                .map(|i| pick(seed, 100 + i as u64, &[64u64, 1024, 32768]))
                .collect(),
            _ => (0..n_msgs)
                .map(|i| pick(seed, 100 + i as u64, &[0u64, 0, 16, 2048]))
                .collect(),
        };
        let eager_ib = pick(seed, 14, &[256u64, 1024, 1024, 4096]);
        let eager_elan = pick(seed, 15, &[1024u64, 4096, 4096, 16384]);
        // Fault link/endpoint indices must be valid on both fabrics;
        // sample against the smaller edge set of the two.
        let links = Topology::fat_tree(12, 2, nodes)
            .edges
            .len()
            .min(Topology::fat_tree(4, 3, nodes).edges.len());
        Scenario {
            seed,
            nodes,
            ppn,
            msg_sizes,
            eager_ib,
            eager_elan,
            faults: FaultPlan::sample(mix(seed, 17), links, nodes, fault_horizon()),
            cache: unit(seed, 18) < 0.5,
            trace: unit(seed, 19) < 0.25,
            profile: unit(seed, 20) < 0.25,
            shards: 1,
            roce: match (unit(seed, 23) * 5.0) as usize {
                0 | 1 => None,
                2 => Some(RoceMode::Pfc),
                3 => Some(RoceMode::Dcqcn),
                _ => Some(RoceMode::Hybrid),
            },
        }
    }

    /// Total application bytes one rank sends (the conservation
    /// invariant's expected tally, per rank).
    pub fn bytes_per_rank(&self) -> u64 {
        self.msg_sizes.iter().sum()
    }

    /// Strictly simpler variants, most aggressive first. The shrinker
    /// re-runs the failing check after each candidate and keeps a
    /// reduction only if the failure survives; every candidate here
    /// strictly decreases [`Scenario::complexity`], so the loop
    /// terminates.
    pub fn shrink_candidates(&self) -> Vec<Scenario> {
        let mut out = Vec::new();
        let mut push = |f: &dyn Fn(&mut Scenario)| {
            let mut s = self.clone();
            f(&mut s);
            if s != *self {
                out.push(s);
            }
        };
        if self.nodes > 2 {
            push(&|s| s.nodes = (s.nodes / 2).max(2));
        }
        if self.ppn > 1 {
            push(&|s| s.ppn = 1);
        }
        if self.msg_sizes.len() > 1 {
            push(&|s| {
                let keep = s.msg_sizes.len() / 2;
                s.msg_sizes.truncate(keep.max(1));
            });
        }
        if self.msg_sizes.iter().any(|&b| b > 1) {
            push(&|s| {
                for b in &mut s.msg_sizes {
                    *b /= 2;
                }
            });
        }
        for plan in self.faults.shrink_candidates() {
            push(&|s| s.faults = plan.clone());
        }
        if self.roce.is_some() {
            // Native IB is the simpler transport: no CC pacing state.
            push(&|s| s.roce = None);
        }
        if self.cache {
            push(&|s| s.cache = false);
        }
        if self.trace {
            push(&|s| s.trace = false);
        }
        if self.profile {
            push(&|s| s.profile = false);
        }
        out
    }

    /// A size metric every shrink candidate strictly decreases — the
    /// shrinker's termination argument.
    pub fn complexity(&self) -> u64 {
        let plan = &self.faults;
        self.nodes as u64 * 1000
            + self.ppn as u64 * 100
            + self.msg_sizes.len() as u64 * 10
            + self
                .msg_sizes
                .iter()
                .map(|b| 64 - b.leading_zeros() as u64)
                .sum::<u64>()
            + (plan.outages.len() + plan.degrades.len() + plan.stalls.len()) as u64 * 10
            + (plan.loss > 0.0) as u64 * 10
            + (plan.corrupt > 0.0) as u64 * 10
            + self.roce.is_some() as u64
            + self.cache as u64
            + self.trace as u64
            + self.profile as u64
    }

    /// Render the scenario as the repro file's contents. `mutate`
    /// records a deliberate harness mutation (mutation testing) so the
    /// replay reproduces the same violation.
    pub fn to_repro(&self, mutate: Option<&str>) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(s, "# elanib-fuzz failing-scenario repro; replay with:");
        let _ = writeln!(
            s,
            "#   cargo run -p elanib-bench --bin fuzz -- --replay fuzz_failures/{}.toml",
            self.seed
        );
        let _ = writeln!(s, "seed = {}", self.seed);
        let _ = writeln!(s, "nodes = {}", self.nodes);
        let _ = writeln!(s, "ppn = {}", self.ppn);
        let sizes: Vec<String> = self.msg_sizes.iter().map(|b| b.to_string()).collect();
        let _ = writeln!(s, "msg_sizes = \"{}\"", sizes.join(","));
        let _ = writeln!(s, "eager_ib = {}", self.eager_ib);
        let _ = writeln!(s, "eager_elan = {}", self.eager_elan);
        let _ = writeln!(s, "cache = {}", self.cache);
        let _ = writeln!(s, "trace = {}", self.trace);
        let _ = writeln!(s, "profile = {}", self.profile);
        if let Some(mode) = self.roce {
            let _ = writeln!(s, "roce = \"{mode}\"");
        }
        let _ = writeln!(s, "fault_seed = {}", self.faults.seed);
        let _ = writeln!(s, "fault_loss = {}", self.faults.loss);
        let _ = writeln!(s, "fault_corrupt = {}", self.faults.corrupt);
        for o in &self.faults.outages {
            let _ = writeln!(
                s,
                "outage = \"{}@{}+{}\"",
                o.link,
                o.start.as_ps(),
                o.dur.as_ps()
            );
        }
        for d in &self.faults.degrades {
            let _ = writeln!(
                s,
                "degrade = \"{}@{}+{}*{}\"",
                d.link,
                d.start.as_ps(),
                d.dur.as_ps(),
                d.factor
            );
        }
        for st in &self.faults.stalls {
            let _ = writeln!(
                s,
                "stall = \"{}@{}+{}\"",
                st.ep,
                st.start.as_ps(),
                st.dur.as_ps()
            );
        }
        if let Some(m) = mutate {
            let _ = writeln!(s, "mutate = \"{m}\"");
        }
        s
    }

    /// Parse a repro file written by [`Scenario::to_repro`]. Returns
    /// the scenario and the recorded mutation name, if any.
    pub fn parse_repro(text: &str) -> Result<(Scenario, Option<String>), String> {
        let mut sc = Scenario {
            seed: 0,
            nodes: 2,
            ppn: 1,
            msg_sizes: Vec::new(),
            eager_ib: 1024,
            eager_elan: 4096,
            faults: FaultPlan::default(),
            cache: false,
            trace: false,
            profile: false,
            shards: 1,
            roce: None,
        };
        let mut mutate = None;
        for raw in text.lines() {
            let line = match raw.find('#') {
                Some(i) => &raw[..i],
                None => raw,
            }
            .trim();
            if line.is_empty() {
                continue;
            }
            let (key, val) = line
                .split_once('=')
                .ok_or_else(|| format!("repro line without '=': {line:?}"))?;
            let (key, val) = (key.trim(), val.trim().trim_matches('"'));
            let num = |what: &str, v: &str| -> Result<u64, String> {
                v.parse::<u64>()
                    .map_err(|e| format!("bad {what} {v:?}: {e}"))
            };
            let flag = |what: &str, v: &str| -> Result<bool, String> {
                v.parse::<bool>()
                    .map_err(|e| format!("bad {what} {v:?}: {e}"))
            };
            match key {
                "seed" => sc.seed = num(key, val)?,
                "nodes" => sc.nodes = num(key, val)? as usize,
                "ppn" => sc.ppn = num(key, val)? as usize,
                "msg_sizes" => {
                    sc.msg_sizes = val
                        .split(',')
                        .filter(|p| !p.trim().is_empty())
                        .map(|p| num("msg size", p.trim()))
                        .collect::<Result<_, _>>()?;
                }
                "eager_ib" => sc.eager_ib = num(key, val)?,
                "eager_elan" => sc.eager_elan = num(key, val)?,
                "cache" => sc.cache = flag(key, val)?,
                "trace" => sc.trace = flag(key, val)?,
                "profile" => sc.profile = flag(key, val)?,
                "roce" => {
                    sc.roce = Some(
                        RoceMode::parse(val)
                            .ok_or_else(|| format!("bad roce mode {val:?} (pfc|dcqcn|hybrid)"))?,
                    );
                }
                "fault_seed" => sc.faults.seed = num(key, val)?,
                "fault_loss" => {
                    sc.faults.loss = val
                        .parse::<f64>()
                        .map_err(|e| format!("bad fault_loss {val:?}: {e}"))?;
                }
                "fault_corrupt" => {
                    sc.faults.corrupt = val
                        .parse::<f64>()
                        .map_err(|e| format!("bad fault_corrupt {val:?}: {e}"))?;
                }
                "outage" => {
                    let (link, start, dur, _) = parse_window(val)?;
                    sc.faults.outages.push(Outage { link, start, dur });
                }
                "degrade" => {
                    let (link, start, dur, factor) = parse_window(val)?;
                    sc.faults.degrades.push(Degrade {
                        link,
                        start,
                        dur,
                        factor: factor.ok_or_else(|| format!("degrade without factor: {val:?}"))?,
                    });
                }
                "stall" => {
                    let (ep, start, dur, _) = parse_window(val)?;
                    sc.faults.stalls.push(NicStall { ep, start, dur });
                }
                "mutate" => mutate = Some(val.to_string()),
                other => return Err(format!("unknown repro key {other:?}")),
            }
        }
        if sc.nodes < 2 || sc.ppn < 1 {
            return Err("repro scenario is degenerate (nodes < 2 or ppn < 1)".into());
        }
        Ok((sc, mutate))
    }
}

/// Parse `idx@start_ps+dur_ps` with an optional `*factor` tail —
/// picosecond integers, so the roundtrip is exact where the fault
/// layer's human grammar (float ns/us/ms) would not be.
fn parse_window(val: &str) -> Result<(usize, Dur, Dur, Option<f64>), String> {
    let (head, factor) = match val.rsplit_once('*') {
        Some((h, f)) => (
            h,
            Some(
                f.parse::<f64>()
                    .map_err(|e| format!("bad factor in {val:?}: {e}"))?,
            ),
        ),
        None => (val, None),
    };
    let (idx, span) = head
        .split_once('@')
        .ok_or_else(|| format!("window without '@': {val:?}"))?;
    let (start, dur) = span
        .split_once('+')
        .ok_or_else(|| format!("window without '+': {val:?}"))?;
    let ps = |what: &str, v: &str| -> Result<u64, String> {
        v.parse::<u64>()
            .map_err(|e| format!("bad {what} {v:?}: {e}"))
    };
    Ok((
        ps("index", idx)? as usize,
        Dur::from_ps(ps("start", start)?),
        Dur::from_ps(ps("duration", dur)?),
        factor,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_a_pure_function_of_the_seed() {
        for seed in 0..200u64 {
            let a = Scenario::generate(seed);
            let b = Scenario::generate(seed);
            assert_eq!(a, b, "seed {seed} not deterministic");
            assert!((2..=16).contains(&a.nodes));
            assert!((1..=2).contains(&a.ppn));
            assert!(!a.msg_sizes.is_empty());
            assert!(a.msg_sizes.iter().all(|&b| b <= 65536));
            assert_eq!(a.shards, 1);
        }
        // Every backend variant is drawn, and native IB stays the
        // plurality (~40%) so the paper-ordering invariant keeps its
        // sample.
        let native = (0..200u64)
            .filter(|&s| Scenario::generate(s).roce.is_none())
            .count();
        assert!(
            (50..=110).contains(&native),
            "native-IB draw skewed: {native}/200"
        );
        for mode in RoceMode::ALL {
            assert!(
                (0..200u64).any(|s| Scenario::generate(s).roce == Some(mode)),
                "mode {mode} never drawn"
            );
        }
        // The space is actually explored: distinct seeds disagree.
        let distinct: std::collections::HashSet<String> = (0..50)
            .map(|s| format!("{:?}", Scenario::generate(s)))
            .collect();
        assert!(
            distinct.len() > 40,
            "only {} distinct scenarios",
            distinct.len()
        );
    }

    /// Golden pin on the generator: a digest of every field but
    /// `shards` of the first 400 scenarios of batch seed 0 (the
    /// benchmark's `fuzz` batch).
    /// Draws are indexed per field, so adding or removing one field's
    /// draw must leave this digest where it is.
    #[test]
    fn seed_zero_batch_is_pinned() {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for i in 0..400 {
            let sc = Scenario::generate(crate::shrink::batch_seed(0, i));
            let fields = format!(
                "{} {} {} {:?} {} {} {:?} {} {} {} {:?}\n",
                sc.seed,
                sc.nodes,
                sc.ppn,
                sc.msg_sizes,
                sc.eager_ib,
                sc.eager_elan,
                sc.faults,
                sc.cache,
                sc.trace,
                sc.profile,
                sc.roce,
            );
            for b in fields.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
        }
        assert_eq!(h, 2_619_965_300_326_469_078, "seed-0 fuzz batch moved");
    }

    #[test]
    fn repro_roundtrips_exactly() {
        for seed in [0u64, 7, 42, 1234, 99999] {
            let sc = Scenario::generate(seed);
            let text = sc.to_repro(None);
            let (back, mutate) = Scenario::parse_repro(&text).expect("repro parses");
            assert_eq!(back, sc, "seed {seed} did not roundtrip");
            assert_eq!(mutate, None);
        }
        // Mutation annotations survive the roundtrip too.
        let sc = Scenario::generate(3);
        let (_, m) = Scenario::parse_repro(&sc.to_repro(Some("conservation"))).unwrap();
        assert_eq!(m.as_deref(), Some("conservation"));
    }

    #[test]
    fn shrink_candidates_strictly_decrease_complexity() {
        let mut checked = 0;
        for seed in 0..100u64 {
            let sc = Scenario::generate(seed);
            for cand in sc.shrink_candidates() {
                assert!(
                    cand.complexity() < sc.complexity(),
                    "seed {seed}: candidate {cand:?} not simpler than {sc:?}"
                );
                checked += 1;
            }
        }
        assert!(checked > 100, "shrink space too small ({checked})");
    }

    #[test]
    fn fully_shrunk_scenario_offers_nothing_further() {
        let sc = Scenario {
            seed: 1,
            nodes: 2,
            ppn: 1,
            msg_sizes: vec![0],
            eager_ib: 1024,
            eager_elan: 4096,
            faults: FaultPlan::default(),
            cache: false,
            trace: false,
            profile: false,
            shards: 1,
            roce: None,
        };
        assert!(sc.shrink_candidates().is_empty());
    }
}
