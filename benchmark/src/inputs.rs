//! Workload inputs, generated from `--seed`.
//!
//! Seed 0 is the paper's inputs exactly. Any other seed perturbs them
//! through a SplitMix64 stream, within ranges that keep every operation
//! valid; the simulator receives only the generated values.

use elanib_apps::md::{ljs, membrane, MdProblem};
use elanib_apps::nascg::{class_a, CgProblem};
use elanib_fuzz::{batch_seed, Scenario};
use elanib_microbench::figure1_sizes;
use elanib_simcore::Dur;

/// The four fixed workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Cg,
    Md,
    P2p,
    Fuzz,
}

impl Workload {
    pub const ALL: [Workload; 4] = [Workload::Cg, Workload::Md, Workload::P2p, Workload::Fuzz];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Cg => "cg",
            Workload::Md => "md",
            Workload::P2p => "p2p",
            Workload::Fuzz => "fuzz",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Process counts of Figure 6 (1 PPN).
pub const CG_PROCS: [usize; 6] = [1, 2, 4, 8, 16, 32];
/// Node counts of Figure 1(d).
pub const BEFF_NODES: [usize; 5] = [2, 4, 8, 16, 32];
/// Scenarios checked per fuzz pass.
pub const FUZZ_SCENARIOS: u64 = 400;
/// Largest Figure 1 message.
pub const MAX_MSG: u64 = 4 * 1024 * 1024;
/// Range the perturbed MD halo size is kept in: above both stacks'
/// eager thresholds (1 KiB verbs, 4 KiB Elan), so halos stay on the
/// rendezvous path the paper's MD discussion is about.
pub const GHOST_BYTES: std::ops::RangeInclusive<u64> = 8 * 1024..=48 * 1024;

/// SplitMix64: a stateless-looking stream that is a pure function of
/// the seed.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// `x` scaled by a uniform factor in `[1 - frac, 1 + frac)`.
    pub fn vary(&mut self, x: f64, frac: f64) -> f64 {
        x * (1.0 + frac * (2.0 * self.unit() - 1.0))
    }
}

/// Everything one pass of a workload runs on.
#[derive(Clone, Debug)]
pub enum Inputs {
    Cg(CgProblem),
    /// Figure 2 then Figure 3 problem.
    Md([MdProblem; 2]),
    /// Figure 1 message sizes, ascending, first 0 and last 4 MiB.
    P2p(Vec<u64>),
    Fuzz(Vec<Scenario>),
}

impl Inputs {
    pub fn generate(w: Workload, seed: u64) -> Inputs {
        let mut rng = SplitMix64::new(seed);
        match w {
            Workload::Cg if seed == 0 => Inputs::Cg(class_a()),
            Workload::Cg => {
                // The modelled CPU varies; the matrix does not. n = 14·1024
                // divides over every process count, outer and inner set
                // the event count, and nz_per_row scales the real matvec
                // work, so they stay class A's and every seed costs the
                // host the same.
                let base = class_a();
                Inputs::Cg(CgProblem {
                    mflops_per_cpu: rng.vary(base.mflops_per_cpu, 0.2),
                    mem_intensity: rng.vary(base.mem_intensity, 0.2),
                    ..base
                })
            }
            Workload::Md if seed == 0 => Inputs::Md([ljs(), membrane()]),
            Workload::Md => Inputs::Md([
                perturb_md(ljs(), &mut rng),
                perturb_md(membrane(), &mut rng),
            ]),
            Workload::P2p if seed == 0 => Inputs::P2p(figure1_sizes()),
            Workload::P2p => {
                // Log-uniform, stratified: one size per octave
                // [2^k, 2^(k+1)), k = 2..=21, where seed 0 has 2^k. Every
                // seed then spans the same protocol regimes at nearly
                // the same cost.
                let mut sizes = vec![0];
                sizes.extend((2..22).map(|k| {
                    let s = 2f64.powf(k as f64 + rng.unit()) as u64;
                    s.clamp(1 << k, (1 << (k + 1)) - 1)
                }));
                sizes.push(MAX_MSG);
                Inputs::P2p(sizes)
            }
            Workload::Fuzz => {
                let mut scenarios = fuzz_batch(seed);
                for sc in &mut scenarios {
                    // The sharded-engine check spawns up to 4 more OS
                    // threads per scenario; one shard keeps the process
                    // within the sweep pool's threads.
                    sc.shards = 1;
                }
                Inputs::Fuzz(scenarios)
            }
        }
    }
}

/// Seed 0's batch is `Scenario::generate(batch_seed(0, i))`, i < 400.
/// Another seed walks its own stream `batch_seed(seed, j)` and puts each
/// scenario in the first open slot of seed 0's batch with the same
/// cluster shape (nodes, ppn), taking that slot's message sizes; every
/// other field (fault plan, backend, eager thresholds, observer checks,
/// simulation seed) stays the drawn one. Shape and message sizes set
/// most of a pass's host time and memory: on 10 seeds, matching shapes
/// cut the spread of a pass's event count from 9.4% to 2.8%, and also
/// taking the sizes cut the spread of `peak_rss_mb` from 10% to 7%.
fn fuzz_batch(seed: u64) -> Vec<Scenario> {
    let reference: Vec<Scenario> = (0..FUZZ_SCENARIOS)
        .map(|i| Scenario::generate(batch_seed(0, i)))
        .collect();
    if seed == 0 {
        return reference;
    }
    let mut batch: Vec<Option<Scenario>> = vec![None; reference.len()];
    let mut open = reference.len();
    for j in 0.. {
        if open == 0 {
            break;
        }
        let mut sc = Scenario::generate(batch_seed(seed, j));
        let slot = reference
            .iter()
            .zip(&batch)
            .position(|(r, b)| b.is_none() && (r.nodes, r.ppn) == (sc.nodes, sc.ppn));
        if let Some(i) = slot {
            sc.msg_sizes = reference[i].msg_sizes.clone();
            batch[i] = Some(sc);
            open -= 1;
        }
    }
    batch
        .into_iter()
        .map(|s| s.expect("every slot filled"))
        .collect()
}

/// Every field of an MD problem varied by ±25%, except `steps` (which
/// sets the event count) and the halo size, which stays in
/// [`GHOST_BYTES`].
fn perturb_md(p: MdProblem, rng: &mut SplitMix64) -> MdProblem {
    MdProblem {
        name: p.name,
        atoms_per_rank: rng.vary(p.atoms_per_rank as f64, 0.25).round() as u64,
        time_per_atom_step: Dur::from_ps(
            rng.vary(p.time_per_atom_step.as_ps() as f64, 0.25).round() as u64,
        ),
        mem_intensity: rng.vary(p.mem_intensity, 0.25).clamp(0.0, 1.0),
        ghost_bytes_per_face: (rng.vary(p.ghost_bytes_per_face as f64, 0.25).round() as u64)
            .clamp(*GHOST_BYTES.start(), *GHOST_BYTES.end()),
        overlap_fraction: rng.vary(p.overlap_fraction, 0.25).clamp(0.0, 1.0),
        allreduce_every: (rng.vary(p.allreduce_every as f64, 0.25).round() as u32).max(1),
        jitter: rng.vary(p.jitter, 0.25),
        steps: p.steps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn md(seed: u64) -> [MdProblem; 2] {
        match Inputs::generate(Workload::Md, seed) {
            Inputs::Md(p) => p,
            other => panic!("{other:?}"),
        }
    }

    fn cg(seed: u64) -> CgProblem {
        match Inputs::generate(Workload::Cg, seed) {
            Inputs::Cg(p) => p,
            other => panic!("{other:?}"),
        }
    }

    fn p2p(seed: u64) -> Vec<u64> {
        match Inputs::generate(Workload::P2p, seed) {
            Inputs::P2p(s) => s,
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn seed_zero_is_the_papers_inputs() {
        // The problem structs hold floats and a Dur, so compare their
        // Debug forms field for field.
        assert_eq!(format!("{:?}", cg(0)), format!("{:?}", class_a()));
        let [a, b] = md(0);
        assert_eq!(format!("{a:?}"), format!("{:?}", ljs()));
        assert_eq!(format!("{b:?}"), format!("{:?}", membrane()));
        assert_eq!(p2p(0), figure1_sizes());
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("CG"), None);
    }

    #[test]
    fn perturbed_inputs_stay_in_range() {
        let cfg = elanib_mpi::NetConfig::default();
        let eager = cfg.verbs.eager_threshold.max(cfg.elan.eager_threshold);
        for seed in 1..200 {
            let p = cg(seed);
            for procs in CG_PROCS {
                assert_eq!(p.n % procs, 0, "seed {seed}: n must divide over {procs}");
            }
            let base = class_a();
            assert_eq!(
                (p.n, p.nz_per_row, p.outer, p.inner),
                (base.n, base.nz_per_row, base.outer, base.inner)
            );
            assert!((p.mflops_per_cpu / base.mflops_per_cpu - 1.0).abs() <= 0.2);
            assert!((p.mem_intensity / base.mem_intensity - 1.0).abs() <= 0.2);

            for (q, base) in md(seed).into_iter().zip([ljs(), membrane()]) {
                assert!(
                    GHOST_BYTES.contains(&q.ghost_bytes_per_face),
                    "seed {seed}: {q:?}"
                );
                assert!(q.ghost_bytes_per_face > eager);
                assert_eq!(q.steps, base.steps);
                assert!(q.allreduce_every >= 1);
                assert!((0.0..=1.0).contains(&q.mem_intensity));
                assert!((0.0..=1.0).contains(&q.overlap_fraction));
                let r = q.atoms_per_rank as f64 / base.atoms_per_rank as f64;
                assert!((0.75..=1.25).contains(&r), "seed {seed}: atoms ratio {r}");
            }

            let s = p2p(seed);
            assert_eq!(s.len(), 22);
            assert_eq!((s[0], s[21]), (0, MAX_MSG));
            for (k, &b) in (2..22).zip(&s[1..21]) {
                assert!(
                    (1u64 << k..1u64 << (k + 1)).contains(&b),
                    "seed {seed}: {s:?}"
                );
            }
        }
    }

    #[test]
    fn inputs_are_a_pure_function_of_the_seed() {
        assert_eq!(p2p(7), p2p(7));
        assert_ne!(p2p(7), p2p(8));
        assert_eq!(format!("{:?}", md(7)), format!("{:?}", md(7)));
        assert_ne!(format!("{:?}", md(7)), format!("{:?}", md(8)));
        assert_ne!(format!("{:?}", cg(7)), format!("{:?}", cg(0)));
    }

    fn fuzz(seed: u64) -> Vec<Scenario> {
        match Inputs::generate(Workload::Fuzz, seed) {
            Inputs::Fuzz(s) => s,
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn fuzz_batches_share_seed_zeros_shapes_and_sizes() {
        let zero = fuzz(0);
        assert_eq!(zero.len() as u64, FUZZ_SCENARIOS);
        assert_eq!(zero[5].seed, batch_seed(0, 5));
        for seed in [3, 99] {
            let b = fuzz(seed);
            assert_eq!(b.len(), zero.len(), "seed {seed}");
            for (s, z) in b.iter().zip(&zero) {
                assert_eq!((s.nodes, s.ppn), (z.nodes, z.ppn), "seed {seed}");
                assert_eq!(s.msg_sizes, z.msg_sizes, "seed {seed}");
            }
            assert!(b.iter().all(|s| s.shards == 1));
            assert!(b.iter().all(|s| !zero.iter().any(|z| z.seed == s.seed)));
        }
    }
}
