//! The parallel LAMMPS proxy (§2.2.1): spatial decomposition with
//! 6-way halo exchange, periodic global reductions, and a configurable
//! computation/communication overlap structure.
//!
//! This is a *proxy*: the communication pattern, message sizes, and
//! overlap structure are those of spatial-decomposition MD at the
//! paper's scale, while per-step force computation is charged through
//! the node model (`Communicator::compute`). The actual LJ physics is
//! validated separately in [`crate::md::kernel`].

use std::cell::Cell;
use std::rc::Rc;

use elanib_mpi::collectives::{allreduce, barrier, Op};
use elanib_mpi::{
    irecv, isend, waitall, Communicator, JobSpec, NetConfig, Network, Payload, RankProgram,
};
use elanib_simcore::Dur;

use crate::ScalingPoint;

/// A scaled-size MD problem (per-process work constant).
#[derive(Clone, Copy, Debug)]
pub struct MdProblem {
    pub name: &'static str,
    /// Atoms owned by each rank (scaled study: constant per process).
    pub atoms_per_rank: u64,
    /// Force+integration time per atom per step on one 3.06 GHz Xeon.
    pub time_per_atom_step: Dur,
    /// Memory intensity of the force kernel (drives 2 PPN dilation).
    pub mem_intensity: f64,
    /// Ghost-atom exchange volume per face per step.
    pub ghost_bytes_per_face: u64,
    /// Fraction of the force computation that the code structures
    /// *between* posting the halo exchange and waiting on it. The
    /// membrane problem "exploits asynchronous communications and
    /// successfully leverages overlap" (§4.2.1); LJS much less so.
    pub overlap_fraction: f64,
    /// Global energy/virial reduction every this many steps.
    pub allreduce_every: u32,
    /// Per-step, per-rank compute imbalance amplitude (density
    /// fluctuations in the decomposition). The slowest of n ranks sets
    /// the pace of every step, so this term alone makes efficiency
    /// decline with process count — on any network.
    pub jitter: f64,
    /// Measured timesteps (after warm-up).
    pub steps: u32,
}

/// The Lennard-Jones system problem set of Figure 2.
pub fn ljs() -> MdProblem {
    MdProblem {
        name: "LJS",
        atoms_per_rank: 32_000,
        time_per_atom_step: Dur::from_ns(150),
        mem_intensity: 0.30,
        ghost_bytes_per_face: 24 * 1024,
        overlap_fraction: 0.30,
        allreduce_every: 5,
        jitter: 0.08,
        steps: 30,
    }
}

/// The biomembrane problem set of Figures 3 and 8: high per-atom cost
/// (long-range + bonded terms) and aggressive overlap.
pub fn membrane() -> MdProblem {
    MdProblem {
        name: "membrane",
        atoms_per_rank: 16_000,
        time_per_atom_step: Dur::from_ns(125),
        mem_intensity: 0.18,
        ghost_bytes_per_face: 24 * 1024,
        overlap_fraction: 0.70,
        allreduce_every: 1,
        jitter: 0.05,
        steps: 30,
    }
}

/// Balanced 3-factor decomposition of `n` (px ≥ py ≥ pz, px·py·pz = n).
pub fn decompose3(n: usize) -> (usize, usize, usize) {
    let mut best = (n, 1, 1);
    let mut best_score = usize::MAX;
    for px in 1..=n {
        if !n.is_multiple_of(px) {
            continue;
        }
        let rem = n / px;
        for py in 1..=rem {
            if !rem.is_multiple_of(py) {
                continue;
            }
            let pz = rem / py;
            // Minimize surface ~ spread between factors.
            let score = px.max(py).max(pz) - px.min(py).min(pz);
            if score < best_score {
                best_score = score;
                let mut dims = [px, py, pz];
                dims.sort_unstable_by(|a, b| b.cmp(a));
                best = (dims[0], dims[1], dims[2]);
            }
        }
    }
    best
}

/// Neighbor ranks of `me` in a periodic (px, py, pz) grid: one entry
/// per face whose neighbor is a *different* rank.
fn face_neighbors(me: usize, dims: (usize, usize, usize)) -> Vec<usize> {
    let (px, py, pz) = dims;
    let (x, y, z) = (me % px, (me / px) % py, me / (px * py));
    let idx = |x: usize, y: usize, z: usize| x + px * (y + py * z);
    let mut out = Vec::new();
    for (dim, size) in [(0usize, px), (1, py), (2, pz)] {
        if size == 1 {
            continue; // periodic self-neighbor: no message
        }
        // With only two ranks along a dimension, both periodic
        // directions reach the same neighbor: one message, not two.
        let dirs: &[usize] = if size == 2 { &[1] } else { &[1, size - 1] };
        for &dir in dirs {
            let n = match dim {
                0 => idx((x + dir) % px, y, z),
                1 => idx(x, (y + dir) % py, z),
                _ => idx(x, y, (z + dir) % pz),
            };
            if n != me {
                out.push(n);
            }
        }
    }
    out
}

#[derive(Clone)]
struct MdProxy {
    problem: MdProblem,
    /// Seconds per measured step, written by rank 0.
    out_step_s: Rc<Cell<f64>>,
    /// Validation: allreduce result seen (must equal n_ranks).
    out_checksum: Rc<Cell<f64>>,
}

impl RankProgram for MdProxy {
    // The explicit `impl Future + 'static` (rather than `async fn`)
    // keeps the 'static bound visible at the trait boundary.
    #[allow(clippy::manual_async_fn)]
    fn run<C: Communicator>(self, c: C) -> impl std::future::Future<Output = ()> + 'static {
        async move {
            let p = self.problem;
            let n = c.size();
            let me = c.rank();
            let sim = c.sim();
            let dims = decompose3(n);
            let neighbors = face_neighbors(me, dims);
            let compute_total = Dur::from_ps(p.time_per_atom_step.as_ps() * p.atoms_per_rank);
            let ghost = Payload::from([me as f64; 32]);

            // Deterministic per-(rank, step) load imbalance in
            // [1-jitter, 1+jitter].
            let imbalance = move |step: u64| {
                let mut h = (me as u64)
                    .wrapping_mul(0x9E3779B97F4A7C15)
                    .wrapping_add(step.wrapping_mul(0xD1B54A32D192ED03));
                h ^= h >> 31;
                h = h.wrapping_mul(0xBF58476D1CE4E5B9);
                h ^= h >> 29;
                1.0 + p.jitter * ((h >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0)
            };

            let step_fn = |c: C, ghost: Payload, neighbors: Vec<usize>, step_no: u64| async move {
                let total = compute_total.scale(imbalance(step_no));
                let t_overlap = total.scale(p.overlap_fraction);
                let t_rest = total - t_overlap;
                // Post receives, then sends, then overlap compute.
                let mut reqs = Vec::with_capacity(neighbors.len() * 2);
                for &nb in &neighbors {
                    reqs.push(irecv(&c, Some(nb), Some(7)).await);
                }
                for &nb in &neighbors {
                    reqs.push(isend(&c, nb, 7, ghost.clone(), p.ghost_bytes_per_face).await);
                }
                c.compute(t_overlap, p.mem_intensity).await;
                waitall(&c, reqs).await;
                c.compute(t_rest, p.mem_intensity).await;
            };

            // Warm-up (builds neighbor paths, fills registration
            // caches) then the measured section.
            for w in 0..3u64 {
                step_fn(c.clone(), ghost.clone(), neighbors.clone(), 1000 + w).await;
            }
            barrier(&c).await;
            let t0 = sim.now();
            for s in 0..p.steps {
                step_fn(c.clone(), ghost.clone(), neighbors.clone(), s as u64).await;
                if s % p.allreduce_every == 0 {
                    let sums = allreduce(&c, Op::Sum, &[1.0, me as f64, 0.5]).await;
                    if me == 0 {
                        self.out_checksum.set(sums[0]);
                    }
                }
            }
            barrier(&c).await;
            if me == 0 {
                let total = sim.now().since(t0).as_secs_f64();
                self.out_step_s.set(total / p.steps as f64);
            }
        }
    }
}

/// Run one MD job; returns seconds per timestep.
pub fn md_step_time(network: Network, problem: MdProblem, nodes: usize, ppn: usize) -> f64 {
    md_step_time_cfg(network, problem, nodes, ppn, &NetConfig::default())
}

/// [`md_step_time`] with explicit stack parameters — the entry point
/// of the ablation studies.
pub fn md_step_time_cfg(
    network: Network,
    problem: MdProblem,
    nodes: usize,
    ppn: usize,
    cfg: &NetConfig,
) -> f64 {
    let out = Rc::new(Cell::new(0.0));
    let check = Rc::new(Cell::new(0.0));
    elanib_mpi::run_job_configured(
        JobSpec {
            network,
            nodes,
            ppn,
            seed: 21,
        },
        cfg,
        MdProxy {
            problem,
            out_step_s: out.clone(),
            out_checksum: check.clone(),
        },
    );
    assert_eq!(
        check.get(),
        (nodes * ppn) as f64,
        "allreduce checksum must equal the rank count"
    );
    out.get()
}

/// The scaled-size scaling study of Figures 2/3: per-step time and
/// scaling efficiency versus node count (normalized to the smallest
/// node count in the sweep, per curve).
///
/// The per-count jobs are independent simulations, so they run through
/// the parallel sweep engine; only the efficiency fold (which needs
/// the first count's time as the base) is serial.
pub fn md_study(
    network: Network,
    problem: MdProblem,
    node_counts: &[usize],
    ppn: usize,
) -> Vec<ScalingPoint> {
    let times = elanib_core::sweep(node_counts, |&nodes| {
        md_step_time(network, problem, nodes, ppn)
    });
    let mut out = Vec::new();
    let mut base = None;
    for (&nodes, &t) in node_counts.iter().zip(&times) {
        let b = *base.get_or_insert(t);
        out.push(ScalingPoint {
            nodes,
            procs: nodes * ppn,
            time_s: t,
            efficiency: b / t,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decompose3_balanced() {
        assert_eq!(decompose3(1), (1, 1, 1));
        assert_eq!(decompose3(2), (2, 1, 1));
        assert_eq!(decompose3(8), (2, 2, 2));
        assert_eq!(decompose3(12), (3, 2, 2));
        assert_eq!(decompose3(32), (4, 4, 2));
        assert_eq!(decompose3(64), (4, 4, 4));
    }

    #[test]
    fn face_neighbors_symmetry() {
        // Neighborhood relation must be symmetric (everyone who I send
        // to also sends to me) — otherwise the halo deadlocks.
        for n in [2usize, 4, 8, 12, 32] {
            let dims = decompose3(n);
            for me in 0..n {
                for nb in face_neighbors(me, dims) {
                    assert!(
                        face_neighbors(nb, dims).contains(&me),
                        "asymmetric at n={n}: {me} -> {nb}"
                    );
                }
            }
        }
    }

    #[test]
    fn face_neighbor_counts() {
        // 2x2x2: every rank has 3 distinct neighbors (each dimension
        // size 2 gives one distinct neighbor, both directions collide).
        let dims = decompose3(8);
        for me in 0..8 {
            assert_eq!(face_neighbors(me, dims).len(), 3);
        }
        // 4x4x2: x,y give 2 each, z gives 1 -> 5.
        let dims = decompose3(32);
        assert_eq!(face_neighbors(0, dims).len(), 5);
    }

    #[test]
    fn single_rank_runs_compute_only() {
        let t = md_step_time(Network::Elan4, ljs(), 1, 1);
        let expect = 150e-9 * 32_000.0;
        assert!(
            (t - expect).abs() / expect < 0.05,
            "1-rank step time {t}, expected ~{expect}"
        );
    }

    #[test]
    fn elan_scales_at_least_as_well_as_ib() {
        let p = MdProblem { steps: 10, ..ljs() };
        let e = md_study(Network::Elan4, p, &[1, 4], 1);
        let i = md_study(Network::InfiniBand, p, &[1, 4], 1);
        assert!(e[1].efficiency >= i[1].efficiency - 0.01);
        assert!(e[1].efficiency > 0.5 && i[1].efficiency > 0.5);
    }

    #[test]
    fn roce_md_step_is_finite_and_no_faster_than_ib() {
        // Fig2's smallest point that crosses the network, and its largest.
        for (nodes, ppn) in [(2, 1), (32, 2)] {
            let ib = md_step_time(Network::InfiniBand, ljs(), nodes, ppn);
            for mode in elanib_mpi::RoceMode::ALL {
                let t = md_step_time(Network::RoceV2(mode), ljs(), nodes, ppn);
                assert!(
                    t.is_finite() && t >= ib,
                    "{mode} at {nodes}x{ppn}: {t} s/step vs IB {ib} s/step"
                );
            }
        }
    }
}
