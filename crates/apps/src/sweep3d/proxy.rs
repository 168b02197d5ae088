//! Parallel Sweep3D proxy (Figures 4 and 5): KBA wavefront sweeps on a
//! 2D process grid with k-block and angle-block pipelining.
//!
//! Fixed-size study: the IJK grid stays constant while the process
//! count grows, so per-process compute shrinks while the pipeline
//! deepens — communication exposure grows and the cache-residency
//! factor shrinks (the §4.2.2 superlinear artifact).

use std::cell::Cell;
use std::rc::Rc;

use elanib_mpi::collectives::{allreduce, barrier, Op};
use elanib_mpi::{recv, send, Communicator, JobSpec, Network, Payload, RankProgram};
use elanib_nodesim::cache_speed_factor;
use elanib_simcore::Dur;

use crate::ScalingPoint;

/// A fixed-size Sweep3D problem.
#[derive(Clone, Copy, Debug)]
pub struct SweepProblem {
    /// Grid points per side (the paper's main study: 150).
    pub n: usize,
    /// k-block size (cells pipelined per stage).
    pub mk: usize,
    /// Angles per octant.
    pub angles_per_octant: usize,
    /// Angle-block size.
    pub mmi: usize,
    /// Time per cell-angle update on one 3.06 GHz Xeon, cache-resident.
    pub time_per_cell_angle: Dur,
    /// Worst-case slowdown when the working set falls out of cache.
    pub cache_penalty: f64,
    /// Memory intensity (2 PPN dilation coupling).
    pub mem_intensity: f64,
    /// Sweep iterations measured.
    pub iterations: u32,
}

/// The paper's 150³ input (§2.2.2).
pub fn sweep150() -> SweepProblem {
    SweepProblem {
        n: 150,
        mk: 5,
        angles_per_octant: 6,
        mmi: 3,
        time_per_cell_angle: Dur::from_ns(50),
        cache_penalty: 1.35,
        mem_intensity: 0.5,
        iterations: 1,
    }
}

/// Variant used for the Figure 5 input-size family.
pub fn sweep_cube(n: usize) -> SweepProblem {
    SweepProblem { n, ..sweep150() }
}

/// Near-square 2D factorization p = px × py with px ≥ py.
pub fn decompose2(p: usize) -> (usize, usize) {
    let mut best = (p, 1);
    for py in 1..=p {
        if p.is_multiple_of(py) {
            let px = p / py;
            if px >= py {
                best = (px, py);
            } else {
                break;
            }
        }
    }
    best
}

#[derive(Clone)]
struct SweepProxy {
    problem: SweepProblem,
    out_time_s: Rc<Cell<f64>>,
    out_flux: Rc<Cell<f64>>,
}

impl RankProgram for SweepProxy {
    // The explicit `impl Future + 'static` (rather than `async fn`)
    // keeps the 'static bound visible at the trait boundary.
    #[allow(clippy::manual_async_fn)]
    fn run<C: Communicator>(self, c: C) -> impl std::future::Future<Output = ()> + 'static {
        async move {
            let p = self.problem;
            let nprocs = c.size();
            let me = c.rank();
            let sim = c.sim();
            let (px, py) = decompose2(nprocs);
            let (mx, my) = (me % px, me / px);
            // Local sub-grid extents; the remainder is spread over the
            // low-index ranks, as Sweep3D's BALANCE routine does.
            let it = p.n / px + usize::from(mx < p.n % px);
            let jt = p.n / py + usize::from(my < p.n % py);
            let kt = p.n;

            let k_blocks = kt.div_ceil(p.mk);
            let a_blocks = p.angles_per_octant.div_ceil(p.mmi);
            // Per-block compute, scaled by cache residency of the
            // local working set. The hot set per sweep is the
            // persistent per-(i,j)-column state (flux accumulators,
            // cross sections, boundary planes) — ~90 bytes per column.
            // With 150³ this overflows the 512 KB L2 at 1 process and
            // fits from 4 processes up, producing exactly the paper's
            // superlinear 1→4 jump (§4.2.2).
            let ws = (it * jt * 90) as u64;
            let cache = cache_speed_factor(512 * 1024, ws, p.cache_penalty);
            let cells_per_block = it * jt * p.mk.min(kt) * p.mmi;
            let block_compute = Dur::from_ps(
                (p.time_per_cell_angle.as_ps() as f64 * cells_per_block as f64 * cache) as u64,
            );
            // Face messages: angular flux on the block's downstream
            // faces, 8 bytes per cell-angle.
            let bytes_i = (jt * p.mk * p.mmi * 8) as u64;
            let bytes_j = (it * p.mk * p.mmi * 8) as u64;
            let payload = Payload::from([me as f64; 4]);

            barrier(&c).await;
            let t0 = sim.now();
            let mut flux_acc = 0.0f64;
            for _iter in 0..p.iterations {
                // 8 octants = 4 (i,j) sweep directions × 2 z-hemispheres.
                for octant in 0..8usize {
                    let sx = octant % 2 == 0; // sweep +i ?
                    let sy = (octant / 2) % 2 == 0; // sweep +j ?
                    let up_i = if sx {
                        mx.checked_sub(1).map(|x| my * px + x)
                    } else {
                        (mx + 1 < px).then(|| my * px + mx + 1)
                    };
                    let up_j = if sy {
                        my.checked_sub(1).map(|y| (y) * px + mx)
                    } else {
                        (my + 1 < py).then(|| (my + 1) * px + mx)
                    };
                    let down_i = if sx {
                        (mx + 1 < px).then(|| my * px + mx + 1)
                    } else {
                        mx.checked_sub(1).map(|x| my * px + x)
                    };
                    let down_j = if sy {
                        (my + 1 < py).then(|| (my + 1) * px + mx)
                    } else {
                        my.checked_sub(1).map(|y| y * px + mx)
                    };
                    let tag = octant as i64;
                    for _stage in 0..k_blocks * a_blocks {
                        if let Some(src) = up_i {
                            let m = recv(&c, Some(src), Some(tag)).await;
                            flux_acc += m.data[0];
                        }
                        if let Some(src) = up_j {
                            let m = recv(&c, Some(src), Some(tag)).await;
                            flux_acc += m.data[0];
                        }
                        c.compute(block_compute, p.mem_intensity).await;
                        if let Some(dst) = down_i {
                            send(&c, dst, tag, payload.clone(), bytes_i).await;
                        }
                        if let Some(dst) = down_j {
                            send(&c, dst, tag, payload.clone(), bytes_j).await;
                        }
                    }
                }
                // Convergence test: global flux norm (the iterative
                // scattering-source step of §2.2.2).
                let norm = allreduce(&c, Op::Sum, &[1.0 + flux_acc * 0.0]).await;
                if me == 0 {
                    self.out_flux.set(norm[0]);
                }
            }
            barrier(&c).await;
            if me == 0 {
                self.out_time_s
                    .set(sim.now().since(t0).as_secs_f64() / p.iterations as f64);
            }
        }
    }
}

/// Run one Sweep3D job; returns seconds per sweep iteration.
pub fn sweep_time(network: Network, problem: SweepProblem, nodes: usize, ppn: usize) -> f64 {
    let out = Rc::new(Cell::new(0.0));
    let flux = Rc::new(Cell::new(0.0));
    elanib_mpi::run_job(
        JobSpec {
            network,
            nodes,
            ppn,
            seed: 31,
        },
        SweepProxy {
            problem,
            out_time_s: out.clone(),
            out_flux: flux.clone(),
        },
    );
    assert_eq!(flux.get(), (nodes * ppn) as f64, "convergence allreduce");
    out.get()
}

/// Grind time in nanoseconds per cell-angle (Figure 4(a)'s y-axis).
pub fn grind_time_ns(problem: SweepProblem, time_s: f64, procs: usize) -> f64 {
    let work = problem.n.pow(3) as f64 * (8 * problem.angles_per_octant) as f64;
    time_s * 1e9 / (work / procs as f64)
}

/// Fixed-size scaling study (Figure 4): efficiency is
/// `T(1) / (p · T(p))` — superlinear values > 1 are expected at small
/// p because of cache residency.
pub fn sweep_study(
    network: Network,
    problem: SweepProblem,
    proc_counts: &[usize],
    ppn: usize,
) -> Vec<ScalingPoint> {
    for &procs in proc_counts {
        assert_eq!(procs % ppn, 0, "procs must be a multiple of ppn");
    }
    // Independent fixed-size jobs fan out through the sweep engine;
    // the T(1)-normalized efficiency fold stays serial.
    let times = elanib_core::sweep(proc_counts, |&procs| {
        sweep_time(network, problem, procs / ppn, ppn)
    });
    let mut out = Vec::new();
    let mut t1 = None;
    for (&procs, &t) in proc_counts.iter().zip(&times) {
        let base = *t1.get_or_insert(t * proc_counts[0] as f64);
        out.push(ScalingPoint {
            nodes: procs / ppn,
            procs,
            time_s: t,
            efficiency: base / (procs as f64 * t),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decompose2_is_near_square() {
        assert_eq!(decompose2(1), (1, 1));
        assert_eq!(decompose2(4), (2, 2));
        assert_eq!(decompose2(9), (3, 3));
        assert_eq!(decompose2(16), (4, 4));
        assert_eq!(decompose2(25), (5, 5));
        assert_eq!(decompose2(6), (3, 2));
    }

    #[test]
    fn single_proc_time_matches_work_model() {
        let p = SweepProblem {
            n: 30,
            ..sweep150()
        };
        let t = sweep_time(Network::Elan4, p, 1, 1);
        // 30³ cells × 48 angles × 50 ns × cache factor.
        let ws = 30u64 * 30 * 90;
        let cache = cache_speed_factor(512 * 1024, ws, 1.35);
        let expect = 30f64.powi(3) * 48.0 * 50e-9 * cache;
        assert!((t - expect).abs() / expect < 0.02, "t={t}, expect {expect}");
    }

    #[test]
    fn superlinear_speedup_from_one_to_four() {
        // §4.2.2: "Sweep3d exhibits a superlinear speedup when moving
        // from 1 to 4 processors ... attributable to the unscaled
        // problem fitting in cache." Needs the full 150³ input: the
        // one-process working set must overflow L2.
        let pts = sweep_study(Network::Elan4, sweep150(), &[1, 4], 1);
        assert!(
            pts[1].efficiency > 1.05,
            "expected superlinear efficiency, got {}",
            pts[1].efficiency
        );
    }

    #[test]
    fn wavefront_is_deadlock_free_on_odd_grids() {
        // 3x2 grid exercises asymmetric up/down neighbor logic.
        let p = SweepProblem {
            n: 24,
            iterations: 1,
            ..sweep150()
        };
        let t = sweep_time(Network::InfiniBand, p, 6, 1);
        assert!(t > 0.0);
    }
}
