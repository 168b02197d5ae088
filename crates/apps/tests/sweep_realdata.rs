//! Real-data distributed sweep: ranks own x-slabs of the grid, pass
//! actual angular boundary fluxes downstream over the simulated MPI,
//! and the assembled solution must equal the serial kernel bit-for-bit
//! (the arithmetic is identical; only the traversal is distributed).
//!
//! This is the correctness backbone under the Figure 4/5 proxy: it
//! proves the wavefront protocol (receive upstream flux → sweep local
//! slab → send downstream flux) transports the physics exactly.

use std::cell::RefCell;
use std::rc::Rc;

use elanib_apps::sweep3d::SweepGrid;
use elanib_mpi::{recv, send, Communicator, JobSpec, Network, Payload, RankProgram};

const NY: usize = 12;
const NZ: usize = 10;
const ANGLES: [(f64, f64, f64); 3] = [(0.5, 0.5, 0.5), (0.9, 0.3, 0.2), (0.35, 0.88, 0.31)];

fn slab(nx: usize) -> SweepGrid {
    SweepGrid {
        nx,
        ny: NY,
        nz: NZ,
        sigma_t: 1.3,
        source: 0.7,
        dx: 0.8,
        dy: 1.1,
        dz: 0.9,
    }
}

#[derive(Clone)]
struct DistributedSweep {
    /// Cells along x per rank.
    nx_local: usize,
    /// (rank, angle index) -> local cell flux, written per rank.
    out: Rc<RefCell<Vec<Vec<f64>>>>,
    /// Outgoing boundary flux of the last rank, per angle.
    out_boundary: Rc<RefCell<Vec<Vec<f64>>>>,
}

impl RankProgram for DistributedSweep {
    // The explicit `impl Future + 'static` (rather than `async fn`)
    // keeps the 'static bound visible at the trait boundary.
    #[allow(clippy::manual_async_fn)]
    fn run<C: Communicator>(self, c: C) -> impl std::future::Future<Output = ()> + 'static {
        async move {
            let me = c.rank();
            let n = c.size();
            let grid = slab(self.nx_local);
            for (a, &(mu, eta, xi)) in ANGLES.iter().enumerate() {
                // Receive incoming boundary flux from upstream (vacuum
                // at the global low-x face).
                let psi_in = if me == 0 {
                    vec![0.0; NY * NZ]
                } else {
                    let m = recv(&c, Some(me - 1), Some(a as i64)).await;
                    m.data.to_vec()
                };
                let (flux, psi_out) = grid.sweep_angle_with_bc(mu, eta, xi, &psi_in);
                if me + 1 < n {
                    send(
                        &c,
                        me + 1,
                        a as i64,
                        Payload::from(&psi_out[..]),
                        (psi_out.len() * 8) as u64,
                    )
                    .await;
                } else {
                    self.out_boundary.borrow_mut()[a] = psi_out;
                }
                self.out.borrow_mut()[me * ANGLES.len() + a] = flux;
            }
        }
    }
}

fn run_distributed(
    network: Network,
    ranks: usize,
    nx_total: usize,
) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
    assert_eq!(nx_total % ranks, 0);
    let out = Rc::new(RefCell::new(vec![Vec::new(); ranks * ANGLES.len()]));
    let out_boundary = Rc::new(RefCell::new(vec![Vec::new(); ANGLES.len()]));
    elanib_mpi::run_job(
        JobSpec {
            network,
            nodes: ranks,
            ppn: 1,
            seed: 77,
        },
        DistributedSweep {
            nx_local: nx_total / ranks,
            out: out.clone(),
            out_boundary: out_boundary.clone(),
        },
    );
    (
        Rc::try_unwrap(out).unwrap().into_inner(),
        Rc::try_unwrap(out_boundary).unwrap().into_inner(),
    )
}

#[test]
fn distributed_sweep_equals_serial() {
    let nx_total = 16;
    let serial = slab(nx_total);
    for net in Network::BOTH {
        for ranks in [2usize, 4, 8] {
            let (fluxes, boundaries) = run_distributed(net, ranks, nx_total);
            let nx_local = nx_total / ranks;
            for (a, &(mu, eta, xi)) in ANGLES.iter().enumerate() {
                let (serial_flux, serial_out) = serial.sweep_angle(mu, eta, xi);
                // Reassemble the distributed flux in global x order.
                for r in 0..ranks {
                    let local = &fluxes[r * ANGLES.len() + a];
                    assert_eq!(local.len(), nx_local * NY * NZ);
                    for k in 0..NZ {
                        for j in 0..NY {
                            for i in 0..nx_local {
                                let g = (r * nx_local + i) + nx_total * (j + NY * k);
                                let l = i + nx_local * (j + NY * k);
                                let (sv, dv) = (serial_flux[g], local[l]);
                                assert!(
                                    (sv - dv).abs() <= 1e-12 * sv.abs().max(1.0),
                                    "{net}, {ranks} ranks, angle {a}: cell ({i},{j},{k}) of rank {r}: {dv} vs serial {sv}"
                                );
                            }
                        }
                    }
                }
                // The global outgoing boundary matches too.
                let dist_out = &boundaries[a];
                for (s, d) in serial_out.iter().zip(dist_out) {
                    assert!((s - d).abs() <= 1e-12 * s.abs().max(1.0));
                }
            }
        }
    }
}

#[test]
fn slab_chaining_invariant_holds_serially() {
    // The kernel-level contract without any MPI: sweeping two slabs in
    // sequence equals sweeping the joined grid.
    let joined = slab(10);
    let left = slab(6);
    let right = slab(4);
    for &(mu, eta, xi) in &ANGLES {
        let (jf, jout) = joined.sweep_angle(mu, eta, xi);
        let (lf, lout) = left.sweep_angle(mu, eta, xi);
        let (rf, rout) = right.sweep_angle_with_bc(mu, eta, xi, &lout);
        for k in 0..NZ {
            for j in 0..NY {
                for i in 0..10usize {
                    let jv = jf[i + 10 * (j + NY * k)];
                    let dv = if i < 6 {
                        lf[i + 6 * (j + NY * k)]
                    } else {
                        rf[(i - 6) + 4 * (j + NY * k)]
                    };
                    assert!((jv - dv).abs() <= 1e-12 * jv.abs().max(1.0));
                }
            }
        }
        for (a, b) in jout.iter().zip(&rout) {
            assert!((a - b).abs() <= 1e-12 * a.abs().max(1.0));
        }
    }
}
