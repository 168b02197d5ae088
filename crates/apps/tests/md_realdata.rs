#![allow(clippy::needless_range_loop)] // xyz-axis loops

//! Real-data distributed molecular dynamics: ranks own x-slabs of a
//! periodic LJ box, exchange real ghost-atom coordinates over the
//! simulated MPI every step, and the trajectory must track the serial
//! kernel (same physics, different — but equivalent — summation
//! order, so agreement is to tight tolerance rather than bitwise).
//!
//! This validates the halo-exchange protocol under the Figure 2/3
//! proxy with actual physics flowing through it.

use std::cell::RefCell;
use std::rc::Rc;

use elanib_apps::md::LjSystem;
use elanib_mpi::{recv, send, Communicator, JobSpec, Network, Payload, RankProgram};

const N_SIDE: usize = 6; // 216 atoms
const DENSITY: f64 = 0.3; // box edge ~8.96 => 3 slabs still exceed the 2.5 cutoff
const DT: f64 = 0.002;
const STEPS: usize = 5;

/// One owned atom: global id + phase-space state.
#[derive(Clone, Copy, Debug)]
struct Atom {
    id: usize,
    pos: [f64; 3],
    vel: [f64; 3],
}

/// LJ pair force magnitude / r factors, identical to the serial kernel.
fn lj(r2: f64, rc2: f64) -> Option<(f64, f64)> {
    if r2 >= rc2 || r2 == 0.0 {
        return None;
    }
    let inv_r2 = 1.0 / r2;
    let inv_r6 = inv_r2.powi(3);
    let inv_r12 = inv_r6 * inv_r6;
    let fmag = (48.0 * inv_r12 - 24.0 * inv_r6) * inv_r2;
    let rc6 = rc2.powi(3);
    let e_cut = 4.0 * (1.0 / (rc6 * rc6) - 1.0 / rc6);
    let pe = 4.0 * (inv_r12 - inv_r6) - e_cut;
    Some((fmag, pe))
}

#[derive(Clone)]
struct DistributedMd {
    ranks: usize,
    /// Final (id, pos, vel) collected from every rank.
    out: Rc<RefCell<Vec<Atom>>>,
    /// Per-step total potential energy (rank 0's view after allreduce).
    out_pe: Rc<RefCell<Vec<f64>>>,
}

impl RankProgram for DistributedMd {
    // The explicit `impl Future + 'static` (rather than `async fn`)
    // keeps the 'static bound visible at the trait boundary.
    #[allow(clippy::manual_async_fn)]
    fn run<C: Communicator>(self, c: C) -> impl std::future::Future<Output = ()> + 'static {
        async move {
            use elanib_mpi::collectives::{allreduce, Op};
            let me = c.rank();
            let nr = self.ranks;
            // Deterministic initial state, identical to the serial run.
            let reference = LjSystem::lattice(N_SIDE, DENSITY);
            let box_len = reference.box_len;
            let cutoff = reference.cutoff;
            let rc2 = cutoff * cutoff;
            let slab_w = box_len / nr as f64;
            assert!(
                slab_w > cutoff,
                "slab must exceed the cutoff for single-shell ghosts"
            );
            // My owned atoms.
            let mut mine: Vec<Atom> = (0..reference.n_atoms())
                .filter(|&i| (reference.pos[i][0] / slab_w) as usize % nr == me)
                .map(|i| Atom {
                    id: i,
                    pos: reference.pos[i],
                    vel: reference.vel[i],
                })
                .collect();
            let left = (me + nr - 1) % nr;
            let right = (me + 1) % nr;

            let mut forces: Vec<[f64; 3]>;
            for step in 0..=STEPS {
                // 1. Ghost exchange: send atoms within `cutoff` of each
                //    face, x-shifted across the periodic boundary so
                //    receivers use raw differences.
                let lo = me as f64 * slab_w;
                let hi = lo + slab_w;
                let pack = |pred: &dyn Fn(&Atom) -> bool, shift: f64| -> Vec<f64> {
                    let mut v = Vec::new();
                    for a in mine.iter().filter(|a| pred(a)) {
                        v.extend_from_slice(&[a.id as f64, a.pos[0] + shift, a.pos[1], a.pos[2]]);
                    }
                    v
                };
                let to_left = pack(
                    &|a| a.pos[0] < lo + cutoff,
                    if me == 0 { box_len } else { 0.0 },
                );
                let to_right = pack(
                    &|a| a.pos[0] >= hi - cutoff,
                    if me == nr - 1 { -box_len } else { 0.0 },
                );
                let mut ghosts: Vec<(usize, [f64; 3])> = Vec::new();
                if nr > 1 {
                    let tagl = 10 + step as i64 * 4;
                    let tagr = 11 + step as i64 * 4;
                    // Exchange with both neighbors (distinct unless nr == 2).
                    let lmsg = if me.is_multiple_of(2) {
                        send(
                            &c,
                            left,
                            tagl,
                            Payload::from(&to_left[..]),
                            (to_left.len() * 8) as u64,
                        )
                        .await;
                        recv(&c, Some(right), Some(tagl)).await
                    } else {
                        let m = recv(&c, Some(right), Some(tagl)).await;
                        send(
                            &c,
                            left,
                            tagl,
                            Payload::from(&to_left[..]),
                            (to_left.len() * 8) as u64,
                        )
                        .await;
                        m
                    };
                    let rmsg = if me.is_multiple_of(2) {
                        send(
                            &c,
                            right,
                            tagr,
                            Payload::from(&to_right[..]),
                            (to_right.len() * 8) as u64,
                        )
                        .await;
                        recv(&c, Some(left), Some(tagr)).await
                    } else {
                        let m = recv(&c, Some(left), Some(tagr)).await;
                        send(
                            &c,
                            right,
                            tagr,
                            Payload::from(&to_right[..]),
                            (to_right.len() * 8) as u64,
                        )
                        .await;
                        m
                    };
                    for chunk in lmsg.data.chunks_exact(4) {
                        ghosts.push((chunk[0] as usize, [chunk[1], chunk[2], chunk[3]]));
                    }
                    for chunk in rmsg.data.chunks_exact(4) {
                        ghosts.push((chunk[0] as usize, [chunk[1], chunk[2], chunk[3]]));
                    }
                }

                // 2. Forces on owned atoms from owned + ghost neighbors
                //    (y/z min-image; x handled by slab geometry).
                let mut pe_local = 0.0;
                forces = vec![[0.0; 3]; mine.len()];
                for (ai, a) in mine.iter().enumerate() {
                    for b in mine
                        .iter()
                        .map(|b| (b.id, b.pos))
                        .chain(ghosts.iter().copied())
                    {
                        if b.0 == a.id {
                            continue;
                        }
                        let mut d = [0.0; 3];
                        d[0] = b.1[0] - a.pos[0];
                        for k in 1..3 {
                            let mut x = b.1[k] - a.pos[k];
                            x -= box_len * (x / box_len).round();
                            d[k] = x;
                        }
                        let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
                        if let Some((fmag, pe)) = lj(r2, rc2) {
                            for k in 0..3 {
                                forces[ai][k] -= fmag * d[k];
                            }
                            pe_local += 0.5 * pe; // each pair counted twice
                        }
                    }
                }
                let pe = allreduce(&c, Op::Sum, &[pe_local]).await[0];
                if me == 0 {
                    self.out_pe.borrow_mut().push(pe);
                }
                if step == STEPS {
                    break;
                }

                // 3. Velocity-Verlet with a force recomputation next
                //    loop — equivalent to the serial kernel's scheme
                //    when forces are recomputed every half-step pair.
                //    We use simple leapfrog-style integration here and
                //    in the serial replica below, so both match.
                for (a, f) in mine.iter_mut().zip(&forces) {
                    for k in 0..3 {
                        a.vel[k] += DT * f[k];
                        a.pos[k] += DT * a.vel[k];
                        a.pos[k] = a.pos[k].rem_euclid(box_len);
                    }
                }
                // No migration support: fail loudly if an atom leaves
                // its slab within the short test horizon.
                for a in &mine {
                    assert!(
                        a.pos[0] >= lo - 1e-9 && a.pos[0] < hi + 1e-9,
                        "atom {} migrated out of slab {me}",
                        a.id
                    );
                }
            }
            self.out.borrow_mut().extend(mine.iter().copied());
        }
    }
}

/// Serial replica of the distributed integrator (same leapfrog scheme,
/// per-atom force accumulation) for exact-scheme comparison.
fn serial_reference() -> (Vec<Atom>, Vec<f64>) {
    let reference = LjSystem::lattice(N_SIDE, DENSITY);
    let box_len = reference.box_len;
    let rc2 = reference.cutoff * reference.cutoff;
    let mut atoms: Vec<Atom> = (0..reference.n_atoms())
        .map(|i| Atom {
            id: i,
            pos: reference.pos[i],
            vel: reference.vel[i],
        })
        .collect();
    let mut pes = Vec::new();
    for step in 0..=STEPS {
        let mut pe_total = 0.0;
        let mut forces = vec![[0.0; 3]; atoms.len()];
        for (ai, a) in atoms.iter().enumerate() {
            for b in &atoms {
                if b.id == a.id {
                    continue;
                }
                let mut d = [0.0; 3];
                for k in 0..3 {
                    let mut x = b.pos[k] - a.pos[k];
                    x -= box_len * (x / box_len).round();
                    d[k] = x;
                }
                let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
                if let Some((fmag, pe)) = lj(r2, rc2) {
                    for k in 0..3 {
                        forces[ai][k] -= fmag * d[k];
                    }
                    pe_total += 0.5 * pe;
                }
            }
        }
        pes.push(pe_total);
        if step == STEPS {
            break;
        }
        for (a, f) in atoms.iter_mut().zip(&forces) {
            for k in 0..3 {
                a.vel[k] += DT * f[k];
                a.pos[k] += DT * a.vel[k];
                a.pos[k] = a.pos[k].rem_euclid(box_len);
            }
        }
    }
    (atoms, pes)
}

fn run_distributed(net: Network, ranks: usize) -> (Vec<Atom>, Vec<f64>) {
    let out = Rc::new(RefCell::new(Vec::new()));
    let out_pe = Rc::new(RefCell::new(Vec::new()));
    elanib_mpi::run_job(
        JobSpec {
            network: net,
            nodes: ranks,
            ppn: 1,
            seed: 91,
        },
        DistributedMd {
            ranks,
            out: out.clone(),
            out_pe: out_pe.clone(),
        },
    );
    let mut atoms = Rc::try_unwrap(out).unwrap().into_inner();
    atoms.sort_by_key(|a| a.id);
    (atoms, Rc::try_unwrap(out_pe).unwrap().into_inner())
}

#[test]
fn distributed_md_tracks_serial_reference() {
    let (serial_atoms, serial_pe) = serial_reference();
    for net in Network::BOTH {
        for ranks in [2usize, 3] {
            let (atoms, pe) = run_distributed(net, ranks);
            assert_eq!(atoms.len(), serial_atoms.len(), "atom count conserved");
            for (a, s) in atoms.iter().zip(&serial_atoms) {
                assert_eq!(a.id, s.id);
                for k in 0..3 {
                    assert!(
                        (a.pos[k] - s.pos[k]).abs() < 1e-9,
                        "{net}, {ranks} ranks: atom {} axis {k}: {} vs {}",
                        a.id,
                        a.pos[k],
                        s.pos[k]
                    );
                    assert!((a.vel[k] - s.vel[k]).abs() < 1e-9);
                }
            }
            // Per-step potential energies agree too.
            assert_eq!(pe.len(), serial_pe.len());
            for (d, s) in pe.iter().zip(&serial_pe) {
                assert!(
                    (d - s).abs() < 1e-9 * s.abs().max(1.0),
                    "{net}, {ranks} ranks: PE {d} vs serial {s}"
                );
            }
        }
    }
}

#[test]
fn distributed_md_conserves_momentum() {
    let (atoms, _) = run_distributed(Network::Elan4, 2);
    let mut p = [0.0f64; 3];
    for a in &atoms {
        for k in 0..3 {
            p[k] += a.vel[k];
        }
    }
    for v in p {
        assert!(v.abs() < 1e-9, "net momentum {v}");
    }
}
