//! NPB-style 2-D decomposition for CG.
//!
//! NPB arranges 2^k processes as `nprows × npcols` (with
//! `npcols ∈ {nprows, 2·nprows}`); the matrix is blocked by (row strip,
//! column strip), the iterate is distributed by column strips, and each
//! matvec is: local partial product → sum-reduction across the row
//! group → transpose exchange to redistribute the result as column
//! strips. Message sizes stay at `n/nprows` and `n/npcols` — the
//! mid-size regime where the Elan-4 bandwidth advantage of Figure 1(b)
//! lives — instead of the `n/2`-sized tail of a 1-D allgather. This is
//! why the paper's Figure 6 gap persists at 32 processes (and why the
//! 1-D variant, kept in [`super`] as an ablation, loses it).
//!
//! All arithmetic is real: the 2-D solver must match the serial solver
//! to 1e-10, which pins every exchange in this file.

use std::cell::Cell;
use std::ops::Range;
use std::rc::Rc;

use elanib_mpi::collectives::{allreduce, barrier, Op};
use elanib_mpi::{recv, send, Communicator, RankProgram};
use elanib_simcore::Dur;

use super::{CgProblem, SparseSpd};

/// Process-grid geometry for `p = 2^k` ranks, the NPB rule:
/// `npcols = 2^⌈k/2⌉`, `nprows = p / npcols`.
pub fn grid(p: usize) -> (usize, usize) {
    assert!(p.is_power_of_two(), "NPB CG needs 2^k processes");
    let k = p.trailing_zeros() as usize;
    let npcols = 1usize << k.div_ceil(2);
    (p / npcols, npcols)
}

/// Transpose partner of rank `(r, c)` in an `nprows × npcols` grid.
/// For square grids this is the matrix transpose `(c, r)`; for the
/// 2:1 case it is NPB's pairing, a self-inverse bijection such that
/// the partner's row strip covers my column strip and vice versa.
pub fn transpose_partner(r: usize, c: usize, nprows: usize, npcols: usize) -> (usize, usize) {
    if nprows == npcols {
        (c, r)
    } else {
        debug_assert_eq!(npcols, 2 * nprows);
        (c / 2, 2 * r + (c & 1))
    }
}

/// One rank's (row strip × column strip) block of `A`, built once per
/// run.
///
/// Under the 2-D grid a block row holds only about `nz_per_row /
/// npcols` nonzeros, so a row-order matvec branches unpredictably on
/// a trip count of 0–4. The rows are therefore stable-sorted by nonzero
/// count, which turns the inner loop into long stretches of equal
/// trip count; rows with no entry in the column strip are left out.
/// Each row keeps its entries in CSR order and [`Block::matvec`] sums
/// them from `0.0`, so every output is bit-identical to the row-order
/// loop over the global CSR.
struct Block {
    /// Output row (offset in the row strip) of each stored row.
    row: Vec<u32>,
    /// Stored row `k` owns entries `ptr[k]..ptr[k + 1]`.
    ptr: Vec<u32>,
    /// Column offset in the column strip.
    cols: Vec<u32>,
    vals: Vec<f64>,
}

impl Block {
    fn new(a: &SparseSpd, rows: Range<usize>, col_range: Range<usize>) -> Block {
        let entries =
            |i: usize| (a.row_ptr[i]..a.row_ptr[i + 1]).filter(|&e| col_range.contains(&a.cols[e]));
        let mut order: Vec<(usize, u32)> = rows
            .clone()
            .map(|i| (entries(i).count(), (i - rows.start) as u32))
            .filter(|&(len, _)| len > 0)
            .collect();
        // Stable: rows of equal length stay in strip order.
        order.sort_by_key(|&(len, _)| len);
        let nnz: usize = order.iter().map(|&(len, _)| len).sum();
        let mut b = Block {
            row: Vec::with_capacity(order.len()),
            ptr: Vec::with_capacity(order.len() + 1),
            cols: Vec::with_capacity(nnz),
            vals: Vec::with_capacity(nnz),
        };
        b.ptr.push(0);
        for (_, r) in order {
            for e in entries(rows.start + r as usize) {
                b.cols.push((a.cols[e] - col_range.start) as u32);
                b.vals.push(a.vals[e]);
            }
            let end = u32::try_from(b.cols.len()).expect("block fits u32 offsets");
            b.row.push(r);
            b.ptr.push(end);
        }
        b
    }

    /// `w[r] = Σ_j A[r, j] · x[j]` over the block; `w` must be zeroed
    /// (rows without entries are not stored).
    fn matvec(&self, x: &[f64], w: &mut [f64]) {
        for (&r, ptr) in self.row.iter().zip(self.ptr.windows(2)) {
            let (lo, hi) = (ptr[0] as usize, ptr[1] as usize);
            let mut acc = 0.0;
            for (&j, &v) in self.cols[lo..hi].iter().zip(&self.vals[lo..hi]) {
                acc += v * x[j as usize];
            }
            w[r as usize] = acc;
        }
    }
}

#[derive(Clone)]
pub(super) struct CgProgram2D {
    pub problem: CgProblem,
    pub out: Rc<Cell<(f64, f64)>>,
}

impl RankProgram for CgProgram2D {
    // The explicit `impl Future + 'static` (rather than `async fn`)
    // keeps the 'static bound visible at the trait boundary.
    #[allow(clippy::manual_async_fn)]
    fn run<C: Communicator>(self, c: C) -> impl std::future::Future<Output = ()> + 'static {
        async move {
            let p = self.problem;
            let nproc = c.size();
            let me = c.rank();
            let sim = c.sim();
            let (nprows, npcols) = grid(nproc);
            assert_eq!(p.n % nproc, 0, "n must divide evenly");
            let (row, col) = (me / npcols, me % npcols);
            let nr = p.n / nprows; // row-strip length
            let nc = p.n / npcols; // column-strip length
            let rows = row * nr..(row + 1) * nr;
            let a = SparseSpd::shared(p.n, p.nz_per_row, 0xC6);

            let blk = Block::new(&a, rows, col * nc..(col + 1) * nc);

            let scale = p.model_n as f64 / p.n as f64;
            let flops = 2.0 * (a.nnz() as f64 / nproc as f64) + 10.0 * nr as f64;
            let matvec_time = Dur::from_secs_f64(flops * scale / (p.mflops_per_cpu * 1e6));
            // Modelled wire sizes at class A scale.
            let nr_bytes = (p.model_n / nprows * 8) as u64;
            let nc_bytes = (p.model_n / npcols * 8) as u64;

            // My transpose partner for the iterate redistribution. I
            // give it the slice of my row strip covering its column
            // strip `tc`; that slice lies inside my strip by
            // construction (see `transpose_partner`).
            let (tr, tc) = transpose_partner(row, col, nprows, npcols);
            let partner = tr * npcols + tc;
            let send_lo = tc * nc - row * nr;

            // One CG outer solve ---------------------------------------------
            let mut x_row = vec![1.0f64; nr];
            let mut zeta = 0.0;
            barrier(&c).await;
            let t0 = sim.now();
            for _outer in 0..p.outer {
                let mut z = vec![0.0; nr];
                let mut r_vec = x_row.clone();
                let mut p_row = r_vec.clone();
                let mut rho = {
                    let local: f64 = r_vec.iter().map(|v| v * v).sum::<f64>() / npcols as f64;
                    allreduce(&c, Op::Sum, &[local]).await[0]
                };
                for inner in 0..p.inner {
                    // 1. Transpose p (row strips) into my column strip.
                    let p_col = transpose_exchange(
                        &c,
                        &p_row[send_lo..send_lo + nc],
                        partner,
                        nc_bytes,
                        100 + inner as i64,
                    )
                    .await;
                    // 2. Local partial matvec over my block.
                    let mut w = vec![0.0; nr];
                    blk.matvec(&p_col, &mut w);
                    c.compute(matvec_time, p.mem_intensity).await;
                    // 3. Sum-reduce w across the row group -> q (replicated).
                    let q =
                        row_group_allreduce(&c, w, row, col, npcols, nr_bytes, 500 + inner as i64)
                            .await;
                    // 4. Dots and vector updates on row strips
                    //    (each strip appears npcols times; npcols is a
                    //    power of two, so the division is exact).
                    let pq_local: f64 =
                        p_row.iter().zip(&q).map(|(a, b)| a * b).sum::<f64>() / npcols as f64;
                    let pq = allreduce(&c, Op::Sum, &[pq_local]).await[0];
                    let alpha = rho / pq;
                    let mut rho_local = 0.0;
                    for ((zi, ri), (pi, qi)) in
                        z.iter_mut().zip(&mut r_vec).zip(p_row.iter().zip(&q))
                    {
                        *zi += alpha * pi;
                        *ri -= alpha * qi;
                        rho_local += *ri * *ri;
                    }
                    let rho_new = allreduce(&c, Op::Sum, &[rho_local / npcols as f64]).await[0];
                    let beta = rho_new / rho;
                    rho = rho_new;
                    for (pi, ri) in p_row.iter_mut().zip(&r_vec) {
                        *pi = ri + beta * *pi;
                    }
                }
                let xz_local: f64 =
                    x_row.iter().zip(&z).map(|(a, b)| a * b).sum::<f64>() / npcols as f64;
                let zn_local: f64 = z.iter().map(|v| v * v).sum::<f64>() / npcols as f64;
                let sums = allreduce(&c, Op::Sum, &[xz_local, zn_local]).await;
                zeta = p.shift + 1.0 / sums[0];
                let znorm = sums[1].sqrt();
                for i in 0..nr {
                    x_row[i] = z[i] / znorm;
                }
            }
            barrier(&c).await;
            if me == 0 {
                self.out.set((zeta, sim.now().since(t0).as_secs_f64()));
            }
        }
    }
}

/// Exchange with the transpose partner: give it `strip`, the part of my
/// row strip covering *its* column strip; receive my column strip from
/// it.
async fn transpose_exchange<C: Communicator>(
    c: &C,
    strip: &[f64],
    partner: usize,
    nc_bytes: u64,
    tag: i64,
) -> Vec<f64> {
    let me = c.rank();
    if partner == me {
        return strip.to_vec();
    }
    let payload = Rc::from(strip);
    // Symmetric exchange; break the tie by rank to avoid both sides
    // blocking in a rendezvous send.
    let m = if me < partner {
        send(c, partner, tag, payload, nc_bytes).await;
        recv(c, Some(partner), Some(tag)).await
    } else {
        let m = recv(c, Some(partner), Some(tag)).await;
        send(c, partner, tag, payload, nc_bytes).await;
        m
    };
    m.data.to_vec()
}

/// Recursive-doubling allreduce(sum) across this rank's row group
/// (the `npcols` ranks sharing `row`).
async fn row_group_allreduce<C: Communicator>(
    c: &C,
    mut v: Vec<f64>,
    row: usize,
    col: usize,
    npcols: usize,
    nr_bytes: u64,
    tag: i64,
) -> Vec<f64> {
    let mut dist = 1usize;
    while dist < npcols {
        let pc = col ^ dist;
        let partner = row * npcols + pc;
        let payload = Rc::from(v.as_slice());
        let m = if col < pc {
            send(c, partner, tag + dist as i64, payload, nr_bytes).await;
            recv(c, Some(partner), Some(tag + dist as i64)).await
        } else {
            let m = recv(c, Some(partner), Some(tag + dist as i64)).await;
            send(c, partner, tag + dist as i64, payload, nr_bytes).await;
            m
        };
        for (a, b) in v.iter_mut().zip(m.data.iter()) {
            *a += b;
        }
        dist *= 2;
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_follows_npb_rule() {
        assert_eq!(grid(1), (1, 1));
        assert_eq!(grid(2), (1, 2));
        assert_eq!(grid(4), (2, 2));
        assert_eq!(grid(8), (2, 4));
        assert_eq!(grid(16), (4, 4));
        assert_eq!(grid(32), (4, 8));
        assert_eq!(grid(64), (8, 8));
    }

    /// Reference: the row-order loop filtering the global CSR to my
    /// column strip.
    fn filtered_csr_matvec(
        a: &SparseSpd,
        rows: Range<usize>,
        col_range: Range<usize>,
        x: &[f64],
    ) -> Vec<f64> {
        rows.map(|i| {
            let mut acc = 0.0;
            for e in a.row_ptr[i]..a.row_ptr[i + 1] {
                let j = a.cols[e];
                if col_range.contains(&j) {
                    acc += a.vals[e] * x[j - col_range.start];
                }
            }
            acc
        })
        .collect()
    }

    #[test]
    fn block_matvec_is_bit_identical_to_filtered_csr() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut empty_rows = 0usize;
        for _case in 0..12 {
            let n = 64 * (1 + next() as usize % 8);
            let nz_per_row = 1 + next() as usize % 16;
            let a = SparseSpd::generate(n, nz_per_row, next());
            for p in (0..7).map(|k| 1usize << k) {
                let (nprows, npcols) = grid(p);
                let (nr, nc) = (n / nprows, n / npcols);
                for row in 0..nprows {
                    for col in 0..npcols {
                        let rows = row * nr..(row + 1) * nr;
                        let cols = col * nc..(col + 1) * nc;
                        // Signed values with full mantissas, so the
                        // summation order shows in the low bits.
                        let x: Vec<f64> = (0..nc)
                            .map(|_| (next() as i64 >> 11) as f64 * 2f64.powi(-40))
                            .collect();
                        let want = filtered_csr_matvec(&a, rows.clone(), cols.clone(), &x);
                        let blk = Block::new(&a, rows, cols);
                        let mut got = vec![0.0; nr];
                        blk.matvec(&x, &mut got);
                        empty_rows += nr - blk.row.len();
                        let lens: Vec<u32> = blk.ptr.windows(2).map(|w| w[1] - w[0]).collect();
                        assert!(
                            lens.windows(2).all(|l| l[0] <= l[1]),
                            "rows grouped by length"
                        );
                        for (k, (g, w)) in got.iter().zip(&want).enumerate() {
                            assert_eq!(
                                g.to_bits(),
                                w.to_bits(),
                                "n={n} nz={nz_per_row} p={p} block ({row},{col}) row {k}"
                            );
                        }
                    }
                }
            }
        }
        assert!(empty_rows > 0, "cases must include blocks with empty rows");
    }

    #[test]
    fn transpose_partner_is_an_involution_and_covers() {
        for p in [1usize, 2, 4, 8, 16, 32, 64] {
            let (nprows, npcols) = grid(p);
            for r in 0..nprows {
                for c in 0..npcols {
                    let (tr, tc) = transpose_partner(r, c, nprows, npcols);
                    assert!(tr < nprows && tc < npcols, "partner in grid (p={p})");
                    // Involution.
                    assert_eq!(
                        transpose_partner(tr, tc, nprows, npcols),
                        (r, c),
                        "not an involution at p={p}, ({r},{c})"
                    );
                    // Coverage: partner's row strip must contain my
                    // column strip, i.e. c ∈ [tr*npcols/nprows*..]:
                    // row strip tr covers column strips
                    // [tr*(npcols/nprows), (tr+1)*(npcols/nprows)).
                    let per = npcols / nprows;
                    assert!(
                        (tr * per..(tr + 1) * per).contains(&c),
                        "partner row strip must cover my column strip (p={p})"
                    );
                    // And symmetrically mine covers theirs.
                    assert!((r * per..(r + 1) * per).contains(&tc));
                }
            }
        }
    }
}
