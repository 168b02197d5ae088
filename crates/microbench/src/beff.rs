//! Effective-bandwidth benchmark (b_eff) — Figure 1(d).
//!
//! Measures the aggregate communication bandwidth of the whole system,
//! not one link (§2.1): several message sizes and several communication
//! patterns (rings of different strides plus a random permutation),
//! averaged so that short messages dominate — "the logarithmic average
//! gives significantly greater weight to the shorter message lengths"
//! (§4.1). We use 21 geometrically spaced sizes from 1 B to 1 MB, so
//! two thirds of the sizes are ≤ 4 KB, reproducing that weighting.

use std::cell::Cell;
use std::rc::Rc;

use elanib_mpi::collectives::{allreduce, barrier, Op};
use elanib_mpi::{
    irecv, isend, waitall, zeros, Bytes, Communicator, JobSpec, Network, RankProgram,
};

/// b_eff for one system size.
#[derive(Clone, Copy, Debug)]
pub struct BeffPoint {
    pub n_procs: usize,
    /// Aggregate effective bandwidth, MB/s.
    pub beff_mb_s: f64,
    /// Figure 1(d)'s y-axis: b_eff normalized per process.
    pub per_process_mb_s: f64,
}

/// The 21 geometrically spaced message sizes (1 B .. 1 MB).
pub fn beff_sizes() -> Vec<u64> {
    (0..21)
        .map(|k| (1_048_576f64.powf(k as f64 / 20.0)).round() as u64)
        .collect()
}

/// Communication patterns: each entry maps `rank -> partner to send
/// to`; receives come from the inverse. Rings of three strides plus a
/// deterministic pseudo-random permutation.
fn patterns(n: usize) -> Vec<Vec<usize>> {
    let mut pats = Vec::new();
    let mut strides = vec![1usize];
    if n > 4 {
        strides.push(2);
        strides.push(n / 2 - 1);
    }
    for d in strides {
        pats.push((0..n).map(|r| (r + d) % n).collect());
    }
    // Pseudo-random permutation from a fixed linear-congruential walk
    // (deterministic across networks so both see identical traffic).
    let mut perm: Vec<usize> = (0..n).collect();
    let mut state = 0x9E3779B97F4A7C15u64;
    for i in (1..n).rev() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = (state >> 33) as usize % (i + 1);
        perm.swap(i, j);
    }
    // A permutation with fixed points degenerates into self-sends;
    // rotate those away.
    for i in 0..n {
        if perm[i] == i {
            let j = (i + 1) % n;
            perm.swap(i, j);
        }
    }
    pats.push(perm);
    pats
}

#[derive(Clone)]
struct Beff {
    iters: u32,
    /// One payload per [`beff_sizes`] entry, built once per job and
    /// shared by every rank and pattern.
    payloads: Rc<[Bytes]>,
    out: Rc<Cell<f64>>,
}

impl RankProgram for Beff {
    // The explicit `impl Future + 'static` (rather than `async fn`)
    // keeps the 'static bound visible at the trait boundary.
    #[allow(clippy::manual_async_fn)]
    fn run<C: Communicator>(self, c: C) -> impl std::future::Future<Output = ()> + 'static {
        async move {
            let sim = c.sim();
            let n = c.size();
            let me = c.rank();
            let sizes = beff_sizes();
            let pats = patterns(n);
            let mut pattern_avgs = Vec::new();
            for pat in &pats {
                let dst = pat[me];
                let src = pat.iter().position(|&d| d == me).unwrap();
                let mut sum_bw = 0.0;
                for (&bytes, payload) in sizes.iter().zip(self.payloads.iter()) {
                    barrier(&c).await;
                    let t0 = sim.now();
                    for it in 0..self.iters {
                        let tag = 100 + it as i64;
                        let rr = irecv(&c, Some(src), Some(tag)).await;
                        let sr = isend(&c, dst, tag, payload.clone(), bytes).await;
                        waitall(&c, vec![rr, sr]).await;
                    }
                    let local = sim.now().since(t0).as_secs_f64();
                    let worst = allreduce(&c, Op::Max, &[local]).await[0];
                    // All n processes moved `iters` messages of `bytes`.
                    sum_bw += (n as f64 * self.iters as f64 * bytes as f64) / worst / 1e6;
                }
                pattern_avgs.push(sum_bw / sizes.len() as f64);
            }
            let beff = pattern_avgs.iter().sum::<f64>() / pattern_avgs.len() as f64;
            if me == 0 {
                self.out.set(beff);
            }
        }
    }
}

/// Run b_eff on `nodes` nodes at `ppn` processes per node.
pub fn beff(network: Network, nodes: usize, ppn: usize, iters: u32) -> BeffPoint {
    elanib_core::simcache::get_or_compute("mb.beff", &(network, nodes, ppn, iters), || {
        let out = Rc::new(Cell::new(0.0));
        elanib_mpi::run_job(
            JobSpec {
                network,
                nodes,
                ppn,
                seed: 8,
            },
            Beff {
                iters,
                payloads: beff_sizes().into_iter().map(zeros).collect(),
                out: out.clone(),
            },
        );
        let n_procs = nodes * ppn;
        BeffPoint {
            n_procs,
            beff_mb_s: out.get(),
            per_process_mb_s: out.get() / n_procs as f64,
        }
    })
}

impl elanib_core::simcache::CacheValue for BeffPoint {
    fn encode(&self) -> Vec<u8> {
        use elanib_core::simcache::{put_f64, put_u64};
        let mut b = Vec::with_capacity(24);
        put_u64(&mut b, self.n_procs as u64);
        put_f64(&mut b, self.beff_mb_s);
        put_f64(&mut b, self.per_process_mb_s);
        b
    }

    fn decode(mut bytes: &[u8]) -> Option<Self> {
        use elanib_core::simcache::{take_f64, take_u64};
        let p = BeffPoint {
            n_procs: take_u64(&mut bytes)? as usize,
            beff_mb_s: take_f64(&mut bytes)?,
            per_process_mb_s: take_f64(&mut bytes)?,
        };
        bytes.is_empty().then_some(p)
    }
}

/// b_eff over a family of node counts (Figure 1(d)): one independent
/// job per count, fanned across the parallel sweep engine.
pub fn beff_sweep(
    network: Network,
    node_counts: &[usize],
    ppn: usize,
    iters: u32,
) -> Vec<BeffPoint> {
    elanib_core::sweep(node_counts, |&nodes| beff(network, nodes, ppn, iters))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_are_geometric_and_small_heavy() {
        let s = beff_sizes();
        assert_eq!(s.len(), 21);
        assert_eq!(s[0], 1);
        assert_eq!(s[20], 1_048_576);
        let below_4k = s.iter().filter(|&&x| x <= 4096).count();
        assert!(below_4k >= 12, "small messages must dominate: {below_4k}");
    }

    #[test]
    fn patterns_are_permutations_without_fixed_points() {
        for n in [2, 4, 8, 9, 32] {
            for p in patterns(n) {
                let mut seen = vec![false; n];
                for (i, &d) in p.iter().enumerate() {
                    assert!(d < n && !seen[d], "not a permutation at n={n}");
                    seen[d] = true;
                    assert_ne!(d, i, "fixed point at n={n}");
                }
            }
        }
    }

    #[test]
    fn beff_elan_beats_ib() {
        // Figure 1(d): the Elan-4 per-process line sits above IB's.
        let el = beff(Network::Elan4, 4, 1, 2);
        let ib = beff(Network::InfiniBand, 4, 1, 2);
        assert!(
            el.per_process_mb_s > ib.per_process_mb_s * 1.3,
            "elan {} vs ib {}",
            el.per_process_mb_s,
            ib.per_process_mb_s
        );
    }

    #[test]
    fn beff_is_dominated_by_small_messages() {
        // b_eff per process must be far below the peak link bandwidth
        // (§4.1: "the values of b_eff are low relative to peak
        // delivered bandwidths").
        let p = beff(Network::Elan4, 4, 1, 2);
        assert!(
            p.per_process_mb_s < 450.0,
            "b_eff should be small-message bound: {}",
            p.per_process_mb_s
        );
        assert!(p.per_process_mb_s > 20.0);
    }
}
