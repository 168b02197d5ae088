//! Buffer re-use ping-pong — the §3.3.2 experiment (after Liu et al.
//! \[11\]): vary the percentage of iterations that re-use the same
//! message buffer. Explicit-registration networks slow down when
//! buffers are fresh (every registration misses the pin-down cache);
//! implicit-registration networks don't care. Below the eager
//! threshold, copy blocks ("bounce buffers") hide registration on
//! InfiniBand too — which is exactly why \[11\]'s curves were flat below
//! 16 KB for MPICH/GM.

use std::cell::Cell;
use std::rc::Rc;

use elanib_mpi::{empty, Communicator, JobSpec, Network, RankProgram, CTX_WORLD};

/// One point of the re-use study.
#[derive(Clone, Copy, Debug)]
pub struct ReusePoint {
    pub bytes: u64,
    /// Percentage of iterations re-using the hot buffer (0-100).
    pub reuse_pct: u32,
    pub latency_us: f64,
    pub bandwidth_mb_s: f64,
}

#[derive(Clone)]
struct ReusePingPong {
    bytes: u64,
    reuse_pct: u32,
    iters: u32,
    out_us: Rc<Cell<f64>>,
}

impl ReusePingPong {
    /// Buffer identity for iteration `i`: the hot buffer for the first
    /// `reuse_pct`% of each 10-iteration window (10% granularity, so
    /// short runs still sample the mix), a fresh buffer otherwise.
    /// Deterministic and identical on both ranks.
    fn region(&self, dir: u64, i: u32) -> u64 {
        if (i % 10) * 10 < self.reuse_pct {
            dir << 60
        } else {
            (dir << 60) | (1_000_000 + i as u64)
        }
    }
}

impl RankProgram for ReusePingPong {
    // The explicit `impl Future + 'static` (rather than `async fn`)
    // keeps the 'static bound visible at the trait boundary.
    #[allow(clippy::manual_async_fn)]
    fn run<C: Communicator>(self, c: C) -> impl std::future::Future<Output = ()> + 'static {
        async move {
            let sim = c.sim();
            let me = c.rank();
            if me == 0 {
                let t0 = sim.now();
                for i in 0..self.iters {
                    let sr = c
                        .isend_full(1, 1, CTX_WORLD, empty(), self.bytes, self.region(1, i))
                        .await;
                    c.wait(sr).await;
                    let rr = c
                        .irecv_full(Some(1), Some(2), CTX_WORLD, self.region(2, i))
                        .await;
                    c.wait(rr).await;
                }
                let total = sim.now().since(t0).as_us_f64();
                self.out_us.set(total / (2.0 * self.iters as f64));
            } else if me == 1 {
                for i in 0..self.iters {
                    let rr = c
                        .irecv_full(Some(0), Some(1), CTX_WORLD, self.region(3, i))
                        .await;
                    c.wait(rr).await;
                    let sr = c
                        .isend_full(0, 2, CTX_WORLD, empty(), self.bytes, self.region(4, i))
                        .await;
                    c.wait(sr).await;
                }
            }
        }
    }
}

/// Measure one re-use point between two nodes (1 PPN).
pub fn pingpong_reuse(network: Network, bytes: u64, reuse_pct: u32, iters: u32) -> ReusePoint {
    assert!(reuse_pct <= 100);
    let out = Rc::new(Cell::new(0.0));
    elanib_mpi::run_job(
        JobSpec {
            network,
            nodes: 2,
            ppn: 1,
            seed: 13,
        },
        ReusePingPong {
            bytes,
            reuse_pct,
            iters,
            out_us: out.clone(),
        },
    );
    let latency_us = out.get();
    ReusePoint {
        bytes,
        reuse_pct,
        latency_us,
        bandwidth_mb_s: bytes as f64 / (latency_us * 1e-6) / 1e6,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ib_large_messages_are_reuse_sensitive() {
        // §3.3.2: "both InfiniBand and Quadrics Elan-3 are sensitive to
        // memory registration costs" — our Elan-4 model has the MMU,
        // so only InfiniBand should care.
        let hot = pingpong_reuse(Network::InfiniBand, 256 * 1024, 100, 20);
        let cold = pingpong_reuse(Network::InfiniBand, 256 * 1024, 0, 20);
        assert!(
            cold.latency_us > hot.latency_us * 1.15,
            "fresh buffers must pay registration: hot {} vs cold {}",
            hot.latency_us,
            cold.latency_us
        );
    }

    #[test]
    fn ib_small_messages_hidden_by_copy_blocks() {
        // Below the eager threshold the payload is copied through
        // pre-registered buffers, so re-use does not matter — the flat
        // region of \[11\]'s curves.
        let hot = pingpong_reuse(Network::InfiniBand, 512, 100, 40);
        let cold = pingpong_reuse(Network::InfiniBand, 512, 0, 40);
        let ratio = cold.latency_us / hot.latency_us;
        assert!(
            (0.98..1.05).contains(&ratio),
            "eager path must be reuse-insensitive: {ratio}"
        );
    }

    #[test]
    fn elan_is_reuse_insensitive_at_all_sizes() {
        for bytes in [512u64, 256 * 1024] {
            let hot = pingpong_reuse(Network::Elan4, bytes, 100, 20);
            let cold = pingpong_reuse(Network::Elan4, bytes, 0, 20);
            let ratio = cold.latency_us / hot.latency_us;
            assert!(
                (0.98..1.03).contains(&ratio),
                "implicit registration must be reuse-insensitive at {bytes}B: {ratio}"
            );
        }
    }

    #[test]
    fn sensitivity_scales_with_reuse_percentage() {
        let l0 = pingpong_reuse(Network::InfiniBand, 256 * 1024, 0, 20).latency_us;
        let l50 = pingpong_reuse(Network::InfiniBand, 256 * 1024, 50, 20).latency_us;
        let l100 = pingpong_reuse(Network::InfiniBand, 256 * 1024, 100, 20).latency_us;
        assert!(l0 > l50 && l50 > l100, "{l0} > {l50} > {l100} expected");
    }
}
