//! Pallas-style ping-pong (Figure 1(a)–(c), ping-pong series).
//!
//! Two processes, one message outstanding; the sender measures total
//! round-trip time over many exchanges, and latency is half the average
//! round trip (§2.1).

use std::cell::Cell;
use std::rc::Rc;

use elanib_mpi::{empty, recv, send, Communicator, JobSpec, Network, RankProgram};

/// One point on the ping-pong curves.
#[derive(Clone, Copy, Debug)]
pub struct PingPongPoint {
    pub bytes: u64,
    /// One-way latency in microseconds.
    pub latency_us: f64,
    /// `bytes / latency`, in MB/s (decimal).
    pub bandwidth_mb_s: f64,
}

#[derive(Clone)]
struct PingPong {
    bytes: u64,
    iters: u32,
    /// One-way latency in µs, written by rank 0.
    out_us: Rc<Cell<f64>>,
}

impl RankProgram for PingPong {
    // The explicit `impl Future + 'static` (rather than `async fn`)
    // keeps the 'static bound visible at the trait boundary.
    #[allow(clippy::manual_async_fn)]
    fn run<C: Communicator>(self, c: C) -> impl std::future::Future<Output = ()> + 'static {
        async move {
            let sim = c.sim();
            // Warm-up exchange: connection paths, registration caches.
            // (Pallas also discards warm-up iterations.)
            if c.rank() == 0 {
                send(&c, 1, 0, empty(), self.bytes).await;
                let _ = recv(&c, Some(1), Some(0)).await;
                let t0 = sim.now();
                for _ in 0..self.iters {
                    send(&c, 1, 1, empty(), self.bytes).await;
                    let _ = recv(&c, Some(1), Some(2)).await;
                }
                let total = sim.now().since(t0).as_us_f64();
                self.out_us.set(total / (2.0 * self.iters as f64));
            } else if c.rank() == 1 {
                let _ = recv(&c, Some(0), Some(0)).await;
                send(&c, 0, 0, empty(), self.bytes).await;
                for _ in 0..self.iters {
                    let _ = recv(&c, Some(0), Some(1)).await;
                    send(&c, 0, 2, empty(), self.bytes).await;
                }
            }
        }
    }
}

/// Measure one ping-pong point between two nodes (1 PPN).
pub fn pingpong(network: Network, bytes: u64, iters: u32) -> PingPongPoint {
    let out = Rc::new(Cell::new(0.0));
    elanib_mpi::run_job(
        JobSpec {
            network,
            nodes: 2,
            ppn: 1,
            seed: 5,
        },
        PingPong {
            bytes,
            iters,
            out_us: out.clone(),
        },
    );
    let latency_us = out.get();
    PingPongPoint {
        bytes,
        latency_us,
        bandwidth_mb_s: if latency_us > 0.0 {
            bytes as f64 / (latency_us * 1e-6) / 1e6
        } else {
            0.0
        },
    }
}

/// The message sizes of Figure 1 (log-2 spaced, 4 bytes to 4 MiB).
pub fn figure1_sizes() -> Vec<u64> {
    let mut v = vec![0, 4];
    let mut s = 8u64;
    while s <= 4 * 1024 * 1024 {
        v.push(s);
        s *= 2;
    }
    v
}

/// Sweep the full latency/bandwidth curve. Each size is an independent
/// two-rank simulation, fanned across the parallel sweep engine.
pub fn latency_sweep(network: Network, sizes: &[u64], iters: u32) -> Vec<PingPongPoint> {
    elanib_core::sweep(sizes, |&b| pingpong(network, b, iters))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_monotone_in_size_per_protocol() {
        // Within one protocol regime latency rises with size.
        for net in Network::BOTH {
            let a = pingpong(net, 8, 40).latency_us;
            let b = pingpong(net, 512, 40).latency_us;
            let c = pingpong(net, 65536, 20).latency_us;
            assert!(a <= b && b < c, "{net}: {a} {b} {c}");
        }
    }

    #[test]
    fn zero_byte_message_works() {
        let p = pingpong(Network::Elan4, 0, 20);
        assert!(p.latency_us > 1.0 && p.latency_us < 5.0);
    }

    #[test]
    fn figure1_sizes_span_the_paper_range() {
        let s = figure1_sizes();
        assert_eq!(*s.first().unwrap(), 0);
        assert_eq!(*s.last().unwrap(), 4 * 1024 * 1024);
        assert!(s.len() > 18);
    }

    #[test]
    fn elan_beats_ib_at_every_size() {
        for bytes in [8u64, 1024, 8192, 262_144] {
            let ib = pingpong(Network::InfiniBand, bytes, 20).latency_us;
            let el = pingpong(Network::Elan4, bytes, 20).latency_us;
            assert!(el < ib, "{bytes}B: elan {el} vs ib {ib}");
        }
    }
}
