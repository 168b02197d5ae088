//! Non-blocking streaming benchmark (Figure 1(b)–(c), streaming
//! series), after Liu et al. \[12\]: the sender transmits a predefined
//! number of back-to-back messages to a receiver that has **pre-posted**
//! a matching number of receives (§2.1). Quantifies the ability to fill
//! the message-passing pipeline.

use std::cell::Cell;
use std::rc::Rc;

use elanib_mpi::{
    empty, irecv, isend, recv, send, waitall, Communicator, JobSpec, Network, RankProgram,
};

/// One point on the streaming curve.
#[derive(Clone, Copy, Debug)]
pub struct StreamingPoint {
    pub bytes: u64,
    pub bandwidth_mb_s: f64,
    pub msgs_per_sec: f64,
}

#[derive(Clone)]
struct Streaming {
    bytes: u64,
    count: u32,
    out_us_total: Rc<Cell<f64>>,
}

impl RankProgram for Streaming {
    // The explicit `impl Future + 'static` (rather than `async fn`)
    // keeps the 'static bound visible at the trait boundary.
    #[allow(clippy::manual_async_fn)]
    fn run<C: Communicator>(self, c: C) -> impl std::future::Future<Output = ()> + 'static {
        async move {
            let sim = c.sim();
            if c.rank() == 0 {
                // Receiver signals that all receives are pre-posted.
                let _ = recv(&c, Some(1), Some(3)).await;
                let t0 = sim.now();
                let mut reqs = Vec::with_capacity(self.count as usize);
                for _ in 0..self.count {
                    reqs.push(isend(&c, 1, 1, empty(), self.bytes).await);
                }
                waitall(&c, reqs).await;
                // Final ack bounds the measurement at full delivery.
                let _ = recv(&c, Some(1), Some(2)).await;
                self.out_us_total.set(sim.now().since(t0).as_us_f64());
            } else if c.rank() == 1 {
                let mut reqs = Vec::with_capacity(self.count as usize);
                for _ in 0..self.count {
                    reqs.push(irecv(&c, Some(0), Some(1)).await);
                }
                send(&c, 0, 3, empty(), 8).await;
                waitall(&c, reqs).await;
                send(&c, 0, 2, empty(), 8).await;
            }
        }
    }
}

/// Measure one streaming point between two nodes (1 PPN).
pub fn streaming(network: Network, bytes: u64, count: u32) -> StreamingPoint {
    let out = Rc::new(Cell::new(0.0));
    elanib_mpi::run_job(
        JobSpec {
            network,
            nodes: 2,
            ppn: 1,
            seed: 6,
        },
        Streaming {
            bytes,
            count,
            out_us_total: out.clone(),
        },
    );
    let secs = out.get() * 1e-6;
    StreamingPoint {
        bytes,
        bandwidth_mb_s: (bytes as f64 * count as f64) / secs / 1e6,
        msgs_per_sec: count as f64 / secs,
    }
}

/// Sweep the streaming curve. Each size is an independent simulation,
/// fanned across the parallel sweep engine.
pub fn streaming_sweep(network: Network, sizes: &[u64], count: u32) -> Vec<StreamingPoint> {
    elanib_core::sweep(sizes, |&b| streaming(network, b, count))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streaming_beats_pingpong_bandwidth_at_small_sizes() {
        // Pipelining must help when messages are small.
        for net in Network::BOTH {
            let st = streaming(net, 1024, 200).bandwidth_mb_s;
            let pp = crate::pingpong::pingpong(net, 1024, 50).bandwidth_mb_s;
            assert!(st > pp * 1.5, "{net}: streaming {st} vs pingpong {pp}");
        }
    }

    #[test]
    fn elan_streaming_advantage_is_large_at_small_sizes() {
        // Figure 1(c): "At small message sizes, Elan-4 achieves over a
        // factor of five advantage using the streaming benchmark."
        let el = streaming(Network::Elan4, 64, 400).bandwidth_mb_s;
        let ib = streaming(Network::InfiniBand, 64, 400).bandwidth_mb_s;
        let ratio = el / ib;
        assert!(ratio > 3.5, "streaming ratio at 64B: {ratio}");
    }

    #[test]
    fn streaming_converges_to_wire_rate_at_large_sizes() {
        for net in Network::BOTH {
            let bw = streaming(net, 1 << 20, 12).bandwidth_mb_s;
            assert!(bw > 750.0 && bw < 960.0, "{net}: {bw}");
        }
    }

    #[test]
    fn message_rate_declines_with_size() {
        let small = streaming(Network::Elan4, 8, 300).msgs_per_sec;
        let large = streaming(Network::Elan4, 65536, 50).msgs_per_sec;
        assert!(small > large * 5.0);
    }
}
