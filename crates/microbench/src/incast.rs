//! RoCE-study workloads (EXTENSION): incast streaming and
//! small-message allreduce vs node count.
//!
//! The incast pattern — every rank streams to rank 0 simultaneously —
//! is the canonical congestion-control stressor: all senders share the
//! receiver's downlink regardless of how the fat tree routes, so the
//! measured aggregate bandwidth is a direct read on how gracefully the
//! transport shares a saturated link. Native InfiniBand's credit-based
//! link-level flow control handles it natively; the RoCEv2 modes show
//! their PFC pause-storm / DCQCN rate-limiter behaviour here.

use std::cell::Cell;
use std::rc::Rc;

use elanib_mpi::collectives::{allreduce, Op};
use elanib_mpi::{
    irecv, isend, recv, send, waitall, zeros, Bytes, Communicator, JobSpec, Network, RankProgram,
};

/// One point on an incast curve.
#[derive(Clone, Copy, Debug)]
pub struct IncastPoint {
    pub nodes: usize,
    /// Aggregate delivered bandwidth at the sink, MB/s.
    pub bandwidth_mb_s: f64,
}

#[derive(Clone)]
struct Incast {
    bytes: u64,
    payload: Bytes,
    count: u32,
    out_us: Rc<Cell<f64>>,
}

impl RankProgram for Incast {
    #[allow(clippy::manual_async_fn)]
    fn run<C: Communicator>(self, c: C) -> impl std::future::Future<Output = ()> + 'static {
        async move {
            let sim = c.sim();
            let n = c.size();
            if c.rank() == 0 {
                // Pre-post every receive (wildcard source: the arrival
                // order under congestion is the experiment), then
                // release the senders and time to full delivery.
                let total = (n - 1) * self.count as usize;
                let mut reqs = Vec::with_capacity(total);
                for _ in 0..total {
                    reqs.push(irecv(&c, None, Some(1)).await);
                }
                for s in 1..n {
                    send(&c, s, 3, self.payload.clone(), 8).await;
                }
                let t0 = sim.now();
                waitall(&c, reqs).await;
                self.out_us.set(sim.now().since(t0).as_us_f64());
            } else {
                let _ = recv(&c, Some(0), Some(3)).await;
                // Non-blocking burst: every sender pushes its whole
                // window at once, so the sink's downlink sees the full
                // offered load — the congestion the CC modes exist for.
                let mut reqs = Vec::with_capacity(self.count as usize);
                for _ in 0..self.count {
                    reqs.push(isend(&c, 0, 1, self.payload.clone(), self.bytes).await);
                }
                waitall(&c, reqs).await;
            }
        }
    }
}

/// Measure one incast point: `nodes - 1` senders each stream `count`
/// messages of `bytes` to rank 0 (1 PPN).
pub fn incast(network: Network, nodes: usize, bytes: u64, count: u32) -> IncastPoint {
    elanib_core::simcache::get_or_compute("mb.incast", &(network, nodes, bytes, count), || {
        let out = Rc::new(Cell::new(0.0));
        elanib_mpi::run_job(
            JobSpec {
                network,
                nodes,
                ppn: 1,
                seed: 9,
            },
            Incast {
                bytes,
                payload: zeros(bytes),
                count,
                out_us: out.clone(),
            },
        );
        let secs = out.get() * 1e-6;
        IncastPoint {
            nodes,
            bandwidth_mb_s: (bytes as f64 * count as f64 * (nodes - 1) as f64) / secs / 1e6,
        }
    })
}

impl elanib_core::simcache::CacheValue for IncastPoint {
    fn encode(&self) -> Vec<u8> {
        use elanib_core::simcache::{put_f64, put_u64};
        let mut b = Vec::with_capacity(16);
        put_u64(&mut b, self.nodes as u64);
        put_f64(&mut b, self.bandwidth_mb_s);
        b
    }

    fn decode(mut bytes: &[u8]) -> Option<Self> {
        use elanib_core::simcache::{take_f64, take_u64};
        let p = IncastPoint {
            nodes: take_u64(&mut bytes)? as usize,
            bandwidth_mb_s: take_f64(&mut bytes)?,
        };
        bytes.is_empty().then_some(p)
    }
}

#[derive(Clone)]
struct SmallAllreduce {
    reps: u32,
    out_us: Rc<Cell<f64>>,
}

impl RankProgram for SmallAllreduce {
    #[allow(clippy::manual_async_fn)]
    fn run<C: Communicator>(self, c: C) -> impl std::future::Future<Output = ()> + 'static {
        async move {
            let sim = c.sim();
            // One warmup settles QP setup and registration.
            let _ = allreduce(&c, Op::Sum, &[1.0]).await;
            let t0 = sim.now();
            for _ in 0..self.reps {
                let _ = allreduce(&c, Op::Sum, &[1.0]).await;
            }
            if c.rank() == 0 {
                self.out_us
                    .set(sim.now().since(t0).as_us_f64() / self.reps as f64);
            }
        }
    }
}

/// Mean latency of an 8-byte allreduce across `nodes` ranks (1 PPN),
/// in µs — the collective-latency column of the RoCE study.
pub fn small_allreduce_us(network: Network, nodes: usize, reps: u32) -> f64 {
    elanib_core::simcache::get_or_compute("mb.allreduce_us", &(network, nodes, reps), || {
        let out = Rc::new(Cell::new(0.0));
        elanib_mpi::run_job(
            JobSpec {
                network,
                nodes,
                ppn: 1,
                seed: 9,
            },
            SmallAllreduce {
                reps,
                out_us: out.clone(),
            },
        );
        out.get()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use elanib_mpi::RoceMode;

    #[test]
    fn incast_is_sink_bound_on_both_paper_networks() {
        // Doubling the sender pool cannot double delivered bandwidth:
        // the sink link is already the bottleneck.
        for net in Network::BOTH {
            let a = incast(net, 4, 65_536, 8).bandwidth_mb_s;
            let b = incast(net, 8, 65_536, 8).bandwidth_mb_s;
            assert!(a > 100.0, "{net}: implausibly low incast bw {a}");
            assert!(
                b < a * 1.5,
                "{net}: incast scaled with senders ({a} -> {b})"
            );
        }
    }

    #[test]
    fn uncongested_roce_is_competitive_with_ib() {
        // Two nodes, one sender: no cross traffic, so no CC mode may
        // tax the stream (the own-backlog exemption at work).
        let ib = incast(Network::InfiniBand, 2, 65_536, 8).bandwidth_mb_s;
        for mode in RoceMode::ALL {
            let r = incast(Network::RoceV2(mode), 2, 65_536, 8).bandwidth_mb_s;
            assert!(
                r > ib * 0.85,
                "{mode}: uncongested roce {r} MB/s vs ib {ib} MB/s"
            );
        }
    }

    #[test]
    fn allreduce_latency_grows_with_node_count() {
        for net in Network::BOTH {
            let small = small_allreduce_us(net, 2, 4);
            let large = small_allreduce_us(net, 16, 4);
            assert!(large > small, "{net}: {small} -> {large}");
        }
    }
}
