//! # elanib-nodesim — the compute-node model
//!
//! Models the test platform from Table 1 of the paper: Dell PowerEdge
//! 1750, dual 3.06 GHz Xeon, 533 MHz front-side bus, ServerWorks GC-LE
//! chipset, one 133 MHz PCI-X slot for the high-speed interconnect.
//!
//! Three shared resources produce every 1 PPN vs 2 PPN effect in the
//! reproduction:
//!
//! * the **memory bus** ([`Node::host_copy`]) — a processor-sharing
//!   resource crossed by every host-side message copy (MPI eager
//!   buffers, shared-memory intra-node transfers);
//! * the **PCI-X bus** ([`Node::dma`]) — a processor-sharing resource
//!   crossed by every NIC DMA in either direction, with a fixed
//!   per-transaction setup cost;
//! * the **CPUs** — each MPI process is pinned to one CPU; host MPI
//!   work (matching, protocol handling) occupies its CPU, and compute
//!   phases are dilated when the sibling CPU is simultaneously active
//!   ([`Node::compute`]), modelling FSB and cache-pollution contention.

use std::cell::Cell;
use std::rc::Rc;

use elanib_simcore::{Dur, PsResource, Sim};

/// Physical constants of the Table-1 node.
#[derive(Clone, Copy, Debug)]
pub struct NodeParams {
    /// Sustained single-stream memcpy bandwidth through the FSB,
    /// bytes/s. A 533 MHz, 8-byte FSB peaks at 4.3 GB/s; sustained
    /// copy (read+write) on this platform generation is ~1.5 GB/s.
    pub mem_copy_bw: f64,
    /// PCI-X 133/64 payload bandwidth, bytes/s. 1.066 GB/s raw; ~0.95
    /// after burst/arbitration overhead. Shared by both directions and
    /// both CPUs' traffic.
    pub pcix_bw: f64,
    /// Fixed cost to set up one DMA transaction on the bus.
    pub dma_setup: Dur,
    /// L2 cache per CPU (512 KB Xeon).
    pub l2_bytes: u64,
    /// Compute-dilation coefficient per additional simultaneously
    /// active sibling CPU, scaled by the workload's memory intensity.
    pub contention_beta: f64,
}

impl Default for NodeParams {
    fn default() -> Self {
        NodeParams {
            mem_copy_bw: 1.5e9,
            pcix_bw: 0.95e9,
            dma_setup: Dur::from_ns(450),
            l2_bytes: 512 * 1024,
            contention_beta: 0.35,
        }
    }
}

/// One compute node.
pub struct Node {
    pub id: usize,
    pub params: NodeParams,
    mem_bus: PsResource,
    pcix: PsResource,
    /// CPUs currently inside a compute or copy phase (for the
    /// contention dilation model).
    active_cpus: Cell<usize>,
}

impl Node {
    pub fn new(id: usize, params: NodeParams) -> Rc<Node> {
        Rc::new(Node {
            id,
            params,
            mem_bus: PsResource::new(params.mem_copy_bw),
            pcix: PsResource::new(params.pcix_bw),
            active_cpus: Cell::new(0),
        })
    }

    /// Copy `bytes` through host memory (one read + one write stream,
    /// already folded into `mem_copy_bw`). Shares the bus fairly with
    /// any concurrent copy from the sibling CPU.
    pub async fn host_copy(&self, sim: &Sim, bytes: u64) {
        self.active_cpus.set(self.active_cpus.get() + 1);
        self.mem_bus.transfer(sim, bytes).await;
        self.active_cpus.set(self.active_cpus.get() - 1);
    }

    /// Move `bytes` across the PCI-X bus (NIC DMA, either direction),
    /// including the per-transaction setup cost.
    pub async fn dma(&self, sim: &Sim, bytes: u64) {
        sim.sleep(self.params.dma_setup).await;
        self.pcix.transfer(sim, bytes).await;
    }

    /// Start a PCI-X DMA immediately and return its completion flag —
    /// lets a NIC engine overlap source DMA, wire transfer, and
    /// destination DMA from a single task.
    pub fn pcix_start(&self, sim: &Sim, bytes: u64) -> elanib_simcore::Flag {
        self.pcix.start(sim, bytes)
    }

    /// As [`Node::pcix_start`], completing into an existing flag.
    pub fn pcix_start_into(&self, sim: &Sim, bytes: u64, flag: elanib_simcore::Flag) {
        self.pcix.start_into(sim, bytes, flag);
    }

    /// Consume memory-bus bandwidth without occupying a CPU — used for
    /// NIC-driven copies (e.g. Elan unexpected-message drains) that
    /// steal FSB cycles but no host instructions.
    pub async fn mem_transfer(&self, sim: &Sim, bytes: u64) {
        self.mem_bus.transfer(sim, bytes).await;
    }

    /// Occupy a CPU with pure protocol work for `dur` (no memory
    /// pressure modelled beyond the time itself).
    pub async fn cpu_work(&self, sim: &Sim, dur: Dur) {
        sim.sleep(dur).await;
    }

    /// Run an application compute phase of nominal length `dur` on one
    /// CPU. `mem_intensity` ∈ [0,1] says how memory-bound the kernel
    /// is; the phase stretches by
    /// `1 + beta * mem_intensity * (other active CPUs at entry)`.
    pub async fn compute(&self, sim: &Sim, dur: Dur, mem_intensity: f64) {
        let others = self.active_cpus.get();
        let factor = 1.0 + self.params.contention_beta * mem_intensity * others as f64;
        let stretched = dur.scale(factor);
        self.active_cpus.set(others + 1);
        sim.sleep(stretched).await;
        self.active_cpus.set(self.active_cpus.get() - 1);
    }

    /// Slowdown multiplier for a compute kernel whose per-process
    /// working set is `working_set` bytes: 1.0 when it fits in L2,
    /// rising smoothly to `max_penalty` when far larger. This is what
    /// makes the paper's fixed-size Sweep3D study superlinear from 1 to
    /// 4 processors (§4.2.2) and keeps CG class A cache-resident
    /// (§4.2.3).
    pub fn cache_speed_factor(&self, working_set: u64, max_penalty: f64) -> f64 {
        cache_speed_factor(self.params.l2_bytes, working_set, max_penalty)
    }
}

/// Standalone version of [`Node::cache_speed_factor`] for planners that
/// have no node instance at hand.
pub fn cache_speed_factor(l2_bytes: u64, working_set: u64, max_penalty: f64) -> f64 {
    assert!(max_penalty >= 1.0);
    if working_set <= l2_bytes {
        return 1.0;
    }
    // The miss-driven slowdown grows with how far the working set
    // overflows the cache, saturating at 8x overflow (log2 scale / 3).
    let overflow = working_set as f64 / l2_bytes as f64;
    let t = (overflow.log2() / 3.0).clamp(0.0, 1.0);
    1.0 + (max_penalty - 1.0) * t
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    #[test]
    fn dma_includes_setup_cost() {
        let sim = Sim::new(1);
        let node = Node::new(0, NodeParams::default());
        let s = sim.clone();
        sim.spawn("t", async move {
            node.dma(&s, 950_000).await; // 1 ms of bus time at 0.95 GB/s
            let expect = 1000.0 + 0.45;
            assert!((s.now().as_us_f64() - expect).abs() < 0.01);
        });
        sim.run().unwrap();
    }

    #[test]
    fn concurrent_dma_shares_pcix() {
        let sim = Sim::new(1);
        let node = Node::new(0, NodeParams::default());
        let ends = Rc::new(RefCell::new(Vec::new()));
        for i in 0..2 {
            let (n, s, e) = (node.clone(), sim.clone(), ends.clone());
            sim.spawn(format!("t{i}"), async move {
                n.dma(&s, 950_000).await;
                e.borrow_mut().push(s.now().as_us_f64());
            });
        }
        sim.run().unwrap();
        // Both set up in parallel, then split the bus: 2 ms of shared
        // bus time after the 0.45 µs setup.
        let expect = 2000.0 + 0.45;
        assert_eq!(ends.borrow().len(), 2);
        for t in ends.borrow().iter() {
            assert!(
                (t - expect).abs() < 0.01,
                "both should finish at {expect} µs, got {t}"
            );
        }
    }

    #[test]
    fn compute_dilates_when_sibling_active() {
        let sim = Sim::new(1);
        let node = Node::new(0, NodeParams::default());
        let t_end = Rc::new(Cell::new(0.0));
        let (n1, s1) = (node.clone(), sim.clone());
        sim.spawn("cpu0", async move {
            n1.compute(&s1, Dur::from_ms(10), 1.0).await;
        });
        let (n2, s2, te) = (node.clone(), sim.clone(), t_end.clone());
        sim.spawn("cpu1", async move {
            s2.sleep(Dur::from_us(1)).await; // enter second
            n2.compute(&s2, Dur::from_ms(10), 1.0).await;
            te.set(s2.now().as_us_f64());
        });
        sim.run().unwrap();
        // Second CPU saw one active sibling: 10 ms * 1.35 + 1 us start.
        assert!((t_end.get() - 13501.0).abs() < 1.0, "got {}", t_end.get());
    }

    #[test]
    fn compute_alone_runs_at_nominal_speed() {
        let sim = Sim::new(1);
        let node = Node::new(0, NodeParams::default());
        let s = sim.clone();
        sim.spawn("t", async move {
            node.compute(&s, Dur::from_ms(10), 1.0).await;
            assert_eq!(s.now().as_us_f64(), 10_000.0);
        });
        sim.run().unwrap();
    }

    #[test]
    fn cache_factor_monotone_in_working_set() {
        let l2 = 512 * 1024;
        assert_eq!(cache_speed_factor(l2, 100, 2.0), 1.0);
        assert_eq!(cache_speed_factor(l2, l2, 2.0), 1.0);
        let f2 = cache_speed_factor(l2, 2 * l2, 2.0);
        let f8 = cache_speed_factor(l2, 8 * l2, 2.0);
        let f64x = cache_speed_factor(l2, 64 * l2, 2.0);
        assert!(1.0 < f2 && f2 < f8 && f8 <= f64x);
        assert!(f64x <= 2.0);
        assert_eq!(cache_speed_factor(l2, 1024 * l2, 2.0), 2.0);
    }

    #[test]
    fn host_copies_share_memory_bus() {
        let sim = Sim::new(1);
        let node = Node::new(0, NodeParams::default());
        let ends = Rc::new(RefCell::new(Vec::new()));
        for i in 0..2 {
            let (n, s, e) = (node.clone(), sim.clone(), ends.clone());
            sim.spawn(format!("c{i}"), async move {
                n.host_copy(&s, 1_500_000).await; // 1 ms alone
                e.borrow_mut().push(s.now().as_us_f64());
            });
        }
        sim.run().unwrap();
        for t in ends.borrow().iter() {
            assert!((t - 2000.0).abs() < 0.01, "shared bus halves rate, got {t}");
        }
    }
}
