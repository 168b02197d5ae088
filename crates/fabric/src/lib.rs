//! # elanib-fabric — network fabric models
//!
//! The cables-and-switches layer of the reproduction. A [`Topology`]
//! (single crossbar or generalized k-ary n-tree, matching the internal
//! structure of the Voltaire ISR 9600 and the Quadrics QS5A chassis) is
//! combined with per-network [`params::FabricParams`] into a runtime
//! [`Fabric`] that carries messages with cut-through pipelining and
//! per-directed-link contention.
//!
//! Latency anatomy of one message (uncontended):
//!
//! ```text
//! serialization(wire bytes)            -- once, cut-through
//! + propagation × cables on path
//! + hop_latency × switches on path
//! ```
//!
//! plus queueing wherever a directed link is already busy.

pub mod fabric;
pub mod faults;
pub mod params;
pub mod routing;
pub mod topology;

pub use fabric::{CongStats, Fabric, WireOutcome};
pub use faults::{FaultPlan, FaultStats};
pub use params::{elan4, infiniband_4x, roce_ethernet, FabricParams, LinkParams, SwitchParams};
pub use routing::Routes;
pub use topology::{Edge, NodeRef, Topology};

/// Build the fabric a 2004-era deployment of `nodes` nodes would use.
///
/// * InfiniBand: one 96-port ISR 9600 modelled as a 12-ary 2-tree
///   (capacity 144) — the paper's IB partition was 96 nodes on one
///   chassis.
/// * Elan-4: one 64-port QS5A modelled as a 4-ary 3-tree (capacity 64).
pub fn ib_fabric(nodes: usize) -> Fabric {
    Fabric::new(Topology::fat_tree(12, 2, nodes), infiniband_4x())
}

pub fn elan_fabric(nodes: usize) -> Fabric {
    Fabric::new(Topology::fat_tree(4, 3, nodes), elan4())
}

/// [`ib_fabric`] with an explicit fault plan (`None` still honours
/// `ELANIB_FAULTS`, matching `Fabric::new`).
pub fn ib_fabric_with(nodes: usize, plan: Option<std::sync::Arc<FaultPlan>>) -> Fabric {
    let plan = plan.or_else(faults::env_plan);
    Fabric::with_faults(Topology::fat_tree(12, 2, nodes), infiniband_4x(), plan)
}

/// [`elan_fabric`] with an explicit fault plan (`None` still honours
/// `ELANIB_FAULTS`).
pub fn elan_fabric_with(nodes: usize, plan: Option<std::sync::Arc<FaultPlan>>) -> Fabric {
    let plan = plan.or_else(faults::env_plan);
    Fabric::with_faults(Topology::fat_tree(4, 3, nodes), elan4(), plan)
}

/// RoCEv2 deployment fabric (EXTENSION): the same 12-ary 2-tree shape
/// as the InfiniBand chassis, carried over 10GbE links.
pub fn roce_fabric(nodes: usize) -> Fabric {
    Fabric::new(Topology::fat_tree(12, 2, nodes), roce_ethernet())
}

/// [`roce_fabric`] with an explicit fault plan (`None` still honours
/// `ELANIB_FAULTS`).
pub fn roce_fabric_with(nodes: usize, plan: Option<std::sync::Arc<FaultPlan>>) -> Fabric {
    let plan = plan.or_else(faults::env_plan);
    Fabric::with_faults(Topology::fat_tree(12, 2, nodes), roce_ethernet(), plan)
}
