//! The experiment inventory: one entry per table/figure in the paper,
//! mapping it to the modules and binaries that regenerate it. Used by
//! `elanib-bench` to label output and by tests to prove coverage is
//! complete.

/// One paper exhibit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Exhibit {
    /// Paper label, e.g. "Figure 1(a)".
    pub id: &'static str,
    pub title: &'static str,
    /// Workload / parameters in brief.
    pub workload: &'static str,
    /// Modules implementing the pieces.
    pub modules: &'static str,
    /// Binary that regenerates it (`cargo run -p elanib-bench --bin`).
    pub bin: &'static str,
}

/// Every table and figure in the paper's evaluation.
pub const EXHIBITS: &[Exhibit] = &[
    Exhibit {
        id: "Table 1",
        title: "Evaluation platform",
        workload: "configuration",
        modules: "elanib-core::platform, elanib-nodesim, elanib-nic, elanib-fabric",
        bin: "table1",
    },
    Exhibit {
        id: "Figure 1(a)",
        title: "Ping-pong latency vs message size",
        workload: "2 nodes, 1 PPN, 0 B - 4 MiB",
        modules: "elanib-microbench::pingpong, elanib-mpi::{verbs,tports}",
        bin: "fig1",
    },
    Exhibit {
        id: "Figure 1(b)",
        title: "Ping-pong + streaming bandwidth vs size",
        workload: "2 nodes, 1 PPN; streaming window pre-posted",
        modules: "elanib-microbench::{pingpong,streaming}, elanib-nic::regcache",
        bin: "fig1",
    },
    Exhibit {
        id: "Figure 1(c)",
        title: "Elan-4 / InfiniBand bandwidth ratio",
        workload: "derived from 1(b)",
        modules: "elanib-microbench",
        bin: "fig1",
    },
    Exhibit {
        id: "Figure 1(d)",
        title: "Effective bandwidth (b_eff) per process",
        workload: "2-32 nodes, 1 PPN, rings + random patterns",
        modules: "elanib-microbench::beff, elanib-mpi::collectives",
        bin: "fig1",
    },
    Exhibit {
        id: "Figure 2",
        title: "LAMMPS LJS scaled study: time + efficiency",
        workload: "32k atoms/proc, 1-32 nodes, 1 and 2 PPN",
        modules: "elanib-apps::md (ljs)",
        bin: "fig2",
    },
    Exhibit {
        id: "Figure 3",
        title: "LAMMPS membrane scaled study: time + efficiency",
        workload: "16k atoms/proc, overlap-heavy, 1-32 nodes, 1 and 2 PPN",
        modules: "elanib-apps::md (membrane)",
        bin: "fig3",
    },
    Exhibit {
        id: "Figure 4",
        title: "Sweep3D 150^3 fixed-size: grind time + efficiency",
        workload: "1,4,9,16,25 procs, 1 PPN",
        modules: "elanib-apps::sweep3d",
        bin: "fig4",
    },
    Exhibit {
        id: "Figure 5",
        title: "Sweep3D input-size family on InfiniBand",
        workload: "50^3-150^3, normalized at 4 procs",
        modules: "elanib-apps::sweep3d",
        bin: "fig5",
    },
    Exhibit {
        id: "Figure 6",
        title: "NAS CG class A: MOps/s/process + efficiency",
        workload: "n=14336, 1-32 procs (power of two), 1 PPN",
        modules: "elanib-apps::nascg",
        bin: "fig6",
    },
    Exhibit {
        id: "Table 2",
        title: "InfiniBand list prices",
        workload: "April 2004 list",
        modules: "elanib-cost::prices",
        bin: "tables",
    },
    Exhibit {
        id: "Table 3",
        title: "Quadrics Elan-4 list prices",
        workload: "April 2004 list",
        modules: "elanib-cost::prices",
        bin: "tables",
    },
    Exhibit {
        id: "Figure 7",
        title: "Network cost per port vs system size",
        workload: "8-4096 ports, three switch strategies",
        modules: "elanib-cost::curves",
        bin: "fig7",
    },
    Exhibit {
        id: "Figure 8",
        title: "Membrane study extrapolated to 8192 processors",
        workload: "trend fit of Figure 3 measurements",
        modules: "elanib-core::extrapolate, elanib-apps::md",
        bin: "fig8",
    },
    Exhibit {
        id: "Ablations (§7)",
        title: "Mechanism ablations: which feature explains the gap",
        workload: "membrane at 16 nodes, one mechanism toggled at a time",
        modules: "elanib-mpi (async_progress, explicit_registration), elanib-apps::md",
        bin: "ablations",
    },
    Exhibit {
        id: "Faults",
        title: "Fault injection: link-level vs end-to-end recovery (§3.1)",
        workload: "seeded loss/outage plans; ping-pong grid + 16-node stream",
        modules: "elanib-fabric::faults, elanib-nic::transfer, elanib-microbench::faultpoint",
        bin: "faults",
    },
    Exhibit {
        id: "RoCE",
        title: "RoCEv2 congestion control vs native IB (extension)",
        workload: "incast 2-32 nodes + 8 B allreduce; PFC/DCQCN/hybrid",
        modules: "elanib-nic::roce, elanib-microbench::incast",
        bin: "roce",
    },
];

/// Look up an exhibit by id.
pub fn exhibit(id: &str) -> Option<&'static Exhibit> {
    EXHIBITS.iter().find(|e| e.id == id)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_paper_exhibit_is_covered() {
        // The evaluation has figures 1-8 and tables 1-3.
        for id in [
            "Table 1",
            "Table 2",
            "Table 3",
            "Figure 1(a)",
            "Figure 1(b)",
            "Figure 1(c)",
            "Figure 1(d)",
            "Figure 2",
            "Figure 3",
            "Figure 4",
            "Figure 5",
            "Figure 6",
            "Figure 7",
            "Figure 8",
        ] {
            assert!(exhibit(id).is_some(), "missing exhibit {id}");
        }
        assert_eq!(EXHIBITS.len(), 17);
        assert!(exhibit("Ablations (§7)").is_some());
        assert!(exhibit("Faults").is_some());
        assert!(exhibit("RoCE").is_some());
    }

    #[test]
    fn exhibit_ids_unique() {
        let mut ids: Vec<_> = EXHIBITS.iter().map(|e| e.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), EXHIBITS.len());
    }
}
