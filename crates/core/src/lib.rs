//! # elanib-core — the comparison framework
//!
//! The paper's deliverable is not a single system but a *comparison*:
//! identical workloads on two networks, reported as scaling efficiency
//! and cost. This crate holds the cross-cutting pieces:
//!
//! * [`platform`] — Table 1, the evaluation platform (and its simulated
//!   counterpart for every component);
//! * [`extrapolate`] — the Figure 8 trend fitting and projection;
//! * [`report`] — aligned-text/CSV table rendering for the
//!   figure regenerators;
//! * [`inventory`] — the experiment index: every table and figure
//!   mapped to modules and a regenerating binary;
//! * [`sweep`] — the parallel sweep engine the regenerators use to fan
//!   independent simulations across a thread pool (results stay
//!   byte-identical to serial runs; see its module docs);
//! * [`simcache`] — content-addressed memoization of sweep points
//!   (in-run memo table + optional persistent tier), so exhibits that
//!   share grid points simulate each point once.

pub mod extrapolate;
pub mod inventory;
pub mod platform;
pub mod report;
pub mod simcache;
pub mod sweep;

pub use extrapolate::{figure8_series, EfficiencyTrend};
pub use inventory::{exhibit, Exhibit, EXHIBITS};
pub use platform::table1;
pub use report::{f, TextTable};
pub use sweep::{
    sweep, sweep_guided, sweep_guided_with_stats, sweep_with_opts, sweep_with_stats, PointResult,
    SweepOpts, SweepStats, MAX_RETAINED_FAILURES,
};
