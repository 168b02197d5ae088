//! # elanib-microbench — the paper's micro-benchmarks
//!
//! Faithful reimplementations of the three §2.1 micro-benchmarks,
//! running on the simulated networks:
//!
//! * [`pingpong`] — Pallas-style ping-pong latency/bandwidth
//!   (Figure 1(a), (b), (c) ping-pong series)
//! * [`streaming`] — non-blocking back-to-back streaming after
//!   Liu et al. (Figure 1(b), (c) streaming series)
//! * [`beff`] — effective bandwidth of the whole system
//!   (Figure 1(d))
//! * [`reuse`] — the buffer re-use / registration-sensitivity study
//!   discussed in §3.3.2 (after Liu et al. \[11\])
//! * [`init_time`] — MPI_Init cost vs job size (the §3.3.1
//!   connectionless argument)
//!
//! Each module exposes a single-point measurement; the `elanib-bench`
//! crate fans the points across the sweep engine and assembles them
//! into the paper's figures.

pub mod beff;
pub mod faultpoint;
pub mod incast;
pub mod init_time;
pub mod pingpong;
pub mod reuse;
pub mod streaming;

pub use beff::{beff, beff_sizes, BeffPoint};
pub use faultpoint::{fault_pingpong, outage_stream, FaultPoint};
pub use incast::{incast, small_allreduce_us, IncastPoint};
pub use init_time::{init_time, InitPoint};
pub use pingpong::{figure1_sizes, pingpong, PingPongPoint};
pub use reuse::{pingpong_reuse, ReusePoint};
pub use streaming::{streaming, StreamingPoint};
