//! # elanib-simcore — deterministic async discrete-event simulation
//!
//! The substrate under the entire InfiniBand / Elan-4 reproduction: a
//! single-threaded, seeded, picosecond-resolution discrete-event kernel
//! whose processes are ordinary Rust `async fn`s.
//!
//! ## Model
//!
//! * [`Sim`] owns the clock, the `(time, seq)`-ordered event heap, the
//!   task slab, and the RNG. [`Sim::run`] drives everything to
//!   completion and reports deadlocks (a suspended task with no pending
//!   event that could wake it) with task names.
//! * Tasks suspend on [`Sim::sleep`], on [`sync::Flag`] /
//!   [`sync::Mailbox`] / [`sync::Semaphore`], or on the bandwidth
//!   resources in [`resources`].
//! * [`resources::FifoChannel`] models exclusively-occupied media
//!   (network links, switch ports); [`resources::PsResource`] models
//!   fair-shared buses (PCI-X, memory) with the fluid processor-sharing
//!   discipline.
//!
//! ## Determinism
//!
//! Same seed + same program ⇒ identical event sequence, identical final
//! clock. This is load-bearing for the reproduction: every figure in
//! the paper is regenerated from simulations that must be re-runnable
//! bit-for-bit.
//!
//! ### Determinism under parallel sweeps
//!
//! The sweep engine (`elanib-core::sweep`) runs *independent* sims on
//! separate OS threads. That never threatens determinism because the
//! parallelism is **across simulations, not within one**: each kernel
//! remains single-threaded, owns all of its state (`Sim` is not even
//! `Send` — a sim is constructed, run, and dropped entirely on one
//! worker thread), and shares nothing with its siblings. A simulation's
//! event sequence is a pure function of its seed and program, so the
//! numbers it produces are identical whether it runs alone, serially
//! after other sims, or concurrently next to them. [`kernel::thread_events`]
//! is the one piece of thread-aware state: a per-thread cumulative
//! event counter that sweep workers sample to report throughput.
//!
//! ```
//! use elanib_simcore::{Sim, Dur};
//!
//! let sim = Sim::new(42);
//! let s = sim.clone();
//! sim.spawn("hello", async move {
//!     s.sleep(Dur::from_us(10)).await;
//!     assert_eq!(s.now().as_us_f64(), 10.0);
//! });
//! sim.run().unwrap();
//! ```

pub mod fxhash;
pub mod kernel;
pub mod profile;
pub mod resources;
pub mod sync;
pub mod time;
pub mod wheel;

/// Re-export of the tracing/metrics crate so model crates can name
/// tracer types (`trace::Tracer`, `trace::TraceConfig`) without their
/// own dependency edge; instrumentation reaches the tracer through
/// [`Sim::tracer`](kernel::Sim::tracer).
pub use elanib_trace as trace;

pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use kernel::{
    flight_kind_name, thread_events, DeadlockDiag, Delay, FlightEntry, Sim, SimError, StuckTask,
    TaskId, FLIGHT_LEN,
};
pub use profile::KernelProfiler;
pub use resources::{ChannelStats, FifoChannel, PsResource};
pub use sync::{race2, Flag, Mailbox, Race2, Semaphore};
pub use time::{Dur, SimTime};
pub use wheel::TimerWheel;
