//! # elanib-mpi — the MPI layer
//!
//! An MPI-1-flavoured message-passing interface with two transports
//! that mirror the software stacks the paper benchmarked:
//!
//! * [`verbs::IbWorld`] — an MVAPICH-0.9.2-style implementation over
//!   the InfiniBand HCA model: eager copies through pre-registered
//!   RDMA buffers, host-side tag matching, an explicit
//!   rendezvous (RTS/CTS/FIN) protocol with memory registration, and —
//!   crucially — **progress only inside MPI calls**.
//! * [`tports::ElanWorld`] — a Quadrics-style implementation over
//!   Tports: the shim is a few lines because matching, buffering, and
//!   rendezvous all run on the NIC. The size difference between
//!   `verbs.rs` and `tports.rs` *is* §3 of the paper.
//!
//! Applications program against the [`Communicator`] trait, so the same
//! `async fn` rank program runs unchanged on either network.
//!
//! ## Semantics implemented
//!
//! * standard-mode send/recv, non-blocking isend/irecv + wait/waitall
//! * tag and source wildcards, non-overtaking matching order
//! * communicator contexts (used internally to isolate collectives)
//! * collectives in [`collectives`]: barrier, broadcast, reduce,
//!   allreduce, gather, all-to-all — implemented over point-to-point
//!   exactly as the 2004-era MPICH derivatives did
//!
//! ## Timing vs. data
//!
//! Every message carries both a real payload ([`Bytes`], for
//! application correctness) and a modelled size in bytes (for timing).
//! They usually agree, but scaled-down application proxies may carry a
//! small real payload while charging full-scale wire time.

use std::future::Future;
use std::rc::Rc;

use elanib_simcore::Sim;

pub mod collectives;
pub mod runner;
pub mod subcomm;
pub mod tports;
pub mod verbs;

pub use elanib_nic::{BackendKind, Bytes, RoceMode, RoceParams};
pub use runner::{
    run_job, run_job_configured, run_scenario, run_scenario_on, JobSpec, NetConfig, Network,
    RankProgram, ScenarioRun,
};
pub use subcomm::SubComm;

/// Aggregate run statistics from a world (see `IbWorld::stats` /
/// `ElanWorld::stats`).
#[derive(Clone, Copy, Debug, Default)]
pub struct WorldStats {
    /// Bytes carried across all fabric links (wire bytes incl. headers).
    pub wire_bytes: u64,
    /// Wire transactions injected by all NICs.
    pub nic_messages: u64,
    /// Messages that arrived before a matching receive was posted.
    pub unexpected: u64,
    /// Registration-cache hits (InfiniBand; Elan only under ablation).
    pub reg_hits: u64,
    pub reg_misses: u64,
    pub reg_evictions: u64,
}

/// A completed receive.
#[derive(Clone, Debug)]
pub struct RecvMsg {
    pub src: usize,
    pub tag: i64,
    pub bytes: u64,
    pub data: Bytes,
}

/// Context id of the application's world communicator.
pub const CTX_WORLD: u32 = 0;
/// Context id reserved for library-internal collectives.
pub const CTX_COLL: u32 = 1;

/// The programming interface applications use; implemented by
/// [`verbs::VerbsComm`] and [`tports::TportsComm`].
pub trait Communicator: Clone + 'static {
    /// Transport-specific request handle for outstanding operations.
    type Req: 'static;

    fn rank(&self) -> usize;
    fn size(&self) -> usize;
    fn sim(&self) -> Sim;

    /// Non-blocking send: returns once the operation is *posted* (host
    /// costs charged). `region` identifies the application buffer for
    /// registration-cache purposes.
    fn isend_full(
        &self,
        dst: usize,
        tag: i64,
        ctx: u32,
        data: Bytes,
        bytes: u64,
        region: u64,
    ) -> impl Future<Output = Self::Req>;

    /// Non-blocking receive (`None` selectors are MPI wildcards).
    fn irecv_full(
        &self,
        src: Option<usize>,
        tag: Option<i64>,
        ctx: u32,
        region: u64,
    ) -> impl Future<Output = Self::Req>;

    /// Block until the request completes; receives yield the message.
    fn wait(&self, req: Self::Req) -> impl Future<Output = Option<RecvMsg>>;

    /// Run an application compute phase of nominal length `dur` on this
    /// rank's CPU. Routed through the node model so a busy sibling CPU
    /// dilates it (`mem_intensity` ∈ [0,1] — how memory-bound the
    /// kernel is). **No MPI progress happens during compute** — on the
    /// verbs transport that is the whole point.
    fn compute(&self, dur: elanib_simcore::Dur, mem_intensity: f64) -> impl Future<Output = ()>;

    /// Hardware-assisted full-communicator barrier, if this transport
    /// offers one (QsNet's barrier network). Returns `true` if the
    /// barrier was performed in hardware; `false` means the caller must
    /// fall back to the software algorithm. Only meaningful on the
    /// world communicator (sub-communicators always fall back).
    fn hw_barrier(&self) -> impl Future<Output = bool> {
        async { false }
    }
}

/// Deterministic buffer identity for callers that don't manage regions
/// explicitly: the same (direction, tag, size-class) reuses the same
/// logical buffer — which is what typical applications do, and what
/// makes registration caches effective.
pub fn auto_region(dir: u64, tag: i64, bytes: u64) -> u64 {
    let class = 64 - bytes.max(1).leading_zeros() as u64;
    (dir << 56) ^ ((tag as u64 & 0xffff_ffff) << 8) ^ class
}

/// Non-blocking send on the world context with an auto-derived region.
pub async fn isend<C: Communicator>(
    c: &C,
    dst: usize,
    tag: i64,
    data: Bytes,
    bytes: u64,
) -> C::Req {
    c.isend_full(dst, tag, CTX_WORLD, data, bytes, auto_region(1, tag, bytes))
        .await
}

/// Non-blocking receive on the world context.
pub async fn irecv<C: Communicator>(c: &C, src: Option<usize>, tag: Option<i64>) -> C::Req {
    c.irecv_full(src, tag, CTX_WORLD, auto_region(2, tag.unwrap_or(0), 0))
        .await
}

/// Blocking standard-mode send.
pub async fn send<C: Communicator>(c: &C, dst: usize, tag: i64, data: Bytes, bytes: u64) {
    let r = isend(c, dst, tag, data, bytes).await;
    c.wait(r).await;
}

/// Blocking receive.
pub async fn recv<C: Communicator>(c: &C, src: Option<usize>, tag: Option<i64>) -> RecvMsg {
    let r = irecv(c, src, tag).await;
    c.wait(r).await.expect("recv request must yield a message")
}

/// Combined send+receive that cannot deadlock against a symmetric
/// partner (posts the receive first, then the send, then waits both).
pub async fn sendrecv<C: Communicator>(
    c: &C,
    dst: usize,
    stag: i64,
    data: Bytes,
    bytes: u64,
    src: usize,
    rtag: i64,
) -> RecvMsg {
    let rr = irecv(c, Some(src), Some(rtag)).await;
    let sr = isend(c, dst, stag, data, bytes).await;
    let m = c.wait(rr).await.expect("sendrecv must yield a message");
    c.wait(sr).await;
    m
}

/// Wait on every request, in order (progress is shared, so ordering
/// does not serialize the underlying transfers).
pub async fn waitall<C: Communicator>(c: &C, reqs: Vec<C::Req>) -> Vec<Option<RecvMsg>> {
    let mut out = Vec::with_capacity(reqs.len());
    for r in reqs {
        out.push(c.wait(r).await);
    }
    out
}

/// Encode a float slice as a payload (little-endian).
pub fn bytes_of_f64(xs: &[f64]) -> Bytes {
    // Sized-then-filled (rather than repeated extend_from_slice) so
    // the encode compiles to one allocation and a straight copy; this
    // runs once per simulated exchange on every CG/MD iteration.
    let mut v = vec![0u8; xs.len() * 8];
    for (c, x) in v.chunks_exact_mut(8).zip(xs) {
        c.copy_from_slice(&x.to_le_bytes());
    }
    Rc::new(v)
}

/// Decode a payload produced by [`bytes_of_f64`].
pub fn f64_of_bytes(b: &Bytes) -> Vec<f64> {
    f64s_of_bytes(b).collect()
}

/// Streaming decode of a [`bytes_of_f64`] payload — same values as
/// [`f64_of_bytes`] without the intermediate `Vec`, for accumulate /
/// copy-into consumers on per-iteration exchange paths.
pub fn f64s_of_bytes(b: &[u8]) -> impl Iterator<Item = f64> + '_ {
    b.chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
}

/// All-zero payload standing in for a `bytes`-long message: the same
/// length and content as encoding `(bytes / 8).max(1)` zero floats
/// with [`bytes_of_f64`], in one zeroed allocation. Build it once and
/// share it by `Rc` clone; the model reads only the `bytes` argument.
pub fn zeros(bytes: u64) -> Bytes {
    Rc::new(vec![0u8; 8 * (bytes as usize / 8).max(1)])
}

/// Empty payload for control-style messages.
pub fn empty() -> Bytes {
    elanib_nic::no_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_payload_round_trip() {
        let xs = [1.5, -2.25, 0.0, f64::MAX];
        let b = bytes_of_f64(&xs);
        assert_eq!(b.len(), 32);
        assert_eq!(f64_of_bytes(&b), xs);
    }

    #[test]
    fn zeros_matches_encoded_zero_floats() {
        for bytes in [0u64, 1, 7, 8, 9, 4096, 1_048_576] {
            let want = bytes_of_f64(&vec![0.0; (bytes as usize / 8).max(1)]);
            assert_eq!(*zeros(bytes), *want, "{bytes} B");
        }
    }

    #[test]
    fn auto_region_distinguishes_direction_tag_and_size_class() {
        let a = auto_region(1, 5, 1024);
        assert_eq!(a, auto_region(1, 5, 1024));
        assert_ne!(a, auto_region(2, 5, 1024));
        assert_ne!(a, auto_region(1, 6, 1024));
        assert_ne!(a, auto_region(1, 5, 1_000_000));
        // Same size class: reuses the region (same logical buffer).
        assert_eq!(auto_region(1, 5, 1000), auto_region(1, 5, 800));
    }
}
