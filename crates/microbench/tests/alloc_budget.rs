//! Allocation gate for b_eff: the bytes one job allocates are counted
//! by a global allocator and held to the simulation's own overhead.
//! Every message sends the empty payload with its charged size, so a
//! b_eff job allocates nothing per message size; a payload built per
//! size (let alone per rank, pattern and size) fails this gate.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use elanib_microbench::beff;
use elanib_mpi::Network;

static BYTES: AtomicU64 = AtomicU64::new(0);

/// Everything an 8-rank InfiniBand b_eff job allocates (worlds,
/// queues, requests, allreduce buffers): measured at 1,046,570 B,
/// budgeted at twice that.
const MODEL_OVERHEAD: u64 = 2 << 20;

struct Counting;

// Forwards to `System` unchanged; counting touches only an atomic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static A: Counting = Counting;

#[test]
fn beff_allocates_nothing_per_message_size() {
    let budget = MODEL_OVERHEAD;
    let before = BYTES.load(Ordering::Relaxed);
    let p = beff(Network::InfiniBand, 8, 1, 2);
    let allocated = BYTES.load(Ordering::Relaxed) - before;
    assert!(p.beff_mb_s > 0.0);
    assert!(
        allocated <= budget,
        "b_eff on 8 InfiniBand nodes allocated {allocated} B, budget {budget} B"
    );
}
