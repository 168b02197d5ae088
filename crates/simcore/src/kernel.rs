//! The discrete-event kernel and its cooperative task executor.
//!
//! The kernel is single-threaded and **deterministic**: every run of
//! the same task program replays the exact same event sequence.
//! Determinism comes from three rules:
//!
//! 1. pending events are ordered by `(time, sequence-number)`, so
//!    simultaneous events fire in scheduling order;
//! 2. there is exactly one executor thread — tasks are `async` state
//!    machines polled to completion one at a time;
//! 3. the kernel draws no random numbers; a model that wants noise
//!    derives it from its own seed (as fault plans and RoCE do), so the
//!    program alone fixes every draw.
//!
//! Simulated processes (MPI ranks, NIC engines, switch arbiters) are
//! plain `async fn`s spawned with [`Sim::spawn`]. They suspend on
//! [`Sim::sleep`] (the passage of modelled time) or on synchronization
//! primitives from [`crate::sync`], and the kernel advances the clock
//! between polls.
//!
//! Pending events live in a hierarchical timing wheel
//! ([`crate::wheel`]) rather than a binary heap; it preserves the exact
//! `(time, sequence-number)` order of rule 1 with O(1) insertion.
//!
//! ## Parallel sweeps
//!
//! Each kernel stays strictly single-threaded, but *independent* sims
//! may run concurrently on different OS threads (the sweep engine in
//! `elanib-core::sweep` does exactly this). Nothing is shared between
//! two `Sim`s, so a sim's event sequence — and therefore every number
//! it produces — is identical whether it runs alone, serially after
//! other sims, or on a worker thread next to 16 siblings. The only
//! thread-aware state in this module is [`thread_events`], a
//! thread-local counter of dispatched events that sweep workers read
//! to attribute event throughput to jobs.
//!
//! ## Hot path
//!
//! The executor is tuned for the tight event loops the paper's
//! exhibits generate (hundreds of millions of events per regeneration):
//!
//! * tasks live in a structure-of-arrays slab with a free list
//!   ([`Kernel::hot`] / [`Kernel::wakers`] / [`Kernel::cold`]): the
//!   dispatch loop touches only the dense hot array (future + live
//!   generation, 24 bytes per slot) per event, wake plumbing sits in
//!   its own array, and diagnostics-only fields (names, suspend
//!   times) stay out of the way entirely. [`TaskId`]s carry a
//!   generation so a stale wake for a recycled slot is ignored
//!   instead of polling the wrong task;
//! * each task's [`Waker`] is created once at spawn and *moved* (not
//!   cloned) in and out of the slab per poll — zero refcount traffic
//!   on the poll path — and the backing `Arc` itself is recycled
//!   across slot generations when no stale clone is outstanding, so
//!   steady-state spawning allocates no waker at all;
//! * event payloads are a flat tagged union ([`EventPayload`]): timer
//!   expiry ([`Sim::sleep`]) schedules the sleeping task's id directly
//!   in the timing wheel and firing it polls the task in place — no
//!   waker clone, no wake-queue mutex round trip per sleep — while
//!   [`Sim::call_at`] closures park in a kernel slab so the wheel
//!   moves plain words, never boxes. Dispatch pops the event *and*
//!   extracts the target future/closure under a single kernel borrow;
//! * small [`Sim::call_at`] closures (≤ 96 bytes of captures — every
//!   hot closure in the model) are stored inline in the call slab
//!   instead of boxed, so the per-message completion callbacks and
//!   processor-sharing reschedules that dominate the `call` bucket
//!   stop churning the allocator;
//! * spawned futures live in per-thread size-class pools
//!   ([`PooledFut`]), so per-message helper tasks reuse their blocks;
//! * per-sim transient strings (task names) live in a bump arena that
//!   resets when the last live task completes, and [`Sim::spawn_fmt`]
//!   formats a name straight into the arena with no intermediate
//!   `String`, so slot recycling does not churn the allocator;
//! * the wake queue is drained in batches (one lock acquisition and
//!   zero allocations per batch, the drain buffers ping-pong) behind
//!   an atomic nothing-pending fast check, and a task woken k times at
//!   the same instant is queued — and polled — once. Dedup marks are
//!   cleared per task immediately before its poll rather than for the
//!   whole batch up front, so a wake raised *while the batch drains*
//!   for a not-yet-polled task coalesces into the pending poll
//!   instead of scheduling a needless second one in the next batch.
//!
//! `tests/reference_kernel.rs` checks these paths against a naive
//! `BinaryHeap` executor: the same programs, randomized ones included,
//! must give the same event log, end clock and event count.
//!
//! [`Sim::run_until_budget`] bounds the dispatch loop at a simulated
//! time, leaving later events in the wheel with its anchor held at the
//! last dispatched instant, so a run stopped at its budget can still
//! be inspected, or resumed under a larger one.

use std::alloc::Layout;
use std::cell::{Cell, RefCell};
use std::fmt;
use std::future::Future;
use std::mem::{ManuallyDrop, MaybeUninit};
use std::pin::Pin;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll, Waker};
use std::time::{Duration, Instant};

use crate::profile::KernelProfiler;
use crate::time::{Dur, SimTime};
use crate::wheel::TimerWheel;

/// Identifier of a spawned task within one simulation. Slots are
/// recycled; the generation distinguishes the current occupant from
/// any prior task that used the same slot.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TaskId {
    idx: u32,
    gen: u32,
}

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}.{}", self.idx, self.gen)
    }
}

type BoxFuture = PooledFut;
type BoxCall = Box<dyn FnOnce(&Sim)>;

/// Size classes for pooled task-future blocks. Model tasks cluster
/// tightly: per-message helper tasks ("rx", send-completion watchers)
/// are 32–128 B state machines, transfer tasks land around 512 B.
const FUT_CLASSES: [usize; 6] = [32, 64, 128, 256, 512, 1024];
/// Block alignment — covers every future alignment seen in practice;
/// stricter alignments fall back to a plain box.
const FUT_ALIGN: usize = 16;
/// `class` sentinel: block owned by the global allocator, not a pool.
const FUT_UNPOOLED: u8 = u8::MAX;
/// Max parked blocks per size class per thread (bounds idle memory at
/// ~2 MB/thread worst case; in-flight population stays well under it).
const FUT_POOL_CAP: usize = 1024;

/// Per-thread free lists of future blocks, one per size class. Raw
/// blocks only — every entry is uninitialized storage of its class
/// size at `FUT_ALIGN`.
struct FutPool([Vec<*mut u8>; FUT_CLASSES.len()]);

impl Drop for FutPool {
    fn drop(&mut self) {
        for (class, list) in self.0.iter_mut().enumerate() {
            let layout = Layout::from_size_align(FUT_CLASSES[class], FUT_ALIGN).unwrap();
            for &block in list.iter() {
                // SAFETY: parked blocks were allocated with exactly
                // this layout and their contents already dropped.
                unsafe { std::alloc::dealloc(block, layout) };
            }
        }
    }
}

thread_local! {
    static FUT_POOL: RefCell<FutPool> = const { RefCell::new(FutPool([const { Vec::new() }; FUT_CLASSES.len()])) };
}

/// An owned, type-erased task future whose heap block is recycled
/// through [`FUT_POOL`]. Spawn-heavy models create one short-lived
/// task per simulated message, so `Box::pin` + dealloc on completion
/// was a top allocation site; with the pool, steady-state spawns reuse
/// a same-class block with no allocator traffic at all.
///
/// Pinning: the pointee is placement-constructed into its block and
/// never moves until `drop_in_place` runs in `Drop` — structurally
/// pinned even though the `PooledFut` handle itself moves freely
/// (it is just a pointer + class tag).
struct PooledFut {
    ptr: std::ptr::NonNull<dyn Future<Output = ()>>,
    class: u8,
}

impl PooledFut {
    fn new<F: Future<Output = ()> + 'static>(fut: F) -> PooledFut {
        let size = std::mem::size_of::<F>();
        if std::mem::align_of::<F>() <= FUT_ALIGN {
            if let Some(class) = FUT_CLASSES.iter().position(|&c| size <= c) {
                let layout = Layout::from_size_align(FUT_CLASSES[class], FUT_ALIGN).unwrap();
                let block = FUT_POOL
                    .with(|p| p.borrow_mut().0[class].pop())
                    .unwrap_or_else(|| {
                        // SAFETY: `layout` has non-zero size.
                        let p = unsafe { std::alloc::alloc(layout) };
                        if p.is_null() {
                            std::alloc::handle_alloc_error(layout);
                        }
                        p
                    });
                // SAFETY: the block is valid for `FUT_CLASSES[class] >=
                // size` bytes at `FUT_ALIGN >= align_of::<F>()`.
                unsafe { (block as *mut F).write(fut) };
                let ptr = block as *mut F as *mut dyn Future<Output = ()>;
                return PooledFut {
                    // SAFETY: freshly written through a non-null block.
                    ptr: unsafe { std::ptr::NonNull::new_unchecked(ptr) },
                    class: class as u8,
                };
            }
        }
        // Oversized or overaligned: plain box.
        let raw = Box::into_raw(Box::new(fut) as Box<dyn Future<Output = ()>>);
        PooledFut {
            // SAFETY: `Box::into_raw` never returns null.
            ptr: unsafe { std::ptr::NonNull::new_unchecked(raw) },
            class: FUT_UNPOOLED,
        }
    }

    /// Poll the owned future. `&mut self` gives exclusive access; the
    /// pointee never moves, upholding the `Pin` contract.
    #[inline]
    fn poll(&mut self, cx: &mut Context<'_>) -> Poll<()> {
        // SAFETY: see type docs — heap-allocated, initialized, pinned.
        unsafe { Pin::new_unchecked(&mut *self.ptr.as_ptr()).poll(cx) }
    }
}

impl Drop for PooledFut {
    fn drop(&mut self) {
        let p = self.ptr.as_ptr();
        if self.class == FUT_UNPOOLED {
            // SAFETY: came from `Box::into_raw` in `new`.
            drop(unsafe { Box::from_raw(p) });
            return;
        }
        // SAFETY: initialized pointee, dropped exactly once here. Any
        // reentrant allocation from the destructor (e.g. flag pools)
        // touches other thread-locals, never `FUT_POOL`.
        unsafe { std::ptr::drop_in_place(p) };
        let class = self.class as usize;
        let block = p as *mut u8;
        let parked = FUT_POOL.with(|pool| {
            let mut pool = pool.borrow_mut();
            if pool.0[class].len() < FUT_POOL_CAP {
                pool.0[class].push(block);
                true
            } else {
                false
            }
        });
        if !parked {
            let layout = Layout::from_size_align(FUT_CLASSES[class], FUT_ALIGN).unwrap();
            // SAFETY: allocated with exactly this layout in `new`.
            unsafe { std::alloc::dealloc(block, layout) };
        }
    }
}

/// Flattened event payload: a small tagged union, 16 bytes in the
/// common variants, instead of the boxed callables earlier kernels
/// queued. Closures still exist (model components that are pure event
/// handlers schedule them via [`Sim::call_at`]) but they live in a
/// slab on the kernel — the wheel entry is just the slot index — so
/// wheel buckets stay dense and cascades move plain words.
enum EventPayload {
    /// Poll the given task (generation-checked). Scheduled at spawn
    /// *and* by expiring timers: a sleeping task's [`Delay`] registers
    /// the task id directly, so timer expiry polls the task without a
    /// waker clone or a wake-queue round trip.
    Poll(TaskId),
    /// Run the closure parked in the kernel's call slab at this index.
    Call(u32),
}

impl EventPayload {
    /// Profiler bucket index (see [`crate::profile::TAG_NAMES`]). The
    /// `timer` bucket (1) stays empty: timer expiry is a `Poll`.
    #[inline]
    fn tag(&self) -> usize {
        match self {
            EventPayload::Poll(_) => 0,
            EventPayload::Call(_) => 2,
        }
    }
}

/// Flight-recorder depth: the last this-many dispatched events are
/// kept per simulation, always (the ring is fixed-size and
/// allocation-free after startup, so there is no reason to gate it).
pub const FLIGHT_LEN: usize = 64;

/// One flight-recorder entry: a recently dispatched kernel event.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FlightEntry {
    /// Dispatch instant, simulated picoseconds.
    pub at_ps: u64,
    /// Event kind: 0 = poll, 2 = call, the profiler's tag numbering
    /// ([`flight_kind_name`]).
    pub kind: u8,
    /// Task slot (poll) or call slot (call).
    pub idx: u32,
}

/// Human name of a [`FlightEntry::kind`].
pub fn flight_kind_name(kind: u8) -> &'static str {
    match kind {
        0 => "poll",
        2 => "call",
        _ => "?",
    }
}

impl fmt::Display for FlightEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}#{}@{}ps",
            flight_kind_name(self.kind),
            self.idx,
            self.at_ps
        )
    }
}

/// Fixed-size ring of the most recent dispatched events. Written on
/// every dispatch (two stores), read only by deadlock reports and
/// debugging accessors, so an *untraced* stuck run still ships the
/// event history that led up to the hang.
struct FlightRing {
    buf: Vec<FlightEntry>,
    /// Total events ever recorded; `written % FLIGHT_LEN` is the next
    /// write position.
    written: u64,
}

impl FlightRing {
    fn new() -> FlightRing {
        FlightRing {
            buf: vec![FlightEntry::default(); FLIGHT_LEN],
            written: 0,
        }
    }

    #[inline]
    fn record(&mut self, at_ps: u64, payload: &EventPayload) {
        let idx = match payload {
            EventPayload::Poll(id) => id.idx,
            EventPayload::Call(i) => *i,
        };
        let kind = payload.tag() as u8;
        let slot = (self.written % FLIGHT_LEN as u64) as usize;
        self.buf[slot] = FlightEntry { at_ps, kind, idx };
        self.written += 1;
    }

    /// The recorded tail, oldest first (deterministic: dispatch order).
    fn tail(&self) -> Vec<FlightEntry> {
        let n = self.written.min(FLIGHT_LEN as u64);
        let start = self.written - n;
        (0..n)
            .map(|k| self.buf[((start + k) % FLIGHT_LEN as u64) as usize])
            .collect()
    }
}

/// Bump arena for per-sim transient strings (task names). Names are
/// written once at spawn and read only for diagnostics — deadlock
/// reports and task-lifetime trace spans — so slots hold a plain
/// `(offset, len)` span instead of an owned `String`, and slot
/// recycling stops churning the allocator. The arena resets wholesale
/// whenever the last live task completes (no span can be referenced
/// once nothing is live), which bounds growth across sequential
/// task generations.
#[derive(Default)]
struct NameArena {
    buf: String,
}

/// Span into the [`NameArena`].
#[derive(Clone, Copy, Default)]
struct NameRef {
    off: u32,
    len: u32,
}

impl NameArena {
    fn intern(&mut self, s: &str) -> NameRef {
        let off = self.buf.len() as u32;
        self.buf.push_str(s);
        NameRef {
            off,
            len: s.len() as u32,
        }
    }
    /// Format a name straight into the arena — the zero-allocation
    /// path behind [`Sim::spawn_fmt`]: hot model spawn sites pass
    /// `format_args!` instead of building a `String` per task.
    fn intern_fmt(&mut self, args: fmt::Arguments<'_>) -> NameRef {
        use fmt::Write;
        let off = self.buf.len() as u32;
        self.buf
            .write_fmt(args)
            .expect("fmt::Write on String cannot fail");
        NameRef {
            off,
            len: self.buf.len() as u32 - off,
        }
    }
    fn get(&self, r: NameRef) -> &str {
        &self.buf[r.off as usize..(r.off + r.len) as usize]
    }
    /// Drop all interned names, keeping the buffer's capacity.
    fn reset(&mut self) {
        self.buf.clear();
    }
}

/// Hot half of a task slot — the only per-task state the dispatch
/// loop touches on a `Poll` event: the future to run and the
/// generation that validates the event. 24 bytes, densely packed in
/// [`Kernel::hot`], so a dispatch reads one cache line per event.
///
/// A slot is *live* while its task has not completed; on completion
/// the future is dropped, the generation is bumped (so in-flight
/// wakes for the finished task are ignored) and the index goes back
/// on the free list for the next spawn.
struct TaskHot {
    fut: Option<BoxFuture>,
    gen: u32,
    live: bool,
}

impl TaskHot {
    fn vacant() -> TaskHot {
        TaskHot {
            fut: None,
            gen: 0,
            live: false,
        }
    }
}

/// Wake half of a task slot, in its own array ([`Kernel::wakers`]):
/// the per-poll `Waker` (moved out and back, never cloned on the poll
/// path) and the backing `Arc` kept for recycling — when a slot is
/// respawned and no stale clone of the previous task's waker is
/// outstanding (`Arc::strong_count == 1`), the arc's packed id is
/// rewritten in place and no allocation happens at all.
#[derive(Default)]
struct WakerSlot {
    waker: Option<Waker>,
    arc: Option<Arc<TaskWaker>>,
}

/// Cold half of a task slot ([`Kernel::cold`]): diagnostics-only
/// fields read by deadlock reports and task-lifetime trace spans.
#[derive(Default)]
struct TaskCold {
    name: NameRef,
    /// Simulated time of the most recent `Poll::Pending` — i.e. when
    /// the task last suspended. Reported on deadlock.
    last_suspend: SimTime,
    /// Simulated time the current occupant was spawned; closes the
    /// task-lifetime span when event tracing is on.
    spawned_at: SimTime,
}

/// Inline capture space per call slot, in bytes. Every hot closure in
/// the model (processor-sharing reschedules, NIC completion
/// callbacks, message deliveries) must fit: the largest are the HCA
/// delivery callbacks, which carry a whole protocol message by value
/// (~80 B with its `Rc`s). Larger or over-aligned closures fall back
/// to a box transparently.
const CALL_INLINE_BYTES: usize = 96;
const CALL_INLINE_WORDS: usize = CALL_INLINE_BYTES / 8;

/// A small `FnOnce(&Sim)` stored inline: the capture bytes plus the
/// monomorphized functions that know how to run or drop them. The
/// capture is moved out by `invoke`; `drop_in_place` exists only for
/// kernel teardown with the call still pending.
struct InlineCall {
    data: [MaybeUninit<u64>; CALL_INLINE_WORDS],
    invoke: unsafe fn(*mut u8, &Sim),
    drop_in_place: unsafe fn(*mut u8),
}

impl Drop for InlineCall {
    fn drop(&mut self) {
        // Only reached when the kernel is torn down with this call
        // still scheduled; dispatch wraps the slot in `ManuallyDrop`
        // after moving the capture out.
        unsafe { (self.drop_in_place)(self.data.as_mut_ptr() as *mut u8) }
    }
}

/// One slot of the call slab ([`Kernel::calls`]).
enum CallSlot {
    Vacant,
    /// Small closure stored inline — no allocation.
    Inline(InlineCall),
    /// Fallback: closure too large or over-aligned for the inline
    /// arena.
    Boxed(BoxCall),
}

impl CallSlot {
    /// Run the parked closure. Consumes the slot's payload exactly
    /// once in either representation.
    fn run(self, sim: &Sim) {
        match self {
            CallSlot::Vacant => unreachable!("dispatched a vacant call slot"),
            CallSlot::Inline(ic) => {
                // The capture is moved out by `invoke`; suppress the
                // teardown drop so it is not dropped twice.
                let mut ic = ManuallyDrop::new(ic);
                unsafe { (ic.invoke)(ic.data.as_mut_ptr() as *mut u8, sim) }
            }
            CallSlot::Boxed(f) => f(sim),
        }
    }
}

/// The queue a [`Waker`] pushes into. It must be `Send + Sync` because
/// `std::task::Waker` is, even though a kernel never leaves its thread
/// (the sweep engine runs *distinct* sims on distinct threads).
#[derive(Default)]
struct WakeQueue {
    state: Mutex<WakeState>,
    /// Lock-free "anything queued?" hint. Set under the lock by
    /// [`TaskWaker::wake_by_ref`], cleared under the lock when a batch
    /// is drained, checked *before* the lock by the drain loop — which
    /// runs once per dispatched event, almost always finds nothing,
    /// and now pays one atomic load instead of a mutex round trip for
    /// the common miss.
    nonempty: AtomicBool,
}

#[derive(Default)]
struct WakeState {
    /// Tasks woken since the last drain, in wake order.
    ready: Vec<TaskId>,
    /// Dedup marks: `queued[idx] == gen as u64 + 1` iff `(idx, gen)`
    /// is already in `ready` and not yet polled. 0 = not queued.
    /// Cleared per task just before the drain polls it.
    ///
    /// The marks are one wider than the `u32` generation on purpose:
    /// `gen + 1` can then never wrap to 0, the not-queued sentinel. A
    /// `u32` mark scheme breaks at `gen == u32::MAX`, where the mark
    /// collides with the sentinel and the slot's *first* wake of a
    /// batch is falsely treated as a duplicate and dropped — a
    /// lost-wakeup (spurious deadlock) after 2^32 recycles of one slot.
    queued: Vec<u64>,
}

struct TaskWaker {
    queue: Arc<WakeQueue>,
    /// Packed `(idx << 32) | gen`. Atomic so the arc can be recycled
    /// across slot generations: when a slot respawns and
    /// `Arc::strong_count == 1` (the kernel holds the only reference
    /// — no stale clone can observe the change), the id is rewritten
    /// in place instead of allocating a fresh arc. `Relaxed` suffices:
    /// the rewrite happens strictly while no other reference exists.
    id: AtomicU64,
}

impl TaskWaker {
    fn pack(id: TaskId) -> u64 {
        (id.idx as u64) << 32 | id.gen as u64
    }
    fn unpack(packed: u64) -> TaskId {
        TaskId {
            idx: (packed >> 32) as u32,
            gen: packed as u32,
        }
    }
    fn new(queue: Arc<WakeQueue>, id: TaskId) -> TaskWaker {
        TaskWaker {
            queue,
            id: AtomicU64::new(Self::pack(id)),
        }
    }
}

impl std::task::Wake for TaskWaker {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }
    fn wake_by_ref(self: &Arc<Self>) {
        let id = TaskWaker::unpack(self.id.load(Ordering::Relaxed));
        let mut q = self.queue.state.lock().unwrap();
        let idx = id.idx as usize;
        if q.queued.len() <= idx {
            q.queued.resize(idx + 1, 0);
        }
        let mark = id.gen as u64 + 1;
        if q.queued[idx] == mark {
            return; // already queued at this instant: dedup
        }
        q.queued[idx] = mark;
        q.ready.push(id);
        self.queue.nonempty.store(true, Ordering::Release);
    }
}

struct Kernel {
    now: SimTime,
    /// Pending events in `(time, seq)` order; sequence numbers are
    /// assigned by the wheel in push order. A
    /// [`Sim::run_until_budget`] limit leaves later events in place
    /// ([`TimerWheel::pop_before`]), so the wheel alone is the pending
    /// set — there is no side stash.
    queue: TimerWheel<EventPayload>,
    /// Task slab, structure-of-arrays: `hot[i]` / `wakers[i]` /
    /// `cold[i]` are the three halves of slot `i` (dispatch state,
    /// wake plumbing, diagnostics — see the module docs).
    hot: Vec<TaskHot>,
    wakers: Vec<WakerSlot>,
    cold: Vec<TaskCold>,
    /// Recycled slab indices, available for the next spawn.
    free: Vec<u32>,
    /// Parked [`Sim::call_at`] closures; `EventPayload::Call` holds an
    /// index into this slab.
    calls: Vec<CallSlot>,
    /// Recycled call-slab indices.
    call_free: Vec<u32>,
    /// Count of waker `Arc`s actually allocated (spawns minus
    /// recycles) — observability for the recycling fast path.
    waker_allocs: u64,
    /// Task currently being polled, if any — the target a [`Delay`]
    /// registers for direct timer dispatch.
    current: Option<TaskId>,
    names: NameArena,
    live_tasks: usize,
    events_processed: u64,
    /// Portion of `events_processed` already added to the
    /// thread-local counter (see [`thread_events`]).
    events_reported: u64,
    /// Portion of the wheel's cascade count already published to the
    /// metrics registry.
    cascades_reported: u64,
    /// Always-on ring of recently dispatched events (see
    /// [`FlightRing`]); feeds deadlock reports and panic isolation.
    flight: FlightRing,
}

thread_local! {
    static THREAD_EVENTS: Cell<u64> = const { Cell::new(0) };
    static THREAD_WAKER_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Cumulative count of kernel events dispatched by simulations that
/// ran **on the current OS thread**. The sweep engine samples this
/// before and after each job to attribute event throughput; it is
/// monotone and never reset.
pub fn thread_events() -> u64 {
    THREAD_EVENTS.with(|c| c.get())
}

/// Cumulative count of waker `Arc` allocations on the current OS
/// thread — spawns whose slot had no recyclable arc parked. The
/// micro-bench reports this next to allocations-per-event; in steady
/// state it should stay far below the spawn count.
pub fn thread_waker_allocs() -> u64 {
    THREAD_WAKER_ALLOCS.with(|c| c.get())
}

/// Handle to a running simulation. Cheap to clone; all clones share the
/// same kernel.
#[derive(Clone)]
pub struct Sim {
    k: Rc<RefCell<Kernel>>,
    wakes: Arc<WakeQueue>,
    /// Scratch buffer the wake queue is swapped into at drain time;
    /// ping-pongs with the queue's vector so steady-state draining
    /// performs no allocation.
    drain_buf: Rc<RefCell<Vec<TaskId>>>,
    /// Structured tracer, `None` unless `ELANIB_TRACE`/`ELANIB_METRICS`
    /// enabled it at construction. Kept outside the kernel `RefCell` so
    /// instrumentation points pay exactly one null check when disabled
    /// and never contend with a kernel borrow.
    tr: Option<Rc<elanib_trace::Tracer>>,
    /// Kernel profiler, `None` unless `ELANIB_PROFILE` enabled it at
    /// construction. Same zero-cost-when-off discipline as `tr`: the
    /// hot loop pays one null check per dispatch when disabled.
    prof: Option<Rc<KernelProfiler>>,
}

/// One entry of a [`SimError::Deadlock`] report.
#[derive(Clone, Debug)]
pub struct StuckTask {
    pub name: String,
    /// Simulated time at which the task last suspended — where in the
    /// protocol it got stuck. Essential when a sweep worker reports a
    /// deadlock from deep inside a study grid.
    pub since: SimTime,
}

/// Kernel-state snapshot attached to every deadlock report: the
/// scheduler's queue depths at the moment events ran dry plus the
/// flight-recorder tail of the last dispatched events — so a stuck
/// point deep inside a sweep grid ships its diagnosis with the panic
/// message instead of requiring a re-run under a debugger. Built
/// unconditionally (the flight ring is always on); `counters` is
/// non-empty only when the structured tracer was also enabled.
#[derive(Clone, Debug, Default)]
pub struct DeadlockDiag {
    /// Events still pending in the heap (0 for a natural deadlock —
    /// nonzero would mean the loop exited abnormally).
    pub pending_events: usize,
    /// Tasks sitting woken-but-undrained in the wake queue.
    pub wake_queue: usize,
    pub live_tasks: usize,
    pub events_processed: u64,
    /// Top monotonic counters recorded by the tracer, pre-formatted;
    /// empty in untraced runs.
    pub counters: String,
    /// Flight-recorder tail: the last dispatched events, oldest first
    /// (deterministic dispatch order). Empty only if the run
    /// deadlocked before dispatching a single event.
    pub flight: Vec<FlightEntry>,
}

/// Why [`Sim::run`] stopped before all tasks completed.
#[derive(Debug)]
pub enum SimError {
    /// The event heap drained while tasks were still suspended — some
    /// wait can never be satisfied (e.g. a `recv` with no matching
    /// `send`). Carries the stuck tasks' names, the simulated time each
    /// last suspended at, and — when tracing is enabled — a kernel
    /// diagnostics snapshot.
    Deadlock {
        stuck: Vec<StuckTask>,
        diag: DeadlockDiag,
    },
    /// [`Sim::run_until_budget`] exhausted its simulated-time budget
    /// with events still pending: the run is *live* (not deadlocked)
    /// but has overrun the caller's watchdog. `next` is the timestamp
    /// of the earliest undispatched event; `diag` carries the same
    /// kernel snapshot (flight-ring tail included) a deadlock report
    /// would, so a runaway scenario ships its diagnosis without being
    /// killed from outside the process.
    ScenarioTimeout {
        budget: SimTime,
        next: SimTime,
        diag: DeadlockDiag,
    },
}

/// Shared tail of every [`SimError`] Display form: the kernel snapshot
/// in square brackets, flight-ring tail last.
fn fmt_diag(f: &mut fmt::Formatter<'_>, d: &DeadlockDiag) -> fmt::Result {
    write!(
        f,
        " [kernel: pending_events={}, wake_queue={}, live_tasks={}, events_processed={}",
        d.pending_events, d.wake_queue, d.live_tasks, d.events_processed
    )?;
    if !d.counters.is_empty() {
        write!(f, "; counters: {}", d.counters)?;
    }
    if !d.flight.is_empty() {
        let show = d.flight.len().min(8);
        write!(f, "; flight tail ({} of {}): ", show, d.flight.len())?;
        for (i, e) in d.flight[d.flight.len() - show..].iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{e}")?;
        }
    }
    write!(f, "]")
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Deadlock { stuck, diag } => {
                write!(f, "simulation deadlock; {} task(s) stuck: ", stuck.len())?;
                for (i, t) in stuck.iter().take(8).enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{} (suspended at {})", t.name, t.since)?;
                }
                if stuck.len() > 8 {
                    write!(f, ", ...")?;
                }
                fmt_diag(f, diag)
            }
            SimError::ScenarioTimeout { budget, next, diag } => {
                write!(
                    f,
                    "scenario timeout: simulated-time budget {budget} exhausted \
                     with events still pending (next event at {next})"
                )?;
                fmt_diag(f, diag)
            }
        }
    }
}
impl std::error::Error for SimError {}

impl Sim {
    /// Create a simulation. `seed` is the run key the trace and
    /// metrics sinks file this run under; it changes no simulated value.
    pub fn new(seed: u64) -> Sim {
        Sim {
            k: Rc::new(RefCell::new(Kernel {
                now: SimTime::ZERO,
                queue: TimerWheel::new(),
                hot: Vec::new(),
                wakers: Vec::new(),
                cold: Vec::new(),
                free: Vec::new(),
                calls: Vec::new(),
                call_free: Vec::new(),
                waker_allocs: 0,
                current: None,
                names: NameArena::default(),
                live_tasks: 0,
                events_processed: 0,
                events_reported: 0,
                cascades_reported: 0,
                flight: FlightRing::new(),
            })),
            wakes: Arc::new(WakeQueue::default()),
            drain_buf: Rc::new(RefCell::new(Vec::new())),
            tr: elanib_trace::Tracer::from_config(seed),
            prof: KernelProfiler::from_config(),
        }
    }

    /// Create a simulation with an explicit tracer (tests and tools
    /// that want telemetry regardless of environment). `seed` is the
    /// run key, as in [`Sim::new`].
    pub fn with_tracer(seed: u64, tr: Rc<elanib_trace::Tracer>) -> Sim {
        let mut sim = Sim::new(seed);
        sim.tr = Some(tr);
        sim
    }

    /// Create a simulation with an explicit kernel profiler (tests and
    /// tools that want cost attribution regardless of environment).
    pub fn with_profiler(seed: u64, prof: Rc<KernelProfiler>) -> Sim {
        let mut sim = Sim::new(seed);
        sim.prof = Some(prof);
        sim
    }

    /// The kernel profiler, if `ELANIB_PROFILE` (or
    /// [`Sim::with_profiler`]) enabled it for this simulation.
    #[inline]
    pub fn profiler(&self) -> Option<&KernelProfiler> {
        self.prof.as_deref()
    }

    /// Snapshot of the flight recorder: the most recent dispatched
    /// events, oldest first. Always available — the ring is maintained
    /// unconditionally (two stores per dispatch, no allocation).
    pub fn flight_tail(&self) -> Vec<FlightEntry> {
        self.k.borrow().flight.tail()
    }

    /// The structured tracer, if tracing/metrics is enabled for this
    /// simulation. Instrumentation points across the model crates go
    /// through this accessor:
    ///
    /// ```ignore
    /// if let Some(tr) = sim.tracer() {
    ///     tr.add("regcache.miss", 1);
    /// }
    /// ```
    #[inline]
    pub fn tracer(&self) -> Option<&elanib_trace::Tracer> {
        self.tr.as_deref()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.k.borrow().now
    }

    /// Number of events the kernel has dispatched so far.
    pub fn events_processed(&self) -> u64 {
        self.k.borrow().events_processed
    }

    /// Number of task slots currently live (spawned, not completed).
    pub fn live_tasks(&self) -> usize {
        self.k.borrow().live_tasks
    }

    /// Size of the task slab (high-water mark of concurrently live
    /// tasks, not total spawns — slots are recycled).
    pub fn slab_capacity(&self) -> usize {
        self.k.borrow().hot.len()
    }

    /// Number of waker `Arc` allocations so far — spawns that could
    /// not recycle the slot's previous arc. Observability for the
    /// waker-recycling fast path (and its test).
    pub fn waker_allocs(&self) -> u64 {
        self.k.borrow().waker_allocs
    }

    /// Spawn a task. It will first be polled when the kernel reaches the
    /// current simulated time in its event order (immediately at t=now).
    pub fn spawn(&self, name: impl AsRef<str>, fut: impl Future<Output = ()> + 'static) -> TaskId {
        let name = name.as_ref();
        self.spawn_with(|arena| arena.intern(name), fut)
    }

    /// Spawn a task whose name is formatted straight into the name
    /// arena — the hot-path variant for model sites that would
    /// otherwise build (and immediately discard) a `String` per task:
    ///
    /// ```ignore
    /// sim.spawn_fmt(format_args!("xfer {src}->{dst}"), async move { ... });
    /// ```
    pub fn spawn_fmt(
        &self,
        name: fmt::Arguments<'_>,
        fut: impl Future<Output = ()> + 'static,
    ) -> TaskId {
        self.spawn_with(|arena| arena.intern_fmt(name), fut)
    }

    fn spawn_with(
        &self,
        intern: impl FnOnce(&mut NameArena) -> NameRef,
        fut: impl Future<Output = ()> + 'static,
    ) -> TaskId {
        let mut k = self.k.borrow_mut();
        let now = k.now;
        let idx = match k.free.pop() {
            Some(i) => i,
            None => {
                k.hot.push(TaskHot::vacant());
                k.wakers.push(WakerSlot::default());
                k.cold.push(TaskCold::default());
                (k.hot.len() - 1) as u32
            }
        };
        let name = intern(&mut k.names);
        let i = idx as usize;
        debug_assert!(!k.hot[i].live, "spawn into a live slot");
        let id = TaskId {
            idx,
            gen: k.hot[i].gen,
        };
        k.hot[i].fut = Some(PooledFut::new(fut));
        k.hot[i].live = true;
        k.cold[i] = TaskCold {
            name,
            last_suspend: now,
            spawned_at: now,
        };
        // Waker fast path: recycle the slot's previous arc when the
        // kernel holds the only reference (no stale clone can exist,
        // so rewriting the packed id is unobservable); otherwise
        // allocate a fresh one and let the old arc die with its
        // outstanding clones, which the generation check defuses.
        debug_assert!(k.wakers[i].waker.is_none(), "live slot with a parked waker");
        let arc = match k.wakers[i].arc.take() {
            Some(a) if Arc::strong_count(&a) == 1 => {
                a.id.store(TaskWaker::pack(id), Ordering::Relaxed);
                a
            }
            _ => {
                k.waker_allocs += 1;
                THREAD_WAKER_ALLOCS.with(|c| c.set(c.get() + 1));
                Arc::new(TaskWaker::new(self.wakes.clone(), id))
            }
        };
        k.wakers[i].waker = Some(Waker::from(arc.clone()));
        k.wakers[i].arc = Some(arc);
        k.live_tasks += 1;
        k.push(now, EventPayload::Poll(id));
        drop(k);
        if let Some(tr) = &self.tr {
            tr.add("sim.tasks_spawned", 1);
        }
        id
    }

    /// Schedule `f` to run against the simulation after `delay`.
    pub fn call_in(&self, delay: Dur, f: impl FnOnce(&Sim) + 'static) {
        let mut k = self.k.borrow_mut();
        let at = k.now + delay;
        k.push_call(at, f);
    }

    /// Schedule `f` at an absolute time (must not be in the past).
    pub fn call_at(&self, at: SimTime, f: impl FnOnce(&Sim) + 'static) {
        let mut k = self.k.borrow_mut();
        debug_assert!(at >= k.now, "call_at into the past");
        k.push_call(at, f);
    }

    /// Schedule a timer `dur` from now for the task currently being
    /// polled and return its deadline. The expiry event carries the
    /// (generation-checked) task id itself, so firing it polls the
    /// task without cloning a waker or detouring through the wake
    /// queue.
    fn schedule_timer_direct(&self, dur: Dur) -> SimTime {
        let mut k = self.k.borrow_mut();
        let id = k
            .current
            .expect("Sim::sleep awaited outside a simulation task");
        let at = k.now + dur;
        k.push(at, EventPayload::Poll(id));
        drop(k);
        if let Some(tr) = &self.tr {
            tr.add("sim.timers", 1);
        }
        at
    }

    /// Future that completes after `d` of simulated time.
    pub fn sleep(&self, d: Dur) -> Delay {
        Delay {
            sim: self.clone(),
            deadline: None,
            dur: d,
        }
    }

    /// Future that completes at absolute time `t` (immediately if `t`
    /// is in the past).
    pub fn sleep_until(&self, t: SimTime) -> Delay {
        let now = self.now();
        Delay {
            sim: self.clone(),
            deadline: None,
            dur: t.since(now),
        }
    }

    /// Drain one batch of woken tasks and poll them in wake order.
    /// Returns false when the queue was empty. No allocation per
    /// batch: the queue's vector and the drain buffer ping-pong. Each
    /// task's dedup mark is cleared just before its poll.
    /// `mark` is the profiler's chained timestamp: when profiling, the
    /// span from `*mark` to the end of this batch is charged to the
    /// wake bucket and `*mark` advances, so consecutive segments
    /// partition the dispatch loop with no untimed gaps between them.
    fn drain_wakes(&self, mark: Option<&mut Instant>) -> bool {
        // Common case — nothing woke since the last drain — answered
        // by one atomic load, no lock.
        if !self.wakes.nonempty.load(Ordering::Acquire) {
            return false;
        }
        let mut buf = self.drain_buf.borrow_mut();
        debug_assert!(buf.is_empty());
        {
            let mut q = self.wakes.state.lock().unwrap();
            if q.ready.is_empty() {
                return false;
            }
            std::mem::swap(&mut q.ready, &mut *buf);
            self.wakes.nonempty.store(false, Ordering::Release);
        }
        if let Some(tr) = &self.tr {
            tr.add("sim.wakes", buf.len() as u64);
        }
        // Polling may re-enter the kernel (spawn, wake, schedule) but
        // never this drain, so holding the buffer borrow is safe.
        for i in 0..buf.len() {
            let id = buf[i];
            // Unmark this task only now, just before its poll: a wake
            // raised while the earlier part of the batch was polling
            // coalesces into this still-pending poll (which will
            // observe the wake's state change) instead of re-queueing
            // a needless second poll. A wake raised *during or after*
            // the poll re-queues, as it must — it may arrive after the
            // task decided to suspend.
            {
                let mut q = self.wakes.state.lock().unwrap();
                let mark = id.gen as u64 + 1;
                if q.queued[id.idx as usize] == mark {
                    q.queued[id.idx as usize] = 0;
                }
            }
            self.poll_task(id);
        }
        if let (Some(p), Some(m)) = (&self.prof, mark) {
            let now = Instant::now();
            p.wake_drain(buf.len() as u64, now.duration_since(*m));
            *m = now;
        }
        buf.clear();
        true
    }

    /// The dispatch loop shared by [`Sim::run`] and
    /// [`Sim::run_until_budget`]:
    /// process events in `(time, seq)` order while their time precedes
    /// `limit` (all events when `limit` is `None`). Returns the time of
    /// the first event at or past the limit — left undisturbed in the
    /// wheel, whose anchor likewise stays put so new events may still
    /// be scheduled anywhere at or after `now` — or `None` when no
    /// events remain.
    fn run_events(&self, limit: Option<SimTime>) -> Option<SimTime> {
        let _guard = UnwindGuard(self);
        match self.prof.clone() {
            None => self.run_events_inner(limit, None),
            Some(p) => {
                // Bracket the whole dispatch loop so the time *not*
                // attributed to a named bucket (final drain checks,
                // the empty/limit pop) lands in the residue — the
                // attribution percentage the report prints is honest.
                let t0 = Instant::now();
                let before = p.run_wall_ns();
                let out = self.run_events_inner(limit, Some(&p));
                let total = t0.elapsed().as_nanos() as u64;
                let attributed = p.run_wall_ns() - before;
                p.loop_residue(Duration::from_nanos(total.saturating_sub(attributed)));
                out
            }
        }
    }

    fn run_events_inner(
        &self,
        limit: Option<SimTime>,
        prof: Option<&Rc<KernelProfiler>>,
    ) -> Option<SimTime> {
        // Chained profiling timestamp: each attribution advances it,
        // so the wake and event segments tile the loop end to end —
        // only the final (empty or past-limit) pop lands in the
        // residue bucket.
        let mut mark = prof.map(|_| Instant::now());
        loop {
            // 1. Poll every task woken at the current instant. Wakes
            //    performed while draining are themselves drained before
            //    the clock may advance (zero-delay wake semantics).
            while self.drain_wakes(mark.as_mut()) {}

            // 2. Advance the clock to the next event and extract the
            //    dispatch target — future + waker for a poll, parked
            //    closure for a call — under the same kernel borrow as
            //    the pop: one borrow per event, not two.
            let (action, tag, prof_sample) = {
                let mut k = self.k.borrow_mut();
                let next = match limit {
                    Some(lim) => match k.queue.pop_before(lim.as_ps()) {
                        Ok(next) => next,
                        Err(at_ps) => return Some(SimTime(at_ps)),
                    },
                    None => k.queue.pop(),
                };
                match next {
                    Some((at_ps, payload)) => {
                        let at = SimTime(at_ps);
                        debug_assert!(at >= k.now, "event time went backwards");
                        // Occupancy at dispatch is the pre-pop depth;
                        // the advance is how far the clock jumps.
                        let sample =
                            prof.map(|_| (k.queue.len() as u64 + 1, at_ps - k.now.as_ps()));
                        k.now = at;
                        k.events_processed += 1;
                        k.flight.record(at_ps, &payload);
                        let tag = payload.tag();
                        let action = match payload {
                            EventPayload::Poll(id) => match Sim::take_for_poll(&mut k, id) {
                                Some((fut, w, prev)) => Action::Poll(id, fut, w, prev),
                                // Stale (recycled slot) or already
                                // completed: nothing to do.
                                None => Action::Skip,
                            },
                            EventPayload::Call(i) => Action::Call(k.take_call(i)),
                        };
                        (action, tag, sample)
                    }
                    None => return None,
                }
            };
            match action {
                Action::Poll(id, fut, w, prev) => self.poll_taken(id, fut, w, prev),
                Action::Call(slot) => slot.run(self),
                Action::Skip => {}
            }
            if let (Some(p), Some(m), Some((occupancy, adv_ps))) =
                (prof, mark.as_mut(), prof_sample)
            {
                let now = Instant::now();
                p.event(tag, adv_ps, occupancy, now.duration_since(*m));
                *m = now;
            }
        }
    }

    /// Drive the simulation until every spawned task has completed.
    ///
    /// Returns the final simulated time, or [`SimError::Deadlock`] if
    /// events ran dry with tasks still suspended.
    pub fn run(&self) -> Result<SimTime, SimError> {
        let leftover = self.run_events(None);
        debug_assert!(leftover.is_none());
        let result = self.finish_run();
        self.publish_counters();
        result
    }

    /// Drive the simulation to completion like [`Sim::run`], but under
    /// a simulated-time watchdog: if events are still pending once the
    /// clock would cross `budget`, stop and return a typed
    /// [`SimError::ScenarioTimeout`] (kernel snapshot and flight-ring
    /// tail attached) instead of spinning forever or requiring an
    /// external process kill. A run that drains its events within the
    /// budget behaves exactly as `run()` — including deadlock
    /// detection — so a generous budget is free.
    pub fn run_until_budget(&self, budget: SimTime) -> Result<SimTime, SimError> {
        let leftover = self.run_events(Some(budget));
        let result = match leftover {
            Some(next) => Err(SimError::ScenarioTimeout {
                budget,
                next,
                diag: self.diag_snapshot(),
            }),
            None => self.finish_run(),
        };
        self.publish_counters();
        result
    }

    /// Kernel snapshot for an error report: scheduler queue depths and
    /// the flight-recorder tail, built unconditionally — an *untraced*
    /// failure is still diagnosable. Trace counters ride along when
    /// the tracer happens to be on.
    fn diag_snapshot(&self) -> DeadlockDiag {
        let k = self.k.borrow();
        DeadlockDiag {
            pending_events: k.queue.len(),
            wake_queue: self.wakes.state.lock().unwrap().ready.len(),
            live_tasks: k.live_tasks,
            events_processed: k.events_processed,
            counters: self
                .tr
                .as_ref()
                .map(|tr| tr.counter_digest(6))
                .unwrap_or_default(),
            flight: k.flight.tail(),
        }
    }

    /// Completion / deadlock verdict once the event queue has drained.
    fn finish_run(&self) -> Result<SimTime, SimError> {
        let now = {
            let k = self.k.borrow();
            if k.live_tasks > 0 {
                let stuck: Vec<StuckTask> = k
                    .hot
                    .iter()
                    .zip(&k.cold)
                    .filter(|(h, _)| h.live)
                    .map(|(_, c)| StuckTask {
                        name: k.names.get(c.name).to_string(),
                        since: c.last_suspend,
                    })
                    .collect();
                drop(k);
                let diag = self.diag_snapshot();
                return Err(SimError::Deadlock { stuck, diag });
            }
            k.now
        };
        Ok(now)
    }

    /// Publish this run's event count to the per-thread counter the
    /// sweep engine reads (delta-based: run() may be called again).
    fn publish_counters(&self) {
        let mut k = self.k.borrow_mut();
        let delta = k.events_processed - k.events_reported;
        k.events_reported = k.events_processed;
        let cascades = k.queue.cascades() - k.cascades_reported;
        k.cascades_reported = k.queue.cascades();
        let (total_cascades, high_water) = (k.queue.cascades(), k.queue.high_water() as u64);
        THREAD_EVENTS.with(|c| c.set(c.get() + delta));
        drop(k);
        if let Some(tr) = &self.tr {
            tr.add("sim.events", delta);
            tr.add("wheel.cascades", cascades);
        }
        if let Some(p) = &self.prof {
            p.note_wheel(total_cascades, high_water);
        }
    }

    /// Extract a live task's future and waker for polling and mark it
    /// current (so a [`Delay`] created inside can register direct
    /// timer dispatch). Returns `None` for a stale generation or an
    /// already-completed / already-being-polled target.
    #[inline]
    fn take_for_poll(k: &mut Kernel, id: TaskId) -> Option<(BoxFuture, Waker, Option<TaskId>)> {
        let i = id.idx as usize;
        let slot = &mut k.hot[i];
        if slot.gen != id.gen {
            // Stale wake for a recycled slot: the task it meant is
            // long gone.
            return None;
        }
        // `None` here: already completed, or currently being polled
        // higher up the stack (a spurious duplicate wake) — ignore.
        let fut = slot.fut.take()?;
        // The waker travels by value — moved out for the poll, moved
        // back on suspend — so the poll path performs no refcount
        // traffic at all.
        let waker = k.wakers[i].waker.take().expect("live task has a waker");
        let prev = k.current.replace(id);
        Some((fut, waker, prev))
    }

    fn poll_task(&self, id: TaskId) {
        let taken = Sim::take_for_poll(&mut self.k.borrow_mut(), id);
        if let Some((fut, waker, prev)) = taken {
            self.poll_taken(id, fut, waker, prev);
        }
    }

    /// Poll an extracted future and write the outcome back into the
    /// slab: completion recycles the slot (generation bump invalidates
    /// in-flight wakes; the waker's arc is parked for reuse by the
    /// next spawn), suspension returns future and waker to their
    /// arrays.
    fn poll_taken(
        &self,
        id: TaskId,
        mut fut: BoxFuture,
        waker: Waker,
        prev_current: Option<TaskId>,
    ) {
        let mut cx = Context::from_waker(&waker);
        match fut.poll(&mut cx) {
            Poll::Ready(()) => {
                let mut k = self.k.borrow_mut();
                k.current = prev_current;
                let now = k.now;
                let i = id.idx as usize;
                // Capture the lifetime span before the slot is wiped —
                // only when events are actually being recorded (the
                // name copy is the lone tracing cost on this path).
                let name_ref = k.cold[i].name;
                let slot = &mut k.hot[i];
                slot.live = false;
                // Invalidate in-flight wakes and recycle the slot. The
                // polled waker is dropped here (it never went back into
                // the slab); the backing arc stays parked in
                // `wakers[i].arc` for the next spawn to recycle.
                slot.gen = slot.gen.wrapping_add(1);
                k.cold[i].name = NameRef::default();
                let span = match &self.tr {
                    Some(tr) if tr.events_on() => {
                        Some((k.names.get(name_ref).to_string(), k.cold[i].spawned_at))
                    }
                    _ => None,
                };
                k.live_tasks -= 1;
                k.free.push(id.idx);
                if k.live_tasks == 0 {
                    // No live slot can reference a name span any more:
                    // reclaim the arena for the next task generation.
                    k.names.reset();
                }
                drop(k);
                if let Some(tr) = &self.tr {
                    tr.add("sim.tasks_completed", 1);
                    if let Some((name, spawned_at)) = span {
                        tr.span("task", name, spawned_at.as_ps(), now.as_ps(), id.idx, 0);
                    }
                }
            }
            Poll::Pending => {
                let mut k = self.k.borrow_mut();
                k.current = prev_current;
                let now = k.now;
                let i = id.idx as usize;
                k.hot[i].fut = Some(fut);
                k.wakers[i].waker = Some(waker);
                k.cold[i].last_suspend = now;
            }
        }
    }
}

/// Drops a panicking run's parked futures and calls. Live tasks hold
/// `Sim` clones, so without this the kernel's `Rc` cycle outlives the
/// caught panic and leaks the whole simulation. A run that panicked
/// cannot be resumed.
struct UnwindGuard<'a>(&'a Sim);

impl Drop for UnwindGuard<'_> {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            return;
        }
        let Ok(mut k) = self.0.k.try_borrow_mut() else {
            return;
        };
        let futs: Vec<BoxFuture> = k.hot.iter_mut().filter_map(|h| h.fut.take()).collect();
        let calls = std::mem::take(&mut k.calls);
        // Their destructors may touch the kernel: release it first.
        drop(k);
        drop(futs);
        drop(calls);
    }
}

/// What one popped event resolved to under the dispatch borrow; the
/// borrow is released before the action runs (the action re-enters
/// the kernel freely).
enum Action {
    Poll(TaskId, BoxFuture, Waker, Option<TaskId>),
    Call(CallSlot),
    Skip,
}

impl Kernel {
    fn push(&mut self, at: SimTime, payload: EventPayload) {
        self.queue.push(at.as_ps(), payload);
    }

    /// Park a closure in the call slab and schedule the slot index.
    /// Small captures go into the slot's inline arena (no allocation);
    /// oversized or over-aligned ones are boxed.
    fn push_call<F: FnOnce(&Sim) + 'static>(&mut self, at: SimTime, f: F) {
        let slot = if std::mem::size_of::<F>() <= CALL_INLINE_BYTES
            && std::mem::align_of::<F>() <= std::mem::align_of::<u64>()
        {
            /// Move the capture out of the slot and run it.
            unsafe fn invoke<F: FnOnce(&Sim)>(p: *mut u8, sim: &Sim) {
                let f = unsafe { (p as *mut F).read() };
                f(sim)
            }
            /// Drop the capture in place (kernel teardown only).
            unsafe fn drop_call<F>(p: *mut u8) {
                unsafe { std::ptr::drop_in_place(p as *mut F) }
            }
            let mut ic = InlineCall {
                data: [MaybeUninit::uninit(); CALL_INLINE_WORDS],
                invoke: invoke::<F>,
                drop_in_place: drop_call::<F>,
            };
            unsafe { (ic.data.as_mut_ptr() as *mut F).write(f) };
            CallSlot::Inline(ic)
        } else {
            CallSlot::Boxed(Box::new(f))
        };
        let idx = match self.call_free.pop() {
            Some(i) => {
                self.calls[i as usize] = slot;
                i
            }
            None => {
                self.calls.push(slot);
                (self.calls.len() - 1) as u32
            }
        };
        self.push(at, EventPayload::Call(idx));
    }

    /// Remove a parked call from the slab for dispatch, recycling its
    /// slot.
    fn take_call(&mut self, i: u32) -> CallSlot {
        let slot = std::mem::replace(&mut self.calls[i as usize], CallSlot::Vacant);
        debug_assert!(!matches!(slot, CallSlot::Vacant), "call slot occupied");
        self.call_free.push(i);
        slot
    }
}

/// Future returned by [`Sim::sleep`] / [`Sim::sleep_until`].
pub struct Delay {
    sim: Sim,
    deadline: Option<SimTime>,
    dur: Dur,
}

impl Future for Delay {
    type Output = ();
    fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
        let this = self.get_mut();
        match this.deadline {
            None => {
                if this.dur.is_zero() {
                    return Poll::Ready(());
                }
                // The expiry event polls the current task directly.
                this.deadline = Some(this.sim.schedule_timer_direct(this.dur));
                Poll::Pending
            }
            Some(d) => {
                if this.sim.now() >= d {
                    Poll::Ready(())
                } else {
                    // Spurious poll before the timer fired; the timer
                    // event will poll this task again, so just wait.
                    Poll::Pending
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn empty_sim_runs_to_zero() {
        let sim = Sim::new(1);
        assert_eq!(sim.run().unwrap(), SimTime::ZERO);
    }

    #[test]
    fn sleep_advances_clock() {
        let sim = Sim::new(1);
        let end = Rc::new(Cell::new(SimTime::ZERO));
        let e = end.clone();
        let s = sim.clone();
        sim.spawn("sleeper", async move {
            s.sleep(Dur::from_us(10)).await;
            s.sleep(Dur::from_us(5)).await;
            e.set(s.now());
        });
        sim.run().unwrap();
        assert_eq!(end.get(), SimTime::ZERO + Dur::from_us(15));
    }

    #[test]
    fn simultaneous_events_fire_in_schedule_order() {
        let sim = Sim::new(1);
        let order = Rc::new(RefCell::new(Vec::new()));
        for i in 0..5 {
            let o = order.clone();
            let s = sim.clone();
            sim.spawn(format!("t{i}"), async move {
                s.sleep(Dur::from_us(1)).await;
                o.borrow_mut().push(i);
            });
        }
        sim.run().unwrap();
        assert_eq!(*order.borrow(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn call_in_runs_at_right_time() {
        let sim = Sim::new(1);
        let seen = Rc::new(Cell::new(0u64));
        let s2 = seen.clone();
        sim.call_in(Dur::from_ms(2), move |sim| {
            assert_eq!(sim.now(), SimTime::ZERO + Dur::from_ms(2));
            s2.set(7);
        });
        sim.run().unwrap();
        assert_eq!(seen.get(), 7);
    }

    #[test]
    fn zero_duration_sleep_is_immediate() {
        let sim = Sim::new(1);
        let s = sim.clone();
        sim.spawn("z", async move {
            s.sleep(Dur::ZERO).await;
            assert_eq!(s.now(), SimTime::ZERO);
        });
        sim.run().unwrap();
    }

    #[test]
    fn deterministic_event_counts() {
        fn run_once(seed: u64) -> (SimTime, u64, u64) {
            let sim = Sim::new(seed);
            let checksum = Rc::new(Cell::new(0u64));
            for i in 0..20u64 {
                let s = sim.clone();
                let ck = checksum.clone();
                sim.spawn(format!("t{i}"), async move {
                    let jitter = 1 + (i * 37 + 11) % 99;
                    ck.set(ck.get().wrapping_mul(31).wrapping_add(jitter));
                    s.sleep(Dur::from_ns(jitter)).await;
                    s.sleep(Dur::from_ns(jitter * 3)).await;
                });
            }
            let t = sim.run().unwrap();
            (t, sim.events_processed(), checksum.get())
        }
        assert_eq!(run_once(42), run_once(42));
        // The seed only keys the trace sinks: it changes nothing
        // simulated.
        assert_eq!(run_once(42), run_once(43));
    }

    #[test]
    fn nested_spawn_completes() {
        let sim = Sim::new(1);
        let s = sim.clone();
        let done = Rc::new(Cell::new(false));
        let d = done.clone();
        sim.spawn("outer", async move {
            s.sleep(Dur::from_us(1)).await;
            let s2 = s.clone();
            s.spawn("inner", async move {
                s2.sleep(Dur::from_us(1)).await;
                d.set(true);
            });
        });
        sim.run().unwrap();
        assert!(done.get());
    }

    #[test]
    fn deadlock_is_reported_with_task_name_and_time() {
        let sim = Sim::new(1);
        let s = sim.clone();
        sim.spawn("stuck-task", async move {
            s.sleep(Dur::from_us(3)).await;
            std::future::pending::<()>().await;
        });
        match sim.run() {
            Err(SimError::Deadlock { stuck, diag }) => {
                assert_eq!(stuck.len(), 1);
                assert_eq!(stuck[0].name, "stuck-task");
                assert_eq!(stuck[0].since, SimTime::ZERO + Dur::from_us(3));
                // Untraced runs still ship kernel diagnostics and a
                // non-empty flight-recorder tail.
                assert!(diag.counters.is_empty(), "no trace counters untraced");
                assert!(!diag.flight.is_empty(), "flight tail present untraced");
                assert!(diag.events_processed > 0);
                let msg = format!("{}", SimError::Deadlock { stuck, diag });
                assert!(msg.contains("stuck-task"), "{msg}");
                assert!(msg.contains("suspended at"), "{msg}");
                assert!(msg.contains("flight tail"), "{msg}");
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn deadlock_report_includes_tracer_diagnostics() {
        let sim = Sim::with_tracer(1, elanib_trace::Tracer::forced(1));
        let s = sim.clone();
        sim.spawn("hung", async move {
            s.sleep(Dur::from_us(2)).await;
            std::future::pending::<()>().await;
        });
        let err = sim.run().unwrap_err();
        let SimError::Deadlock { diag: d, .. } = &err else {
            panic!("expected deadlock, got {err:?}");
        };
        assert_eq!(d.pending_events, 0, "natural deadlock drains the heap");
        assert_eq!(d.wake_queue, 0);
        assert_eq!(d.live_tasks, 1);
        assert!(d.events_processed > 0);
        assert!(d.counters.contains("sim.tasks_spawned=1"), "{}", d.counters);
        let msg = format!("{err}");
        assert!(msg.contains("pending_events=0"), "{msg}");
        assert!(msg.contains("wake_queue=0"), "{msg}");
    }

    #[test]
    fn budget_run_completes_like_plain_run_when_under_budget() {
        let mk = || {
            let sim = Sim::new(11);
            let s = sim.clone();
            sim.spawn("quick", async move {
                for _ in 0..5 {
                    s.sleep(Dur::from_us(3)).await;
                }
            });
            sim
        };
        let plain = mk().run().unwrap();
        let budgeted = mk()
            .run_until_budget(SimTime::ZERO + Dur::from_ms(1))
            .unwrap();
        assert_eq!(plain, budgeted);
    }

    #[test]
    fn budget_run_reports_typed_timeout_with_diagnostics() {
        let sim = Sim::new(12);
        let s = sim.clone();
        sim.spawn("endless-ticker", async move {
            loop {
                s.sleep(Dur::from_us(1)).await;
            }
        });
        let err = sim.run_until_budget(SimTime::ZERO + Dur::from_us(50));
        match err {
            Err(SimError::ScenarioTimeout { budget, next, diag }) => {
                assert_eq!(budget, SimTime::ZERO + Dur::from_us(50));
                assert!(next >= budget, "next pending event is at/past budget");
                assert!(diag.pending_events > 0, "the run is live, not deadlocked");
                assert!(!diag.flight.is_empty(), "flight tail attached");
                let msg = format!("{}", SimError::ScenarioTimeout { budget, next, diag });
                assert!(msg.contains("scenario timeout"), "{msg}");
                assert!(msg.contains("flight tail"), "{msg}");
            }
            other => panic!("expected scenario timeout, got {other:?}"),
        }
    }

    #[test]
    fn budget_run_still_detects_deadlock_within_budget() {
        let sim = Sim::new(13);
        let s = sim.clone();
        sim.spawn("hangs-early", async move {
            s.sleep(Dur::from_us(2)).await;
            std::future::pending::<()>().await;
        });
        match sim.run_until_budget(SimTime::ZERO + Dur::from_ms(10)) {
            Err(SimError::Deadlock { stuck, .. }) => {
                assert_eq!(stuck[0].name, "hangs-early");
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn flight_recorder_keeps_last_events_in_dispatch_order() {
        let sim = Sim::new(7);
        let s = sim.clone();
        // Well past FLIGHT_LEN dispatched events so the ring wraps.
        sim.spawn("looper", async move {
            for _ in 0..(FLIGHT_LEN * 3) {
                s.sleep(Dur::from_ns(10)).await;
            }
        });
        sim.run().unwrap();
        let tail = sim.flight_tail();
        assert_eq!(tail.len(), FLIGHT_LEN, "ring caps at FLIGHT_LEN");
        for w in tail.windows(2) {
            assert!(w[0].at_ps <= w[1].at_ps, "tail is in dispatch order");
        }
        // The final entry is the most recent dispatch.
        assert_eq!(tail.last().unwrap().at_ps, sim.now().as_ps());
        // Determinism: an identical run produces an identical tail.
        let sim2 = Sim::new(7);
        let s2 = sim2.clone();
        sim2.spawn("looper", async move {
            for _ in 0..(FLIGHT_LEN * 3) {
                s2.sleep(Dur::from_ns(10)).await;
            }
        });
        sim2.run().unwrap();
        assert_eq!(tail, sim2.flight_tail());
    }

    #[test]
    fn profiler_attributes_events_and_is_deterministic() {
        let run = || {
            let prof = KernelProfiler::forced();
            let sim = Sim::with_profiler(11, prof.clone());
            let s = sim.clone();
            sim.spawn("worker", async move {
                for i in 0..40u64 {
                    s.sleep(Dur::from_ns(100 + i)).await;
                }
            });
            sim.call_in(Dur::from_us(1), |_| {});
            sim.run().unwrap();
            let snap = prof.snapshot();
            (sim.events_processed(), snap)
        };
        let (events, snap) = run();
        assert_eq!(snap.events(), events, "every dispatch is counted");
        assert!(snap.det.count[0] > 0, "poll events attributed");
        assert!(snap.det.count[2] > 0, "call events attributed");
        // Simulated-time histograms are functions of the event
        // schedule only — byte-identical across runs.
        let (_, snap2) = run();
        assert_eq!(snap.det.to_json(), snap2.det.to_json());
    }

    #[test]
    fn tracer_records_task_lifecycle() {
        let tr = elanib_trace::Tracer::forced(9);
        let sim = Sim::with_tracer(9, tr.clone());
        // Two timers 1 ns apart at 4 µs out: they share a coarse wheel
        // bucket, so dispatching them forces a real (multi-entry)
        // cascade — singleton buckets short-circuit without cascading.
        for d in [Dur::from_us(4), Dur::from_ns(4001)] {
            let s = sim.clone();
            sim.spawn("worker", async move {
                s.sleep(d).await;
            });
        }
        sim.run().unwrap();
        assert_eq!(tr.counter("sim.tasks_spawned"), 2);
        assert_eq!(tr.counter("sim.tasks_completed"), 2);
        assert!(tr.counter("sim.timers") >= 2);
        assert!(tr.counter("sim.events") > 0);
        assert!(tr.counter("wheel.cascades") >= 2);
        // One task-lifetime span per task was recorded.
        assert_eq!(tr.event_count(), 2);
    }

    #[test]
    fn slab_recycles_slots_from_sequential_tasks() {
        // 1000 tasks that run strictly one after another reuse a
        // handful of slots instead of growing the slab without bound.
        let sim = Sim::new(1);
        let root = sim.clone();
        sim.spawn("root", async move {
            for i in 0..1000u32 {
                let s = root.clone();
                let flag = crate::sync::Flag::new();
                let f2 = flag.clone();
                root.spawn(format!("w{i}"), async move {
                    s.sleep(Dur::from_ns(5)).await;
                    f2.set();
                });
                flag.wait().await;
            }
        });
        sim.run().unwrap();
        assert!(
            sim.slab_capacity() <= 4,
            "slab grew to {} slots for sequential tasks",
            sim.slab_capacity()
        );
        assert_eq!(sim.live_tasks(), 0);
    }

    #[test]
    fn stale_wake_for_recycled_slot_is_ignored() {
        // Task A sleeps; we capture its waker via a flag trick, let A
        // finish, spawn B into the recycled slot, then fire A's stale
        // waker: B must not be disturbed (and nothing must panic).
        use crate::sync::Flag;
        let sim = Sim::new(1);
        let polls_b = Rc::new(Cell::new(0u32));

        let a_id = {
            let s = sim.clone();
            sim.spawn("a", async move {
                s.sleep(Dur::from_ns(1)).await;
            })
        };
        sim.run().unwrap();

        let pb = polls_b.clone();
        let gate = Flag::new();
        let g2 = gate.clone();
        let b_id = sim.spawn("b", async move {
            pb.set(pb.get() + 1);
            g2.wait().await;
        });
        // Slot was recycled: same index, different generation.
        assert_eq!(format!("{a_id}"), "t0.0");
        assert_eq!(format!("{b_id}"), "t0.1");
        gate.set();
        sim.run().unwrap();
        assert_eq!(polls_b.get(), 1);
    }

    #[test]
    fn wake_dedup_survives_generation_wraparound() {
        // Regression: with u32 marks, a slot whose generation reached
        // u32::MAX produced mark `gen + 1 == 0` — the not-queued
        // sentinel — so its first wake looked already-queued and was
        // silently dropped (a lost wakeup). The u64 marks can't wrap.
        use std::task::Wake;
        let queue = Arc::new(WakeQueue::default());
        let waker = Arc::new(TaskWaker::new(
            queue.clone(),
            TaskId {
                idx: 0,
                gen: u32::MAX,
            },
        ));
        waker.wake_by_ref();
        assert_eq!(
            queue.state.lock().unwrap().ready.len(),
            1,
            "first wake at gen == u32::MAX must enqueue"
        );
        // A duplicate wake before the drain still dedups.
        waker.wake_by_ref();
        assert_eq!(queue.state.lock().unwrap().ready.len(), 1);
        // And a wake for a different generation of the same slot is
        // not confused with it.
        let other = Arc::new(TaskWaker::new(queue.clone(), TaskId { idx: 0, gen: 0 }));
        other.wake_by_ref();
        assert_eq!(queue.state.lock().unwrap().ready.len(), 2);
    }

    #[test]
    fn duplicate_wakes_at_same_instant_poll_once() {
        // A task woken by several flags set at the same instant is
        // polled once per drain, not once per wake.
        use crate::sync::Flag;
        let sim = Sim::new(1);
        let polls = Rc::new(Cell::new(0u32));
        let flags: Vec<Flag> = (0..4).map(|_| Flag::new()).collect();

        let p = polls.clone();
        let fs = flags.clone();
        let s = sim.clone();
        sim.spawn("multi-wait", async move {
            // Register with every flag by polling a future that waits
            // on all of them at once; each pending flag stores our
            // waker, so setting all four fires four wakes.
            struct WaitAll {
                waits: Vec<crate::sync::FlagWait>,
                polls: Rc<Cell<u32>>,
            }
            impl Future for WaitAll {
                type Output = ();
                fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
                    let this = self.get_mut();
                    this.polls.set(this.polls.get() + 1);
                    let mut all = true;
                    for w in &mut this.waits {
                        if Pin::new(w).poll(cx).is_pending() {
                            all = false;
                        }
                    }
                    if all {
                        Poll::Ready(())
                    } else {
                        Poll::Pending
                    }
                }
            }
            s.sleep(Dur::from_ns(1)).await;
            WaitAll {
                waits: fs.iter().map(|f| f.wait()).collect(),
                polls: p,
            }
            .await;
        });

        let s2 = sim.clone();
        sim.spawn("setter", async move {
            s2.sleep(Dur::from_ns(10)).await;
            // All four wakes land at the same instant.
            for f in &flags {
                f.set();
            }
        });
        sim.run().unwrap();
        // Initial poll (registers) + exactly one poll after the batch
        // of four simultaneous wakes.
        assert_eq!(polls.get(), 2, "dedup must collapse simultaneous wakes");
    }

    #[test]
    fn panicking_run_drops_its_simulation() {
        // A sibling's panic must not leave the sleeper's future, and the
        // `Sim` clone inside it, parked in an unreachable kernel.
        let sim = Sim::new(1);
        let sentinel = Rc::new(());
        let weak = Rc::downgrade(&sentinel);
        let s = sim.clone();
        sim.spawn("sleeper", async move {
            let _held = sentinel;
            s.sleep(Dur::from_ms(1)).await;
        });
        let s = sim.clone();
        sim.spawn("panicker", async move {
            s.sleep(Dur::from_us(1)).await;
            panic!("model fault");
        });
        sim.call_in(Dur::from_ms(2), |_| {});
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sim.run()));
        assert!(caught.is_err());
        drop(sim);
        assert!(weak.upgrade().is_none(), "panicked simulation leaked");
    }

    #[test]
    fn call_slab_recycles_slots() {
        // A long chain of strictly sequential call events reuses one
        // slab slot instead of growing a box per call.
        let sim = Sim::new(1);
        fn chain(sim: &Sim, left: u32, hits: Rc<Cell<u32>>) {
            if left == 0 {
                return;
            }
            sim.call_in(Dur::from_ns(5), move |s| {
                hits.set(hits.get() + 1);
                chain(s, left - 1, hits);
            });
        }
        let hits = Rc::new(Cell::new(0u32));
        chain(&sim, 500, hits.clone());
        sim.run().unwrap();
        assert_eq!(hits.get(), 500);
        assert!(
            sim.k.borrow().calls.len() <= 2,
            "call slab grew to {} slots for sequential calls",
            sim.k.borrow().calls.len()
        );
    }

    #[test]
    fn name_arena_resets_after_last_task_completes() {
        let sim = Sim::new(1);
        for round in 0..3 {
            for i in 0..50u32 {
                let s = sim.clone();
                sim.spawn(format!("round{round}-worker{i}"), async move {
                    s.sleep(Dur::from_ns(i as u64)).await;
                });
            }
            sim.run().unwrap();
            assert_eq!(sim.live_tasks(), 0);
            // All tasks done: the arena must have been reclaimed.
            assert_eq!(sim.k.borrow().names.buf.len(), 0);
        }
        // Names stay resolvable while tasks are live (deadlock report).
        let s = sim.clone();
        sim.spawn("the-stuck-one", async move {
            s.sleep(Dur::from_ns(1)).await;
            std::future::pending::<()>().await;
        });
        match sim.run() {
            Err(SimError::Deadlock { stuck, .. }) => {
                assert_eq!(stuck[0].name, "the-stuck-one");
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn budget_windows_compose_to_a_full_run() {
        // Drive the same program under budgets raised 1 µs past each
        // reported next event, and in one shot; stopping at a budget and
        // resuming must not reorder anything.
        fn program(sim: &Sim, log: Rc<RefCell<Vec<u64>>>) {
            for i in 0..6u64 {
                let s = sim.clone();
                let l = log.clone();
                sim.spawn(format!("w{i}"), async move {
                    s.sleep(Dur::from_ns(700 * i)).await;
                    l.borrow_mut().push(i);
                    s.sleep(Dur::from_us(2)).await;
                    l.borrow_mut().push(10 + i);
                });
            }
        }
        let whole = {
            let sim = Sim::new(3);
            let log = Rc::new(RefCell::new(Vec::new()));
            program(&sim, log.clone());
            let end = sim.run().unwrap();
            let out = (log.borrow().clone(), sim.events_processed(), end);
            out
        };
        let windowed = {
            let sim = Sim::new(3);
            let log = Rc::new(RefCell::new(Vec::new()));
            program(&sim, log.clone());
            let mut limit = SimTime::ZERO + Dur::from_us(1);
            let mut rounds = 0;
            let end = loop {
                match sim.run_until_budget(limit) {
                    Ok(end) => break end,
                    Err(SimError::ScenarioTimeout { next, .. }) => {
                        assert!(next >= limit, "reported event precedes the limit");
                        limit = next + Dur::from_us(1);
                        rounds += 1;
                    }
                    Err(e) => panic!("unexpected error: {e}"),
                }
            };
            assert!(rounds >= 2, "expected multiple windows, got {rounds}");
            let out = (log.borrow().clone(), sim.events_processed(), end);
            out
        };
        assert_eq!(whole, windowed);
    }

    #[test]
    fn zero_budget_reports_first_event_time() {
        let sim = Sim::new(1);
        let s = sim.clone();
        sim.spawn("t", async move {
            s.sleep(Dur::from_ns(40)).await;
        });
        // Budget 0: nothing dispatches, the spawn event stays queued.
        match sim.run_until_budget(SimTime::ZERO) {
            Err(SimError::ScenarioTimeout { next, .. }) => assert_eq!(next, SimTime::ZERO),
            other => panic!("expected a timeout, got {other:?}"),
        }
        assert_eq!(sim.events_processed(), 0);
        sim.run().unwrap();
        assert_eq!(sim.now(), SimTime::ZERO + Dur::from_ns(40));
    }

    #[test]
    fn thread_events_accumulates_across_runs() {
        let before = thread_events();
        let sim = Sim::new(1);
        let s = sim.clone();
        sim.spawn("t", async move {
            for _ in 0..10 {
                s.sleep(Dur::from_ns(1)).await;
            }
        });
        sim.run().unwrap();
        let mid = thread_events();
        assert_eq!(mid - before, sim.events_processed());
        // A second run() dispatches nothing new and reports nothing new.
        sim.run().unwrap();
        assert_eq!(thread_events(), mid);
    }
}
