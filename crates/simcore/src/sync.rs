//! Synchronization primitives for simulation tasks.
//!
//! These are the building blocks every model component uses to signal
//! completions across tasks: a one-shot multi-waiter [`Flag`], an
//! unbounded FIFO [`Mailbox`], and a counted [`Semaphore`] with FIFO
//! admission.
//!
//! All of them wake waiters *at the current simulated time* (zero-delay
//! wake): any latency a model wants must be expressed explicitly with
//! [`crate::Sim::sleep`] or resource delays.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

/// One-shot event: starts unset, may be `set()` exactly once, and any
/// number of tasks can `wait()` on it (before or after the set).
///
/// Flags are the per-message completion signals of the whole model —
/// DMA done, wire done, chain predecessor done — which made `Flag::new`
/// the single largest allocation site on the hot path (several flags
/// per simulated message). The backing `Rc` allocation is therefore
/// *pooled*: dropping the last handle to a flag parks its allocation
/// in a bounded thread-local free list for the next `Flag::new` to
/// reuse. Pooling is invisible to behavior: state is reset on reuse
/// and the pool is per OS thread, so determinism is untouched.
#[derive(Clone)]
pub struct Flag {
    inner: Rc<RefCell<FlagInner>>,
}

impl Default for Flag {
    fn default() -> Flag {
        Flag::new()
    }
}

/// Max parked flag allocations per thread. Each entry is one small
/// `Rc` block (~56 B), so even at the cap the pool holds well under
/// half a megabyte per sweep worker; the cap exists only to bound
/// memory on pathological churn, not to be hit in steady state.
const FLAG_POOL_CAP: usize = 8192;

thread_local! {
    static FLAG_POOL: RefCell<Vec<Rc<RefCell<FlagInner>>>> = const { RefCell::new(Vec::new()) };
}

impl Drop for Flag {
    fn drop(&mut self) {
        // Last handle: park the allocation for reuse instead of
        // freeing it. Any never-woken waiters are dropped here, as
        // they would be by the Rc teardown this replaces.
        if Rc::strong_count(&self.inner) == 1 {
            let waiters = {
                let mut i = self.inner.borrow_mut();
                i.set = false;
                std::mem::take(&mut i.waiters)
            };
            // Dropping a waker is reentrancy-safe here (it only
            // touches the kernel wake queue's Arc), but do it outside
            // the pool borrow anyway.
            drop(waiters);
            FLAG_POOL.with(|p| {
                let mut p = p.borrow_mut();
                if p.len() < FLAG_POOL_CAP {
                    p.push(self.inner.clone());
                }
            });
        }
    }
}

#[derive(Default)]
struct FlagInner {
    set: bool,
    waiters: Waiters,
}

/// Waiter storage tuned for the overwhelmingly common shapes: most
/// flags are completion signals with exactly one waiter, so the first
/// waker lives inline and the vector (one allocation per flag) only
/// appears when a second *distinct* waiter shows up. Re-registrations
/// by the same task (spurious re-polls) replace in place via
/// [`Waker::will_wake`] instead of stacking duplicates.
#[derive(Default)]
enum Waiters {
    #[default]
    None,
    One(Waker),
    Many(Vec<Waker>),
}

impl Waiters {
    fn push(&mut self, w: Waker) {
        match self {
            Waiters::None => *self = Waiters::One(w),
            Waiters::One(first) => {
                if first.will_wake(&w) {
                    *first = w; // same task re-registering
                } else {
                    let Waiters::One(first) = std::mem::take(self) else {
                        unreachable!()
                    };
                    *self = Waiters::Many(vec![first, w]);
                }
            }
            Waiters::Many(v) => {
                if let Some(last) = v.last_mut() {
                    if last.will_wake(&w) {
                        *last = w;
                        return;
                    }
                }
                v.push(w);
            }
        }
    }

    /// Wake every registered waiter, in registration order.
    fn wake_all(self) {
        match self {
            Waiters::None => {}
            Waiters::One(w) => w.wake(),
            Waiters::Many(v) => {
                for w in v {
                    w.wake();
                }
            }
        }
    }
}

impl Flag {
    pub fn new() -> Flag {
        // Reuse a parked allocation when one is available; parked
        // inners were reset (unset, no waiters) on the way in.
        match FLAG_POOL.with(|p| p.borrow_mut().pop()) {
            Some(inner) => Flag { inner },
            None => Flag {
                inner: Rc::new(RefCell::new(FlagInner::default())),
            },
        }
    }

    pub fn is_set(&self) -> bool {
        self.inner.borrow().set
    }

    /// Set the flag and wake all waiters. Idempotent.
    pub fn set(&self) {
        let waiters = {
            let mut i = self.inner.borrow_mut();
            if i.set {
                return;
            }
            i.set = true;
            std::mem::take(&mut i.waiters)
        };
        waiters.wake_all();
    }

    /// Future resolving once the flag is set.
    pub fn wait(&self) -> FlagWait {
        FlagWait { flag: self.clone() }
    }
}

pub struct FlagWait {
    flag: Flag,
}

impl Future for FlagWait {
    type Output = ();
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let mut i = self.flag.inner.borrow_mut();
        if i.set {
            Poll::Ready(())
        } else {
            // Re-registering on every poll is fine: dead wakers are
            // cheap and a flag is set at most once.
            i.waiters.push(cx.waker().clone());
            Poll::Pending
        }
    }
}

/// Unbounded multi-producer FIFO queue with asynchronous consumption.
///
/// Used as the inbox of every active model component (NIC engines,
/// progress engines, switch arbiters).
pub struct Mailbox<T> {
    inner: Rc<RefCell<MailboxInner<T>>>,
}

impl<T> Clone for Mailbox<T> {
    fn clone(&self) -> Self {
        Mailbox {
            inner: self.inner.clone(),
        }
    }
}

struct MailboxInner<T> {
    queue: VecDeque<T>,
    waiters: VecDeque<Waker>,
}

impl<T> Default for Mailbox<T> {
    fn default() -> Self {
        Mailbox {
            inner: Rc::new(RefCell::new(MailboxInner {
                queue: VecDeque::new(),
                waiters: VecDeque::new(),
            })),
        }
    }
}

impl<T> Mailbox<T> {
    pub fn new() -> Mailbox<T> {
        Mailbox::default()
    }

    /// Append an item and wake one waiting consumer, if any.
    pub fn push(&self, item: T) {
        let waker = {
            let mut i = self.inner.borrow_mut();
            i.queue.push_back(item);
            i.waiters.pop_front()
        };
        if let Some(w) = waker {
            w.wake();
        }
    }

    pub fn try_recv(&self) -> Option<T> {
        self.inner.borrow_mut().queue.pop_front()
    }

    pub fn len(&self) -> usize {
        self.inner.borrow().queue.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Future resolving to the next item, in FIFO order.
    pub fn recv(&self) -> MailboxRecv<T> {
        MailboxRecv {
            mb: self.clone(),
            registered: false,
        }
    }
}

pub struct MailboxRecv<T> {
    mb: Mailbox<T>,
    registered: bool,
}

impl<T> Future for MailboxRecv<T> {
    type Output = T;
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<T> {
        let this = self.get_mut();
        let mut i = this.mb.inner.borrow_mut();
        if let Some(item) = i.queue.pop_front() {
            Poll::Ready(item)
        } else {
            // A consumer may be polled spuriously; avoid stacking
            // duplicate wakers for the same pending recv.
            if !this.registered {
                this.registered = true;
            } else {
                // Replace any stale waker registered by this future.
                // With a single consumer per mailbox (the common case)
                // the queue holds at most one waker.
            }
            i.waiters.push_back(cx.waker().clone());
            Poll::Pending
        }
    }
}

/// Which side of a [`race2`] finished first.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Race2<A, B> {
    First(A),
    Second(B),
}

/// Await whichever of two futures completes first, with a fixed,
/// deterministic priority: `a` is polled before `b` on every wake, so
/// when both are ready at the same simulated instant `a` wins.
///
/// This is the kernel-level building block for timeout timers (work vs.
/// deadline) and shutdown races (inbox vs. done-flag) — anywhere a task
/// must wait on two conditions without a tie-break dependent on wake
/// order.
pub async fn race2<A, B>(a: impl Future<Output = A>, b: impl Future<Output = B>) -> Race2<A, B> {
    // Stack-pinned inside the enclosing task's state machine: a race
    // costs zero allocations, where it used to box both sides (the
    // single hottest allocation site in the MPI progress loop, which
    // races inbox-recv against done/error flags on every blocking
    // iteration). Poll order is unchanged: `a` strictly before `b`.
    let mut a = std::pin::pin!(a);
    let mut b = std::pin::pin!(b);
    std::future::poll_fn(move |cx| {
        if let Poll::Ready(v) = a.as_mut().poll(cx) {
            return Poll::Ready(Race2::First(v));
        }
        if let Poll::Ready(v) = b.as_mut().poll(cx) {
            return Poll::Ready(Race2::Second(v));
        }
        Poll::Pending
    })
    .await
}

/// Counted semaphore with strict FIFO admission. Used to model finite
/// hardware resources (send-queue slots, credits) where ordering
/// fairness matters for determinism.
#[derive(Clone)]
pub struct Semaphore {
    inner: Rc<RefCell<SemInner>>,
}

struct SemInner {
    available: usize,
    waiters: VecDeque<Flag>,
}

impl Semaphore {
    pub fn new(permits: usize) -> Semaphore {
        Semaphore {
            inner: Rc::new(RefCell::new(SemInner {
                available: permits,
                waiters: VecDeque::new(),
            })),
        }
    }

    pub fn available(&self) -> usize {
        self.inner.borrow().available
    }

    /// Acquire one permit, waiting in FIFO order. Pair each call with
    /// exactly one [`Semaphore::release`].
    pub async fn acquire(&self) {
        let flag = {
            let mut i = self.inner.borrow_mut();
            if i.available > 0 && i.waiters.is_empty() {
                i.available -= 1;
                return;
            }
            let f = Flag::new();
            i.waiters.push_back(f.clone());
            f
        };
        flag.wait().await;
        // The releaser decremented `available` on our behalf when it
        // set our flag, so nothing more to do.
    }

    /// Return one permit, handing it to the oldest waiter if any.
    pub fn release(&self) {
        let flag = {
            let mut i = self.inner.borrow_mut();
            if let Some(f) = i.waiters.pop_front() {
                Some(f)
            } else {
                i.available += 1;
                None
            }
        };
        if let Some(f) = flag {
            f.set();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::Sim;
    use crate::time::Dur;
    use std::cell::Cell;

    #[test]
    fn flag_wakes_waiter_set_after_wait() {
        let sim = Sim::new(1);
        let flag = Flag::new();
        let got = Rc::new(Cell::new(false));
        let (f1, g1, s1) = (flag.clone(), got.clone(), sim.clone());
        sim.spawn("waiter", async move {
            f1.wait().await;
            assert_eq!(s1.now().as_us_f64(), 5.0);
            g1.set(true);
        });
        let s2 = sim.clone();
        sim.spawn("setter", async move {
            s2.sleep(Dur::from_us(5)).await;
            flag.set();
        });
        sim.run().unwrap();
        assert!(got.get());
    }

    #[test]
    fn flag_set_before_wait_is_immediate() {
        let sim = Sim::new(1);
        let flag = Flag::new();
        flag.set();
        flag.set(); // idempotent
        let s = sim.clone();
        sim.spawn("w", async move {
            flag.wait().await;
            assert_eq!(s.now().as_ps(), 0);
        });
        sim.run().unwrap();
    }

    #[test]
    fn flag_wakes_multiple_waiters() {
        let sim = Sim::new(1);
        let flag = Flag::new();
        let count = Rc::new(Cell::new(0));
        for i in 0..4 {
            let (f, c) = (flag.clone(), count.clone());
            sim.spawn(format!("w{i}"), async move {
                f.wait().await;
                c.set(c.get() + 1);
            });
        }
        let s = sim.clone();
        sim.spawn("setter", async move {
            s.sleep(Dur::from_us(1)).await;
            flag.set();
        });
        sim.run().unwrap();
        assert_eq!(count.get(), 4);
    }

    #[test]
    fn mailbox_fifo_order() {
        let sim = Sim::new(1);
        let mb: Mailbox<u32> = Mailbox::new();
        let out = Rc::new(RefCell::new(Vec::new()));
        let (m, o) = (mb.clone(), out.clone());
        sim.spawn("consumer", async move {
            for _ in 0..3 {
                let v = m.recv().await;
                o.borrow_mut().push(v);
            }
        });
        let s = sim.clone();
        sim.spawn("producer", async move {
            for v in [10, 20, 30] {
                s.sleep(Dur::from_us(1)).await;
                mb.push(v);
            }
        });
        sim.run().unwrap();
        assert_eq!(*out.borrow(), vec![10, 20, 30]);
    }

    #[test]
    fn mailbox_buffered_items_consumed_without_blocking() {
        let sim = Sim::new(1);
        let mb: Mailbox<u32> = Mailbox::new();
        mb.push(1);
        mb.push(2);
        assert_eq!(mb.len(), 2);
        let m = mb.clone();
        sim.spawn("c", async move {
            assert_eq!(m.recv().await, 1);
            assert_eq!(m.try_recv(), Some(2));
            assert!(m.try_recv().is_none());
        });
        sim.run().unwrap();
    }

    #[test]
    fn race2_first_side_wins_ties() {
        let sim = Sim::new(1);
        let (fa, fb) = (Flag::new(), Flag::new());
        fa.set();
        fb.set();
        let done = Rc::new(Cell::new(false));
        let d = done.clone();
        sim.spawn("racer", async move {
            match race2(fa.wait(), fb.wait()).await {
                Race2::First(()) => d.set(true),
                Race2::Second(()) => panic!("first-ready side must win the tie"),
            }
        });
        sim.run().unwrap();
        assert!(done.get());
    }

    #[test]
    fn race2_resolves_to_earlier_event() {
        let sim = Sim::new(1);
        let mb: Mailbox<u32> = Mailbox::new();
        let stop = Flag::new();
        let winner = Rc::new(Cell::new(0u32));
        let (m, st, w) = (mb.clone(), stop.clone(), winner.clone());
        sim.spawn("racer", async move {
            match race2(m.recv(), st.wait()).await {
                Race2::First(v) => w.set(v),
                Race2::Second(()) => w.set(99),
            }
        });
        let s = sim.clone();
        sim.spawn("driver", async move {
            s.sleep(Dur::from_us(1)).await;
            mb.push(7);
            s.sleep(Dur::from_us(1)).await;
            stop.set();
        });
        sim.run().unwrap();
        assert_eq!(winner.get(), 7);
    }

    #[test]
    fn semaphore_limits_concurrency_fifo() {
        let sim = Sim::new(1);
        let sem = Semaphore::new(2);
        let active = Rc::new(Cell::new(0u32));
        let peak = Rc::new(Cell::new(0u32));
        let order = Rc::new(RefCell::new(Vec::new()));
        for i in 0..6 {
            let (sm, a, p, o, s) = (
                sem.clone(),
                active.clone(),
                peak.clone(),
                order.clone(),
                sim.clone(),
            );
            sim.spawn(format!("t{i}"), async move {
                sm.acquire().await;
                a.set(a.get() + 1);
                p.set(p.get().max(a.get()));
                o.borrow_mut().push(i);
                s.sleep(Dur::from_us(10)).await;
                a.set(a.get() - 1);
                sm.release();
            });
        }
        sim.run().unwrap();
        assert_eq!(peak.get(), 2);
        assert_eq!(*order.borrow(), vec![0, 1, 2, 3, 4, 5]);
    }
}
