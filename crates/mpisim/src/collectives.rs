//! Collective operations built over point-to-point, the way 2004-era
//! MPICH derivatives implemented them (neither stack's collectives are
//! hardware-accelerated in the paper's configurations).
//!
//! All collectives run in the reserved [`crate::CTX_COLL`] context so
//! their internal tags can never match application receives, and
//! successive collectives stay ordered by the transports'
//! non-overtaking guarantee.

use std::rc::Rc;

use crate::{empty, Communicator, Payload, RecvMsg, CTX_COLL};

/// Reduction operators supported by [`allreduce`] / [`reduce`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    Sum,
    Max,
    Min,
}

impl Op {
    fn apply(self, acc: &mut [f64], other: &[f64]) {
        assert_eq!(acc.len(), other.len(), "reduction length mismatch");
        for (a, b) in acc.iter_mut().zip(other) {
            *a = match self {
                Op::Sum => *a + *b,
                Op::Max => a.max(*b),
                Op::Min => a.min(*b),
            };
        }
    }
}

const TAG_ALLGATHER: i64 = 6_000;
const TAG_BARRIER: i64 = 1_000;
const TAG_BCAST: i64 = 2_000;
const TAG_REDUCE: i64 = 3_000;

async fn coll_send<C: Communicator>(c: &C, dst: usize, tag: i64, data: Payload, bytes: u64) {
    let r = c
        .isend_full(
            dst,
            tag,
            CTX_COLL,
            data,
            bytes,
            crate::auto_region(3, tag, bytes),
        )
        .await;
    c.wait(r).await;
}

async fn coll_recv<C: Communicator>(c: &C, src: usize, tag: i64) -> RecvMsg {
    let r = c
        .irecv_full(
            Some(src),
            Some(tag),
            CTX_COLL,
            crate::auto_region(4, tag, 0),
        )
        .await;
    c.wait(r).await.expect("collective recv yields a message")
}

/// Start of a collective phase: the entry timestamp, captured only
/// when a tracer is attached (the everyday disabled path pays one
/// `Option` check).
fn coll_start<C: Communicator>(c: &C) -> Option<elanib_simcore::SimTime> {
    let sim = c.sim();
    sim.tracer().map(|_| sim.now())
}

/// End of a collective phase: count it and, when event tracing is on,
/// record the phase as a span on this rank's lane.
fn coll_end<C: Communicator>(c: &C, name: &'static str, t0: Option<elanib_simcore::SimTime>) {
    let Some(t0) = t0 else { return };
    let sim = c.sim();
    if let Some(tr) = sim.tracer() {
        tr.add("coll.count", 1);
        tr.span(
            "coll",
            name,
            t0.as_ps(),
            sim.now().as_ps(),
            c.rank() as u32,
            c.size() as i64,
        );
    }
}

/// Barrier: uses the transport's hardware barrier when available
/// (QsNet's barrier network — constant time at any scale), otherwise a
/// ⌈log₂ n⌉-round software dissemination barrier.
pub async fn barrier<C: Communicator>(c: &C) {
    let n = c.size();
    if n == 1 {
        return;
    }
    let t0 = coll_start(c);
    if c.hw_barrier().await {
        coll_end(c, "barrier(hw)", t0);
        return;
    }
    let me = c.rank();
    let mut k = 0u32;
    let mut dist = 1usize;
    while dist < n {
        let to = (me + dist) % n;
        let from = (me + n - dist) % n;
        let tag = TAG_BARRIER + k as i64;
        // Post the receive before sending so simultaneous rounds can't
        // deadlock.
        let rr = c
            .irecv_full(
                Some(from),
                Some(tag),
                CTX_COLL,
                crate::auto_region(4, tag, 8),
            )
            .await;
        let sr = c
            .isend_full(to, tag, CTX_COLL, empty(), 8, crate::auto_region(3, tag, 8))
            .await;
        c.wait(rr).await;
        c.wait(sr).await;
        dist *= 2;
        k += 1;
    }
    coll_end(c, "barrier", t0);
}

/// Binomial-tree broadcast from `root`; every rank returns the payload.
pub async fn bcast<C: Communicator>(c: &C, root: usize, data: Payload, bytes: u64) -> Payload {
    let n = c.size();
    if n == 1 {
        return data;
    }
    let t0 = coll_start(c);
    // Work in a rotated space where the root is rank 0.
    let me = (c.rank() + n - root) % n;
    let mut have = if me == 0 { Some(data) } else { None };

    // Highest power of two covering n.
    let mut top = 1usize;
    while top < n {
        top *= 2;
    }
    // Receivers learn their parent from their lowest set bit.
    if me != 0 {
        let lsb = me & me.wrapping_neg();
        let parent = (me - lsb + root) % n;
        let m = coll_recv(c, parent, TAG_BCAST).await;
        have = Some(m.data);
    }
    // Forward to children: me + d for each d below my lowest set bit
    // (or below top for the root), descending.
    let data = have.expect("bcast payload");
    let limit = if me == 0 { top } else { me & me.wrapping_neg() };
    let mut d = limit / 2;
    while d >= 1 {
        let child = me + d;
        if child < n {
            coll_send(c, (child + root) % n, TAG_BCAST, data.clone(), bytes).await;
        }
        if d == 1 {
            break;
        }
        d /= 2;
    }
    coll_end(c, "bcast", t0);
    data
}

/// Binomial-tree reduction to `root`. Returns `Some(result)` on the
/// root, `None` elsewhere.
pub async fn reduce<C: Communicator>(c: &C, root: usize, op: Op, x: &[f64]) -> Option<Vec<f64>> {
    let n = c.size();
    let me = (c.rank() + n - root) % n;
    let mut acc = x.to_vec();
    let bytes = (x.len() * 8) as u64;
    let t0 = coll_start(c);

    let mut d = 1usize;
    while d < n {
        if me.is_multiple_of(2 * d) {
            let child = me + d;
            if child < n {
                let m = coll_recv(c, (child + root) % n, TAG_REDUCE).await;
                op.apply(&mut acc, &m.data);
            }
        } else {
            let parent = me - d;
            coll_send(c, (parent + root) % n, TAG_REDUCE, Rc::from(acc), bytes).await;
            coll_end(c, "reduce", t0);
            return None;
        }
        d *= 2;
    }
    coll_end(c, "reduce", t0);
    Some(acc)
}

/// Reduce-to-root followed by broadcast — the classic MPICH allreduce
/// for modest vector sizes.
pub async fn allreduce<C: Communicator>(c: &C, op: Op, x: &[f64]) -> Vec<f64> {
    let bytes = (x.len() * 8) as u64;
    let t0 = coll_start(c);
    let out = match reduce(c, 0, op, x).await {
        Some(acc) => bcast(c, 0, Rc::from(acc), bytes).await.to_vec(),
        None => bcast(c, 0, empty(), bytes).await.to_vec(),
    };
    coll_end(c, "allreduce", t0);
    out
}

/// Allgather: every rank contributes one payload; all ranks return the
/// full vector indexed by rank. Recursive doubling for power-of-two
/// sizes (log₂ n rounds with doubling block sizes — the pattern NPB CG
/// uses to reassemble its iterate), ring otherwise. As in
/// MPI_Allgather, every rank must contribute the same number of
/// elements; a contribution of another length panics.
pub async fn allgather<C: Communicator>(c: &C, mine: Payload, per_rank_bytes: u64) -> Vec<Payload> {
    const EQUAL_COUNTS: &str = "MPI_Allgather: every rank must contribute the same count";
    let n = c.size();
    let me = c.rank();
    let len = mine.len();
    let mut out: Vec<Option<Payload>> = vec![None; n];
    out[me] = Some(mine);
    if n == 1 {
        return out.into_iter().map(|o| o.unwrap()).collect();
    }
    let t0 = coll_start(c);
    if n.is_power_of_two() {
        // Recursive doubling: after round k, each rank holds the
        // aligned block of 2^(k+1) contributions containing itself,
        // and ships it as one concatenated payload of the combined
        // modelled size.
        let mut have = 1usize;
        let mut base = me;
        let mut dist = 1usize;
        while dist < n {
            let partner = me ^ dist;
            let tag = TAG_ALLGATHER + dist as i64;
            let block: Vec<&[f64]> = out[base..base + have]
                .iter()
                .map(|o| o.as_deref().expect("own block present"))
                .collect();
            let block = Payload::from(block.concat());
            let bytes = per_rank_bytes * have as u64;
            let m = if me < partner {
                coll_send(c, partner, tag, block, bytes).await;
                coll_recv(c, partner, tag).await
            } else {
                let m = coll_recv(c, partner, tag).await;
                coll_send(c, partner, tag, block, bytes).await;
                m
            };
            assert_eq!(m.data.len(), have * len, "{EQUAL_COUNTS}");
            let their_base = base ^ dist;
            for k in 0..have {
                out[their_base + k] = Some(Rc::from(&m.data[k * len..(k + 1) * len]));
            }
            base = base.min(their_base);
            have *= 2;
            dist *= 2;
        }
    } else {
        // Ring: n-1 steps, each forwarding the segment received last.
        let right = (me + 1) % n;
        let left = (me + n - 1) % n;
        let mut carry = out[me].clone().unwrap();
        let mut carry_idx = me;
        for step in 0..n - 1 {
            let tag = TAG_ALLGATHER + 100 + step as i64;
            let rr = c.irecv_full(Some(left), Some(tag), CTX_COLL, 0).await;
            let sr = c
                .isend_full(right, tag, CTX_COLL, carry.clone(), per_rank_bytes, 0)
                .await;
            let m = c.wait(rr).await.unwrap();
            c.wait(sr).await;
            assert_eq!(m.data.len(), len, "{EQUAL_COUNTS}");
            carry = m.data;
            carry_idx = (carry_idx + n - 1) % n;
            out[carry_idx] = Some(carry.clone());
        }
    }
    coll_end(c, "allgather", t0);
    out.into_iter()
        .map(|o| o.expect("allgather slot missing"))
        .collect()
}
