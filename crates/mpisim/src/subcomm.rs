//! Sub-communicators: MPI_Comm_split for the simulation.
//!
//! A [`SubComm`] wraps any [`Communicator`] with (a) a rank translation
//! table and (b) a distinct context id, so the generic collectives in
//! [`crate::collectives`] work unchanged on process subgroups — row
//! groups, column groups, per-node groups — with full isolation from
//! world traffic and from other groups (groups with different `color`
//! get different contexts).
//!
//! Split is purely local in the simulation (every rank can compute the
//! grouping deterministically), mirroring how MPI implementations of
//! the era computed communicator layouts from replicated metadata.

use std::rc::Rc;

use crate::{Communicator, Payload, RecvMsg};

/// A communicator over a subgroup of another communicator's ranks.
#[derive(Clone)]
pub struct SubComm<C: Communicator> {
    parent: C,
    /// Subgroup members as parent ranks, in subgroup rank order.
    members: Rc<Vec<usize>>,
    /// My rank within the subgroup.
    my_rank: usize,
    /// Context id for this subgroup's traffic.
    ctx: u32,
}

/// Context ids for sub-communicators start here; `color` offsets them
/// so sibling groups never share a context.
const CTX_SPLIT_BASE: u32 = 1000;

impl<C: Communicator> SubComm<C> {
    /// MPI_Comm_split: every rank supplies the full color assignment
    /// (deterministically computable by all ranks — e.g. `rank /
    /// group_size`); ranks sharing a color form a subgroup ordered by
    /// parent rank. Returns `None` if this rank's color is `None`
    /// (MPI_UNDEFINED).
    pub fn split(parent: &C, color_of: impl Fn(usize) -> Option<u32>) -> Option<SubComm<C>> {
        let my_color = color_of(parent.rank())?;
        let members: Vec<usize> = (0..parent.size())
            .filter(|&r| color_of(r) == Some(my_color))
            .collect();
        let my_rank = members
            .iter()
            .position(|&r| r == parent.rank())
            .expect("own rank must be in own color group");
        Some(SubComm {
            parent: parent.clone(),
            members: Rc::new(members),
            my_rank,
            ctx: CTX_SPLIT_BASE + my_color,
        })
    }

    pub fn parent(&self) -> &C {
        &self.parent
    }
}

impl<C: Communicator> Communicator for SubComm<C> {
    type Req = C::Req;

    fn rank(&self) -> usize {
        self.my_rank
    }
    fn size(&self) -> usize {
        self.members.len()
    }
    fn sim(&self) -> elanib_simcore::Sim {
        self.parent.sim()
    }

    async fn isend_full(
        &self,
        dst: usize,
        tag: i64,
        ctx: u32,
        data: Payload,
        bytes: u64,
        region: u64,
    ) -> C::Req {
        // Fold the caller's ctx into ours so collectives-inside-
        // subgroups (which pass CTX_COLL) stay isolated per group.
        self.parent
            .isend_full(
                self.members[dst],
                tag,
                self.ctx.wrapping_mul(64).wrapping_add(ctx),
                data,
                bytes,
                region,
            )
            .await
    }

    async fn irecv_full(
        &self,
        src: Option<usize>,
        tag: Option<i64>,
        ctx: u32,
        region: u64,
    ) -> C::Req {
        self.parent
            .irecv_full(
                src.map(|s| self.members[s]),
                tag,
                self.ctx.wrapping_mul(64).wrapping_add(ctx),
                region,
            )
            .await
    }

    async fn wait(&self, req: C::Req) -> Option<RecvMsg> {
        let m = self.parent.wait(req).await;
        // Translate the source back into subgroup rank space.
        m.map(|mut msg| {
            if let Some(local) = self.members.iter().position(|&w| w == msg.src) {
                msg.src = local;
            }
            msg
        })
    }

    async fn compute(&self, dur: elanib_simcore::Dur, mem_intensity: f64) {
        self.parent.compute(dur, mem_intensity).await;
    }
}
