//! Sub-communicator tests: split semantics, isolation between groups,
//! and generic collectives running inside subgroups.

use std::cell::RefCell;
use std::rc::Rc;

use elanib_mpi::collectives::{allreduce, barrier, bcast, Op};
use elanib_mpi::tports::ElanWorld;
use elanib_mpi::verbs::IbWorld;
use elanib_mpi::{recv, send, Communicator, Network, Payload, SubComm};
use elanib_simcore::Sim;

/// 2x3 grid: split by row and by column; run collectives in both.
async fn grid_split_program<C: Communicator>(c: C, results: Rc<RefCell<Vec<(usize, f64, f64)>>>) {
    let me = c.rank();
    let (row, col) = (me / 3, me % 3);
    let rows = SubComm::split(&c, |r| Some((r / 3) as u32)).unwrap();
    let cols = SubComm::split(&c, |r| Some(10 + (r % 3) as u32)).unwrap();
    assert_eq!(rows.size(), 3);
    assert_eq!(cols.size(), 2);
    assert_eq!(rows.rank(), col);
    assert_eq!(cols.rank(), row);
    // Row sum of world ranks: row 0 -> 0+1+2 = 3; row 1 -> 3+4+5 = 12.
    let row_sum = allreduce(&rows, Op::Sum, &[me as f64]).await[0];
    // Column sum: col c -> c + (c+3).
    let col_sum = allreduce(&cols, Op::Sum, &[me as f64]).await[0];
    barrier(&rows).await;
    results.borrow_mut().push((me, row_sum, col_sum));
}

#[test]
fn split_collectives_isolated_per_group() {
    for net in Network::BOTH {
        let sim = Sim::new(3);
        let results = Rc::new(RefCell::new(Vec::new()));
        macro_rules! body {
            ($w:expr) => {{
                let w = $w;
                for r in 0..6usize {
                    let c = w.comm(r);
                    let res = results.clone();
                    sim.spawn(format!("r{r}"), grid_split_program(c, res));
                }
            }};
        }
        match net {
            Network::InfiniBand => body!(IbWorld::new(&sim, 3, 2)),
            Network::Elan4 => body!(ElanWorld::new(&sim, 3, 2)),
            Network::RoceV2(_) => unreachable!("subcomm iterates Network::BOTH"),
        }
        sim.run().unwrap();
        let mut rs = results.borrow().clone();
        rs.sort_by_key(|r| r.0);
        for (me, row_sum, col_sum) in rs {
            let expect_row = if me / 3 == 0 { 3.0 } else { 12.0 };
            let expect_col = (2 * (me % 3) + 3) as f64;
            assert_eq!(row_sum, expect_row, "{net} rank {me} row sum");
            assert_eq!(col_sum, expect_col, "{net} rank {me} col sum");
        }
    }
}

#[test]
fn undefined_color_excludes_rank() {
    let sim = Sim::new(5);
    let w = ElanWorld::new(&sim, 4, 1);
    let count = Rc::new(RefCell::new(0usize));
    for r in 0..4usize {
        let c = w.comm(r);
        let k = count.clone();
        sim.spawn(format!("r{r}"), async move {
            // Only even ranks join.
            let sub = SubComm::split(&c, |r| (r % 2 == 0).then_some(0));
            match sub {
                Some(s) => {
                    assert_eq!(s.size(), 2);
                    let v = allreduce(&s, Op::Sum, &[1.0]).await[0];
                    assert_eq!(v, 2.0);
                    *k.borrow_mut() += 1;
                }
                None => assert!(c.rank() % 2 == 1),
            }
        });
    }
    sim.run().unwrap();
    assert_eq!(*count.borrow(), 2);
}

#[test]
fn point_to_point_within_subgroup_translates_ranks() {
    let sim = Sim::new(7);
    let w = IbWorld::new(&sim, 4, 1);
    for r in 0..4usize {
        let c = w.comm(r);
        sim.spawn(format!("r{r}"), async move {
            // Group = upper half {2, 3} as subgroup ranks {0, 1}.
            let sub = SubComm::split(&c, |r| (r >= 2).then_some(0));
            if let Some(s) = sub {
                if s.rank() == 0 {
                    send(&s, 1, 5, Payload::from([42.0]), 8).await;
                } else {
                    let m = recv(&s, Some(0), Some(5)).await;
                    assert_eq!(m.src, 0, "source reported in subgroup ranks");
                    assert_eq!(m.data[0], 42.0);
                }
            }
        });
    }
    sim.run().unwrap();
}

#[test]
fn bcast_inside_subgroup() {
    let sim = Sim::new(9);
    let w = ElanWorld::new(&sim, 6, 1);
    for r in 0..6usize {
        let c = w.comm(r);
        sim.spawn(format!("r{r}"), async move {
            let sub = SubComm::split(&c, |r| Some((r % 2) as u32)).unwrap();
            let root_payload = if sub.rank() == 0 {
                Payload::from([c.rank() as f64])
            } else {
                elanib_mpi::empty()
            };
            let out = bcast(&sub, 0, root_payload, 8).await;
            // Subgroup rank 0 of group (r%2) is world rank (r%2).
            assert_eq!(out[0], (c.rank() % 2) as f64);
        });
    }
    sim.run().unwrap();
}
