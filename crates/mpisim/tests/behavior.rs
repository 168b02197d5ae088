//! Architectural-behaviour tests: the §3 mechanisms must produce the
//! paper's qualitative timing differences, not just correct answers.

use std::cell::Cell;
use std::rc::Rc;

use elanib_mpi::tports::ElanWorld;
use elanib_mpi::verbs::IbWorld;
use elanib_mpi::{bytes_of_f64, irecv, isend, recv, send, zeros, Communicator};
use elanib_simcore::{Dur, Sim};

/// One-way small-message latency via 100-iteration ping-pong.
fn pingpong_us<W, C, F>(mk: F, bytes: u64) -> f64
where
    C: Communicator,
    F: FnOnce(&Sim) -> (W, Box<dyn Fn(usize) -> C>),
{
    let sim = Sim::new(5);
    let (_w, comm_of) = mk(&sim);
    let result = Rc::new(Cell::new(0.0));
    let iters = 100u32;
    for r in 0..2 {
        let c = comm_of(r);
        let res = result.clone();
        let s = sim.clone();
        sim.spawn(format!("pp{r}"), async move {
            let payload = zeros(bytes);
            if c.rank() == 0 {
                let t0 = s.now();
                for _ in 0..iters {
                    send(&c, 1, 1, payload.clone(), bytes).await;
                    let _ = recv(&c, Some(1), Some(2)).await;
                }
                let total = s.now().since(t0);
                res.set(total.as_us_f64() / (2.0 * iters as f64));
            } else {
                for _ in 0..iters {
                    let _ = recv(&c, Some(0), Some(1)).await;
                    send(&c, 0, 2, payload.clone(), bytes).await;
                }
            }
        });
    }
    sim.run().unwrap();
    result.get()
}

fn ib_pingpong_us(bytes: u64) -> f64 {
    pingpong_us(
        |sim| {
            let w = IbWorld::new(sim, 2, 1);
            let w2 = w.clone();
            (w, Box::new(move |r| w2.comm(r)) as Box<dyn Fn(usize) -> _>)
        },
        bytes,
    )
}

fn elan_pingpong_us(bytes: u64) -> f64 {
    pingpong_us(
        |sim| {
            let w = ElanWorld::new(sim, 2, 1);
            let w2 = w.clone();
            (w, Box::new(move |r| w2.comm(r)) as Box<dyn Fn(usize) -> _>)
        },
        bytes,
    )
}

#[test]
fn small_message_latency_calibration() {
    // §4.1 / Figure 1(a): "The average latency for Elan-4 is
    // approximately half of that for InfiniBand", with 2004-era
    // absolute values (IB ≈ 5.5–7 µs, Elan-4 ≈ 2.5–3.5 µs).
    let ib = ib_pingpong_us(8);
    let elan = elan_pingpong_us(8);
    assert!(ib > 4.5 && ib < 7.5, "ib 0-byte-ish latency {ib} µs");
    assert!(elan > 2.0 && elan < 3.8, "elan latency {elan} µs");
    let ratio = ib / elan;
    assert!(
        ratio > 1.6 && ratio < 2.6,
        "Elan should be about half of IB: ratio {ratio}"
    );
}

#[test]
fn ib_latency_jumps_at_eager_threshold() {
    // Figure 1(a): "the InfiniBand latency has a sharp jump between
    // 1 KB and 2 KB messages" (eager → rendezvous). Elan-4 shows no
    // such jump.
    let ib_1k = ib_pingpong_us(1024);
    let ib_2k = ib_pingpong_us(2048);
    assert!(
        ib_2k > ib_1k * 1.5,
        "expected a sharp protocol jump: 1K={ib_1k} µs, 2K={ib_2k} µs"
    );
    let elan_1k = elan_pingpong_us(1024);
    let elan_2k = elan_pingpong_us(2048);
    assert!(
        elan_2k < elan_1k * 1.45,
        "Elan must not jump: 1K={elan_1k} µs, 2K={elan_2k} µs"
    );
}

#[test]
fn bandwidth_8k_calibration() {
    // §4.1: "at a message size of 8 KB, the Elan-4 and InfiniBand
    // bandwidths are 552 MB/s and 249 MB/s respectively — a difference
    // of a factor of two."
    let ib_bw = 8192.0 / (ib_pingpong_us(8192) * 1e-6) / 1e6;
    let elan_bw = 8192.0 / (elan_pingpong_us(8192) * 1e-6) / 1e6;
    assert!(
        (200.0..320.0).contains(&ib_bw),
        "IB 8K bandwidth {ib_bw} MB/s (paper: 249)"
    );
    assert!(
        (480.0..650.0).contains(&elan_bw),
        "Elan 8K bandwidth {elan_bw} MB/s (paper: 552)"
    );
    assert!(elan_bw / ib_bw > 1.7, "factor-of-two gap at 8 KB");
}

#[test]
fn asymptotic_bandwidths_converge() {
    // Figure 1(b): "both networks asymptotically approach similar
    // bandwidth performance levels" (PCI-X limited).
    let ib_bw = 1e6_f64 / (ib_pingpong_us(1_000_000) * 1e-6) / 1e6;
    let elan_bw = 1e6_f64 / (elan_pingpong_us(1_000_000) * 1e-6) / 1e6;
    assert!(ib_bw > 700.0, "IB 1MB bandwidth {ib_bw} MB/s");
    assert!(elan_bw > 750.0, "Elan 1MB bandwidth {elan_bw} MB/s");
    assert!(
        elan_bw / ib_bw < 1.35,
        "large-message bandwidths must converge: elan {elan_bw} vs ib {ib_bw}"
    );
}

#[test]
fn four_mb_registration_thrash_dip() {
    // Figure 1(b): "the dramatic drop in bandwidth for InfiniBand using
    // a 4 MB message size ... reportedly due to thrashing when
    // registering memory."
    let bw_1m = 1e6 / (ib_pingpong_us(1 << 20) * 1e-6) / 1e6;
    let bw_4m = (4.0 * (1 << 20) as f64) / (ib_pingpong_us(4 << 20) * 1e-6) / 1e6;
    assert!(
        bw_4m < bw_1m * 0.80,
        "4 MB must dip below 1 MB bandwidth: 1M={bw_1m} MB/s 4M={bw_4m} MB/s"
    );
    // Elan has no registration and no dip.
    let e1 = 1e6 / (elan_pingpong_us(1 << 20) * 1e-6) / 1e6;
    let e4 = (4.0 * (1 << 20) as f64) / (elan_pingpong_us(4 << 20) * 1e-6) / 1e6;
    assert!(e4 > e1 * 0.95, "Elan must not dip: 1M={e1} 4M={e4}");
}

/// The independent-progress experiment (§3.3.3): sender posts a large
/// isend then computes for `compute_ms` without touching MPI; the
/// receiver measures when its blocking recv completes.
fn rendezvous_recv_time_ms(elan: bool, compute_ms: u64) -> f64 {
    let sim = Sim::new(9);
    let done_at = Rc::new(Cell::new(0.0));
    let bytes = 2_000_000u64;
    macro_rules! body {
        ($w:expr, $comm:ident) => {{
            let w = $w;
            for r in 0..2usize {
                let c = w.comm(r);
                let d = done_at.clone();
                let s = sim.clone();
                sim.spawn(format!("rk{r}"), async move {
                    if c.rank() == 0 {
                        let req = isend(&c, 1, 1, bytes_of_f64(&[1.0; 64]), bytes).await;
                        // Long compute phase: no MPI calls at all.
                        c_node_compute(&c, &s, Dur::from_ms(compute_ms)).await;
                        c.wait(req).await;
                    } else {
                        let req = irecv(&c, Some(0), Some(1)).await;
                        c.wait(req).await;
                        d.set(s.now().as_secs_f64() * 1e3);
                    }
                });
            }
        }};
    }
    if elan {
        body!(ElanWorld::new(&sim, 2, 1), TportsComm)
    } else {
        body!(IbWorld::new(&sim, 2, 1), VerbsComm)
    }
    sim.run().unwrap();
    done_at.get()
}

/// Model a pure compute phase for either communicator type.
async fn c_node_compute<C: Communicator>(_c: &C, s: &Sim, d: Dur) {
    s.sleep(d).await;
}

#[test]
fn independent_progress_is_the_difference() {
    // Elan: the NIC answers the RTS; the receive completes in transfer
    // time (~2.3 ms for 2 MB) regardless of the sender's 50 ms compute.
    let elan = rendezvous_recv_time_ms(true, 50);
    assert!(
        elan < 10.0,
        "Elan rendezvous must complete during sender compute: {elan} ms"
    );
    // InfiniBand/MVAPICH: the CTS sits in the sender's inbox until the
    // sender re-enters MPI at t=50ms; the receive completes after that.
    let ib = rendezvous_recv_time_ms(false, 50);
    assert!(
        ib > 50.0,
        "IB rendezvous must stall until the sender re-enters MPI: {ib} ms"
    );
}

#[test]
fn ib_sender_compute_directly_delays_receiver() {
    // Scaling the sender's compute phase shifts the IB completion
    // one-for-one; Elan's is flat. This is Figure 3's mechanism.
    let ib_10 = rendezvous_recv_time_ms(false, 10);
    let ib_30 = rendezvous_recv_time_ms(false, 30);
    let delta = ib_30 - ib_10;
    assert!(
        (15.0..25.0).contains(&delta),
        "IB completion should track sender compute (Δ≈20ms): {delta}"
    );
    let e_10 = rendezvous_recv_time_ms(true, 10);
    let e_30 = rendezvous_recv_time_ms(true, 30);
    assert!(
        (e_30 - e_10).abs() < 1.0,
        "Elan completion must not track sender compute: {} vs {}",
        e_10,
        e_30
    );
}

#[test]
fn message_rate_gap_small_messages() {
    // §4.1 / Figure 1(c): streaming micro-benchmark shows "over a
    // factor of five advantage" for Elan-4 at small message sizes.
    // Measured here as back-to-back isend issue rate of 8-byte sends.
    fn stream_rate_msgs_per_us(elan: bool) -> f64 {
        let sim = Sim::new(4);
        let rate = Rc::new(Cell::new(0.0));
        let count = 2000usize;
        macro_rules! body {
            ($w:expr) => {{
                let w = $w;
                for r in 0..2usize {
                    let c = w.comm(r);
                    let rt = rate.clone();
                    let s = sim.clone();
                    sim.spawn(format!("st{r}"), async move {
                        if c.rank() == 0 {
                            // Wait until the receiver has pre-posted
                            // everything (the [12] streaming benchmark
                            // pre-posts a matching number of receives).
                            let _ = recv(&c, Some(1), Some(3)).await;
                            let t0 = s.now();
                            let mut reqs = Vec::new();
                            for _ in 0..count {
                                reqs.push(isend(&c, 1, 1, bytes_of_f64(&[0.0]), 8).await);
                            }
                            for r in reqs {
                                c.wait(r).await;
                            }
                            // Completion ack.
                            let _ = recv(&c, Some(1), Some(2)).await;
                            let dt = s.now().since(t0).as_us_f64();
                            rt.set(count as f64 / dt);
                        } else {
                            let mut reqs = Vec::new();
                            for _ in 0..count {
                                reqs.push(irecv(&c, Some(0), Some(1)).await);
                            }
                            send(&c, 0, 3, bytes_of_f64(&[0.0]), 8).await;
                            for r in reqs {
                                c.wait(r).await;
                            }
                            send(&c, 0, 2, bytes_of_f64(&[0.0]), 8).await;
                        }
                    });
                }
            }};
        }
        if elan {
            body!(ElanWorld::new(&sim, 2, 1))
        } else {
            body!(IbWorld::new(&sim, 2, 1))
        }
        sim.run().unwrap();
        rate.get()
    }
    let elan = stream_rate_msgs_per_us(true);
    let ib = stream_rate_msgs_per_us(false);
    assert!(
        elan / ib > 3.0,
        "Elan streaming advantage must be large: elan={elan}/µs ib={ib}/µs ratio={}",
        elan / ib
    );
}
