//! EXTENSION exhibit: deterministic fault injection and transport
//! recovery.
//!
//! The paper's §3.1 observation that QsNet does error detection and
//! retransmission *in the link-layer hardware* — while InfiniBand's RC
//! transport recovers end-to-end at ACK-timeout granularity — never
//! gets a figure of its own in the paper. This exhibit produces it:
//!
//! * `faults_latency.csv` — ping-pong latency over a loss-rate ×
//!   message-size grid. Elan's per-packet link retry adds microseconds;
//!   IB's whole-message retransmit adds multiples of the 100 µs ACK
//!   timeout, and at 3% loss the QP can exhaust its bounded retries
//!   entirely (`QP-ERR`).
//! * `faults_outage.csv` — a 100-message stream across a 16-node
//!   fabric while a link on the static route goes down for 1–3 ms.
//!   Elan reroutes around the outage; IB stalls on exponential-backoff
//!   retransmits until the link returns.
//!
//! Every fault draw is a pure function of (plan seed, channel, packet
//! sequence), so both tables are bit-reproducible across serial and
//! parallel sweeps, traced and untraced runs —
//! the fault_determinism integration test enforces exactly that.

use elanib_bench::{emit, faults_latency_table, faults_outage_table, report_sweep};

fn main() {
    elanib_bench::regen_begin();

    let (lat, lat_stats) = faults_latency_table();
    emit("Faults", "faults_latency", &lat);
    println!(
        "Loss rates are per packet per link. Elan-4 retries bad packets in\n\
         the link layer (~1 us each); InfiniBand retransmits the whole\n\
         message after a ~100 us ACK timeout with exponential backoff, so\n\
         the same injected fault rate costs it orders of magnitude more —\n\
         and QP-ERR rows mark the bounded retry budget running out.\n"
    );

    let (out, out_stats) = faults_outage_table();
    emit("Faults", "faults_outage", &out);
    println!(
        "The outage covers the static 0->15 route. Quadrics' adaptive\n\
         routing detours around the dead link (reroutes > 0); InfiniBand's\n\
         static route can only back off and retry into it.\n"
    );

    let mut total = lat_stats;
    total.absorb(&out_stats);
    report_sweep("faults", &total);
}
