//! Shared NIC plumbing: payload handles and serial engines.

use std::cell::Cell;
use std::rc::Rc;

use elanib_simcore::{Dur, Sim, SimTime};

/// Application payload: the `f64`s a message carries, and nothing
/// else. Timing never reads it — every model charges the separate
/// `bytes` argument — so a payload is only ever as large as the
/// numerics it feeds, and a microbenchmark sends [`no_bytes`] however
/// many bytes it charges. Reference-counted so that "copies" in the
/// protocol models are free; copy *costs* are charged explicitly
/// against the memory-bus model.
pub type Payload = Rc<[f64]>;

/// Empty payload singleton helper.
pub fn no_bytes() -> Payload {
    thread_local! {
        static EMPTY: Payload = Rc::from([]);
    }
    EMPTY.with(|e| e.clone())
}

/// A serial hardware engine (HCA WQE pipeline, Elan thread processor):
/// requests are served one at a time in arrival order, each occupying
/// the engine for a caller-specified time. Implemented as busy-until
/// bookkeeping so no persistent task is needed.
#[derive(Clone, Default)]
pub struct SerialEngine {
    busy_until: Rc<Cell<SimTime>>,
    jobs: Rc<Cell<u64>>,
}

impl SerialEngine {
    pub fn new() -> SerialEngine {
        SerialEngine::default()
    }

    /// Claim the engine for `cost` starting no earlier than now;
    /// returns the instant the engine finishes this job.
    pub fn next_slot(&self, sim: &Sim, cost: Dur) -> SimTime {
        let start = sim.now().max_t(self.busy_until.get());
        let end = start + cost;
        self.busy_until.set(end);
        self.jobs.set(self.jobs.get() + 1);
        end
    }

    pub fn jobs_served(&self) -> u64 {
        self.jobs.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_engine_spaces_jobs() {
        let sim = Sim::new(1);
        let e = SerialEngine::new();
        let a = e.next_slot(&sim, Dur::from_us(1));
        let b = e.next_slot(&sim, Dur::from_us(1));
        assert_eq!(a, SimTime::ZERO + Dur::from_us(1));
        assert_eq!(b, SimTime::ZERO + Dur::from_us(2));
        assert_eq!(e.jobs_served(), 2);
    }

    #[test]
    fn payload_handle_is_cheap_to_clone() {
        let b: Payload = Rc::from([1.0, 2.0, 3.0]);
        let c = b.clone();
        assert_eq!(Rc::strong_count(&b), 2);
        assert_eq!(c[1], 2.0);
    }
}
