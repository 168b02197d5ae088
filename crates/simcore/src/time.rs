//! Simulated time.
//!
//! The kernel clock counts **picoseconds** in a `u64`, which spans ~213
//! days of simulated time — far beyond any experiment in this repository
//! — while still resolving the sub-nanosecond serialization times of
//! small packets on multi-GB/s links without accumulating rounding
//! error across millions of events.
//!
//! Two newtypes keep instants and durations from being confused:
//! [`SimTime`] is a point on the simulation clock, [`Dur`] is a span.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant on the simulation clock, in picoseconds since simulation
/// start.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of simulated time, in picoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Dur(pub u64);

pub const PS_PER_NS: u64 = 1_000;
pub const PS_PER_US: u64 = 1_000_000;
pub const PS_PER_MS: u64 = 1_000_000_000;
pub const PS_PER_SEC: u64 = 1_000_000_000_000;

impl SimTime {
    pub const ZERO: SimTime = SimTime(0);

    #[inline]
    pub fn as_ps(self) -> u64 {
        self.0
    }
    #[inline]
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / PS_PER_US as f64
    }
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / PS_PER_SEC as f64
    }
    /// Saturating difference between two instants.
    #[inline]
    pub fn since(self, earlier: SimTime) -> Dur {
        Dur(self.0.saturating_sub(earlier.0))
    }
    #[inline]
    pub fn max_t(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }
}

impl Dur {
    pub const ZERO: Dur = Dur(0);

    #[inline]
    pub fn from_ps(ps: u64) -> Dur {
        Dur(ps)
    }
    #[inline]
    pub fn from_ns(ns: u64) -> Dur {
        Dur(ns * PS_PER_NS)
    }
    #[inline]
    pub fn from_us(us: u64) -> Dur {
        Dur(us * PS_PER_US)
    }
    #[inline]
    pub fn from_ms(ms: u64) -> Dur {
        Dur(ms * PS_PER_MS)
    }
    #[inline]
    pub fn from_secs(s: u64) -> Dur {
        Dur(s * PS_PER_SEC)
    }
    /// Build a duration from a floating-point number of seconds,
    /// rounding to the nearest picosecond. Negative and NaN inputs
    /// clamp to zero (durations are non-negative by construction).
    #[inline]
    pub fn from_secs_f64(s: f64) -> Dur {
        if s.is_nan() || s <= 0.0 {
            return Dur(0);
        }
        Dur((s * PS_PER_SEC as f64).round() as u64)
    }
    #[inline]
    pub fn from_us_f64(us: f64) -> Dur {
        Dur::from_secs_f64(us * 1e-6)
    }
    /// Time to move `bytes` at `bytes_per_sec` — the serialization-delay
    /// helper used throughout the fabric and host models.
    #[inline]
    pub fn transfer(bytes: u64, bytes_per_sec: f64) -> Dur {
        Dur::from_secs_f64(bytes as f64 / bytes_per_sec)
    }

    #[inline]
    pub fn as_ps(self) -> u64 {
        self.0
    }
    #[inline]
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / PS_PER_US as f64
    }
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / PS_PER_SEC as f64
    }
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }
    /// Scale a duration by a non-negative factor (contention stretch).
    #[inline]
    pub fn scale(self, factor: f64) -> Dur {
        debug_assert!(factor >= 0.0, "negative duration scale");
        Dur((self.0 as f64 * factor).round() as u64)
    }
}

impl Add<Dur> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, d: Dur) -> SimTime {
        SimTime(self.0 + d.0)
    }
}
impl AddAssign<Dur> for SimTime {
    #[inline]
    fn add_assign(&mut self, d: Dur) {
        self.0 += d.0;
    }
}
impl Sub<SimTime> for SimTime {
    type Output = Dur;
    #[inline]
    fn sub(self, other: SimTime) -> Dur {
        Dur(self
            .0
            .checked_sub(other.0)
            .expect("SimTime subtraction underflow"))
    }
}
impl Add for Dur {
    type Output = Dur;
    #[inline]
    fn add(self, o: Dur) -> Dur {
        Dur(self.0 + o.0)
    }
}
impl AddAssign for Dur {
    #[inline]
    fn add_assign(&mut self, o: Dur) {
        self.0 += o.0;
    }
}
impl Sub for Dur {
    type Output = Dur;
    #[inline]
    fn sub(self, o: Dur) -> Dur {
        Dur(self.0.checked_sub(o.0).expect("Dur subtraction underflow"))
    }
}
impl SubAssign for Dur {
    #[inline]
    fn sub_assign(&mut self, o: Dur) {
        *self = *self - o;
    }
}
impl Mul<u64> for Dur {
    type Output = Dur;
    #[inline]
    fn mul(self, k: u64) -> Dur {
        Dur(self.0 * k)
    }
}
impl Div<u64> for Dur {
    type Output = Dur;
    #[inline]
    fn div(self, k: u64) -> Dur {
        Dur(self.0 / k)
    }
}
impl Sum for Dur {
    fn sum<I: Iterator<Item = Dur>>(iter: I) -> Dur {
        iter.fold(Dur::ZERO, |a, b| a + b)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}", fmt_ps(self.0))
    }
}
impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", fmt_ps(self.0))
    }
}
impl fmt::Debug for Dur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", fmt_ps(self.0))
    }
}
impl fmt::Display for Dur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", fmt_ps(self.0))
    }
}

/// Human-readable picosecond formatting with an auto-selected unit.
fn fmt_ps(ps: u64) -> String {
    if ps >= PS_PER_SEC {
        format!("{:.6}s", ps as f64 / PS_PER_SEC as f64)
    } else if ps >= PS_PER_MS {
        format!("{:.3}ms", ps as f64 / PS_PER_MS as f64)
    } else if ps >= PS_PER_US {
        format!("{:.3}us", ps as f64 / PS_PER_US as f64)
    } else if ps >= PS_PER_NS {
        format!("{:.3}ns", ps as f64 / PS_PER_NS as f64)
    } else {
        format!("{ps}ps")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(Dur::from_us(3).as_ps(), 3 * PS_PER_US);
        assert_eq!(Dur::from_ns(7).as_ps(), 7 * PS_PER_NS);
        assert_eq!(Dur::from_secs(2).as_secs_f64(), 2.0);
        assert!((Dur::from_secs_f64(1.5e-6).as_us_f64() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn transfer_time_matches_bandwidth() {
        // 1 MB at 1 GB/s = 1 ms.
        let d = Dur::transfer(1_000_000, 1e9);
        assert_eq!(d.as_ps(), PS_PER_MS);
    }

    #[test]
    fn instant_duration_algebra() {
        let t0 = SimTime::ZERO;
        let t1 = t0 + Dur::from_us(5);
        assert_eq!(t1 - t0, Dur::from_us(5));
        assert_eq!(t1.since(t0), Dur::from_us(5));
        // since() saturates instead of panicking.
        assert_eq!(t0.since(t1), Dur::ZERO);
    }

    #[test]
    fn negative_and_nan_seconds_clamp_to_zero() {
        assert_eq!(Dur::from_secs_f64(-1.0), Dur::ZERO);
        assert_eq!(Dur::from_secs_f64(f64::NAN), Dur::ZERO);
    }

    #[test]
    fn scale_stretches_duration() {
        assert_eq!(Dur::from_us(10).scale(1.5), Dur::from_us(15));
        assert_eq!(Dur::from_us(10).scale(0.0), Dur::ZERO);
    }

    #[test]
    fn display_picks_sane_units() {
        assert_eq!(format!("{}", Dur::from_us(2)), "2.000us");
        assert_eq!(format!("{}", Dur::from_ns(2)), "2.000ns");
        assert_eq!(format!("{}", Dur::from_secs(1)), "1.000000s");
    }
}
