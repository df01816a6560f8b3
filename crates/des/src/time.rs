//! Virtual time for the simulation.
//!
//! The engine runs on a continuous virtual clock measured in seconds and
//! represented as `f64`. All arithmetic in the engine is deterministic (no
//! wall-clock reads, no randomness), so two runs with identical inputs
//! produce bit-identical timelines. `SimTime` and `SimDuration` are newtypes
//! so that instants and spans cannot be confused, and both provide a total
//! order via [`f64::total_cmp`] so they can key ordered collections.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// An instant on the virtual clock, in seconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SimTime(pub f64);

/// A span of virtual time, in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SimDuration(pub f64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0.0);

    /// Seconds since simulation start.
    #[inline]
    pub fn seconds(self) -> f64 {
        self.0
    }

    /// The span from `earlier` to `self`. Panics in debug builds if
    /// `earlier` is later than `self` by more than floating-point noise.
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        debug_assert!(
            self.0 - earlier.0 > -1e-9,
            "time went backwards: {} -> {}",
            earlier.0,
            self.0
        );
        SimDuration((self.0 - earlier.0).max(0.0))
    }

    /// True if the instant is finite (not saturated by a runaway model).
    #[inline]
    pub fn is_finite(self) -> bool {
        self.0.is_finite()
    }
}

impl SimDuration {
    /// Zero-length span.
    pub const ZERO: SimDuration = SimDuration(0.0);

    /// Construct from seconds. Negative or NaN inputs are clamped to zero;
    /// durations are spans and can never be negative.
    #[inline]
    pub fn from_secs(s: f64) -> SimDuration {
        if s.is_nan() {
            return SimDuration(0.0);
        }
        SimDuration(s.max(0.0))
    }

    /// Construct from microseconds.
    #[inline]
    pub fn from_micros(us: f64) -> SimDuration {
        Self::from_secs(us * 1e-6)
    }

    /// The span in seconds.
    #[inline]
    pub fn seconds(self) -> f64 {
        self.0
    }

    /// True if this span is zero (or numerically indistinguishable from it).
    #[inline]
    pub(crate) fn is_zero(self) -> bool {
        self.0 <= 0.0
    }
}

impl Eq for SimTime {}
impl Ord for SimTime {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}
impl PartialOrd for SimTime {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Eq for SimDuration {}
impl Ord for SimDuration {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}
impl PartialOrd for SimDuration {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.since(rhs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration((self.0 - rhs.0).max(0.0))
    }
}

impl Mul<f64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: f64) -> SimDuration {
        SimDuration::from_secs(self.0 * rhs)
    }
}

impl Div<f64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: f64) -> SimDuration {
        SimDuration::from_secs(self.0 / rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.0)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1.0 {
            write!(f, "{:.3}s", self.0)
        } else if self.0 >= 1e-3 {
            write!(f, "{:.3}ms", self.0 * 1e3)
        } else if self.0 >= 1e-6 {
            write!(f, "{:.3}us", self.0 * 1e6)
        } else {
            write!(f, "{:.1}ns", self.0 * 1e9)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_plus_duration() {
        let t = SimTime(1.5) + SimDuration(0.25);
        assert_eq!(t, SimTime(1.75));
    }

    #[test]
    fn since_is_nonnegative() {
        let d = SimTime(2.0).since(SimTime(1.0));
        assert_eq!(d.seconds(), 1.0);
        // Floating-point noise below the epoch is clamped.
        let d = SimTime(1.0).since(SimTime(1.0 + 1e-12));
        assert_eq!(d.seconds(), 0.0);
    }

    #[test]
    fn duration_clamps_negative_and_nan() {
        assert_eq!(SimDuration::from_secs(-1.0).seconds(), 0.0);
        assert_eq!(SimDuration::from_secs(f64::NAN).seconds(), 0.0);
    }

    #[test]
    fn total_order_handles_equal_times() {
        let a = SimTime(3.0);
        let b = SimTime(3.0);
        assert_eq!(a.cmp(&b), Ordering::Equal);
        assert!(SimTime(2.0) < SimTime(3.0));
    }

    #[test]
    fn unit_constructors() {
        assert!((SimDuration::from_micros(1.0).seconds() - 1e-6).abs() < 1e-18);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(format!("{}", SimDuration(2.5)), "2.500s");
        assert_eq!(format!("{}", SimDuration(2.5e-3)), "2.500ms");
        assert_eq!(format!("{}", SimDuration(2.5e-6)), "2.500us");
        assert_eq!(format!("{}", SimDuration(9.0e-8)), "90.0ns");
    }

    #[test]
    fn duration_arithmetic_saturates_at_zero() {
        let d = SimDuration(1.0) - SimDuration(2.0);
        assert_eq!(d.seconds(), 0.0);
    }
}
