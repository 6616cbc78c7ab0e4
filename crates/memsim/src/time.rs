//! Simulated wall-clock time.
//!
//! [`SimTime`] is a thin newtype over `f64` seconds. It exists so that the
//! rest of the workspace cannot accidentally mix seconds with milliseconds or
//! with raw byte counts; see C-NEWTYPE in the Rust API guidelines.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

use serde::Serialize;

/// A span of simulated time, stored in seconds.
///
/// `SimTime` is ordered, additive and scalable; division of two spans yields
/// a dimensionless ratio (used for speedup computations).
///
/// # Example
///
/// ```
/// use memsim::SimTime;
///
/// let a = SimTime::from_millis(30.0);
/// let b = SimTime::from_millis(10.0);
/// assert_eq!((a + b).as_millis(), 40.0);
/// assert!((a / b - 3.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize)]
pub struct SimTime(f64);

impl SimTime {
    /// The zero time span.
    pub const ZERO: SimTime = SimTime(0.0);

    /// Creates a time span from seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or NaN — simulated durations are always
    /// non-negative.
    pub fn from_secs(secs: f64) -> Self {
        assert!(secs >= 0.0 && secs.is_finite(), "invalid duration: {secs}");
        SimTime(secs)
    }

    /// Creates a time span from milliseconds.
    pub fn from_millis(ms: f64) -> Self {
        Self::from_secs(ms * 1e-3)
    }

    /// Creates a time span from microseconds.
    pub fn from_micros(us: f64) -> Self {
        Self::from_secs(us * 1e-6)
    }

    /// Returns the span in seconds.
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// Returns the span in milliseconds.
    pub fn as_millis(self) -> f64 {
        self.0 * 1e3
    }

    /// Returns the span in microseconds.
    pub fn as_micros(self) -> f64 {
        self.0 * 1e6
    }

    /// Returns the larger of two spans.
    pub fn max(self, other: SimTime) -> SimTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// Returns the smaller of two spans.
    #[cfg(test)]
    pub(crate) fn min(self, other: SimTime) -> SimTime {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }

    /// True if this span is exactly zero.
    pub(crate) fn is_zero(self) -> bool {
        self.0 == 0.0
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    /// # Panics
    ///
    /// Panics in debug builds if the result would be negative.
    fn sub(self, rhs: SimTime) -> SimTime {
        debug_assert!(self.0 >= rhs.0, "negative duration: {} - {}", self.0, rhs.0);
        SimTime((self.0 - rhs.0).max(0.0))
    }
}

impl Mul<f64> for SimTime {
    type Output = SimTime;
    fn mul(self, rhs: f64) -> SimTime {
        SimTime::from_secs(self.0 * rhs)
    }
}

impl Div<f64> for SimTime {
    type Output = SimTime;
    fn div(self, rhs: f64) -> SimTime {
        SimTime::from_secs(self.0 / rhs)
    }
}

impl Div for SimTime {
    type Output = f64;
    /// Ratio of two spans (e.g. a speedup).
    fn div(self, rhs: SimTime) -> f64 {
        self.0 / rhs.0
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        iter.fold(SimTime::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ms = self.as_millis();
        if ms >= 1000.0 {
            write!(f, "{:.3} s", self.as_secs())
        } else if ms >= 1.0 {
            write!(f, "{ms:.2} ms")
        } else {
            write!(f, "{:.2} µs", self.as_micros())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_round_trips() {
        assert_eq!(SimTime::from_secs(1.5).as_millis(), 1500.0);
        assert_eq!(SimTime::from_millis(2.0).as_secs(), 0.002);
        assert_eq!(SimTime::from_micros(1000.0).as_millis(), 1.0);
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_millis(10.0);
        let b = SimTime::from_millis(4.0);
        assert_eq!((a + b).as_millis(), 14.0);
        assert_eq!((a - b).as_millis(), 6.0);
        assert_eq!((a * 2.0).as_millis(), 20.0);
        assert_eq!((a / 2.0).as_millis(), 5.0);
        assert!((a / b - 2.5).abs() < 1e-12);
    }

    #[test]
    fn ordering_and_extrema() {
        let a = SimTime::from_millis(1.0);
        let b = SimTime::from_millis(2.0);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }

    #[test]
    fn sum_over_iterator() {
        let total: SimTime = (1..=4).map(|i| SimTime::from_millis(i as f64)).sum();
        assert_eq!(total.as_millis(), 10.0);
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(format!("{}", SimTime::from_secs(1.5)), "1.500 s");
        assert_eq!(format!("{}", SimTime::from_millis(12.34)), "12.34 ms");
        assert_eq!(format!("{}", SimTime::from_micros(5.0)), "5.00 µs");
    }

    #[test]
    #[should_panic(expected = "invalid duration")]
    fn negative_duration_panics() {
        let _ = SimTime::from_secs(-1.0);
    }

    #[test]
    fn zero_checks() {
        assert!(SimTime::ZERO.is_zero());
        assert!(!SimTime::from_millis(0.1).is_zero());
    }
}
