//! Virtual time types.
//!
//! All simulated time is kept in integer nanoseconds. Using integers (not
//! floats) keeps the event queue total-ordered and the simulation exactly
//! reproducible across runs and platforms.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant on the simulation clock, in nanoseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of simulated time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);

    /// Nanoseconds since simulation start.
    #[inline]
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Microseconds since simulation start, as a float (for reporting only).
    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Seconds since simulation start, as a float (for reporting only).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// The duration elapsed since `earlier`.
    ///
    /// # Panics
    /// Panics if `earlier` is later than `self`; simulated clocks never run
    /// backwards, so this indicates a logic error in the caller.
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(earlier.0)
                .expect("SimTime::since: `earlier` is in the future"),
        )
    }
}

impl SimDuration {
    /// A zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Build from whole nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> SimDuration {
        SimDuration(ns)
    }

    /// Build from whole microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> SimDuration {
        SimDuration(us * 1_000)
    }

    /// Build from whole milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> SimDuration {
        SimDuration(ms * 1_000_000)
    }

    /// Build from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> SimDuration {
        SimDuration(s * 1_000_000_000)
    }

    /// Build from fractional microseconds (rounded to the nearest ns).
    ///
    /// Cost-model parameters are most naturally written in microseconds
    /// (e.g. `8.5` µs one-way latency), hence this float constructor; the
    /// result is still an exact integer nanosecond count.
    #[inline]
    pub fn from_micros_f64(us: f64) -> SimDuration {
        assert!(us >= 0.0 && us.is_finite(), "negative or NaN duration");
        SimDuration((us * 1_000.0).round() as u64)
    }

    /// Build from fractional nanoseconds (rounded to nearest).
    #[inline]
    pub fn from_nanos_f64(ns: f64) -> SimDuration {
        assert!(ns >= 0.0 && ns.is_finite(), "negative or NaN duration");
        SimDuration(ns.round() as u64)
    }

    /// Nanosecond count.
    #[inline]
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Microseconds, as a float (for reporting only).
    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Seconds, as a float (for reporting only).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// True if this duration is exactly zero.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, d: SimDuration) -> SimTime {
        SimTime(self.0 + d.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, d: SimDuration) {
        self.0 += d.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, d: SimDuration) -> SimTime {
        SimTime(self.0 - d.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, d: SimDuration) -> SimDuration {
        SimDuration(self.0 + d.0)
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, d: SimDuration) {
        self.0 += d.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, d: SimDuration) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(d.0)
                .expect("SimDuration subtraction underflow"),
        )
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, d: SimDuration) {
        *self = *self - d;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, k: u64) -> SimDuration {
        SimDuration(self.0 * k)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, k: u64) -> SimDuration {
        SimDuration(self.0 / k)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", SimDuration(self.0))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(f, "{:.3}s", ns as f64 / 1e9)
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", ns as f64 / 1e6)
        } else if ns >= 1_000 {
            write!(f, "{:.3}us", ns as f64 / 1e3)
        } else {
            write!(f, "{}ns", ns)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_units() {
        assert_eq!(SimDuration::from_micros(3).as_nanos(), 3_000);
        assert_eq!(SimDuration::from_millis(2).as_nanos(), 2_000_000);
        assert_eq!(SimDuration::from_secs(1).as_nanos(), 1_000_000_000);
        assert_eq!(SimDuration::from_micros_f64(10.5).as_nanos(), 10_500);
        assert_eq!(SimDuration::from_nanos_f64(9.8).as_nanos(), 10);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::ZERO + SimDuration::from_micros(5);
        assert_eq!(t.as_nanos(), 5_000);
        let t2 = t + SimDuration::from_nanos(10);
        assert_eq!(t2.since(t).as_nanos(), 10);
        assert_eq!((SimDuration::from_micros(4) * 2).as_nanos(), 8_000);
        assert_eq!((SimDuration::from_micros(4) / 2).as_nanos(), 2_000);
    }

    #[test]
    fn saturating_ops() {
        assert_eq!(
            SimDuration(3).saturating_sub(SimDuration(10)),
            SimDuration::ZERO
        );
    }

    #[test]
    #[should_panic(expected = "in the future")]
    fn since_panics_backwards() {
        let _ = SimTime(1).since(SimTime(2));
    }

    #[test]
    fn display() {
        assert_eq!(SimDuration::from_nanos(999).to_string(), "999ns");
        assert_eq!(SimDuration::from_micros_f64(10.5).to_string(), "10.500us");
        assert_eq!(SimDuration::from_millis(200).to_string(), "200.000ms");
        assert_eq!(SimDuration::from_secs(2).to_string(), "2.000s");
    }

    #[test]
    fn sum() {
        let total: SimDuration = (1..=4).map(SimDuration::from_micros).sum();
        assert_eq!(total.as_nanos(), 10_000);
    }
}
