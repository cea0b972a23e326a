//! Simulation time and durations.
//!
//! Simulation time is represented as seconds in an `f64`. The newtypes
//! [`SimTime`] and [`SimDuration`] keep instants and intervals apart at the
//! type level (mixing them up is a classic simulation bug) and provide a
//! *total* ordering so they can be used as keys in the event queue.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant on the simulation clock, in seconds since the start of the run.
///
/// `SimTime` implements a total ordering; constructing it from a NaN value is
/// a programming error and panics (see [`SimTime::from_secs`]).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SimTime(f64);

/// A length of simulated time, in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SimDuration(f64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0.0);

    /// A time later than every time a simulation will ever reach.
    pub const MAX: SimTime = SimTime(f64::MAX);

    /// Creates a time from seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is NaN.
    #[must_use]
    pub fn from_secs(secs: f64) -> Self {
        assert!(!secs.is_nan(), "simulation time must not be NaN");
        SimTime(secs)
    }

    /// Creates a time from milliseconds.
    #[must_use]
    pub fn from_millis(millis: f64) -> Self {
        Self::from_secs(millis / 1_000.0)
    }

    /// Returns the time as seconds.
    #[must_use]
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// Returns the time as milliseconds.
    #[must_use]
    pub fn as_millis(self) -> f64 {
        self.0 * 1_000.0
    }

    /// Duration elapsed since `earlier`. Returns [`SimDuration::ZERO`] if
    /// `earlier` is in the future.
    #[must_use]
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        if earlier.0 > self.0 {
            SimDuration::ZERO
        } else {
            SimDuration(self.0 - earlier.0)
        }
    }

    /// Returns the later of two times.
    #[must_use]
    pub fn max(self, other: SimTime) -> SimTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// Returns the earlier of two times.
    #[must_use]
    pub fn min(self, other: SimTime) -> SimTime {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0.0);

    /// A duration longer than any simulation run.
    pub const MAX: SimDuration = SimDuration(f64::MAX);

    /// Creates a duration from seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is NaN or negative.
    #[must_use]
    pub fn from_secs(secs: f64) -> Self {
        assert!(!secs.is_nan(), "duration must not be NaN");
        assert!(secs >= 0.0, "duration must not be negative, got {secs}");
        SimDuration(secs)
    }

    /// Creates a duration from milliseconds.
    #[must_use]
    pub fn from_millis(millis: f64) -> Self {
        Self::from_secs(millis / 1_000.0)
    }

    /// Creates a possibly-infinite duration; negative input is clamped to zero.
    #[must_use]
    pub fn from_secs_saturating(secs: f64) -> Self {
        if secs.is_nan() || secs <= 0.0 {
            SimDuration::ZERO
        } else {
            SimDuration(secs)
        }
    }

    /// Returns the duration as seconds.
    #[must_use]
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// Returns the duration as milliseconds.
    #[must_use]
    pub fn as_millis(self) -> f64 {
        self.0 * 1_000.0
    }

    /// Whether this duration is zero.
    #[must_use]
    pub fn is_zero(self) -> bool {
        self.0 == 0.0
    }

    /// Whether this duration is infinite (or `MAX`).
    #[must_use]
    pub fn is_infinite(self) -> bool {
        self.0.is_infinite() || self.0 == f64::MAX
    }

    /// Returns the smaller of two durations.
    #[must_use]
    pub fn min(self, other: SimDuration) -> SimDuration {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }

    /// Returns the larger of two durations.
    #[must_use]
    pub fn max(self, other: SimDuration) -> SimDuration {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }
}

impl Eq for SimTime {}

impl Ord for SimTime {
    fn cmp(&self, other: &Self) -> Ordering {
        // lint: allow(F1) — SimTime IS the total-order wrapper: every
        // constructor rejects NaN, so partial_cmp is total here.
        self.0.partial_cmp(&other.0).expect("SimTime is never NaN")
    }
}

impl PartialOrd for SimTime {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Eq for SimDuration {}

impl Ord for SimDuration {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0
            // lint: allow(F1) — SimDuration IS the total-order wrapper:
            // every constructor rejects NaN, so partial_cmp is total here.
            .partial_cmp(&other.0)
            .expect("SimDuration is never NaN")
    }
}

impl PartialOrd for SimDuration {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;

    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;

    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;

    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration::from_secs_saturating(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;

    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;

    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration::from_secs_saturating(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<f64> for SimDuration {
    type Output = SimDuration;

    fn mul(self, rhs: f64) -> SimDuration {
        SimDuration::from_secs_saturating(self.0 * rhs)
    }
}

impl Div<f64> for SimDuration {
    type Output = SimDuration;

    fn div(self, rhs: f64) -> SimDuration {
        SimDuration::from_secs_saturating(self.0 / rhs)
    }
}

impl Div<SimDuration> for SimDuration {
    type Output = f64;

    fn div(self, rhs: SimDuration) -> f64 {
        self.0 / rhs.0
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.0)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.0)
    }
}

impl From<SimDuration> for f64 {
    fn from(d: SimDuration) -> f64 {
        d.0
    }
}

impl From<SimTime> for f64 {
    fn from(t: SimTime) -> f64 {
        t.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_round_trips() {
        let t = SimTime::from_secs(10.0);
        let d = SimDuration::from_secs(2.5);
        assert_eq!((t + d).as_secs(), 12.5);
        assert_eq!((t + d) - d, t);
        assert_eq!((t + d) - t, d);
    }

    #[test]
    fn subtracting_later_time_saturates() {
        let a = SimTime::from_secs(1.0);
        let b = SimTime::from_secs(5.0);
        assert_eq!(a - b, SimDuration::ZERO);
        assert_eq!(a.saturating_since(b), SimDuration::ZERO);
        assert_eq!(b.saturating_since(a), SimDuration::from_secs(4.0));
    }

    #[test]
    fn ordering_is_total() {
        let mut times = vec![
            SimTime::from_secs(3.0),
            SimTime::from_secs(1.0),
            SimTime::from_secs(2.0),
        ];
        times.sort();
        assert_eq!(
            times,
            vec![
                SimTime::from_secs(1.0),
                SimTime::from_secs(2.0),
                SimTime::from_secs(3.0)
            ]
        );
    }

    #[test]
    #[should_panic(expected = "negative")]
    fn negative_duration_panics() {
        let _ = SimDuration::from_secs(-1.0);
    }

    #[test]
    fn millis_conversions() {
        assert_eq!(SimTime::from_millis(1500.0).as_secs(), 1.5);
        assert_eq!(SimDuration::from_millis(250.0).as_secs(), 0.25);
        assert_eq!(SimDuration::from_secs(0.25).as_millis(), 250.0);
    }

    #[test]
    fn duration_scaling() {
        let d = SimDuration::from_secs(4.0);
        assert_eq!((d * 0.5).as_secs(), 2.0);
        assert_eq!((d / 2.0).as_secs(), 2.0);
        assert_eq!(d / SimDuration::from_secs(2.0), 2.0);
    }

    #[test]
    fn min_max_helpers() {
        let a = SimTime::from_secs(1.0);
        let b = SimTime::from_secs(2.0);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        let da = SimDuration::from_secs(1.0);
        let db = SimDuration::from_secs(2.0);
        assert_eq!(da.max(db), db);
        assert_eq!(da.min(db), da);
    }

    #[test]
    fn saturating_constructor_clamps() {
        assert_eq!(SimDuration::from_secs_saturating(-3.0), SimDuration::ZERO);
        assert_eq!(
            SimDuration::from_secs_saturating(f64::NAN),
            SimDuration::ZERO
        );
        assert_eq!(SimDuration::from_secs_saturating(3.0).as_secs(), 3.0);
    }
}
