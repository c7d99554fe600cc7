//! Simulated time: instants, durations and time-of-day arithmetic.
//!
//! The whole workspace advances in fixed steps of a [`SimDuration`]. Time is
//! kept in integer seconds so that arithmetic is exact and simulations are
//! reproducible; fractional-hour views are provided for the physics code.
//!
//! # Examples
//!
//! ```
//! use ins_sim::time::{SimTime, SimDuration};
//!
//! let start = SimTime::from_hms(6, 54, 0); // sunrise in the paper's Fig. 16
//! let t = start + SimDuration::from_minutes(66);
//! assert_eq!(t.to_string(), "08:00:00");
//! assert_eq!(t.time_of_day_hours(), 8.0);
//! ```

use core::fmt;
use core::ops::{Add, AddAssign, Mul, Sub};

use crate::units::Hours;

/// Number of seconds in a simulated day.
pub const SECONDS_PER_DAY: u64 = 24 * 3600;

/// An instant of simulated time, counted in whole seconds since the start
/// of the simulation (midnight of day 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The simulation epoch: midnight of day 0.
    pub const ZERO: Self = Self(0);

    /// Creates an instant from whole seconds since the epoch.
    #[must_use]
    pub const fn from_secs(secs: u64) -> Self {
        Self(secs)
    }

    /// Creates an instant from an hour/minute/second wall-clock on day 0.
    ///
    /// # Panics
    ///
    /// Panics if `m >= 60` or `s >= 60`.
    #[must_use]
    pub fn from_hms(h: u64, m: u64, s: u64) -> Self {
        assert!(m < 60 && s < 60, "minute and second must be below 60");
        Self(h * 3600 + m * 60 + s)
    }

    /// Seconds elapsed since the epoch.
    #[must_use]
    #[inline]
    pub const fn as_secs(self) -> u64 {
        self.0
    }

    /// Hours elapsed since the epoch, as a float.
    #[must_use]
    #[inline]
    pub fn as_hours(self) -> f64 {
        self.0 as f64 / 3600.0
    }

    /// The day index this instant falls on (0-based).
    #[must_use]
    #[inline]
    pub const fn day(self) -> u64 {
        self.0 / SECONDS_PER_DAY
    }

    /// The time of day as fractional hours in `[0, 24)`.
    ///
    /// This is what the solar model consumes: `12.0` is solar noon.
    #[must_use]
    #[inline]
    pub fn time_of_day_hours(self) -> f64 {
        (self.0 % SECONDS_PER_DAY) as f64 / 3600.0
    }

    /// The duration elapsed since an earlier instant.
    ///
    /// Returns [`SimDuration::ZERO`] if `earlier` is in the future, rather
    /// than underflowing.
    #[must_use]
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl fmt::Display for SimTime {
    /// Formats as `HH:MM:SS` within the day; multi-day instants are
    /// prefixed with the day index (`d2 07:30:00`).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let day = self.day();
        let rem = self.0 % SECONDS_PER_DAY;
        let (h, m, s) = (rem / 3600, (rem % 3600) / 60, rem % 60);
        if day > 0 {
            write!(f, "d{day} {h:02}:{m:02}:{s:02}")
        } else {
            write!(f, "{h:02}:{m:02}:{s:02}")
        }
    }
}

/// A span of simulated time in whole seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimDuration {
    /// The empty duration.
    pub const ZERO: Self = Self(0);

    /// Creates a duration from whole seconds.
    #[must_use]
    pub const fn from_secs(secs: u64) -> Self {
        Self(secs)
    }

    /// Creates a duration from whole minutes.
    #[must_use]
    pub const fn from_minutes(minutes: u64) -> Self {
        Self(minutes * 60)
    }

    /// Creates a duration from whole hours.
    #[must_use]
    pub const fn from_hours(hours: u64) -> Self {
        Self(hours * 3600)
    }

    /// Creates a duration spanning `days` whole days.
    #[must_use]
    pub const fn from_days(days: u64) -> Self {
        Self(days * SECONDS_PER_DAY)
    }

    /// The duration in whole seconds.
    #[must_use]
    #[inline]
    pub const fn as_secs(self) -> u64 {
        self.0
    }

    /// The duration as fractional hours — the unit used by the battery and
    /// energy integration code.
    #[must_use]
    #[inline]
    pub fn as_hours(self) -> Hours {
        Hours::new(self.0 as f64 / 3600.0)
    }

    /// The duration as fractional minutes.
    #[must_use]
    pub fn as_minutes(self) -> f64 {
        self.0 as f64 / 60.0
    }

    /// `true` when the duration is zero.
    #[must_use]
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Subtracts `other`, saturating at zero.
    #[must_use]
    #[inline]
    pub const fn saturating_sub(self, other: Self) -> Self {
        Self(self.0.saturating_sub(other.0))
    }
}

impl Add for SimDuration {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        Self(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: Self) {
        self.0 += rhs.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = Self;
    fn mul(self, rhs: u64) -> Self {
        Self(self.0 * rhs)
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
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (h, m, s) = (self.0 / 3600, (self.0 % 3600) / 60, self.0 % 60);
        write!(f, "{h:02}:{m:02}:{s:02}")
    }
}

/// A fixed-timestep simulation clock.
///
/// Components are stepped once per tick; the clock owns the global notion of
/// "now" and the step width.
///
/// # Examples
///
/// ```
/// use ins_sim::time::{SimClock, SimDuration, SimTime};
///
/// let mut clock = SimClock::new(SimDuration::from_secs(1));
/// clock.tick();
/// clock.tick();
/// assert_eq!(clock.now(), SimTime::from_secs(2));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimClock {
    now: SimTime,
    dt: SimDuration,
}

impl SimClock {
    /// Creates a clock at the epoch with the given step width.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is zero: a zero-width step would never advance time.
    #[must_use]
    pub fn new(dt: SimDuration) -> Self {
        Self::starting_at(SimTime::ZERO, dt)
    }

    /// Creates a clock starting at an arbitrary instant.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is zero.
    #[must_use]
    pub fn starting_at(start: SimTime, dt: SimDuration) -> Self {
        assert!(!dt.is_zero(), "clock step must be non-zero");
        Self { now: start, dt }
    }

    /// The current instant.
    #[must_use]
    #[inline]
    pub const fn now(&self) -> SimTime {
        self.now
    }

    /// The step width.
    #[must_use]
    #[inline]
    pub const fn dt(&self) -> SimDuration {
        self.dt
    }

    /// Advances the clock one step and returns the new instant.
    #[inline]
    pub fn tick(&mut self) -> SimTime {
        self.now += self.dt;
        self.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hms_construction_and_display() {
        let t = SimTime::from_hms(9, 28, 0);
        assert_eq!(t.as_secs(), 9 * 3600 + 28 * 60);
        assert_eq!(t.to_string(), "09:28:00");
    }

    #[test]
    #[should_panic(expected = "minute and second must be below 60")]
    fn hms_rejects_invalid_minutes() {
        let _ = SimTime::from_hms(1, 60, 0);
    }

    #[test]
    fn multi_day_display_and_day_index() {
        let t = SimTime::from_secs(SECONDS_PER_DAY * 2 + 3600);
        assert_eq!(t.day(), 2);
        assert_eq!(t.to_string(), "d2 01:00:00");
        assert_eq!(t.time_of_day_hours(), 1.0);
    }

    #[test]
    fn duration_conversions() {
        let d = SimDuration::from_minutes(90);
        assert_eq!(d.as_secs(), 5400);
        assert_eq!(d.as_hours().value(), 1.5);
        assert_eq!(d.as_minutes(), 90.0);
        assert_eq!(SimDuration::from_days(1).as_secs(), SECONDS_PER_DAY);
    }

    #[test]
    fn instant_arithmetic() {
        let a = SimTime::from_hms(8, 30, 0);
        let b = a + SimDuration::from_hours(3);
        assert_eq!(b - a, SimDuration::from_hours(3));
        assert_eq!(b.since(a), SimDuration::from_hours(3));
        // Subtraction saturates instead of panicking.
        assert_eq!(a.since(b), SimDuration::ZERO);
        assert_eq!(a - SimDuration::from_days(1), SimTime::ZERO);
    }

    #[test]
    fn clock_ticks_accumulate() {
        let mut c = SimClock::new(SimDuration::from_secs(5));
        for _ in 0..12 {
            c.tick();
        }
        assert_eq!(c.now(), SimTime::from_secs(60));
        assert_eq!(c.dt(), SimDuration::from_secs(5));
    }

    #[test]
    #[should_panic(expected = "clock step must be non-zero")]
    fn clock_rejects_zero_step() {
        let _ = SimClock::new(SimDuration::ZERO);
    }

    #[test]
    fn duration_saturating_sub() {
        let a = SimDuration::from_secs(10);
        let b = SimDuration::from_secs(25);
        assert_eq!(a.saturating_sub(b), SimDuration::ZERO);
        assert_eq!(b.saturating_sub(a), SimDuration::from_secs(15));
    }
}
