//! Logical simulation time.
//!
//! [`SimTime`] is an absolute instant (nanoseconds since simulation start)
//! and [`SimDuration`] a span between instants. [`Clock`] is a cheaply
//! clonable shared handle that components hold to observe and advance time.

use std::cell::Cell;
use std::fmt;
use std::ops::{Add, AddAssign, Sub};
use std::rc::Rc;

/// An absolute instant in simulated time, in nanoseconds since simulation
/// start.
///
/// `SimTime` is a newtype over `u64`, giving the simulation roughly 584 years
/// of range — far beyond any experiment here.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as an "infinitely far" horizon.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from raw nanoseconds since the epoch.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimTime(nanos)
    }

    /// Creates an instant from milliseconds since the epoch.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Creates an instant from seconds since the epoch.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * 1_000_000_000)
    }

    /// Nanoseconds since the epoch.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Milliseconds since the epoch (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Seconds since the epoch as a float, for reporting.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The duration elapsed since `earlier`.
    ///
    /// Returns [`SimDuration::ZERO`] if `earlier` is in the future, mirroring
    /// `Instant::saturating_duration_since`.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Checked addition, `None` on overflow.
    pub fn checked_add(self, d: SimDuration) -> Option<SimTime> {
        self.0.checked_add(d.0).map(SimTime)
    }
}

impl SimDuration {
    /// The empty duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from raw nanoseconds.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimDuration(nanos)
    }

    /// Creates a duration from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Creates a duration from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Creates a duration from seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * 1_000_000_000)
    }

    /// Creates a duration from whole minutes.
    pub const fn from_mins(mins: u64) -> Self {
        SimDuration(mins * 60 * 1_000_000_000)
    }

    /// Creates a duration from whole hours.
    pub const fn from_hours(hours: u64) -> Self {
        SimDuration(hours * 3_600 * 1_000_000_000)
    }

    /// Creates a duration from whole days.
    pub const fn from_days(days: u64) -> Self {
        SimDuration(days * 24 * 3_600 * 1_000_000_000)
    }

    /// Raw nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Milliseconds (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Seconds as a float, for reporting.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Milliseconds as a float, for reporting.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Saturating multiplication by an integer factor.
    pub fn saturating_mul(self, factor: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(factor))
    }

    /// Integer division of the duration.
    ///
    /// # Panics
    /// Panics if `divisor` is zero.
    #[allow(clippy::should_implement_trait)] // u64 divisor, not Div<Self>
    pub fn div(self, divisor: u64) -> SimDuration {
        SimDuration(self.0 / divisor)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add<SimDuration> for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub<SimDuration> for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else {
            write!(f, "{}us", self.0 / 1_000)
        }
    }
}

/// A shared, cheaply clonable handle on the simulation's logical clock.
///
/// All components of one simulated world hold clones of the same `Clock`;
/// time only moves when the scenario driver (or the [`crate::Scheduler`])
/// advances it. The clock is monotone: attempts to move it backwards are
/// ignored.
#[derive(Debug, Clone, Default)]
pub struct Clock {
    now: Rc<Cell<SimTime>>,
}

impl Clock {
    /// Creates a clock at the epoch.
    pub fn new() -> Self {
        Clock::default()
    }

    /// The current simulated instant.
    pub fn now(&self) -> SimTime {
        self.now.get()
    }

    /// Moves the clock forward by `d`.
    pub fn advance(&self, d: SimDuration) {
        self.now.set(self.now.get() + d);
    }

    /// Moves the clock to `t` if `t` is not in the past (monotonicity).
    pub fn advance_to(&self, t: SimTime) {
        if t > self.now.get() {
            self.now.set(t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_roundtrip() {
        assert_eq!(SimTime::from_millis(1500).as_nanos(), 1_500_000_000);
        assert_eq!(SimTime::from_secs(2).as_millis(), 2000);
        assert_eq!(SimDuration::from_days(1).as_millis(), 86_400_000);
        assert_eq!(SimDuration::from_hours(2).as_mins_test(), 120);
        assert_eq!(SimDuration::from_micros(1500).as_nanos(), 1_500_000);
    }

    impl SimDuration {
        fn as_mins_test(self) -> u64 {
            self.as_millis() / 60_000
        }
    }

    #[test]
    fn arithmetic_is_saturating() {
        let t = SimTime::from_secs(1);
        assert_eq!(t - SimTime::from_secs(5), SimDuration::ZERO);
        assert_eq!(
            SimTime::MAX + SimDuration::from_secs(1),
            SimTime::MAX,
            "saturates at the horizon"
        );
        assert_eq!(t.saturating_since(SimTime::from_secs(5)), SimDuration::ZERO);
    }

    #[test]
    fn clock_is_shared_and_monotone() {
        let a = Clock::new();
        let b = a.clone();
        a.advance(SimDuration::from_millis(10));
        assert_eq!(b.now().as_millis(), 10);
        b.advance_to(SimTime::from_millis(5)); // in the past: ignored
        assert_eq!(a.now().as_millis(), 10);
        b.advance_to(SimTime::from_millis(25));
        assert_eq!(a.now().as_millis(), 25);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", SimDuration::from_micros(7)), "7us");
        assert_eq!(format!("{}", SimDuration::from_millis(7)), "7.000ms");
        assert_eq!(format!("{}", SimDuration::from_secs(7)), "7.000s");
        assert_eq!(format!("{}", SimTime::from_secs(1)), "t+1.000000s");
    }

    #[test]
    fn checked_add_detects_overflow() {
        assert!(SimTime::MAX
            .checked_add(SimDuration::from_nanos(1))
            .is_none());
        assert_eq!(
            SimTime::ZERO.checked_add(SimDuration::from_secs(1)),
            Some(SimTime::from_secs(1))
        );
    }
}
