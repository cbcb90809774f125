//! Simulated time base.
//!
//! All simulators in the workspace express time in [`Cycle`]s of some
//! reference clock. A [`Freq`] attaches a physical frequency to a cycle
//! count so that results can be reported in nanoseconds or seconds, and a
//! [`SimClock`] is the mutable "now" owned by a simulation loop.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, measured in cycles of a reference clock.
///
/// `Cycle` is an ordered, copyable newtype over `u64` ([C-NEWTYPE]): it
/// cannot be confused with byte counts or identifiers.
///
/// # Example
///
/// ```
/// use simkit::Cycle;
/// let t = Cycle(100) + 20;
/// assert_eq!(t, Cycle(120));
/// assert_eq!(t - Cycle(100), 20);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycle(pub u64);

impl Cycle {
    /// The zero of simulated time.
    pub const ZERO: Cycle = Cycle(0);

    /// Returns the raw cycle count.
    #[inline]
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Saturating subtraction; returns the number of cycles between `self`
    /// and an earlier time, or 0 if `earlier` is in the future.
    #[inline]
    pub fn saturating_since(self, earlier: Cycle) -> u64 {
        self.0.saturating_sub(earlier.0)
    }
}

impl Add<u64> for Cycle {
    type Output = Cycle;
    #[inline]
    fn add(self, rhs: u64) -> Cycle {
        Cycle(self.0 + rhs)
    }
}

impl AddAssign<u64> for Cycle {
    #[inline]
    fn add_assign(&mut self, rhs: u64) {
        self.0 += rhs;
    }
}

impl Sub<Cycle> for Cycle {
    type Output = u64;
    /// Number of cycles elapsed between two points in time.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `rhs` is later than `self`.
    #[inline]
    fn sub(self, rhs: Cycle) -> u64 {
        debug_assert!(self.0 >= rhs.0, "negative cycle interval");
        self.0 - rhs.0
    }
}

impl fmt::Display for Cycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}cyc", self.0)
    }
}

/// A clock frequency, used to convert between cycles and wall-clock time.
///
/// # Example
///
/// ```
/// use simkit::{Cycle, Freq};
/// let ddr = Freq::mhz(1600); // DDR4-3200 command clock
/// assert_eq!(ddr.hz(), 1_600_000_000);
/// // 1600 cycles at 1.6 GHz is exactly 1 microsecond:
/// assert!((ddr.cycles_to_ns(1600) - 1000.0).abs() < 1e-9);
/// assert_eq!(ddr.ns_to_cycles(1000.0), 1600);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Freq {
    hz: u64,
}

impl Freq {
    /// Creates a frequency from hertz.
    ///
    /// # Panics
    ///
    /// Panics if `hz` is zero.
    pub fn hz_new(hz: u64) -> Freq {
        assert!(hz > 0, "frequency must be non-zero");
        Freq { hz }
    }

    /// Creates a frequency from megahertz.
    pub fn mhz(mhz: u64) -> Freq {
        Freq::hz_new(mhz * 1_000_000)
    }

    /// Creates a frequency from gigahertz.
    pub fn ghz(ghz: u64) -> Freq {
        Freq::hz_new(ghz * 1_000_000_000)
    }

    /// Returns the frequency in hertz.
    #[inline]
    pub fn hz(self) -> u64 {
        self.hz
    }

    /// Converts a cycle count at this frequency to nanoseconds.
    #[inline]
    pub fn cycles_to_ns(self, cycles: u64) -> f64 {
        cycles as f64 * 1e9 / self.hz as f64
    }

    /// Converts a duration in nanoseconds to a cycle count (rounded up).
    #[inline]
    pub fn ns_to_cycles(self, ns: f64) -> u64 {
        (ns * self.hz as f64 / 1e9).ceil() as u64
    }

    /// Converts a cycle count at this frequency to seconds.
    #[inline]
    pub fn cycles_to_secs(self, cycles: u64) -> f64 {
        cycles as f64 / self.hz as f64
    }
}

/// The mutable "now" of a simulation loop.
///
/// A `SimClock` can only move forward; [`SimClock::advance_to`] enforces
/// monotonicity, which catches event-ordering bugs early.
///
/// # Example
///
/// ```
/// use simkit::{Cycle, Freq, SimClock};
/// let mut clk = SimClock::new(Freq::ghz(2));
/// clk.advance_to(Cycle(2_000));
/// assert_eq!(clk.now(), Cycle(2_000));
/// assert!((clk.elapsed_ns() - 1000.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct SimClock {
    now: Cycle,
    freq: Freq,
}

impl SimClock {
    /// Creates a clock at time zero with the given frequency.
    pub fn new(freq: Freq) -> SimClock {
        SimClock {
            now: Cycle::ZERO,
            freq,
        }
    }

    /// Returns the current simulated time.
    #[inline]
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Returns the reference frequency of this clock.
    #[inline]
    pub fn freq(&self) -> Freq {
        self.freq
    }

    /// Advances time to `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is earlier than the current time: simulated time never
    /// flows backwards.
    pub fn advance_to(&mut self, t: Cycle) {
        assert!(
            t >= self.now,
            "clock moved backwards: now={} target={}",
            self.now,
            t
        );
        self.now = t;
    }

    /// Advances time by `cycles`.
    pub fn advance_by(&mut self, cycles: u64) {
        self.now += cycles;
    }

    /// Elapsed simulated time in nanoseconds since time zero.
    pub fn elapsed_ns(&self) -> f64 {
        self.freq.cycles_to_ns(self.now.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_arithmetic() {
        let a = Cycle(10);
        assert_eq!(a + 5, Cycle(15));
        assert_eq!(Cycle(15) - a, 5);
        assert_eq!(a.saturating_since(Cycle(20)), 0);
        assert_eq!(Cycle(20).saturating_since(a), 10);
    }

    #[test]
    fn cycle_ordering_and_display() {
        assert!(Cycle(1) < Cycle(2));
        assert_eq!(Cycle(7).to_string(), "7cyc");
        assert_eq!(Cycle::default(), Cycle::ZERO);
    }

    #[test]
    #[cfg(debug_assertions)] // the check is a debug_assert
    #[should_panic(expected = "negative cycle interval")]
    fn cycle_negative_interval_panics() {
        let _ = Cycle(1) - Cycle(2);
    }

    #[test]
    fn freq_conversions_round_trip() {
        let f = Freq::mhz(1600);
        for cycles in [0u64, 1, 17, 1600, 123_456] {
            let ns = f.cycles_to_ns(cycles);
            assert_eq!(f.ns_to_cycles(ns), cycles);
        }
    }

    #[test]
    fn freq_ghz_and_secs() {
        let f = Freq::ghz(3);
        assert_eq!(f.hz(), 3_000_000_000);
        assert!((f.cycles_to_secs(3_000_000_000) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn freq_zero_rejected() {
        let _ = Freq::hz_new(0);
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut clk = SimClock::new(Freq::ghz(1));
        clk.advance_by(10);
        clk.advance_to(Cycle(10)); // advancing to "now" is allowed
        clk.advance_to(Cycle(25));
        assert_eq!(clk.now(), Cycle(25));
        assert!((clk.elapsed_ns() - 25.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "clock moved backwards")]
    fn clock_rejects_time_travel() {
        let mut clk = SimClock::new(Freq::ghz(1));
        clk.advance_to(Cycle(10));
        clk.advance_to(Cycle(9));
    }
}
