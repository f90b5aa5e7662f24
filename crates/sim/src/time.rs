//! Strongly-typed simulation time.
//!
//! All timing in the simulator is expressed in clock cycles of a named clock
//! domain. A [`Cycles`] value is only meaningful together with a
//! [`Frequency`]; conversion to wall-clock time happens at reporting
//! boundaries only, so no floating-point error accumulates inside the
//! cycle-level models.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A number of clock cycles.
///
/// Newtype over `u64` so cycle counts cannot be accidentally mixed with item
/// counts or byte counts (C-NEWTYPE).
///
/// # Example
///
/// ```
/// use looplynx_sim::time::{Cycles, Frequency};
///
/// let lat = Cycles::new(285_000);
/// let f = Frequency::from_mhz(285.0);
/// assert!((lat.to_seconds(f) - 0.001).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycles(u64);

impl Cycles {
    /// Zero cycles.
    pub const ZERO: Cycles = Cycles(0);

    /// Creates a cycle count.
    pub const fn new(n: u64) -> Self {
        Cycles(n)
    }

    /// Returns the raw cycle count.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Returns the raw cycle count as `f64` (for ratio reporting).
    pub fn as_f64(self) -> f64 {
        self.0 as f64
    }

    /// Converts a (possibly fractional) cycle estimate into a whole number of
    /// cycles, rounding up — hardware cannot finish mid-cycle.
    ///
    /// # Panics
    ///
    /// Panics if `x` is negative or not finite.
    pub fn from_f64_ceil(x: f64) -> Self {
        assert!(x.is_finite() && x >= 0.0, "invalid cycle estimate: {x}");
        Cycles(x.ceil() as u64)
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.saturating_sub(rhs.0))
    }

    /// The larger of two cycle counts (used when two activities overlap and
    /// the slower one dominates).
    pub fn max(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.max(rhs.0))
    }

    /// The smaller of two cycle counts.
    pub fn min(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.min(rhs.0))
    }

    /// Converts this cycle count to seconds under the given clock.
    pub fn to_seconds(self, freq: Frequency) -> f64 {
        self.0 as f64 / freq.as_hz()
    }

    /// Converts this cycle count to milliseconds under the given clock.
    pub fn to_millis(self, freq: Frequency) -> f64 {
        self.to_seconds(freq) * 1e3
    }
}

impl Add for Cycles {
    type Output = Cycles;
    fn add(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 + rhs.0)
    }
}

impl AddAssign for Cycles {
    fn add_assign(&mut self, rhs: Cycles) {
        self.0 += rhs.0;
    }
}

impl Sub for Cycles {
    type Output = Cycles;
    fn sub(self, rhs: Cycles) -> Cycles {
        Cycles(
            self.0
                .checked_sub(rhs.0)
                .expect("cycle subtraction underflow"),
        )
    }
}

impl SubAssign for Cycles {
    fn sub_assign(&mut self, rhs: Cycles) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for Cycles {
    type Output = Cycles;
    fn mul(self, rhs: u64) -> Cycles {
        Cycles(self.0 * rhs)
    }
}

impl Div<u64> for Cycles {
    type Output = Cycles;
    fn div(self, rhs: u64) -> Cycles {
        Cycles(self.0 / rhs)
    }
}

impl Sum for Cycles {
    fn sum<I: Iterator<Item = Cycles>>(iter: I) -> Cycles {
        iter.fold(Cycles::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} cyc", self.0)
    }
}

impl From<u64> for Cycles {
    fn from(n: u64) -> Self {
        Cycles(n)
    }
}

/// A clock frequency.
///
/// # Example
///
/// ```
/// use looplynx_sim::time::Frequency;
///
/// let f = Frequency::from_mhz(285.0);
/// assert_eq!(f.as_hz(), 285e6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Frequency {
    hz: f64,
}

impl Frequency {
    /// Creates a frequency from hertz.
    ///
    /// # Panics
    ///
    /// Panics if `hz` is not strictly positive and finite.
    pub fn from_hz(hz: f64) -> Self {
        assert!(hz.is_finite() && hz > 0.0, "invalid frequency: {hz} Hz");
        Frequency { hz }
    }

    /// Creates a frequency from megahertz.
    pub fn from_mhz(mhz: f64) -> Self {
        Self::from_hz(mhz * 1e6)
    }

    /// Returns the frequency in hertz.
    pub fn as_hz(self) -> f64 {
        self.hz
    }

    /// Returns the frequency in megahertz.
    pub fn as_mhz(self) -> f64 {
        self.hz / 1e6
    }

    /// Number of whole cycles elapsed in `seconds` (rounded up).
    pub fn cycles_in_seconds(self, seconds: f64) -> Cycles {
        Cycles::from_f64_ceil(seconds * self.hz)
    }

    /// Converts a byte-per-second rate into bytes-per-cycle under this clock.
    pub fn bytes_per_cycle(self, bytes_per_second: f64) -> f64 {
        bytes_per_second / self.hz
    }
}

impl fmt::Display for Frequency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} MHz", self.as_mhz())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycles_arithmetic() {
        let a = Cycles::new(10);
        let b = Cycles::new(4);
        assert_eq!((a + b).as_u64(), 14);
        assert_eq!((a - b).as_u64(), 6);
        assert_eq!((a * 3).as_u64(), 30);
        assert_eq!((a / 2).as_u64(), 5);
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
    }

    #[test]
    fn cycles_saturating_sub_clamps_to_zero() {
        assert_eq!(Cycles::new(3).saturating_sub(Cycles::new(5)), Cycles::ZERO);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn cycles_sub_underflow_panics() {
        let _ = Cycles::new(3) - Cycles::new(5);
    }

    #[test]
    fn cycles_sum() {
        let total: Cycles = (1..=4).map(Cycles::new).sum();
        assert_eq!(total.as_u64(), 10);
    }

    #[test]
    fn from_f64_rounds_up() {
        assert_eq!(Cycles::from_f64_ceil(10.01).as_u64(), 11);
        assert_eq!(Cycles::from_f64_ceil(10.0).as_u64(), 10);
    }

    #[test]
    #[should_panic(expected = "invalid cycle estimate")]
    fn from_f64_rejects_negative() {
        let _ = Cycles::from_f64_ceil(-1.0);
    }

    #[test]
    fn frequency_conversions() {
        let f = Frequency::from_mhz(285.0);
        assert!((f.as_hz() - 285e6).abs() < 1.0);
        // 8.49 GB/s on the 285 MHz clock is just under one 32-byte datapack
        // per cycle — the paper's burst-size design point.
        let bpc = f.bytes_per_cycle(8.49e9);
        assert!(bpc > 29.0 && bpc < 30.0, "bytes/cycle {bpc}");
    }

    #[test]
    fn wall_clock_roundtrip() {
        let f = Frequency::from_mhz(200.0);
        let c = f.cycles_in_seconds(0.5);
        assert_eq!(c.as_u64(), 100_000_000);
        assert!((c.to_seconds(f) - 0.5).abs() < 1e-12);
        assert!((c.to_millis(f) - 500.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "invalid frequency")]
    fn frequency_rejects_zero() {
        let _ = Frequency::from_hz(0.0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Cycles::new(42).to_string(), "42 cyc");
        assert_eq!(Frequency::from_mhz(285.0).to_string(), "285.0 MHz");
    }
}
