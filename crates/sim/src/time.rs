//! Nanosecond-precision simulated time.
//!
//! All of the reproduction works on a single monotonically increasing
//! simulated clock. Two newtypes keep instants and durations apart:
//!
//! * [`Nanos`] — an *instant*: nanoseconds elapsed since the start of the
//!   simulation (or of a trace).
//! * [`Span`] — a *duration*: a non-negative number of nanoseconds.
//!
//! Both wrap a `u64`, which covers roughly 584 years of simulated time —
//! far beyond any trace in the paper (the longest is about a week).
//!
//! Arithmetic that could underflow (e.g. subtracting a later instant from
//! an earlier one) is exposed through `checked_*` / `saturating_*`
//! variants; the plain operators panic in debug builds exactly like the
//! standard integer types, which is the behaviour we want while replaying
//! traces (a negative duration is always a logic error).

use core::fmt;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant on the simulated clock, in nanoseconds since time zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Nanos(pub u64);

/// A non-negative duration, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Span(pub u64);

/// Nanoseconds per microsecond.
const NANOS_PER_MICRO: u64 = 1_000;
/// Nanoseconds per millisecond.
const NANOS_PER_MILLI: u64 = 1_000_000;
/// Nanoseconds per second.
const NANOS_PER_SEC: u64 = 1_000_000_000;

impl Nanos {
    /// The origin of simulated time.
    pub const ZERO: Nanos = Nanos(0);
    /// The largest representable instant.
    pub const MAX: Nanos = Nanos(u64::MAX);

    /// Builds an instant `secs` seconds after time zero.
    pub const fn from_secs(secs: u64) -> Self {
        Nanos(secs * NANOS_PER_SEC)
    }

    /// Builds an instant `ms` milliseconds after time zero.
    pub const fn from_millis(ms: u64) -> Self {
        Nanos(ms * NANOS_PER_MILLI)
    }

    /// Builds an instant `us` microseconds after time zero.
    pub const fn from_micros(us: u64) -> Self {
        Nanos(us * NANOS_PER_MICRO)
    }

    /// Builds an instant from fractional seconds, rounding to the nearest
    /// nanosecond. Negative inputs clamp to time zero.
    pub fn from_secs_f64(secs: f64) -> Self {
        if secs <= 0.0 {
            return Nanos::ZERO;
        }
        Nanos((secs * NANOS_PER_SEC as f64).round() as u64)
    }

    /// This instant expressed in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// This instant expressed in fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_MILLI as f64
    }

    /// Duration since `earlier`, clamped to zero if `earlier` is later.
    pub fn saturating_since(self, earlier: Nanos) -> Span {
        Span(self.0.saturating_sub(earlier.0))
    }

    /// Adds a span, saturating at [`Nanos::MAX`].
    pub fn saturating_add(self, span: Span) -> Nanos {
        Nanos(self.0.saturating_add(span.0))
    }

    /// Subtracts a span, saturating at time zero.
    pub fn saturating_sub(self, span: Span) -> Nanos {
        Nanos(self.0.saturating_sub(span.0))
    }
}

impl Span {
    /// The empty duration.
    pub const ZERO: Span = Span(0);
    /// The largest representable duration.
    pub const MAX: Span = Span(u64::MAX);

    /// Builds a span of `secs` seconds.
    pub const fn from_secs(secs: u64) -> Self {
        Span(secs * NANOS_PER_SEC)
    }

    /// Builds a span of `ms` milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Span(ms * NANOS_PER_MILLI)
    }

    /// Builds a span of `us` microseconds.
    pub const fn from_micros(us: u64) -> Self {
        Span(us * NANOS_PER_MICRO)
    }

    /// Builds a span from fractional seconds, rounding to the nearest
    /// nanosecond. Negative inputs clamp to zero.
    pub fn from_secs_f64(secs: f64) -> Self {
        if secs <= 0.0 {
            return Span::ZERO;
        }
        Span((secs * NANOS_PER_SEC as f64).round() as u64)
    }

    /// This span in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// This span in fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_MILLI as f64
    }

    /// True if this is the empty duration.
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction of spans.
    pub fn saturating_sub(self, other: Span) -> Span {
        Span(self.0.saturating_sub(other.0))
    }

    /// Saturating addition of spans.
    pub fn saturating_add(self, other: Span) -> Span {
        Span(self.0.saturating_add(other.0))
    }

    /// Multiplies by an integer factor, saturating on overflow.
    pub fn saturating_mul(self, k: u64) -> Span {
        Span(self.0.saturating_mul(k))
    }
}

impl Add<Span> for Nanos {
    type Output = Nanos;
    fn add(self, rhs: Span) -> Nanos {
        Nanos(self.0 + rhs.0)
    }
}

impl AddAssign<Span> for Nanos {
    fn add_assign(&mut self, rhs: Span) {
        self.0 += rhs.0;
    }
}

impl Sub<Span> for Nanos {
    type Output = Nanos;
    fn sub(self, rhs: Span) -> Nanos {
        Nanos(self.0 - rhs.0)
    }
}

impl Sub<Nanos> for Nanos {
    type Output = Span;
    fn sub(self, rhs: Nanos) -> Span {
        Span(self.0 - rhs.0)
    }
}

impl Add<Span> for Span {
    type Output = Span;
    fn add(self, rhs: Span) -> Span {
        Span(self.0 + rhs.0)
    }
}

impl AddAssign<Span> for Span {
    fn add_assign(&mut self, rhs: Span) {
        self.0 += rhs.0;
    }
}

impl Sub<Span> for Span {
    type Output = Span;
    fn sub(self, rhs: Span) -> Span {
        Span(self.0 - rhs.0)
    }
}

impl SubAssign<Span> for Span {
    fn sub_assign(&mut self, rhs: Span) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Span {
    type Output = Span;
    fn mul(self, rhs: u64) -> Span {
        Span(self.0 * rhs)
    }
}

impl Div<u64> for Span {
    type Output = Span;
    fn div(self, rhs: u64) -> Span {
        Span(self.0 / rhs)
    }
}

impl Div<Span> for Span {
    /// How many times `rhs` fits into `self`, as a float ratio.
    type Output = f64;
    fn div(self, rhs: Span) -> f64 {
        self.0 as f64 / rhs.0 as f64
    }
}

impl fmt::Display for Nanos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", format_nanos(self.0))
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", format_nanos(self.0))
    }
}

/// Human-readable rendering picking the most natural unit.
fn format_nanos(n: u64) -> String {
    if n == 0 {
        "0s".to_string()
    } else if n.is_multiple_of(NANOS_PER_SEC) {
        format!("{}s", n / NANOS_PER_SEC)
    } else if n >= NANOS_PER_SEC {
        format!("{:.3}s", n as f64 / NANOS_PER_SEC as f64)
    } else if n >= NANOS_PER_MILLI {
        format!("{:.3}ms", n as f64 / NANOS_PER_MILLI as f64)
    } else if n >= NANOS_PER_MICRO {
        format!("{:.3}us", n as f64 / NANOS_PER_MICRO as f64)
    } else {
        format!("{n}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(Nanos::from_secs(2), Nanos(2_000_000_000));
        assert_eq!(Nanos::from_millis(2), Nanos(2_000_000));
        assert_eq!(Nanos::from_micros(2), Nanos(2_000));
        assert_eq!(Span::from_secs(3), Span(3_000_000_000));
        assert_eq!(Span::from_millis(3), Span(3_000_000));
        assert_eq!(Span::from_micros(3), Span(3_000));
    }

    #[test]
    fn float_round_trip() {
        let t = Nanos::from_secs_f64(1.25);
        assert_eq!(t, Nanos(1_250_000_000));
        assert!((t.as_secs_f64() - 1.25).abs() < 1e-12);
        let s = Span::from_secs_f64(0.0005);
        assert_eq!(s, Span(500_000));
        assert!((s.as_millis_f64() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn negative_float_clamps_to_zero() {
        assert_eq!(Nanos::from_secs_f64(-1.0), Nanos::ZERO);
        assert_eq!(Span::from_secs_f64(-0.001), Span::ZERO);
    }

    #[test]
    fn instant_duration_arithmetic() {
        let a = Nanos::from_millis(100);
        let d = Span::from_millis(20);
        assert_eq!(a + d, Nanos::from_millis(120));
        assert_eq!((a + d) - a, Span::from_millis(20));
        assert_eq!(a - d, Nanos::from_millis(80));
    }

    #[test]
    fn saturating_arithmetic_clamps() {
        let early = Nanos::from_millis(10);
        let late = Nanos::from_millis(30);
        assert_eq!(early.saturating_since(late), Span::ZERO);
        assert_eq!(early.saturating_sub(Span::from_secs(1)), Nanos::ZERO);
        assert_eq!(Nanos::MAX.saturating_add(Span::from_secs(1)), Nanos::MAX);
    }

    #[test]
    fn span_scalar_ops() {
        let s = Span::from_millis(10);
        assert_eq!(s * 3, Span::from_millis(30));
        assert_eq!(s / 2, Span::from_millis(5));
        assert!((Span::from_secs(1) / Span::from_millis(250) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn ordering_is_chronological() {
        assert!(Nanos::from_millis(1) < Nanos::from_millis(2));
        assert!(Span::from_micros(999) < Span::from_millis(1));
    }

    #[test]
    fn display_picks_units() {
        assert_eq!(Nanos::ZERO.to_string(), "0s");
        assert_eq!(Nanos::from_secs(2).to_string(), "2s");
        assert_eq!(Span::from_millis(215).to_string(), "215.000ms");
        assert_eq!(Span(1_500).to_string(), "1.500us");
        assert_eq!(Span(999).to_string(), "999ns");
        assert_eq!(Span(1_500_000_000).to_string(), "1.500s");
    }
}
