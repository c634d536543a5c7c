//! The [`Fixed`] signed fixed-point number.

use core::cmp::Ordering;
use core::fmt;
use core::marker::PhantomData;
use core::ops::{Add, AddAssign, Mul, Neg, Sub, SubAssign};

use crate::storage::Storage;

/// Signed fixed-point value with `FRAC` fractional bits backed by storage
/// word `S`.
///
/// The value represented is `raw / 2^FRAC`. All arithmetic follows the
/// hardware datapath semantics described in the crate docs: saturating
/// add/sub, widening multiply with round-to-nearest writeback.
///
/// ```
/// use qtaccel_fixed::Q8_8;
///
/// let a = Q8_8::from_f64(1.5);
/// let b = Q8_8::from_f64(2.25);
/// assert_eq!((a + b).to_f64(), 3.75);
/// assert_eq!((a * b).to_f64(), 3.375);
/// ```
pub struct Fixed<S, const FRAC: u32> {
    raw: S,
    _marker: PhantomData<fn() -> S>,
}

impl<S: Storage, const FRAC: u32> Fixed<S, FRAC> {
    /// Number of fractional bits (position of the binary point).
    pub const FRAC_BITS: u32 = FRAC;

    /// Construct from a raw two's complement word; the value is
    /// `raw / 2^FRAC`.
    #[inline]
    pub fn from_raw(raw: S) -> Self {
        // Guard against nonsensical formats at the first construction
        // point. A const assertion is not expressible over both the
        // storage generic and FRAC on stable Rust, so enforce here.
        debug_assert!(
            FRAC < S::BITS,
            "FRAC must leave at least the sign bit in the storage word"
        );
        Self {
            raw,
            _marker: PhantomData,
        }
    }

    /// The raw two's complement word.
    #[inline]
    pub fn raw(self) -> S {
        self.raw
    }

    /// Zero.
    #[inline]
    pub fn zero() -> Self {
        Self::from_raw(S::ZERO)
    }

    /// One (`2^FRAC` raw). Saturates if the format cannot represent 1.0.
    #[inline]
    pub fn one() -> Self {
        Self::from_raw(S::from_i64_saturating(1i64 << FRAC))
    }

    /// Most positive representable value.
    #[inline]
    pub fn max_value() -> Self {
        Self::from_raw(S::MAX)
    }

    /// Most negative representable value.
    #[inline]
    pub fn min_value() -> Self {
        Self::from_raw(S::MIN)
    }

    /// Smallest positive increment (`1 / 2^FRAC`).
    #[inline]
    pub fn epsilon() -> Self {
        Self::from_raw(S::from_i64_saturating(1))
    }

    /// Convert from `f64`, rounding to the nearest representable value and
    /// saturating at the format range. `NaN` maps to zero.
    #[inline]
    pub fn from_f64(x: f64) -> Self {
        let scaled = x * (1u64 << FRAC) as f64;
        Self::from_raw(S::from_f64_saturating(scaled))
    }

    /// Convert from an integer, saturating.
    #[inline]
    pub fn from_int(x: i64) -> Self {
        Self::from_raw(S::from_i64_saturating(
            x.checked_shl(FRAC)
                .unwrap_or(if x >= 0 { i64::MAX } else { i64::MIN }),
        ))
    }

    /// Exact conversion to `f64` (every fixed-point value of ≤ 53 raw bits
    /// is exactly representable).
    #[inline]
    pub fn to_f64(self) -> f64 {
        self.raw.to_f64() / (1u64 << FRAC) as f64
    }

    /// Saturating addition — the behaviour of the pipeline's adder stage.
    #[inline]
    pub fn sat_add(self, other: Self) -> Self {
        Self::from_raw(self.raw.sat_add(other.raw))
    }

    /// Saturating subtraction.
    #[inline]
    pub fn sat_sub(self, other: Self) -> Self {
        Self::from_raw(self.raw.sat_sub(other.raw))
    }

    /// Widening multiply, round-to-nearest, saturating narrow — the
    /// behaviour of one DSP slice plus the writeback truncation.
    #[inline]
    pub fn sat_mul(self, other: Self) -> Self {
        let wide = self.raw.wide_mul(other.raw);
        let rounded = S::wide_shr_round(wide, FRAC);
        Self::from_raw(S::saturate_from_wide(rounded))
    }

    /// Checked division (`None` on divide-by-zero), rounding toward zero.
    ///
    /// The accelerator datapath itself never divides; this exists for the
    /// software-side probability-table normalization (§VII-B of the paper).
    #[inline]
    pub fn checked_div(self, other: Self) -> Option<Self> {
        let dividend = S::wide_shl(self.raw.widen(), FRAC);
        let quotient = S::wide_div(dividend, other.raw.widen())?;
        Some(Self::from_raw(S::saturate_from_wide(quotient)))
    }

    /// Saturating negation.
    #[inline]
    pub fn sat_neg(self) -> Self {
        Self::from_raw(self.raw.sat_neg())
    }

    /// Absolute value (saturating at `MAX` for `MIN`).
    #[inline]
    pub fn abs(self) -> Self {
        if self.raw < S::ZERO {
            self.sat_neg()
        } else {
            self
        }
    }

    /// `1 - self`, the quantity the first pipeline stage derives from the
    /// learning rate α.
    #[inline]
    pub fn one_minus(self) -> Self {
        Self::one().sat_sub(self)
    }

    /// Larger of the two values (the Qmax comparator).
    #[inline]
    pub fn max(self, other: Self) -> Self {
        if self.raw >= other.raw {
            self
        } else {
            other
        }
    }

    /// Smaller of the two values.
    #[inline]
    pub fn min(self, other: Self) -> Self {
        if self.raw <= other.raw {
            self
        } else {
            other
        }
    }

    /// Is this value exactly zero?
    #[inline]
    pub fn is_zero(self) -> bool {
        self.raw == S::ZERO
    }

    /// Is this value negative?
    #[inline]
    pub fn is_negative(self) -> bool {
        self.raw < S::ZERO
    }

    /// Storage width in bits — the BRAM entry width for this format.
    #[inline]
    pub fn storage_bits() -> u32 {
        S::BITS
    }
}

// Manual impls so we do not require `S: Clone + Copy + ...` bounds beyond
// `Storage` (and so `Fixed` is `Copy` regardless of the phantom).
impl<S: Storage, const FRAC: u32> Clone for Fixed<S, FRAC> {
    #[inline]
    fn clone(&self) -> Self {
        *self
    }
}
impl<S: Storage, const FRAC: u32> Copy for Fixed<S, FRAC> {}

impl<S: Storage, const FRAC: u32> Default for Fixed<S, FRAC> {
    #[inline]
    fn default() -> Self {
        Self::zero()
    }
}

impl<S: Storage, const FRAC: u32> PartialEq for Fixed<S, FRAC> {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.raw == other.raw
    }
}
impl<S: Storage, const FRAC: u32> Eq for Fixed<S, FRAC> {}

impl<S: Storage, const FRAC: u32> PartialOrd for Fixed<S, FRAC> {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<S: Storage, const FRAC: u32> Ord for Fixed<S, FRAC> {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        self.raw.cmp(&other.raw)
    }
}

impl<S: Storage, const FRAC: u32> core::hash::Hash for Fixed<S, FRAC> {
    #[inline]
    fn hash<H: core::hash::Hasher>(&self, state: &mut H) {
        self.raw.hash(state);
    }
}

impl<S: Storage, const FRAC: u32> Add for Fixed<S, FRAC> {
    type Output = Self;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        self.sat_add(rhs)
    }
}

impl<S: Storage, const FRAC: u32> AddAssign for Fixed<S, FRAC> {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        *self = self.sat_add(rhs);
    }
}

impl<S: Storage, const FRAC: u32> Sub for Fixed<S, FRAC> {
    type Output = Self;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        self.sat_sub(rhs)
    }
}

impl<S: Storage, const FRAC: u32> SubAssign for Fixed<S, FRAC> {
    #[inline]
    fn sub_assign(&mut self, rhs: Self) {
        *self = self.sat_sub(rhs);
    }
}

impl<S: Storage, const FRAC: u32> Mul for Fixed<S, FRAC> {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        self.sat_mul(rhs)
    }
}

impl<S: Storage, const FRAC: u32> Neg for Fixed<S, FRAC> {
    type Output = Self;
    #[inline]
    fn neg(self) -> Self {
        self.sat_neg()
    }
}

impl<S: Storage, const FRAC: u32> fmt::Debug for Fixed<S, FRAC> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Fixed<{}.{}>({}; raw={})",
            S::BITS - FRAC,
            FRAC,
            self.to_f64(),
            self.raw.to_i64()
        )
    }
}

impl<S: Storage, const FRAC: u32> fmt::Display for Fixed<S, FRAC> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.to_f64(), f)
    }
}

#[cfg(test)]
mod tests {
    use crate::{Q16_16, Q4_12, Q8_8};

    #[test]
    fn zero_one_epsilon() {
        assert_eq!(Q8_8::zero().to_f64(), 0.0);
        assert_eq!(Q8_8::one().to_f64(), 1.0);
        assert_eq!(Q8_8::epsilon().to_f64(), 1.0 / 256.0);
        assert_eq!(Q16_16::epsilon().to_f64(), 1.0 / 65536.0);
    }

    #[test]
    fn from_f64_round_trips_representable_values() {
        for x in [-3.5, -0.25, 0.0, 0.5, 1.0, 100.125, -127.0] {
            assert_eq!(Q8_8::from_f64(x).to_f64(), x, "value {x}");
        }
    }

    #[test]
    fn from_f64_saturates() {
        assert_eq!(Q8_8::from_f64(1e9), Q8_8::max_value());
        assert_eq!(Q8_8::from_f64(-1e9), Q8_8::min_value());
        // Q8.8 max is 127.996...
        assert!(Q8_8::max_value().to_f64() < 128.0);
        assert!(Q8_8::max_value().to_f64() > 127.99);
    }

    #[test]
    fn from_int_saturates() {
        assert_eq!(Q8_8::from_int(3).to_f64(), 3.0);
        assert_eq!(Q8_8::from_int(1000), Q8_8::max_value());
        assert_eq!(Q8_8::from_int(-1000), Q8_8::min_value());
        // Q4.12 range is ±8: 7 is representable, 9 saturates.
        assert_eq!(Q4_12::from_int(7).to_f64(), 7.0);
        assert_eq!(Q4_12::from_int(9), Q4_12::max_value());
    }

    #[test]
    fn add_saturates() {
        let big = Q8_8::from_f64(100.0);
        assert_eq!(big + big, Q8_8::max_value());
        let low = Q8_8::from_f64(-100.0);
        assert_eq!(low + low, Q8_8::min_value());
        assert_eq!((big + low).to_f64(), 0.0);
    }

    #[test]
    fn mul_matches_f64_for_small_values() {
        let a = Q16_16::from_f64(0.3);
        let b = Q16_16::from_f64(0.9);
        let prod = (a * b).to_f64();
        assert!((prod - 0.27).abs() < 1e-4, "got {prod}");
    }

    #[test]
    fn mul_rounds_to_nearest() {
        // In Q8.8, 0.5 * epsilon = epsilon/2, which rounds away from zero
        // to epsilon.
        let half = Q8_8::from_f64(0.5);
        let eps = Q8_8::epsilon();
        assert_eq!(half * eps, eps);
        let neg_eps = -eps;
        assert_eq!(half * neg_eps, neg_eps);
    }

    #[test]
    fn mul_saturates() {
        let big = Q8_8::from_f64(100.0);
        assert_eq!(big * big, Q8_8::max_value());
        let neg = Q8_8::from_f64(-100.0);
        assert_eq!(big * neg, Q8_8::min_value());
    }

    #[test]
    fn one_minus_alpha() {
        let alpha = Q8_8::from_f64(0.25);
        assert_eq!(alpha.one_minus().to_f64(), 0.75);
        assert_eq!(Q8_8::zero().one_minus(), Q8_8::one());
    }

    #[test]
    fn neg_and_abs() {
        let x = Q8_8::from_f64(-2.5);
        assert_eq!((-x).to_f64(), 2.5);
        assert_eq!(x.abs().to_f64(), 2.5);
        assert_eq!(Q8_8::min_value().abs(), Q8_8::max_value());
    }

    #[test]
    fn ordering_matches_f64() {
        let vals = [-5.0, -0.5, 0.0, 0.25, 3.75];
        for &a in &vals {
            for &b in &vals {
                let fa = Q8_8::from_f64(a);
                let fb = Q8_8::from_f64(b);
                assert_eq!(fa < fb, a < b, "{a} vs {b}");
                assert_eq!(fa.max(fb).to_f64(), a.max(b));
                assert_eq!(fa.min(fb).to_f64(), a.min(b));
            }
        }
    }

    #[test]
    fn checked_div_basic() {
        let a = Q16_16::from_f64(1.0);
        let b = Q16_16::from_f64(4.0);
        assert_eq!(a.checked_div(b).unwrap().to_f64(), 0.25);
        assert_eq!(a.checked_div(Q16_16::zero()), None);
    }

    #[test]
    fn display_and_debug_are_humane() {
        let x = Q8_8::from_f64(1.5);
        assert_eq!(format!("{x}"), "1.5");
        let dbg = format!("{x:?}");
        assert!(dbg.contains("8.8"), "{dbg}");
        assert!(dbg.contains("raw=384"), "{dbg}");
    }

    #[test]
    fn nan_maps_to_zero() {
        assert_eq!(Q8_8::from_f64(f64::NAN), Q8_8::zero());
    }
}
