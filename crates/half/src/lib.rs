//! Software implementation of the IEEE 754 binary16 ("half precision")
//! floating point format.
//!
//! Ginkgo (and hence pyGinkgo, Table 1 of the paper) supports `half` as a
//! value type alongside `float` and `double`. Rust has no stable `f16`, so
//! this crate provides a bit-exact software binary16:
//!
//! * conversions to/from `f32`/`f64` with round-to-nearest-even,
//! * arithmetic performed in `f32` and rounded back (the same strategy used
//!   by CPU fallback paths in vendor half libraries),
//! * total ordering helpers, constants, and parsing/formatting.
//!
//! The type is a `#[repr(transparent)]` wrapper over the raw `u16` bit
//! pattern, so slices of [`Half`] can be reinterpreted as device buffers with
//! no copying.

#![warn(missing_docs)]

mod convert;

pub use convert::{f16_bits_to_f32, f32_to_f16_bits};

use core::cmp::Ordering;
use core::fmt;
use core::iter::{Product, Sum};
use core::num::ParseFloatError;
use core::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Rem, Sub, SubAssign};
use core::str::FromStr;

/// IEEE 754 binary16 floating point number.
///
/// 1 sign bit, 5 exponent bits (bias 15), 10 mantissa bits.
#[derive(Clone, Copy, Default, PartialEq)]
#[repr(transparent)]
pub struct Half(u16);

impl Half {
    /// Positive zero.
    pub const ZERO: Half = Half(0x0000);
    /// One.
    pub const ONE: Half = Half(0x3C00);
    /// Positive infinity.
    pub const INFINITY: Half = Half(0x7C00);
    /// Negative infinity.
    pub const NEG_INFINITY: Half = Half(0xFC00);
    /// Canonical quiet NaN.
    pub const NAN: Half = Half(0x7E00);
    /// Largest finite value, 65504.
    pub const MAX: Half = Half(0x7BFF);
    /// Smallest finite value, -65504.
    pub const MIN: Half = Half(0xFBFF);
    /// Smallest positive normal value, 2^-14.
    pub const MIN_POSITIVE: Half = Half(0x0400);
    /// Machine epsilon: the difference between 1.0 and the next larger
    /// representable value, 2^-10.
    pub const EPSILON: Half = Half(0x1400);

    /// Creates a half from its raw bit pattern.
    #[inline]
    pub const fn from_bits(bits: u16) -> Self {
        Half(bits)
    }

    /// Returns the raw bit pattern.
    #[inline]
    pub const fn to_bits(self) -> u16 {
        self.0
    }

    /// Converts an `f32` to the nearest representable half
    /// (round-to-nearest-even, overflow to infinity).
    #[inline]
    pub fn from_f32(v: f32) -> Self {
        Half(f32_to_f16_bits(v))
    }

    /// Converts an `f64` to the nearest representable half (ties to even).
    ///
    /// The conversion goes through `f32`, rounded to odd: truncated toward
    /// zero, with the last bit set when anything was cut off. Rounding to
    /// nearest twice could tie at the second step on a value that was not a
    /// tie (`1 + 2^-11 + 2^-40` would become the tie `1 + 2^-11`, then 1.0);
    /// to odd, the sticky bit keeps such a value off the tie, and since
    /// binary32 carries 13 more bits than binary16 the one rounding to
    /// nearest that follows is exact.
    #[inline]
    pub fn from_f64(v: f64) -> Self {
        let nearest = v as f32;
        if !nearest.is_finite() || f64::from(nearest) == v {
            return Half(f32_to_f16_bits(nearest));
        }
        // One step toward zero if rounding went away from it (the bits are
        // sign-magnitude), then the sticky bit.
        let overshot = f64::from(nearest).abs() > v.abs();
        let odd = (nearest.to_bits() - u32::from(overshot)) | 1;
        Half(f32_to_f16_bits(f32::from_bits(odd)))
    }

    /// Widens to `f32` (exact).
    #[inline]
    pub fn to_f32(self) -> f32 {
        f16_bits_to_f32(self.0)
    }

    /// Widens to `f64` (exact).
    #[inline]
    pub fn to_f64(self) -> f64 {
        f16_bits_to_f32(self.0) as f64
    }

    /// Returns `true` if the value is NaN.
    #[inline]
    pub fn is_nan(self) -> bool {
        (self.0 & 0x7C00) == 0x7C00 && (self.0 & 0x03FF) != 0
    }

    /// Returns `true` if the value is positive or negative infinity.
    #[inline]
    pub fn is_infinite(self) -> bool {
        (self.0 & 0x7FFF) == 0x7C00
    }

    /// Returns `true` if the value is neither infinite nor NaN.
    #[inline]
    pub fn is_finite(self) -> bool {
        (self.0 & 0x7C00) != 0x7C00
    }

    /// Returns `true` for subnormal values (non-zero with a zero exponent).
    #[inline]
    pub fn is_subnormal(self) -> bool {
        (self.0 & 0x7C00) == 0 && (self.0 & 0x03FF) != 0
    }

    /// Returns `true` if the sign bit is set (including -0.0 and NaNs with a
    /// sign bit).
    #[inline]
    pub fn is_sign_negative(self) -> bool {
        (self.0 & 0x8000) != 0
    }

    /// Returns `true` if the sign bit is clear.
    #[inline]
    pub fn is_sign_positive(self) -> bool {
        !self.is_sign_negative()
    }

    /// Returns `true` if the value is exactly ±0.0.
    #[inline]
    pub fn is_zero(self) -> bool {
        (self.0 & 0x7FFF) == 0
    }

    /// Absolute value (clears the sign bit).
    #[inline]
    pub fn abs(self) -> Self {
        Half(self.0 & 0x7FFF)
    }

    /// Square root, computed in `f32` and rounded.
    #[inline]
    pub fn sqrt(self) -> Self {
        Half::from_f32(self.to_f32().sqrt())
    }

    /// The maximum of two values, propagating the other operand over NaN
    /// like `f32::max`.
    #[inline]
    pub fn max(self, other: Self) -> Self {
        Half::from_f32(self.to_f32().max(other.to_f32()))
    }

    /// The minimum of two values, propagating the other operand over NaN.
    #[inline]
    pub fn min(self, other: Self) -> Self {
        Half::from_f32(self.to_f32().min(other.to_f32()))
    }

    /// Fused multiply-add computed in `f32` precision then rounded once to
    /// half. Used by the engine's dot-product kernels.
    #[inline]
    pub fn mul_add(self, a: Self, b: Self) -> Self {
        Half::from_f32(self.to_f32() * a.to_f32() + b.to_f32())
    }

    /// IEEE total order on the bit patterns, used for deterministic sorting
    /// of half buffers.
    #[inline]
    pub fn total_cmp(&self, other: &Self) -> Ordering {
        // Map to a monotone integer key: flip all bits of negatives, flip
        // only the sign bit of non-negatives.
        fn key(bits: u16) -> i32 {
            let b = bits as i32;
            if b & 0x8000 != 0 {
                !b & 0xFFFF
            } else {
                b | 0x8000
            }
        }
        key(self.0).cmp(&key(other.0))
    }
}

impl fmt::Debug for Half {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}h", self.to_f32())
    }
}

impl fmt::Display for Half {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.to_f32(), f)
    }
}

impl FromStr for Half {
    type Err = ParseFloatError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Ok(Half::from_f32(s.parse::<f32>()?))
    }
}

impl From<f32> for Half {
    fn from(v: f32) -> Self {
        Half::from_f32(v)
    }
}

impl From<f64> for Half {
    fn from(v: f64) -> Self {
        Half::from_f64(v)
    }
}

impl From<Half> for f32 {
    fn from(v: Half) -> Self {
        v.to_f32()
    }
}

impl From<Half> for f64 {
    fn from(v: Half) -> Self {
        v.to_f64()
    }
}

impl PartialOrd for Half {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        self.to_f32().partial_cmp(&other.to_f32())
    }
}

macro_rules! impl_binop {
    ($trait:ident, $method:ident, $op:tt) => {
        impl $trait for Half {
            type Output = Half;
            #[inline]
            fn $method(self, rhs: Half) -> Half {
                Half::from_f32(self.to_f32() $op rhs.to_f32())
            }
        }
    };
}

impl_binop!(Add, add, +);
impl_binop!(Sub, sub, -);
impl_binop!(Mul, mul, *);
impl_binop!(Div, div, /);
impl_binop!(Rem, rem, %);

impl Neg for Half {
    type Output = Half;
    #[inline]
    fn neg(self) -> Half {
        Half(self.0 ^ 0x8000)
    }
}

impl AddAssign for Half {
    #[inline]
    fn add_assign(&mut self, rhs: Half) {
        *self = *self + rhs;
    }
}

impl SubAssign for Half {
    #[inline]
    fn sub_assign(&mut self, rhs: Half) {
        *self = *self - rhs;
    }
}

impl MulAssign for Half {
    #[inline]
    fn mul_assign(&mut self, rhs: Half) {
        *self = *self * rhs;
    }
}

impl DivAssign for Half {
    #[inline]
    fn div_assign(&mut self, rhs: Half) {
        *self = *self / rhs;
    }
}

impl Sum for Half {
    fn sum<I: Iterator<Item = Half>>(iter: I) -> Half {
        // Accumulate in f32 so long reductions do not lose everything to
        // half's 11-bit significand; round once at the end.
        Half::from_f32(iter.map(Half::to_f32).sum())
    }
}

impl Product for Half {
    fn product<I: Iterator<Item = Half>>(iter: I) -> Half {
        Half::from_f32(iter.map(Half::to_f32).product())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_have_expected_values() {
        assert_eq!(Half::ZERO.to_f32(), 0.0);
        assert_eq!(Half::ONE.to_f32(), 1.0);
        assert_eq!(Half::from_bits(0xBC00).to_f32(), -1.0);
        assert_eq!(Half::MAX.to_f32(), 65504.0);
        assert_eq!(Half::MIN.to_f32(), -65504.0);
        assert_eq!(Half::MIN_POSITIVE.to_f32(), 2f32.powi(-14));
        assert_eq!(Half::from_bits(0x0001).to_f32(), 2f32.powi(-24));
        assert_eq!(Half::EPSILON.to_f32(), 9.765625e-4);
        assert!(Half::NAN.is_nan());
        assert!(Half::INFINITY.is_infinite());
        assert!(Half::NEG_INFINITY.is_infinite());
        assert!(Half::NEG_INFINITY.is_sign_negative());
    }

    #[test]
    fn simple_roundtrips_are_exact() {
        for v in [0.0f32, 1.0, -1.0, 0.5, 2.0, 1024.0, -0.25, 65504.0] {
            assert_eq!(Half::from_f32(v).to_f32(), v, "value {v}");
        }
    }

    #[test]
    fn rounds_to_nearest_even() {
        // 1 + 2^-11 is exactly halfway between 1.0 and 1+2^-10; ties go to
        // even mantissa, i.e. down to 1.0.
        let halfway = 1.0 + 2f32.powi(-11);
        assert_eq!(Half::from_f32(halfway).to_f32(), 1.0);
        // Slightly above halfway rounds up.
        let above = 1.0 + 2f32.powi(-11) + 2f32.powi(-20);
        assert_eq!(Half::from_f32(above).to_f32(), 1.0 + 2f32.powi(-10));
        // 1 + 3*2^-11 is halfway between 1+2^-10 and 1+2^-9; even is 1+2^-9.
        let halfway2 = 1.0 + 3.0 * 2f32.powi(-11);
        assert_eq!(Half::from_f32(halfway2).to_f32(), 1.0 + 2f32.powi(-9));
    }

    /// Every pair of adjacent finite halves, either sign: the `f64`
    /// midpoint goes to the one with the even bit pattern, and the midpoint
    /// moved by a step below `f32` resolution goes to the nearer one.
    #[test]
    fn from_f64_rounds_once() {
        for bits in 0..0x7BFFu16 {
            let (lo, hi) = (Half(bits), Half(bits + 1));
            let mid = (lo.to_f64() + hi.to_f64()) / 2.0;
            let step = mid * 2f64.powi(-35);
            let even = if bits % 2 == 0 { lo } else { hi };
            for sign in [1.0, -1.0] {
                for (v, want) in [(mid, even), (mid - step, lo), (mid + step, hi)] {
                    let want = if sign < 0.0 { -want } else { want };
                    let got = Half::from_f64(sign * v);
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "{:e} between {lo} and {hi}",
                        sign * v
                    );
                }
            }
        }
        assert_eq!(
            Half::from_f64(1.0 + 2f64.powi(-11) + 2f64.powi(-40)).to_bits(),
            0x3C01
        );
    }

    #[test]
    fn overflow_goes_to_infinity() {
        assert!(Half::from_f32(1e6).is_infinite());
        assert!(Half::from_f32(-1e6).is_infinite());
        assert!(Half::from_f32(-1e6).is_sign_negative());
        // 65520 is the first value that rounds to infinity.
        assert!(Half::from_f32(65520.0).is_infinite());
        assert_eq!(Half::from_f32(65519.0).to_f32(), 65504.0);
    }

    #[test]
    fn underflow_handles_subnormals() {
        let tiny = 2f32.powi(-24);
        assert_eq!(Half::from_f32(tiny), Half::from_bits(0x0001));
        // Below half the smallest subnormal flushes to zero.
        assert_eq!(Half::from_f32(2f32.powi(-26)), Half::ZERO);
        // Halfway between 0 and the smallest subnormal rounds to even (zero).
        assert_eq!(Half::from_f32(2f32.powi(-25)), Half::ZERO);
        let sub = Half::from_f32(3.0 * 2f32.powi(-24));
        assert!(sub.is_subnormal());
        assert_eq!(sub.to_f32(), 3.0 * 2f32.powi(-24));
    }

    #[test]
    fn nan_propagates() {
        assert!(Half::from_f32(f32::NAN).is_nan());
        assert!((Half::NAN + Half::ONE).is_nan());
        assert!(Half::NAN.to_f32().is_nan());
    }

    #[test]
    fn arithmetic_matches_f32_with_rounding() {
        let a = Half::from_f32(1.5);
        let b = Half::from_f32(2.25);
        assert_eq!((a + b).to_f32(), 3.75);
        assert_eq!((a - b).to_f32(), -0.75);
        assert_eq!((a * b).to_f32(), 3.375);
        assert_eq!((b / a).to_f32(), 1.5);
        assert_eq!((-a).to_f32(), -1.5);
    }

    #[test]
    fn sum_accumulates_in_f32() {
        // 4096 ones: naive half accumulation would stall at 2048 (where the
        // half ulp exceeds 1); f32 accumulation keeps the exact count until
        // the final rounding, and 4096 is representable.
        let total: Half = (0..4096).map(|_| Half::ONE).sum();
        assert_eq!(total.to_f32(), 4096.0);
    }

    #[test]
    fn total_cmp_orders_specials() {
        let mut values = [
            Half::NAN,
            Half::INFINITY,
            Half::ONE,
            Half::ZERO,
            Half::from_bits(0x8000),
            Half::from_bits(0xBC00),
            Half::NEG_INFINITY,
        ];
        values.sort_by(Half::total_cmp);
        assert_eq!(values[0], Half::NEG_INFINITY);
        assert_eq!(values[1], Half::from_bits(0xBC00));
        assert_eq!(values[2], Half::from_bits(0x8000));
        assert_eq!(values[3], Half::ZERO);
        assert_eq!(values[4], Half::ONE);
        assert_eq!(values[5], Half::INFINITY);
        assert!(values[6].is_nan());
    }

    #[test]
    fn parse_and_display() {
        let v: Half = "1.5".parse().unwrap();
        assert_eq!(v, Half::from_f32(1.5));
        assert_eq!(format!("{v}"), "1.5");
        assert!("abc".parse::<Half>().is_err());
    }

    #[test]
    fn neg_is_sign_flip_even_for_nan() {
        assert_eq!((-Half::NAN).to_bits(), Half::NAN.to_bits() ^ 0x8000);
    }
}
