//! Value and index type abstractions.
//!
//! Ginkgo instantiates its templated kernels for every value/index type
//! combination (paper §5.1, Table 1: `half`/`float`/`double` values and
//! `int32`/`int64` indices). The [`Value`] and [`Index`] traits are the Rust
//! equivalent; every kernel in this crate is generic over them and the
//! `pyginkgo` facade pre-instantiates the same combinations Table 1 lists.

use pygko_half::Half;
use std::fmt::{Debug, Display};
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A floating point value type usable in kernels.
///
/// Arithmetic happens in the native type (so `half` really rounds like
/// half); *reductions* (dot products, norms) accumulate in `f64` via
/// [`Value::to_f64`] for accuracy and determinism, mirroring how GPU kernels
/// accumulate in a wider register type.
pub trait Value:
    Copy
    + PartialEq
    + PartialOrd
    + Debug
    + Display
    + Default
    + Send
    + Sync
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + DivAssign
    + 'static
{
    /// Ginkgo/pyGinkgo type name: `"half"`, `"float"`, or `"double"`.
    const NAME: &'static str;
    /// Storage size in bytes (Table 1's "Size" column).
    const BYTES: usize;

    /// Additive identity.
    fn zero() -> Self;
    /// Multiplicative identity.
    fn one() -> Self;
    /// Lossy conversion from `f64` (rounds to the type's precision).
    fn from_f64(v: f64) -> Self;
    /// Widening conversion to `f64`.
    fn to_f64(self) -> f64;
    /// Absolute value.
    fn abs(self) -> Self;
    /// Square root.
    fn sqrt(self) -> Self;
    /// True if the value is neither NaN nor infinite.
    fn is_finite(self) -> bool;

    /// Unit roundoff of the type, used by default solver tolerances.
    fn eps() -> f64;
}

impl Value for f64 {
    const NAME: &'static str = "double";
    const BYTES: usize = 8;

    fn zero() -> Self {
        0.0
    }
    fn one() -> Self {
        1.0
    }
    fn from_f64(v: f64) -> Self {
        v
    }
    fn to_f64(self) -> f64 {
        self
    }
    fn abs(self) -> Self {
        f64::abs(self)
    }
    fn sqrt(self) -> Self {
        f64::sqrt(self)
    }
    fn is_finite(self) -> bool {
        f64::is_finite(self)
    }
    fn eps() -> f64 {
        f64::EPSILON
    }
}

impl Value for f32 {
    const NAME: &'static str = "float";
    const BYTES: usize = 4;

    fn zero() -> Self {
        0.0
    }
    fn one() -> Self {
        1.0
    }
    fn from_f64(v: f64) -> Self {
        v as f32
    }
    fn to_f64(self) -> f64 {
        self as f64
    }
    fn abs(self) -> Self {
        f32::abs(self)
    }
    fn sqrt(self) -> Self {
        f32::sqrt(self)
    }
    fn is_finite(self) -> bool {
        f32::is_finite(self)
    }
    fn eps() -> f64 {
        f32::EPSILON as f64
    }
}

impl Value for Half {
    const NAME: &'static str = "half";
    const BYTES: usize = 2;

    fn zero() -> Self {
        Half::ZERO
    }
    fn one() -> Self {
        Half::ONE
    }
    fn from_f64(v: f64) -> Self {
        Half::from_f64(v)
    }
    fn to_f64(self) -> f64 {
        Half::to_f64(self)
    }
    fn abs(self) -> Self {
        Half::abs(self)
    }
    fn sqrt(self) -> Self {
        Half::sqrt(self)
    }
    fn is_finite(self) -> bool {
        Half::is_finite(self)
    }
    fn eps() -> f64 {
        9.765625e-4 // 2^-10
    }
}

/// A value a triplet list may carry when it is assembled into a matrix that
/// stores `V`: `V` itself, or the `f64` that Matrix Market files and the
/// facade hold, which [`Value::from_f64`] rounds once on the way into the
/// matrix's own array (no converted copy of the list is made first).
pub trait TripletValue<V: Value>: Copy {
    /// The value as the matrix stores it.
    fn stored(self) -> V;
}

impl<V: Value> TripletValue<V> for V {
    fn stored(self) -> V {
        self
    }
}

impl TripletValue<f32> for f64 {
    fn stored(self) -> f32 {
        f32::from_f64(self)
    }
}

impl TripletValue<Half> for f64 {
    fn stored(self) -> Half {
        Half::from_f64(self)
    }
}

/// An integer index type for sparse structure arrays.
pub trait Index:
    Copy + PartialEq + Eq + PartialOrd + Ord + Debug + Display + Default + Send + Sync + 'static
{
    /// Ginkgo/pyGinkgo type name: `"int32"` or `"int64"`.
    const NAME: &'static str;
    /// Storage size in bytes.
    const BYTES: usize;
    /// Largest representable index.
    const MAX_USIZE: usize;

    /// Converts from `usize`, panicking on overflow (structure arrays are
    /// validated at construction, so overflow here is a program bug).
    fn from_usize(v: usize) -> Self;
    /// Converts to `usize` (indices are always non-negative in valid data).
    fn to_usize(self) -> usize;
    /// Zero.
    fn zero() -> Self {
        Self::from_usize(0)
    }
}

impl Index for i32 {
    const NAME: &'static str = "int32";
    const BYTES: usize = 4;
    const MAX_USIZE: usize = i32::MAX as usize;

    fn from_usize(v: usize) -> Self {
        i32::try_from(v).expect("index exceeds int32 range")
    }
    fn to_usize(self) -> usize {
        debug_assert!(self >= 0, "negative index");
        self as usize
    }
}

impl Index for i64 {
    const NAME: &'static str = "int64";
    const BYTES: usize = 8;
    const MAX_USIZE: usize = i64::MAX as usize;

    fn from_usize(v: usize) -> Self {
        i64::try_from(v).expect("index exceeds int64 range")
    }
    fn to_usize(self) -> usize {
        debug_assert!(self >= 0, "negative index");
        self as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_match_table_1() {
        assert_eq!(<Half as Value>::NAME, "half");
        assert_eq!(<f32 as Value>::NAME, "float");
        assert_eq!(<f64 as Value>::NAME, "double");
        assert_eq!(<i32 as Index>::NAME, "int32");
        assert_eq!(<i64 as Index>::NAME, "int64");
    }

    #[test]
    fn sizes_match_table_1() {
        assert_eq!(<Half as Value>::BYTES, 2);
        assert_eq!(<f32 as Value>::BYTES, 4);
        assert_eq!(<f64 as Value>::BYTES, 8);
        assert_eq!(<i32 as Index>::BYTES, 4);
        assert_eq!(<i64 as Index>::BYTES, 8);
    }

    #[test]
    fn value_roundtrip_through_f64() {
        assert_eq!(f32::from_f64(1.5).to_f64(), 1.5);
        assert_eq!(Half::from_f64(0.25).to_f64(), 0.25);
        assert_eq!(f64::from_f64(-2.5).to_f64(), -2.5);
    }

    #[test]
    fn index_roundtrip() {
        assert_eq!(i32::from_usize(42).to_usize(), 42);
        assert_eq!(i64::from_usize(1 << 40).to_usize(), 1 << 40);
    }

    #[test]
    #[should_panic(expected = "index exceeds int32 range")]
    fn int32_overflow_panics() {
        let _ = i32::from_usize(usize::MAX);
    }

    #[test]
    fn eps_ordering() {
        assert!(Half::eps() > f32::eps());
        assert!(f32::eps() > f64::eps());
    }
}
