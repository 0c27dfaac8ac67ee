//! Bit-level conversions between binary32 and binary16.
//!
//! Both directions are branch-light integer algorithms; the f32→f16 direction
//! implements round-to-nearest-even including the normal→subnormal boundary,
//! which table-based approaches frequently get wrong.

/// Converts an `f32` to binary16 bits with round-to-nearest-even.
///
/// Overflow produces ±infinity; values below half the smallest subnormal
/// round to ±0; NaNs map to a quiet NaN preserving the sign and the top
/// mantissa bits when possible.
pub fn f32_to_f16_bits(value: f32) -> u16 {
    let bits = value.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xFF) as i32;
    let mant = bits & 0x007F_FFFF;

    if exp == 0xFF {
        // Infinity or NaN.
        return if mant == 0 {
            sign | 0x7C00
        } else {
            // Quiet NaN; keep top mantissa bits, force at least one set.
            let payload = (mant >> 13) as u16 & 0x03FF;
            sign | 0x7C00 | payload.max(0x0200)
        };
    }

    // Unbiased exponent; f32 bias 127, f16 bias 15.
    let unbiased = exp - 127;
    if unbiased >= 16 {
        // Too large: overflow to infinity (covers values >= 65536; values in
        // [65504+16, 65536) are handled by the rounding path below and also
        // overflow there).
        return sign | 0x7C00;
    }

    if unbiased >= -14 {
        // Normal range for f16 (possibly overflowing into infinity after
        // rounding).
        let half_exp = (unbiased + 15) as u32;
        // 24-bit significand (with implicit bit) -> 11-bit: shift out 13.
        let sig = 0x0080_0000 | mant;
        let shifted = sig >> 13;
        let round_bits = sig & 0x1FFF;
        let mut out = (half_exp << 10) | (shifted & 0x03FF);
        // Round to nearest even.
        if round_bits > 0x1000 || (round_bits == 0x1000 && (shifted & 1) != 0) {
            out += 1; // may carry into exponent, which is exactly correct
        }
        if out >= 0x7C00 {
            return sign | 0x7C00;
        }
        return sign | out as u16;
    }

    if unbiased >= -25 {
        // Subnormal range: the implicit bit becomes explicit and the value
        // is shifted right by the exponent deficit.
        let sig = 0x0080_0000 | mant;
        let shift = (-14 - unbiased) as u32 + 13;
        let shifted = sig >> shift;
        let remainder = sig & ((1u32 << shift) - 1);
        let halfway = 1u32 << (shift - 1);
        let mut out = shifted;
        if remainder > halfway || (remainder == halfway && (shifted & 1) != 0) {
            out += 1; // may round up to MIN_POSITIVE, which is correct
        }
        return sign | out as u16;
    }

    // Too small even for subnormals: round to zero.
    sign
}

/// Converts binary16 bits to the exactly-representable `f32`.
pub fn f16_bits_to_f32(bits: u16) -> f32 {
    let sign = ((bits & 0x8000) as u32) << 16;
    let exp = ((bits >> 10) & 0x1F) as u32;
    let mant = (bits & 0x03FF) as u32;

    if exp == 0x1F {
        // Infinity or NaN.
        return f32::from_bits(sign | 0x7F80_0000 | (mant << 13));
    }
    if exp == 0 {
        if mant == 0 {
            return f32::from_bits(sign); // ±0
        }
        // Subnormal: value = mant * 2^-24. Normalize by moving the leading
        // bit of the 10-bit mantissa up to the implicit-bit position.
        let shift = mant.leading_zeros() - 21; // mantissa occupies bits 9..0
        let normalized_mant = (mant << shift) & 0x03FF;
        let exp32 = 113 - shift; // 127 + (9 - shift) - 24 + ... == 113 - shift
        return f32::from_bits(sign | (exp32 << 23) | (normalized_mant << 13));
    }
    // Normal.
    let exp32 = exp + 127 - 15;
    f32::from_bits(sign | (exp32 << 23) | (mant << 13))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference conversion using the obvious (slow) method: parse the exact
    /// value and scan all 63488 non-NaN half bit patterns for the closest.
    fn reference_f32_to_f16(v: f32) -> u16 {
        if v.is_nan() {
            return f32_to_f16_bits(v); // NaN payload choice is ours
        }
        // IEEE overflow: 65520 is the tie between 65504 and (unrepresentable)
        // 65536; ties-to-even rounds it up, so anything >= 65520 is infinity.
        if v.abs() >= 65520.0 {
            return if v < 0.0 { 0xFC00 } else { 0x7C00 };
        }
        let mut best = 0u16;
        let mut best_err = f64::INFINITY;
        for bits in 0u16..=0xFFFF {
            let exp = (bits >> 10) & 0x1F;
            let mant = bits & 0x03FF;
            if exp == 0x1F && mant != 0 {
                continue; // NaN patterns
            }
            let cand = f16_bits_to_f32(bits) as f64;
            let err = (cand - v as f64).abs();
            // Prefer smaller error; on ties prefer even mantissa.
            if err < best_err
                || (err == best_err && (bits & 1) == 0 && (best & 1) == 1 && cand.is_finite())
            {
                best_err = err;
                best = bits;
            }
        }
        // Resolve ±0 sign to match input sign.
        if best & 0x7FFF == 0 {
            return if v.is_sign_negative() { 0x8000 } else { 0x0000 };
        }
        best
    }

    #[test]
    fn exhaustive_f16_to_f32_to_f16_roundtrip() {
        for bits in 0u16..=0xFFFF {
            let exp = (bits >> 10) & 0x1F;
            let mant = bits & 0x03FF;
            if exp == 0x1F && mant != 0 {
                continue; // NaN bit patterns need not round-trip exactly
            }
            let back = f32_to_f16_bits(f16_bits_to_f32(bits));
            assert_eq!(back, bits, "bits {bits:#06x}");
        }
    }

    #[test]
    fn sampled_f32_conversions_match_reference() {
        // A deterministic sample of tricky values across the range; the
        // reference is O(65536) per value so we keep the sample modest.
        let samples: Vec<f32> = vec![
            0.1,
            -0.1,
            1.0 / 3.0,
            2.0 / 3.0,
            1e-5,
            -1e-5,
            6.0e-8,
            6.2e-5,
            6.09e-5,
            0.999,
            1.001,
            1023.5,
            1024.5,
            2049.0,
            65503.0,
            65504.0,
            65519.9,
            65520.0,
            -65520.0,
            3.0517578e-5, // 2^-15, subnormal boundary region
            4.5e-8,
            2.98e-8, // just below half the min subnormal
        ];
        for v in samples {
            assert_eq!(f32_to_f16_bits(v), reference_f32_to_f16(v), "value {v:e}");
        }
    }

    #[test]
    fn nan_payloads_stay_nan() {
        for payload in [1u32, 0x7FFF, 0x3F_0000] {
            let nan = f32::from_bits(0x7F80_0000 | payload);
            let bits = f32_to_f16_bits(nan);
            assert_eq!(bits & 0x7C00, 0x7C00);
            assert_ne!(bits & 0x03FF, 0, "payload {payload:#x} must stay NaN");
        }
    }
}
