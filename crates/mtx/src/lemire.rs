//! Decimal to `f64` for a mantissa of up to 19 digits: the Eisel-Lemire
//! algorithm (Lemire, "Number Parsing at a Gigabyte per Second", 2021), the
//! one `str::parse` itself runs first (DESIGN.md, "Why the float fast path
//! is exact").
//!
//! `w x 10^q` is `w x 5^q x 2^q`: the power of two is exact in the exponent,
//! and `w x 5^q` is approximated by one or two 64 x 64-bit multiplies against
//! a 128-bit power of five, which fixes the 54 leading bits of the product,
//! hence the correctly rounded `f64`, unless the product's discarded bits
//! leave the rounding in doubt. Those products, results below the normal
//! range and results that overflow are left to the caller.

use crate::shortest::{bits_from, over5, pow5_bits, times5, Big};

/// Smallest decimal exponent the table covers: below it every 19-digit
/// mantissa rounds to zero.
const SMALLEST_POWER: i32 = -342;
/// Largest decimal exponent the table covers: above it every nonzero
/// mantissa overflows.
const LARGEST_POWER: i32 = 308;

/// `5^q` normalised to 128 bits, for `SMALLEST_POWER <= q <= LARGEST_POWER`,
/// at index `q - SMALLEST_POWER`, as `fast_float` and std define them: for
/// `q >= 0` the leading 128 bits of `5^q` (truncated); for `q < 0` the
/// 128-bit quotient `floor(2^(z + 127) / 5^-q)` with `z` the bit length of
/// `5^-q`, plus one where `5^-q < 2^64` (`q >= -27`).
///
/// The negative half is read out of `floor(2^1000 / 5^k)`, which the next
/// entry divides by 5 (`floor(floor(x) / 5) = floor(x / 5)`, so every one is
/// exact, as for the printer's inverse table): `5^342` has 795 bits, so the
/// quotient keeps 205 and the 128 wanted are all there. The positive half
/// multiplies `5^q` up by 5 (`5^308` has 716 bits). Both fit the printer's
/// 1 024-bit integer.
static POW5_128: [u128; (LARGEST_POWER - SMALLEST_POWER + 1) as usize] = {
    let mut table = [0u128; (LARGEST_POWER - SMALLEST_POWER + 1) as usize];
    let negative = -SMALLEST_POWER as usize;
    let mut x: Big = [0; 16];
    x[15] = 1 << 40;
    let mut k = 1;
    while k <= negative {
        x = over5(x);
        let z = pow5_bits(k as i32);
        table[negative - k] = bits_from(&x, 1000 - (z + 127)) + (k <= 27) as u128;
        k += 1;
    }
    let mut x: Big = [0; 16];
    x[0] = 1;
    let mut q = 0;
    while q <= LARGEST_POWER as usize {
        let length = pow5_bits(q as i32);
        table[negative + q] = if length >= 128 {
            bits_from(&x, length - 128)
        } else {
            bits_from(&x, 0) << (128 - length)
        };
        x = times5(x);
        q += 1;
    }
    table
};

/// Bits of the product kept below the 53 of the mantissa: one for the
/// hidden bit's neighbour, one to round with, one for a leading zero.
const PRODUCT_BITS: u32 = 52 + 3;

/// The high 128 bits of `w x POW5_128[q]`, from one multiply when its top
/// `PRODUCT_BITS + 9` bits are settled by it and from two otherwise, as
/// `(low, high)`; `None` outside the table.
fn product(q: i32, w: u64) -> Option<(u64, u64)> {
    let power = *POW5_128.get(usize::try_from(q - SMALLEST_POWER).ok()?)?;
    let (high5, low5) = ((power >> 64) as u64, power as u64);
    let first = u128::from(w) * u128::from(high5);
    let (mut low, mut high) = (first as u64, (first >> 64) as u64);
    let mask = u64::MAX >> PRODUCT_BITS;
    if high & mask == mask {
        // The low word could still carry into the bits that round.
        let second = ((u128::from(w) * u128::from(low5)) >> 64) as u64;
        low = low.wrapping_add(second);
        high += u64::from(second > low);
    }
    Some((low, high))
}

/// `floor(q x log2(10)) + 63`, for `|q| <= 350`.
fn power(q: i32) -> i32 {
    (q.wrapping_mul(152_170 + 65_536) >> 16) + 63
}

/// The `f64` nearest to `w x 10^q` (ties to even), when that is a positive
/// normal number and the 128-bit product decides it; `None` otherwise.
pub(crate) fn eisel_lemire(w: u64, q: i32) -> Option<f64> {
    if w == 0 {
        return None;
    }
    let zeros = w.leading_zeros();
    let (low, high) = product(q, w << zeros)?;
    // A low word of all ones may have lost a carry that decides the
    // rounding; inside these exponents the product is exact enough that it
    // cannot (Lemire 2021, section 8).
    if low == u64::MAX && !(-27..=55).contains(&q) {
        return None;
    }
    let upper_bit = (high >> 63) as u32;
    let shift = upper_bit + 64 - PRODUCT_BITS;
    let mut mantissa = high >> shift;
    // Biased exponent of the result before rounding.
    let mut biased = power(q) + upper_bit as i32 - zeros as i32 + 1023;
    if biased <= 0 {
        return None;
    }
    // Exactly halfway between two `f64`s: only possible where `5^q` is
    // exact in 64 bits, and then rounded down to the even one.
    if low <= 1 && (-4..=23).contains(&q) && mantissa & 3 == 1 && mantissa << shift == high {
        mantissa &= !1;
    }
    mantissa += mantissa & 1;
    mantissa >>= 1;
    if mantissa >= 2 << 52 {
        mantissa = 1 << 52;
        biased += 1;
    }
    if biased >= 0x7FF {
        return None;
    }
    let fraction = mantissa & !(1 << 52);
    Some(f64::from_bits(((biased as u64) << 52) | fraction))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shortest::tests::{compare, subtract, times};
    use pygko_sim::rng::Xoshiro256pp;
    use std::cmp::Ordering;

    fn bit_length(value: &[u32]) -> u32 {
        let top = value.iter().rposition(|&limb| limb != 0).unwrap();
        32 * top as u32 + 32 - value[top].leading_zeros()
    }

    /// `floor(2^b / d)` by schoolbook binary long division.
    fn power_of_two_over(b: u32, d: &[u32]) -> Vec<u32> {
        let mut quotient = vec![0u32];
        let mut rem = vec![0u32];
        for k in (0..=b).rev() {
            times(&mut rem, 2);
            rem[0] |= u32::from(k == b);
            let fits = compare(&rem, d) != Ordering::Less;
            if fits {
                subtract(&mut rem, d);
            }
            times(&mut quotient, 2);
            quotient[0] |= u32::from(fits);
        }
        quotient
    }

    /// `value`'s bits from `shift` up, as long as they fit in 128.
    fn top_bits(value: &[u32], shift: u32) -> u128 {
        (shift..bit_length(value)).rev().fold(0u128, |acc, k| {
            (acc << 1) | u128::from(value[(k / 32) as usize] >> (k % 32) & 1)
        })
    }

    /// Every table entry against `fast_float`'s generator, step by step: for
    /// `q < 0`, `c = floor(2^b / 5^-q) + 1` with `b = z + 127` when
    /// `q >= -27` and `b = 2z + 128` otherwise, halved while `c >= 2^128`;
    /// for `q >= 0`, `5^q` doubled while below `2^127`, halved while at or
    /// above `2^128`.
    #[test]
    fn the_table_holds_the_powers_of_five_it_is_defined_as() {
        let mut power = vec![1u32];
        for k in 1..=-SMALLEST_POWER {
            times(&mut power, 5);
            let z = bit_length(&power);
            let b = if k <= 27 { z + 127 } else { 2 * z + 128 };
            let mut c = power_of_two_over(b, &power);
            c.push(0);
            let mut carry = 1u64;
            for limb in c.iter_mut() {
                let t = u64::from(*limb) + carry;
                *limb = t as u32;
                carry = t >> 32;
            }
            let length = bit_length(&c);
            let expected = top_bits(&c, length.saturating_sub(128));
            assert_eq!(POW5_128[(-k - SMALLEST_POWER) as usize], expected, "5^-{k}");
        }
        let mut power = vec![1u32];
        for q in 0..=LARGEST_POWER {
            let length = bit_length(&power);
            let expected = if length >= 128 {
                top_bits(&power, length - 128)
            } else {
                top_bits(&power, 0) << (128 - length)
            };
            assert_eq!(POW5_128[(q - SMALLEST_POWER) as usize], expected, "5^{q}");
            times(&mut power, 5);
        }
    }

    /// Compares the reader's value tokens with `str::parse` on `count`
    /// tokens of 16 to 19 significant digits, the mantissas Clinger's path
    /// cannot take: printed `f64`s of every exponent, random digit strings
    /// times any power of ten (zero, subnormal and overflowing results among
    /// them), integers exactly halfway between two `f64`s and their
    /// neighbours, and shortest round-trip values. Returns the count and how
    /// many were converted without `str::parse`.
    fn sweep(count: u64) -> (u64, u64) {
        use std::fmt::Write as _;
        let mut rng = Xoshiro256pp::seed_from_u64(0x1E15_E1C0_DEC1_3A1F);
        let mut tok = String::new();
        let mut converted = 0;
        for k in 0..count {
            tok.clear();
            let digits = 16 + rng.below(4) as u32;
            match k % 4 {
                0 => {
                    let v = f64::from_bits(rng.next_u64() & !(1 << 63));
                    let v = if v.is_finite() { v } else { 1.5 };
                    write!(tok, "{v:.*e}", digits as usize - 1)
                }
                1 => {
                    let low = 10u64.pow(digits - 1);
                    let w = low + rng.below(9 * low);
                    let e = rng.below(671) as i64 - 360;
                    write!(tok, "{w}e{e}")
                }
                2 => {
                    // `m x 2^s + 2^(s-1)` lies halfway between two `f64`s.
                    let s = 1 + rng.below(11);
                    let m = (1 << 52) | (rng.next_u64() >> 12);
                    let w = ((m << s) | (1 << (s - 1))) - 1 + rng.below(3);
                    let text = w.to_string();
                    let point = rng.below(text.len() as u64) as usize;
                    let fraction = text.len() - point;
                    write!(tok, "{}.{}e{fraction}", &text[..point], &text[point..])
                }
                _ => {
                    let exponent = 1023 - 70 + rng.below(140);
                    let bits = (rng.next_u64() >> 12) | (exponent << 52);
                    write!(tok, "{:?}", f64::from_bits(bits))
                }
            }
            .unwrap();
            let ours = crate::Scanner::new(tok.as_bytes())
                .value()
                .and_then(Result::ok);
            let std: f64 = tok.parse().unwrap();
            assert_eq!(
                ours.map(f64::to_bits),
                Some(std.to_bits()),
                "{tok}: ours {ours:?}, std {std:?}"
            );
            converted += u64::from(crate::Scanner::new(tok.as_bytes()).decimal().is_some());
        }
        (count, converted)
    }

    #[test]
    fn long_mantissas_parse_to_the_bits_std_parses() {
        let (checked, converted) = sweep(1_000_000);
        assert!(
            converted > checked * 3 / 4,
            "{converted} of {checked} converted"
        );
    }

    /// `cargo test --release -p pygko-mtx --lib -- --ignored --nocapture`
    #[test]
    #[ignore = "100 million tokens; run in release"]
    fn long_mantissas_parse_to_the_bits_std_parses_on_a_hundred_million_tokens() {
        let (checked, converted) = sweep(100_000_000);
        println!(
            "{checked} tokens of 16-19 digits parsed to std's bits, 0 mismatches; \
             {converted} converted without str::parse"
        );
    }
}
