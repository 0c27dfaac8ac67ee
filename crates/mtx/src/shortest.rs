//! Decimal printing for the writer: unsigned integers two digits at a time,
//! and an `f64` as the exact bytes `{:?}` prints for it (DESIGN.md, "Why the
//! printer is exact").
//!
//! The digits of an `f64` are Ryu's (Adams, PLDI 2018): of the decimals
//! inside the interval of reals that read back as the value, the shortest,
//! and of those the nearest, found with a 128-bit multiply per interval end
//! against a table of powers of five. One rule differs from the reference
//! implementation: a value exactly halfway between two shortest candidates
//! takes the larger one, as std does (Ryu rounds such a tie to even). The
//! layout is std's Debug layout.

/// Digit pairs `"00"` to `"99"`.
const DIGIT_PAIRS: [u8; 200] = {
    let mut pairs = [0u8; 200];
    let mut k = 0;
    while k < 100 {
        pairs[2 * k] = b'0' + (k / 10) as u8;
        pairs[2 * k + 1] = b'0' + (k % 10) as u8;
        k += 1;
    }
    pairs
};

/// Writes the decimal digits of `v` at the end of `buf`, two at a time, and
/// returns where they start.
fn decimal_digits(buf: &mut [u8; 20], mut v: u64) -> usize {
    let mut at = buf.len();
    while v >= 100 {
        let pair = (v % 100) as usize * 2;
        v /= 100;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if v >= 10 {
        let pair = v as usize * 2;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        at -= 1;
        buf[at] = b'0' + v as u8;
    }
    at
}

/// Appends `v` in decimal.
pub(crate) fn push_integer(out: &mut Vec<u8>, v: u64) {
    let mut buf = [0u8; 20];
    let at = decimal_digits(&mut buf, v);
    out.extend_from_slice(&buf[at..]);
}

/// Appends exactly the bytes `{v:?}` prints: decimal notation with at least
/// one fraction digit for `1e-4 <= |v| < 1e16` and for zero, `d[.ddd]e[-]x`
/// for every other finite value, and `NaN`, `inf`, `-inf`.
pub(crate) fn push_shortest(out: &mut Vec<u8>, v: f64) {
    if v.is_nan() {
        out.extend_from_slice(b"NaN");
        return;
    }
    if v.is_sign_negative() {
        out.push(b'-');
    }
    let magnitude = v.abs();
    if magnitude == f64::INFINITY {
        out.extend_from_slice(b"inf");
        return;
    }
    if magnitude == 0.0 {
        out.extend_from_slice(b"0.0");
        return;
    }
    let (mantissa, exponent) = shortest_decimal(magnitude.to_bits());
    let mut buf = [0u8; 20];
    let at = decimal_digits(&mut buf, mantissa);
    let digits = &buf[at..];
    // `v = 0.d1 d2 .. dn x 10^point`.
    let n = digits.len() as i32;
    let point = exponent + n;
    if (1e-4..1e16).contains(&magnitude) {
        if point <= 0 {
            out.extend_from_slice(b"0.");
            out.resize(out.len() + point.unsigned_abs() as usize, b'0');
            out.extend_from_slice(digits);
        } else if point < n {
            let (whole, fraction) = digits.split_at(point as usize);
            out.extend_from_slice(whole);
            out.push(b'.');
            out.extend_from_slice(fraction);
        } else {
            out.extend_from_slice(digits);
            out.resize(out.len() + (point - n) as usize, b'0');
            out.extend_from_slice(b".0");
        }
    } else {
        let (first, rest) = digits.split_at(1);
        out.extend_from_slice(first);
        if !rest.is_empty() {
            out.push(b'.');
            out.extend_from_slice(rest);
        }
        out.push(b'e');
        if point < 1 {
            out.push(b'-');
        }
        push_integer(out, u64::from((point - 1).unsigned_abs()));
    }
}

/// Bit length of the inverse multipliers (but the first, which is `2^122 + 1`).
const POW5_INV_BITS: i32 = 122;
/// Bit length of the forward multipliers.
const POW5_BITS: i32 = 121;

/// `ceil(log2(5^e))` for `0 < e <= 3528`, and 1 for `e = 0`: the bit length
/// of `5^e`.
pub(crate) const fn pow5_bits(e: i32) -> i32 {
    ((e as u32 * 1_217_359) >> 19) as i32 + 1
}

/// `floor(log10(2^e))` for `0 <= e <= 1650`.
fn log10_pow2(e: i32) -> i32 {
    ((e as u32 * 78_913) >> 18) as i32
}

/// `floor(log10(5^e))` for `0 <= e <= 2620`.
fn log10_pow5(e: i32) -> i32 {
    ((e as u32 * 732_923) >> 20) as i32
}

/// An unsigned 1024-bit integer, least significant limb first: room for
/// `2^1000` and for `5^325` (755 bits).
pub(crate) type Big = [u64; 16];

/// `x * 5`; the tables never let it overflow.
pub(crate) const fn times5(x: Big) -> Big {
    let mut out = [0u64; 16];
    let mut carry = 0u128;
    let mut k = 0;
    while k < 16 {
        let t = x[k] as u128 * 5 + carry;
        out[k] = t as u64;
        carry = t >> 64;
        k += 1;
    }
    out
}

/// `floor(x / 5)`.
pub(crate) const fn over5(x: Big) -> Big {
    let mut out = [0u64; 16];
    let mut rem = 0u128;
    let mut k = 16;
    while k > 0 {
        k -= 1;
        let t = (rem << 64) | x[k] as u128;
        out[k] = (t / 5) as u64;
        rem = t % 5;
    }
    out
}

/// `floor(x / 2^shift) mod 2^128`.
pub(crate) const fn bits_from(x: &Big, shift: i32) -> u128 {
    let mut out = 0u128;
    let mut k = shift / 64;
    while k < 16 {
        // Where bit 0 of limb `k` lands in the result.
        let at = 64 * k - shift;
        if at >= 128 {
            break;
        }
        let limb = x[k as usize] as u128;
        out |= if at >= 0 { limb << at } else { limb >> -at };
        k += 1;
    }
    out
}

/// Inverse multipliers, `floor(2^(pow5_bits(q) - 1 + 122) / 5^q) + 1` for
/// every `q = floor(log10(2^e2))` a finite `f64` needs (`e2 <= 969`). Each is
/// read out of `floor(2^1000 / 5^q)`, which the next entry divides by 5:
/// `floor(floor(x) / 5) = floor(x / 5)`, so every one is exact.
static POW5_INV: [u128; 292] = {
    let mut table = [0u128; 292];
    let mut x: Big = [0; 16];
    x[15] = 1 << 40;
    let mut q = 0;
    while q < table.len() {
        let shift = 1000 - (pow5_bits(q as i32) - 1 + POW5_INV_BITS);
        table[q] = bits_from(&x, shift) + 1;
        x = over5(x);
        q += 1;
    }
    table
};

/// Forward multipliers, the leading 121 bits of `5^i`, for every
/// `i = -e2 - floor(log10(5^-e2))` a finite `f64` needs (`-e2 <= 1076`).
static POW5: [u128; 326] = {
    let mut table = [0u128; 326];
    let mut x: Big = [0; 16];
    x[0] = 1;
    let mut i = 0;
    while i < table.len() {
        let length = pow5_bits(i as i32);
        table[i] = if length >= POW5_BITS {
            bits_from(&x, length - POW5_BITS)
        } else {
            bits_from(&x, 0) << (POW5_BITS - length)
        };
        x = times5(x);
        i += 1;
    }
    table
};

/// `floor(m * mul / 2^j)` for `64 <= j < 192`.
fn mul_shift(m: u64, mul: u128, j: i32) -> u64 {
    let low = u128::from(m) * (mul as u64 as u128);
    let high = u128::from(m) * (mul >> 64);
    (((low >> 64) + high) >> (j - 64)) as u64
}

/// Whether `5^p` divides `v`, for `p <= 21`.
fn multiple_of_power_of_5(v: u64, p: i32) -> bool {
    v.is_multiple_of(5u64.pow(p as u32))
}

/// `(m, e)` with `m x 10^e` the shortest decimal that reads back as the
/// finite, positive `f64` with these bits, the nearest such one to it, and
/// the larger of two that are equally near (Ryu's `d2d`, ties up).
fn shortest_decimal(bits: u64) -> (u64, i32) {
    let mantissa_field = bits & ((1 << 52) - 1);
    let exponent_field = (bits >> 52) as i32;
    // `v = m2 x 2^(e2 + 2)`: two more bits for the interval's ends.
    let (m2, e2) = if exponent_field == 0 {
        (mantissa_field, 1 - 1023 - 52 - 2)
    } else {
        (mantissa_field | (1 << 52), exponent_field - 1023 - 52 - 2)
    };
    // Both ends of the interval read back as `v` when its mantissa is even.
    let accept_bounds = m2 % 2 == 0;
    // The interval is `[mm, mp] x 2^e2` around `mv x 2^e2`, half as wide
    // below as above at the bottom of a binade.
    let mv = 4 * m2;
    let mp = mv + 2;
    let mm = mv - 1 - u64::from(mantissa_field != 0 || exponent_field <= 1);
    // Whether `vm` is the scaled lower end itself, not rounded down from it:
    // only then may a closed interval's shortest decimal end on it.
    let mut vm_is_exact = false;
    let (e10, mut vr, mut vp, mut vm);
    if e2 >= 0 {
        let q = log10_pow2(e2) - i32::from(e2 > 3);
        e10 = q;
        let mul = POW5_INV[q as usize];
        let j = -e2 + q + POW5_INV_BITS + pow5_bits(q) - 1;
        [vr, vp, vm] = [mv, mp, mm].map(|m| mul_shift(m, mul, j));
        // At most one of `mm`, `mv`, `mp` is a multiple of 5.
        if q <= 21 && mv % 5 != 0 {
            if accept_bounds {
                vm_is_exact = multiple_of_power_of_5(mm, q);
            } else {
                vp -= u64::from(multiple_of_power_of_5(mp, q));
            }
        }
    } else {
        let q = log10_pow5(-e2) - i32::from(-e2 > 1);
        e10 = q + e2;
        let i = -e2 - q;
        let mul = POW5[i as usize];
        let j = q - (pow5_bits(i) - POW5_BITS);
        [vr, vp, vm] = [mv, mp, mm].map(|m| mul_shift(m, mul, j));
        // An end is exact when it has `q` trailing zero bits, which Ryu
        // tests for `q <= 1` only: `mp` has one, `mm` one when it is even.
        if q <= 1 {
            if accept_bounds {
                vm_is_exact = mm % 2 == 0;
            } else {
                vp -= 1;
            }
        }
    }

    let mut removed = 0;
    let output = if vm_is_exact {
        // Rare: remove digits one at a time, tracking whether `vm` still is
        // the lower end exactly.
        let mut last_removed = 0;
        while vp / 10 > vm / 10 {
            vm_is_exact &= vm % 10 == 0;
            last_removed = vr % 10;
            (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
            removed += 1;
        }
        if vm_is_exact {
            // Ends: `vm` is the positive lower end exactly, so it is not 0.
            while vm % 10 == 0 {
                last_removed = vr % 10;
                (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
                removed += 1;
            }
        }
        vr + u64::from((vr == vm && !vm_is_exact) || last_removed >= 5)
    } else {
        let mut round_up = false;
        if vp / 100 > vm / 100 {
            round_up = vr % 100 >= 50;
            (vr, vp, vm) = (vr / 100, vp / 100, vm / 100);
            removed += 2;
        }
        while vp / 10 > vm / 10 {
            round_up = vr % 10 >= 5;
            (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
            removed += 1;
        }
        vr + u64::from(vr == vm || round_up)
    };
    (output, e10 + removed)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use pygko_sim::rng::Xoshiro256pp;

    fn assert_prints_as_debug(v: f64, out: &mut Vec<u8>, reference: &mut String) {
        use std::fmt::Write as _;
        out.clear();
        reference.clear();
        push_shortest(out, v);
        write!(reference, "{v:?}").unwrap();
        assert!(
            out.as_slice() == reference.as_bytes(),
            "{:#018x}: printed {:?}, `{{:?}}` prints {reference:?}",
            v.to_bits(),
            String::from_utf8_lossy(out)
        );
    }

    /// Compares the printer with `{:?}` on the edge classes and on `count`
    /// seeded bit patterns: half raw bits (any exponent, NaNs, infinities,
    /// subnormals), half with an exponent within 2^±70, where the decimal
    /// notation and the matrices' values live.
    fn compare_with_debug(count: u64) -> u64 {
        let (mut out, mut reference) = (Vec::new(), String::new());
        let mut checked = 0;
        for v in crate::tests::printer_edge_values() {
            for v in [v, -v] {
                assert_prints_as_debug(v, &mut out, &mut reference);
                checked += 1;
            }
        }
        let mut rng = Xoshiro256pp::seed_from_u64(0x7F4A_7C15_9E37_79B9);
        for k in 0..count {
            let mut bits = rng.next_u64();
            if k % 2 == 1 {
                let exponent = 1023 - 70 + rng.below(140);
                bits = (bits & !(0x7FF << 52)) | (exponent << 52);
            }
            assert_prints_as_debug(f64::from_bits(bits), &mut out, &mut reference);
            checked += 1;
        }
        checked
    }

    #[test]
    fn the_printer_prints_what_debug_prints() {
        let checked = compare_with_debug(1_000_000);
        assert!(checked > 1_000_000, "{checked}");
    }

    /// `cargo test --release -p pygko-mtx -- --ignored --nocapture`
    #[test]
    #[ignore = "100 million patterns; run in release"]
    fn the_printer_prints_what_debug_prints_on_a_hundred_million_patterns() {
        let checked = compare_with_debug(100_000_000);
        println!("{checked} values printed as `{{:?}}` prints them, 0 mismatches");
    }

    #[test]
    fn integers_print_as_display_prints_them() {
        let mut out = Vec::new();
        let mut rng = Xoshiro256pp::seed_from_u64(0x0DD5_EED5);
        let values =
            (0..64).flat_map(|k| [1u64 << k, (1u64 << k) - 1, 10u64.saturating_pow(k / 3)]);
        for v in values
            .chain([u64::MAX, 99, 100, 101])
            .chain((0..10_000).map(|_| rng.next_u64() >> rng.below(64)))
        {
            out.clear();
            push_integer(&mut out, v);
            assert_eq!(out, v.to_string().into_bytes());
        }
    }

    /// `value x factor`, `value` least significant limb first, as a plain
    /// vector of u32.
    pub(crate) fn times(value: &mut Vec<u32>, factor: u32) {
        let mut carry = 0u64;
        for limb in value.iter_mut() {
            let t = u64::from(*limb) * u64::from(factor) + carry;
            *limb = t as u32;
            carry = t >> 32;
        }
        if carry > 0 {
            value.push(carry as u32);
        }
    }

    /// Compares two such integers.
    pub(crate) fn compare(a: &[u32], b: &[u32]) -> std::cmp::Ordering {
        let len = a.len().max(b.len());
        (0..len)
            .rev()
            .map(|k| a.get(k).unwrap_or(&0).cmp(b.get(k).unwrap_or(&0)))
            .find(|o| o.is_ne())
            .unwrap_or(std::cmp::Ordering::Equal)
    }

    /// `a - b`, for `a >= b`.
    pub(crate) fn subtract(a: &mut [u32], b: &[u32]) {
        let mut borrow = 0i64;
        for (k, limb) in a.iter_mut().enumerate() {
            let t = i64::from(*limb) - i64::from(*b.get(k).unwrap_or(&0)) - borrow;
            *limb = t.rem_euclid(1 << 32) as u32;
            borrow = i64::from(t < 0);
        }
    }

    /// The tables against the definitions, by long division on a bignum of
    /// its own.
    #[test]
    fn the_tables_hold_the_powers_of_five_they_are_defined_as() {
        fn bit_length(value: &[u32]) -> i32 {
            let top = value.len() - 1;
            32 * top as i32 + (32 - value[top].leading_zeros()) as i32
        }
        fn bit(value: &[u32], k: i32) -> u32 {
            let Ok(k) = usize::try_from(k) else { return 0 };
            value.get(k / 32).map_or(0, |limb| limb >> (k % 32) & 1)
        }
        let mut power = vec![1u32];
        for i in 0..POW5.len().max(POW5_INV.len()) {
            let length = bit_length(&power);
            assert_eq!(length, pow5_bits(i as i32), "5^{i}");
            if let Some(&entry) = POW5.get(i) {
                let top = (0..POW5_BITS).fold(0u128, |acc, k| {
                    (acc << 1) | u128::from(bit(&power, length - 1 - k))
                });
                assert_eq!(entry, top, "leading bits of 5^{i}");
            }
            if let Some(&entry) = POW5_INV.get(i) {
                // floor(2^(length - 1 + 122) / 5^i) by schoolbook binary division.
                let mut quotient = 0u128;
                let mut rem = vec![0u32];
                for k in (0..length - 1 + POW5_INV_BITS + 1).rev() {
                    times(&mut rem, 2);
                    rem[0] |= u32::from(k == length - 1 + POW5_INV_BITS);
                    let fits = compare(&rem, &power) != std::cmp::Ordering::Less;
                    if fits {
                        subtract(&mut rem, &power);
                    }
                    quotient = (quotient << 1) | u128::from(fits);
                }
                assert_eq!(entry, quotient + 1, "inverse of 5^{i}");
            }
            times(&mut power, 5);
        }
    }
}
