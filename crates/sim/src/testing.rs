//! Deterministic randomized-testing harness.
//!
//! The workspace originally used `proptest` for property-based tests, but
//! that crate cannot be fetched in the offline build environment. This module
//! replaces it with a small, fully in-tree driver seeded by the workspace's
//! own portable PRNG ([`crate::rng::Xoshiro256pp`]): every test runs a fixed
//! number of cases, each case derives its generator stream from the test name
//! and case index, so failures reproduce exactly on any host and any run.

use crate::rng::{splitmix64, Xoshiro256pp};

/// Default number of random cases per property (matches the `ProptestConfig`
/// the original suite used).
pub(crate) const DEFAULT_CASES: usize = 64;

/// Runs `body` for `cases` deterministic cases.
///
/// The RNG stream of case `i` depends only on `name` and `i`; on a failing
/// assertion the panic message is prefixed with the case index so the exact
/// input can be regenerated.
pub fn check_cases(name: &str, cases: usize, mut body: impl FnMut(&mut Xoshiro256pp)) {
    for case in 0..cases {
        let mut rng = case_rng(name, case as u64);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            body(&mut rng);
        }));
        if let Err(payload) = result {
            eprintln!("randomized property '{name}' failed at case {case}/{cases}");
            std::panic::resume_unwind(payload);
        }
    }
}

/// Runs `body` for `DEFAULT_CASES` deterministic cases.
pub fn check(name: &str, body: impl FnMut(&mut Xoshiro256pp)) {
    check_cases(name, DEFAULT_CASES, body);
}

/// The RNG for one named case, usable directly when a test wants to manage
/// its own loop.
pub fn case_rng(name: &str, case: u64) -> Xoshiro256pp {
    // Mix the test name into the seed with SplitMix64 over its bytes, so
    // different properties draw independent streams.
    let mut h = 0x9E37_79B9_7F4A_7C15u64 ^ name.len() as u64;
    for &b in name.as_bytes() {
        h = splitmix64(&mut { h ^ b as u64 });
    }
    Xoshiro256pp::seed_from_u64(h ^ case.wrapping_mul(0xA076_1D64_78BD_642F))
}

/// Draws a random square sparse matrix as `(n, unique sorted triplets)` — the
/// shared generator the format/solver properties use.
///
/// `n` is uniform in `[min_n, max_n)`; the entry count is uniform in
/// `[1, max_entries)` before coordinate deduplication; values are uniform in
/// `[-amplitude, amplitude)`.
pub fn sparse_triplets(
    rng: &mut Xoshiro256pp,
    min_n: usize,
    max_n: usize,
    max_entries: usize,
    amplitude: f64,
) -> (usize, Vec<(usize, usize, f64)>) {
    let n = min_n + rng.below_usize(max_n - min_n);
    let count = 1 + rng.below_usize(max_entries - 1);
    let mut entries: Vec<(usize, usize, f64)> = (0..count)
        .map(|_| {
            (
                rng.below_usize(n),
                rng.below_usize(n),
                rng.range_f64(-amplitude, amplitude),
            )
        })
        .collect();
    entries.sort_by_key(|&(r, c, _)| (r, c));
    entries.dedup_by_key(|&mut (r, c, _)| (r, c));
    (n, entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_rng_is_deterministic_and_name_separated() {
        let a: Vec<u64> = (0..4).map(|_| case_rng("prop_a", 3).next_u64()).collect();
        let b: Vec<u64> = (0..4).map(|_| case_rng("prop_a", 3).next_u64()).collect();
        assert_eq!(a, b, "same name and case give the same stream");
        assert_ne!(
            case_rng("prop_a", 0).next_u64(),
            case_rng("prop_b", 0).next_u64(),
            "different names give different streams"
        );
        assert_ne!(
            case_rng("prop_a", 0).next_u64(),
            case_rng("prop_a", 1).next_u64(),
            "different cases give different streams"
        );
    }

    #[test]
    fn check_runs_the_requested_number_of_cases() {
        let mut runs = 0;
        check_cases("counting", 17, |_| runs += 1);
        assert_eq!(runs, 17);
    }

    #[test]
    fn sparse_triplets_are_sorted_unique_and_in_range() {
        check("sparse_gen", |rng| {
            let (n, t) = sparse_triplets(rng, 2, 20, 50, 5.0);
            assert!((2..20).contains(&n));
            assert!(!t.is_empty());
            for w in t.windows(2) {
                assert!((w[0].0, w[0].1) < (w[1].0, w[1].1), "sorted unique");
            }
            for &(r, c, v) in &t {
                assert!(r < n && c < n);
                assert!((-5.0..5.0).contains(&v));
            }
        });
    }
}
