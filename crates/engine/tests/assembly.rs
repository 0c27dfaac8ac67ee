//! Differential test of the triplet assembler: `Csr::from_triplets` and
//! `Coo::from_triplets` against the naive definition (stable sort by
//! `(row, col)`, duplicates summed left to right in the stored type), bit
//! for bit, for every value x index type the facade dispatches to, with the
//! triplets given in the stored type and as the `f64` the facade and the
//! Matrix Market reader hold.

use gko::matrix::{Coo, Csr};
use gko::{Dim2, Executor, GkoError, Index, Value};
use pygko_half::Half;
use pygko_sim::rng::Xoshiro256pp;

/// Magnitudes from 2^-6 to 2^6 and both signs: a sum in `Half` or `f32`
/// depends on the order of its terms.
fn value(rng: &mut Xoshiro256pp) -> f64 {
    let scaled = (1.0 + rng.next_f64()) * f64::powi(2.0, rng.below_usize(13) as i32 - 6);
    if rng.below_usize(2) == 0 {
        scaled
    } else {
        -scaled
    }
}

type Triplets = Vec<(usize, usize, f64)>;

/// Named inputs: `(name, rows, cols, triplets)`.
fn inputs() -> Vec<(&'static str, usize, usize, Triplets)> {
    let mut rng = Xoshiro256pp::seed_from_u64(0x5EED_0FA5_5E4B_1E00);
    // A banded 40 x 40 pattern in (row, col) order, no duplicates.
    let mut sorted = Triplets::new();
    for r in 0..40usize {
        for c in r.saturating_sub(2)..(r + 3).min(40) {
            sorted.push((r, c, value(&mut rng)));
        }
    }
    let reversed: Triplets = sorted.iter().rev().copied().collect();
    let mut shuffled = sorted.clone();
    rng.shuffle(&mut shuffled);
    // 600 entries on 30 distinct positions of a 6 x 5 matrix.
    let duplicate_heavy: Triplets = (0..600)
        .map(|_| (rng.below_usize(6), rng.below_usize(5), value(&mut rng)))
        .collect();
    // Duplicates inside rows that are otherwise in order.
    let mut sorted_with_duplicates = Triplets::new();
    for &(r, c, v) in &sorted {
        sorted_with_duplicates.push((r, c, v));
        if (r + c) % 3 == 0 {
            sorted_with_duplicates.push((r, c, value(&mut rng)));
            sorted_with_duplicates.push((r, c, value(&mut rng)));
        }
    }
    // Rows 0, 3, 4 and 9 (the last) stay empty.
    let mut empty_rows: Triplets = (0..60)
        .map(|_| {
            (
                [1, 2, 5, 6, 7, 8][rng.below_usize(6)],
                rng.below_usize(10),
                value(&mut rng),
            )
        })
        .collect();
    empty_rows.sort_by_key(|&(r, _, _)| r);
    let wide: Triplets = (0..300)
        .map(|_| (rng.below_usize(4), rng.below_usize(97), value(&mut rng)))
        .collect();
    let tall: Triplets = (0..300)
        .map(|_| (rng.below_usize(97), rng.below_usize(4), value(&mut rng)))
        .collect();
    // One row long enough for the column sort to leave insertion sort.
    let long_row: Triplets = (0..500)
        .map(|_| (1, rng.below_usize(200), value(&mut rng)))
        .collect();
    vec![
        ("sorted", 40, 40, sorted),
        ("reversed", 40, 40, reversed),
        ("shuffled", 40, 40, shuffled),
        ("duplicate_heavy", 6, 5, duplicate_heavy),
        ("sorted_with_duplicates", 40, 40, sorted_with_duplicates),
        ("empty_rows", 10, 10, empty_rows),
        ("wide", 4, 97, wide),
        ("tall", 97, 4, tall),
        ("long_row", 3, 200, long_row),
        ("empty", 5, 7, Triplets::new()),
        ("no_rows", 0, 3, Triplets::new()),
        ("single", 1, 1, vec![(0, 0, -2.5)]),
    ]
}

/// The definition: `(row_ptrs, col_idxs, values)` of the summed matrix.
fn reference<V: Value>(
    rows: usize,
    triplets: &[(usize, usize, V)],
) -> (Vec<usize>, Vec<usize>, Vec<V>) {
    let mut sorted = triplets.to_vec();
    sorted.sort_by_key(|&(r, c, _)| (r, c));
    let mut row_ptrs = vec![0usize; rows + 1];
    let (mut cols, mut values): (Vec<usize>, Vec<V>) = (Vec::new(), Vec::new());
    let mut last = None;
    for (r, c, v) in sorted {
        if last == Some((r, c)) {
            *values.last_mut().unwrap() += v;
        } else {
            row_ptrs[r + 1] += 1;
            cols.push(c);
            values.push(v);
            last = Some((r, c));
        }
    }
    for r in 0..rows {
        row_ptrs[r + 1] += row_ptrs[r];
    }
    (row_ptrs, cols, values)
}

fn indices<I: Index>(stored: &[I]) -> Vec<usize> {
    stored.iter().map(|i| i.to_usize()).collect()
}

/// Widening to `f64` is exact and keeps the sign of zero.
fn bits<V: Value>(stored: &[V]) -> Vec<u64> {
    stored.iter().map(|v| v.to_f64().to_bits()).collect()
}

fn check_types<V: Value, I: Index>()
where
    f64: gko::TripletValue<V>,
{
    let exec = Executor::reference();
    for (name, rows, cols, wide) in inputs() {
        let what = format!("{name} as {} x {}", V::NAME, I::NAME);
        let dim = Dim2::new(rows, cols);
        let typed: Vec<(usize, usize, V)> = wide
            .iter()
            .map(|&(r, c, v)| (r, c, V::from_f64(v)))
            .collect();
        let (want_ptrs, want_cols, want_values) = reference(rows, &typed);
        let row_of_entry: Vec<usize> = want_ptrs
            .windows(2)
            .enumerate()
            .flat_map(|(r, span)| std::iter::repeat_n(r, span[1] - span[0]))
            .collect();

        // Stored-type triplets and f64 triplets build the same matrix.
        let from_typed = Csr::<V, I>::from_triplets(&exec, dim, &typed).unwrap();
        let from_wide = Csr::<V, I>::from_triplets(&exec, dim, &wide).unwrap();
        for csr in [&from_typed, &from_wide] {
            csr.validate().unwrap();
            assert_eq!(indices(csr.row_ptrs()), want_ptrs, "{what}: row_ptrs");
            assert_eq!(indices(csr.col_idxs()), want_cols, "{what}: col_idxs");
            assert_eq!(bits(csr.values()), bits(&want_values), "{what}: values");
        }
        let from_typed = Coo::<V, I>::from_triplets(&exec, dim, &typed).unwrap();
        let from_wide = Coo::<V, I>::from_triplets(&exec, dim, &wide).unwrap();
        for coo in [&from_typed, &from_wide] {
            coo.validate().unwrap();
            assert_eq!(indices(coo.row_idxs()), row_of_entry, "{what}: row_idxs");
            assert_eq!(indices(coo.col_idxs()), want_cols, "{what}: coo col_idxs");
            assert_eq!(bits(coo.values()), bits(&want_values), "{what}: coo values");
        }
    }
}

#[test]
fn assembler_equals_stable_sort_and_sum_for_every_dispatched_type() {
    check_types::<Half, i32>();
    check_types::<Half, i64>();
    check_types::<f32, i32>();
    check_types::<f32, i64>();
    check_types::<f64, i32>();
    check_types::<f64, i64>();
}

#[test]
fn summation_order_is_observable_in_the_inputs() {
    // Guards the test above: were every duplicate sum order-independent, it
    // could not tell "input order" from any other order.
    let (_, rows, _, wide) = inputs()
        .into_iter()
        .find(|input| input.0 == "duplicate_heavy")
        .unwrap();
    let forward: Vec<(usize, usize, f32)> =
        wide.iter().map(|&(r, c, v)| (r, c, v as f32)).collect();
    let backward: Vec<(usize, usize, f32)> = forward.iter().rev().copied().collect();
    assert_ne!(
        bits(&reference(rows, &forward).2),
        bits(&reference(rows, &backward).2)
    );
}

#[test]
fn out_of_range_entries_are_rejected_with_the_same_message() {
    let exec = Executor::reference();
    let dim = Dim2::new(2, 3);
    for (entry, shown) in [
        ((2, 0, 1.0), "(2, 0)"),
        ((0, 3, 1.0), "(0, 3)"),
        ((7, 9, 1.0), "(7, 9)"),
    ] {
        let triplets = [(0, 0, 1.0), entry, (5, 5, 1.0)];
        let want = format!("bad input: entry {shown} outside matrix (2 x 3)");
        let err = Csr::<f64, i32>::from_triplets(&exec, dim, &triplets).unwrap_err();
        assert!(matches!(err, GkoError::BadInput(_)));
        assert_eq!(err.to_string(), want);
        let err = Coo::<f32, i64>::from_triplets(&exec, dim, &triplets).unwrap_err();
        assert_eq!(err.to_string(), want);
    }
}

#[test]
fn a_shape_the_index_type_cannot_address_is_an_error_not_a_panic() {
    let exec = Executor::reference();
    let dim = Dim2::new(1, 3_000_000_000);
    let err = Csr::<f64, i32>::from_triplets(&exec, dim, &[(0, 2_999_999_999, 1.0)]).unwrap_err();
    assert!(
        err.to_string().contains("exceeds the int32 index range"),
        "{err}"
    );
    let wide = Csr::<f64, i64>::from_triplets(&exec, dim, &[(0, 2_999_999_999, 1.0)]).unwrap();
    assert_eq!(wide.col_idxs(), &[2_999_999_999i64]);
}
