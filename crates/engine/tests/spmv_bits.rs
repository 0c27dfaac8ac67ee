//! The SpMV oracle (`common/spmv.rs`) in every value and index type: every
//! format and CSR strategy on every executor, bit for bit against the
//! kernels' summation order and within the bounded tier's error bound.
//!
//! Beside it, for the CSR strategies, 9 001 short rows of random length and
//! one long row, the irregular class a row kernel may visit out of row order;
//! `BatchCsr` against the same row sum; and a check that the oracle's inputs
//! reach the partition edges they are named for.

use common::spmv::{
    assert_bits, check_csr, check_everywhere, matrices, reference_rows, rhs_value,
    with_row_lengths, Reference, Triplets, FORMATS,
};
use gko::matrix::{BatchCsr, BatchDense, Csr, ResolvedStrategy, SpmvStrategy};
use gko::{Dim2, Executor, Index, TripletValue, Value};
use pygko_half::Half;

mod common;

/// Rows of the irregular family: neither the row count nor most piece
/// boundaries are multiples of 128.
const IRREGULAR_ROWS: usize = 9_001;

/// The circuit class at a size the CSR plan treats as a whole matrix: short
/// rows of seeded random length 1..=12 (a new length on most rows, so the row
/// loop's exits are unpredictable) and one rail row long enough that `Auto`
/// resolves to merge-path and segments cut it.
fn irregular_rows() -> (Dim2, Triplets) {
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut lens: Vec<usize> = (0..IRREGULAR_ROWS)
        .map(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            1 + (state >> 33) as usize % 12
        })
        .collect();
    lens[1_234] = 400;
    with_row_lengths(IRREGULAR_ROWS, &lens)
}

/// Every CSR strategy on [`irregular_rows`], against the same references as
/// the small matrices: a row kernel that visits a piece's rows in another
/// order must still write each row once, from the same sum.
fn check_irregular_csr<V: Value, I: Index>()
where
    f64: TripletValue<V>,
{
    let (dim, triplets) = irregular_rows();
    assert_ne!(dim.rows % 128, 0);
    for exec in common::executors() {
        let workers = exec.spec().workers;
        let csr = Csr::<V, I>::from_triplets(&exec, dim, &triplets).unwrap();
        assert_eq!(
            csr.plan().resolved,
            ResolvedStrategy::MergePath,
            "Auto on the rail"
        );
        let m = Reference::of(&csr);
        check_csr(
            &exec,
            &csr,
            &m,
            "irregular",
            &FORMATS,
            |strategy, plan, ctx| {
                assert!(plan.ordered_rows() > 0, "{ctx}: rows grouped by length");
                if workers == 7 && plan.resolved != ResolvedStrategy::MergePath {
                    let off_grid = plan.row_bounds.iter().any(|b| b % 128 != 0);
                    assert!(
                        off_grid,
                        "{ctx} ({strategy:?}): a piece boundary inside a window of 128 rows"
                    );
                }
            },
        );
    }
    common::print_coverage(&format!("spmv_bits::irregular {}/{}", V::NAME, I::NAME));
}

/// Every format and CSR strategy on every input and executor.
fn check_all_formats<V: Value, I: Index>()
where
    f64: TripletValue<V>,
{
    check_everywhere::<V, I>(&format!("spmv_bits::{}/{}", V::NAME, I::NAME), &FORMATS);
}

#[test]
fn irregular_rows_double_int32() {
    check_irregular_csr::<f64, i32>();
}

#[test]
fn irregular_rows_float_int64() {
    check_irregular_csr::<f32, i64>();
}

#[test]
fn irregular_rows_half_int32() {
    check_irregular_csr::<Half, i32>();
}

#[test]
fn half_int32() {
    check_all_formats::<Half, i32>();
}

#[test]
fn half_int64() {
    check_all_formats::<Half, i64>();
}

#[test]
fn float_int32() {
    check_all_formats::<f32, i32>();
}

#[test]
fn float_int64() {
    check_all_formats::<f32, i64>();
}

#[test]
fn double_int32() {
    check_all_formats::<f64, i32>();
}

#[test]
fn double_int64() {
    check_all_formats::<f64, i64>();
}

/// `BatchCsr::apply_batch` is the CSR `k == 1` row sum per system, for
/// batches below and above every executor's chunk count.
#[test]
fn batch_csr_rows_sum_in_the_unrolled_order() {
    for exec in common::executors() {
        for (name, dim, triplets) in matrices() {
            if dim.rows == 0 {
                continue;
            }
            let proto = Csr::<f64, i32>::from_triplets(&exec, dim, &triplets).unwrap();
            for systems in [2usize, 40] {
                let scale = |s: usize| 1.0 + s as f64 * 0.25;
                let scaled: Vec<Csr<f64, i32>> = (0..systems)
                    .map(|s| {
                        let t: Triplets = triplets
                            .iter()
                            .map(|&(r, c, v)| (r, c, v * scale(s)))
                            .collect();
                        Csr::from_triplets(&exec, dim, &t).unwrap()
                    })
                    .collect();
                let values: Vec<Vec<f64>> = scaled.iter().map(|a| a.values().to_vec()).collect();
                let rhs: Vec<Vec<f64>> = (0..systems)
                    .map(|s| (0..dim.cols).map(|i| rhs_value(i + s)).collect())
                    .collect();
                let b = BatchDense::from_systems(&exec, Dim2::new(dim.cols, 1), &rhs).unwrap();
                let batch = BatchCsr::from_shared(&proto, &values).unwrap();
                // Unmasked, then with every third system masked out: an
                // inactive system's `x` keeps the bits it came with.
                let sentinel = |s: usize, r: usize| -(1.5 + (s * dim.rows + r) as f64);
                let masked: Vec<bool> = (0..systems).map(|s| s % 3 != 1).collect();
                for mask in [None, Some(&masked[..])] {
                    let mut x = BatchDense::zeros(&exec, systems, Dim2::new(dim.rows, 1));
                    for s in 0..systems {
                        for (r, v) in x.system_mut(s).iter_mut().enumerate() {
                            *v = sentinel(s, r);
                        }
                    }
                    batch.apply_batch(&b, &mut x, mask).unwrap();
                    for s in 0..systems {
                        let mut want: Vec<f64> = (0..dim.rows).map(|r| sentinel(s, r)).collect();
                        if mask.is_none_or(|m| m[s]) {
                            let m = Reference::of(&scaled[s]);
                            reference_rows(&m.rows, 1, 1.0, &rhs[s], 0.0, &mut want);
                        }
                        let on = exec.name();
                        let masking = if mask.is_some() { "masked" } else { "unmasked" };
                        let ctx = format!("batch {masking} {name} system {s}/{systems} on {on}");
                        assert_bits(x.system(s), &want, &ctx);
                    }
                }
            }
        }
    }
}

/// The matrices above are only worth their names if the partitions really
/// cut where the leaf kernels have edges.
#[test]
fn partitions_reach_the_edges_they_are_named_for() {
    let exec = Executor::omp(16);
    let find = |wanted: &str| {
        let (_, dim, t) = matrices()
            .into_iter()
            .find(|(name, ..)| *name == wanted)
            .unwrap();
        Csr::<f64, i32>::from_triplets(&exec, dim, &t).unwrap()
    };

    let one_row = find("one_row_holds_everything");
    let coo = Reference::of(&one_row).coo_segments(16);
    assert!(coo.len() >= 3 && coo.iter().all(|s| s.row_first == 2 && s.row_last == 2));
    assert!(
        coo.iter().any(|s| s.nnz_end - s.nnz_start == 1),
        "single-entry segment"
    );
    let merge = one_row.with_strategy(SpmvStrategy::MergePath).plan();
    assert!(
        merge
            .segments
            .iter()
            .filter(|s| s.row_first <= 2 && 2 <= s.row_last)
            .count()
            >= 3
    );

    let uneven = find("uneven_rows");
    let rp = uneven.row_ptrs().to_vec();
    let inside_a_row = |cut: usize| !rp.contains(&(cut as i32));
    let merge = uneven.with_strategy(SpmvStrategy::MergePath).plan();
    assert!(
        merge.segments.iter().any(|s| inside_a_row(s.nnz_start)),
        "merge cut inside a row"
    );
    let coo = Reference::of(&find("uneven_rows")).coo_segments(2);
    assert!(
        coo.iter().any(|s| inside_a_row(s.nnz_start)),
        "coo cut inside a row"
    );
    assert!(
        coo.iter().any(|s| s.row_last > s.row_first + 1),
        "segment with interior rows"
    );
}
