//! Bit-for-bit pin of every format's SpMV.
//!
//! `parity.rs` compares executors with each other inside an ulp band; this
//! file compares every format's `apply` / `apply_advanced` with a reference
//! written *here*, in the kernel's own summation order, and asks for
//! `to_bits` equality. A kernel rewrite that keeps the arithmetic keeps this
//! file green with no edit; one that reassociates a sum, drops the `f64`
//! accumulator, or changes how a split row is merged does not.
//!
//! The orders pinned (the formats' contract since PR 6 / PR 13):
//!
//! * row kernels (CSR classical / load-balance, ELL, SELL-P), `k == 1`: four
//!   accumulators over entries `4i + j`, a sequential tail, folded as
//!   `((a0 + a1) + (a2 + a3)) + tail`; `k > 1`: one sequential sum per
//!   column. Then `x = alpha * V(sum)` when `beta == 0`, else
//!   `alpha * V(sum) + beta * x`.
//! * segment kernels (CSR merge-path, COO): `x` prescaled by `beta`, each
//!   segment's piece of a row summed (merge-path `k == 1` with the 4-wide
//!   order, everything else in entry order), rows strictly inside a segment
//!   updated as `x += alpha * V(sum)`, a segment's first and last row merged
//!   afterwards in segment order.
//!
//! Matrices are chosen for the edges of those loops: every row length
//! 0..=9, empty leading and trailing rows, no entries at all, 1 x 1, one row
//! holding every entry (so segments cut it many times), stored `-0.0`; and,
//! for the CSR strategies, 9 001 short rows of random length beside one long
//! row, the irregular class a row kernel may visit out of row order.

use gko::executor::pool::uniform_bounds;
use gko::linop::LinOp;
use gko::matrix::hybrid::DEFAULT_PERCENTILE;
use gko::matrix::{
    BatchCsr, BatchDense, Coo, Csr, Dense, Ell, Hybrid, MergeSegment, ResolvedStrategy, Sellp,
    SpmvStrategy,
};
use gko::{Dim2, Executor, Index, TripletValue, Value};
use pygko_half::Half;

type Triplets = Vec<(usize, usize, f64)>;

/// `(alpha, beta)` pairs: plain, scaled, accumulate, and the general case.
const SCALARS: [(f64, f64); 4] = [(1.0, 0.0), (2.0, 0.0), (1.0, 1.0), (-0.5, 2.0)];

fn executors() -> Vec<Executor> {
    let mut all = vec![Executor::reference()];
    all.extend([1, 2, 7, 16].map(Executor::omp));
    all
}

/// Full-mantissa values of both signs across six binades, so that an `f64`
/// sum of their products rounds at every step and a reassociated sum differs.
fn irrational(i: usize) -> f64 {
    let unit = (i as f64 * 0.618_033_988_749_895).fract() - 0.5;
    unit * (1u32 << (i % 6)) as f64
}

/// A matrix whose row `r` holds `lens[r]` entries, columns spread over `cols`.
fn with_row_lengths(cols: usize, lens: &[usize]) -> (Dim2, Triplets) {
    let mut t = Vec::new();
    for (r, &len) in lens.iter().enumerate() {
        assert!(len <= cols);
        for slot in 0..len {
            // Strictly increasing columns inside the row.
            let c = (slot * cols) / len;
            t.push((r, c, irrational(1 + r * 41 + slot * 3)));
        }
    }
    (Dim2::new(lens.len(), cols), t)
}

fn matrices() -> Vec<(&'static str, Dim2, Triplets)> {
    let mut all = Vec::new();
    let mut add = |name, (dim, t): (Dim2, Triplets)| all.push((name, dim, t));
    // Every residue of the 4-wide unroll, twice, in two orders.
    let mut lens: Vec<usize> = (0..=9).collect();
    lens.extend((0..=9).rev());
    add("row_lengths_0_to_9", with_row_lengths(12, &lens));
    add(
        "empty_leading_and_trailing_rows",
        with_row_lengths(9, &[0, 0, 0, 3, 1, 5, 2, 0, 0, 0, 0]),
    );
    add("all_empty", (Dim2::new(6, 5), Vec::new()));
    add("zero_rows", (Dim2::new(0, 7), Vec::new()));
    add("one_by_one", (Dim2::new(1, 1), vec![(0, 0, -1.5)]));
    // Every entry in one row: any nonzero partition cuts it repeatedly.
    let mut one_row = vec![0usize; 5];
    one_row[2] = 37;
    add("one_row_holds_everything", with_row_lengths(40, &one_row));
    // Uneven rows, so cuts fall inside rows, on row starts and on empties.
    add(
        "uneven_rows",
        with_row_lengths(16, &[7, 1, 0, 9, 2, 2, 13, 0, 0, 5, 1, 6]),
    );
    // Stored zeros of both signs: products are `-0.0`, sums must not be.
    add(
        "signed_zeros",
        (
            Dim2::new(4, 4),
            vec![
                (0, 0, -0.0),
                (0, 2, 0.0),
                (1, 1, -0.0),
                (2, 0, 0.0),
                (2, 1, -0.0),
                (2, 2, 0.0),
                (2, 3, -0.0),
                (3, 3, 2.0),
            ],
        ),
    );
    all
}

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

fn dense<V: Value>(exec: &Executor, rows: usize, k: usize, f: impl Fn(usize) -> f64) -> Dense<V> {
    let v: Vec<V> = (0..rows * k).map(|i| V::from_f64(f(i))).collect();
    Dense::from_vec(exec, Dim2::new(rows, k), v).unwrap()
}

/// Right-hand side: full mantissas, a `-0.0` and a `0.0` in every 13.
fn rhs_value(i: usize) -> f64 {
    match i % 13 {
        4 => -0.0,
        9 => 0.0,
        _ => irrational(1000 + i * 5),
    }
}

fn x0_value(i: usize) -> f64 {
    irrational(2000 + i * 7)
}

// ---------------------------------------------------------------------------
// The reference, in the kernels' summation order
// ---------------------------------------------------------------------------

/// One stored entry as the reference sees it.
type Entry<V> = (V, usize);

/// The `k == 1` row sum: four accumulators, sequential tail.
fn sum_unrolled<V: Value>(entries: &[Entry<V>], b: &[V], k: usize, c: usize) -> f64 {
    let mut a = [0.0f64; 4];
    let body = entries.len() / 4 * 4;
    for (i, &(v, col)) in entries[..body].iter().enumerate() {
        a[i % 4] += v.to_f64() * b[col * k + c].to_f64();
    }
    let mut tail = 0.0f64;
    for &(v, col) in &entries[body..] {
        tail += v.to_f64() * b[col * k + c].to_f64();
    }
    ((a[0] + a[1]) + (a[2] + a[3])) + tail
}

/// The sequential sum (every `k > 1` kernel, and COO's `k == 1`).
fn sum_in_order<V: Value>(entries: &[Entry<V>], b: &[V], k: usize, c: usize) -> f64 {
    let mut acc = 0.0f64;
    for &(v, col) in entries {
        acc += v.to_f64() * b[col * k + c].to_f64();
    }
    acc
}

type RowSum<V> = fn(&[Entry<V>], &[V], usize, usize) -> f64;

/// How a row kernel sums for `k` right-hand sides.
fn row_sum<V: Value>(k: usize) -> RowSum<V> {
    if k == 1 {
        sum_unrolled
    } else {
        sum_in_order
    }
}

/// Row kernels: every output written once from its (padded) row.
fn reference_rows<V: Value>(
    rows: &[Vec<Entry<V>>],
    k: usize,
    alpha: V,
    b: &[V],
    beta: V,
    x: &mut [V],
) {
    for (r, entries) in rows.iter().enumerate() {
        for c in 0..k {
            let prod = V::from_f64(row_sum::<V>(k)(entries, b, k, c));
            let out = &mut x[r * k + c];
            *out = if beta == V::zero() {
                alpha * prod
            } else {
                alpha * prod + beta * *out
            };
        }
    }
}

/// Segment kernels: prescale, then per segment the pieces of its rows.
#[allow(clippy::too_many_arguments)]
fn reference_segments<V: Value>(
    entries: &[Entry<V>],
    row_of: &[usize],
    segments: &[MergeSegment],
    piece_sum: RowSum<V>,
    k: usize,
    alpha: V,
    b: &[V],
    beta: V,
    x: &mut [V],
) {
    if beta == V::zero() {
        x.fill(V::zero());
    } else if beta != V::one() {
        for v in x.iter_mut() {
            *v *= beta;
        }
    }
    for seg in segments {
        let mut boundary = vec![0.0f64; 2 * k];
        let mut lo = seg.nnz_start;
        while lo < seg.nnz_end {
            let r = row_of[lo];
            let mut hi = lo;
            while hi < seg.nnz_end && row_of[hi] == r {
                hi += 1;
            }
            for c in 0..k {
                let sum = piece_sum(&entries[lo..hi], b, k, c);
                if r <= seg.row_first {
                    boundary[c] = sum;
                } else if r >= seg.row_last {
                    boundary[k + c] = sum;
                } else {
                    x[r * k + c] += alpha * V::from_f64(sum);
                }
            }
            lo = hi;
        }
        for c in 0..k {
            x[seg.row_first * k + c] += alpha * V::from_f64(boundary[c]);
        }
        if seg.row_last != seg.row_first {
            for c in 0..k {
                x[seg.row_last * k + c] += alpha * V::from_f64(boundary[k + c]);
            }
        }
    }
}

/// The matrix as the reference reads it, taken from the library's own CSR
/// arrays (so value rounding and duplicate handling are not re-derived).
struct Reference<V> {
    rows: Vec<Vec<Entry<V>>>,
    entries: Vec<Entry<V>>,
    row_of: Vec<usize>,
}

impl<V: Value> Reference<V> {
    fn of<I: Index>(csr: &Csr<V, I>) -> Self {
        let (rp, ci, vals) = (csr.row_ptrs(), csr.col_idxs(), csr.values());
        let rows = rp.windows(2).map(|w| {
            let span = w[0].to_usize()..w[1].to_usize();
            vals[span.clone()]
                .iter()
                .zip(&ci[span])
                .map(|(&v, c)| (v, c.to_usize()))
                .collect()
        });
        Reference::from_rows(rows.collect())
    }

    fn from_rows(rows: Vec<Vec<Entry<V>>>) -> Self {
        let entries = rows.concat();
        let row_of = rows
            .iter()
            .enumerate()
            .flat_map(|(r, row)| row.iter().map(move |_| r));
        Reference {
            row_of: row_of.collect(),
            entries,
            rows,
        }
    }

    /// Rows padded to `width(r)` slots with value zero at the row's last
    /// column (column 0 for an empty row): the ELL / SELL-P layout.
    fn padded(&self, width: impl Fn(usize) -> usize) -> Vec<Vec<Entry<V>>> {
        self.rows
            .iter()
            .enumerate()
            .map(|(r, row)| {
                let mut row = row.clone();
                let pad = (V::zero(), row.last().map_or(0, |e| e.1));
                row.resize(width(r), pad);
                row
            })
            .collect()
    }

    /// The first `width` entries of every row, and the rest.
    fn split_at(&self, width: usize) -> (Reference<V>, Reference<V>) {
        let cut = self
            .rows
            .iter()
            .map(|row| row.split_at(width.min(row.len())));
        (
            Reference::from_rows(cut.clone().map(|(head, _)| head.to_vec()).collect()),
            Reference::from_rows(cut.map(|(_, rest)| rest.to_vec()).collect()),
        )
    }

    /// COO's nonzero partition for an executor with `workers` lanes.
    fn coo_segments(&self, workers: usize) -> Vec<MergeSegment> {
        uniform_bounds(self.entries.len(), workers * 4)
            .windows(2)
            .filter(|w| w[0] < w[1])
            .map(|w| MergeSegment {
                nnz_start: w[0],
                nnz_end: w[1],
                row_first: self.row_of[w[0]],
                row_last: self.row_of[w[1] - 1],
            })
            .collect()
    }

    fn max_row_len(&self, rows: std::ops::Range<usize>) -> usize {
        self.rows[rows].iter().map(Vec::len).max().unwrap_or(0)
    }
}

// ---------------------------------------------------------------------------
// The comparison
// ---------------------------------------------------------------------------

fn assert_bits<V: Value>(got: &[V], want: &[V], ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            g.to_f64().to_bits() == w.to_f64().to_bits(),
            "{ctx}: x[{i}] = {g:?}, reference {w:?}"
        );
    }
}

/// A reference SpMV: `(k, alpha, b, beta, x)`.
type ReferenceApply<'a, V> = &'a dyn Fn(usize, V, &[V], V, &mut [V]);

/// Drives `op` through `apply` and every `apply_advanced` scalar pair for
/// `k` in {1, 3} against `reference`.
fn check_op<V: Value>(exec: &Executor, op: &dyn LinOp<V>, reference: ReferenceApply<V>, ctx: &str) {
    let dim = op.size();
    for k in [1usize, 3] {
        let b = dense::<V>(exec, dim.cols, k, rhs_value);
        let bv = b.to_host_vec();
        let x0 = dense::<V>(exec, dim.rows, k, x0_value);

        let mut x = x0.clone();
        op.apply(&b, &mut x).unwrap();
        let mut want = x0.to_host_vec();
        reference(k, V::one(), &bv, V::zero(), &mut want);
        assert_bits(&x.to_host_vec(), &want, &format!("{ctx} k={k} apply"));

        for (alpha, beta) in SCALARS {
            let (alpha, beta) = (V::from_f64(alpha), V::from_f64(beta));
            let mut x = x0.clone();
            op.apply_advanced(alpha, &b, beta, &mut x).unwrap();
            let mut want = x0.to_host_vec();
            reference(k, alpha, &bv, beta, &mut want);
            assert_bits(
                &x.to_host_vec(),
                &want,
                &format!("{ctx} k={k} alpha={alpha:?} beta={beta:?}"),
            );
        }
    }
}

fn check_all_formats<V: Value, I: Index>()
where
    f64: TripletValue<V>,
{
    for exec in executors() {
        let workers = exec.spec().workers;
        for (name, dim, triplets) in matrices() {
            let csr = Csr::<V, I>::from_triplets(&exec, dim, &triplets).unwrap();
            let m = Reference::of(&csr);
            let ctx = |format: &str| {
                format!(
                    "{format} {}/{} {name} on {} x{workers}",
                    V::NAME,
                    I::NAME,
                    exec.name()
                )
            };

            for strategy in [SpmvStrategy::Classical, SpmvStrategy::LoadBalance] {
                let a = csr.clone().with_strategy(strategy);
                check_op(
                    &exec,
                    &a,
                    &|k, alpha, b, beta, x| reference_rows(&m.rows, k, alpha, b, beta, x),
                    &ctx(&format!("csr {strategy:?}")),
                );
            }

            let a = csr.clone().with_strategy(SpmvStrategy::MergePath);
            let plan = a.plan();
            assert_eq!(plan.resolved, ResolvedStrategy::MergePath);
            check_op(
                &exec,
                &a,
                &|k, alpha, b, beta, x| {
                    let sum = row_sum::<V>(k);
                    reference_segments(
                        &m.entries,
                        &m.row_of,
                        &plan.segments,
                        sum,
                        k,
                        alpha,
                        b,
                        beta,
                        x,
                    )
                },
                &ctx("csr MergePath"),
            );

            let coo_segments = m.coo_segments(workers);
            let reference_coo = |part: &Reference<V>, segments: &[MergeSegment]| {
                let (entries, row_of) = (part.entries.clone(), part.row_of.clone());
                let segments = segments.to_vec();
                move |k: usize, alpha: V, b: &[V], beta: V, x: &mut [V]| {
                    reference_segments(
                        &entries,
                        &row_of,
                        &segments,
                        sum_in_order,
                        k,
                        alpha,
                        b,
                        beta,
                        x,
                    )
                }
            };
            check_op(
                &exec,
                &Coo::from_csr(&csr),
                &reference_coo(&m, &coo_segments),
                &ctx("coo"),
            );

            let ell_rows = m.padded(|_| m.max_row_len(0..dim.rows));
            check_op(
                &exec,
                &Ell::from_csr(&csr),
                &|k, alpha, b, beta, x| reference_rows(&ell_rows, k, alpha, b, beta, x),
                &ctx("ell"),
            );

            // The default slice, and one that leaves a ragged last slice.
            for slice in [32usize, 3] {
                let width = |r: usize| {
                    let lo = r / slice * slice;
                    m.max_row_len(lo..(lo + slice).min(dim.rows))
                };
                let sellp_rows = m.padded(width);
                check_op(
                    &exec,
                    &Sellp::from_csr_with_slice(&csr, slice),
                    &|k, alpha, b, beta, x| reference_rows(&sellp_rows, k, alpha, b, beta, x),
                    &ctx(&format!("sellp/{slice}")),
                );
            }

            // Hybrid: the ELL part applies alpha / beta, COO accumulates.
            let mut lens: Vec<usize> = m.rows.iter().map(Vec::len).collect();
            lens.sort_unstable();
            let width = match dim.rows {
                0 => 0,
                rows => lens[((rows - 1) as f64 * DEFAULT_PERCENTILE) as usize],
            };
            let (head, overflow) = m.split_at(width);
            let head_rows = head.padded(|_| head.max_row_len(0..dim.rows));
            let accumulate = reference_coo(&overflow, &overflow.coo_segments(workers));
            check_op(
                &exec,
                &Hybrid::from_csr(&csr),
                &|k, alpha, b, beta, x| {
                    reference_rows(&head_rows, k, alpha, b, beta, x);
                    accumulate(k, alpha, b, V::one(), x);
                },
                &ctx("hybrid"),
            );
        }
    }
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
    for exec in executors() {
        let workers = exec.spec().workers;
        let csr = Csr::<V, I>::from_triplets(&exec, dim, &triplets).unwrap();
        assert_eq!(
            csr.plan().resolved,
            ResolvedStrategy::MergePath,
            "Auto on the rail"
        );
        let m = Reference::of(&csr);
        let strategies = [
            SpmvStrategy::Classical,
            SpmvStrategy::LoadBalance,
            SpmvStrategy::MergePath,
        ];
        for strategy in strategies {
            let a = csr.clone().with_strategy(strategy);
            let plan = a.plan();
            let (v, i, on) = (V::NAME, I::NAME, exec.name());
            let ctx = format!("csr {strategy:?} {v}/{i} irregular on {on} x{workers}");
            assert!(plan.ordered_rows() > 0, "{ctx}: rows grouped by length");
            if strategy == SpmvStrategy::MergePath {
                check_op(
                    &exec,
                    &a,
                    &|k, alpha, b, beta, x| {
                        let sum = row_sum::<V>(k);
                        reference_segments(
                            &m.entries,
                            &m.row_of,
                            &plan.segments,
                            sum,
                            k,
                            alpha,
                            b,
                            beta,
                            x,
                        )
                    },
                    &ctx,
                );
            } else {
                if workers == 7 {
                    let off_grid = plan.row_bounds.iter().any(|b| b % 128 != 0);
                    assert!(
                        off_grid,
                        "{ctx}: a piece boundary inside a window of 128 rows"
                    );
                }
                check_op(
                    &exec,
                    &a,
                    &|k, alpha, b, beta, x| reference_rows(&m.rows, k, alpha, b, beta, x),
                    &ctx,
                );
            }
        }
    }
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
    for exec in executors() {
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
