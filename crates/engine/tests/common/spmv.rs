//! The SpMV oracle: every format and CSR strategy on every executor, in
//! every value and index type, in two tiers.
//!
//! * **Bit-exact**: `apply` / `apply_advanced` against a reference written
//!   *here*, in the kernel's own summation order, `to_bits` equal. A kernel
//!   rewrite that keeps the arithmetic keeps the oracle green with no edit;
//!   one that reassociates a sum, drops the `f64` accumulator, or changes how
//!   a split row is merged does not.
//! * **Bounded**: the same output against the exact product of the stored
//!   inputs, within the error bound [`assert_bounded`] derives from the row
//!   length and the size of the products. It holds for any summation order,
//!   so it still judges a kernel whose order changed on purpose.
//!
//! A cell is one (format or strategy, executor, value type, index type,
//! input, `k`, `alpha` / `beta`, tier); `--nocapture` prints the count per
//! axis. To add a cell, add its input to [`matrices`], its scalars to
//! [`SCALARS`] or its executor to `common::THREADS`; a new format also needs
//! a [`Format`] and its summation order below. `spmv_bits.rs` runs every
//! format in every type; `parity.rs` runs one format each in `f64` / `i32`,
//! and `proptests.rs` the seeded random matrices of its properties.
//!
//! The orders pinned, the formats' summation-order contract:
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
//! holding every entry (so segments cut it many times), stored `-0.0`, and
//! the shapes that stress chunk partitions (a wide row, an arrow head, a
//! band of empty rows, seeded random matrices).

use gko::executor::pool::uniform_bounds;
use gko::linop::LinOp;
use gko::matrix::hybrid::DEFAULT_PERCENTILE;
use gko::matrix::{
    Coo, Csr, Dense, Ell, Hybrid, MergeSegment, ResolvedStrategy, Sellp, SpmvPlan, SpmvStrategy,
};
use gko::{Dim2, Executor, Index, TripletValue, Value};
use pygko_sim::testing::{case_rng, sparse_triplets};

pub type Triplets = Vec<(usize, usize, f64)>;

/// `(alpha, beta)` pairs: plain, scaled, accumulate, and two general cases.
const SCALARS: [(f64, f64); 5] = [(1.0, 0.0), (2.0, 0.0), (1.0, 1.0), (-0.5, 2.0), (2.0, -0.5)];

/// Full-mantissa values of both signs across six binades, so that an `f64`
/// sum of their products rounds at every step and a reassociated sum differs.
fn irrational(i: usize) -> f64 {
    let unit = (i as f64 * 0.618_033_988_749_895).fract() - 0.5;
    unit * (1u32 << (i % 6)) as f64
}

/// A matrix whose row `r` holds `lens[r]` entries, columns spread over `cols`.
pub fn with_row_lengths(cols: usize, lens: &[usize]) -> (Dim2, Triplets) {
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

pub fn matrices() -> Vec<(&'static str, Dim2, Triplets)> {
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
    add("all_empty_square", (Dim2::square(9), Vec::new()));
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
    // The shapes that stress chunk partitions: a 1 x 33 row, an arrow head
    // (dense first row and column), a band of empty rows inside a
    // tridiagonal matrix, 64 rows of five entries, and three seeded random
    // matrices.
    let wide = (0..33).map(|j| (0, j, 1.0 + j as f64 * 0.125)).collect();
    add("one_by_33", (Dim2::new(1, 33), wide));
    let mut arrow = vec![(0, 0, 4.0)];
    for j in 1..48 {
        let head = [(0, j, 0.5 + j as f64 * 0.0625), (j, 0, -0.25)];
        arrow.extend(head.into_iter().chain([(j, j, 3.0 + j as f64 * 0.5)]));
    }
    add("arrow_head", (Dim2::square(48), arrow));
    let mut band = Vec::new();
    for i in (0..40).filter(|i| !(15..25).contains(i)) {
        band.push((i, i, 2.0 + i as f64 * 0.25));
        band.extend((i > 0).then(|| (i, i - 1, -1.0)));
        band.extend((i + 1 < 40).then(|| (i, i + 1, -0.5)));
    }
    add("empty_row_band", (Dim2::square(40), band));
    let five = (0..320).map(|e| (e / 5, (e / 5 + 11 * (e % 5)) % 64, 1.0 / (3.0 + e as f64)));
    add("five_per_row", (Dim2::square(64), five.collect()));
    for (case, name) in ["random_0", "random_1", "random_2"].into_iter().enumerate() {
        let mut rng = case_rng("parity_shapes", case as u64);
        let (n, t) = sparse_triplets(&mut rng, 8, 48, 160, 4.0);
        add(name, (Dim2::square(n), t));
    }
    all
}

fn dense<V: Value>(exec: &Executor, rows: usize, k: usize, f: impl Fn(usize) -> f64) -> Dense<V> {
    let v: Vec<V> = (0..rows * k).map(|i| V::from_f64(f(i))).collect();
    Dense::from_vec(exec, Dim2::new(rows, k), v).unwrap()
}

/// Right-hand side: full mantissas, a `-0.0` and a `0.0` in every 13.
pub fn rhs_value(i: usize) -> f64 {
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

/// One stored entry as the reference sees it: its value widened to `f64`
/// (exactly, as every kernel widens it), and its column.
pub type Entry = (f64, usize);

/// The `k == 1` row sum: four accumulators, sequential tail.
fn sum_unrolled(entries: &[Entry], b: &[f64], k: usize, c: usize) -> f64 {
    let mut a = [0.0f64; 4];
    let body = entries.len() / 4 * 4;
    for (i, &(v, col)) in entries[..body].iter().enumerate() {
        a[i % 4] += v * b[col * k + c];
    }
    let mut tail = 0.0f64;
    for &(v, col) in &entries[body..] {
        tail += v * b[col * k + c];
    }
    ((a[0] + a[1]) + (a[2] + a[3])) + tail
}

/// The sequential sum (every `k > 1` kernel, and COO's `k == 1`).
fn sum_in_order(entries: &[Entry], b: &[f64], k: usize, c: usize) -> f64 {
    let mut acc = 0.0f64;
    for &(v, col) in entries {
        acc += v * b[col * k + c];
    }
    acc
}

/// A piece's sum: `(entries, b widened to f64, k, column)`.
type RowSum = fn(&[Entry], &[f64], usize, usize) -> f64;

/// How a row kernel sums for `k` right-hand sides.
fn row_sum(k: usize) -> RowSum {
    if k == 1 {
        sum_unrolled
    } else {
        sum_in_order
    }
}

/// Row kernels: every output written once from its (padded) row.
pub fn reference_rows<V: Value>(
    rows: &[Vec<Entry>],
    k: usize,
    alpha: V,
    b: &[f64],
    beta: V,
    x: &mut [V],
) {
    for (r, entries) in rows.iter().enumerate() {
        for c in 0..k {
            let prod = V::from_f64(row_sum(k)(entries, b, k, c));
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
    part: &Reference,
    segments: &[MergeSegment],
    piece_sum: RowSum,
    k: usize,
    alpha: V,
    b: &[f64],
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
    let (entries, row_of) = (&part.entries, &part.row_of);
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
pub struct Reference {
    pub rows: Vec<Vec<Entry>>,
    entries: Vec<Entry>,
    row_of: Vec<usize>,
}

impl Reference {
    pub fn of<V: Value, I: Index>(csr: &Csr<V, I>) -> Self {
        let (rp, ci, vals) = (csr.row_ptrs(), csr.col_idxs(), csr.values());
        let rows = rp.windows(2).map(|w| {
            let span = w[0].to_usize()..w[1].to_usize();
            vals[span.clone()]
                .iter()
                .zip(&ci[span])
                .map(|(&v, c)| (v.to_f64(), c.to_usize()))
                .collect()
        });
        Reference::from_rows(rows.collect())
    }

    fn from_rows(rows: Vec<Vec<Entry>>) -> Self {
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
    fn padded(&self, width: impl Fn(usize) -> usize) -> Vec<Vec<Entry>> {
        self.rows
            .iter()
            .enumerate()
            .map(|(r, row)| {
                let mut row = row.clone();
                let pad = (0.0, row.last().map_or(0, |e| e.1));
                row.resize(width(r), pad);
                row
            })
            .collect()
    }

    /// The first `width` entries of every row, and the rest.
    fn split_at(&self, width: usize) -> (Reference, Reference) {
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
    pub fn coo_segments(&self, workers: usize) -> Vec<MergeSegment> {
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

    /// COO's reference for an executor with `workers` lanes.
    fn coo<V: Value>(&self, workers: usize) -> impl Fn(usize, V, &[f64], V, &mut [V]) + '_ {
        let segments = self.coo_segments(workers);
        move |k, alpha, b, beta, x| {
            reference_segments(self, &segments, sum_in_order, k, alpha, b, beta, x)
        }
    }

    fn max_row_len(&self, rows: std::ops::Range<usize>) -> usize {
        self.rows[rows].iter().map(Vec::len).max().unwrap_or(0)
    }
}

// ---------------------------------------------------------------------------
// The comparison
// ---------------------------------------------------------------------------

pub fn assert_bits<V: Value>(got: &[V], want: &[V], ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            g.to_f64().to_bits() == w.to_f64().to_bits(),
            "{ctx}: x[{i}] = {g:?}, reference {w:?}"
        );
    }
}

/// `n u / (1 - n u)`: the relative error of `n` roundings of unit roundoff
/// `u`, second-order terms included (infinite once `n u >= 1`).
fn gamma(n: usize, u: f64) -> f64 {
    let nu = n as f64 * u;
    if nu < 1.0 {
        nu / (1.0 - nu)
    } else {
        f64::INFINITY
    }
}

/// The smallest positive subnormal of `V`.
fn smallest_subnormal<V: Value>() -> f64 {
    let mut t = 1.0f64;
    while V::from_f64(t / 2.0).to_f64() > 0.0 {
        t /= 2.0;
    }
    t
}

/// The bounded tier: every output against the exact product of the inputs
/// as stored in `V`, `alpha A b + beta x0`, evaluated in `f64` from the
/// [`exact_products`] of the rows.
///
/// Take one output of a row of `len` stored entries; `u` is the unit roundoff
/// of `V` (`f64`'s is no larger), `η` its smallest subnormal,
/// `S = Σ |a_j b_j|` and `M = |alpha| S + |beta x0|` (no `x0` term when
/// `beta = 0`). A kernel cuts the row into at most `len + 1` pieces (one for
/// a row kernel, one per segment that cuts it for merge-path and COO, the ELL
/// part and the COO pieces for Hybrid) and sums each in `f64`: `len`
/// roundings over all pieces, each at most `u S`. It adds each piece to `x`
/// through three roundings in `V` (the piece to `V`, its product with
/// `alpha`, the sum into `x`), and `beta x0` through two more (the product,
/// and the final add or the prescale). Every partial value stays within
/// `M (1 + O(u))`, so each of those `3 len + 5` roundings costs at most
/// `u M + η / 2`. The reference's own `f64` evaluation adds `len + 2`
/// roundings of at most `u M`. With the second-order terms folded into
/// `γ_n = n u / (1 - n u)`:
/// `|x - exact| ≤ γ_(5 len + 7) M + (3 len + 5) η`.
fn assert_bounded<V: Value>(
    exact: &[(f64, f64, usize)],
    (alpha, beta): (V, V),
    x0: &[V],
    got: &[V],
    (u, eta): (f64, f64),
    ctx: &str,
) {
    let (alpha, beta) = (alpha.to_f64(), beta.to_f64());
    for (i, &(sum, size, len)) in exact.iter().enumerate() {
        let scaled = if beta == 0.0 {
            0.0
        } else {
            beta * x0[i].to_f64()
        };
        let want = alpha * sum + scaled;
        let magnitude = alpha.abs() * size + scaled.abs();
        let bound = gamma(5 * len + 7, u) * magnitude + (3 * len + 5) as f64 * eta;
        let off = (got[i].to_f64() - want).abs();
        assert!(
            off <= bound,
            "{ctx}: x[{i}] = {:?} is {off:e} from {want:e}, bound {bound:e}",
            got[i]
        );
    }
}

/// `(Σ a_j b_j, Σ |a_j b_j|, len)` in `f64` for every output of `rows` times
/// the `k` columns of `b`: what [`assert_bounded`] measures against.
fn exact_products(rows: &[Vec<Entry>], k: usize, b: &[f64]) -> Vec<(f64, f64, usize)> {
    let mut out = Vec::with_capacity(rows.len() * k);
    for entries in rows {
        for c in 0..k {
            let products = entries.iter().map(|&(v, col)| v * b[col * k + c]);
            let (sum, size) = products.fold((0.0, 0.0), |(s, m), p| (s + p, m + p.abs()));
            out.push((sum, size, entries.len()));
        }
    }
    out
}

/// A reference SpMV: `(k, alpha, b widened to f64, beta, x)`.
type ReferenceApply<'a, V> = &'a dyn Fn(usize, V, &[f64], V, &mut [V]);

/// Where an operator's cells sit: executor, format or strategy, and input.
struct Site<'a> {
    exec: &'a Executor,
    format: String,
    input: &'a str,
}

/// Drives `op` through `apply` and every `apply_advanced` scalar pair for
/// `k` in {1, 3}: bit for bit against `reference`, and against `rows` (the
/// matrix as stored) within [`assert_bounded`]'s bound.
fn check_op<V: Value, I: Index>(
    site: &Site,
    op: &dyn LinOp<V>,
    rows: &[Vec<Entry>],
    reference: ReferenceApply<V>,
) {
    let (dim, exec, on) = (op.size(), site.exec, super::label(site.exec));
    let roundoff = (V::eps() / 2.0, smallest_subnormal::<V>());
    for k in [1usize, 3] {
        let b = dense::<V>(exec, dim.cols, k, rhs_value);
        let bv: Vec<f64> = b.as_slice().iter().map(|v| v.to_f64()).collect();
        let x0 = dense::<V>(exec, dim.rows, k, x0_value);
        let x0v = x0.to_host_vec();
        let exact = exact_products(rows, k, &bv);
        for scalars in std::iter::once(None).chain(SCALARS.map(Some)) {
            let (alpha, beta) = scalars.map_or((V::one(), V::zero()), |(alpha, beta)| {
                (V::from_f64(alpha), V::from_f64(beta))
            });
            let mut x = x0.clone();
            match scalars {
                None => op.apply(&b, &mut x),
                Some(_) => op.apply_advanced(alpha, &b, beta, &mut x),
            }
            .unwrap();
            let got = x.to_host_vec();
            let mut want = x0v.clone();
            reference(k, alpha, &bv, beta, &mut want);
            let how = scalars.map_or("apply".to_string(), |_| {
                format!("alpha={alpha:?} beta={beta:?}")
            });
            let (format, input) = (&site.format, site.input);
            let ctx = format!(
                "{format} {}/{} {input} on {on} k={k} {how}",
                V::NAME,
                I::NAME
            );
            assert_bits(&got, &want, &ctx);
            assert_bounded(&exact, (alpha, beta), &x0v, &got, roundoff, &ctx);
            for tier in ["bits", "bounded"] {
                super::cover(&[
                    ("format", format),
                    ("executor", &on),
                    ("value", &V::NAME),
                    ("index", &I::NAME),
                    ("input", &input),
                    ("k", &k),
                    ("scalars", &how),
                    ("tier", &tier),
                ]);
            }
        }
    }
}

/// An operator the oracle drives: a CSR strategy or another format.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Format {
    Csr(SpmvStrategy),
    Coo,
    Ell,
    /// SELL-P at the default slice of 32, and at 4 and 3, which leave a
    /// ragged last slice.
    Sellp,
    Hybrid,
}

/// Every CSR strategy, `Auto` included, then the other formats.
pub const FORMATS: [Format; 8] = [
    Format::Csr(SpmvStrategy::Classical),
    Format::Csr(SpmvStrategy::LoadBalance),
    Format::Csr(SpmvStrategy::MergePath),
    Format::Csr(SpmvStrategy::Auto),
    Format::Coo,
    Format::Ell,
    Format::Sellp,
    Format::Hybrid,
];

/// The CSR strategies among `formats`, each against the reference of the
/// strategy its plan resolves to; `plan_check` sees each plan first.
pub fn check_csr<V: Value, I: Index>(
    exec: &Executor,
    csr: &Csr<V, I>,
    m: &Reference,
    input: &str,
    formats: &[Format],
    plan_check: impl Fn(SpmvStrategy, &SpmvPlan, &str),
) {
    let strategies = formats.iter().filter_map(|format| match format {
        Format::Csr(strategy) => Some(*strategy),
        _ => None,
    });
    for strategy in strategies {
        let a = csr.clone().with_strategy(strategy);
        let plan = a.plan();
        let site = Site {
            exec,
            format: format!("csr {strategy:?}"),
            input,
        };
        let ctx = format!("{} {input} on {}", site.format, super::label(exec));
        if strategy == SpmvStrategy::MergePath {
            assert_eq!(plan.resolved, ResolvedStrategy::MergePath, "{ctx}");
        }
        plan_check(strategy, &plan, &ctx);
        let reference = |k, alpha, b: &[f64], beta, x: &mut [V]| match plan.resolved {
            ResolvedStrategy::MergePath => {
                reference_segments(m, &plan.segments, row_sum(k), k, alpha, b, beta, x)
            }
            _ => reference_rows(&m.rows, k, alpha, b, beta, x),
        };
        check_op::<V, I>(&site, &a, &m.rows, &reference);
    }
}

/// Each of `formats` on one matrix on `exec`.
pub fn check_formats<V: Value, I: Index>(
    exec: &Executor,
    name: &str,
    dim: Dim2,
    triplets: &Triplets,
    formats: &[Format],
) where
    f64: TripletValue<V>,
{
    let workers = exec.spec().workers;
    let csr = Csr::<V, I>::from_triplets(exec, dim, triplets).unwrap();
    let m = Reference::of(&csr);
    let site = |format: &str| Site {
        exec,
        format: format.to_string(),
        input: name,
    };

    check_csr(exec, &csr, &m, name, formats, |_, _, _| {});

    if formats.contains(&Format::Coo) {
        check_op::<V, I>(&site("coo"), &Coo::from_csr(&csr), &m.rows, &m.coo(workers));
    }

    if formats.contains(&Format::Ell) {
        let ell_rows = m.padded(|_| m.max_row_len(0..dim.rows));
        check_op::<V, I>(
            &site("ell"),
            &Ell::from_csr(&csr),
            &m.rows,
            &|k, alpha, b, beta, x| reference_rows(&ell_rows, k, alpha, b, beta, x),
        );
    }

    for slice in [32usize, 4, 3]
        .into_iter()
        .filter(|_| formats.contains(&Format::Sellp))
    {
        let width = |r: usize| {
            let lo = r / slice * slice;
            m.max_row_len(lo..(lo + slice).min(dim.rows))
        };
        let sellp_rows = m.padded(width);
        check_op::<V, I>(
            &site(&format!("sellp/{slice}")),
            &Sellp::from_csr_with_slice(&csr, slice),
            &m.rows,
            &|k, alpha, b, beta, x| reference_rows(&sellp_rows, k, alpha, b, beta, x),
        );
    }

    if formats.contains(&Format::Hybrid) {
        // The ELL part applies alpha / beta, COO accumulates.
        let mut lens: Vec<usize> = m.rows.iter().map(Vec::len).collect();
        lens.sort_unstable();
        let width = match dim.rows {
            0 => 0,
            rows => lens[((rows - 1) as f64 * DEFAULT_PERCENTILE) as usize],
        };
        let (head, overflow) = m.split_at(width);
        let head_rows = head.padded(|_| head.max_row_len(0..dim.rows));
        let accumulate = overflow.coo(workers);
        check_op::<V, I>(
            &site("hybrid"),
            &Hybrid::from_csr(&csr),
            &m.rows,
            &|k, alpha, b, beta, x| {
                reference_rows(&head_rows, k, alpha, b, beta, x);
                accumulate(k, alpha, b, V::one(), x);
            },
        );
    }
}

/// `formats` on every input of [`matrices`] on every executor of
/// `common::executors`; prints the coverage as `test`.
pub fn check_everywhere<V: Value, I: Index>(test: &str, formats: &[Format])
where
    f64: TripletValue<V>,
{
    for exec in super::executors() {
        for (name, dim, triplets) in matrices() {
            check_formats::<V, I>(&exec, name, dim, &triplets, formats);
        }
    }
    super::print_coverage(test);
}
