//! Compressed Sparse Row format.
//!
//! CSR is Ginkgo's workhorse format and the primary format of the paper's
//! benchmarks. Four SpMV strategies are provided, mirroring Ginkgo's
//! automatic strategy selection (and feeding the strategy ablation bench):
//!
//! * [`SpmvStrategy::Classical`] — contiguous row blocks of equal *row*
//!   count. Simple, but skewed row lengths produce load imbalance.
//! * [`SpmvStrategy::LoadBalance`] — row blocks balanced by *nonzero* count
//!   (row-granularity approximation of Ginkgo's merge-based kernel), which
//!   is what gives Ginkgo its near-linear NNZ scaling on irregular matrices.
//! * [`SpmvStrategy::MergePath`] — true merge-based kernel splitting the
//!   combined (rows + nnz) sequence, so a single ultra-dense row is divided
//!   across workers instead of serializing one lane.
//! * [`SpmvStrategy::Auto`] (the default) — picks one of the above from
//!   row-skew statistics gathered by the plan inspector.
//!
//! Partitioning is done once per matrix by the inspector–executor plan
//! layer ([`crate::matrix::plan`]): the first apply builds an [`SpmvPlan`]
//! (split points, resolved strategy, per-chunk cost work) which is cached on
//! the matrix and reused by every later apply until its strategy changes.

use crate::base::array::Array;
use crate::base::dim::Dim2;
use crate::base::error::{GkoError, Result};
use crate::base::types::{Index, TripletValue, Value};
use crate::executor::pool::parallel_chunks;
use crate::executor::Executor;
use crate::linop::{check_operands, LinOp};
use crate::log::OpTimer;
use crate::matrix::dense::Dense;
use crate::matrix::plan::{
    self, PlanCache, PlanCacheStats, ResolvedStrategy, SegmentSink, SpmvPlan,
};
use crate::sanitize::{report_violation, verify_merge_segments};
use std::sync::Arc;

/// SpMV parallelization strategy.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SpmvStrategy {
    /// Equal-row-count chunks (classical row-parallel kernel).
    Classical,
    /// Equal-nonzero-count chunks (load-balanced kernel).
    LoadBalance,
    /// Merge-path segments balancing rows + nnz (splits dense rows).
    MergePath,
    /// Strategy chosen per matrix from inspected row-skew statistics.
    #[default]
    Auto,
}

/// Sparse matrix in CSR format with value type `V` and index type `I`.
#[derive(Debug, Clone)]
pub struct Csr<V: Value, I: Index = i32> {
    size: Dim2,
    row_ptrs: Array<I>,
    col_idxs: Array<I>,
    values: Array<V>,
    strategy: SpmvStrategy,
    /// Cached execution plan; cloning yields a fresh empty cache.
    plan: PlanCache,
}

/// 4-wide unrolled sparse dot product of one nonzero span against a dense
/// vector (`k == 1` right-hand sides). Independent accumulators keep the
/// loop free of a serial dependency chain so the autovectorizer can keep
/// multiple FMA lanes busy; the scalar tail preserves exact semantics for
/// spans shorter than the unroll width. The final pairwise reduction is a
/// fixed reassociation, so results stay deterministic for a given span.
///
/// `inline(always)`: a stencil row is five entries, so a call per row costs
/// as much as the row (DESIGN.md §25).
#[inline(always)]
pub(crate) fn dot_span<V: Value, I: Index>(vals: &[V], cols: &[I], bv: &[V]) -> f64 {
    let mut vv = vals.chunks_exact(4);
    let mut cc = cols.chunks_exact(4);
    let (mut a0, mut a1, mut a2, mut a3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    for (v, c) in (&mut vv).zip(&mut cc) {
        a0 += v[0].to_f64() * bv[c[0].to_usize()].to_f64();
        a1 += v[1].to_f64() * bv[c[1].to_usize()].to_f64();
        a2 += v[2].to_f64() * bv[c[2].to_usize()].to_f64();
        a3 += v[3].to_f64() * bv[c[3].to_usize()].to_f64();
    }
    let mut tail = 0.0f64;
    for (v, c) in vv.remainder().iter().zip(cc.remainder().iter()) {
        tail += v.to_f64() * bv[c.to_usize()].to_f64();
    }
    ((a0 + a1) + (a2 + a3)) + tail
}

// ---------------------------------------------------------------------------
// Leaf kernels (DESIGN.md §25): free functions over slices already narrowed
// to the chunk, scalars by value, nothing captured; the closures handed to
// the pool narrow, pick the `k == 1` or the `k > 1` leaf, and call it. (One
// function holding both loops read 2-12 % slower on the `k == 1` side.) The
// `k == 1` leaves are `inline(never)`, so a closure picking between the
// row-order and the length-grouped leaf stays a dispatcher (one build that
// inlined both into it read 12 % slower on a stencil).
// ---------------------------------------------------------------------------

/// `x = alpha * A b + beta * x` for the rows whose pointers are `rp`
/// (`rows + 1` of them), `k == 1`. `ci` / `vals` are those rows' entries and
/// are walked by splitting each row off their front: no offset to keep, one
/// length check per row.
#[inline(never)]
fn csr_rows_leaf<V: Value, I: Index>(
    rp: &[I],
    mut ci: &[I],
    mut vals: &[V],
    bv: &[V],
    alpha: V,
    beta: V,
    xs: &mut [V],
) {
    let overwrite = beta == V::zero();
    for (out, w) in xs.iter_mut().zip(rp.windows(2)) {
        let len = w[1].to_usize() - w[0].to_usize();
        let (row_vals, rest_vals) = vals.split_at(len);
        let (row_ci, rest_ci) = ci.split_at(len);
        let prod = V::from_f64(dot_span(row_vals, row_ci, bv));
        *out = if overwrite {
            alpha * prod
        } else {
            alpha * prod + beta * *out
        };
        (ci, vals) = (rest_ci, rest_vals);
    }
}

/// [`csr_rows_leaf`] visiting the rows in `order` (rows local to the
/// piece), the plan's length-grouped order: each row found from its
/// pointers, summed alone and written once, so the order moves no bit.
///
/// A second leaf rather than one generic over the row sequence: every
/// generic form tried (the row handed to a closure, the update inside or
/// outside it) compiled the row-order instantiation 5-12 % slower than
/// [`csr_rows_leaf`] on a stencil.
#[allow(clippy::too_many_arguments)]
#[inline(never)]
fn csr_rows_ordered_leaf<V: Value, I: Index>(
    order: &[u32],
    rp: &[I],
    ci: &[I],
    vals: &[V],
    bv: &[V],
    alpha: V,
    beta: V,
    xs: &mut [V],
) {
    let overwrite = beta == V::zero();
    let base = rp[0].to_usize();
    for &local in order {
        let local = local as usize;
        let (lo, hi) = (rp[local].to_usize() - base, rp[local + 1].to_usize() - base);
        let prod = V::from_f64(dot_span(&vals[lo..hi], &ci[lo..hi], bv));
        let out = &mut xs[local];
        *out = if overwrite {
            alpha * prod
        } else {
            alpha * prod + beta * *out
        };
    }
}

/// [`csr_rows_leaf`] for `k > 1` right-hand sides: one sequential sum per
/// output column.
#[allow(clippy::too_many_arguments)]
fn csr_rows_block_leaf<V: Value, I: Index>(
    rp: &[I],
    mut ci: &[I],
    mut vals: &[V],
    bv: &[V],
    k: usize,
    alpha: V,
    beta: V,
    xs: &mut [V],
) {
    let overwrite = beta == V::zero();
    for (xrow, w) in xs.chunks_exact_mut(k).zip(rp.windows(2)) {
        let len = w[1].to_usize() - w[0].to_usize();
        let (row_vals, rest_vals) = vals.split_at(len);
        let (row_ci, rest_ci) = ci.split_at(len);
        for (c, out) in xrow.iter_mut().enumerate() {
            let mut acc = 0.0f64;
            for (v, col) in row_vals.iter().zip(row_ci) {
                acc += v.to_f64() * bv[col.to_usize() * k + c].to_f64();
            }
            let prod = V::from_f64(acc);
            *out = if overwrite {
                alpha * prod
            } else {
                alpha * prod + beta * *out
            };
        }
        (ci, vals) = (rest_ci, rest_vals);
    }
}

/// One merge-path segment, `k == 1`: `rp` holds the pointers of the
/// segment's rows `row0..`, `rows` yields `(local, rp[local..=local + 1])`
/// for each of them in the order they are visited (row order, or the plan's
/// length-grouped order), and `ci` / `vals` are the segment's nonzeros,
/// which start at nonzero `start`. A row's piece inside the segment goes to
/// the sink; rows with no nonzero in it are skipped.
#[inline(never)]
fn csr_merge_lane<'a, V: Value, I: Index + 'a>(
    rows: impl Iterator<Item = (usize, &'a [I])>,
    start: usize,
    ci: &[I],
    vals: &[V],
    bv: &[V],
    row0: usize,
    mut sink: SegmentSink<'_, V>,
) {
    for (local, w) in rows {
        let lo = w[0].to_usize().saturating_sub(start);
        let hi = w[1].to_usize().saturating_sub(start).min(vals.len());
        if lo < hi {
            sink.put(row0 + local, 0, dot_span(&vals[lo..hi], &ci[lo..hi], bv));
        }
    }
}

/// [`csr_merge_lane`] for `k > 1`: the piece's sums are gathered in `acc`
/// (one slot per right-hand side), entry by entry.
#[allow(clippy::too_many_arguments)]
fn csr_merge_block_lane<V: Value, I: Index>(
    rp: &[I],
    start: usize,
    ci: &[I],
    vals: &[V],
    bv: &[V],
    row0: usize,
    acc: &mut [f64],
    mut sink: SegmentSink<'_, V>,
) {
    let k = acc.len();
    acc.fill(0.0);
    for (local, w) in rp.windows(2).enumerate() {
        let lo = w[0].to_usize().saturating_sub(start);
        let hi = w[1].to_usize().saturating_sub(start).min(vals.len());
        if lo < hi {
            for (v, col) in vals[lo..hi].iter().zip(&ci[lo..hi]) {
                let brow = &bv[col.to_usize() * k..][..k];
                for (a, bc) in acc.iter_mut().zip(brow) {
                    *a += v.to_f64() * bc.to_f64();
                }
            }
            sink.put_block(row0 + local, acc);
        }
    }
}

/// The CSR structural invariants, checked from scratch. Shared between
/// construction-time validation ([`Csr::from_raw`]) and the runtime
/// sanitizer ([`Csr::validate`]).
///
/// Sound arrays — all a caller ever passes twice — are accepted by
/// [`structure_is_sound`]'s whole-array passes; anything else goes to
/// [`first_structure_defect`], whose row walk names the defect and its row.
fn check_csr_structure<I: Index>(
    size: Dim2,
    row_ptrs: &[I],
    col_idxs: &[I],
    n_values: usize,
) -> Result<()> {
    if row_ptrs.len() != size.rows + 1 {
        return Err(GkoError::BadInput(format!(
            "row_ptrs length {} does not match rows+1 = {}",
            row_ptrs.len(),
            size.rows + 1
        )));
    }
    if col_idxs.len() != n_values {
        return Err(GkoError::BadInput(format!(
            "col_idxs length {} != values length {}",
            col_idxs.len(),
            n_values
        )));
    }
    if row_ptrs[0] != I::zero() {
        return Err(GkoError::BadInput("row_ptrs[0] must be 0".into()));
    }
    if row_ptrs[size.rows].to_usize() != n_values {
        return Err(GkoError::BadInput(format!(
            "row_ptrs[rows] = {} does not match nnz = {}",
            row_ptrs[size.rows], n_values
        )));
    }
    if structure_is_sound(size.cols, row_ptrs, col_idxs) {
        return Ok(());
    }
    first_structure_defect(size, row_ptrs, col_idxs)
}

/// Whether row pointers that start at 0 and end at `col_idxs.len()` are
/// non-decreasing, and the columns in range and strictly increasing inside
/// every row: the verdict of [`first_structure_defect`] from passes with no
/// loop per row (a short irregular row costs that walk a mispredicted exit).
/// A row is strictly increasing exactly when the column array descends
/// nowhere inside it, so the descents of the whole array are counted and
/// compared with those that fall on a row's first entry.
fn structure_is_sound<I: Index>(cols: usize, row_ptrs: &[I], col_idxs: &[I]) -> bool {
    if !row_ptrs.windows(2).all(|w| w[0] <= w[1]) {
        return false;
    }
    let Some(&first) = col_idxs.first() else {
        return true;
    };
    let (min, max) = col_idxs
        .iter()
        .fold((first, first), |(lo, hi), &c| (lo.min(c), hi.max(c)));
    if min < I::zero() || max.to_usize() >= cols {
        return false;
    }
    let descents = col_idxs
        .iter()
        .zip(&col_idxs[1..])
        .filter(|(a, b)| a >= b)
        .count();
    let on_row_starts = row_ptrs[..row_ptrs.len() - 1]
        .windows(2)
        .filter(|w| {
            let start = w[1].to_usize();
            w[0] != w[1] && start < col_idxs.len() && col_idxs[start - 1] >= col_idxs[start]
        })
        .count();
    descents == on_row_starts
}

/// The row walk: the first violated invariant, with its row.
fn first_structure_defect<I: Index>(size: Dim2, row_ptrs: &[I], col_idxs: &[I]) -> Result<()> {
    let n_values = col_idxs.len();
    for r in 0..size.rows {
        let (lo, hi) = (row_ptrs[r].to_usize(), row_ptrs[r + 1].to_usize());
        if lo > hi {
            return Err(GkoError::BadInput(format!(
                "row_ptrs must be non-decreasing (row {r})"
            )));
        }
        if hi > n_values {
            return Err(GkoError::BadInput(format!(
                "row_ptrs[{}] = {hi} exceeds nnz = {n_values}",
                r + 1
            )));
        }
        let mut prev: Option<I> = None;
        for &c in &col_idxs[lo..hi] {
            if c.to_usize() >= size.cols {
                return Err(GkoError::BadInput(format!(
                    "column index {c} out of range in row {r}"
                )));
            }
            if let Some(p) = prev {
                if c <= p {
                    return Err(GkoError::BadInput(format!(
                        "column indices must be strictly increasing within row {r}"
                    )));
                }
            }
            prev = Some(c);
        }
    }
    Ok(())
}

impl<V: Value, I: Index> Csr<V, I> {
    /// Matrix size.
    pub fn size(&self) -> Dim2 {
        self.size
    }

    /// Builds a CSR matrix from raw arrays, validating the structure
    /// (monotone row pointers, in-range and per-row sorted, unique columns).
    pub fn from_raw(
        exec: &Executor,
        size: Dim2,
        row_ptrs: Vec<I>,
        col_idxs: Vec<I>,
        values: Vec<V>,
    ) -> Result<Self> {
        check_csr_structure(size, &row_ptrs, &col_idxs, values.len())?;
        Ok(Csr {
            size,
            row_ptrs: Array::from_vec(exec, row_ptrs),
            col_idxs: Array::from_vec(exec, col_idxs),
            values: Array::from_vec(exec, values),
            strategy: SpmvStrategy::default(),
            plan: PlanCache::new(),
        })
    }

    /// Builds a CSR matrix from raw arrays **without** validating the
    /// structure. Intended for trusted converters and for sanitizer tests
    /// that need to construct deliberately corrupted matrices; anything
    /// built this way should be passed through [`Csr::validate`] before a
    /// kernel touches it.
    pub fn from_raw_unchecked(
        exec: &Executor,
        size: Dim2,
        row_ptrs: Vec<I>,
        col_idxs: Vec<I>,
        values: Vec<V>,
    ) -> Self {
        Csr {
            size,
            row_ptrs: Array::from_vec(exec, row_ptrs),
            col_idxs: Array::from_vec(exec, col_idxs),
            values: Array::from_vec(exec, values),
            strategy: SpmvStrategy::default(),
            plan: PlanCache::new(),
        }
    }

    /// Re-derives the CSR structural invariants from scratch: `row_ptrs`
    /// length, monotonicity and endpoints, and in-range, per-row strictly
    /// increasing column indices. The runtime sanitizer's entry point for
    /// data that bypassed [`Csr::from_raw`]'s construction-time checks.
    pub fn validate(&self) -> Result<()> {
        check_csr_structure(
            self.size,
            self.row_ptrs.as_slice(),
            self.col_idxs.as_slice(),
            self.values.len(),
        )
    }

    /// Builds from unsorted (row, col, value) triplets; duplicates are
    /// summed in input order (Matrix Market semantics for symmetric
    /// expansions). The one assembler every format's triplet constructor
    /// goes through: a counting sort by row straight into the typed arrays,
    /// then a column sort of only those rows that need one.
    pub fn from_triplets<S: TripletValue<V>>(
        exec: &Executor,
        size: Dim2,
        triplets: &[(usize, usize, S)],
    ) -> Result<Self> {
        if size.cols.saturating_sub(1) > I::MAX_USIZE || triplets.len() > I::MAX_USIZE {
            return Err(GkoError::BadInput(format!(
                "matrix {size} with {} entries exceeds the {} index range",
                triplets.len(),
                I::NAME
            )));
        }
        // Entries per row, counted one slot up: after the prefix sum
        // `cursor[r]` is where row `r` starts. `ordered` stays true while the
        // list is strictly increasing in (row, col).
        let mut cursor = vec![0usize; size.rows + 1];
        let mut ordered = true;
        let mut prev = None;
        for &(r, c, _) in triplets {
            if r >= size.rows || c >= size.cols {
                return Err(GkoError::BadInput(format!(
                    "entry ({r}, {c}) outside matrix {size}"
                )));
            }
            ordered &= prev < Some((r, c));
            prev = Some((r, c));
            cursor[r + 1] += 1;
        }
        let mut total = 0usize;
        for slot in &mut cursor {
            total += *slot;
            *slot = total;
        }

        // Stable scatter: a row's entries land in input order, and
        // `cursor[r]` ends up where row `r` ends.
        let mut col_idxs = vec![I::zero(); triplets.len()];
        let mut values = vec![V::zero(); triplets.len()];
        for &(r, c, v) in triplets {
            let at = cursor[r];
            cursor[r] = at + 1;
            col_idxs[at] = I::from_usize(c);
            values[at] = v.stored();
        }

        // A row that is not strictly increasing is stably sorted by column,
        // so equal columns meet in input order, and summed left to right.
        // `end` is where the finished rows end; it falls behind `lo` once a
        // row has lost duplicates.
        let mut row: Vec<(I, V)> = Vec::new();
        let (mut lo, mut end) = (0usize, 0usize);
        for slot in &mut cursor[..size.rows] {
            let hi = *slot;
            if ordered || col_idxs[lo..hi].windows(2).all(|pair| pair[0] < pair[1]) {
                if end < lo {
                    col_idxs.copy_within(lo..hi, end);
                    values.copy_within(lo..hi, end);
                }
                end += hi - lo;
            } else {
                row.clear();
                row.extend(
                    std::iter::zip(&col_idxs[lo..hi], &values[lo..hi]).map(|(&c, &v)| (c, v)),
                );
                row.sort_by_key(|&(c, _)| c);
                let row_start = end;
                for &(c, v) in &row {
                    if end > row_start && col_idxs[end - 1] == c {
                        values[end - 1] += v;
                    } else {
                        col_idxs[end] = c;
                        values[end] = v;
                        end += 1;
                    }
                }
            }
            *slot = end;
            lo = hi;
        }
        let row_ptrs = std::iter::once(0)
            .chain(cursor[..size.rows].iter().copied())
            .map(I::from_usize)
            .collect();
        col_idxs.truncate(end);
        values.truncate(end);
        Csr::from_raw(exec, size, row_ptrs, col_idxs, values)
    }

    /// Takes the matrix apart into `(size, row_ptrs, col_idxs, values)` so a
    /// converter can reuse the arrays instead of copying them.
    pub(crate) fn into_parts(self) -> (Dim2, Array<I>, Array<I>, Array<V>) {
        (self.size, self.row_ptrs, self.col_idxs, self.values)
    }

    /// Chooses the SpMV strategy (builder style). Drops any cached plan —
    /// the next apply re-runs the inspector for the new strategy.
    pub fn with_strategy(mut self, strategy: SpmvStrategy) -> Self {
        self.strategy = strategy;
        self.plan.invalidate();
        self
    }

    /// Current SpMV strategy.
    pub fn strategy(&self) -> SpmvStrategy {
        self.strategy
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Row pointer array (length `rows + 1`).
    pub fn row_ptrs(&self) -> &[I] {
        self.row_ptrs.as_slice()
    }

    /// Column index array (length `nnz`).
    pub fn col_idxs(&self) -> &[I] {
        self.col_idxs.as_slice()
    }

    /// Value array (length `nnz`).
    pub fn values(&self) -> &[V] {
        self.values.as_slice()
    }

    /// The cached execution plan for this matrix on its executor, running
    /// the inspector on first use (and again after invalidation).
    pub fn plan(&self) -> Arc<SpmvPlan> {
        let exec = self.executor();
        let workers = exec.spec().workers;
        self.plan.get_or_build(self.strategy, workers, || {
            plan::build_plan(
                exec,
                self.strategy,
                self.size.rows,
                self.row_ptrs.as_slice(),
                V::BYTES,
            )
        })
    }

    /// Plan-cache build/hit counters (the bench ablation's reuse evidence).
    pub fn plan_stats(&self) -> PlanCacheStats {
        self.plan.stats()
    }

    /// Drops the cached plan so the next apply re-runs the inspector. Used
    /// by the plan-reuse ablation bench; [`Csr::with_strategy`] invalidates
    /// on its own.
    pub fn invalidate_plan(&self) {
        self.plan.invalidate();
    }

    /// Executor the matrix lives on.
    pub fn executor(&self) -> &Executor {
        self.values.executor()
    }

    /// Clones onto another executor. The copy starts with an empty plan
    /// cache (plans are per-executor).
    pub fn clone_to(&self, exec: &Executor) -> Self {
        Csr {
            size: self.size,
            row_ptrs: self.row_ptrs.copy_to(exec),
            col_idxs: self.col_idxs.copy_to(exec),
            values: self.values.copy_to(exec),
            strategy: self.strategy,
            plan: PlanCache::new(),
        }
    }

    /// Densifies (for tests and the dense direct solver).
    pub fn to_dense(&self) -> Dense<V> {
        let mut out = Dense::zeros(self.executor(), self.size);
        let rp = self.row_ptrs.as_slice();
        let ci = self.col_idxs.as_slice();
        let vals = self.values.as_slice();
        for r in 0..self.size.rows {
            for k in rp[r].to_usize()..rp[r + 1].to_usize() {
                out.set(r, ci[k].to_usize(), vals[k]);
            }
        }
        out
    }

    /// Extracts the diagonal (missing diagonal entries read as zero).
    pub(crate) fn extract_diagonal(&self) -> Vec<V> {
        let rp = self.row_ptrs.as_slice();
        let ci = self.col_idxs.as_slice();
        let vals = self.values.as_slice();
        (0..self.size.rows.min(self.size.cols))
            .map(|r| {
                let (lo, hi) = (rp[r].to_usize(), rp[r + 1].to_usize());
                match ci[lo..hi].binary_search(&I::from_usize(r)) {
                    Ok(pos) => vals[lo + pos],
                    Err(_) => V::zero(),
                }
            })
            .collect()
    }

    /// Transposed copy (explicit CSC-to-CSR conversion).
    pub fn transpose(&self) -> Csr<V, I> {
        let (m, n) = (self.size.rows, self.size.cols);
        let rp = self.row_ptrs.as_slice();
        let ci = self.col_idxs.as_slice();
        let vals = self.values.as_slice();
        let nnz = self.nnz();
        let mut counts = vec![0usize; n + 1];
        for &c in ci {
            counts[c.to_usize() + 1] += 1;
        }
        for j in 0..n {
            counts[j + 1] += counts[j];
        }
        let mut t_rows = vec![I::zero(); n + 1];
        for (j, &c) in counts.iter().enumerate() {
            t_rows[j] = I::from_usize(c);
        }
        let mut t_cols = vec![I::zero(); nnz];
        let mut t_vals = vec![V::zero(); nnz];
        let mut cursor = counts;
        for r in 0..m {
            for k in rp[r].to_usize()..rp[r + 1].to_usize() {
                let c = ci[k].to_usize();
                let dst = cursor[c];
                cursor[c] += 1;
                t_cols[dst] = I::from_usize(r);
                t_vals[dst] = vals[k];
            }
        }
        Csr::from_raw(
            self.executor(),
            self.size.transposed(),
            t_rows,
            t_cols,
            t_vals,
        )
        // lint: allow(panic): counting sort of a valid CSR yields
        // monotone row pointers and in-bounds, sorted columns.
        .expect("transpose of valid CSR is valid")
    }

    /// Row-parallel kernel (Classical and LoadBalance): each chunk owns a
    /// contiguous row block, so every output element is written by exactly
    /// one lane.
    fn spmv_rows(&self, plan: &SpmvPlan, alpha: V, b: &Dense<V>, beta: V, x: &mut Dense<V>) {
        let k = b.size().cols;
        let bounds = &plan.row_bounds;
        let rp = self.row_ptrs.as_slice();
        let ci = self.col_idxs.as_slice();
        let vals = self.values.as_slice();
        let bv = b.as_slice();
        let exec = self.executor().clone();
        // For one right-hand side the element bounds are the plan's row
        // bounds themselves: no vector per apply.
        let scaled: Vec<usize>;
        let elem_bounds = if k == 1 {
            bounds
        } else {
            scaled = bounds.iter().map(|&r| r * k).collect();
            &scaled
        };
        parallel_chunks(&exec, x.as_mut_slice(), elem_bounds, |chunk, xs| {
            let rp = &rp[bounds[chunk]..=bounds[chunk + 1]];
            let (lo, hi) = (rp[0].to_usize(), rp[rp.len() - 1].to_usize());
            let (ci, vals) = (&ci[lo..hi], &vals[lo..hi]);
            if k == 1 {
                match plan.row_order(chunk) {
                    None => csr_rows_leaf(rp, ci, vals, bv, alpha, beta, xs),
                    Some(order) => csr_rows_ordered_leaf(order, rp, ci, vals, bv, alpha, beta, xs),
                }
            } else {
                csr_rows_block_leaf(rp, ci, vals, bv, k, alpha, beta, xs);
            }
        });
    }

    /// Merge-path kernel: each segment owns a contiguous nonzero range and
    /// runs on [`plan::run_segments`], the scaffold shared with the COO
    /// kernel (interior rows written directly, split boundary rows merged
    /// serially in segment order), keeping results deterministic for a
    /// given plan.
    fn spmv_merge(&self, plan: &SpmvPlan, alpha: V, b: &Dense<V>, beta: V, x: &mut Dense<V>) {
        let k = b.size().cols;
        let rp = self.row_ptrs.as_slice();
        if self.executor().sanitizer().is_enabled() {
            if let Err(v) = verify_merge_segments(rp, &plan.segments) {
                report_violation("merge-path segment validator", &v);
            }
        }
        // Prescale so rows no segment touches (empty rows) need no writes,
        // and segment lanes can blindly accumulate.
        if beta == V::zero() {
            x.fill(V::zero());
        } else if beta != V::one() {
            x.scale(beta);
        }
        let ci = self.col_idxs.as_slice();
        let vals = self.values.as_slice();
        let bv = b.as_slice();
        let xs = x.as_mut_slice();
        plan::run_segments(
            self.executor(),
            xs,
            k,
            alpha,
            &plan.segments,
            |s, seg, acc, sink| {
                let rp = &rp[seg.row_first..=seg.row_last + 1];
                let (ci, vals) = (
                    &ci[seg.nnz_start..seg.nnz_end],
                    &vals[seg.nnz_start..seg.nnz_end],
                );
                let (start, row0) = (seg.nnz_start, seg.row_first);
                if k == 1 {
                    match plan.row_order(s) {
                        None => {
                            let rows = rp.windows(2).enumerate();
                            csr_merge_lane(rows, start, ci, vals, bv, row0, sink)
                        }
                        Some(order) => {
                            let rows = order.iter().map(|&l| (l as usize, &rp[l as usize..][..2]));
                            csr_merge_lane(rows, start, ci, vals, bv, row0, sink)
                        }
                    }
                } else {
                    csr_merge_block_lane(rp, start, ci, vals, bv, row0, acc, sink);
                }
            },
        );
    }

    fn spmv_into(&self, alpha: V, b: &Dense<V>, beta: V, x: &mut Dense<V>) -> Result<()> {
        check_operands(self.size, self.executor(), b, x)?;
        let _timer = OpTimer::new(self.executor(), "csr");
        let plan = self.plan();
        if self.executor().sanitizer().is_enabled() {
            if let Err(v) = plan.verify_order() {
                report_violation("row-order validator", &v);
            }
        }
        match plan.resolved {
            ResolvedStrategy::Classical | ResolvedStrategy::LoadBalance => {
                self.spmv_rows(&plan, alpha, b, beta, x)
            }
            ResolvedStrategy::MergePath => self.spmv_merge(&plan, alpha, b, beta, x),
        }
        self.executor().launch(&plan.work);
        Ok(())
    }
}

impl<V: Value, I: Index> LinOp<V> for Csr<V, I> {
    fn size(&self) -> Dim2 {
        self.size
    }

    fn executor(&self) -> &Executor {
        self.values.executor()
    }

    fn apply(&self, b: &Dense<V>, x: &mut Dense<V>) -> Result<()> {
        self.spmv_into(V::one(), b, V::zero(), x)
    }

    fn apply_advanced(&self, alpha: V, b: &Dense<V>, beta: V, x: &mut Dense<V>) -> Result<()> {
        self.spmv_into(alpha, b, beta, x)
    }

    fn op_name(&self) -> &'static str {
        "csr"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::pool::uniform_bounds;

    fn exec() -> Executor {
        Executor::reference()
    }

    /// 3x3 test matrix:
    /// [ 2 0 1 ]
    /// [ 0 3 0 ]
    /// [ 4 5 6 ]
    fn sample(e: &Executor) -> Csr<f64, i32> {
        Csr::from_raw(
            e,
            Dim2::square(3),
            vec![0, 2, 3, 6],
            vec![0, 2, 1, 0, 1, 2],
            vec![2.0, 1.0, 3.0, 4.0, 5.0, 6.0],
        )
        .unwrap()
    }

    #[test]
    fn validation_catches_malformed_input() {
        let e = exec();
        // wrong row_ptrs length
        assert!(
            Csr::<f64, i32>::from_raw(&e, Dim2::square(2), vec![0, 1], vec![0], vec![1.0]).is_err()
        );
        // col out of range
        assert!(
            Csr::<f64, i32>::from_raw(&e, Dim2::square(2), vec![0, 1, 1], vec![5], vec![1.0])
                .is_err()
        );
        // unsorted columns in a row
        assert!(Csr::<f64, i32>::from_raw(
            &e,
            Dim2::square(2),
            vec![0, 2, 2],
            vec![1, 0],
            vec![1.0, 2.0]
        )
        .is_err());
        // nnz mismatch
        assert!(Csr::<f64, i32>::from_raw(
            &e,
            Dim2::square(2),
            vec![0, 1, 3],
            vec![0, 1],
            vec![1.0, 2.0]
        )
        .is_err());
    }

    /// The whole-array passes and the row walk must agree on every input
    /// with sound lengths and end points: sound structures, and each with one
    /// defect planted (a swap, a repeat, a column out of range, a row pointer
    /// moved), in leading, interior, trailing and empty-row positions.
    #[test]
    fn whole_array_passes_agree_with_the_row_walk() {
        let lens = [3usize, 0, 1, 4, 0, 0, 2, 5, 0];
        let cols = 6;
        let mut rp = vec![0i32];
        let mut ci = Vec::new();
        for &len in &lens {
            ci.extend((0..len).map(|s| (s * cols / len) as i32));
            rp.push(ci.len() as i32);
        }
        let size = Dim2::new(lens.len(), cols);
        let agree = |rp: &[i32], ci: &[i32], what: &str| {
            let walk = first_structure_defect(size, rp, ci);
            assert_eq!(
                structure_is_sound(cols, rp, ci),
                walk.is_ok(),
                "{what}: {walk:?}"
            );
            walk.is_ok()
        };
        assert!(agree(&rp, &ci, "sound"));
        for e in 0..ci.len() {
            for planted in [ci[e] + 1, ci[e] - 1, 0, cols as i32 - 1, cols as i32, -1] {
                if planted < 0 && cfg!(debug_assertions) {
                    continue; // `to_usize` asserts on a negative index
                }
                let mut bad = ci.clone();
                bad[e] = planted;
                agree(&rp, &bad, &format!("col_idxs[{e}] = {planted}"));
            }
        }
        let mut planted_defects = 0;
        for r in 1..lens.len() {
            for moved in [rp[r] - 1, rp[r] + 1, rp[r] + 2] {
                if moved < 0 || moved as usize > ci.len() {
                    continue;
                }
                let mut bad = rp.clone();
                bad[r] = moved;
                let sound = agree(&bad, &ci, &format!("row_ptrs[{r}] = {moved}"));
                planted_defects += usize::from(!sound);
            }
        }
        assert!(planted_defects > 0);
    }

    #[test]
    fn spmv_matches_dense() {
        let e = exec();
        let a = sample(&e);
        let b = Dense::from_rows(&e, &[[1.0f64], [2.0], [3.0]]);
        let mut x = Dense::zeros(&e, Dim2::new(3, 1));
        a.apply(&b, &mut x).unwrap();
        assert_eq!(x.to_host_vec(), vec![5.0, 6.0, 32.0]);

        let mut xd = Dense::zeros(&e, Dim2::new(3, 1));
        a.to_dense().apply(&b, &mut xd).unwrap();
        assert_eq!(xd.to_host_vec(), x.to_host_vec());
    }

    #[test]
    fn advanced_spmv_applies_alpha_beta() {
        let e = exec();
        let a = sample(&e);
        let b = Dense::from_rows(&e, &[[1.0f64], [2.0], [3.0]]);
        let mut x = Dense::from_rows(&e, &[[1.0f64], [1.0], [1.0]]);
        a.apply_advanced(2.0, &b, -1.0, &mut x).unwrap();
        assert_eq!(x.to_host_vec(), vec![9.0, 11.0, 63.0]);
    }

    #[test]
    fn strategies_agree_numerically() {
        let e = exec();
        let a = sample(&e).with_strategy(SpmvStrategy::Classical);
        let b = Dense::from_rows(&e, &[[1.0f64], [2.0], [3.0]]);
        let mut x1 = Dense::zeros(&e, Dim2::new(3, 1));
        a.apply(&b, &mut x1).unwrap();
        let a2 = sample(&e).with_strategy(SpmvStrategy::LoadBalance);
        let mut x2 = Dense::zeros(&e, Dim2::new(3, 1));
        a2.apply(&b, &mut x2).unwrap();
        assert_eq!(x1.to_host_vec(), x2.to_host_vec());
    }

    #[test]
    fn load_balance_bounds_balance_nnz() {
        let e = exec();
        // One heavy row (8 nnz) and 8 light rows (1 nnz each).
        let mut triplets = vec![];
        for j in 0..8 {
            triplets.push((0usize, j, 1.0f64));
        }
        for i in 1..9 {
            triplets.push((i, 0, 1.0));
        }
        let a = Csr::<f64, i32>::from_triplets(&e, Dim2::new(9, 9), &triplets).unwrap();
        let rp = a.row_ptrs();
        let bounds = plan::load_balance_bounds(9, rp, 4);
        let nnz_per_chunk: Vec<usize> = bounds
            .windows(2)
            .map(|w| rp[w[1]].to_usize() - rp[w[0]].to_usize())
            .collect();
        // The heavy row is alone in its chunk (8 nnz), the rest spread out.
        assert_eq!(nnz_per_chunk.iter().sum::<usize>(), 16);
        assert!(
            nnz_per_chunk[0] >= 8,
            "heavy row isolated: {nnz_per_chunk:?}"
        );

        assert_ne!(bounds, uniform_bounds(9, 4));
    }

    #[test]
    fn triplets_sum_duplicates() {
        let e = exec();
        let a = Csr::<f64, i32>::from_triplets(
            &e,
            Dim2::square(2),
            &[(0, 0, 1.0), (0, 0, 2.0), (1, 1, 5.0)],
        )
        .unwrap();
        assert_eq!(a.nnz(), 2);
        assert_eq!(a.to_dense().at(0, 0), 3.0);
    }

    #[test]
    fn triplets_out_of_range_rejected() {
        let e = exec();
        assert!(Csr::<f64, i32>::from_triplets(&e, Dim2::square(2), &[(2, 0, 1.0)]).is_err());
    }

    #[test]
    fn diagonal_extraction() {
        let e = exec();
        let a = sample(&e);
        assert_eq!(a.extract_diagonal(), vec![2.0, 3.0, 6.0]);
        // missing diagonal reads as zero
        let b = Csr::<f64, i32>::from_triplets(&e, Dim2::square(2), &[(0, 1, 7.0)]).unwrap();
        assert_eq!(b.extract_diagonal(), vec![0.0, 0.0]);
    }

    #[test]
    fn transpose_is_involution() {
        let e = exec();
        let a = sample(&e);
        let t = a.transpose();
        assert_eq!(t.to_dense().at(0, 2), 4.0);
        assert_eq!(t.to_dense().at(2, 0), 1.0);
        let tt = t.transpose();
        assert_eq!(tt.to_dense().to_host_vec(), a.to_dense().to_host_vec());
    }

    #[test]
    fn int64_indices_work() {
        let e = exec();
        let a = Csr::<f32, i64>::from_triplets(&e, Dim2::square(2), &[(0, 0, 2.0), (1, 1, 3.0)])
            .unwrap();
        let b = Dense::from_rows(&e, &[[1.0f32], [1.0]]);
        let mut x = Dense::zeros(&e, Dim2::new(2, 1));
        a.apply(&b, &mut x).unwrap();
        assert_eq!(x.to_host_vec(), vec![2.0, 3.0]);
    }

    #[test]
    fn load_balance_bounds_have_no_duplicates_on_arrow_head() {
        let e = exec();
        // Arrow-head: full last row + full last column + diagonal. Most nnz
        // sit in the final row, so many balance targets resolve to the same
        // boundary row; these used to be emitted as duplicate bounds
        // (= empty chunks inflating modeled chunk overhead).
        let n = 64;
        let mut triplets = vec![];
        for i in 0..n - 1 {
            triplets.push((i, i, 2.0f64));
            triplets.push((i, n - 1, 1.0));
            triplets.push((n - 1, i, 1.0));
        }
        triplets.push((n - 1, n - 1, 2.0));
        let a = Csr::<f64, i32>::from_triplets(&e, Dim2::square(n), &triplets).unwrap();
        for chunks in [2, 4, 16, 64, 1000] {
            let bounds = plan::load_balance_bounds(n, a.row_ptrs(), chunks);
            assert_eq!(bounds[0], 0);
            assert_eq!(*bounds.last().unwrap(), n);
            assert!(
                bounds.windows(2).all(|w| w[0] < w[1]),
                "strictly increasing bounds (chunks={chunks}): {bounds:?}"
            );
            assert!(bounds.len() <= chunks + 1);
        }
        // The result is still correct under the deduped partition.
        let b = Dense::vector(&e, n, 1.0f64);
        let mut x = Dense::zeros(&e, Dim2::new(n, 1));
        a.apply(&b, &mut x).unwrap();
        let xs = x.to_host_vec();
        assert_eq!(xs[0], 3.0, "diag + last column");
        assert_eq!(xs[n - 1], (n - 1) as f64 + 2.0, "dense last row");
    }

    #[test]
    fn spmv_work_accounts_all_nnz() {
        let e = exec();
        let a = sample(&e);
        let flops: f64 = a.plan().work.iter().map(|w| w.flops).sum();
        assert_eq!(flops, 2.0 * a.nnz() as f64);
    }

    #[test]
    fn plan_is_cached_and_reused_across_applies() {
        let e = Executor::omp(4);
        let a = sample(&e);
        let b = Dense::from_rows(&e, &[[1.0f64], [2.0], [3.0]]);
        let mut x = Dense::zeros(&e, Dim2::new(3, 1));
        for _ in 0..5 {
            a.apply(&b, &mut x).unwrap();
        }
        let stats = a.plan_stats();
        assert_eq!(stats.builds, 1, "inspector ran once: {stats:?}");
        assert_eq!(stats.hits, 4, "remaining applies reused the plan");
        // Explicit invalidation forces a rebuild on the next apply.
        a.invalidate_plan();
        a.apply(&b, &mut x).unwrap();
        assert_eq!(a.plan_stats().builds, 2);
    }

    #[test]
    fn clone_does_not_share_plan_cache() {
        let e = exec();
        let a = sample(&e);
        let b = Dense::from_rows(&e, &[[1.0f64], [2.0], [3.0]]);
        let mut x = Dense::zeros(&e, Dim2::new(3, 1));
        a.apply(&b, &mut x).unwrap();
        assert_eq!(a.plan_stats().builds, 1);
        // The clone starts with an empty cache (no stale shared plan) and
        // builds its own on first apply, leaving the original untouched.
        let c = a.clone();
        assert_eq!(c.plan_stats(), PlanCacheStats::default());
        c.apply(&b, &mut x).unwrap();
        assert_eq!(c.plan_stats().builds, 1);
        assert_eq!(a.plan_stats().builds, 1);
    }

    #[test]
    fn auto_default_resolves_deterministically() {
        let e = exec();
        let a = sample(&e);
        assert_eq!(a.strategy(), SpmvStrategy::Auto, "Auto is the default");
        let r1 = a.plan().resolved;
        for _ in 0..5 {
            assert_eq!(a.plan().resolved, r1);
        }
        // An independently built copy of the same structure resolves the
        // same way: resolution is purely structural.
        assert_eq!(sample(&e).plan().resolved, r1);
    }

    /// Degenerate shapes where merge-path segment handling has edge cases:
    /// interleaved empty rows, a single dense row, a column vector, and a
    /// single-entry matrix. Integer-valued data keeps every partial-sum
    /// order bitwise exact, so merge-path must equal classical exactly.
    #[test]
    fn merge_path_matches_classical_on_degenerate_shapes() {
        type Case = (Dim2, Vec<(usize, usize, f64)>);
        for e in [Executor::reference(), Executor::omp(7)] {
            let cases: Vec<Case> = vec![
                // Empty rows around sparse ones.
                (Dim2::new(6, 4), vec![(1, 0, 2.0), (1, 3, 1.0), (4, 2, 3.0)]),
                // Single dense row (1 x N).
                (
                    Dim2::new(1, 40),
                    (0..40).map(|j| (0usize, j, (j % 5) as f64 - 2.0)).collect(),
                ),
                // Column vector (N x 1).
                (
                    Dim2::new(17, 1),
                    (0..17).map(|i| (i, 0usize, i as f64)).collect(),
                ),
                // Single entry.
                (Dim2::new(3, 3), vec![(2, 2, 5.0)]),
            ];
            for (dim, triplets) in cases {
                let merge = Csr::<f64, i32>::from_triplets(&e, dim, &triplets)
                    .unwrap()
                    .with_strategy(SpmvStrategy::MergePath);
                let classical = Csr::<f64, i32>::from_triplets(&e, dim, &triplets)
                    .unwrap()
                    .with_strategy(SpmvStrategy::Classical);
                let bv: Vec<f64> = (0..dim.cols * 2).map(|t| ((t % 7) as f64) - 3.0).collect();
                let b = Dense::from_vec(&e, Dim2::new(dim.cols, 2), bv).unwrap();
                let xv: Vec<f64> = (0..dim.rows * 2).map(|t| t as f64).collect();
                let mut xm = Dense::from_vec(&e, Dim2::new(dim.rows, 2), xv).unwrap();
                let mut xc = xm.clone();
                merge.apply_advanced(2.0, &b, -1.0, &mut xm).unwrap();
                classical.apply_advanced(2.0, &b, -1.0, &mut xc).unwrap();
                assert_eq!(
                    xm.to_host_vec(),
                    xc.to_host_vec(),
                    "dim {dim:?} on {}",
                    e.name()
                );
            }
        }
    }

    #[test]
    fn merge_path_splits_dense_row_and_verifies_under_sanitizer() {
        let e = Executor::omp(8);
        e.enable_sanitizer();
        // Skewed: one row holds most nonzeros, so Auto resolves to
        // merge-path and the dense row is split across segments.
        let n = 64;
        let mut triplets: Vec<(usize, usize, f64)> = (0..n).map(|j| (3usize, j, 1.0)).collect();
        for i in 0..n {
            if i != 3 {
                triplets.push((i, i, 2.0));
            }
        }
        let a = Csr::<f64, i32>::from_triplets(&e, Dim2::square(n), &triplets).unwrap();
        let plan = a.plan();
        assert_eq!(plan.resolved, ResolvedStrategy::MergePath);
        assert!(
            plan.segments
                .iter()
                .filter(|s| s.row_first <= 3 && 3 <= s.row_last)
                .count()
                > 1,
            "dense row split across segments"
        );
        let b = Dense::vector(&e, n, 1.0f64);
        let mut x = Dense::zeros(&e, Dim2::new(n, 1));
        // Sanitizer-on apply validates the segment partition and the pool's
        // claim log; any violation panics.
        a.apply(&b, &mut x).unwrap();
        let xs = x.to_host_vec();
        assert_eq!(xs[3], n as f64, "dense row sums all columns");
        assert_eq!(xs[0], 2.0);
        assert_eq!(xs[n - 1], 2.0);
    }

    /// An armed apply checks the row order of every strategy's plan, and the
    /// ordered result is the unordered executor's.
    #[test]
    fn ordered_plans_verify_under_sanitizer() {
        let n = plan::ORDER_MIN_ROWS + 5;
        let triplets: Vec<(usize, usize, f64)> = (0..n)
            .flat_map(|i| (0..1 + i * 7 % 5).map(move |s| (i, (i + s * 97) % n, 1.0 + s as f64)))
            .collect();
        let b_of = |e: &Executor| Dense::from_vec(e, Dim2::new(n, 1), vec![0.5f64; n]).unwrap();
        let reference = Executor::reference();
        let mut want = Dense::zeros(&reference, Dim2::new(n, 1));
        let a = Csr::<f64, i32>::from_triplets(&reference, Dim2::square(n), &triplets).unwrap();
        a.apply(&b_of(&reference), &mut want).unwrap();
        let e = Executor::omp(4);
        e.enable_sanitizer();
        let strategies = [
            SpmvStrategy::Classical,
            SpmvStrategy::LoadBalance,
            SpmvStrategy::MergePath,
        ];
        for strategy in strategies {
            let a = Csr::<f64, i32>::from_triplets(&e, Dim2::square(n), &triplets)
                .unwrap()
                .with_strategy(strategy);
            assert!(a.plan().ordered_rows() > 0, "{strategy:?}");
            let mut x = Dense::zeros(&e, Dim2::new(n, 1));
            a.apply(&b_of(&e), &mut x).unwrap();
            assert_eq!(x.to_host_vec(), want.to_host_vec(), "{strategy:?}");
        }
    }
}
