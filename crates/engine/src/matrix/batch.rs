//! Batched formats: many independent small systems, one pool drain per op.
//!
//! The workload is not one giant system but huge numbers of independent
//! small ones solved per call (Ginkgo's batched direction). A loop of single
//! applies pays the executor's kernel-launch overhead once *per system per
//! kernel*; the batched formats here pay it once per kernel by draining the
//! [`WorkerPool`](crate::executor::pool) exactly once per batch operation.
//!
//! One layout: system `s` of a batch of `S` is the `s`-th run of
//! `size.count()` values of one slab, nothing between systems.
//!
//! * [`BatchDense`] — `S` dense blocks of identical shape, with per-system
//!   BLAS kernels (axpy, dots, norms) that take a per-system coefficient
//!   slice and an activity mask, so batched solvers stop charging flops for
//!   converged systems. Every kernel is an element loop handed to one masked
//!   per-system driver, which cuts the batch at whole systems.
//! * [`BatchCsr`] — `S` CSR systems on one sparsity structure, each reading
//!   one of the batch's value sets. (Systems with different sparsity are a
//!   loop of [`Csr`] solves, which is what batching them measured as.)
//!
//! The batched SpMV cuts the `S * rows` concatenated rows of the batch
//! uniformly, so a chunk is a run of whole systems when systems are small and
//! a row range of one system when they are large, with no switch between the
//! two.

use crate::base::array::Array;
use crate::base::dim::Dim2;
use crate::base::error::{GkoError, Result};
use crate::base::types::{Index, Value};
use crate::executor::pool::{parallel_chunks, uniform_bounds};
use crate::executor::Executor;
use crate::linop::check_memory_space;
use crate::log::OpTimer;
use crate::matrix::csr::{dot_span, Csr};
use crate::matrix::plan::spmv_chunk_work;
use pygko_sim::ChunkWork;

/// True when system `s` participates in the current kernel.
#[inline]
fn is_active(active: Option<&[bool]>, s: usize) -> bool {
    active.is_none_or(|m| m[s])
}

/// Validates an activity mask's length against the batch size.
fn check_mask(active: Option<&[bool]>, num_systems: usize, op: &'static str) -> Result<()> {
    if let Some(mask) = active {
        if mask.len() != num_systems {
            return Err(GkoError::BadInput(format!(
                "{op}: activity mask covers {} systems but the batch has {num_systems}",
                mask.len()
            )));
        }
    }
    Ok(())
}

/// System `s` of a slab of systems of `count` elements each. The kernels
/// capture slabs, not batches: a closure that reaches through `&BatchDense`
/// reloads its pointer and length for every system (dots read 1.5x slower).
#[inline]
fn system_of<V>(slab: &[V], count: usize, s: usize) -> &[V] {
    &slab[s * count..][..count]
}

/// Error for a batch built from no systems.
fn empty_batch() -> GkoError {
    GkoError::BadInput("a batch needs at least one system".to_owned())
}

/// Concatenates one value vector per system into a slab, each of length `len`
/// (`what` names `len` in the error).
fn slab<V: Value>(systems: &[Vec<V>], len: usize, what: &str) -> Result<Vec<V>> {
    if systems.is_empty() {
        return Err(empty_batch());
    }
    let mut slab = Vec::with_capacity(systems.len() * len);
    for (s, vals) in systems.iter().enumerate() {
        if vals.len() != len {
            return Err(GkoError::BadInput(format!(
                "system {s} holds {} values but {what} {len}",
                vals.len()
            )));
        }
        slab.extend_from_slice(vals);
    }
    Ok(slab)
}

// ---------------------------------------------------------------------------
// BatchDense
// ---------------------------------------------------------------------------

/// `num_systems` equally-shaped dense blocks in one slab.
///
/// System `s` occupies `values[s * size.count()..(s + 1) * size.count()]` in
/// row-major order. All kernels chunk at whole-system granularity so one
/// [`parallel_chunks`] drain covers every system, and masked kernels skip
/// inactive systems inside the chunk closure while charging the cost model
/// only for active ones.
#[derive(Debug, Clone)]
pub struct BatchDense<V: Value> {
    num_systems: usize,
    size: Dim2,
    values: Array<V>,
}

impl<V: Value> BatchDense<V> {
    /// Allocates a zero-initialized batch.
    pub fn zeros(exec: &Executor, num_systems: usize, size: Dim2) -> Self {
        BatchDense {
            num_systems,
            size,
            values: Array::new(exec, num_systems * size.count()),
        }
    }

    /// Builds a batch from one value vector per system.
    pub fn from_systems(exec: &Executor, size: Dim2, systems: &[Vec<V>]) -> Result<Self> {
        let values = slab(systems, size.count(), &format!("the shape {size} needs"))?;
        Ok(BatchDense {
            num_systems: systems.len(),
            size,
            values: Array::from_vec(exec, values),
        })
    }

    /// Number of systems in the batch.
    pub fn num_systems(&self) -> usize {
        self.num_systems
    }

    /// Shape of each system.
    pub fn size(&self) -> Dim2 {
        self.size
    }

    /// Executor the slab lives on.
    pub fn executor(&self) -> &Executor {
        self.values.executor()
    }

    /// Read access to system `s` (row-major).
    pub fn system(&self, s: usize) -> &[V] {
        system_of(self.as_slice(), self.size.count(), s)
    }

    /// Write access to system `s`.
    pub fn system_mut(&mut self, s: usize) -> &mut [V] {
        let count = self.size.count();
        &mut self.values.as_mut_slice()[s * count..(s + 1) * count]
    }

    /// The whole slab: the systems one after the other.
    pub fn as_slice(&self) -> &[V] {
        self.values.as_slice()
    }

    /// Mutable access to the whole slab.
    pub fn as_mut_slice(&mut self) -> &mut [V] {
        self.values.as_mut_slice()
    }

    /// The operand checks of every kernel below, in one place: `other` must
    /// match this batch in size, shape and memory space, a per-system
    /// coefficient (or result) slice of `coeffs` entries and an activity mask
    /// must cover its systems. `name` is the kernel's.
    fn check(
        &self,
        name: &'static str,
        other: Option<&BatchDense<V>>,
        coeffs: Option<usize>,
        active: Option<&[bool]>,
    ) -> Result<()> {
        if let Some(other) = other {
            if self.num_systems != other.num_systems {
                return Err(GkoError::BadInput(format!(
                    "{name}: batches hold {} vs {} systems",
                    self.num_systems, other.num_systems
                )));
            }
            if self.size != other.size {
                return Err(GkoError::DimensionMismatch {
                    op: name,
                    expected: self.size,
                    actual: other.size,
                });
            }
            self.values.check_same_executor(&other.values)?;
        }
        if let Some(len) = coeffs.filter(|&len| len != self.num_systems) {
            return Err(GkoError::BadInput(format!(
                "{name}: {len} coefficients for {} systems",
                self.num_systems
            )));
        }
        check_mask(active, self.num_systems, name)
    }

    /// The one masked per-system driver under every kernel below (the
    /// batched counterpart of `Dense::sweep`), for operands already
    /// [`check`](Self::check)ed: cuts the `num_systems` systems of `count`
    /// elements into runs of whole systems and calls `f(s, piece)` for every
    /// active system `s` with that system's piece of `out`, which is a batch's
    /// slab or one slot per system (an inactive system's piece is not
    /// touched). One timer under `name`, one pool drain, one launch that
    /// charges `arrays` arrays streamed and `flops` per element for the
    /// active systems only.
    fn masked<T: Send>(
        exec: &Executor,
        (num_systems, count): (usize, usize),
        name: &'static str,
        (arrays, flops): (usize, f64),
        active: Option<&[bool]>,
        out: &mut [T],
        f: impl Fn(usize, &mut [T]) + Sync,
    ) {
        let _timer = OpTimer::new(exec, name);
        let sys_bounds = uniform_bounds(num_systems, exec.spec().workers * 2);
        // `count` elements of a slab or one slot; nothing when either is empty.
        let per_system = out.len().checked_div(num_systems).unwrap_or(0);
        let out_bounds: Vec<usize> = sys_bounds.iter().map(|&s| s * per_system).collect();
        parallel_chunks(exec, out, &out_bounds, |c, piece| {
            let systems = sys_bounds[c]..sys_bounds[c + 1];
            for (s, out) in systems.zip(piece.chunks_exact_mut(per_system.max(1))) {
                if is_active(active, s) {
                    f(s, out);
                }
            }
        });
        let work: Vec<ChunkWork> = sys_bounds
            .windows(2)
            .map(|w| {
                let act = (w[0]..w[1]).filter(|&s| is_active(active, s)).count();
                let elems = (act * count) as f64;
                ChunkWork::new(elems * (arrays * V::BYTES) as f64, 0.0, elems * flops)
            })
            .collect();
        exec.launch(&work);
    }

    /// [`masked`](Self::masked) over this batch's own slab.
    fn update(
        &mut self,
        name: &'static str,
        cost: (usize, f64),
        active: Option<&[bool]>,
        f: impl Fn(usize, &mut [V]) + Sync,
    ) {
        let exec = self.executor().clone();
        let layout = (self.num_systems, self.size.count());
        Self::masked(
            &exec,
            layout,
            name,
            cost,
            active,
            self.values.as_mut_slice(),
            f,
        );
    }

    /// [`masked`](Self::masked) over one result slot per system.
    fn reduce(
        &self,
        name: &'static str,
        cost: (usize, f64),
        active: Option<&[bool]>,
        out: &mut [f64],
        f: impl Fn(usize) -> f64 + Sync,
    ) {
        let layout = (self.num_systems, self.size.count());
        Self::masked(
            self.executor(),
            layout,
            name,
            cost,
            active,
            out,
            |s, slot| slot[0] = f(s),
        );
    }

    /// Fills every system with a constant.
    pub fn fill(&mut self, value: V) {
        self.update("batch_dense::fill", (1, 0.0), None, |_, dst| {
            dst.fill(value)
        });
    }

    /// Copies every system from `other`.
    pub fn copy_from(&mut self, other: &BatchDense<V>) -> Result<()> {
        const NAME: &str = "batch_dense::copy";
        self.check(NAME, Some(other), None, None)?;
        let (src, count) = (other.as_slice(), self.size.count());
        self.update(NAME, (2, 0.0), None, |s, dst| {
            dst.copy_from_slice(system_of(src, count, s))
        });
        Ok(())
    }

    /// Per-system axpy: `self[s] += alpha[s] * other[s]` for active systems.
    pub fn axpy(
        &mut self,
        alpha: &[f64],
        other: &BatchDense<V>,
        active: Option<&[bool]>,
    ) -> Result<()> {
        const NAME: &str = "batch_dense::axpy";
        self.check(NAME, Some(other), Some(alpha.len()), active)?;
        let (src, count) = (other.as_slice(), self.size.count());
        self.update(NAME, (3, 2.0), active, |s, dst| {
            let a = V::from_f64(alpha[s]);
            for (d, &v) in dst.iter_mut().zip(system_of(src, count, s)) {
                *d += a * v;
            }
        });
        Ok(())
    }

    /// Per-system `self[s] = other[s] + beta[s] * self[s]` for active
    /// systems (the CG direction update `p = z + beta p`).
    pub fn scale_add(
        &mut self,
        other: &BatchDense<V>,
        beta: &[f64],
        active: Option<&[bool]>,
    ) -> Result<()> {
        const NAME: &str = "batch_dense::scale_add";
        self.check(NAME, Some(other), Some(beta.len()), active)?;
        let (src, count) = (other.as_slice(), self.size.count());
        self.update(NAME, (3, 2.0), active, |s, dst| {
            let b = V::from_f64(beta[s]);
            for (d, &v) in dst.iter_mut().zip(system_of(src, count, s)) {
                *d = v + b * *d;
            }
        });
        Ok(())
    }

    /// Per-system Euclidean norms into `out[s]` for active systems
    /// (inactive slots are left untouched). Accumulates in `f64` per system
    /// in element order, so results are deterministic.
    pub(crate) fn norms2(&self, active: Option<&[bool]>, out: &mut [f64]) -> Result<()> {
        const NAME: &str = "batch_dense::norms2";
        self.check(NAME, None, Some(out.len()), active)?;
        let (vals, count) = (self.as_slice(), self.size.count());
        self.reduce(NAME, (1, 2.0), active, out, |s| {
            let mut acc = 0.0f64;
            for &v in system_of(vals, count, s) {
                let f = v.to_f64();
                acc += f * f;
            }
            acc.sqrt()
        });
        Ok(())
    }

    /// Per-system dot products `out[s] = self[s] · other[s]` for active
    /// systems (inactive slots are left untouched).
    pub fn dots(
        &self,
        other: &BatchDense<V>,
        active: Option<&[bool]>,
        out: &mut [f64],
    ) -> Result<()> {
        const NAME: &str = "batch_dense::dots";
        self.check(NAME, Some(other), Some(out.len()), active)?;
        let (a, b, count) = (self.as_slice(), other.as_slice(), self.size.count());
        self.reduce(NAME, (2, 2.0), active, out, |s| {
            let mut acc = 0.0f64;
            for (&x, &y) in system_of(a, count, s).iter().zip(system_of(b, count, s)) {
                acc += x.to_f64() * y.to_f64();
            }
            acc
        });
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// BatchCsr
// ---------------------------------------------------------------------------

/// A batch of `num_systems` CSR systems on one sparsity structure.
///
/// The batch keeps one `row_ptrs` / `col_idxs` pair and `sets` value sets of
/// `nnz` entries each; system `s` reads set `s % sets`. A batch of distinct
/// systems ([`from_shared`](Self::from_shared)) has one set per system, a
/// batch of equal ones ([`replicated`](Self::replicated)) a single set, so it
/// costs the memory of one matrix whatever its size. The values cannot be
/// written once the batch is built.
///
/// [`BatchCsr::apply_batch`] computes `x[s] = A[s] b[s]` for every active
/// system with a single pool drain.
#[derive(Debug)]
pub struct BatchCsr<V: Value, I: Index = i32> {
    num_systems: usize,
    size: Dim2,
    exec: Executor,
    row_ptrs: Array<I>,
    col_idxs: Array<I>,
    /// `sets * nnz` values, set after set.
    values: Array<V>,
    sets: usize,
}

/// The pieces of systems of `rows` rows each that the concatenated rows
/// `[lo, hi)` of a batch overlap, in order: `(system, first row, end row)`.
fn spans(rows: usize, lo: usize, hi: usize) -> impl Iterator<Item = (usize, usize, usize)> {
    let mut at = lo;
    std::iter::from_fn(move || {
        (at < hi).then(|| {
            let (s, first) = (at / rows, at % rows);
            let end = rows.min(first + hi - at);
            at += end - first;
            (s, first, end)
        })
    })
}

impl<V: Value, I: Index> BatchCsr<V, I> {
    /// Builds a batch from a prototype structure and one value vector per
    /// system (each of length `proto.nnz()`).
    pub fn from_shared(proto: &Csr<V, I>, system_values: &[Vec<V>]) -> Result<Self> {
        let values = slab(system_values, proto.nnz(), "the shared sparsity has")?;
        Ok(Self::on_structure(
            proto,
            system_values.len(),
            values,
            system_values.len(),
        ))
    }

    /// Builds a batch of `num_systems` systems that all are `proto` (the
    /// facade's batched-solve path); the matrix is stored once.
    pub fn replicated(proto: &Csr<V, I>, num_systems: usize) -> Result<Self> {
        if num_systems == 0 {
            return Err(empty_batch());
        }
        Ok(Self::on_structure(
            proto,
            num_systems,
            proto.values().to_vec(),
            1,
        ))
    }

    fn on_structure(proto: &Csr<V, I>, num_systems: usize, values: Vec<V>, sets: usize) -> Self {
        let exec = proto.executor().clone();
        BatchCsr {
            num_systems,
            size: proto.size(),
            row_ptrs: Array::from_vec(&exec, proto.row_ptrs().to_vec()),
            col_idxs: Array::from_vec(&exec, proto.col_idxs().to_vec()),
            values: Array::from_vec(&exec, values),
            sets,
            exec,
        }
    }

    /// Number of systems in the batch.
    pub fn num_systems(&self) -> usize {
        self.num_systems
    }

    /// Shape of each system.
    pub fn size(&self) -> Dim2 {
        self.size
    }

    /// Executor the batch lives on.
    pub fn executor(&self) -> &Executor {
        &self.exec
    }

    /// Read access to system `s`'s values.
    pub fn system_values(&self, s: usize) -> &[V] {
        system_of(self.values.as_slice(), self.col_idxs.len(), s % self.sets)
    }

    /// Batched SpMV: `x[s] = A[s] b[s]` for every system where
    /// `active` is unset or true; inactive systems' outputs are untouched.
    ///
    /// Drains the worker pool exactly once, over a uniform partition of the
    /// `num_systems * rows` concatenated rows: a chunk walks the systems it
    /// overlaps, each over its row sub-range. The cost model is charged only
    /// for active systems.
    pub fn apply_batch(
        &self,
        b: &BatchDense<V>,
        x: &mut BatchDense<V>,
        active: Option<&[bool]>,
    ) -> Result<()> {
        let (rows, cols) = (self.size.rows, self.size.cols);
        if b.num_systems() != self.num_systems || x.num_systems() != self.num_systems {
            return Err(GkoError::BadInput(format!(
                "apply_batch: operator has {} systems, b {} and x {}",
                self.num_systems,
                b.num_systems(),
                x.num_systems()
            )));
        }
        for (operand, expected) in [
            (b.size(), Dim2::new(cols, 1)),
            (x.size(), Dim2::new(rows, 1)),
        ] {
            if operand != expected {
                return Err(GkoError::DimensionMismatch {
                    op: "apply_batch",
                    expected,
                    actual: operand,
                });
            }
        }
        check_memory_space(&self.exec, [b.executor(), x.executor()])?;
        check_mask(active, self.num_systems, "apply_batch")?;
        let _timer = OpTimer::new(&self.exec, "batch_csr");

        let bounds = uniform_bounds(self.num_systems * rows, self.exec.spec().workers.max(1) * 2);
        let rp = self.row_ptrs.as_slice();
        let ci = self.col_idxs.as_slice();
        let (vals, sets, rhs) = (self.values.as_slice(), self.sets, b.as_slice());
        parallel_chunks(&self.exec, x.as_mut_slice(), &bounds, |c, mut xs| {
            for (s, first, end) in spans(rows, bounds[c], bounds[c + 1]) {
                let (out, rest) = xs.split_at_mut(end - first);
                xs = rest;
                if !is_active(active, s) {
                    continue;
                }
                let (sv, bv) = (system_of(vals, ci.len(), s % sets), system_of(rhs, cols, s));
                for (out, w) in out.iter_mut().zip(rp[first..=end].windows(2)) {
                    let (lo, hi) = (w[0].to_usize(), w[1].to_usize());
                    *out = V::from_f64(dot_span(&sv[lo..hi], &ci[lo..hi], bv));
                }
            }
        });
        // One charge per chunk that holds active rows.
        let work: Vec<ChunkWork> = bounds
            .windows(2)
            .filter_map(|w| {
                let (mut act_rows, mut act_nnz) = (0usize, 0usize);
                for (s, first, end) in spans(rows, w[0], w[1]) {
                    if is_active(active, s) {
                        act_rows += end - first;
                        act_nnz += rp[end].to_usize() - rp[first].to_usize();
                    }
                }
                (act_rows > 0)
                    .then(|| spmv_chunk_work(act_rows as f64, act_nnz as f64, V::BYTES, I::BYTES))
            })
            .collect();
        self.exec.launch(&work);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linop::LinOp;
    use crate::matrix::dense::Dense;

    fn tridiag(exec: &Executor, n: usize, diag: f64) -> Csr<f64, i32> {
        let mut t = vec![];
        for i in 0..n {
            t.push((i, i, diag));
            if i > 0 {
                t.push((i, i - 1, -1.0));
            }
            if i + 1 < n {
                t.push((i, i + 1, -1.0));
            }
        }
        Csr::from_triplets(exec, Dim2::square(n), &t).unwrap()
    }

    /// Shared-sparsity batch of `s` tridiagonal systems with distinct values.
    fn shared_batch(exec: &Executor, n: usize, s: usize) -> BatchCsr<f64, i32> {
        let proto = tridiag(exec, n, 4.0);
        let vals: Vec<Vec<f64>> = (0..s)
            .map(|k| {
                proto
                    .values()
                    .iter()
                    .map(|&v| if v > 0.0 { v + k as f64 * 0.25 } else { v })
                    .collect()
            })
            .collect();
        BatchCsr::from_shared(&proto, &vals).unwrap()
    }

    /// Reference result: each system applied through the plain Csr kernel.
    fn reference_apply(
        exec: &Executor,
        batch: &BatchCsr<f64, i32>,
        b: &BatchDense<f64>,
    ) -> Vec<Vec<f64>> {
        let n = batch.size().rows;
        let proto = tridiag(exec, n, 4.0);
        (0..batch.num_systems())
            .map(|s| {
                let csr = Csr::from_raw(
                    exec,
                    batch.size(),
                    proto.row_ptrs().to_vec(),
                    proto.col_idxs().to_vec(),
                    batch.system_values(s).to_vec(),
                )
                .unwrap();
                let bv = Dense::from_vec(exec, Dim2::new(n, 1), b.system(s).to_vec()).unwrap();
                let mut xv = Dense::zeros(exec, Dim2::new(n, 1));
                csr.apply(&bv, &mut xv).unwrap();
                xv.to_host_vec()
            })
            .collect()
    }

    #[test]
    fn shared_apply_matches_per_system_reference() {
        let exec = Executor::reference();
        let (n, s) = (12, 5);
        let batch = shared_batch(&exec, n, s);
        let mut b = BatchDense::zeros(&exec, s, Dim2::new(n, 1));
        for k in 0..s {
            for (i, v) in b.system_mut(k).iter_mut().enumerate() {
                *v = (i + k + 1) as f64 * 0.5;
            }
        }
        let mut x = BatchDense::zeros(&exec, s, Dim2::new(n, 1));
        batch.apply_batch(&b, &mut x, None).unwrap();
        let want = reference_apply(&exec, &batch, &b);
        for (k, want_k) in want.iter().enumerate() {
            for (i, (&got, &w)) in x.system(k).iter().zip(want_k).enumerate() {
                assert!((got - w).abs() < 1e-12, "system {k} row {i}: {got} vs {w}");
            }
        }
    }

    #[test]
    fn batches_below_and_above_the_chunk_count_agree_with_the_per_system_reference() {
        // Two chunks on the reference executor: one system is cut inside,
        // two fall on the cut, seven straddle it (63 rows, cut after 31).
        let exec = Executor::reference();
        let n = 9;
        for s in [1usize, 2, 7] {
            let batch = shared_batch(&exec, n, s);
            let mut b = BatchDense::zeros(&exec, s, Dim2::new(n, 1));
            for k in 0..s {
                for (i, v) in b.system_mut(k).iter_mut().enumerate() {
                    *v = 1.0 + (i * (k + 1)) as f64;
                }
            }
            let mut x = BatchDense::zeros(&exec, s, Dim2::new(n, 1));
            batch.apply_batch(&b, &mut x, None).unwrap();
            let want = reference_apply(&exec, &batch, &b);
            for (k, want_k) in want.iter().enumerate() {
                for (&got, &w) in x.system(k).iter().zip(want_k) {
                    assert!((got - w).abs() < 1e-12, "batch of {s}, system {k}");
                }
            }
        }
    }

    #[test]
    fn masked_apply_leaves_inactive_systems_untouched() {
        let exec = Executor::reference();
        let (n, s) = (6, 4);
        let batch = shared_batch(&exec, n, s);
        let mut b = BatchDense::zeros(&exec, s, Dim2::new(n, 1));
        b.fill(1.0);
        let mut x = BatchDense::zeros(&exec, s, Dim2::new(n, 1));
        x.fill(-7.0);
        let active = vec![true, false, true, false];
        batch.apply_batch(&b, &mut x, Some(&active)).unwrap();
        for (k, &act) in active.iter().enumerate() {
            if act {
                assert!(x.system(k).iter().any(|&v| v != -7.0), "system {k} written");
            } else {
                assert!(
                    x.system(k).iter().all(|&v| v == -7.0),
                    "system {k} must be untouched"
                );
            }
        }
    }

    #[test]
    fn batch_dense_kernels_match_scalar_math() {
        let exec = Executor::reference();
        let (n, s) = (5, 3);
        let dim = Dim2::new(n, 1);
        let mut a = BatchDense::zeros(&exec, s, dim);
        let mut b = BatchDense::zeros(&exec, s, dim);
        for k in 0..s {
            for (i, v) in a.system_mut(k).iter_mut().enumerate() {
                *v = (k + i) as f64;
            }
            for (i, v) in b.system_mut(k).iter_mut().enumerate() {
                *v = 1.0 + i as f64 * (k + 1) as f64;
            }
        }
        let alpha = vec![1.0, -2.0, 0.5];
        let before: Vec<Vec<f64>> = (0..s).map(|k| a.system(k).to_vec()).collect();
        a.axpy(&alpha, &b, None).unwrap();
        for k in 0..s {
            for (i, &was) in before[k].iter().enumerate() {
                let want = was + alpha[k] * b.system(k)[i];
                assert!((a.system(k)[i] - want).abs() < 1e-12);
            }
        }
        let mut dots = vec![0.0; s];
        a.dots(&b, None, &mut dots).unwrap();
        let mut norms = vec![0.0; s];
        a.norms2(None, &mut norms).unwrap();
        for k in 0..s {
            let want_dot: f64 = a
                .system(k)
                .iter()
                .zip(b.system(k))
                .map(|(x, y)| x * y)
                .sum();
            let want_norm: f64 = a.system(k).iter().map(|x| x * x).sum::<f64>().sqrt();
            assert!((dots[k] - want_dot).abs() < 1e-9, "dot {k}");
            assert!((norms[k] - want_norm).abs() < 1e-9, "norm {k}");
        }
    }

    #[test]
    fn masked_kernels_skip_inactive_systems() {
        let exec = Executor::reference();
        let (n, s) = (4, 3);
        let dim = Dim2::new(n, 1);
        let mut a = BatchDense::zeros(&exec, s, dim);
        a.fill(1.0);
        let mut b = BatchDense::zeros(&exec, s, dim);
        b.fill(10.0);
        let active = vec![true, false, true];
        a.axpy(&[1.0, 1.0, 1.0], &b, Some(&active)).unwrap();
        assert_eq!(a.system(0)[0], 11.0);
        assert_eq!(a.system(1)[0], 1.0, "inactive system untouched");
        assert_eq!(a.system(2)[0], 11.0);
        let mut out = vec![-1.0; s];
        a.norms2(Some(&active), &mut out).unwrap();
        assert!(out[0] > 0.0);
        assert_eq!(out[1], -1.0, "inactive slot untouched");
    }

    #[test]
    fn dimension_and_mask_errors() {
        let exec = Executor::reference();
        let batch = shared_batch(&exec, 6, 3);
        let b = BatchDense::zeros(&exec, 3, Dim2::new(6, 1));
        let mut wrong_rows = BatchDense::zeros(&exec, 3, Dim2::new(5, 1));
        assert!(batch.apply_batch(&b, &mut wrong_rows, None).is_err());
        let mut wrong_batch = BatchDense::zeros(&exec, 2, Dim2::new(6, 1));
        assert!(batch.apply_batch(&b, &mut wrong_batch, None).is_err());
        let mut x = BatchDense::zeros(&exec, 3, Dim2::new(6, 1));
        let short_mask = vec![true; 2];
        assert!(batch.apply_batch(&b, &mut x, Some(&short_mask)).is_err());
        let proto = tridiag(&exec, 4, 2.0);
        assert!(BatchCsr::from_shared(&proto, &[]).is_err());
        assert!(BatchCsr::from_shared(&proto, &[vec![1.0; 3]]).is_err());
    }
}
