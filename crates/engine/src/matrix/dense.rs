//! Row-major dense matrices and vectors.
//!
//! `Dense` plays two roles, exactly as in Ginkgo: it is the vector type all
//! `LinOp::apply` calls operate on (an `n x k` block of `k` vectors), and it
//! is itself a `LinOp` whose apply is a GEMV.
//!
//! # One sweep, one reduction kernel
//!
//! Every BLAS-1 operation that reads a second vector is one *sweep*: one
//! `parallel_chunks` dispatch over `uniform_bounds(n, 2 * workers)`, one
//! `launch` on the virtual clock for the arrays it streams, and per chunk one
//! call of `lane_sweep`, the only place a reduction is accumulated.
//!
//! **Determinism contract.** Within a chunk, element `i` of each whole block
//! of `LANES` = 8 elements adds its `f64` term to lane `i mod 8`; the eight
//! lanes are then combined as `((0+1)+(2+3))+((4+5)+(6+7))`; the up to seven
//! tail elements are added to that sum one by one, in order; and the chunk
//! partials are combined in chunk order by `tree_reduce`. Nothing depends on
//! which thread ran which chunk, so a result is a function of the values,
//! the length and the executor's worker count alone. The eight independent
//! add chains are what lets the compiler keep the sum in vector registers: a
//! single `f64` chain may not be reassociated and runs at the latency of
//! one add per element.
//!
//! **Fused operations.** The solver loops are written in a small vocabulary
//! of sweeps that update and reduce in one pass:
//!
//! | operation | does | used by |
//! |---|---|---|
//! | [`add_scaled_with_residual`](Dense::add_scaled_with_residual) | `x += αp; r += βq; r·r` | CG, FCG |
//! | [`assign_add_scaled`](Dense::assign_add_scaled) | `s = r + βv; s·s` | BiCGStab (`s`, `r`) |
//! | [`add_scaled2`](Dense::add_scaled2) | `x += αp; x += βq` | BiCGStab |
//! | [`add_scaled_scale_add`](Dense::add_scaled_scale_add) | `p += αv; p = r + βp` | BiCGStab (`p`) |
//! | [`compute_dot2`](Dense::compute_dot2) | `(t·t, t·s)` | BiCGStab |
//! | [`assign_scaled`](Dense::assign_scaled) | `v = αw` | GMRES basis vectors |
//! | `assign_product` | `x = d ∘ b` | `Diagonal`, scalar Jacobi |
//!
//! Each is bit-identical to the sequence of `copy_from` / `add_scaled` /
//! `compute_dot` calls it replaces: the same element arithmetic in the same
//! order, the same chunks, the same lanes. (`assign_product` replaces no
//! sequence: it is the engine's one elementwise product.)

use crate::base::array::Array;
use crate::base::dim::Dim2;
use crate::base::error::{GkoError, Result};
use crate::base::types::Value;
use crate::executor::pool::{parallel_chunks, tree_reduce, uniform_bounds};
use crate::executor::Executor;
use crate::linop::{check_operands, LinOp};
use crate::log::OpTimer;
use pygko_sim::ChunkWork;

/// A dense row-major matrix (or block of column vectors) on an executor.
#[derive(Debug, Clone)]
pub struct Dense<V: Value> {
    size: Dim2,
    values: Array<V>,
}

impl<V: Value> Dense<V> {
    /// Allocates a zero-initialized dense matrix.
    pub fn zeros(exec: &Executor, size: Dim2) -> Self {
        Dense {
            size,
            values: Array::new(exec, size.count()),
        }
    }

    /// Allocates and fills with a constant.
    pub fn filled(exec: &Executor, size: Dim2, value: V) -> Self {
        let mut m = Dense::zeros(exec, size);
        m.fill(value);
        m
    }

    /// Wraps a row-major value vector.
    ///
    /// Returns an error if the length does not match `size`.
    pub fn from_vec(exec: &Executor, size: Dim2, values: Vec<V>) -> Result<Self> {
        if size.checked_count() != Some(values.len()) {
            return Err(GkoError::BadInput(format!(
                "dense values length {} does not match size {size}",
                values.len()
            )));
        }
        Ok(Dense {
            size,
            values: Array::from_vec(exec, values),
        })
    }

    /// Wraps a value vector as one `n x 1` column.
    pub fn column(exec: &Executor, values: Vec<V>) -> Self {
        Dense {
            size: Dim2::new(values.len(), 1),
            values: Array::from_vec(exec, values),
        }
    }

    /// Builds from an array of rows (test/demo convenience).
    pub fn from_rows<const K: usize>(exec: &Executor, rows: &[[V; K]]) -> Self {
        let mut values = Vec::with_capacity(rows.len() * K);
        for row in rows {
            values.extend_from_slice(row);
        }
        Dense {
            size: Dim2::new(rows.len(), K),
            values: Array::from_vec(exec, values),
        }
    }

    /// A fresh column vector (n x 1) filled with `value`.
    pub fn vector(exec: &Executor, n: usize, value: V) -> Self {
        Dense::filled(exec, Dim2::new(n, 1), value)
    }

    /// Matrix size.
    pub fn size(&self) -> Dim2 {
        self.size
    }

    /// Executor the values live on.
    pub fn executor(&self) -> &Executor {
        self.values.executor()
    }

    /// Checks the storage length against the declared shape, and rejects
    /// NaN/Inf entries (the dense format's only corruptible invariants).
    pub fn validate(&self) -> Result<()> {
        let expect = self.size.rows * self.size.cols;
        if self.values.len() != expect {
            return Err(GkoError::BadInput(format!(
                "dense storage holds {} values but the shape {} needs {expect}",
                self.values.len(),
                self.size
            )));
        }
        crate::sanitize::check_finite("dense", self.values.as_slice())
    }

    /// Element access (host-side, for tests and small algorithms).
    pub fn at(&self, row: usize, col: usize) -> V {
        self.values.as_slice()[row * self.size.cols + col]
    }

    /// Element mutation (host-side).
    pub fn set(&mut self, row: usize, col: usize, value: V) {
        self.values.as_mut_slice()[row * self.size.cols + col] = value;
    }

    /// Read access to the raw row-major values.
    pub fn as_slice(&self) -> &[V] {
        self.values.as_slice()
    }

    /// Write access to the raw row-major values.
    pub fn as_mut_slice(&mut self) -> &mut [V] {
        self.values.as_mut_slice()
    }

    /// Copies the values into a host `Vec`.
    pub fn to_host_vec(&self) -> Vec<V> {
        self.values.as_slice().to_vec()
    }

    /// Clones onto another executor, charging transfers if crossing memory
    /// spaces.
    pub fn clone_to(&self, exec: &Executor) -> Self {
        Dense {
            size: self.size,
            values: self.values.copy_to(exec),
        }
    }

    fn stream_kernel(&self, arrays: usize, flops_per_item: f64) -> Vec<ChunkWork> {
        let n = self.size.count();
        let spec = self.executor().spec();
        let bounds = uniform_bounds(n, spec.workers * 2);
        bounds
            .windows(2)
            .map(|w| {
                let items = (w[1] - w[0]) as f64;
                ChunkWork::new(
                    items * (arrays * V::BYTES) as f64,
                    0.0,
                    items * flops_per_item,
                )
            })
            .collect()
    }

    fn check_same_shape(&self, other: &Dense<V>, op: &'static str) -> Result<()> {
        if self.size != other.size {
            return Err(GkoError::DimensionMismatch {
                op,
                expected: self.size,
                actual: other.size,
            });
        }
        self.values.check_same_executor(&other.values)
    }

    /// Sets every entry to `value`.
    pub fn fill(&mut self, value: V) {
        let _timer = OpTimer::new(self.executor(), "dense::fill");
        let work = self.stream_kernel(1, 0.0);
        self.values.fill(value);
        self.executor().launch(&work);
    }

    /// Copies values from a same-shaped matrix.
    pub fn copy_from(&mut self, other: &Dense<V>) -> Result<()> {
        self.check_same_shape(other, "copy")?;
        let _timer = OpTimer::new(self.executor(), "dense::copy");
        let work = self.stream_kernel(2, 0.0);
        self.values
            .as_mut_slice()
            .copy_from_slice(other.values.as_slice());
        self.executor().launch(&work);
        Ok(())
    }

    /// Scales all entries: `self *= alpha`.
    pub fn scale(&mut self, alpha: V) {
        if alpha == V::one() {
            return;
        }
        let _timer = OpTimer::new(self.executor(), "dense::scale");
        let work = self.stream_kernel(2, 1.0);
        let exec = self.executor().clone();
        let bounds = uniform_bounds(self.size.count(), work.len());
        if alpha == V::zero() {
            self.values.fill(V::zero());
        } else {
            parallel_chunks(&exec, self.values.as_mut_slice(), &bounds, |_, s| {
                for v in s {
                    *v *= alpha;
                }
            });
        }
        self.executor().launch(&work);
    }

    /// Runs one sweep (see the module docs): checks every operand against
    /// `refs[0]`, splits the `muts` at the chunk bounds, applies `f` to every
    /// element through [`lane_sweep`] and returns the `K` reductions. The
    /// virtual clock is charged one launch streaming `arrays` arrays (a
    /// vector both read and written counts twice) at `flops` per element.
    /// `name` is the kernel family events, metrics and profiles file the
    /// sweep under; a fused sweep keeps the family of the call it extends,
    /// so those series stay comparable across the fusion.
    fn sweep<const M: usize, const C: usize, const K: usize>(
        name: &'static str,
        arrays: usize,
        flops: f64,
        mut muts: [&mut Dense<V>; M],
        refs: [&Dense<V>; C],
        f: impl Fn([V; M], [V; C]) -> ([V; M], [f64; K]) + Copy + Sync,
    ) -> Result<[f64; K]> {
        let lead = refs[0];
        for other in muts.iter().map(|m| &**m).chain(refs) {
            lead.check_same_shape(other, name)?;
        }
        let exec = lead.executor().clone();
        let _timer = OpTimer::new(&exec, name);
        let work = lead.stream_kernel(arrays, flops);
        let bounds = uniform_bounds(lead.size.count(), work.len());

        // One piece per chunk: its share of every mutable vector and the
        // slot its partial reductions go to.
        let mut rest = muts.each_mut().map(|m| m.values.as_mut_slice());
        let mut pieces: Vec<([&mut [V]; M], [f64; K])> = bounds
            .windows(2)
            .map(|w| {
                let heads = rest.each_mut().map(|s| {
                    let (head, tail) = std::mem::take(s).split_at_mut(w[1] - w[0]);
                    *s = tail;
                    head
                });
                (heads, [0.0; K])
            })
            .collect();
        let one_each: Vec<usize> = (0..=pieces.len()).collect();
        parallel_chunks(&exec, &mut pieces, &one_each, |i, piece| {
            let (heads, partial) = &mut piece[0];
            let inputs = refs.map(|r| &r.values.as_slice()[bounds[i]..bounds[i + 1]]);
            *partial = lane_sweep(heads.each_mut().map(|h| &mut **h), inputs, f);
        });
        exec.launch(&work);
        Ok(std::array::from_fn(|k| {
            let series: Vec<f64> = pieces.iter().map(|(_, partial)| partial[k]).collect();
            tree_reduce(&series)
        }))
    }

    /// AXPY: `self += alpha * other`.
    pub fn add_scaled(&mut self, alpha: V, other: &Dense<V>) -> Result<()> {
        let f = move |[d]: [V; 1], [x]: [V; 1]| ([d + alpha * x], []);
        Self::sweep("dense::axpy", 3, 2.0, [self], [other], f).map(|[]| ())
    }

    /// Scaled assignment: `self = alpha * other + beta * self`.
    pub fn scale_add(&mut self, alpha: V, other: &Dense<V>, beta: V) -> Result<()> {
        let f = move |[d]: [V; 1], [x]: [V; 1]| ([alpha * x + beta * d], []);
        Self::sweep("dense::scale_add", 3, 3.0, [self], [other], f).map(|[]| ())
    }

    /// Scaled copy: `self = alpha * other` (`copy_from` then `scale`).
    pub fn assign_scaled(&mut self, alpha: V, other: &Dense<V>) -> Result<()> {
        let f = move |_: [V; 1], [x]: [V; 1]| ([x * alpha], []);
        Self::sweep("dense::scale", 2, 1.0, [self], [other], f).map(|[]| ())
    }

    /// Elementwise product: `self = d ∘ b`, a diagonal matrix applied to a
    /// vector.
    pub(crate) fn assign_product(&mut self, d: &Dense<V>, b: &Dense<V>) -> Result<()> {
        let f = |_: [V; 1], [d, b]: [V; 2]| ([d * b], []);
        Self::sweep("dense::scale", 3, 1.0, [self], [d, b], f).map(|[]| ())
    }

    /// Two AXPYs in one sweep: `self += alpha * p`, then `self += beta * q`.
    pub fn add_scaled2(&mut self, alpha: V, p: &Dense<V>, beta: V, q: &Dense<V>) -> Result<()> {
        let f = move |[d]: [V; 1], [p, q]: [V; 2]| ([d + alpha * p + beta * q], []);
        Self::sweep("dense::axpy", 4, 4.0, [self], [p, q], f).map(|[]| ())
    }

    /// `self += alpha * v`, then `self = r + beta * self` (`add_scaled` then
    /// `scale_add`) in one sweep.
    pub fn add_scaled_scale_add(
        &mut self,
        alpha: V,
        v: &Dense<V>,
        r: &Dense<V>,
        beta: V,
    ) -> Result<()> {
        let f = move |[p]: [V; 1], [v, r]: [V; 2]| ([r + beta * (p + alpha * v)], []);
        Self::sweep("dense::axpy", 4, 4.0, [self], [v, r], f).map(|[]| ())
    }

    /// `self = x + beta * y` (`copy_from` then `add_scaled`), returning the
    /// dot product of the new `self` with itself.
    pub fn assign_add_scaled(&mut self, x: &Dense<V>, beta: V, y: &Dense<V>) -> Result<f64> {
        let f = move |_: [V; 1], [x, y]: [V; 2]| {
            let d = x + beta * y;
            ([d], [d.to_f64() * d.to_f64()])
        };
        Self::sweep("dense::axpy", 3, 4.0, [self], [x, y], f).map(|[dot]| dot)
    }

    /// The update half of a CG iteration in one sweep: `self += alpha * p`,
    /// `r += beta * q`, returning the dot product of the new `r` with itself.
    pub fn add_scaled_with_residual(
        &mut self,
        alpha: V,
        p: &Dense<V>,
        r: &mut Dense<V>,
        beta: V,
        q: &Dense<V>,
    ) -> Result<f64> {
        let f = move |[x, r]: [V; 2], [p, q]: [V; 2]| {
            let r = r + beta * q;
            ([x + alpha * p, r], [r.to_f64() * r.to_f64()])
        };
        Self::sweep("dense::axpy", 6, 6.0, [self, r], [p, q], f).map(|[dot]| dot)
    }

    /// Dot product over all entries, accumulated in `f64`.
    pub fn compute_dot(&self, other: &Dense<V>) -> Result<f64> {
        Self::sweep("dense::dot", 2, 2.0, [], [self, other], dot_term).map(|[dot]| dot)
    }

    /// Two dot products in one sweep: `(self . self, self . other)`.
    pub fn compute_dot2(&self, other: &Dense<V>) -> Result<(f64, f64)> {
        let f = |[]: [V; 0], [x, y]: [V; 2]| {
            let x = x.to_f64();
            ([], [x * x, x * y.to_f64()])
        };
        Self::sweep("dense::dot", 2, 4.0, [], [self, other], f).map(|[own, cross]| (own, cross))
    }

    /// Euclidean norm over all entries.
    pub fn compute_norm2(&self) -> f64 {
        // lint: allow(panic): dot of a vector with itself cannot have a
        // dimension mismatch.
        self.compute_dot(self).expect("dot with self").sqrt()
    }

    /// Copy converted to another value type (Ginkgo's
    /// `convert_to<Dense<V2>>`, the building block of mixed precision).
    pub fn cast<V2: Value>(&self) -> Dense<V2> {
        let values: Vec<V2> = self
            .values
            .as_slice()
            .iter()
            .map(|v| V2::from_f64(v.to_f64()))
            .collect();
        let out = Dense {
            size: self.size,
            values: Array::from_vec(self.executor(), values),
        };
        let work = self.stream_kernel(2, 1.0);
        self.executor().launch(&work);
        out
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Dense<V> {
        let mut out = Dense::zeros(self.executor(), self.size.transposed());
        for i in 0..self.size.rows {
            for j in 0..self.size.cols {
                out.set(j, i, self.at(i, j));
            }
        }
        let work = self.stream_kernel(2, 0.0);
        self.executor().launch(&work);
        out
    }
}

/// Accumulator lanes of [`lane_sweep`].
const LANES: usize = 8;

/// The one reduction kernel: maps `f` over the elements of equally long
/// slices, in order. `f` gets the current element of each `muts` slice and of
/// each `refs` slice and returns the new elements of the `muts` slices and
/// `K` terms, which are summed under the module's determinism contract
/// (eight lanes, fixed combine tree, then the tail). Elements go in and out
/// of `f` by value, so no store can alias a load inside it and the lane loop
/// vectorises whatever the compiler knows about the slices.
#[inline(always)]
fn lane_sweep<V: Value, const M: usize, const C: usize, const K: usize>(
    mut muts: [&mut [V]; M],
    refs: [&[V]; C],
    f: impl Fn([V; M], [V; C]) -> ([V; M], [f64; K]),
) -> [f64; K] {
    let lens = refs.iter().map(|s| s.len());
    let len = lens.chain(muts.iter().map(|s| s.len())).min().unwrap_or(0);
    if K == 0 {
        // Nothing to reduce, so no lanes: a plain element loop over slices
        // of one known length, which the compiler vectorises by itself.
        let mut muts = muts.map(|s| &mut s[..len]);
        let refs = refs.map(|s| &s[..len]);
        for i in 0..len {
            let (new, _) = f(muts.each_ref().map(|s| s[i]), refs.map(|s| s[i]));
            for (s, v) in muts.iter_mut().zip(new) {
                s[i] = v;
            }
        }
        return [0.0; K];
    }
    let mut muts = muts.each_mut().map(|s| s.as_chunks_mut::<LANES>());
    let refs = refs.map(|s| s.as_chunks::<LANES>());
    let mut lanes = [[0.0f64; LANES]; K];
    for b in 0..len / LANES {
        let inputs = refs.map(|(blocks, _)| blocks[b]);
        let mut outputs = muts.each_ref().map(|(blocks, _)| blocks[b]);
        for l in 0..LANES {
            let (new, terms) = f(outputs.map(|block| block[l]), inputs.map(|block| block[l]));
            for (block, v) in outputs.iter_mut().zip(new) {
                block[l] = v;
            }
            for (lane, term) in lanes.iter_mut().zip(terms) {
                lane[l] += term;
            }
        }
        for ((blocks, _), block) in muts.iter_mut().zip(outputs) {
            blocks[b] = block;
        }
    }
    let mut sums = lanes.map(combine_lanes);
    for i in 0..len % LANES {
        let (new, terms) = f(
            muts.each_ref().map(|(_, tail)| tail[i]),
            refs.map(|(_, tail)| tail[i]),
        );
        for ((_, tail), v) in muts.iter_mut().zip(new) {
            tail[i] = v;
        }
        for (sum, term) in sums.iter_mut().zip(terms) {
            *sum += term;
        }
    }
    sums
}

/// The combine tree of the determinism contract,
/// `((0+1)+(2+3))+((4+5)+(6+7))`. Out of line on purpose: evaluated inside
/// [`lane_sweep`], the tree leads LLVM to hold lanes `l` and `l + 4` in one
/// register, so every block of eight paid a shuffle per pair of elements to
/// put them there; behind a call the lanes sit in order, two to a register,
/// as the elements arrive (DESIGN.md §20 has the `objdump` check).
#[inline(never)]
fn combine_lanes(a: [f64; LANES]) -> f64 {
    ((a[0] + a[1]) + (a[2] + a[3])) + ((a[4] + a[5]) + (a[6] + a[7]))
}

/// What a dot product feeds [`lane_sweep`]: nothing to update, one term.
fn dot_term<V: Value>([]: [V; 0], [x, y]: [V; 2]) -> ([V; 0], [f64; 1]) {
    ([], [x.to_f64() * y.to_f64()])
}

/// Dot product of two equally long slices as one chunk of the reduction
/// kernel (GMRES's Gram-Schmidt sweep, which stays on the calling thread).
pub(crate) fn lane_dot<V: Value>(a: &[V], b: &[V]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let [dot] = lane_sweep([], [a, b], dot_term);
    dot
}

/// One Gram-Schmidt step that carries the next step's coefficient: `w +=
/// coeff * v`, then the dot product of the new `w` with `next`, in one pass
/// over `w`. Bit for bit that AXPY followed by [`lane_dot`]`(w, next)`.
pub(crate) fn lane_axpy_dot<V: Value>(w: &mut [V], v: &[V], next: &[V], coeff: V) -> f64 {
    debug_assert!(w.len() == v.len() && w.len() == next.len());
    let f = move |[w]: [V; 1], [v, next]: [V; 2]| {
        let w = w + coeff * v;
        ([w], [w.to_f64() * next.to_f64()])
    };
    let [dot] = lane_sweep([w], [v, next], f);
    dot
}

impl<V: Value> LinOp<V> for Dense<V> {
    fn size(&self) -> Dim2 {
        self.size
    }

    fn executor(&self) -> &Executor {
        self.values.executor()
    }

    /// GEMV: `x = self * b`, row-parallel.
    fn apply(&self, b: &Dense<V>, x: &mut Dense<V>) -> Result<()> {
        self.apply_advanced(V::one(), b, V::zero(), x)
    }

    fn apply_advanced(&self, alpha: V, b: &Dense<V>, beta: V, x: &mut Dense<V>) -> Result<()> {
        check_operands(self.size, self.executor(), b, x)?;
        let _timer = OpTimer::new(self.executor(), "dense::gemv");
        let (m, n) = (self.size.rows, self.size.cols);
        let k = b.size().cols;
        let spec = self.executor().spec();
        let row_bounds = uniform_bounds(m, spec.workers * 2);
        let work: Vec<ChunkWork> = row_bounds
            .windows(2)
            .map(|w| {
                let rows = (w[1] - w[0]) as f64;
                ChunkWork::new(
                    rows * (n + k) as f64 * V::BYTES as f64 + rows * n as f64 * V::BYTES as f64,
                    0.0,
                    rows * n as f64 * k as f64 * 2.0,
                )
            })
            .collect();

        let exec = self.executor().clone();
        let a = self.values.as_slice();
        let bv = b.values.as_slice();
        // x chunked by rows: each row owns k contiguous outputs.
        let elem_bounds: Vec<usize> = row_bounds.iter().map(|&r| r * k).collect();
        parallel_chunks(&exec, x.values.as_mut_slice(), &elem_bounds, |ci, xs| {
            let row0 = row_bounds[ci];
            for (local, xrow) in xs.chunks_mut(k).enumerate() {
                let i = row0 + local;
                let arow = &a[i * n..(i + 1) * n];
                for (c, out) in xrow.iter_mut().enumerate() {
                    let mut acc = 0.0f64;
                    for (j, &aij) in arow.iter().enumerate() {
                        acc += aij.to_f64() * bv[j * k + c].to_f64();
                    }
                    let prod = V::from_f64(acc);
                    *out = alpha * prod + beta * *out;
                }
            }
        });
        self.executor().launch(&work);
        Ok(())
    }

    fn op_name(&self) -> &'static str {
        "dense"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pygko_half::Half;

    fn exec() -> Executor {
        Executor::reference()
    }

    #[test]
    fn construction_and_access() {
        let e = exec();
        let mut m = Dense::<f64>::zeros(&e, Dim2::new(2, 3));
        assert_eq!(m.size(), Dim2::new(2, 3));
        m.set(1, 2, 5.0);
        assert_eq!(m.at(1, 2), 5.0);
        assert_eq!(m.at(0, 0), 0.0);
    }

    #[test]
    fn from_vec_validates_length() {
        let e = exec();
        assert!(Dense::<f64>::from_vec(&e, Dim2::new(2, 2), vec![1.0; 3]).is_err());
        // A size whose product wraps to the (empty) buffer's length.
        assert!(Dense::<f64>::from_vec(&e, Dim2::new(1 << 63, 2), vec![]).is_err());
        let m = Dense::<f64>::from_vec(&e, Dim2::new(2, 2), vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(m.at(1, 0), 3.0);
    }

    #[test]
    fn fill_and_scale() {
        let e = exec();
        let mut v = Dense::<f32>::vector(&e, 4, 2.0);
        v.scale(3.0);
        assert_eq!(v.to_host_vec(), vec![6.0; 4]);
        v.scale(0.0);
        assert_eq!(v.to_host_vec(), vec![0.0; 4]);
    }

    #[test]
    fn axpy_and_scale_add() {
        let e = exec();
        let mut y = Dense::from_rows(&e, &[[1.0f64], [2.0], [3.0]]);
        let x = Dense::from_rows(&e, &[[10.0f64], [20.0], [30.0]]);
        y.add_scaled(2.0, &x).unwrap();
        assert_eq!(y.to_host_vec(), vec![21.0, 42.0, 63.0]);
        y.scale_add(1.0, &x, -1.0).unwrap();
        assert_eq!(y.to_host_vec(), vec![-11.0, -22.0, -33.0]);
    }

    #[test]
    fn dot_and_norm() {
        let e = exec();
        let a = Dense::from_rows(&e, &[[3.0f64], [4.0]]);
        let b = Dense::from_rows(&e, &[[1.0f64], [2.0]]);
        assert_eq!(a.compute_dot(&b).unwrap(), 11.0);
        assert_eq!(a.compute_norm2(), 5.0);
    }

    /// Dot product to (almost) the last bit: every product and every sum is
    /// split into its rounded value and its exact error (TwoProduct by FMA,
    /// TwoSum), and the errors are summed alongside (Ogita, Rump & Oishi's
    /// Dot2). Also returns `sum |x_i y_i|`.
    fn exact_dot(a: &[f64], b: &[f64]) -> (f64, f64) {
        let (mut sum, mut err, mut abs) = (0.0f64, 0.0f64, 0.0f64);
        for (&x, &y) in a.iter().zip(b) {
            let prod = x * y;
            let prod_err = x.mul_add(y, -prod);
            let next = sum + prod;
            let shift = next - sum;
            let sum_err = (sum - (next - shift)) + (prod - shift);
            sum = next;
            err += prod_err + sum_err;
            abs += prod.abs();
        }
        (sum + err, abs)
    }

    /// `compute_dot` of the first `n` test values, in `V`, against the
    /// exact dot of the same (rounded) values.
    fn check_lane_kernel<V: Value>(e: &Executor, n: usize) {
        // Full mantissas, mixed signs, four decades of magnitude.
        let value = |i: usize, salt: usize| {
            let x = (i as f64 * 0.37 + salt as f64).sin() * 10f64.powi((i % 4) as i32 - 2);
            V::from_f64(x)
        };
        let a: Vec<V> = (0..n).map(|i| value(i, 0)).collect();
        let b: Vec<V> = (0..n).map(|i| value(i, 5)).collect();
        let widen = |v: &[V]| v.iter().map(|x| x.to_f64()).collect::<Vec<_>>();
        let (want, abs) = exact_dot(&widen(&a), &widen(&b));
        let a = Dense::from_vec(e, Dim2::new(n, 1), a).unwrap();
        let b = Dense::from_vec(e, Dim2::new(n, 1), b).unwrap();
        let got = a.compute_dot(&b).unwrap();
        assert!(
            (got - want).abs() <= n as f64 * f64::EPSILON * abs,
            "{} n = {n}: {got} vs {want}",
            V::NAME
        );
    }

    #[test]
    fn lane_kernel_matches_an_exact_dot() {
        // Every tail length twice over, a long vector, and sizes that put
        // the reference executor's one chunk boundary (n / 2) inside a block
        // of eight and on one.
        let sizes = (0..=17).chain([2 * LANES * 5 + 6, 2 * LANES * 5, 1_000_003]);
        let e = exec();
        for n in sizes {
            check_lane_kernel::<f64>(&e, n);
            check_lane_kernel::<f32>(&e, n);
            check_lane_kernel::<Half>(&e, n);
        }
    }

    #[test]
    fn lane_kernel_follows_its_summation_order() {
        // 19 elements in one chunk: lanes 0..8 take elements l, l + 8; the
        // tree combines them; elements 16..19 follow one by one.
        let x: Vec<f64> = (0..19)
            .map(|i| 1.0 + (i as f64) * 1e-3 + (i as f64).powi(3) * 1e-9)
            .collect();
        let lanes: Vec<f64> = (0..8).map(|l| x[l] * x[l] + x[l + 8] * x[l + 8]).collect();
        let tree = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]))
            + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
        let want = ((tree + x[16] * x[16]) + x[17] * x[17]) + x[18] * x[18];
        assert_eq!(lane_dot(&x, &x).to_bits(), want.to_bits());
    }

    /// `lane_axpy_dot` against the two passes it fuses, GMRES's AXPY loop and
    /// `lane_dot`, in the bits of the updated vector and of the dot.
    fn check_axpy_dot<V: Value>(n: usize) {
        let value = |i: usize, salt: usize| V::from_f64((i as f64 * 0.61 + salt as f64).sin());
        let v: Vec<V> = (0..n).map(|i| value(i, 1)).collect();
        let next: Vec<V> = (0..n).map(|i| value(i, 2)).collect();
        let mut fused: Vec<V> = (0..n).map(|i| value(i, 0)).collect();
        let mut unfused = fused.clone();
        let coeff = V::from_f64(-0.37);
        for (wk, &vk) in unfused.iter_mut().zip(&v) {
            *wk += coeff * vk;
        }
        let want = lane_dot(&unfused, &next);
        let got = lane_axpy_dot(&mut fused, &v, &next, coeff);
        assert_eq!(got.to_bits(), want.to_bits(), "{} n = {n}", V::NAME);
        let bits = |w: &[V]| w.iter().map(|x| x.to_f64().to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&fused), bits(&unfused), "{} n = {n}", V::NAME);
    }

    #[test]
    fn axpy_dot_is_the_axpy_then_the_dot() {
        for n in (0..=17).chain([1_000, 13_824]) {
            check_axpy_dot::<f64>(n);
            check_axpy_dot::<f32>(n);
            check_axpy_dot::<Half>(n);
        }
    }

    #[test]
    fn dot_rejects_shape_mismatch() {
        let e = exec();
        let a = Dense::<f64>::vector(&e, 3, 1.0);
        let b = Dense::<f64>::vector(&e, 4, 1.0);
        assert!(a.compute_dot(&b).is_err());
    }

    #[test]
    fn gemv_matches_hand_computation() {
        let e = exec();
        let a = Dense::from_rows(&e, &[[1.0f64, 2.0], [3.0, 4.0], [5.0, 6.0]]);
        let b = Dense::from_rows(&e, &[[1.0f64], [10.0]]);
        let mut x = Dense::zeros(&e, Dim2::new(3, 1));
        a.apply(&b, &mut x).unwrap();
        assert_eq!(x.to_host_vec(), vec![21.0, 43.0, 65.0]);
    }

    #[test]
    fn gemv_advanced_fuses_alpha_beta() {
        let e = exec();
        let a = Dense::from_rows(&e, &[[1.0f64, 0.0], [0.0, 1.0]]);
        let b = Dense::from_rows(&e, &[[2.0f64], [3.0]]);
        let mut x = Dense::from_rows(&e, &[[100.0f64], [200.0]]);
        a.apply_advanced(2.0, &b, 0.5, &mut x).unwrap();
        assert_eq!(x.to_host_vec(), vec![54.0, 106.0]);
    }

    #[test]
    fn gemv_multiple_rhs() {
        let e = exec();
        let a = Dense::from_rows(&e, &[[1.0f64, 1.0], [1.0, -1.0]]);
        let b = Dense::from_rows(&e, &[[1.0f64, 2.0], [3.0, 4.0]]);
        let mut x = Dense::zeros(&e, Dim2::new(2, 2));
        a.apply(&b, &mut x).unwrap();
        assert_eq!(x.to_host_vec(), vec![4.0, 6.0, -2.0, -2.0]);
    }

    #[test]
    fn transpose_roundtrip() {
        let e = exec();
        let a = Dense::from_rows(&e, &[[1.0f64, 2.0, 3.0], [4.0, 5.0, 6.0]]);
        let t = a.transpose();
        assert_eq!(t.size(), Dim2::new(3, 2));
        assert_eq!(t.at(2, 1), 6.0);
        let tt = t.transpose();
        assert_eq!(tt.to_host_vec(), a.to_host_vec());
    }

    #[test]
    fn works_in_half_precision() {
        let e = exec();
        let a = Dense::from_rows(&e, &[[Half::from_f32(2.0)], [Half::from_f32(4.0)]]);
        assert_eq!(a.compute_norm2(), (20.0f64).sqrt());
        let mut b = a.clone();
        b.scale(Half::from_f32(0.5));
        assert_eq!(b.at(0, 0).to_f32(), 1.0);
    }

    #[test]
    fn kernels_charge_the_timeline() {
        let e = Executor::cuda(0);
        let mut v = Dense::<f64>::vector(&e, 1000, 1.0);
        let before = e.timeline().snapshot();
        v.scale(2.0);
        let d = e.timeline().snapshot().since(&before);
        assert_eq!(d.kernels, 1);
        assert!(d.ns as f64 >= e.spec().kernel_launch_ns);
    }

    #[test]
    fn omp_parallel_matches_reference() {
        let r = Executor::reference();
        let o = Executor::omp(4);
        let a_r = Dense::from_rows(&r, &[[1.0f64, 2.0], [3.0, 4.0]]);
        let a_o = a_r.clone_to(&o);
        let b_r = Dense::from_rows(&r, &[[5.0f64], [7.0]]);
        let b_o = b_r.clone_to(&o);
        let mut x_r = Dense::zeros(&r, Dim2::new(2, 1));
        let mut x_o = Dense::zeros(&o, Dim2::new(2, 1));
        a_r.apply(&b_r, &mut x_r).unwrap();
        a_o.apply(&b_o, &mut x_o).unwrap();
        assert_eq!(x_r.to_host_vec(), x_o.to_host_vec());
    }
}
