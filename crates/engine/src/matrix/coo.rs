//! Coordinate format.
//!
//! COO stores explicit (row, col, value) triplets sorted by row then column.
//! Its SpMV partitions *nonzeros* (not rows), so it is inherently
//! load-balanced, at the price of streaming an extra row-index array and of
//! synchronizing output updates at chunk boundaries (Ginkgo's GPU kernel
//! uses atomics there; the cost model charges the boundary rows as random
//! accesses).

use crate::base::array::Array;
use crate::base::dim::Dim2;
use crate::base::error::{GkoError, Result};
use crate::base::types::{Index, TripletValue, Value};
use crate::executor::pool::uniform_bounds;
use crate::executor::Executor;
use crate::linop::{check_operands, LinOp};
use crate::log::OpTimer;
use crate::matrix::csr::Csr;
use crate::matrix::dense::Dense;
use crate::matrix::plan::{self, MergeSegment, SegmentSink};
use pygko_sim::ChunkWork;

/// Sparse matrix in coordinate format.
#[derive(Debug, Clone)]
pub struct Coo<V: Value, I: Index = i32> {
    size: Dim2,
    row_idxs: Array<I>,
    col_idxs: Array<I>,
    values: Array<V>,
}

impl<V: Value, I: Index> Coo<V, I> {
    /// Matrix size.
    pub fn size(&self) -> Dim2 {
        self.size
    }

    /// Builds from raw arrays, validating sortedness and ranges.
    pub fn from_raw(
        exec: &Executor,
        size: Dim2,
        row_idxs: Vec<I>,
        col_idxs: Vec<I>,
        values: Vec<V>,
    ) -> Result<Self> {
        let coo = Coo::from_raw_unchecked(exec, size, row_idxs, col_idxs, values);
        coo.validate()?;
        Ok(coo)
    }

    /// Builds from unsorted triplets, summing duplicates.
    pub fn from_triplets<S: TripletValue<V>>(
        exec: &Executor,
        size: Dim2,
        triplets: &[(usize, usize, S)],
    ) -> Result<Self> {
        let (size, row_ptrs, col_idxs, values) =
            Csr::<V, I>::from_triplets(exec, size, triplets)?.into_parts();
        Ok(Coo::from_csr_parts(
            size,
            row_ptrs.as_slice(),
            col_idxs,
            values,
        ))
    }

    /// A CSR matrix's column and value arrays are already the COO ones; only
    /// the row pointers need expanding into one row index per nonzero.
    fn from_csr_parts(size: Dim2, row_ptrs: &[I], col_idxs: Array<I>, values: Array<V>) -> Self {
        let mut row_idxs = Vec::with_capacity(values.len());
        for r in 0..size.rows {
            row_idxs.resize(row_ptrs[r + 1].to_usize(), I::from_usize(r));
        }
        Coo {
            size,
            row_idxs: Array::from_vec(values.executor(), row_idxs),
            col_idxs,
            values,
        }
    }

    /// Builds a COO matrix from raw index/value arrays **without** checking
    /// the sorted-and-in-bounds invariant. For trusted converters and for
    /// sanitizer tests constructing deliberately corrupted matrices; pass
    /// the result through [`Coo::validate`] before applying it.
    pub fn from_raw_unchecked(
        exec: &Executor,
        size: Dim2,
        row_idxs: Vec<I>,
        col_idxs: Vec<I>,
        values: Vec<V>,
    ) -> Self {
        Coo {
            size,
            row_idxs: Array::from_vec(exec, row_idxs),
            col_idxs: Array::from_vec(exec, col_idxs),
            values: Array::from_vec(exec, values),
        }
    }

    /// Re-derives the COO structural invariants: equal array lengths,
    /// in-bounds indices, and strictly increasing `(row, col)` order (the
    /// property the segment-merge SpMV and the CSR converter rely on).
    pub fn validate(&self) -> Result<()> {
        let (rows, cols) = (self.size.rows, self.size.cols);
        let (ri, ci, vals) = (
            self.row_idxs.as_slice(),
            self.col_idxs.as_slice(),
            self.values.as_slice(),
        );
        if ri.len() != ci.len() || ci.len() != vals.len() {
            return Err(GkoError::BadInput(format!(
                "COO array lengths disagree: {} rows, {} cols, {} values",
                ri.len(),
                ci.len(),
                vals.len()
            )));
        }
        let mut prev: Option<(usize, usize)> = None;
        for k in 0..ri.len() {
            let (r, c) = (ri[k].to_usize(), ci[k].to_usize());
            if r >= rows || c >= cols {
                return Err(GkoError::BadInput(format!(
                    "COO entry {k} at ({r}, {c}) outside matrix {}",
                    self.size
                )));
            }
            if let Some(p) = prev {
                if (r, c) <= p {
                    return Err(GkoError::BadInput(format!(
                        "COO entries must be strictly increasing in (row, col) \
                         order; entry {k} at ({r}, {c}) violates it"
                    )));
                }
            }
            prev = Some((r, c));
        }
        Ok(())
    }

    /// Converts from CSR.
    pub fn from_csr(csr: &Csr<V, I>) -> Self {
        let exec = csr.executor();
        Coo::from_csr_parts(
            csr.size(),
            csr.row_ptrs(),
            Array::from_vec(exec, csr.col_idxs().to_vec()),
            Array::from_vec(exec, csr.values().to_vec()),
        )
    }

    /// Converts to CSR.
    pub fn to_csr(&self) -> Csr<V, I> {
        let ri = self.row_idxs.as_slice();
        let mut row_ptrs = vec![I::zero(); self.size.rows + 1];
        let mut counts = vec![0usize; self.size.rows];
        for &r in ri {
            counts[r.to_usize()] += 1;
        }
        let mut acc = 0usize;
        for (r, &c) in counts.iter().enumerate() {
            acc += c;
            row_ptrs[r + 1] = I::from_usize(acc);
        }
        Csr::from_raw(
            self.executor(),
            self.size,
            row_ptrs,
            self.col_idxs.as_slice().to_vec(),
            self.values.as_slice().to_vec(),
        )
        // lint: allow(panic): the COO invariant (sorted, in-bounds,
        // deduplicated triplets) is exactly the CSR precondition.
        .expect("sorted COO produces valid CSR")
    }

    /// Densifies.
    pub fn to_dense(&self) -> Dense<V> {
        let mut out = Dense::zeros(self.executor(), self.size);
        for k in 0..self.nnz() {
            out.set(
                self.row_idxs.as_slice()[k].to_usize(),
                self.col_idxs.as_slice()[k].to_usize(),
                self.values.as_slice()[k],
            );
        }
        out
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Row index array.
    pub fn row_idxs(&self) -> &[I] {
        self.row_idxs.as_slice()
    }

    /// Column index array.
    pub fn col_idxs(&self) -> &[I] {
        self.col_idxs.as_slice()
    }

    /// Value array.
    pub fn values(&self) -> &[V] {
        self.values.as_slice()
    }

    /// Executor the matrix lives on.
    pub fn executor(&self) -> &Executor {
        self.values.executor()
    }

    /// Clones onto another executor.
    pub fn clone_to(&self, exec: &Executor) -> Self {
        Coo {
            size: self.size,
            row_idxs: self.row_idxs.copy_to(exec),
            col_idxs: self.col_idxs.copy_to(exec),
            values: self.values.copy_to(exec),
        }
    }

    /// Work description of a COO SpMV over an nnz partition.
    pub(crate) fn spmv_work(&self, chunks: usize) -> Vec<ChunkWork> {
        let bounds = uniform_bounds(self.nnz(), chunks);
        bounds
            .windows(2)
            .map(|w| {
                let nnz = (w[1] - w[0]) as f64;
                ChunkWork::new(
                    nnz * (2 * I::BYTES + V::BYTES) as f64,
                    // x gathers plus output updates (atomic-style at
                    // boundaries; modeled as one random word per nnz since
                    // rows repeat irregularly).
                    nnz * (V::BYTES * 2) as f64,
                    2.0 * nnz,
                )
            })
            .collect()
    }
}

/// Leaf kernel (DESIGN.md §25) of one nonzero segment, `k == 1`: the three
/// arrays are the segment's entries. One zipped walk; a row's sum, taken in
/// entry order, goes to the sink when the row index changes.
fn coo_lane<V: Value, I: Index>(
    ri: &[I],
    ci: &[I],
    vals: &[V],
    bv: &[V],
    mut sink: SegmentSink<'_, V>,
) {
    let Some(&first) = ri.first() else { return };
    let (mut row, mut sum) = (first, 0.0f64);
    for ((&r, col), v) in ri.iter().zip(ci).zip(vals) {
        if r != row {
            sink.put(row.to_usize(), 0, sum);
            (row, sum) = (r, 0.0);
        }
        sum += v.to_f64() * bv[col.to_usize()].to_f64();
    }
    sink.put(row.to_usize(), 0, sum);
}

/// [`coo_lane`] for `k > 1`: `acc` holds the row's sum per right-hand side.
fn coo_block_lane<V: Value, I: Index>(
    ri: &[I],
    ci: &[I],
    vals: &[V],
    bv: &[V],
    acc: &mut [f64],
    mut sink: SegmentSink<'_, V>,
) {
    let Some(&first) = ri.first() else { return };
    let k = acc.len();
    let mut row = first;
    acc.fill(0.0);
    for ((&r, col), v) in ri.iter().zip(ci).zip(vals) {
        if r != row {
            sink.put_block(row.to_usize(), acc);
            row = r;
        }
        let brow = &bv[col.to_usize() * k..][..k];
        for (a, bc) in acc.iter_mut().zip(brow) {
            *a += v.to_f64() * bc.to_f64();
        }
    }
    sink.put_block(row.to_usize(), acc);
}

impl<V: Value, I: Index> LinOp<V> for Coo<V, I> {
    fn size(&self) -> Dim2 {
        self.size
    }

    fn executor(&self) -> &Executor {
        self.values.executor()
    }

    fn apply(&self, b: &Dense<V>, x: &mut Dense<V>) -> Result<()> {
        x.fill(V::zero());
        self.apply_advanced(V::one(), b, V::one(), x)
    }

    /// `x = alpha * A b + beta * x`, accumulating per row in `f64`.
    ///
    /// The sorted triplets are cut into nnz-balanced *segments* (the same
    /// partition the cost model charges) and handed to
    /// `plan::run_segments`, the scaffold shared with CSR merge-path: rows
    /// strictly inside a segment are written directly, its first and last
    /// rows — which a boundary may split — are merged serially in segment
    /// order. No atomics, and the segment count derives from the device
    /// spec, so results are reproducible on any host.
    fn apply_advanced(&self, alpha: V, b: &Dense<V>, beta: V, x: &mut Dense<V>) -> Result<()> {
        check_operands(self.size, self.executor(), b, x)?;
        let _timer = OpTimer::new(self.executor(), "coo");
        let k = b.size().cols;
        let spec = self.executor().spec();
        let work = self.spmv_work(spec.workers * 4);

        if beta != V::one() {
            x.scale(beta);
        }
        let ri = self.row_idxs.as_slice();
        let ci = self.col_idxs.as_slice();
        let vals = self.values.as_slice();
        let bv = b.as_slice();
        let segments: Vec<MergeSegment> = uniform_bounds(self.nnz(), spec.workers * 4)
            .windows(2)
            .filter(|w| w[0] < w[1])
            .map(|w| MergeSegment {
                nnz_start: w[0],
                nnz_end: w[1],
                row_first: ri[w[0]].to_usize(),
                row_last: ri[w[1] - 1].to_usize(),
            })
            .collect();
        let xs = x.as_mut_slice();
        plan::run_segments(
            self.executor(),
            xs,
            k,
            alpha,
            &segments,
            |_, seg, acc, sink| {
                let span = seg.nnz_start..seg.nnz_end;
                let (ri, ci, vals) = (&ri[span.clone()], &ci[span.clone()], &vals[span]);
                if k == 1 {
                    coo_lane(ri, ci, vals, bv, sink);
                } else {
                    coo_block_lane(ri, ci, vals, bv, acc, sink);
                }
            },
        );
        self.executor().launch(&work);
        Ok(())
    }

    fn op_name(&self) -> &'static str {
        "coo"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exec() -> Executor {
        Executor::reference()
    }

    fn sample(e: &Executor) -> Coo<f64, i32> {
        // [ 2 0 1 ]
        // [ 0 3 0 ]
        // [ 4 5 6 ]
        Coo::from_raw(
            e,
            Dim2::square(3),
            vec![0, 0, 1, 2, 2, 2],
            vec![0, 2, 1, 0, 1, 2],
            vec![2.0, 1.0, 3.0, 4.0, 5.0, 6.0],
        )
        .unwrap()
    }

    #[test]
    fn validation_rejects_unsorted_and_out_of_range() {
        let e = exec();
        assert!(Coo::<f64, i32>::from_raw(
            &e,
            Dim2::square(2),
            vec![1, 0],
            vec![0, 0],
            vec![1.0, 2.0]
        )
        .is_err());
        assert!(
            Coo::<f64, i32>::from_raw(&e, Dim2::square(2), vec![0], vec![3], vec![1.0]).is_err()
        );
        assert!(
            Coo::<f64, i32>::from_raw(&e, Dim2::square(2), vec![0], vec![], vec![1.0]).is_err()
        );
        // duplicate entry
        assert!(Coo::<f64, i32>::from_raw(
            &e,
            Dim2::square(2),
            vec![0, 0],
            vec![1, 1],
            vec![1.0, 2.0]
        )
        .is_err());
    }

    #[test]
    fn spmv_matches_csr() {
        let e = exec();
        let coo = sample(&e);
        let csr = coo.to_csr();
        let b = Dense::from_rows(&e, &[[1.0f64], [2.0], [3.0]]);
        let mut x1 = Dense::zeros(&e, Dim2::new(3, 1));
        let mut x2 = Dense::zeros(&e, Dim2::new(3, 1));
        coo.apply(&b, &mut x1).unwrap();
        csr.apply(&b, &mut x2).unwrap();
        assert_eq!(x1.to_host_vec(), x2.to_host_vec());
        assert_eq!(x1.to_host_vec(), vec![5.0, 6.0, 32.0]);
    }

    #[test]
    fn advanced_apply_scales() {
        let e = exec();
        let coo = sample(&e);
        let b = Dense::from_rows(&e, &[[1.0f64], [2.0], [3.0]]);
        let mut x = Dense::from_rows(&e, &[[1.0f64], [1.0], [1.0]]);
        coo.apply_advanced(2.0, &b, -1.0, &mut x).unwrap();
        assert_eq!(x.to_host_vec(), vec![9.0, 11.0, 63.0]);
    }

    #[test]
    fn csr_coo_roundtrip() {
        let e = exec();
        let coo = sample(&e);
        let back = Coo::from_csr(&coo.to_csr());
        assert_eq!(back.row_idxs(), coo.row_idxs());
        assert_eq!(back.col_idxs(), coo.col_idxs());
        assert_eq!(back.values(), coo.values());
    }

    #[test]
    fn to_dense_matches() {
        let e = exec();
        let d = sample(&e).to_dense();
        assert_eq!(d.at(2, 1), 5.0);
        assert_eq!(d.at(1, 0), 0.0);
    }

    #[test]
    fn coo_spmv_work_streams_more_than_csr() {
        // The explicit row array only dominates once nnz >> rows; use a
        // matrix with 10 nnz per row.
        let e = exec();
        let n = 100;
        let mut t = vec![];
        for i in 0..n {
            for j in 0..10 {
                t.push((i, (i + j * 7) % n, 1.0f64));
            }
        }
        let coo = Coo::<f64, i32>::from_triplets(&e, Dim2::square(n), &t).unwrap();
        let csr = coo.to_csr();
        let coo_bytes: f64 = coo.spmv_work(2).iter().map(|w| w.streamed_bytes).sum();
        let csr_bytes: f64 = csr.plan().work.iter().map(|w| w.streamed_bytes).sum();
        assert!(coo_bytes > csr_bytes, "COO streams the explicit row array");
    }

    #[test]
    fn empty_matrix_applies_cleanly() {
        let e = exec();
        let coo = Coo::<f64, i32>::from_raw(&e, Dim2::square(2), vec![], vec![], vec![]).unwrap();
        let b = Dense::from_rows(&e, &[[1.0f64], [1.0]]);
        let mut x = Dense::from_rows(&e, &[[9.0f64], [9.0]]);
        coo.apply(&b, &mut x).unwrap();
        assert_eq!(x.to_host_vec(), vec![0.0, 0.0]);
    }
}
