//! SELL-P (sliced ELLPACK with padding) format.
//!
//! SELL-P divides the rows into slices of `slice_size` rows and pads only
//! within each slice, combining ELL's coalescing with far less padding on
//! skewed matrices. This is Ginkgo's SELL-P as described in the
//! load-balancing SpMV paper the pyGinkgo paper cites (Anzt et al., TOPC
//! 2020).

use crate::base::array::Array;
use crate::base::dim::Dim2;
use crate::base::error::{GkoError, Result};
use crate::base::types::{Index, Value};
use crate::executor::pool::parallel_chunks;
use crate::executor::Executor;
use crate::linop::{check_operands, LinOp};
use crate::log::OpTimer;
use crate::matrix::csr::Csr;
use crate::matrix::dense::Dense;
use pygko_sim::ChunkWork;

/// Default rows per slice (Ginkgo uses the warp size; 32 here).
pub(crate) const DEFAULT_SLICE_SIZE: usize = 32;

/// Sparse matrix in sliced-ELL format.
#[derive(Debug, Clone)]
pub struct Sellp<V: Value, I: Index = i32> {
    size: Dim2,
    slice_size: usize,
    /// Per-slice padded width.
    slice_lengths: Vec<usize>,
    /// Offset of each slice's storage block (`slice_lengths[s] * slice_size`
    /// elements per slice).
    slice_offsets: Vec<usize>,
    /// Within a slice: slot-major, `[offset + slot * slice_size + lane]`.
    col_idxs: Array<I>,
    values: Array<V>,
}

impl<V: Value, I: Index> Sellp<V, I> {
    /// Matrix size.
    pub fn size(&self) -> Dim2 {
        self.size
    }

    /// Converts from CSR with the default slice size.
    pub fn from_csr(csr: &Csr<V, I>) -> Self {
        Sellp::from_csr_with_slice(csr, DEFAULT_SLICE_SIZE)
    }

    /// Converts from CSR with an explicit slice size.
    pub fn from_csr_with_slice(csr: &Csr<V, I>, slice_size: usize) -> Self {
        assert!(slice_size > 0, "slice size must be positive");
        let size = csr.size();
        let rows = size.rows;
        let rp = csr.row_ptrs();
        let n_slices = rows.div_ceil(slice_size);
        let mut slice_lengths = Vec::with_capacity(n_slices);
        let mut slice_offsets = Vec::with_capacity(n_slices + 1);
        slice_offsets.push(0usize);
        for s in 0..n_slices {
            let lo_row = s * slice_size;
            let hi_row = ((s + 1) * slice_size).min(rows);
            let len = (lo_row..hi_row)
                .map(|r| rp[r + 1].to_usize() - rp[r].to_usize())
                .max()
                .unwrap_or(0);
            slice_lengths.push(len);
            slice_offsets.push(slice_offsets[s] + len * slice_size);
        }
        // lint: allow(panic): `slice_offsets` starts with a pushed 0.
        let total = *slice_offsets.last().unwrap();
        let mut col_idxs = vec![I::zero(); total];
        let mut values = vec![V::zero(); total];
        for s in 0..n_slices {
            let lo_row = s * slice_size;
            let hi_row = ((s + 1) * slice_size).min(rows);
            for r in lo_row..hi_row {
                let lane = r - lo_row;
                let (lo, hi) = (rp[r].to_usize(), rp[r + 1].to_usize());
                let mut last_col = I::zero();
                for slot in 0..slice_lengths[s] {
                    let idx = slice_offsets[s] + slot * slice_size + lane;
                    if lo + slot < hi {
                        last_col = csr.col_idxs()[lo + slot];
                        col_idxs[idx] = last_col;
                        values[idx] = csr.values()[lo + slot];
                    } else {
                        col_idxs[idx] = last_col;
                        values[idx] = V::zero();
                    }
                }
            }
        }
        Sellp {
            size,
            slice_size,
            slice_lengths,
            slice_offsets,
            col_idxs: Array::from_vec(csr.executor(), col_idxs),
            values: Array::from_vec(csr.executor(), values),
        }
    }

    /// Converts back to CSR, dropping padding.
    pub fn to_csr(&self) -> Csr<V, I> {
        let mut triplets = Vec::new();
        for s in 0..self.slice_lengths.len() {
            let lo_row = s * self.slice_size;
            let hi_row = ((s + 1) * self.slice_size).min(self.size.rows);
            for r in lo_row..hi_row {
                let lane = r - lo_row;
                for slot in 0..self.slice_lengths[s] {
                    let idx = self.slice_offsets[s] + slot * self.slice_size + lane;
                    let v = self.values.as_slice()[idx];
                    if v != V::zero() {
                        triplets.push((r, self.col_idxs.as_slice()[idx].to_usize(), v));
                    }
                }
            }
        }
        Csr::from_triplets(self.executor(), self.size, &triplets)
            // lint: allow(panic): SELL-P stores only in-bounds columns, so
            // the derived triplets satisfy the CSR contract.
            .expect("SELL-P-derived triplets are valid")
    }

    /// Executor the matrix lives on.
    pub fn executor(&self) -> &Executor {
        self.values.executor()
    }

    /// Re-derives the SELL-P structural invariants: slice bookkeeping
    /// (counts, offsets, per-slice volumes) consistent with `slice_size`
    /// and the row count, storage arrays matching the total volume, and
    /// every column index (padding included) in range.
    pub fn validate(&self) -> Result<()> {
        if self.slice_size == 0 {
            return Err(GkoError::BadInput(
                "SELL-P slice_size must be positive".into(),
            ));
        }
        let n_slices = self.size.rows.div_ceil(self.slice_size);
        if self.slice_lengths.len() != n_slices || self.slice_offsets.len() != n_slices + 1 {
            return Err(GkoError::BadInput(format!(
                "SELL-P slice bookkeeping ({} lengths, {} offsets) does not \
                 match {n_slices} slices",
                self.slice_lengths.len(),
                self.slice_offsets.len()
            )));
        }
        if self.slice_offsets.first() != Some(&0) {
            return Err(GkoError::BadInput(
                "SELL-P slice_offsets[0] must be 0".into(),
            ));
        }
        for s in 0..n_slices {
            let volume = self.slice_lengths[s] * self.slice_size;
            if self.slice_offsets[s + 1] != self.slice_offsets[s] + volume {
                return Err(GkoError::BadInput(format!(
                    "SELL-P slice {s} offset step {} does not match its \
                     padded volume {volume}",
                    self.slice_offsets[s + 1].wrapping_sub(self.slice_offsets[s])
                )));
            }
        }
        let total = self.slice_offsets[n_slices];
        if self.col_idxs.len() != total || self.values.len() != total {
            return Err(GkoError::BadInput(format!(
                "SELL-P storage sizes ({} cols, {} values) do not match the \
                 slice volume total {total}",
                self.col_idxs.len(),
                self.values.len()
            )));
        }
        for (slot, &c) in self.col_idxs.as_slice().iter().enumerate() {
            if c.to_usize() >= self.size.cols {
                return Err(GkoError::BadInput(format!(
                    "SELL-P column index {c} at slot {slot} out of range for {}",
                    self.size
                )));
            }
        }
        Ok(())
    }

    /// One chunk per slice: the padded slice volume is streamed.
    pub(crate) fn spmv_work(&self) -> Vec<ChunkWork> {
        self.slice_lengths
            .iter()
            .map(|&len| {
                let stored = (len * self.slice_size) as f64;
                ChunkWork::new(
                    stored * (V::BYTES + I::BYTES) as f64
                        + self.slice_size as f64 * V::BYTES as f64,
                    stored * V::BYTES as f64,
                    2.0 * stored,
                )
            })
            .collect()
    }
}

impl<V: Value, I: Index> LinOp<V> for Sellp<V, I> {
    fn size(&self) -> Dim2 {
        self.size
    }

    fn executor(&self) -> &Executor {
        self.values.executor()
    }

    fn apply(&self, b: &Dense<V>, x: &mut Dense<V>) -> Result<()> {
        self.apply_advanced(V::one(), b, V::zero(), x)
    }

    fn apply_advanced(&self, alpha: V, b: &Dense<V>, beta: V, x: &mut Dense<V>) -> Result<()> {
        check_operands(self.size, self.executor(), b, x)?;
        let _timer = OpTimer::new(self.executor(), "sellp");
        let k = b.size().cols;
        let work = self.spmv_work();
        let ci = self.col_idxs.as_slice();
        let vals = self.values.as_slice();
        let bv = b.as_slice();
        let exec = self.executor().clone();
        // Slice-parallel dispatch: each slice owns a contiguous row block,
        // so slices map 1:1 onto pool chunks (exactly the partition the
        // cost model charges).
        let n_slices = self.slice_lengths.len();
        let mut elem_bounds = Vec::with_capacity(n_slices + 1);
        elem_bounds.push(0usize);
        for s in 0..n_slices {
            let hi_row = ((s + 1) * self.slice_size).min(self.size.rows);
            elem_bounds.push(hi_row * k);
        }
        let rows = self.size.rows;
        parallel_chunks(&exec, x.as_mut_slice(), &elem_bounds, |s, xs| {
            let lo_row = s * self.slice_size;
            let hi_row = ((s + 1) * self.slice_size).min(rows);
            let slice_len = self.slice_lengths[s];
            let offset = self.slice_offsets[s];
            for r in lo_row..hi_row {
                let lane = r - lo_row;
                if k == 1 {
                    // Unrolled slot walk (stride = slice_size): four
                    // independent accumulators hide the gather latency
                    // chain; the scalar tail covers slice_len % 4.
                    let (mut a0, mut a1, mut a2, mut a3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
                    let mut slot = 0usize;
                    while slot + 4 <= slice_len {
                        let i0 = offset + slot * self.slice_size + lane;
                        let (i1, i2) = (i0 + self.slice_size, i0 + 2 * self.slice_size);
                        let i3 = i0 + 3 * self.slice_size;
                        a0 += vals[i0].to_f64() * bv[ci[i0].to_usize()].to_f64();
                        a1 += vals[i1].to_f64() * bv[ci[i1].to_usize()].to_f64();
                        a2 += vals[i2].to_f64() * bv[ci[i2].to_usize()].to_f64();
                        a3 += vals[i3].to_f64() * bv[ci[i3].to_usize()].to_f64();
                        slot += 4;
                    }
                    let mut tail = 0.0f64;
                    while slot < slice_len {
                        let idx = offset + slot * self.slice_size + lane;
                        tail += vals[idx].to_f64() * bv[ci[idx].to_usize()].to_f64();
                        slot += 1;
                    }
                    let prod = V::from_f64(((a0 + a1) + (a2 + a3)) + tail);
                    let out = &mut xs[r - lo_row];
                    *out = if beta == V::zero() {
                        alpha * prod
                    } else {
                        alpha * prod + beta * *out
                    };
                } else {
                    for c in 0..k {
                        let mut acc = 0.0f64;
                        for slot in 0..slice_len {
                            let idx = offset + slot * self.slice_size + lane;
                            acc += vals[idx].to_f64() * bv[ci[idx].to_usize() * k + c].to_f64();
                        }
                        let prod = V::from_f64(acc);
                        let out = &mut xs[(r - lo_row) * k + c];
                        *out = if beta == V::zero() {
                            alpha * prod
                        } else {
                            alpha * prod + beta * *out
                        };
                    }
                }
            }
        });
        self.executor().launch(&work);
        Ok(())
    }

    fn op_name(&self) -> &'static str {
        "sellp"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exec() -> Executor {
        Executor::reference()
    }

    fn skewed(e: &Executor, rows: usize) -> Csr<f64, i32> {
        // Row 0 has `rows` nnz; all other rows have 1.
        let mut t = vec![];
        for j in 0..rows {
            t.push((0usize, j, 1.0 + j as f64));
        }
        for i in 1..rows {
            t.push((i, i, 2.0));
        }
        Csr::from_triplets(e, Dim2::square(rows), &t).unwrap()
    }

    #[test]
    fn spmv_matches_csr() {
        let e = exec();
        let csr = skewed(&e, 100);
        let sellp = Sellp::from_csr_with_slice(&csr, 8);
        let b = Dense::<f64>::vector(&e, 100, 1.0);
        let mut x1 = Dense::zeros(&e, Dim2::new(100, 1));
        let mut x2 = Dense::zeros(&e, Dim2::new(100, 1));
        csr.apply(&b, &mut x1).unwrap();
        sellp.apply(&b, &mut x2).unwrap();
        assert_eq!(x1.to_host_vec(), x2.to_host_vec());
    }

    #[test]
    fn pads_less_than_ell_on_skewed_rows() {
        let e = exec();
        let csr = skewed(&e, 128);
        let sellp = Sellp::from_csr_with_slice(&csr, 16);
        let ell = crate::matrix::ell::Ell::from_csr(&csr);
        // Both work models charge two flops per stored slot, padding included.
        let flops = |work: Vec<ChunkWork>| work.iter().map(|w| w.flops).sum::<f64>();
        assert!(flops(sellp.spmv_work()) < flops(ell.spmv_work(1)));
        assert!(sellp.values.len() >= csr.nnz());
    }

    #[test]
    fn csr_roundtrip() {
        let e = exec();
        let csr = skewed(&e, 50);
        let back = Sellp::from_csr_with_slice(&csr, 8).to_csr();
        assert_eq!(back.nnz(), csr.nnz());
        assert_eq!(back.to_dense().to_host_vec(), csr.to_dense().to_host_vec());
    }

    #[test]
    fn ragged_final_slice_is_handled() {
        let e = exec();
        // 10 rows with slice size 4 -> slices of 4, 4, 2 rows.
        let csr = skewed(&e, 10);
        let sellp = Sellp::from_csr_with_slice(&csr, 4);
        let b = Dense::<f64>::vector(&e, 10, 2.0);
        let mut x1 = Dense::zeros(&e, Dim2::new(10, 1));
        let mut x2 = Dense::zeros(&e, Dim2::new(10, 1));
        csr.apply(&b, &mut x1).unwrap();
        sellp.apply(&b, &mut x2).unwrap();
        assert_eq!(x1.to_host_vec(), x2.to_host_vec());
    }

    #[test]
    fn one_chunk_per_slice_in_cost_model() {
        let e = exec();
        let csr = skewed(&e, 64);
        let sellp = Sellp::from_csr_with_slice(&csr, 16);
        assert_eq!(sellp.spmv_work().len(), 4);
    }
}
