//! ELLPACK format.
//!
//! ELL pads every row to the maximum row length and stores values/columns in
//! column-major order, which gives GPUs perfectly coalesced accesses — at
//! the price of wasted storage and wasted lanes when row lengths are skewed.
//! The cost model charges the *padded* element count, which is exactly why
//! ELL loses to CSR on irregular matrices.

use crate::base::array::Array;
use crate::base::dim::Dim2;
use crate::base::error::{GkoError, Result};
use crate::base::types::{Index, Value};
use crate::executor::pool::{parallel_chunks, uniform_bounds};
use crate::executor::Executor;
use crate::linop::{check_operands, LinOp};
use crate::log::OpTimer;
use crate::matrix::csr::Csr;
use crate::matrix::dense::Dense;
use pygko_sim::ChunkWork;

/// Sentinel-free ELL storage: `stored_per_row` slots per row; unused slots
/// hold value zero and repeat the row's last valid column (a standard trick
/// that keeps gathers in range).
#[derive(Debug, Clone)]
pub struct Ell<V: Value, I: Index = i32> {
    size: Dim2,
    stored_per_row: usize,
    /// Column-major: slot-major layout `cols[slot * rows + row]`.
    col_idxs: Array<I>,
    values: Array<V>,
}

impl<V: Value, I: Index> Ell<V, I> {
    /// Matrix size.
    pub fn size(&self) -> Dim2 {
        self.size
    }

    /// Converts from CSR.
    pub fn from_csr(csr: &Csr<V, I>) -> Self {
        let size = csr.size();
        let rp = csr.row_ptrs();
        let stored = (0..size.rows)
            .map(|r| rp[r + 1].to_usize() - rp[r].to_usize())
            .max()
            .unwrap_or(0);
        let rows = size.rows;
        let mut col_idxs = vec![I::zero(); stored * rows];
        let mut values = vec![V::zero(); stored * rows];
        for r in 0..rows {
            let (lo, hi) = (rp[r].to_usize(), rp[r + 1].to_usize());
            let mut last_col = I::zero();
            for slot in 0..stored {
                let idx = slot * rows + r;
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
        Ell {
            size,
            stored_per_row: stored,
            col_idxs: Array::from_vec(csr.executor(), col_idxs),
            values: Array::from_vec(csr.executor(), values),
        }
    }

    /// Converts back to CSR, dropping padding.
    pub fn to_csr(&self) -> Csr<V, I> {
        let rows = self.size.rows;
        let mut triplets = Vec::new();
        for r in 0..rows {
            for slot in 0..self.stored_per_row {
                let idx = slot * rows + r;
                let v = self.values.as_slice()[idx];
                if v != V::zero() {
                    triplets.push((r, self.col_idxs.as_slice()[idx].to_usize(), v));
                }
            }
        }
        Csr::from_triplets(self.executor(), self.size, &triplets)
            // lint: allow(panic): a well-formed ELL only stores in-bounds
            // columns, so the derived triplets satisfy the CSR contract.
            .expect("ELL-derived triplets are valid")
    }

    /// Executor the matrix lives on.
    pub fn executor(&self) -> &Executor {
        self.values.executor()
    }

    /// Re-derives the ELL structural invariants: slot-major storage of
    /// exactly `stored_per_row * rows` elements with every column index
    /// (including padding slots) in range.
    pub fn validate(&self) -> Result<()> {
        let expect = self.stored_per_row * self.size.rows;
        if self.col_idxs.len() != expect || self.values.len() != expect {
            return Err(GkoError::BadInput(format!(
                "ELL storage sizes ({} cols, {} values) do not match \
                 stored_per_row * rows = {expect}",
                self.col_idxs.len(),
                self.values.len()
            )));
        }
        for (slot, &c) in self.col_idxs.as_slice().iter().enumerate() {
            if c.to_usize() >= self.size.cols {
                return Err(GkoError::BadInput(format!(
                    "ELL column index {c} at slot {slot} out of range for {}",
                    self.size
                )));
            }
        }
        Ok(())
    }

    /// Work description: the padded element count is streamed.
    pub(crate) fn spmv_work(&self, chunks: usize) -> Vec<ChunkWork> {
        let bounds = uniform_bounds(self.size.rows, chunks);
        bounds
            .windows(2)
            .map(|w| {
                let rows = (w[1] - w[0]) as f64;
                let stored = rows * self.stored_per_row as f64;
                ChunkWork::new(
                    stored * (V::BYTES + I::BYTES) as f64 + rows * V::BYTES as f64,
                    stored * V::BYTES as f64,
                    2.0 * stored,
                )
            })
            .collect()
    }
}

impl<V: Value, I: Index> LinOp<V> for Ell<V, I> {
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
        let _timer = OpTimer::new(self.executor(), "ell");
        let k = b.size().cols;
        let rows = self.size.rows;
        let spec = self.executor().spec();
        let work = self.spmv_work(spec.workers * 4);
        let bounds = uniform_bounds(rows, work.len());

        let ci = self.col_idxs.as_slice();
        let vals = self.values.as_slice();
        let bv = b.as_slice();
        let stored = self.stored_per_row;
        let exec = self.executor().clone();
        let elem_bounds: Vec<usize> = bounds.iter().map(|&r| r * k).collect();
        parallel_chunks(&exec, x.as_mut_slice(), &elem_bounds, |chunk, xs| {
            let row0 = bounds[chunk];
            if k == 1 {
                // Unrolled slot walk: four independent accumulators hide the
                // gather latency chain; the scalar tail covers stored % 4.
                for (local, out) in xs.iter_mut().enumerate() {
                    let r = row0 + local;
                    let (mut a0, mut a1, mut a2, mut a3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
                    let mut slot = 0usize;
                    while slot + 4 <= stored {
                        let (i0, i1) = (slot * rows + r, (slot + 1) * rows + r);
                        let (i2, i3) = ((slot + 2) * rows + r, (slot + 3) * rows + r);
                        a0 += vals[i0].to_f64() * bv[ci[i0].to_usize()].to_f64();
                        a1 += vals[i1].to_f64() * bv[ci[i1].to_usize()].to_f64();
                        a2 += vals[i2].to_f64() * bv[ci[i2].to_usize()].to_f64();
                        a3 += vals[i3].to_f64() * bv[ci[i3].to_usize()].to_f64();
                        slot += 4;
                    }
                    let mut tail = 0.0f64;
                    while slot < stored {
                        let idx = slot * rows + r;
                        tail += vals[idx].to_f64() * bv[ci[idx].to_usize()].to_f64();
                        slot += 1;
                    }
                    let prod = V::from_f64(((a0 + a1) + (a2 + a3)) + tail);
                    *out = if beta == V::zero() {
                        alpha * prod
                    } else {
                        alpha * prod + beta * *out
                    };
                }
            } else {
                for (local, xrow) in xs.chunks_mut(k).enumerate() {
                    let r = row0 + local;
                    for (c, out) in xrow.iter_mut().enumerate() {
                        let mut acc = 0.0f64;
                        for slot in 0..stored {
                            let idx = slot * rows + r;
                            acc += vals[idx].to_f64() * bv[ci[idx].to_usize() * k + c].to_f64();
                        }
                        let prod = V::from_f64(acc);
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
        "ell"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exec() -> Executor {
        Executor::reference()
    }

    fn sample_csr(e: &Executor) -> Csr<f64, i32> {
        Csr::from_triplets(
            e,
            Dim2::square(3),
            &[
                (0, 0, 2.0),
                (0, 2, 1.0),
                (1, 1, 3.0),
                (2, 0, 4.0),
                (2, 1, 5.0),
                (2, 2, 6.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn padding_follows_longest_row() {
        let e = exec();
        let ell = Ell::from_csr(&sample_csr(&e));
        assert_eq!(ell.stored_per_row, 3);
        assert_eq!(ell.values.len(), 9);
    }

    #[test]
    fn spmv_matches_csr() {
        let e = exec();
        let csr = sample_csr(&e);
        let ell = Ell::from_csr(&csr);
        let b = Dense::from_rows(&e, &[[1.0f64], [2.0], [3.0]]);
        let mut x1 = Dense::zeros(&e, Dim2::new(3, 1));
        let mut x2 = Dense::zeros(&e, Dim2::new(3, 1));
        csr.apply(&b, &mut x1).unwrap();
        ell.apply(&b, &mut x2).unwrap();
        assert_eq!(x1.to_host_vec(), x2.to_host_vec());
    }

    #[test]
    fn csr_roundtrip_drops_padding() {
        let e = exec();
        let csr = sample_csr(&e);
        let back = Ell::from_csr(&csr).to_csr();
        assert_eq!(back.nnz(), csr.nnz());
        assert_eq!(back.to_dense().to_host_vec(), csr.to_dense().to_host_vec());
    }

    #[test]
    fn skewed_rows_inflate_stored_elements() {
        let e = exec();
        // 1 row with 10 nnz, 9 rows with 1 nnz: ELL stores 10*10 slots.
        let mut t = vec![];
        for j in 0..10 {
            t.push((0usize, j, 1.0f64));
        }
        for i in 1..10 {
            t.push((i, 0, 1.0));
        }
        let csr = Csr::<f64, i32>::from_triplets(&e, Dim2::square(10), &t).unwrap();
        let ell = Ell::from_csr(&csr);
        assert_eq!(ell.values.len(), 100);
        assert_eq!(csr.nnz(), 19);
        let ell_flops: f64 = ell.spmv_work(4).iter().map(|w| w.flops).sum();
        let csr_flops: f64 = csr.plan().work.iter().map(|w| w.flops).sum();
        assert!(ell_flops > 4.0 * csr_flops, "padding is charged");
    }

    #[test]
    fn empty_matrix_works() {
        let e = exec();
        let csr = Csr::<f64, i32>::from_triplets::<f64>(&e, Dim2::square(2), &[]).unwrap();
        let ell = Ell::from_csr(&csr);
        assert_eq!(ell.stored_per_row, 0);
        let b = Dense::from_rows(&e, &[[1.0f64], [1.0]]);
        let mut x = Dense::zeros(&e, Dim2::new(2, 1));
        ell.apply(&b, &mut x).unwrap();
        assert_eq!(x.to_host_vec(), vec![0.0, 0.0]);
    }
}
