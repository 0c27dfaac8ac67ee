//! Hybrid (ELL + COO) format — Ginkgo's `Hyb`.
//!
//! Rows up to a chosen width go into a regular ELL part (coalesced, no
//! per-row indices); the overflow of longer rows goes into a COO part. The
//! split width is chosen from the row-length distribution (Ginkgo uses a
//! percentile heuristic), so skewed matrices keep ELL's regularity without
//! ELL's padding blow-up.
//!
//! The apply delegates to the two parts, so Hybrid inherits the ELL
//! kernel's unrolled four-accumulator inner loop (see
//! [`Ell`]) on the regular part for free.

use crate::base::dim::Dim2;
use crate::base::error::Result;
use crate::base::types::{Index, Value};
use crate::executor::Executor;
use crate::linop::{check_operands, LinOp};
use crate::log::OpTimer;
use crate::matrix::coo::Coo;
use crate::matrix::csr::Csr;
use crate::matrix::dense::Dense;
use crate::matrix::ell::Ell;

/// Row-length percentile used to pick the ELL width (Ginkgo's default
/// strategy keeps ~80% of rows fully inside the ELL part).
pub const DEFAULT_PERCENTILE: f64 = 0.8;

/// Sparse matrix split into an ELL part plus a COO overflow.
#[derive(Debug, Clone)]
pub struct Hybrid<V: Value, I: Index = i32> {
    size: Dim2,
    ell: Ell<V, I>,
    coo: Coo<V, I>,
}

impl<V: Value, I: Index> Hybrid<V, I> {
    /// Converts from CSR using the default percentile split.
    pub fn from_csr(csr: &Csr<V, I>) -> Self {
        Hybrid::from_csr_with_percentile(csr, DEFAULT_PERCENTILE)
    }

    /// Converts from CSR, placing the `percentile`-quantile row length into
    /// the ELL part and the overflow into COO.
    pub(crate) fn from_csr_with_percentile(csr: &Csr<V, I>, percentile: f64) -> Self {
        assert!((0.0..=1.0).contains(&percentile), "percentile in [0, 1]");
        let size = csr.size();
        let rp = csr.row_ptrs();
        let rows = size.rows;
        let mut lengths: Vec<usize> = (0..rows)
            .map(|r| rp[r + 1].to_usize() - rp[r].to_usize())
            .collect();
        let width = if lengths.is_empty() {
            0
        } else {
            lengths.sort_unstable();
            lengths[((rows - 1) as f64 * percentile) as usize]
        };

        // Split triplets.
        let mut ell_triplets = Vec::new();
        let mut coo_triplets = Vec::new();
        for r in 0..rows {
            let (lo, hi) = (rp[r].to_usize(), rp[r + 1].to_usize());
            for (slot, idx) in (lo..hi).enumerate() {
                let entry = (r, csr.col_idxs()[idx].to_usize(), csr.values()[idx]);
                if slot < width {
                    ell_triplets.push(entry);
                } else {
                    coo_triplets.push(entry);
                }
            }
        }
        let exec = csr.executor();
        let ell_csr = Csr::<V, I>::from_triplets(exec, size, &ell_triplets)
            // lint: allow(panic): both halves of the split inherit the
            // source CSR's in-bounds indices.
            .expect("split triplets are valid");
        let coo = Coo::<V, I>::from_triplets(exec, size, &coo_triplets)
            // lint: allow(panic): same split — indices stay in bounds.
            .expect("split triplets are valid");
        Hybrid {
            size,
            ell: Ell::from_csr(&ell_csr),
            coo,
        }
    }

    /// Converts back to CSR (merging the two parts).
    pub fn to_csr(&self) -> Csr<V, I> {
        let ell_csr = self.ell.to_csr();
        let mut triplets: Vec<(usize, usize, V)> = Vec::new();
        let rp = ell_csr.row_ptrs();
        for r in 0..self.size.rows {
            for idx in rp[r].to_usize()..rp[r + 1].to_usize() {
                triplets.push((r, ell_csr.col_idxs()[idx].to_usize(), ell_csr.values()[idx]));
            }
        }
        for k in 0..self.coo.nnz() {
            triplets.push((
                self.coo.row_idxs()[k].to_usize(),
                self.coo.col_idxs()[k].to_usize(),
                self.coo.values()[k],
            ));
        }
        Csr::from_triplets(self.executor(), self.size, &triplets)
            // lint: allow(panic): merging the ELL and COO halves of a
            // well-formed Hybrid keeps every index in bounds.
            .expect("merged triplets are valid")
    }

    /// Nonzeros in the COO overflow part.
    pub fn coo_nnz(&self) -> usize {
        self.coo.nnz()
    }

    /// Executor the matrix lives on.
    pub fn executor(&self) -> &Executor {
        self.coo.executor()
    }

    /// Matrix size.
    pub fn size(&self) -> Dim2 {
        self.size
    }

    /// Validates both halves and their agreement with the declared size.
    pub fn validate(&self) -> Result<()> {
        if self.ell.size() != self.size || self.coo.size() != self.size {
            return Err(crate::base::error::GkoError::BadInput(format!(
                "Hybrid parts disagree with declared size {}: ELL is {}, COO is {}",
                self.size,
                self.ell.size(),
                self.coo.size()
            )));
        }
        self.ell.validate()?;
        self.coo.validate()
    }
}

impl<V: Value, I: Index> LinOp<V> for Hybrid<V, I> {
    fn size(&self) -> Dim2 {
        self.size
    }

    fn executor(&self) -> &Executor {
        self.coo.executor()
    }

    fn apply(&self, b: &Dense<V>, x: &mut Dense<V>) -> Result<()> {
        self.apply_advanced(V::one(), b, V::zero(), x)
    }

    /// Composes the two parallel sub-kernels: the ELL part applies the full
    /// `alpha`/`beta` update, then the COO overflow accumulates on top.
    fn apply_advanced(&self, alpha: V, b: &Dense<V>, beta: V, x: &mut Dense<V>) -> Result<()> {
        check_operands(self.size, self.executor(), b, x)?;
        // The sub-kernels emit their own "ell"/"coo" events, which a
        // profiler attributes as children nested under this frame.
        let _timer = OpTimer::new(self.executor(), "hybrid");
        self.ell.apply_advanced(alpha, b, beta, x)?;
        self.coo.apply_advanced(alpha, b, V::one(), x)
    }

    fn op_name(&self) -> &'static str {
        "hybrid"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn skewed(exec: &Executor, n: usize) -> Csr<f64, i32> {
        let mut t = vec![];
        for j in 0..n {
            t.push((0usize, j, 1.0 + j as f64)); // one dense row
        }
        for i in 1..n {
            t.push((i, i, 2.0));
            if i > 1 {
                t.push((i, i - 1, -0.5));
            }
        }
        Csr::from_triplets(exec, Dim2::square(n), &t).unwrap()
    }

    #[test]
    fn spmv_matches_csr() {
        let exec = Executor::reference();
        let csr = skewed(&exec, 60);
        let hyb = Hybrid::from_csr(&csr);
        let b = Dense::<f64>::vector(&exec, 60, 1.5);
        let mut x1 = Dense::zeros(&exec, Dim2::new(60, 1));
        let mut x2 = Dense::zeros(&exec, Dim2::new(60, 1));
        csr.apply(&b, &mut x1).unwrap();
        hyb.apply(&b, &mut x2).unwrap();
        for (a, b) in x1.to_host_vec().iter().zip(x2.to_host_vec()) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
    }

    #[test]
    fn long_rows_overflow_to_coo() {
        let exec = Executor::reference();
        let csr = skewed(&exec, 100);
        let hyb = Hybrid::from_csr(&csr);
        assert!(hyb.coo_nnz() > 0, "the dense row must overflow");
        // Padding is far below plain ELL's rows * max_len: the work model
        // charges two flops per stored slot, padding included.
        let flops = |ell: &Ell<f64, i32>| ell.spmv_work(1).iter().map(|w| w.flops).sum::<f64>();
        let (hybrid, full) = (flops(&hyb.ell), flops(&Ell::from_csr(&csr)));
        assert!(hybrid < full / 10.0, "hybrid {hybrid} vs full ELL {full}");
    }

    #[test]
    fn percentile_extremes() {
        let exec = Executor::reference();
        let csr = skewed(&exec, 30);
        // percentile 1.0: everything in ELL, COO empty.
        let hyb = Hybrid::from_csr_with_percentile(&csr, 1.0);
        assert_eq!(hyb.coo_nnz(), 0);
        // percentile 0.0: width = shortest row; most entries in COO.
        let hyb = Hybrid::from_csr_with_percentile(&csr, 0.0);
        assert!(hyb.coo_nnz() > csr.nnz() / 3);
        // Both still multiply correctly.
        let b = Dense::<f64>::vector(&exec, 30, 1.0);
        let mut want = Dense::zeros(&exec, Dim2::new(30, 1));
        csr.apply(&b, &mut want).unwrap();
        let mut got = Dense::zeros(&exec, Dim2::new(30, 1));
        hyb.apply(&b, &mut got).unwrap();
        assert_eq!(got.to_host_vec(), want.to_host_vec());
    }

    #[test]
    fn csr_roundtrip() {
        let exec = Executor::reference();
        let csr = skewed(&exec, 40);
        let back = Hybrid::from_csr(&csr).to_csr();
        assert_eq!(back.nnz(), csr.nnz());
        assert_eq!(back.to_dense().to_host_vec(), csr.to_dense().to_host_vec());
    }

    #[test]
    fn empty_matrix_works() {
        let exec = Executor::reference();
        let csr = Csr::<f64, i32>::from_triplets::<f64>(&exec, Dim2::square(3), &[]).unwrap();
        let hyb = Hybrid::from_csr(&csr);
        let b = Dense::<f64>::vector(&exec, 3, 1.0);
        let mut x = Dense::<f64>::vector(&exec, 3, 5.0);
        hyb.apply(&b, &mut x).unwrap();
        assert_eq!(x.to_host_vec(), vec![0.0; 3]);
    }
}
