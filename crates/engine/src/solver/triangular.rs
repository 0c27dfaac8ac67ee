//! Sparse triangular solvers (Ginkgo's `LowerTrs`/`UpperTrs`).
//!
//! Forward/backward substitution on a sparse triangular CSR factor, split the
//! way Ginkgo splits it: a solver is *generated* once per factor and applied
//! many times (an ILU-preconditioned Krylov loop applies two of them per
//! iteration).
//!
//! **What is generated.** The constructor validates the factor's structure
//! and walks its rows once. Per row it stores the *strict span* `[lo, hi)` of
//! the entries left (lower) or right (upper) of the diagonal, as positions
//! into the factor's own `col_idxs`/`values` in the matrix's index type; the
//! reciprocal of the diagonal entry in an `f64` array of its own; and the
//! first row in sweep order whose diagonal is zero or not stored, which every
//! apply reports as [`GkoError::Singular`]. A full square matrix may be
//! handed to either solver: the spans cover only the solver's half, so no
//! apply reads the other one. The factor sits behind an `Arc` and cannot
//! change afterwards, so nothing generated is ever invalidated. The diagonal
//! is where it is looked for only on sorted rows, and the sweeps index `x`
//! with the stored columns, so a matrix whose structure is corrupt (unsorted,
//! repeated or out-of-range columns, only constructible through
//! `Csr::from_raw_unchecked`) is refused at construction with the typed
//! `BadInput` of [`Csr::validate`], never solved wrongly.
//!
//! **Why the diagonal is inverted.** Row `r` of a sweep cannot start before
//! `x[r - 1]` is final, so what bounds a sweep is the latency of the chain
//! "load `x[r - 1]` -> multiply-subtract -> scale by the diagonal -> store
//! `x[r]`", not memory traffic. A divide on that chain costs three times a
//! multiply; with the reciprocal stored, the apply is one slice walk per row
//! (`acc -= v * x[c]`) and one multiply. Under a unit diagonal there is no
//! scale at all.
//!
//! **Rounding contract.** Products accumulate in `f64` in stored column
//! order, starting from the right-hand side, exactly as the division form
//! `x[r] = (b[r] - sum) / d` does. A unit-diagonal sweep is therefore
//! bit-identical to that form. A scaled sweep computes
//! `(b[r] - sum) * (1 / d)`: two roundings where the division has one, so row
//! `r` alone is within 1.5 ulp (`f64`) of the correctly rounded quotient, and
//! the sweeps differ by what that per-row perturbation grows to through the
//! recurrence. Narrower value types round the `f64` result once more on
//! store.
//!
//! **Cost model.** The recurrence is inherently sequential across dependent
//! rows, which the cost model captures by scheduling the whole solve as a
//! single chunk: the structural reason triangular solves parallelize poorly
//! on GPUs (a point §6.2.1 makes about small Hessenberg systems). That holds
//! for the generated solve as much as for a naive one (generation shortens
//! the chain, it does not cut it), so the charge is unchanged.

use crate::base::dim::Dim2;
use crate::base::error::{GkoError, Result};
use crate::base::types::{Index, Value};
use crate::executor::Executor;
use crate::linop::{check_apply_dims, LinOp};
use crate::log::OpTimer;
use crate::matrix::csr::Csr;
use crate::matrix::dense::Dense;
use pygko_sim::ChunkWork;
use std::sync::Arc;

/// Which half of the matrix the solver reads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Half {
    Lower,
    Upper,
}

/// Shared implementation of the two triangular solvers: the factor and what
/// was generated from it (module docs).
struct Trs<V: Value, I: Index> {
    matrix: Arc<Csr<V, I>>,
    half: Half,
    /// Per row, the strict span `[lo, hi)` inside the factor's arrays.
    spans: Vec<(I, I)>,
    /// Per row, `1 / diagonal`; all ones under a unit diagonal.
    inv_diag: Vec<f64>,
    unit_diagonal: bool,
    /// First row in sweep order whose diagonal is zero or missing.
    singular: Option<usize>,
}

impl<V: Value, I: Index> Trs<V, I> {
    fn new(matrix: Arc<Csr<V, I>>, half: Half) -> Result<Self> {
        if !matrix.size().is_square() {
            return Err(GkoError::BadInput(
                "triangular solve requires a square matrix".into(),
            ));
        }
        matrix.validate()?;
        let n = matrix.size().rows;
        let (rp, ci, vals) = (matrix.row_ptrs(), matrix.col_idxs(), matrix.values());
        let mut spans = Vec::with_capacity(n);
        let mut inv_diag = Vec::with_capacity(n);
        let mut singular = None;
        for r in 0..n {
            let (lo, hi) = (rp[r].to_usize(), rp[r + 1].to_usize());
            // First entry at or right of the diagonal, found walking in over
            // the other half. On an exact factor there is no other half and
            // the walk ends where it starts, where a binary search leaves
            // every short row through a mispredicted exit.
            let row = &ci[lo..hi];
            let split = match half {
                Half::Lower => hi - row.iter().rev().take_while(|c| c.to_usize() >= r).count(),
                Half::Upper => lo + row.iter().take_while(|c| c.to_usize() < r).count(),
            };
            let stored = split < hi && ci[split].to_usize() == r;
            let diag = if stored { vals[split].to_f64() } else { 0.0 };
            if diag == 0.0 && (singular.is_none() || half == Half::Upper) {
                singular = Some(r);
            }
            inv_diag.push(1.0 / diag);
            spans.push(match half {
                Half::Lower => (rp[r], I::from_usize(split)),
                Half::Upper => (I::from_usize(split + usize::from(stored)), rp[r + 1]),
            });
        }
        Ok(Trs {
            matrix,
            half,
            spans,
            inv_diag,
            unit_diagonal: false,
            singular,
        })
    }

    /// Treats the diagonal as implicit ones, stored or not.
    fn with_unit_diagonal(mut self) -> Self {
        self.inv_diag.fill(1.0);
        self.unit_diagonal = true;
        self.singular = None;
        self
    }

    fn work(&self) -> Vec<ChunkWork> {
        // One sequential chunk: dependencies serialize the rows.
        let nnz = self.matrix.nnz() as f64;
        let rows = self.matrix.size().rows as f64;
        vec![ChunkWork::new(
            nnz * (V::BYTES + I::BYTES) as f64 + rows * 2.0 * V::BYTES as f64,
            nnz * V::BYTES as f64,
            2.0 * nnz + rows,
        )]
    }

    /// Solves `T x = b`; with no `b`, the right-hand side is what `x` holds.
    /// Substitution is safe in place: row `r` reads `x[r]` before overwriting
    /// it, and besides that only entries of rows the sweep has finished.
    fn solve(&self, b: Option<&Dense<V>>, x: &mut Dense<V>) -> Result<()> {
        check_apply_dims::<V>(self.matrix.size(), b.unwrap_or(x), x)?;
        let _timer = OpTimer::new(
            self.matrix.executor(),
            match self.half {
                Half::Lower => "solver::LowerTrs",
                Half::Upper => "solver::UpperTrs",
            },
        );
        if let Some(at) = self.singular {
            return Err(GkoError::Singular { at });
        }
        match b.map(Dense::as_slice) {
            Some(bv) => self.substitute(x, |_, i| bv[i]),
            None => self.substitute(x, |xs, i| xs[i]),
        }
        self.matrix.executor().launch(&self.work());
        Ok(())
    }

    /// One sweep into `x`; `rhs_at(xs, i)` is element `i` of the right-hand
    /// side, given the current `x`.
    fn substitute(&self, x: &mut Dense<V>, rhs_at: impl Fn(&[V], usize) -> V) {
        let n = self.spans.len();
        let k = x.size().cols;
        let inv = self.inv_diag.as_slice();
        let xs = x.as_mut_slice();
        // Sweep order: a select per row, off the dependent chain.
        let upwards = self.half == Half::Upper;
        let rows = (0..n).map(|step| if upwards { n - 1 - step } else { step });
        if k != 1 {
            for r in rows {
                for c in 0..k {
                    let acc = self.eliminate(xs, rhs_at(xs, r * k + c), r, k, c);
                    xs[r * k + c] = V::from_f64(acc * inv[r]);
                }
            }
        } else if self.unit_diagonal {
            for r in rows {
                xs[r] = V::from_f64(self.eliminate(xs, rhs_at(xs, r), r, 1, 0));
            }
        } else {
            for r in rows {
                xs[r] = V::from_f64(self.eliminate(xs, rhs_at(xs, r), r, 1, 0) * inv[r]);
            }
        }
    }

    /// `rhs - sum` over row `r`'s strict span, for column `c` of `k`.
    #[inline(always)]
    fn eliminate(&self, xs: &[V], rhs: V, r: usize, k: usize, c: usize) -> f64 {
        let (lo, hi) = self.spans[r];
        let span = lo.to_usize()..hi.to_usize();
        let (cols, vals) = (&self.matrix.col_idxs()[span.clone()], &self.matrix.values()[span]);
        let mut acc = rhs.to_f64();
        for (v, col) in vals.iter().zip(cols) {
            acc -= v.to_f64() * xs[col.to_usize() * k + c].to_f64();
        }
        acc
    }
}

/// Solves `L x = b` for lower-triangular `L`.
pub struct LowerTrs<V: Value, I: Index = i32> {
    inner: Trs<V, I>,
}

impl<V: Value, I: Index> LowerTrs<V, I> {
    /// Generates a solver reading the lower triangle (including diagonal) of
    /// `matrix`.
    pub fn new(matrix: Arc<Csr<V, I>>) -> Result<Self> {
        Ok(LowerTrs {
            inner: Trs::new(matrix, Half::Lower)?,
        })
    }

    /// Treats the diagonal as implicit ones (for ILU's L factor).
    pub fn with_unit_diagonal(self) -> Self {
        LowerTrs {
            inner: self.inner.with_unit_diagonal(),
        }
    }
}

impl<V: Value, I: Index> LinOp<V> for LowerTrs<V, I> {
    fn size(&self) -> Dim2 {
        self.inner.matrix.size()
    }
    fn executor(&self) -> &Executor {
        self.inner.matrix.executor()
    }
    fn apply(&self, b: &Dense<V>, x: &mut Dense<V>) -> Result<()> {
        self.inner.solve(Some(b), x)
    }
    fn op_name(&self) -> &'static str {
        "solver::LowerTrs"
    }
}

/// Solves `U x = b` for upper-triangular `U`.
pub struct UpperTrs<V: Value, I: Index = i32> {
    inner: Trs<V, I>,
}

impl<V: Value, I: Index> UpperTrs<V, I> {
    /// Generates a solver reading the upper triangle (including diagonal) of
    /// `matrix`.
    pub fn new(matrix: Arc<Csr<V, I>>) -> Result<Self> {
        Ok(UpperTrs {
            inner: Trs::new(matrix, Half::Upper)?,
        })
    }

    /// Treats the diagonal as implicit ones.
    pub fn with_unit_diagonal(self) -> Self {
        UpperTrs {
            inner: self.inner.with_unit_diagonal(),
        }
    }

    /// Solves `U x = x` in place: the second sweep of `Ilu` and `Ic`, whose
    /// first sweep left its result in `x`.
    pub(crate) fn apply_in_place(&self, x: &mut Dense<V>) -> Result<()> {
        self.inner.solve(None, x)
    }
}

impl<V: Value, I: Index> LinOp<V> for UpperTrs<V, I> {
    fn size(&self) -> Dim2 {
        self.inner.matrix.size()
    }
    fn executor(&self) -> &Executor {
        self.inner.matrix.executor()
    }
    fn apply(&self, b: &Dense<V>, x: &mut Dense<V>) -> Result<()> {
        self.inner.solve(Some(b), x)
    }
    fn op_name(&self) -> &'static str {
        "solver::UpperTrs"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lower_solve_matches_hand_computation() {
        let exec = Executor::reference();
        // L = [2 0; 3 4]; b = [2; 11] -> x = [1; 2]
        let l = Arc::new(
            Csr::<f64, i32>::from_triplets(
                &exec,
                Dim2::square(2),
                &[(0, 0, 2.0), (1, 0, 3.0), (1, 1, 4.0)],
            )
            .unwrap(),
        );
        let solver = LowerTrs::new(l).unwrap();
        let b = Dense::from_rows(&exec, &[[2.0f64], [11.0]]);
        let mut x = Dense::zeros(&exec, Dim2::new(2, 1));
        solver.apply(&b, &mut x).unwrap();
        assert_eq!(x.to_host_vec(), vec![1.0, 2.0]);
    }

    #[test]
    fn upper_solve_matches_hand_computation() {
        let exec = Executor::reference();
        // U = [2 1; 0 4]; b = [4; 8] -> x = [1; 2]
        let u = Arc::new(
            Csr::<f64, i32>::from_triplets(
                &exec,
                Dim2::square(2),
                &[(0, 0, 2.0), (0, 1, 1.0), (1, 1, 4.0)],
            )
            .unwrap(),
        );
        let solver = UpperTrs::new(u).unwrap();
        let b = Dense::from_rows(&exec, &[[4.0f64], [8.0]]);
        let mut x = Dense::zeros(&exec, Dim2::new(2, 1));
        solver.apply(&b, &mut x).unwrap();
        assert_eq!(x.to_host_vec(), vec![1.0, 2.0]);
    }

    #[test]
    fn unit_diagonal_ignores_stored_diagonal() {
        let exec = Executor::reference();
        // Strictly lower entry only; unit diagonal implied.
        let l = Arc::new(
            Csr::<f64, i32>::from_triplets(&exec, Dim2::square(2), &[(1, 0, 3.0)]).unwrap(),
        );
        let solver = LowerTrs::new(l).unwrap().with_unit_diagonal();
        let b = Dense::from_rows(&exec, &[[1.0f64], [5.0]]);
        let mut x = Dense::zeros(&exec, Dim2::new(2, 1));
        solver.apply(&b, &mut x).unwrap();
        assert_eq!(x.to_host_vec(), vec![1.0, 2.0]);
    }

    #[test]
    fn zero_diagonal_is_singular() {
        let exec = Executor::reference();
        let l = Arc::new(
            Csr::<f64, i32>::from_triplets(&exec, Dim2::square(2), &[(0, 0, 1.0)]).unwrap(),
        );
        let solver = LowerTrs::new(l).unwrap();
        let b = Dense::<f64>::vector(&exec, 2, 1.0);
        let mut x = Dense::zeros(&exec, Dim2::new(2, 1));
        assert_eq!(
            solver.apply(&b, &mut x),
            Err(GkoError::Singular { at: 1 })
        );
    }

    #[test]
    fn solve_inverts_matrix_vector_product() {
        let exec = Executor::reference();
        // Random-ish lower triangular system; verify L(Lx=b) round trip.
        let n = 20;
        let mut t = vec![];
        for i in 0..n {
            t.push((i, i, 2.0 + i as f64 * 0.1));
            if i >= 2 {
                t.push((i, i - 2, -0.3));
            }
        }
        let l = Arc::new(Csr::<f64, i32>::from_triplets(&exec, Dim2::square(n), &t).unwrap());
        let x_true = Dense::<f64>::vector(&exec, n, 1.5);
        let mut b = Dense::zeros(&exec, Dim2::new(n, 1));
        l.apply(&x_true, &mut b).unwrap();
        let solver = LowerTrs::new(l).unwrap();
        let mut x = Dense::zeros(&exec, Dim2::new(n, 1));
        solver.apply(&b, &mut x).unwrap();
        for (a, b) in x.to_host_vec().iter().zip(x_true.to_host_vec()) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn triangular_solve_is_one_sequential_chunk() {
        let exec = Executor::cuda(0);
        let l = Arc::new(
            Csr::<f64, i32>::from_triplets(&exec, Dim2::square(2), &[(0, 0, 1.0), (1, 1, 1.0)])
                .unwrap(),
        );
        let solver = LowerTrs::new(l).unwrap();
        let b = Dense::<f64>::vector(&exec, 2, 1.0);
        let mut x = Dense::zeros(&exec, Dim2::new(2, 1));
        let before = exec.timeline().snapshot();
        solver.apply(&b, &mut x).unwrap();
        // Exactly one launch for the solve itself (fill kernels excluded by
        // construction order).
        assert_eq!(exec.timeline().snapshot().since(&before).kernels, 1);
    }
}
