//! ILU(0): incomplete LU factorization with zero fill-in.

use crate::base::error::{GkoError, Result};
use crate::base::types::{Index, Value};
use crate::matrix::csr::Csr;
use pygko_sim::ChunkWork;

/// Computes the ILU(0) factorization of a square CSR matrix.
///
/// Returns `(L, U)` where `L` is unit lower triangular (unit diagonal *not*
/// stored) and `U` is upper triangular including the diagonal, both on the
/// sparsity pattern of `A`. Fails with [`GkoError::Singular`] when a zero
/// pivot appears (e.g. a structurally missing diagonal).
///
/// The algorithm is the standard IKJ Gaussian elimination restricted to the
/// pattern; factorization values are computed in `f64` and rounded to `V`
/// once at the end, matching how Ginkgo performs high-precision generation.
pub fn ilu0<V: Value, I: Index>(a: &Csr<V, I>) -> Result<(Csr<V, I>, Csr<V, I>)> {
    if !a.size().is_square() {
        return Err(GkoError::BadInput("ILU(0) needs a square matrix".into()));
    }
    // The factors split A's validated pattern, so they are well formed.
    a.validate()?;
    let n = a.size().rows;
    let rp = a.row_ptrs();
    let ci = a.col_idxs();
    let mut vals: Vec<f64> = a.values().iter().map(|v| v.to_f64()).collect();

    // Position of each row's diagonal entry in the value array.
    let mut diag_pos = vec![usize::MAX; n];
    for r in 0..n {
        let (lo, hi) = (rp[r].to_usize(), rp[r + 1].to_usize());
        if let Ok(pos) = ci[lo..hi].binary_search(&I::from_usize(r)) {
            diag_pos[r] = lo + pos;
        }
        if diag_pos[r] == usize::MAX {
            return Err(GkoError::Singular { at: r });
        }
    }

    // Column -> position map for the current row (reset lazily).
    let mut col_pos = vec![usize::MAX; n];
    for i in 0..n {
        let (lo, hi) = (rp[i].to_usize(), rp[i + 1].to_usize());
        for idx in lo..hi {
            col_pos[ci[idx].to_usize()] = idx;
        }
        for idx in lo..hi {
            let k = ci[idx].to_usize();
            if k >= i {
                break; // columns are sorted; past the strictly-lower part
            }
            let pivot = vals[diag_pos[k]];
            if pivot == 0.0 {
                return Err(GkoError::Singular { at: k });
            }
            let lik = vals[idx] / pivot;
            vals[idx] = lik;
            // Update the remainder of row i with row k's upper part.
            for kidx in (diag_pos[k] + 1)..rp[k + 1].to_usize() {
                let j = ci[kidx].to_usize();
                let pos = col_pos[j];
                if pos != usize::MAX && pos >= lo && pos < hi {
                    vals[pos] -= lik * vals[kidx];
                }
            }
        }
        if vals[diag_pos[i]] == 0.0 {
            return Err(GkoError::Singular { at: i });
        }
        for idx in lo..hi {
            col_pos[ci[idx].to_usize()] = usize::MAX;
        }
    }

    // Split each row at its diagonal into L (strict lower) and U (upper
    // incl. diagonal); columns are sorted, so both halves already are CSR rows.
    let lower: usize = (0..n).map(|r| diag_pos[r] - rp[r].to_usize()).sum();
    let upper = ci.len() - lower;
    let (mut l_ptrs, mut u_ptrs) = (Vec::with_capacity(n + 1), Vec::with_capacity(n + 1));
    let (mut l_cols, mut u_cols) = (Vec::with_capacity(lower), Vec::with_capacity(upper));
    let (mut l_vals, mut u_vals) = (Vec::with_capacity(lower), Vec::with_capacity(upper));
    l_ptrs.push(I::zero());
    u_ptrs.push(I::zero());
    for r in 0..n {
        let (lo, diag, hi) = (rp[r].to_usize(), diag_pos[r], rp[r + 1].to_usize());
        l_cols.extend_from_slice(&ci[lo..diag]);
        l_vals.extend(vals[lo..diag].iter().map(|&v| V::from_f64(v)));
        l_ptrs.push(I::from_usize(l_cols.len()));
        u_cols.extend_from_slice(&ci[diag..hi]);
        u_vals.extend(vals[diag..hi].iter().map(|&v| V::from_f64(v)));
        u_ptrs.push(I::from_usize(u_cols.len()));
    }
    let exec = a.executor();
    // Charge the factorization as one sequential kernel (row dependencies).
    let nnz = a.nnz() as f64;
    exec.launch(&[ChunkWork::new(
        nnz * (V::BYTES + I::BYTES) as f64 * 2.0,
        nnz * V::BYTES as f64,
        2.0 * nnz,
    )]);
    let l = Csr::from_raw_unchecked(exec, a.size(), l_ptrs, l_cols, l_vals);
    let u = Csr::from_raw_unchecked(exec, a.size(), u_ptrs, u_cols, u_vals);
    Ok((l, u))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::base::dim::Dim2;
    use crate::executor::Executor;
    use crate::matrix::dense::Dense;

    /// On a matrix whose LU factors have no fill-in, ILU(0) is exact.
    #[test]
    fn exact_on_tridiagonal() {
        let exec = Executor::reference();
        let n = 10;
        let mut t = vec![];
        for i in 0..n {
            t.push((i, i, 4.0));
            if i > 0 {
                t.push((i, i - 1, -1.0));
            }
            if i + 1 < n {
                t.push((i, i + 1, -1.0));
            }
        }
        let a = Csr::<f64, i32>::from_triplets(&exec, Dim2::square(n), &t).unwrap();
        let (l, u) = ilu0(&a).unwrap();

        // Reconstruct (I + L) * U densely and compare with A.
        let ld = l.to_dense();
        let ud = u.to_dense();
        let ad = a.to_dense();
        for i in 0..n {
            for j in 0..n {
                let mut acc = ud.at(i, j); // I * U contribution
                for k in 0..n {
                    acc += ld.at(i, k) * ud.at(k, j);
                }
                assert!(
                    (acc - ad.at(i, j)).abs() < 1e-12,
                    "entry ({i}, {j}): {acc} vs {}",
                    ad.at(i, j)
                );
            }
        }
    }

    #[test]
    fn l_is_strictly_lower_u_is_upper() {
        let exec = Executor::reference();
        let t = [
            (0usize, 0usize, 4.0f64),
            (0, 1, -1.0),
            (0, 3, -1.0),
            (1, 0, -1.0),
            (1, 1, 4.0),
            (1, 2, -1.0),
            (2, 1, -1.0),
            (2, 2, 4.0),
            (3, 0, -1.0),
            (3, 3, 4.0),
        ];
        let a = Csr::<f64, i32>::from_triplets(&exec, Dim2::square(4), &t).unwrap();
        let (l, u) = ilu0(&a).unwrap();
        let rp = l.row_ptrs();
        for r in 0..4 {
            for idx in rp[r].to_usize()..rp[r + 1].to_usize() {
                assert!(l.col_idxs()[idx].to_usize() < r);
            }
        }
        let rp = u.row_ptrs();
        for r in 0..4 {
            for idx in rp[r].to_usize()..rp[r + 1].to_usize() {
                assert!(u.col_idxs()[idx].to_usize() >= r);
            }
        }
    }

    #[test]
    fn missing_diagonal_is_singular() {
        let exec = Executor::reference();
        let a = Csr::<f64, i32>::from_triplets(&exec, Dim2::square(2), &[(0, 1, 1.0), (1, 0, 1.0)])
            .unwrap();
        assert!(matches!(ilu0(&a), Err(GkoError::Singular { .. })));
    }

    #[test]
    fn rectangular_matrix_rejected() {
        let exec = Executor::reference();
        let a = Csr::<f64, i32>::from_triplets(&exec, Dim2::new(2, 3), &[(0, 0, 1.0)]).unwrap();
        assert!(ilu0(&a).is_err());
    }

    /// ILU(0)-preconditioned solve of L U x = b equals A x = b when exact.
    #[test]
    fn factors_solve_tridiagonal_system() {
        use crate::linop::LinOp;
        use crate::solver::triangular::{LowerTrs, UpperTrs};
        use std::sync::Arc;

        let exec = Executor::reference();
        let n = 12;
        let mut t = vec![];
        for i in 0..n {
            t.push((i, i, 3.0));
            if i > 0 {
                t.push((i, i - 1, -1.0));
            }
            if i + 1 < n {
                t.push((i, i + 1, -1.0));
            }
        }
        let a = Csr::<f64, i32>::from_triplets(&exec, Dim2::square(n), &t).unwrap();
        let x_true = Dense::<f64>::vector(&exec, n, 2.0);
        let mut b = Dense::zeros(&exec, Dim2::new(n, 1));
        a.apply(&x_true, &mut b).unwrap();

        let (l, u) = ilu0(&a).unwrap();
        let lsolve = LowerTrs::new(Arc::new(l)).unwrap().with_unit_diagonal();
        let usolve = UpperTrs::new(Arc::new(u)).unwrap();
        let mut y = Dense::zeros(&exec, Dim2::new(n, 1));
        lsolve.apply(&b, &mut y).unwrap();
        let mut x = Dense::zeros(&exec, Dim2::new(n, 1));
        usolve.apply(&y, &mut x).unwrap();
        for (a, b) in x.to_host_vec().iter().zip(x_true.to_host_vec()) {
            assert!((a - b).abs() < 1e-10, "{a} vs {b}");
        }
    }
}
