//! IC(0): incomplete Cholesky factorization with zero fill-in.

use crate::base::error::{GkoError, Result};
use crate::base::types::{Index, Value};
use crate::matrix::csr::Csr;
use pygko_sim::ChunkWork;
use std::cmp::Ordering;

/// Computes the IC(0) factorization `A ≈ L L^T` of a symmetric positive
/// definite CSR matrix.
///
/// Returns the lower-triangular factor `L` (diagonal stored). Only the
/// lower triangle of `A` is read, so an upper-triangle-only or full
/// symmetric matrix both work. Fails with [`GkoError::Breakdown`] if a
/// non-positive pivot appears (matrix not SPD enough for IC(0)).
pub fn ic0<V: Value, I: Index>(a: &Csr<V, I>) -> Result<Csr<V, I>> {
    if !a.size().is_square() {
        return Err(GkoError::BadInput("IC(0) needs a square matrix".into()));
    }
    // The factor is A's validated lower pattern, so it is well formed.
    a.validate()?;
    let n = a.size().rows;
    let rp = a.row_ptrs();
    let ci = a.col_idxs();
    let av = a.values();

    // Build L row by row on the lower-triangular pattern of A, straight into
    // CSR arrays: row `i` is `l_ptrs[i]..l_ptrs[i + 1]`, columns ascending,
    // the diagonal last.
    let mut l_ptrs: Vec<usize> = Vec::with_capacity(n + 1);
    let mut l_cols: Vec<I> = Vec::new();
    let mut l_vals: Vec<f64> = Vec::new();
    l_ptrs.push(0);
    for i in 0..n {
        let (lo, hi) = (rp[i].to_usize(), rp[i + 1].to_usize());
        let below = lo + ci[lo..hi].partition_point(|c| c.to_usize() < i);
        if ci[below..hi].first().map(|c| c.to_usize()) != Some(i) {
            return Err(GkoError::Singular { at: i });
        }
        let diag_a = av[below].to_f64();

        // l_ij = (a_ij - sum_{k<j} l_ik * l_jk) / l_jj  for pattern entries.
        let row_start = l_cols.len();
        for idx in lo..below {
            let col = ci[idx];
            let j = col.to_usize();
            let mut acc = av[idx].to_f64();
            // Sparse dot of the finished part of row i (all columns < j)
            // with row j of L; row j's diagonal has no partner there.
            let (mut p, mut q) = (row_start, l_ptrs[j]);
            let (p_end, q_end) = (l_cols.len(), l_ptrs[j + 1]);
            while p < p_end && q < q_end {
                match l_cols[p].cmp(&l_cols[q]) {
                    Ordering::Equal => {
                        acc -= l_vals[p] * l_vals[q];
                        p += 1;
                        q += 1;
                    }
                    Ordering::Less => p += 1,
                    Ordering::Greater => q += 1,
                }
            }
            let ljj = l_vals[q_end - 1];
            if ljj == 0.0 {
                return Err(GkoError::Breakdown("ic0 zero pivot"));
            }
            l_cols.push(col);
            l_vals.push(acc / ljj);
        }
        // Diagonal: l_ii = sqrt(a_ii - sum l_ik^2).
        let sq: f64 = l_vals[row_start..].iter().map(|&v| v * v).sum();
        let d = diag_a - sq;
        if d <= 0.0 {
            return Err(GkoError::Breakdown("ic0 non-positive pivot"));
        }
        l_cols.push(ci[below]);
        l_vals.push(d.sqrt());
        l_ptrs.push(l_cols.len());
    }

    let exec = a.executor();
    let nnz = a.nnz() as f64;
    exec.launch(&[ChunkWork::new(
        nnz * (V::BYTES + I::BYTES) as f64 * 1.5,
        nnz * V::BYTES as f64,
        2.0 * nnz,
    )]);
    Ok(Csr::from_raw_unchecked(
        exec,
        a.size(),
        l_ptrs.into_iter().map(I::from_usize).collect(),
        l_cols,
        l_vals.into_iter().map(V::from_f64).collect(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::base::dim::Dim2;
    use crate::executor::Executor;

    fn spd_tridiag(exec: &Executor, n: usize) -> Csr<f64, i32> {
        let mut t = vec![];
        for i in 0..n {
            t.push((i, i, 4.0));
            if i > 0 {
                t.push((i, i - 1, -1.0));
                t.push((i - 1, i, -1.0));
            }
        }
        Csr::from_triplets(exec, Dim2::square(n), &t).unwrap()
    }

    #[test]
    fn exact_on_tridiagonal_spd() {
        let exec = Executor::reference();
        let n = 8;
        let a = spd_tridiag(&exec, n);
        let l = ic0(&a).unwrap();
        // L L^T must equal A (no fill-in was dropped for a tridiagonal).
        let ld = l.to_dense();
        let ad = a.to_dense();
        for i in 0..n {
            for j in 0..n {
                let mut acc = 0.0;
                for k in 0..n {
                    acc += ld.at(i, k) * ld.at(j, k);
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
    fn factor_is_lower_triangular_with_positive_diagonal() {
        let exec = Executor::reference();
        let a = spd_tridiag(&exec, 16);
        let l = ic0(&a).unwrap();
        let rp = l.row_ptrs();
        for r in 0..16 {
            let (lo, hi) = (rp[r].to_usize(), rp[r + 1].to_usize());
            for idx in lo..hi {
                assert!(l.col_idxs()[idx].to_usize() <= r);
            }
            let d = l.extract_diagonal()[r];
            assert!(d > 0.0, "diagonal {d} at row {r}");
        }
    }

    #[test]
    fn indefinite_matrix_breaks_down() {
        let exec = Executor::reference();
        let a = Csr::<f64, i32>::from_triplets(
            &exec,
            Dim2::square(2),
            &[(0, 0, 1.0), (0, 1, 5.0), (1, 0, 5.0), (1, 1, 1.0)],
        )
        .unwrap();
        assert!(matches!(ic0(&a), Err(GkoError::Breakdown(_))));
    }

    #[test]
    fn missing_diagonal_is_singular() {
        let exec = Executor::reference();
        let a = Csr::<f64, i32>::from_triplets(&exec, Dim2::square(2), &[(0, 0, 1.0), (1, 0, 0.5)])
            .unwrap();
        assert!(matches!(ic0(&a), Err(GkoError::Singular { at: 1 })));
    }
}
