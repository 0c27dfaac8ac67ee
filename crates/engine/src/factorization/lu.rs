//! Dense LU factorization with partial pivoting.
//!
//! Backs the `Direct` solver binding the facade exposes. The factorization
//! is computed in `f64` regardless of the matrix value type, which is both
//! numerically safer and how mixed-precision direct solves are typically
//! staged.

use crate::base::error::{GkoError, Result};

/// A dense LU factorization `P A = L U` (row-major storage, pivoting
/// recorded as the row swaps that make up `P`).
#[derive(Debug, Clone)]
pub struct DenseLu {
    n: usize,
    /// Combined L (unit lower, below diagonal) and U (on/above diagonal).
    lu: Vec<f64>,
    /// Step `k` of the elimination swapped rows `k` and `pivots[k]`.
    pivots: Vec<usize>,
}

impl DenseLu {
    /// Factorizes a dense row-major `n x n` matrix.
    pub fn factor(n: usize, a: &[f64]) -> Result<Self> {
        if a.len() != n * n {
            return Err(GkoError::BadInput(format!(
                "LU input length {} != n^2 = {}",
                a.len(),
                n * n
            )));
        }
        let mut lu = a.to_vec();
        let mut pivots = Vec::with_capacity(n);
        for k in 0..n {
            // Partial pivoting: find the largest |entry| in column k.
            let mut p = k;
            let mut best = lu[k * n + k].abs();
            for i in (k + 1)..n {
                let cand = lu[i * n + k].abs();
                if cand > best {
                    best = cand;
                    p = i;
                }
            }
            if best == 0.0 {
                return Err(GkoError::Singular { at: k });
            }
            if p != k {
                for j in 0..n {
                    lu.swap(k * n + j, p * n + j);
                }
            }
            pivots.push(p);
            let pivot = lu[k * n + k];
            for i in (k + 1)..n {
                let factor = lu[i * n + k] / pivot;
                lu[i * n + k] = factor;
                for j in (k + 1)..n {
                    lu[i * n + j] -= factor * lu[k * n + j];
                }
            }
        }
        Ok(DenseLu { n, lu, pivots })
    }

    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Solves `A x = b` using the factorization (one right-hand side).
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let mut y = b.to_vec();
        self.solve_in_place(&mut y)?;
        Ok(y)
    }

    /// Solves `A x = b` in `y`, which holds `b` on entry and `x` on return.
    pub(crate) fn solve_in_place(&self, y: &mut [f64]) -> Result<()> {
        if y.len() != self.n {
            return Err(GkoError::BadInput(format!(
                "rhs length {} != n = {}",
                y.len(),
                self.n
            )));
        }
        let n = self.n;
        // Apply permutation, then forward substitution with unit L.
        for (k, &p) in self.pivots.iter().enumerate() {
            y.swap(k, p);
        }
        for i in 0..n {
            for j in 0..i {
                y[i] -= self.lu[i * n + j] * y[j];
            }
        }
        // Back substitution with U.
        for i in (0..n).rev() {
            for j in (i + 1)..n {
                y[i] -= self.lu[i * n + j] * y[j];
            }
            y[i] /= self.lu[i * n + i];
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solves_2x2() {
        // [2 1; 1 3] x = [3; 5] -> x = [4/5, 7/5]
        let lu = DenseLu::factor(2, &[2.0, 1.0, 1.0, 3.0]).unwrap();
        let x = lu.solve(&[3.0, 5.0]).unwrap();
        assert!((x[0] - 0.8).abs() < 1e-14);
        assert!((x[1] - 1.4).abs() < 1e-14);
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        // Without pivoting this matrix fails at k = 0.
        let lu = DenseLu::factor(2, &[0.0, 1.0, 1.0, 0.0]).unwrap();
        let x = lu.solve(&[2.0, 3.0]).unwrap();
        assert_eq!(x, vec![3.0, 2.0]);
    }

    #[test]
    fn singular_matrix_is_detected() {
        assert!(matches!(
            DenseLu::factor(2, &[1.0, 2.0, 2.0, 4.0]),
            Err(GkoError::Singular { .. })
        ));
    }

    #[test]
    fn random_system_roundtrip() {
        // Deterministic pseudo-random matrix; verify A * solve(b) == b.
        let n = 12;
        let mut a = vec![0.0f64; n * n];
        let mut state = 0x12345u64;
        for v in a.iter_mut() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            *v = ((state >> 33) as f64 / (1u64 << 31) as f64) - 0.5;
        }
        for i in 0..n {
            a[i * n + i] += n as f64; // diagonally dominant => well conditioned
        }
        let b: Vec<f64> = (0..n).map(|i| i as f64 + 1.0).collect();
        let lu = DenseLu::factor(n, &a).unwrap();
        let x = lu.solve(&b).unwrap();
        for i in 0..n {
            let ax: f64 = (0..n).map(|j| a[i * n + j] * x[j]).sum();
            assert!((ax - b[i]).abs() < 1e-9, "row {i}: {ax} vs {}", b[i]);
        }
    }

    #[test]
    fn wrong_sizes_are_rejected() {
        assert!(DenseLu::factor(2, &[1.0; 3]).is_err());
        let lu = DenseLu::factor(2, &[1.0, 0.0, 0.0, 1.0]).unwrap();
        assert!(lu.solve(&[1.0]).is_err());
    }
}
