//! Dense symmetric eigensolver (cyclic Jacobi rotations).
//!
//! Rayleigh–Ritz and Lanczos reduce large sparse eigenproblems to small
//! dense symmetric ones; this is the facade-level solver for those. The
//! classical cyclic Jacobi method annihilates off-diagonal entries with
//! plane rotations until convergence — unconditionally stable and simple,
//! which is why it is the standard choice for the "small projected problem".

use crate::error::{PyGinkgoError, PyResult};

/// Computes all eigenvalues and eigenvectors of a symmetric `n x n` matrix
/// given in row-major order.
///
/// Returns `(eigenvalues, eigenvectors)` with eigenvalues ascending and
/// `eigenvectors[k]` the normalized eigenvector for `eigenvalues[k]`.
pub(crate) fn symmetric_eig(n: usize, a: &[f64]) -> PyResult<(Vec<f64>, Vec<Vec<f64>>)> {
    if a.len() != n * n {
        return Err(PyGinkgoError::Value(format!(
            "matrix buffer has {} entries, expected {}",
            a.len(),
            n * n
        )));
    }
    for i in 0..n {
        for j in (i + 1)..n {
            if (a[i * n + j] - a[j * n + i]).abs() > 1e-10 * (1.0 + a[i * n + j].abs()) {
                return Err(PyGinkgoError::Value(format!(
                    "matrix is not symmetric at ({i}, {j})"
                )));
            }
        }
    }
    let mut m = a.to_vec();
    // Eigenvector accumulator, starts as identity.
    let mut v = vec![0.0f64; n * n];
    for i in 0..n {
        v[i * n + i] = 1.0;
    }

    let off = |m: &[f64]| -> f64 {
        let mut s = 0.0;
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    s += m[i * n + j] * m[i * n + j];
                }
            }
        }
        s.sqrt()
    };

    let mut sweeps = 0;
    while off(&m) > 1e-12 * (1.0 + frobenius(n, &m)) {
        sweeps += 1;
        if sweeps > 100 {
            return Err(PyGinkgoError::Runtime(
                "jacobi eigensolver failed to converge in 100 sweeps".into(),
            ));
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = m[p * n + q];
                if apq.abs() < 1e-300 {
                    continue;
                }
                // Rotation angle annihilating m[p][q].
                let theta = (m[q * n + q] - m[p * n + p]) / (2.0 * apq);
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;
                // Apply the rotation: rows/cols p and q of m, cols of v.
                for k in 0..n {
                    let (mkp, mkq) = (m[k * n + p], m[k * n + q]);
                    m[k * n + p] = c * mkp - s * mkq;
                    m[k * n + q] = s * mkp + c * mkq;
                }
                for k in 0..n {
                    let (mpk, mqk) = (m[p * n + k], m[q * n + k]);
                    m[p * n + k] = c * mpk - s * mqk;
                    m[q * n + k] = s * mpk + c * mqk;
                }
                for k in 0..n {
                    let (vkp, vkq) = (v[k * n + p], v[k * n + q]);
                    v[k * n + p] = c * vkp - s * vkq;
                    v[k * n + q] = s * vkp + c * vkq;
                }
            }
        }
    }

    // Extract and sort.
    let mut pairs: Vec<(f64, usize)> = (0..n).map(|i| (m[i * n + i], i)).collect();
    pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
    let eigenvalues: Vec<f64> = pairs.iter().map(|&(val, _)| val).collect();
    let eigenvectors: Vec<Vec<f64>> = pairs
        .iter()
        .map(|&(_, col)| (0..n).map(|row| v[row * n + col]).collect())
        .collect();
    Ok((eigenvalues, eigenvectors))
}

fn frobenius(n: usize, m: &[f64]) -> f64 {
    m.iter().take(n * n).map(|x| x * x).sum::<f64>().sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diagonal_matrix_eigenvalues_are_the_diagonal() {
        let (vals, vecs) =
            symmetric_eig(3, &[3.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 2.0]).unwrap();
        assert_eq!(vals, vec![1.0, 2.0, 3.0]);
        // Eigenvector for eigenvalue 1 is e_1 (up to sign).
        assert!((vecs[0][1].abs() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn known_2x2_eigensystem() {
        // [[2, 1], [1, 2]] -> eigenvalues 1 and 3.
        let (vals, vecs) = symmetric_eig(2, &[2.0, 1.0, 1.0, 2.0]).unwrap();
        assert!((vals[0] - 1.0).abs() < 1e-12);
        assert!((vals[1] - 3.0).abs() < 1e-12);
        // Eigenvector for 3 is (1, 1)/sqrt(2) up to sign.
        let v = &vecs[1];
        assert!((v[0].abs() - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-10);
        assert!((v[0] - v[1]).abs() < 1e-10);
    }

    #[test]
    fn satisfies_eigen_equation_on_random_symmetric() {
        let n = 8;
        let mut a = vec![0.0f64; n * n];
        let mut state = 7u64;
        for i in 0..n {
            for j in 0..=i {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let v = ((state >> 33) as f64 / (1u64 << 31) as f64) - 0.5;
                a[i * n + j] = v;
                a[j * n + i] = v;
            }
        }
        let (vals, vecs) = symmetric_eig(n, &a).unwrap();
        // Eigenvalues ascend.
        for w in vals.windows(2) {
            assert!(w[0] <= w[1] + 1e-12);
        }
        for (lambda, v) in vals.iter().zip(&vecs) {
            // || A v - lambda v || small, ||v|| = 1.
            let norm: f64 = v.iter().map(|x| x * x).sum::<f64>().sqrt();
            assert!((norm - 1.0).abs() < 1e-10);
            for i in 0..n {
                let av: f64 = (0..n).map(|j| a[i * n + j] * v[j]).sum();
                assert!(
                    (av - lambda * v[i]).abs() < 1e-9,
                    "eigen equation violated: {av} vs {}",
                    lambda * v[i]
                );
            }
        }
        // Trace equals eigenvalue sum.
        let trace: f64 = (0..n).map(|i| a[i * n + i]).sum();
        let sum: f64 = vals.iter().sum();
        assert!((trace - sum).abs() < 1e-9);
    }

    #[test]
    fn asymmetric_input_is_rejected() {
        assert!(symmetric_eig(2, &[1.0, 2.0, 3.0, 4.0]).is_err());
        assert!(symmetric_eig(2, &[1.0; 3]).is_err());
    }
}
