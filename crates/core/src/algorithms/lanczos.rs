//! Lanczos tridiagonalization eigensolver — another facade-level algorithm
//! in the family the paper's "advanced eigensolvers" outlook names.

use crate::algorithms::eig::symmetric_eig;
use crate::error::{PyGinkgoError, PyResult};
use crate::matrix::SparseMatrix;
use crate::tensor::{as_tensor, Tensor};
use pygko_sim::rng::Xoshiro256pp;

/// Result of a Lanczos run: Ritz values of the Krylov tridiagonalization.
pub struct LanczosResult {
    /// Ritz values, ascending.
    pub values: Vec<f64>,
    /// Number of Lanczos steps actually performed (early breakdown shrinks
    /// it when an invariant subspace is found).
    pub steps: usize,
}

/// Runs `steps` Lanczos iterations with full reorthogonalization on the
/// (assumed symmetric) matrix and returns the eigenvalues of the projected
/// tridiagonal matrix. The extremal values converge to `A`'s extremal
/// eigenvalues.
pub fn lanczos(matrix: &SparseMatrix, steps: usize, seed: u64) -> PyResult<LanczosResult> {
    let (n, nc) = matrix.shape();
    if n != nc {
        return Err(PyGinkgoError::Value("lanczos needs a square matrix".into()));
    }
    let steps = steps.min(n);
    if steps == 0 {
        return Err(PyGinkgoError::Value("need at least one step".into()));
    }
    let device = matrix.device().clone();
    let dtype = matrix.dtype().name();

    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let data: Vec<f64> = (0..n).map(|_| rng.range_f64(-1.0, 1.0)).collect();
    let mut q = as_tensor(data, &device, (n, 1), dtype)?;
    let norm = q.norm();
    q.scale(1.0 / norm);

    let mut basis: Vec<Tensor> = vec![q];
    let mut alphas: Vec<f64> = Vec::with_capacity(steps);
    let mut betas: Vec<f64> = Vec::with_capacity(steps);

    for j in 0..steps {
        let mut w = matrix.spmv(&basis[j])?;
        let alpha = w.dot(&basis[j])?;
        alphas.push(alpha);
        // Full reorthogonalization (stable for the small step counts used
        // at the facade level).
        for qi in &basis {
            let proj = w.dot(qi)?;
            w.add_scaled(-proj, qi)?;
        }
        let beta = w.norm();
        if j + 1 == steps {
            break;
        }
        if beta < 1e-12 {
            // Invariant subspace found — the tridiagonal is exact.
            break;
        }
        betas.push(beta);
        w.scale(1.0 / beta);
        basis.push(w);
    }

    // Assemble the tridiagonal and solve densely.
    let k = alphas.len();
    let mut t = vec![0.0f64; k * k];
    for i in 0..k {
        t[i * k + i] = alphas[i];
        if i + 1 < k {
            t[i * k + i + 1] = betas[i];
            t[(i + 1) * k + i] = betas[i];
        }
    }
    let (values, _) = symmetric_eig(k, &t)?;
    Ok(LanczosResult { values, steps: k })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::device;

    fn laplacian(dev: &crate::device::Device, n: usize) -> SparseMatrix {
        let mut t = vec![];
        for i in 0..n {
            t.push((i, i, 2.0));
            if i > 0 {
                t.push((i, i - 1, -1.0));
                t.push((i - 1, i, -1.0));
            }
        }
        SparseMatrix::from_triplets(dev, (n, n), &t, "double", "int32", "Csr").unwrap()
    }

    #[test]
    fn full_lanczos_recovers_all_eigenvalues() {
        let dev = device("reference").unwrap();
        let n = 12;
        let m = laplacian(&dev, n);
        let r = lanczos(&m, n, 5).unwrap();
        assert_eq!(r.steps, n);
        // Exact eigenvalues: 2 - 2 cos(k pi / (n+1)).
        for (k, got) in r.values.iter().enumerate() {
            let exact =
                2.0 - 2.0 * ((k + 1) as f64 * std::f64::consts::PI / (n as f64 + 1.0)).cos();
            assert!((got - exact).abs() < 1e-8, "lambda_{k}: {got} vs {exact}");
        }
    }

    #[test]
    fn partial_lanczos_brackets_the_spectrum() {
        let dev = device("reference").unwrap();
        let n = 60;
        let m = laplacian(&dev, n);
        let r = lanczos(&m, 20, 9).unwrap();
        let lo = *r.values.first().unwrap();
        let hi = *r.values.last().unwrap();
        // Extremal Ritz values lie inside (0, 4) and approach the ends.
        assert!(lo > 0.0 && hi < 4.0);
        assert!(hi > 3.8, "largest Ritz value {hi} should approach 4");
        assert!(lo < 0.2, "smallest Ritz value {lo} should approach 0");
    }

    #[test]
    fn breakdown_on_invariant_subspace_is_graceful() {
        // Identity matrix: one step spans an invariant subspace.
        let dev = device("reference").unwrap();
        let t: Vec<(usize, usize, f64)> = (0..5).map(|i| (i, i, 1.0)).collect();
        let m = SparseMatrix::from_triplets(&dev, (5, 5), &t, "double", "int32", "Csr").unwrap();
        let r = lanczos(&m, 5, 2).unwrap();
        assert!(r.steps < 5, "early termination expected, got {}", r.steps);
        assert!((r.values[0] - 1.0).abs() < 1e-10);
    }

    #[test]
    fn invalid_inputs_rejected() {
        let dev = device("reference").unwrap();
        let m = laplacian(&dev, 4);
        assert!(lanczos(&m, 0, 0).is_err());
        let rect =
            SparseMatrix::from_triplets(&dev, (2, 3), &[(0, 0, 1.0)], "double", "int32", "Csr")
                .unwrap();
        assert!(lanczos(&rect, 2, 0).is_err());
    }
}
