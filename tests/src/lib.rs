//! Integration test package. All tests live in `tests/` (cargo integration
//! test directory); this library only hosts shared helpers.

use pyginkgo as pg;

/// Builds an SPD tridiagonal facade matrix for solver tests.
pub fn spd_system(dev: &pg::Device, n: usize, dtype: &str, format: &str) -> pg::SparseMatrix {
    let mut t = vec![];
    for i in 0..n {
        t.push((i, i, 4.0));
        if i > 0 {
            t.push((i, i - 1, -1.0));
            t.push((i - 1, i, -1.0));
        }
    }
    pg::SparseMatrix::from_triplets(dev, (n, n), &t, dtype, "int32", format).expect("valid system")
}

/// Residual norm ||b - A x|| computed through the facade.
pub fn residual(mtx: &pg::SparseMatrix, b: &pg::Tensor, x: &pg::Tensor) -> f64 {
    let ax = mtx.spmv(x).expect("spmv");
    let mut r = b.clone();
    r.add_scaled(-1.0, &ax).expect("axpy");
    r.norm()
}
