//! The harness's own reference: a plain f64 loop over the generated
//! triplets, sharing no code with the library it checks.

/// Relative-error bounds for SpMV results, by value type.
pub const SPMV_TOL_F64: f64 = 1e-12;
/// See [`SPMV_TOL_F64`].
pub const SPMV_TOL_F32: f64 = 1e-5;
/// See [`SPMV_TOL_F64`].
pub const SPMV_TOL_F16: f64 = 2e-2;
/// A solve passes when its true relative residual is within this factor of
/// the tolerance the solver was asked for.
pub const RESIDUAL_SLACK: f64 = 10.0;

/// A (row, column, value) entry.
pub type Triplet = (usize, usize, f64);

/// `y = A x` by one pass over the triplets.
pub fn spmv(rows: usize, triplets: &[Triplet], x: &[f64]) -> Vec<f64> {
    let mut y = vec![0.0f64; rows];
    for &(r, c, v) in triplets {
        y[r] += v * x[c];
    }
    y
}

/// Euclidean norm.
pub fn norm2(v: &[f64]) -> f64 {
    v.iter().map(|a| a * a).sum::<f64>().sqrt()
}

/// `||got - want|| / ||want||`; infinite when the lengths differ or a value
/// is not finite, so a malformed result can never pass.
pub fn relative_error(got: &[f64], want: &[f64]) -> f64 {
    if got.len() != want.len() || got.iter().any(|v| !v.is_finite()) {
        return f64::INFINITY;
    }
    let diff = got
        .iter()
        .zip(want)
        .map(|(g, w)| (g - w) * (g - w))
        .sum::<f64>()
        .sqrt();
    let scale = norm2(want);
    if scale == 0.0 {
        diff
    } else {
        diff / scale
    }
}

/// True relative residual `||b - A x|| / ||b||` of a claimed solution.
pub fn relative_residual(triplets: &[Triplet], x: &[f64], b: &[f64]) -> f64 {
    if x.len() != b.len() || x.iter().any(|v| !v.is_finite()) {
        return f64::INFINITY;
    }
    let ax = spmv(b.len(), triplets, x);
    let r: Vec<f64> = b.iter().zip(&ax).map(|(b, ax)| b - ax).collect();
    norm2(&r) / norm2(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: [Triplet; 4] = [(0, 0, 4.0), (0, 1, -1.0), (1, 0, -1.0), (1, 1, 2.0)];

    #[test]
    fn spmv_matches_hand_computation() {
        assert_eq!(spmv(2, &A, &[1.0, 2.0]), vec![2.0, 3.0]);
    }

    #[test]
    fn relative_error_rejects_malformed_results() {
        assert_eq!(relative_error(&[1.0, 2.0], &[1.0, 2.0]), 0.0);
        assert!((relative_error(&[1.0, 2.2], &[1.0, 2.0]) - 0.2 / 5f64.sqrt()).abs() < 1e-15);
        assert!(relative_error(&[1.0], &[1.0, 2.0]).is_infinite());
        assert!(relative_error(&[f64::NAN, 2.0], &[1.0, 2.0]).is_infinite());
    }

    #[test]
    fn residual_of_exact_solution_is_zero() {
        // A x = b with x = (1, 2) gives b = (2, 3).
        assert_eq!(relative_residual(&A, &[1.0, 2.0], &[2.0, 3.0]), 0.0);
        assert!(relative_residual(&A, &[0.0, 0.0], &[2.0, 3.0]) == 1.0);
        assert!(relative_residual(&A, &[f64::INFINITY, 0.0], &[2.0, 3.0]).is_infinite());
    }
}
