//! Cross-crate randomized tests on random sparse matrices, driven by the
//! deterministic in-tree harness (`pygko_sim::testing`).

use pyginkgo as pg;
use pygko_sim::rng::Xoshiro256pp;
use pygko_sim::testing::{check, check_cases, sparse_triplets};

/// A random sparse square matrix as (n, unique sorted triplets).
fn sparse_matrix(rng: &mut Xoshiro256pp) -> (usize, Vec<(usize, usize, f64)>) {
    sparse_triplets(rng, 2, 24, 60, 10.0)
}

/// CSR <-> COO conversion is lossless through the facade.
#[test]
fn format_conversion_roundtrip() {
    check("format_conversion_roundtrip", |rng| {
        let (n, t) = sparse_matrix(rng);
        let dev = pg::device("reference").unwrap();
        let csr =
            pg::SparseMatrix::from_triplets(&dev, (n, n), &t, "double", "int32", "Csr").unwrap();
        let back = csr.convert("Coo").unwrap().convert("Csr").unwrap();
        assert_eq!(back.nnz(), csr.nnz());
        assert_eq!(back.to_dense().to_vec(), csr.to_dense().to_vec());
    });
}

/// SpMV is linear: A(alpha x + beta y) == alpha A x + beta A y.
#[test]
fn spmv_linearity() {
    check("spmv_linearity", |rng| {
        let (n, t) = sparse_matrix(rng);
        let alpha = rng.range_f64(-3.0, 3.0);
        let beta = rng.range_f64(-3.0, 3.0);
        let dev = pg::device("reference").unwrap();
        let a =
            pg::SparseMatrix::from_triplets(&dev, (n, n), &t, "double", "int32", "Csr").unwrap();
        let xv: Vec<f64> = (0..n).map(|_| rng.range_f64(-1.0, 1.0)).collect();
        let yv: Vec<f64> = (0..n).map(|_| rng.range_f64(-1.0, 1.0)).collect();
        let x = pg::as_tensor(xv, &dev, (n, 1), "double").unwrap();
        let y = pg::as_tensor(yv, &dev, (n, 1), "double").unwrap();

        // lhs = A (alpha x + beta y)
        let mut comb = x.clone();
        comb.scale(alpha);
        comb.add_scaled(beta, &y).unwrap();
        let lhs = a.spmv(&comb).unwrap();

        // rhs = alpha A x + beta A y
        let mut rhs = a.spmv(&x).unwrap();
        rhs.scale(alpha);
        let ay = a.spmv(&y).unwrap();
        rhs.add_scaled(beta, &ay).unwrap();

        for (l, r) in lhs.to_vec().iter().zip(rhs.to_vec()) {
            assert!((l - r).abs() <= 1e-9 * (1.0 + r.abs()), "{l} vs {r}");
        }
    });
}

/// The engine and every baseline compute the same SpMV values.
#[test]
fn baselines_agree_with_engine() {
    use gko::linop::LinOp;
    use gko::matrix::{Coo, Csr, Dense};
    use gko::Dim2;
    use std::sync::Arc;
    check("baselines_agree_with_engine", |rng| {
        let (n, t) = sparse_matrix(rng);
        let exec = pygko_baselines::gpu_executor("test");
        let dim = Dim2::square(n);
        let csr = Arc::new(Csr::<f64, i32>::from_triplets(&exec, dim, &t).unwrap());
        let coo = Arc::new(Coo::from_csr(&csr));
        let b = Dense::<f64>::vector(&exec, n, 1.0);
        let mut want = Dense::zeros(&exec, Dim2::new(n, 1));
        csr.apply(&b, &mut want).unwrap();
        let want = want.to_host_vec();

        macro_rules! check_op {
            ($op:expr, $name:expr) => {{
                let mut x = Dense::zeros(&exec, Dim2::new(n, 1));
                $op.apply(&b, &mut x).unwrap();
                for (got, w) in x.to_host_vec().iter().zip(&want) {
                    assert!(
                        (got - w).abs() <= 1e-10 * (1.0 + w.abs()),
                        "{}: {got} vs {w}",
                        $name
                    );
                }
            }};
        }
        check_op!(pygko_baselines::scipy::ScipyCsr::new(csr.clone()), "scipy");
        check_op!(pygko_baselines::cupy::CupyCsr::new(csr.clone()), "cupy");
        check_op!(
            pygko_baselines::torch::TorchCsr::new(csr.clone()),
            "torch-csr"
        );
        check_op!(
            pygko_baselines::torch::TorchCoo::new(coo.clone()),
            "torch-coo"
        );
        check_op!(pygko_baselines::tf::TfCoo::new(coo.clone()), "tf");
    });
}

/// Matrix Market write-read is the identity on facade matrices.
#[test]
fn mtx_roundtrip() {
    check("mtx_roundtrip", |rng| {
        let (n, t) = sparse_matrix(rng);
        let dev = pg::device("reference").unwrap();
        let m =
            pg::SparseMatrix::from_triplets(&dev, (n, n), &t, "double", "int32", "Csr").unwrap();
        let dir = std::env::temp_dir().join("pyginkgo_proptest");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("m_{n}_{}.mtx", m.nnz()));
        pg::write(&m, &path).unwrap();
        let back = pg::read(&dev, &path, "double", "Csr").unwrap();
        assert_eq!(back.to_dense().to_vec(), m.to_dense().to_vec());
        let _ = std::fs::remove_file(path);
    });
}

/// The direct solver really solves: ||b - A x|| is tiny whenever the
/// matrix is nonsingular (diagonally dominated construction).
#[test]
fn direct_solver_solves() {
    check("direct_solver_solves", |rng| {
        let (n, mut t) = sparse_matrix(rng);
        // Make the matrix safely nonsingular.
        let mut row_abs = vec![0.0f64; n];
        for &(r, _, v) in &t {
            row_abs[r] += v.abs();
        }
        t.retain(|&(r, c, _)| r != c);
        for (i, ra) in row_abs.iter().enumerate() {
            t.push((i, i, ra + 1.0));
        }
        let dev = pg::device("reference").unwrap();
        let a =
            pg::SparseMatrix::from_triplets(&dev, (n, n), &t, "double", "int32", "Csr").unwrap();
        let solver = pg::solver::direct(&dev, &a).unwrap();
        let b = pg::as_tensor_fill(&dev, (n, 1), "double", 1.0).unwrap();
        let mut x = pg::as_tensor_fill(&dev, (n, 1), "double", 0.0).unwrap();
        solver.apply(&b, &mut x).unwrap();
        let ax = a.spmv(&x).unwrap();
        let mut r = b.clone();
        r.add_scaled(-1.0, &ax).unwrap();
        assert!(r.norm() < 1e-8, "residual {}", r.norm());
    });
}

/// Virtual kernel time is monotone in matrix size for a fixed structure.
#[test]
fn virtual_time_monotone_in_size() {
    use gko::linop::LinOp;
    use gko::matrix::{Csr, Dense};
    use gko::Dim2;
    check_cases("virtual_time_monotone_in_size", 5, |rng| {
        let k = 1 + rng.below_usize(5);
        let mut last = 0.0f64;
        for scale in [1usize, 8] {
            let n = 1000 * k * scale;
            let exec = gko::Executor::cuda(0);
            let t: Vec<(usize, usize, f64)> = (0..n).map(|i| (i, i, 1.0)).collect();
            let a = Csr::<f64, i32>::from_triplets(&exec, Dim2::square(n), &t).unwrap();
            let b = Dense::<f64>::vector(&exec, n, 1.0);
            let mut x = Dense::zeros(&exec, Dim2::new(n, 1));
            let t0 = exec.timeline().snapshot();
            a.apply(&b, &mut x).unwrap();
            let secs = exec.timeline().snapshot().since(&t0).seconds();
            assert!(secs >= last, "time must grow with size");
            last = secs;
        }
    });
}
