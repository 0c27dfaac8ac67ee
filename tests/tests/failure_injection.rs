//! Failure-injection tests: every documented failure mode must surface as
//! the right error (or logger state), never as a panic or a wrong answer.

use pyginkgo as pg;
use pyginkgo_integration_tests::spd_system;

#[test]
fn non_convergence_is_reported_through_the_logger_not_an_error() {
    let dev = pg::device("reference").unwrap();
    // An ill-conditioned unsymmetric system CG is not suited for.
    let n = 30;
    let mut t = vec![];
    for i in 0..n {
        t.push((i, i, 1e-6 + i as f64));
        if i + 1 < n {
            t.push((i, i + 1, 1e3));
        }
    }
    let mtx = pg::SparseMatrix::from_triplets(&dev, (n, n), &t, "double", "int32", "Csr").unwrap();
    let solver = pg::solver::cg(&dev, &mtx, None, 20, 1e-14).unwrap();
    let b = pg::as_tensor_fill(&dev, (n, 1), "double", 1.0).unwrap();
    let mut x = pg::as_tensor_fill(&dev, (n, 1), "double", 0.0).unwrap();
    let log = solver
        .apply(&b, &mut x)
        .expect("apply itself must not error");
    assert!(!log.converged());
    assert!(
        log.stop_reason() == "max iterations" || log.stop_reason() == "breakdown",
        "got {}",
        log.stop_reason()
    );
}

#[test]
fn singular_factorizations_raise_runtime_errors() {
    let dev = pg::device("reference").unwrap();
    // Structurally missing diagonal.
    let mtx = pg::SparseMatrix::from_triplets(
        &dev,
        (3, 3),
        &[(0, 1, 1.0), (1, 0, 1.0), (2, 2, 1.0)],
        "double",
        "int32",
        "Csr",
    )
    .unwrap();
    assert!(matches!(
        pg::preconditioner::ilu(&dev, &mtx),
        Err(pg::PyGinkgoError::Runtime(_))
    ));
    assert!(matches!(
        pg::preconditioner::ic(&dev, &mtx),
        Err(pg::PyGinkgoError::Runtime(_))
    ));
    assert!(matches!(
        pg::preconditioner::jacobi(&dev, &mtx),
        Err(pg::PyGinkgoError::Runtime(_))
    ));
    // Singular matrix for the direct solver.
    let singular = pg::SparseMatrix::from_triplets(
        &dev,
        (2, 2),
        &[(0, 0, 1.0), (1, 0, 1.0)],
        "double",
        "int32",
        "Csr",
    )
    .unwrap();
    assert!(pg::solver::direct(&dev, &singular).is_err());
}

#[test]
fn shape_and_dtype_mismatches_are_typed_errors() {
    let dev = pg::device("reference").unwrap();
    let mtx = spd_system(&dev, 8, "double", "Csr");
    // Wrong-shaped right-hand side.
    let solver = pg::solver::cg(&dev, &mtx, None, 10, 1e-6).unwrap();
    let b_short = pg::as_tensor_fill(&dev, (4, 1), "double", 1.0).unwrap();
    let mut x = pg::as_tensor_fill(&dev, (8, 1), "double", 0.0).unwrap();
    assert!(matches!(
        solver.apply(&b_short, &mut x),
        Err(pg::PyGinkgoError::Value(_))
    ));
    // Wrong dtype rhs.
    let b_f32 = pg::as_tensor_fill(&dev, (8, 1), "float", 1.0).unwrap();
    let mut x_f32 = pg::as_tensor_fill(&dev, (8, 1), "float", 0.0).unwrap();
    assert!(matches!(
        solver.apply(&b_f32, &mut x_f32),
        Err(pg::PyGinkgoError::Type(_))
    ));
    // SpMV against a vector on a different device's memory space.
    let gpu = pg::device("cuda").unwrap();
    let b_gpu = pg::as_tensor_fill(&gpu, (8, 1), "double", 1.0).unwrap();
    assert!(mtx.spmv(&b_gpu).is_err());
}

#[test]
fn malformed_inputs_never_panic() {
    let dev = pg::device("reference").unwrap();
    // Out-of-range triplets.
    assert!(pg::SparseMatrix::from_triplets(
        &dev,
        (2, 2),
        &[(9, 9, 1.0)],
        "double",
        "int32",
        "Csr"
    )
    .is_err());
    // Unknown strings everywhere.
    assert!(pg::device("quantum-annealer").is_err());
    assert!(pg::SparseMatrix::from_triplets(&dev, (1, 1), &[], "f128", "int32", "Csr").is_err());
    assert!(pg::SparseMatrix::from_triplets(&dev, (1, 1), &[], "double", "uint8", "Csr").is_err());
    assert!(
        pg::SparseMatrix::from_triplets(&dev, (1, 1), &[], "double", "int32", "Sellp").is_err()
    );
    // Empty matrix with a solver: 0x0 system is degenerate but defined.
    let empty =
        pg::SparseMatrix::from_triplets(&dev, (0, 0), &[], "double", "int32", "Csr").unwrap();
    assert_eq!(empty.nnz(), 0);
}

#[test]
fn breakdown_in_krylov_solvers_is_graceful() {
    let dev = pg::device("reference").unwrap();
    // A zero matrix forces immediate breakdown in CG (rho = 0 after the
    // first products); the solver must return with a breakdown record.
    let n = 6;
    let t: Vec<(usize, usize, f64)> = (0..n).map(|i| (i, i, 0.0)).collect();
    let mtx = pg::SparseMatrix::from_triplets(&dev, (n, n), &t, "double", "int32", "Csr").unwrap();
    let solver = pg::solver::cg(&dev, &mtx, None, 50, 1e-8).unwrap();
    let b = pg::as_tensor_fill(&dev, (n, 1), "double", 1.0).unwrap();
    let mut x = pg::as_tensor_fill(&dev, (n, 1), "double", 0.0).unwrap();
    let log = solver.apply(&b, &mut x).expect("breakdown is not an Err");
    assert_eq!(log.stop_reason(), "breakdown");
}

#[test]
fn config_solver_rejects_nonsense_cleanly() {
    let dev = pg::device("reference").unwrap();
    let mtx = spd_system(&dev, 8, "double", "Csr");
    let b = pg::as_tensor_fill(&dev, (8, 1), "double", 1.0).unwrap();
    let mut x = pg::as_tensor_fill(&dev, (8, 1), "double", 0.0).unwrap();
    for (method, precond) in [
        ("warp-drive", Some("jacobi")),
        ("cg", Some("flux-capacitor")),
    ] {
        let opts = pg::config_solver::SolveOptions {
            method: method.into(),
            preconditioner: precond.map(Into::into),
            ..Default::default()
        };
        assert!(matches!(
            pg::solve(&mtx, &b, &mut x, &opts),
            Err(pg::PyGinkgoError::Value(_))
        ));
    }
}

/// Listing 2's `max_block_size` on a matrix of ordinary size: densifying
/// 60 000 rows to cut the blocks out took 28.8 GB and aborted the process.
#[test]
fn block_jacobi_on_a_large_matrix_solves_instead_of_aborting() {
    let dev = pg::device("reference").unwrap();
    let n = 60_000;
    let mtx = spd_system(&dev, n, "double", "Csr");
    let b = pg::as_tensor_fill(&dev, (n, 1), "double", 1.0).unwrap();
    let mut x = pg::as_tensor_fill(&dev, (n, 1), "double", 0.0).unwrap();
    let opts = pg::config_solver::SolveOptions {
        block_size: 4,
        ..Default::default()
    };
    let log = pg::solve(&mtx, &b, &mut x, &opts).unwrap();
    assert!(log.converged(), "stopped on {}", log.stop_reason());
}

#[test]
fn reading_garbage_files_fails_with_context() {
    let dev = pg::device("reference").unwrap();
    let dir = std::env::temp_dir().join("pyginkgo_failure_tests");
    std::fs::create_dir_all(&dir).unwrap();
    // Truncated file.
    let p = dir.join("truncated.mtx");
    std::fs::write(
        &p,
        "%%MatrixMarket matrix coordinate real general\n10 10 5\n1 1 1.0\n",
    )
    .unwrap();
    let err = pg::read(&dev, &p, "double", "Csr").unwrap_err();
    assert!(err.to_string().contains("declared"), "{err}");
    // Binary junk.
    let p2 = dir.join("junk.mtx");
    std::fs::write(&p2, [0u8, 159, 146, 150]).unwrap();
    assert!(pg::read(&dev, &p2, "double", "Csr").is_err());
    let _ = std::fs::remove_file(p);
    let _ = std::fs::remove_file(p2);
}
