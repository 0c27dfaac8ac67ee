//! Quickstart: the paper's Listing 1, line for line.
//!
//! ```python
//! import pyGinkgo as pg
//! dev = pg.device("cuda")
//! mtx = pg.read(device=dev, path="m1.mtx", dtype="double", format="Csr")
//! b = pg.as_tensor(device=dev, dim=(n_rows, 1), dtype="double", fill=1.0)
//! x = pg.as_tensor(device=dev, dim=(n_rows, 1), dtype="double", fill=0.0)
//! preconditioner = pg.preconditioner.Ilu(dev, mtx)
//! solver = pg.solver.gmres(dev, mtx, preconditioner,
//!                          max_iters=1000, krylov_dim=30,
//!                          reduction_factor=1e-06)
//! logger, result = solver.apply(b, x)
//! ```
//!
//! Run with `cargo run -p pyginkgo-examples --bin quickstart`.

use pyginkgo as pg;

fn main() -> Result<(), pg::PyGinkgoError> {
    // The paper reads m1.mtx from disk; we generate an equivalent SPD
    // system, write it to a temporary m1.mtx, and read it back so the
    // exact Listing 1 path (device -> read -> tensors -> solver) runs.
    let path = std::env::temp_dir().join("pyginkgo_quickstart_m1.mtx");
    {
        let m = pygko_matgen::generators::poisson2d("m1", 48, 48);
        pygko_mtx::write_mtx_file(&path, m.rows, m.cols, &m.triplets)
            .map_err(|e| pg::PyGinkgoError::Os(e.to_string()))?;
    }

    let dev = pg::device("cuda")?;
    let mtx = pg::read(&dev, &path, "double", "Csr")?;
    let n_rows = mtx.shape().0;
    println!(
        "loaded {} ({} x {}, {} nonzeros) on {}",
        path.display(),
        n_rows,
        mtx.shape().1,
        mtx.nnz(),
        dev.hardware_name()
    );

    let b = pg::as_tensor_fill(&dev, (n_rows, 1), "double", 1.0)?;
    let mut x = pg::as_tensor_fill(&dev, (n_rows, 1), "double", 0.0)?;

    // Create ILU preconditioner.
    let preconditioner = pg::preconditioner::ilu(&dev, &mtx)?;

    // Set up the GMRES solver.
    let solver = pg::solver::gmres(&dev, &mtx, Some(preconditioner), 1000, 30, 1e-6)?;

    // Apply: logger, result = solver.apply(b, x).
    let logger = solver.apply(&b, &mut x)?;

    println!(
        "GMRES(30)+ILU: {} after {} iterations, residual {:.3e} -> {:.3e}",
        logger.stop_reason(),
        logger.iterations(),
        logger.initial_residual(),
        logger.final_residual()
    );

    // Verify the solution through the public API.
    let ax = mtx.spmv(&x)?;
    let mut r = b.clone();
    r.add_scaled(-1.0, &ax)?;
    println!("true residual ||b - Ax|| = {:.3e}", r.norm());
    assert!(logger.converged(), "quickstart must converge");
    assert!(r.norm() <= 1e-5 * logger.initial_residual());

    let _ = std::fs::remove_file(path);
    Ok(())
}
