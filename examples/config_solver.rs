//! The generic config-solver entry point: the paper's Listing 2.
//!
//! `pg.solve(...)` assembles the configuration dictionary shown in
//! Listing 2, serializes it to JSON in memory, and dispatches through
//! Ginkgo's generic solver factory — gaining access to every
//! solver/preconditioner combination without dedicated bindings.
//!
//! Run with `cargo run -p pyginkgo-examples --bin config_solver`.

use pyginkgo as pg;
use pyginkgo::config_solver::SolveOptions;

fn main() -> Result<(), pg::PyGinkgoError> {
    let dev = pg::device("cuda")?;

    // An unsymmetric convection-diffusion system.
    let gen = pygko_matgen::generators::convection_diffusion("cd", 2_000, 0.35);
    let mtx = pg::SparseMatrix::from_triplets(
        &dev,
        (gen.rows, gen.cols),
        &gen.triplets,
        "double",
        "int32",
        "Csr",
    )?;
    let n = mtx.shape().0;
    let b = pg::as_tensor_fill(&dev, (n, 1), "double", 1.0)?;

    // Listing 2's exact configuration: GMRES(30) + scalar Jacobi,
    // 1000 iterations or 1e-6 relative reduction.
    let options = SolveOptions::default();
    println!(
        "configuration dictionary handed to Ginkgo:\n{}\n",
        options.to_json()?
    );

    let mut x = pg::as_tensor_fill(&dev, (n, 1), "double", 0.0)?;
    let logger = pg::solve(&mtx, &b, &mut x, &options)?;
    println!(
        "config solver [gmres + jacobi]: {} in {} iterations (reduction {:.2e})",
        logger.stop_reason(),
        logger.iterations(),
        logger.reduction()
    );
    assert!(logger.converged());

    // The same entry point reaches every other solver without new bindings:
    for method in ["bicgstab", "cgs", "ir", "direct"] {
        let opts = SolveOptions {
            method: method.to_owned(),
            preconditioner: Some("ilu".to_owned()),
            max_iters: 2000,
            ..SolveOptions::default()
        };
        let mut x = pg::as_tensor_fill(&dev, (n, 1), "double", 0.0)?;
        let log = pg::solve(&mtx, &b, &mut x, &opts)?;
        println!(
            "config solver [{method:>8} + ilu]: {} in {} iterations",
            log.stop_reason(),
            log.iterations()
        );
    }
    Ok(())
}
