//! Scientific-computing workflow: a 3-D Poisson (steady heat) problem
//! solved with CG on every available device, with and without
//! preconditioning — the workload class the paper's introduction motivates.
//!
//! Run with `cargo run -p pyginkgo-examples --bin poisson`.

use pyginkgo as pg;

fn main() -> Result<(), pg::PyGinkgoError> {
    let gen = pygko_matgen::generators::poisson3d("heat3d", 16, 16, 16);
    println!(
        "3-D Poisson: n = {}, nnz = {} (7-point stencil)\n",
        gen.rows,
        gen.triplets.len()
    );

    println!(
        "{:<28} {:>14} {:>7} {:>12} {:>14}",
        "device", "preconditioner", "iters", "reduction", "virtual time"
    );
    for device_name in ["reference", "omp", "cuda", "hip"] {
        let dev = pg::device(device_name)?;
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

        for precond in ["none", "jacobi", "ic"] {
            let pre = match precond {
                "none" => None,
                "jacobi" => Some(pg::preconditioner::jacobi(&dev, &mtx)?),
                _ => Some(pg::preconditioner::ic(&dev, &mtx)?),
            };
            let solver = pg::solver::cg(&dev, &mtx, pre, 2000, 1e-10)?;
            let mut x = pg::as_tensor_fill(&dev, (n, 1), "double", 0.0)?;

            let t0 = dev.executor().timeline().snapshot();
            let log = solver.apply(&b, &mut x)?;
            let elapsed = dev.executor().timeline().snapshot().since(&t0);

            println!(
                "{:<28} {:>14} {:>7} {:>12.2e} {:>11.3} ms",
                dev.hardware_name(),
                precond,
                log.iterations(),
                log.reduction(),
                elapsed.seconds() * 1e3
            );
            assert!(
                log.converged(),
                "{device_name}/{precond} failed to converge"
            );
        }
    }
    println!(
        "\n(times are virtual: the deterministic machine-model simulation documented in DESIGN.md)"
    );
    Ok(())
}
