//! Live telemetry: serve `/metrics`, `/healthz`, and `/runs` while solving.
//!
//! Observes a CG solver's flight reports, starts the std-only HTTP
//! exporter, runs a batch of Poisson solves, and keeps serving until you
//! press Enter — scrape it from another terminal while it runs:
//!
//! ```text
//! curl http://127.0.0.1:9185/metrics     # Prometheus text exposition
//! curl http://127.0.0.1:9185/healthz    # executor/pool/sanitizer liveness
//! curl http://127.0.0.1:9185/runs      # per-solve flight reports (JSON)
//! ```
//!
//! Set `PYGKO_TELEMETRY_ADDR` to change the bind address (use port 0 for an
//! OS-assigned port). Run with
//! `cargo run -p pyginkgo-examples --bin telemetry`.

use pyginkgo as pg;

fn main() -> Result<(), pg::PyGinkgoError> {
    let grid = 96usize;
    let m = pygko_matgen::generators::poisson2d("poisson", grid, grid);
    let n = m.rows;

    let dev = pg::device_with_id("omp", 4)?;
    let mtx = pg::SparseMatrix::from_triplets(
        &dev,
        (m.rows, m.cols),
        &m.triplets,
        "double",
        "int32",
        "Csr",
    )?;
    let solver = pg::solver::cg(&dev, &mtx, None, 10 * grid, 1e-10)?.observe(pg::Observe {
        flight: true,
        ..pg::Observe::default()
    })?;

    let addr =
        std::env::var("PYGKO_TELEMETRY_ADDR").unwrap_or_else(|_| "127.0.0.1:9185".to_string());
    let server = dev
        .executor()
        .serve_telemetry(&addr)
        .map_err(|e| pg::PyGinkgoError::Os(e.to_string()))?;
    println!("telemetry live on http://{}", server.addr());
    println!("  curl http://{}/metrics", server.addr());
    println!("  curl http://{}/healthz", server.addr());
    println!("  curl http://{}/runs", server.addr());

    let b = pg::as_tensor_fill(&dev, (n, 1), "double", 1.0)?;
    for i in 1..=5 {
        let mut x = pg::as_tensor_fill(&dev, (n, 1), "double", 0.0)?;
        let logger = solver.apply(&b, &mut x)?;
        println!(
            "solve {i}: {} iterations, residual {:.3e}",
            logger.iterations(),
            logger.final_residual()
        );
    }
    if let Some(report) = solver.observations().flight {
        println!(
            "latest flight report: seq {}, converged: {}, anomalies: {}",
            report.seq,
            report.converged,
            report.anomalies.len()
        );
    }

    println!("press Enter to stop serving...");
    let mut line = String::new();
    let _ = std::io::stdin().read_line(&mut line);
    server.shutdown();
    println!("exporter stopped");
    Ok(())
}
