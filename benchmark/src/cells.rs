//! The cells: one operation on one input, each feeding one end-to-end
//! metric. Everything here drives the library through its public functions
//! and times it from outside.

use crate::inputs::{Inputs, System, Workload};
use crate::oracle;
use crate::report::Report;
use crate::span::Tracer;
use pyginkgo as pg;
use pyginkgo::config_solver::SolveOptions;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Reduction factor the prebuilt solvers and the pipelines are asked for.
pub const SOLVE_TOL: f64 = 1e-8;
/// Restart length of every GMRES (Listing 1's `krylov_dim`).
pub const GMRES_RESTART: usize = 30;
/// Iteration cap of every solver; no workload comes near it.
pub const MAX_ITERS: usize = 5000;

/// Lanes of the `omp-L` executor: `min(nproc, 4)`. The submitting thread is
/// a lane, so the process runs `L` threads.
pub fn lanes() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(4)
}

/// Executor a set of cells runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Exec {
    /// `pg::device("reference")`: plain single-threaded code, no pool. Every
    /// gated metric runs here, see the README's host caveats.
    Reference,
    /// `pg::device_with_id("omp", L)` with `L` = [`lanes`].
    Omp,
}

impl Exec {
    /// Creates the device.
    pub fn device(self) -> pg::PyResult<pg::Device> {
        match self {
            Exec::Reference => pg::device("reference"),
            Exec::Omp => pg::device_with_id("omp", lanes()),
        }
    }
}

/// What one operation did.
#[derive(Clone, Copy, Debug)]
pub struct Outcome {
    /// Wall-clock seconds of the timed library calls.
    pub seconds: f64,
    /// Call returned `Ok`, solver converged, and the oracle agreed.
    pub ok: bool,
    /// Solver iterations (0 for SpMV).
    pub iterations: usize,
    /// Facade calls the operation made (`gil::total_calls` delta).
    pub gil_calls: u64,
    /// Pool activity of the operation's executor (`pool_stats` delta).
    pub pool: gko::PoolStats,
}

/// Which chain a cold pipeline runs after `read` and `convert`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Chain {
    /// ILU + CG.
    Spd,
    /// ILU + GMRES(30).
    Unsym,
}

enum Kind<'a> {
    Spmv {
        matrix: pg::SparseMatrix,
        b: pg::Tensor,
        x: pg::Tensor,
        want: &'a [f64],
    },
    Solve {
        solver: pg::solver::Solver,
        b: pg::Tensor,
        x: pg::Tensor,
        system: &'a System,
    },
    Storm {
        options: SolveOptions,
        systems: Vec<(pg::SparseMatrix, pg::Tensor, pg::Tensor, &'a System)>,
    },
    Pipeline {
        device: pg::Device,
        chain: Chain,
        input: PathBuf,
        output: PathBuf,
        system: &'a System,
    },
}

/// What the timed call of an operation hands to the check.
enum Done {
    Spmv,
    Solve(pg::Logger),
    Pipeline(pg::Logger, pg::Tensor),
}

/// One cell of a workload.
pub struct Cell<'a> {
    /// End-to-end metric the cell feeds.
    pub metric: &'static str,
    /// Unit of that metric.
    pub unit: &'static str,
    /// Workload the cell belongs to.
    pub group: Workload,
    kind: Kind<'a>,
}

impl Cell<'_> {
    /// Operations per round: the systems of a storm, otherwise one.
    pub fn ops(&self) -> usize {
        match &self.kind {
            Kind::Storm { systems, .. } => systems.len(),
            _ => 1,
        }
    }

    /// Converts the mean over operations of the per-operation minimum
    /// (seconds) into the metric's unit.
    pub fn metric_value(&self, seconds: f64) -> f64 {
        match &self.kind {
            Kind::Spmv { matrix, .. } => seconds * 1e9 / matrix.nnz() as f64,
            Kind::Storm { .. } => seconds * 1e6,
            Kind::Solve { .. } | Kind::Pipeline { .. } => seconds,
        }
    }

    /// Executor operation `op` runs on.
    pub fn executor(&self, op: usize) -> gko::Executor {
        let device = match &self.kind {
            Kind::Spmv { matrix, .. } => matrix.device(),
            Kind::Solve { solver, .. } => solver.device(),
            Kind::Storm { systems, .. } => systems[op].0.device(),
            Kind::Pipeline { device, .. } => device,
        };
        device.executor().clone()
    }

    /// Runs operation `op` once: reset, timed call, counters, check.
    pub fn run(&mut self, op: usize, tr: &mut Tracer) -> Outcome {
        tr.operation(|tr| {
            let exec = self.executor(op);
            let rhs = self.reset(op);
            let calls = pg::gil::total_calls();
            let pool = exec.pool_stats();
            let t0 = Instant::now();
            let done = self.call(op, rhs, tr);
            let seconds = t0.elapsed().as_secs_f64();
            let gil_calls = pg::gil::total_calls() - calls;
            let pool = exec.pool_stats().since(&pool);
            let (ok, iterations) = match done {
                Ok(done) => self.check(op, done),
                Err(_) => (false, 0),
            };
            Outcome {
                seconds,
                ok,
                iterations,
                gil_calls,
                pool,
            }
        })
    }

    /// Untimed preparation: zero the initial guess; a pipeline gets the
    /// right-hand side buffer its `as_tensor` call will consume.
    fn reset(&mut self, op: usize) -> Vec<f64> {
        match &mut self.kind {
            Kind::Spmv { .. } => Vec::new(),
            Kind::Solve { x, .. } => {
                x.fill(0.0);
                Vec::new()
            }
            Kind::Storm { systems, .. } => {
                systems[op].2.fill(0.0);
                Vec::new()
            }
            Kind::Pipeline { system, .. } => system.vector.clone(),
        }
    }

    /// The timed library calls.
    fn call(
        &mut self,
        op: usize,
        rhs: Vec<f64>,
        tr: &mut Tracer,
    ) -> Result<Done, Box<dyn std::error::Error>> {
        match &mut self.kind {
            Kind::Spmv { matrix, b, x, .. } => {
                tr.scope("spmv", |_| matrix.spmv_into(b, x))?;
                Ok(Done::Spmv)
            }
            Kind::Solve { solver, b, x, .. } => {
                Ok(Done::Solve(tr.scope("apply", |_| solver.apply(b, x))?))
            }
            Kind::Storm { options, systems } => {
                let (matrix, b, x, _) = &mut systems[op];
                Ok(Done::Solve(
                    tr.scope("solve", |_| pg::solve(matrix, b, x, options))?,
                ))
            }
            Kind::Pipeline {
                device,
                chain,
                input,
                output,
                system,
            } => pipeline(tr, device, *chain, input, output, system, rhs),
        }
    }

    /// Whether the operation's output is correct, and its iteration count.
    fn check(&self, op: usize, done: Done) -> (bool, usize) {
        match (&self.kind, done) {
            (Kind::Spmv { x, want, .. }, Done::Spmv) => (
                oracle::relative_error(&x.to_vec(), want) <= oracle::SPMV_TOL_F64,
                0,
            ),
            (Kind::Solve { x, system, .. }, Done::Solve(logger)) => {
                (solved(system, x, &logger, SOLVE_TOL), logger.iterations())
            }
            (Kind::Storm { options, systems }, Done::Solve(logger)) => {
                let (_, _, x, system) = &systems[op];
                (
                    solved(system, x, &logger, options.reduction_factor),
                    logger.iterations(),
                )
            }
            (Kind::Pipeline { output, system, .. }, Done::Pipeline(logger, x)) => (
                solved(system, &x, &logger, SOLVE_TOL) && written(output, system),
                logger.iterations(),
            ),
            _ => (false, 0),
        }
    }
}

/// Converged by the solver's own account and by the harness's residual.
fn solved(system: &System, x: &pg::Tensor, logger: &pg::Logger, tol: f64) -> bool {
    logger.converged()
        && oracle::relative_residual(&system.triplets, &x.to_vec(), &system.vector)
            <= oracle::RESIDUAL_SLACK * tol
}

/// The pipeline's output file holds the header of the matrix it was given.
fn written(output: &Path, system: &System) -> bool {
    let Ok(text) = std::fs::read_to_string(output) else {
        return false;
    };
    let size_line = format!("{} {} {}", system.n, system.n, system.nnz());
    text.lines().nth(2) == Some(size_line.as_str()) && text.lines().count() == system.nnz() + 3
}

/// What a user pays once per matrix: file -> COO -> CSR -> ILU -> solver ->
/// solution -> file.
///
/// The matrix goes back out through `pygko_mtx::write_mtx_file` on the
/// entries the harness holds: `pg::write` densifies (`to_triplets` walks
/// `to_dense`), which needs `8 n^2` bytes and cannot run at these sizes.
fn pipeline(
    tr: &mut Tracer,
    device: &pg::Device,
    chain: Chain,
    input: &Path,
    output: &Path,
    system: &System,
    rhs: Vec<f64>,
) -> Result<Done, Box<dyn std::error::Error>> {
    let coo = tr.scope("read", |_| pg::read(device, input, "double", "Coo"))?;
    let csr = tr.scope("convert", |_| coo.convert("Csr"))?;
    let ilu = tr.scope("precond", |_| pg::preconditioner::ilu(device, &csr))?;
    let solver = tr.scope("factory", |_| match chain {
        Chain::Spd => pg::solver::cg(device, &csr, Some(ilu), MAX_ITERS, SOLVE_TOL),
        Chain::Unsym => {
            pg::solver::gmres(device, &csr, Some(ilu), MAX_ITERS, GMRES_RESTART, SOLVE_TOL)
        }
    })?;
    let (b, mut x) = tr.scope("tensor", |_| {
        pg::as_tensor(rhs, device, (system.n, 1), "double")
            .and_then(|b| Ok((b, pg::as_tensor_fill(device, (system.n, 1), "double", 0.0)?)))
    })?;
    let logger = tr.scope("apply", |_| solver.apply(&b, &mut x))?;
    tr.scope("write", |_| {
        pygko_mtx::write_mtx_file(output, system.n, system.n, &system.triplets)
    })?;
    Ok(Done::Pipeline(logger, x))
}

/// Everything a set-up leaves behind for the measured rounds.
pub struct Bench<'a> {
    /// The device every cell runs on.
    pub device: pg::Device,
    /// All cells, in `BENCHMARK.json` metric order.
    pub cells: Vec<Cell<'a>>,
}

impl Bench<'_> {
    /// Peak bytes the device's executor tracked, in MB.
    pub fn peak_mem_mb(&self) -> f64 {
        self.device.executor().peak_bytes() as f64 / 1e6
    }
}

/// `system`'s matrix as a facade f64/i32 matrix of `format` on `device`.
pub fn facade_matrix(
    device: &pg::Device,
    system: &System,
    format: &str,
) -> pg::PyResult<pg::SparseMatrix> {
    pg::SparseMatrix::from_triplets(
        device,
        (system.n, system.n),
        &system.triplets,
        "double",
        "int32",
        format,
    )
}

/// `system`'s vector and a zero vector of the same length as facade tensors.
pub fn facade_vectors(
    device: &pg::Device,
    system: &System,
) -> pg::PyResult<(pg::Tensor, pg::Tensor)> {
    let b = pg::as_tensor(system.vector.clone(), device, (system.n, 1), "double")?;
    let x = pg::as_tensor_fill(device, (system.n, 1), "double", 0.0)?;
    Ok((b, x))
}

/// Sets the benchmark up on `exec`: device creation through the end of the
/// warm-up round, every library call included. `dir` receives the MTX files
/// of the cold pipelines.
pub fn setup<'a>(
    inputs: &'a Inputs,
    spmv_want: &'a [Vec<f64>; 2],
    dir: &Path,
    exec: Exec,
    tr: &mut Tracer,
    report: &mut Report,
) -> Result<Bench<'a>, Box<dyn std::error::Error>> {
    tr.scope("setup", |tr| {
        let device = tr.scope("device", |_| exec.device())?;
        let dev = &device;
        let matrix = |tr: &mut Tracer, system: &System, format: &str| {
            tr.scope("from_triplets", |_| facade_matrix(dev, system, format))
        };
        let vectors =
            |tr: &mut Tracer, system: &System| tr.scope("tensor", |_| facade_vectors(dev, system));
        let mut cells = Vec::new();

        let spmv_metrics = [
            ("spmv_csr_regular_ns_per_nnz", "Csr", 0),
            ("spmv_csr_skewed_ns_per_nnz", "Csr", 1),
            ("spmv_coo_regular_ns_per_nnz", "Coo", 0),
            ("spmv_coo_skewed_ns_per_nnz", "Coo", 1),
        ];
        for (metric, format, which) in spmv_metrics {
            let system = &inputs.spmv[which];
            let (b, x) = vectors(tr, system)?;
            cells.push(Cell {
                metric,
                unit: "ns/nnz",
                group: Workload::Spmv,
                kind: Kind::Spmv {
                    matrix: matrix(tr, system, format)?,
                    b,
                    x,
                    want: &spmv_want[which],
                },
            });
        }

        let krylov_metrics = ["cg_solve_s", "gmres_solve_s", "bicgstab_solve_s"];
        for (which, metric) in krylov_metrics.into_iter().enumerate() {
            let system = &inputs.krylov[which];
            let a = matrix(tr, system, "Csr")?;
            // CG runs unpreconditioned; GMRES and BiCGStab get scalar Jacobi.
            let pre = match which {
                0 => None,
                _ => Some(tr.scope("precond", |_| pg::preconditioner::jacobi(dev, &a))?),
            };
            let solver = tr.scope("factory", |_| match which {
                0 => pg::solver::cg(dev, &a, pre, MAX_ITERS, SOLVE_TOL),
                1 => pg::solver::gmres(dev, &a, pre, MAX_ITERS, GMRES_RESTART, SOLVE_TOL),
                _ => pg::solver::bicgstab(dev, &a, pre, MAX_ITERS, SOLVE_TOL),
            })?;
            let (b, x) = vectors(tr, system)?;
            cells.push(Cell {
                metric,
                unit: "s",
                group: Workload::Krylov,
                kind: Kind::Solve {
                    solver,
                    b,
                    x,
                    system,
                },
            });
        }

        let mut systems = Vec::new();
        for system in &inputs.storm {
            let a = matrix(tr, system, "Csr")?;
            let (b, x) = vectors(tr, system)?;
            systems.push((a, b, x, system));
        }
        cells.push(Cell {
            metric: "storm_ref_solve_us",
            unit: "us",
            group: Workload::Storm,
            kind: Kind::Storm {
                options: SolveOptions::default(),
                systems,
            },
        });

        let pipeline_metrics = [
            ("pipeline_spd_s", Chain::Spd, "spd"),
            ("pipeline_unsym_s", Chain::Unsym, "unsym"),
        ];
        for (which, (metric, chain, stem)) in pipeline_metrics.into_iter().enumerate() {
            let system = &inputs.pipeline[which];
            let input = dir.join(format!("{stem}_in.mtx"));
            tr.scope("write", |_| {
                pygko_mtx::write_mtx_file(&input, system.n, system.n, &system.triplets)
            })?;
            cells.push(Cell {
                metric,
                unit: "s",
                group: Workload::ColdPipeline,
                kind: Kind::Pipeline {
                    device: device.clone(),
                    chain,
                    input,
                    output: dir.join(format!("{stem}_out.mtx")),
                    system,
                },
            });
        }

        // Warm-up: one untimed round (first-apply plan build, allocator
        // growth, pool spawn on `omp`), checked like any other.
        for cell in &mut cells {
            for op in 0..cell.ops() {
                report.count(cell.run(op, tr).ok);
            }
        }
        Ok(Bench { device, cells })
    })
}
