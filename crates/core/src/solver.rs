//! Direct solver bindings (Fig. 2): `pg.solver.gmres`, `cg`, `cgs`,
//! `bicgstab`, `direct`, and the triangular solvers.
//!
//! `Solver::apply(b, x)` solves `A x = b` using `x` as the initial guess and
//! returns the [`Logger`] — Listing 1's `logger, result = solver.apply(b, x)`
//! (the "result" is `x`, overwritten in place, exactly as the paper
//! describes).

use crate::device::Device;
use crate::dispatch::{with_dtype, Generate, MatrixImpl, OpImpl};
use crate::error::{PyGinkgoError, PyResult};
use crate::gil::binding_call;
use crate::logger::{Logger, LoggerData, ProfileEntry};
use crate::matrix::SparseMatrix;
use crate::preconditioner::Preconditioner;
use crate::tensor::Tensor;
use gko::log::{ConvergenceLogger, Logger as EventLogger, Record, SharedBuf, Stream};
use gko::matrix::Dense;
use gko::solver::{iterative_by_name, BatchSolveRecord};
use gko::stop::Criteria;
use gko::{
    FlightReport, LinOp, MetricsSnapshot, ObserveConfig, PoolStats, ProfileSnapshot,
    SanitizerReport, TraceConfig, TraceReport, Value,
};
use std::sync::Arc;

/// What a solver observes — the one argument of [`Solver::observe`], the
/// facade over Ginkgo's `add_logger` and the engine's
/// [`gko::Executor::observe`]. The default observes nothing.
///
/// Everything here is a property of the solver's *device executor*: the
/// loggers and planes see kernel launches, allocations, and pool dispatches
/// of every operation on the device alongside this solver's iteration
/// events.
#[derive(Clone, Debug, Default)]
pub struct Observe {
    /// Keep a bounded in-memory history of this many events
    /// (`Record::DEFAULT_CAPACITY` is Ginkgo's default capacity); overflow is
    /// counted in [`LoggerData::dropped_events`], never silently lost.
    pub record: Option<usize>,
    /// Render events to an internal text buffer.
    pub stream: bool,
    /// The metrics plane: latency histograms with p50/p95/p99 and the
    /// Prometheus exporter ([`gko::ObserveConfig::metrics`]).
    pub metrics: bool,
    /// The flight plane: every solve summarized into a bounded ring of
    /// [`FlightReport`]s (residual trajectory, per-kernel latency quantiles,
    /// per-lane pool utilization), annotated with this solver's system
    /// matrix and screened by the stagnation/divergence, lane-imbalance, and
    /// latency-drift detectors ([`gko::ObserveConfig::flight`]).
    pub flight: bool,
    /// The trace plane: every solve assembles a span tree (`solve →
    /// iteration → kernel apply → plan build → pool dispatch → per-lane
    /// chunk spans`) offered to a bounded, tail-sampled ring — anomalous or
    /// slow solves are always retained, healthy ones head-sampled 1 in this
    /// many (at least 1; `1` retains every solve). Implies `flight`
    /// ([`gko::ObserveConfig::trace`]).
    pub trace: Option<u64>,
    /// The profile plane: every solve's span tree (sampled out or not)
    /// folded into a bounded flame aggregate keyed by span path.
    /// Implies `trace` ([`gko::ObserveConfig::profile`]).
    pub profile: bool,
    /// Runtime sanitizer mode: `"pool"` arms the chunk-overlap detector on
    /// the device executor (every pool job records which lane claimed which
    /// piece and the claim log is checked for exact disjoint coverage after
    /// the drain), `"values"` checks the right-hand side for NaN/Inf before
    /// each apply and the solution after it, and `"full"` (or `"on"`)
    /// enables both.
    pub sanitize: Option<String>,
}

/// Everything a solver's device executor has observed — the one reader,
/// [`Solver::observations`]. Planes that are off read `None`.
#[derive(Clone, Debug)]
pub struct Observations {
    /// What the `record` and `stream` loggers saw, plus (with `metrics`) the
    /// per-kernel table and counters.
    pub logger: LoggerData,
    /// Per-kernel call counts and latency quantiles, solver iteration
    /// counters, and pool-dispatch and allocation histograms.
    pub metrics: Option<MetricsSnapshot>,
    /// The most recent flight report (`None` until a solve completed).
    pub flight: Option<FlightReport>,
    /// The most recently retained span tree (`None` while every completed
    /// solve was sampled out).
    pub trace: Option<TraceReport>,
    /// The flame tree, flattened.
    pub profile: Option<ProfileSnapshot>,
    /// How many pool jobs and chunk claims the chunk-overlap detector has
    /// verified disjoint (all zero until `sanitize` arms it).
    pub sanitizer: SanitizerReport,
}

/// What the last [`Solver::observe`] attached, kept so the next one can
/// detach it and [`Solver::observations`] can read it back.
#[derive(Clone, Default)]
struct Observing {
    record: Option<Arc<Record>>,
    stream: Option<(Arc<Stream>, SharedBuf)>,
    /// The device pool's counters at that moment, so the reader reports
    /// only what ran since.
    pool_mark: PoolStats,
}

/// A ready-to-apply solver bound to a device.
#[derive(Clone)]
pub struct Solver {
    pub(crate) inner: OpImpl,
    logger: ConvergenceLogger,
    name: &'static str,
    device: Device,
    observing: Observing,
    /// Check operand tensors for NaN/Inf around every apply — set by
    /// [`Observe::sanitize`].
    sanitize_values: bool,
    /// System matrix descriptor (rows, cols, nnz, format name), kept so
    /// flight reports can be annotated with it.
    system: (usize, usize, usize, &'static str),
    /// Stopping criteria the solver was built with, reused verbatim for
    /// batched solves so `apply` and `solve_batch` agree on convergence.
    criteria: Criteria,
    /// The system matrix handle, kept so [`Solver::solve_batch`] can build a
    /// replicated [`BatchCsr`]. `None` for direct/triangular solvers, which
    /// do not batch.
    batch_source: Option<MatrixImpl>,
}

/// Per-system outcome of a [`Solver::solve_batch`] call — the batched
/// counterpart of [`Logger`], one entry per right-hand-side column.
#[derive(Clone, Debug, Default)]
pub struct BatchSolveResult {
    /// Completed iterations per system.
    pub iterations: Vec<usize>,
    /// Human-readable stop reason per system, matching
    /// [`Logger::stop_reason`] wording.
    pub stop_reasons: Vec<&'static str>,
    /// Whether each system met a convergence criterion.
    pub converged: Vec<bool>,
    /// Initial residual norm per system.
    pub initial_residuals: Vec<f64>,
    /// Final residual norm per system.
    pub final_residuals: Vec<f64>,
}

impl BatchSolveResult {
    fn from_record(record: &BatchSolveRecord) -> Self {
        let mut out = BatchSolveResult::default();
        for o in &record.outcomes {
            out.iterations.push(o.iterations);
            out.initial_residuals.push(o.initial_residual);
            out.final_residuals.push(o.final_residual);
            out.converged.push(o.converged());
            out.stop_reasons.push(o.stop_reason.describe());
        }
        out
    }

    /// Number of systems in the batch.
    pub fn num_systems(&self) -> usize {
        self.iterations.len()
    }

    /// How many systems converged.
    pub fn converged_count(&self) -> usize {
        self.converged.iter().filter(|c| **c).count()
    }

    /// `true` when every system converged.
    pub fn all_converged(&self) -> bool {
        self.converged.iter().all(|c| *c)
    }
}

impl Solver {
    /// Solver algorithm name (`"gmres"`, `"cg"`, ...).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The device the solver runs on.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// Sets what this solver observes on its device executor — pyGinkgo's
    /// `solver.with_logger(..)` surface over Ginkgo's `add_logger`, and the
    /// facade over [`gko::Executor::observe`]. `what` is the complete
    /// desired state: observing again *replaces* what the previous call
    /// attached, and `Observe::default()` detaches it all and returns the
    /// executor to its inert path. Read results via
    /// [`Solver::observations`], or serve them live via
    /// [`gko::Executor::serve_telemetry`].
    pub fn observe(mut self, what: Observe) -> PyResult<Self> {
        if what.record == Some(0) {
            return Err(PyGinkgoError::Value(
                "bad record capacity '0' (expected a positive integer)".to_string(),
            ));
        }
        if what.trace == Some(0) {
            return Err(PyGinkgoError::Value(
                "tracing sample_n must be >= 1 (1 retains every solve)".to_string(),
            ));
        }
        let mode = what.sanitize.as_deref().map(str::to_ascii_lowercase);
        let (check_pool, check_values) = match mode.as_deref() {
            None => (false, false),
            Some("pool") => (true, false),
            Some("values") => (false, true),
            Some("full" | "on") => (true, true),
            Some(other) => {
                return Err(PyGinkgoError::Value(format!(
                    "unknown sanitizer mode '{other}' \
                     (expected pool, values, or full)"
                )))
            }
        };

        let exec = self.device.executor();
        let previous = std::mem::take(&mut self.observing);
        if let Some(record) = previous.record {
            exec.loggers().remove(&(record as Arc<dyn EventLogger>));
        }
        if let Some((stream, _)) = previous.stream {
            exec.loggers().remove(&(stream as Arc<dyn EventLogger>));
        }
        if let Some(capacity) = what.record {
            let record = Arc::new(Record::with_capacity(capacity));
            exec.add_logger(record.clone());
            self.observing.record = Some(record);
        }
        if what.stream {
            let buf = SharedBuf::new();
            let stream = Arc::new(Stream::new(buf.clone()));
            exec.add_logger(stream.clone());
            self.observing.stream = Some((stream, buf));
        }
        exec.observe(ObserveConfig {
            metrics: what.metrics,
            flight: what.flight.then(Default::default),
            trace: what.trace.map(|sample_n| TraceConfig {
                sample_n,
                ..Default::default()
            }),
            profile: what.profile,
        });
        let (rows, cols, nnz, format) = self.system;
        exec.observer().annotate(rows, cols, nnz, format);
        if check_pool {
            exec.enable_sanitizer();
        } else {
            exec.disable_sanitizer();
        }
        self.sanitize_values = check_values;
        self.observing.pool_mark = exec.pool_stats();
        Ok(self)
    }

    /// Snapshot of everything the device executor has observed so far: what
    /// this solver's `record` and `stream` loggers saw, and every plane the
    /// executor currently runs.
    pub fn observations(&self) -> Observations {
        let exec = self.device.executor();
        let observer = exec.observer();
        let config = exec.observing();
        let metrics = observer.metrics();
        let profile = config.profile.then(|| observer.profile());

        let mut data = LoggerData::default();
        if let Some(record) = &self.observing.record {
            data.events = record.events().iter().map(|e| e.to_string()).collect();
            data.dropped_events = record.dropped();
        }
        if let Some((_, buf)) = &self.observing.stream {
            data.stream = buf.contents();
        }
        if let Some(snap) = &metrics {
            let self_wall_ns = |op: &str| {
                let nodes = profile.iter().flat_map(|flame| &flame.nodes);
                nodes.filter(|n| n.name == op).map(|n| n.self_wall_ns).sum()
            };
            data.profile = snap
                .kernels
                .iter()
                .map(|k| ProfileEntry {
                    op: k.op.clone(),
                    calls: k.calls,
                    wall_ns: k.wall_ns.sum,
                    virtual_ns: k.virtual_ns.sum,
                    self_wall_ns: self_wall_ns(&k.op),
                })
                .collect();
            data.profile
                .sort_by(|a, b| b.virtual_ns.cmp(&a.virtual_ns).then(a.op.cmp(&b.op)));
            let pool = exec.pool_stats().since(&self.observing.pool_mark);
            data.pool_dispatches = pool.dispatches;
            data.pool_chunks = pool.chunks;
            data.pool_steals = pool.steals;
        }
        Observations {
            logger: data,
            metrics,
            flight: observer.latest_run(),
            trace: config.trace.and_then(|_| observer.latest_trace()),
            profile,
            sanitizer: exec.sanitizer_report(),
        }
    }

    /// Solves `A x = b`: `x` is the initial guess on entry, the solution on
    /// exit. Returns the convergence logger.
    pub fn apply(&self, b: &Tensor, x: &mut Tensor) -> PyResult<Logger> {
        binding_call(&self.device, || {
            with_dtype!(("solver", &self.inner), ("b", &b.data), ("x", &mut x.data); |s, bd, xd| {
                self.sanitize("rhs", bd)?;
                s.apply(bd, xd)?;
                self.sanitize("solution", xd)
            })?;
            Ok(Logger::from_engine(&self.logger))
        })
    }

    /// The NaN/Inf operand check [`Observe::sanitize`] arms.
    fn sanitize<V: Value>(&self, what: &str, operand: &Dense<V>) -> PyResult<()> {
        if self.sanitize_values {
            gko::sanitize::check_finite(what, operand.as_slice())?;
        }
        Ok(())
    }

    /// Solves `A x_s = b_s` for every column `s` of `b` in one batched solve:
    /// `b` and `x` are `(n, S)` tensors holding one system per column, `x`
    /// carries the initial guesses on entry and the solutions on exit.
    ///
    /// The `S` systems are one [`gko::matrix::BatchCsr`] that stores the
    /// matrix once, so one pool drain per kernel serves all of them. Each
    /// system stops independently against the criteria this solver was built
    /// with; per-system iteration counts and stop reasons come back in the
    /// [`BatchSolveResult`]. Only `cg` and `bicgstab` batch, and the system
    /// matrix must be CSR.
    pub fn solve_batch(&self, b: &Tensor, x: &mut Tensor) -> PyResult<BatchSolveResult> {
        binding_call(&self.device, || {
            // Every Krylov solver keeps its system matrix; two of them batch.
            let (Some(source), "cg" | "bicgstab") = (&self.batch_source, self.name) else {
                return Err(PyGinkgoError::Value(format!(
                    "batched solves support cg and bicgstab, not '{}'",
                    self.name
                )));
            };
            let (bn, bs) = b.shape();
            let (xn, xs) = x.shape();
            if bn != xn || bs != xs {
                return Err(PyGinkgoError::Value(format!(
                    "batched solve: b has shape ({bn}, {bs}) but x has shape ({xn}, {xs})"
                )));
            }
            if bs == 0 {
                return Err(PyGinkgoError::Value(
                    "batched solve needs at least one right-hand-side column".into(),
                ));
            }
            with_dtype!(("solver", source), ("b", &b.data), ("x", &mut x.data); |m, bd, xd| {
                let csr = m.clone().csr().ok_or_else(|| {
                    PyGinkgoError::Type(
                        "batched solves need a CSR system matrix (convert COO with convert(\"Csr\"))"
                            .into(),
                    )
                })?;
                self.sanitize("rhs", bd)?;
                let record = csr.solve_batch(self.name == "cg", self.criteria, bd, xd)?;
                self.sanitize("solution", xd)?;
                Ok(BatchSolveResult::from_record(&record))
            })
        })
    }
}

/// Every solver method the facade knows by name: facade name, engine name.
/// [`crate::config_solver::SolveOptions`] takes all of them; the ones the
/// engine's iterative factory builds also have a direct binding here.
const METHODS: [(&str, &str); 9] = [
    ("cg", "solver::Cg"),
    ("fcg", "solver::Fcg"),
    ("cgs", "solver::Cgs"),
    ("bicgstab", "solver::Bicgstab"),
    ("minres", "solver::Minres"),
    ("gmres", "solver::Gmres"),
    ("ir", "solver::Ir"),
    ("richardson", "solver::Ir"),
    ("direct", "solver::Direct"),
];

/// Looks a method up (case-insensitively): its facade and engine names.
pub(crate) fn method(name: &str) -> PyResult<(&'static str, &'static str)> {
    let name = name.to_ascii_lowercase();
    let known = METHODS.iter().find(|(facade, _)| *facade == name);
    known
        .copied()
        .ok_or_else(|| PyGinkgoError::Value(format!("unknown solver method '{name}'")))
}

impl Solver {
    /// A solver fresh from its factory, nothing observed yet: one with no
    /// iteration to log, no criteria and no matrix to batch over, until
    /// [`make_krylov`] says otherwise.
    fn new(device: &Device, matrix: &SparseMatrix, name: &'static str, inner: OpImpl) -> Solver {
        let (rows, cols) = matrix.shape();
        Solver {
            inner,
            logger: ConvergenceLogger::new(),
            name,
            device: device.clone(),
            observing: Observing::default(),
            sanitize_values: false,
            system: (rows, cols, matrix.nnz(), matrix.format().name()),
            criteria: Criteria::default(),
            batch_source: None,
        }
    }
}

/// Builds the engine's iterative solver `engine` over `system` and wraps it
/// into the handle variant `wrap` constructs.
fn iterative<V: Value>(
    engine: &str,
    system: Arc<dyn LinOp<V>>,
    precond: Option<&Arc<dyn LinOp<V>>>,
    criteria: Criteria,
    krylov_dim: Option<usize>,
    wrap: fn(Arc<dyn LinOp<V>>) -> OpImpl,
) -> PyResult<(OpImpl, ConvergenceLogger)> {
    let (op, logger) =
        iterative_by_name(engine, system, criteria, precond.cloned(), krylov_dim, None)?;
    Ok((wrap(op), logger))
}

fn make_krylov(
    device: &Device,
    matrix: &SparseMatrix,
    precond: Option<Preconditioner>,
    method_name: &str,
    krylov_dim: Option<usize>,
    criteria: Criteria,
) -> PyResult<Solver> {
    let (name, engine) = method(method_name)?;
    binding_call(device, || {
        // The Krylov path needs no index type: the matrix is its operator.
        let (inner, logger) = match &precond {
            None => with_dtype!(&matrix.inner, |m as wrap| {
                iterative(engine, m.clone(), None, criteria, krylov_dim, wrap)
            }),
            Some(p) => {
                with_dtype!(("matrix", &matrix.inner), ("preconditioner", &p.inner); |m, p as wrap| {
                    iterative(engine, m.clone(), Some(p), criteria, krylov_dim, wrap)
                })
            }
        }?;
        Ok(Solver {
            logger,
            criteria,
            batch_source: Some(matrix.inner.clone()),
            ..Solver::new(device, matrix, name, inner)
        })
    })
}

/// GMRES — Listing 1's
/// `pg.solver.gmres(dev, mtx, preconditioner, max_iters, krylov_dim,
/// reduction_factor)`.
pub fn gmres(
    device: &Device,
    matrix: &SparseMatrix,
    preconditioner: Option<Preconditioner>,
    max_iters: usize,
    krylov_dim: usize,
    reduction_factor: f64,
) -> PyResult<Solver> {
    if krylov_dim == 0 {
        return Err(PyGinkgoError::Value("krylov_dim must be positive".into()));
    }
    make_krylov(
        device,
        matrix,
        preconditioner,
        "gmres",
        Some(krylov_dim),
        Criteria::iterations_and_reduction(max_iters, reduction_factor),
    )
}

/// Conjugate Gradient for SPD systems.
pub fn cg(
    device: &Device,
    matrix: &SparseMatrix,
    preconditioner: Option<Preconditioner>,
    max_iters: usize,
    reduction_factor: f64,
) -> PyResult<Solver> {
    make_krylov(
        device,
        matrix,
        preconditioner,
        "cg",
        None,
        Criteria::iterations_and_reduction(max_iters, reduction_factor),
    )
}

/// Conjugate Gradient Squared.
pub fn cgs(
    device: &Device,
    matrix: &SparseMatrix,
    preconditioner: Option<Preconditioner>,
    max_iters: usize,
    reduction_factor: f64,
) -> PyResult<Solver> {
    make_krylov(
        device,
        matrix,
        preconditioner,
        "cgs",
        None,
        Criteria::iterations_and_reduction(max_iters, reduction_factor),
    )
}

/// BiCGStab.
pub fn bicgstab(
    device: &Device,
    matrix: &SparseMatrix,
    preconditioner: Option<Preconditioner>,
    max_iters: usize,
    reduction_factor: f64,
) -> PyResult<Solver> {
    make_krylov(
        device,
        matrix,
        preconditioner,
        "bicgstab",
        None,
        Criteria::iterations_and_reduction(max_iters, reduction_factor),
    )
}

/// Builds a Krylov solver with an iteration-only stopping criterion — the
/// paper's fixed-iteration solver benchmark mode (§6.2.1).
pub fn krylov_fixed_iters(
    device: &Device,
    matrix: &SparseMatrix,
    method: &str,
    iters: usize,
    krylov_dim: usize,
) -> PyResult<Solver> {
    make_krylov(
        device,
        matrix,
        None,
        method,
        Some(krylov_dim),
        Criteria::iterations(iters),
    )
}

/// Dense-LU direct solver binding.
pub fn direct(device: &Device, matrix: &SparseMatrix) -> PyResult<Solver> {
    Ok(Solver::new(
        device,
        matrix,
        "direct",
        matrix.generate(device, Generate::Direct)?,
    ))
}

/// Lower triangular solver binding.
pub fn lower_trs(device: &Device, matrix: &SparseMatrix) -> PyResult<Solver> {
    Ok(Solver::new(
        device,
        matrix,
        "lower_trs",
        matrix.generate(device, Generate::LowerTrs)?,
    ))
}

/// Upper triangular solver binding.
pub fn upper_trs(device: &Device, matrix: &SparseMatrix) -> PyResult<Solver> {
    Ok(Solver::new(
        device,
        matrix,
        "upper_trs",
        matrix.generate(device, Generate::UpperTrs)?,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::device;
    use crate::preconditioner;
    use crate::tensor::as_tensor_fill;

    fn spd(dev: &Device, n: usize, dtype: &str) -> SparseMatrix {
        let mut t = vec![];
        for i in 0..n {
            t.push((i, i, 4.0));
            if i > 0 {
                t.push((i, i - 1, -1.0));
                t.push((i - 1, i, -1.0));
            }
        }
        SparseMatrix::from_triplets(dev, (n, n), &t, dtype, "int32", "Csr").unwrap()
    }

    #[test]
    fn listing_1_gmres_with_ilu() {
        let dev = device("cuda").unwrap();
        let mtx = spd(&dev, 50, "double");
        let b = as_tensor_fill(&dev, (50, 1), "double", 1.0).unwrap();
        let mut x = as_tensor_fill(&dev, (50, 1), "double", 0.0).unwrap();
        let pre = preconditioner::ilu(&dev, &mtx).unwrap();
        let solver = gmres(&dev, &mtx, Some(pre), 1000, 30, 1e-6).unwrap();
        let logger = solver.apply(&b, &mut x).unwrap();
        assert!(logger.converged(), "{}", logger.stop_reason());
        // Verify the residual through the facade.
        let ax = mtx.spmv(&x).unwrap();
        let mut r = b.clone();
        r.add_scaled(-1.0, &ax).unwrap();
        assert!(r.norm() < 1e-5 * b.norm() * 10.0, "residual {}", r.norm());
    }

    /// A restart too large to allocate is a restart the solve never reaches.
    #[test]
    fn gmres_with_a_huge_krylov_dim_solves() {
        let dev = device("reference").unwrap();
        let mtx = spd(&dev, 40, "double");
        let b = as_tensor_fill(&dev, (40, 1), "double", 1.0).unwrap();
        let solve = |krylov_dim: usize| {
            let mut x = as_tensor_fill(&dev, (40, 1), "double", 0.0).unwrap();
            let solver = gmres(&dev, &mtx, None, 1000, krylov_dim, 1e-10).unwrap();
            let logger = solver.apply(&b, &mut x).unwrap();
            assert!(logger.converged(), "{}", logger.stop_reason());
            (
                logger.iterations(),
                x.to_vec().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            )
        };
        assert_eq!(solve(usize::MAX >> 1), solve(100));
    }

    #[test]
    fn all_krylov_methods_solve() {
        let dev = device("reference").unwrap();
        let mtx = spd(&dev, 32, "double");
        let b = as_tensor_fill(&dev, (32, 1), "double", 1.0).unwrap();
        for build in [cg, cgs, bicgstab] {
            let solver = build(&dev, &mtx, None, 500, 1e-9).unwrap();
            let mut x = as_tensor_fill(&dev, (32, 1), "double", 0.0).unwrap();
            let log = solver.apply(&b, &mut x).unwrap();
            assert!(
                log.converged(),
                "{} failed: {}",
                solver.name(),
                log.stop_reason()
            );
        }
    }

    #[test]
    fn fixed_iteration_mode_runs_exactly_n_iterations() {
        let dev = device("reference").unwrap();
        let mtx = spd(&dev, 64, "double");
        let b = as_tensor_fill(&dev, (64, 1), "double", 1.0).unwrap();
        for method in ["cg", "cgs", "gmres", "bicgstab"] {
            let solver = krylov_fixed_iters(&dev, &mtx, method, 10, 30).unwrap();
            let mut x = as_tensor_fill(&dev, (64, 1), "double", 0.0).unwrap();
            let log = solver.apply(&b, &mut x).unwrap();
            assert_eq!(log.iterations(), 10, "{method}");
            assert!(!log.converged());
        }
        assert!(krylov_fixed_iters(&dev, &mtx, "sor", 10, 30).is_err());
    }

    /// One method table: what `pg::solve` takes by name, the fixed-iteration
    /// factory takes too (it used to know four of the seven iterative ones).
    #[test]
    fn fixed_iteration_mode_knows_every_iterative_method() {
        let dev = device("reference").unwrap();
        let mtx = spd(&dev, 64, "double");
        let b = as_tensor_fill(&dev, (64, 1), "double", 1.0).unwrap();
        for method in [
            "cg", "fcg", "cgs", "bicgstab", "minres", "gmres", "ir", "FCG",
        ] {
            let solver = krylov_fixed_iters(&dev, &mtx, method, 3, 30).unwrap();
            assert_eq!(solver.name(), method.to_ascii_lowercase());
            let mut x = as_tensor_fill(&dev, (64, 1), "double", 0.0).unwrap();
            assert_eq!(
                solver.apply(&b, &mut x).unwrap().iterations(),
                3,
                "{method}"
            );
        }
        // Known by name, but not an iteration to fix the count of.
        assert!(matches!(
            krylov_fixed_iters(&dev, &mtx, "direct", 3, 30),
            Err(PyGinkgoError::Value(_))
        ));
    }

    #[test]
    fn direct_solver_is_exact() {
        let dev = device("reference").unwrap();
        let mtx = spd(&dev, 12, "double");
        let solver = direct(&dev, &mtx).unwrap();
        let b = as_tensor_fill(&dev, (12, 1), "double", 1.0).unwrap();
        let mut x = as_tensor_fill(&dev, (12, 1), "double", 0.0).unwrap();
        solver.apply(&b, &mut x).unwrap();
        let ax = mtx.spmv(&x).unwrap();
        let mut r = b.clone();
        r.add_scaled(-1.0, &ax).unwrap();
        assert!(r.norm() < 1e-10, "residual {}", r.norm());
    }

    #[test]
    fn triangular_solvers_work_through_facade() {
        let dev = device("reference").unwrap();
        let l = SparseMatrix::from_triplets(
            &dev,
            (2, 2),
            &[(0, 0, 2.0), (1, 0, 3.0), (1, 1, 4.0)],
            "double",
            "int32",
            "Csr",
        )
        .unwrap();
        let solver = lower_trs(&dev, &l).unwrap();
        let b = crate::tensor::as_tensor(vec![2.0, 11.0], &dev, (2, 1), "double").unwrap();
        let mut x = as_tensor_fill(&dev, (2, 1), "double", 0.0).unwrap();
        solver.apply(&b, &mut x).unwrap();
        assert_eq!(x.to_vec(), vec![1.0, 2.0]);

        let u = SparseMatrix::from_triplets(
            &dev,
            (2, 2),
            &[(0, 0, 2.0), (0, 1, 1.0), (1, 1, 4.0)],
            "double",
            "int32",
            "Csr",
        )
        .unwrap();
        let solver = upper_trs(&dev, &u).unwrap();
        let b = crate::tensor::as_tensor(vec![4.0, 8.0], &dev, (2, 1), "double").unwrap();
        let mut x = as_tensor_fill(&dev, (2, 1), "double", 0.0).unwrap();
        solver.apply(&b, &mut x).unwrap();
        assert_eq!(x.to_vec(), vec![1.0, 2.0]);
    }

    #[test]
    fn dtype_mismatches_raise_type_errors() {
        let dev = device("reference").unwrap();
        let mtx = spd(&dev, 8, "double");
        let solver = cg(&dev, &mtx, None, 100, 1e-8).unwrap();
        let b = as_tensor_fill(&dev, (8, 1), "float", 1.0).unwrap();
        let mut x = as_tensor_fill(&dev, (8, 1), "float", 0.0).unwrap();
        assert!(matches!(
            solver.apply(&b, &mut x),
            Err(PyGinkgoError::Type(_))
        ));

        // Preconditioner dtype mismatch.
        let mtx_f = spd(&dev, 8, "float");
        let pre = preconditioner::jacobi(&dev, &mtx_f).unwrap();
        assert!(matches!(
            cg(&dev, &mtx, Some(pre), 100, 1e-8),
            Err(PyGinkgoError::Type(_))
        ));
    }

    #[test]
    fn half_precision_solver_runs() {
        let dev = device("reference").unwrap();
        let mtx = spd(&dev, 16, "half");
        let solver = cg(&dev, &mtx, None, 200, 1e-2).unwrap();
        let b = as_tensor_fill(&dev, (16, 1), "half", 1.0).unwrap();
        let mut x = as_tensor_fill(&dev, (16, 1), "half", 0.0).unwrap();
        let log = solver.apply(&b, &mut x).unwrap();
        assert!(log.iterations() > 0);
    }

    #[test]
    fn with_logger_exposes_events_stream_and_profile() {
        let dev = device("reference").unwrap();
        let mtx = spd(&dev, 32, "double");
        let solver = cg(&dev, &mtx, None, 200, 1e-9)
            .unwrap()
            .observe(Observe {
                record: Some(Record::DEFAULT_CAPACITY),
                stream: true,
                metrics: true,
                profile: true,
                ..Observe::default()
            })
            .unwrap();
        let b = as_tensor_fill(&dev, (32, 1), "double", 1.0).unwrap();
        let mut x = as_tensor_fill(&dev, (32, 1), "double", 0.0).unwrap();
        let log = solver.apply(&b, &mut x).unwrap();
        assert!(log.converged());

        let seen = solver.observations();
        let data = seen.logger;
        assert!(
            data.events.iter().any(|e| e.contains("iteration")),
            "record logger should capture iteration events"
        );
        assert!(
            data.stream.contains("[gko]"),
            "stream text: {}",
            data.stream
        );
        let ops: Vec<&str> = data.profile.iter().map(|p| p.op.as_str()).collect();
        assert!(ops.contains(&"csr"), "profile ops: {ops:?}");
        assert!(ops.contains(&"dense::dot"), "profile ops: {ops:?}");
        assert!(ops.contains(&"solver::Cg"), "profile ops: {ops:?}");
        assert!(
            data.profile
                .iter()
                .any(|p| p.op == "csr" && p.self_wall_ns > 0),
            "self time comes from the flame profile: {:?}",
            data.profile
        );
        let snap = seen.metrics.expect("metrics observed");
        let iterations: u64 = snap.solver_iterations.iter().map(|(_, n)| n).sum();
        assert_eq!(iterations, log.iterations() as u64);
        assert_eq!(snap.solves, 1);
        assert!(snap.alloc_bytes.count > 0);

        // A zero sampling period is rejected.
        let plain = cg(&dev, &mtx, None, 10, 1e-9).unwrap();
        let bad = Observe {
            trace: Some(0),
            ..Observe::default()
        };
        assert!(matches!(plain.observe(bad), Err(PyGinkgoError::Value(_))));
    }

    /// `observe` states the complete desired state: observing again replaces
    /// what the previous call attached, and the default detaches it all.
    #[test]
    fn observing_again_replaces_instead_of_accumulating() {
        let dev = device("reference").unwrap();
        let mtx = spd(&dev, 16, "double");
        let exec = dev.executor();
        assert!(!exec.loggers().is_active());
        let recording = Observe {
            record: Some(Record::DEFAULT_CAPACITY),
            ..Observe::default()
        };
        let solver = cg(&dev, &mtx, None, 100, 1e-9)
            .unwrap()
            .observe(recording.clone())
            .unwrap()
            .observe(recording)
            .unwrap();
        assert_eq!(exec.loggers().len(), 1, "the first record was detached");

        let b = as_tensor_fill(&dev, (16, 1), "double", 1.0).unwrap();
        let mut x = as_tensor_fill(&dev, (16, 1), "double", 0.0).unwrap();
        solver.apply(&b, &mut x).unwrap();
        assert!(
            !solver.observations().logger.events.is_empty(),
            "the second one records"
        );

        let everything = Observe {
            record: Some(64),
            stream: true,
            metrics: true,
            trace: Some(1),
            profile: true,
            sanitize: Some("full".to_string()),
            ..Observe::default()
        };
        let solver = solver.observe(everything).unwrap();
        assert_eq!(exec.loggers().len(), 3, "record, stream and the observer");
        let solver = solver.observe(Observe::default()).unwrap();
        assert!(!exec.loggers().is_active(), "the executor is inert again");
        assert!(!exec.sanitizer().is_enabled());
        let seen = solver.observations();
        assert!(seen.logger.events.is_empty() && seen.metrics.is_none() && seen.flight.is_none());
        assert!(seen.trace.is_none() && seen.profile.is_none());
    }

    #[test]
    fn record_overflow_is_observable_not_silent() {
        let dev = device("reference").unwrap();
        let mtx = spd(&dev, 32, "double");
        // A CG solve on a 32x32 system emits far more than 8 events.
        let solver = cg(&dev, &mtx, None, 200, 1e-9)
            .unwrap()
            .observe(Observe {
                record: Some(8),
                ..Observe::default()
            })
            .unwrap();
        let b = as_tensor_fill(&dev, (32, 1), "double", 1.0).unwrap();
        let mut x = as_tensor_fill(&dev, (32, 1), "double", 0.0).unwrap();
        solver.apply(&b, &mut x).unwrap();

        let data = solver.observations().logger;
        assert_eq!(data.events.len(), 8, "capacity bounds the history");
        assert!(
            data.dropped_events > 0,
            "overflow must surface in dropped_events"
        );

        // A capacity of zero is rejected up front.
        let plain = cg(&dev, &mtx, None, 10, 1e-9).unwrap();
        let bad = Observe {
            record: Some(0),
            ..Observe::default()
        };
        assert!(matches!(plain.observe(bad), Err(PyGinkgoError::Value(_))));
    }

    #[test]
    fn metrics_logger_reports_per_kernel_quantiles() {
        let dev = device("reference").unwrap();
        let mtx = spd(&dev, 64, "double");
        let solver = cg(&dev, &mtx, None, 500, 1e-10)
            .unwrap()
            .observe(Observe {
                metrics: true,
                ..Observe::default()
            })
            .unwrap();
        assert!(
            solver.observations().metrics.is_some(),
            "snapshot available pre-solve"
        );

        let b = as_tensor_fill(&dev, (64, 1), "double", 1.0).unwrap();
        let mut x = as_tensor_fill(&dev, (64, 1), "double", 0.0).unwrap();
        let log = solver.apply(&b, &mut x).unwrap();
        assert!(log.converged());

        let snap = solver.observations().metrics.unwrap();
        // Per-kernel counts and latency quantiles for a CG solve.
        for op in ["csr", "dense::dot", "solver::Cg"] {
            let k = snap.kernel(op).unwrap_or_else(|| panic!("missing {op}"));
            assert!(k.calls > 0, "{op}");
            assert!(
                k.wall_ns.p50() <= k.wall_ns.p95()
                    && k.wall_ns.p95() <= k.wall_ns.p99()
                    && k.wall_ns.p99() <= k.wall_ns.max,
                "{op} quantiles out of order"
            );
        }
        // One SpMV per iteration plus the initial residual `r = b - A x`.
        assert!(snap.kernel("csr").unwrap().calls >= log.iterations() as u64);
        assert_eq!(
            snap.solver_iterations,
            vec![("solver::Cg".to_string(), log.iterations() as u64)]
        );
        assert_eq!(snap.solves, 1);
        assert!(snap.alloc_bytes.count > 0);

        assert!(snap
            .to_prometheus()
            .contains("gko_kernel_calls_total{op=\"csr\"}"));

        // The same aggregates are also visible executor-wide.
        let exec_snap = dev.executor().observer().metrics().unwrap();
        assert_eq!(exec_snap, snap);
    }

    #[test]
    fn coo_system_matrix_is_accepted() {
        let dev = device("reference").unwrap();
        let mtx = spd(&dev, 16, "double").convert("Coo").unwrap();
        let solver = cg(&dev, &mtx, None, 200, 1e-9).unwrap();
        let b = as_tensor_fill(&dev, (16, 1), "double", 1.0).unwrap();
        let mut x = as_tensor_fill(&dev, (16, 1), "double", 0.0).unwrap();
        assert!(solver.apply(&b, &mut x).unwrap().converged());
    }

    /// An (n, S) row-major tensor whose column `s` is `base + s` everywhere.
    fn multi_rhs(dev: &Device, n: usize, s: usize, base: f64) -> Tensor {
        let mut vals = vec![0.0; n * s];
        for i in 0..n {
            for c in 0..s {
                vals[i * s + c] = base + c as f64;
            }
        }
        crate::tensor::as_tensor(vals, dev, (n, s), "double").unwrap()
    }

    #[test]
    fn solve_batch_matches_column_by_column_solves() {
        let dev = device("reference").unwrap();
        let n = 40;
        let systems = 3;
        let mtx = spd(&dev, n, "double");
        let solver = cg(&dev, &mtx, None, 200, 1e-10).unwrap();

        let b = multi_rhs(&dev, n, systems, 1.0);
        let mut x = as_tensor_fill(&dev, (n, systems), "double", 0.0).unwrap();
        let result = solver.solve_batch(&b, &mut x).unwrap();

        assert_eq!(result.num_systems(), systems);
        assert!(result.all_converged(), "reasons: {:?}", result.stop_reasons);
        assert_eq!(result.converged_count(), systems);

        // Each column must agree with an independent single-RHS solve.
        for s in 0..systems {
            let bs = as_tensor_fill(&dev, (n, 1), "double", 1.0 + s as f64).unwrap();
            let mut xs = as_tensor_fill(&dev, (n, 1), "double", 0.0).unwrap();
            let log = solver.apply(&bs, &mut xs).unwrap();
            assert_eq!(result.iterations[s], log.iterations() as usize);
            assert_eq!(result.stop_reasons[s], log.stop_reason());
            for i in 0..n {
                let batched = x.get(i, s).unwrap();
                let single = xs.get(i, 0).unwrap();
                assert!(
                    (batched - single).abs() < 1e-9,
                    "system {s} row {i}: {batched} vs {single}"
                );
            }
        }
    }

    #[test]
    fn solve_batch_bicgstab_converges() {
        let dev = device("reference").unwrap();
        let n = 32;
        let mtx = spd(&dev, n, "double");
        let solver = bicgstab(&dev, &mtx, None, 200, 1e-10).unwrap();
        let b = multi_rhs(&dev, n, 4, 1.0);
        let mut x = as_tensor_fill(&dev, (n, 4), "double", 0.0).unwrap();
        let result = solver.solve_batch(&b, &mut x).unwrap();
        assert!(result.all_converged(), "reasons: {:?}", result.stop_reasons);
        assert!(result.iterations.iter().all(|&it| it > 0));
    }

    #[test]
    fn solve_batch_reports_per_system_stop_reasons() {
        let dev = device("reference").unwrap();
        let n = 24;
        let mtx = spd(&dev, n, "double");
        let solver = cg(&dev, &mtx, None, 200, 1e-10).unwrap();

        // Column 0: ordinary system. Column 1: zero RHS (converges at
        // iteration 0). Column 2: poisoned with NaN (breaks down alone).
        let mut vals = vec![0.0; n * 3];
        for i in 0..n {
            vals[i * 3] = 1.0;
        }
        vals[2] = f64::NAN;
        let b = crate::tensor::as_tensor(vals, &dev, (n, 3), "double").unwrap();
        let mut x = as_tensor_fill(&dev, (n, 3), "double", 0.0).unwrap();
        let result = solver.solve_batch(&b, &mut x).unwrap();

        assert!(result.converged[0]);
        assert!(result.converged[1]);
        assert_eq!(result.iterations[1], 0, "zero RHS converges immediately");
        assert_eq!(result.stop_reasons[2], "breakdown");
        assert!(!result.converged[2]);
        // The healthy columns still carry finite solutions.
        for i in 0..n {
            assert!(x.get(i, 0).unwrap().is_finite());
            assert_eq!(x.get(i, 1).unwrap(), 0.0);
        }
    }

    #[test]
    fn solve_batch_rejects_unbatchable_inputs() {
        let dev = device("reference").unwrap();
        let mtx = spd(&dev, 16, "double");

        // Unsupported algorithm.
        let g = gmres(&dev, &mtx, None, 50, 10, 1e-8).unwrap();
        let b = as_tensor_fill(&dev, (16, 2), "double", 1.0).unwrap();
        let mut x = as_tensor_fill(&dev, (16, 2), "double", 0.0).unwrap();
        assert!(matches!(
            g.solve_batch(&b, &mut x),
            Err(PyGinkgoError::Value(_))
        ));

        let solver = cg(&dev, &mtx, None, 50, 1e-8).unwrap();

        // Shape mismatch between b and x.
        let mut x_bad = as_tensor_fill(&dev, (16, 3), "double", 0.0).unwrap();
        assert!(matches!(
            solver.solve_batch(&b, &mut x_bad),
            Err(PyGinkgoError::Value(_))
        ));

        // Dtype mismatch between solver and operands.
        let bf = as_tensor_fill(&dev, (16, 2), "float", 1.0).unwrap();
        let mut xf = as_tensor_fill(&dev, (16, 2), "float", 0.0).unwrap();
        assert!(matches!(
            solver.solve_batch(&bf, &mut xf),
            Err(PyGinkgoError::Type(_))
        ));

        // COO system matrices don't batch.
        let coo = spd(&dev, 16, "double").convert("Coo").unwrap();
        let coo_solver = cg(&dev, &coo, None, 50, 1e-8).unwrap();
        let mut x2 = as_tensor_fill(&dev, (16, 2), "double", 0.0).unwrap();
        assert!(matches!(
            coo_solver.solve_batch(&b, &mut x2),
            Err(PyGinkgoError::Type(_))
        ));
    }

    /// The columns of one `solve_batch` share the matrix, so the batch
    /// stores it once: what grows with the column count is the vectors (the
    /// two tensors, their per-system copies and CG's `r`, `q`, `p`), not
    /// `S` copies of the values. The solutions are pinned against the build
    /// that did store `S` copies.
    #[test]
    fn solve_batch_stores_the_matrix_once() {
        let n = 5_000;
        let run = |systems: usize| {
            let dev = device("reference").unwrap();
            let mtx = spd(&dev, n, "double");
            let solver = cg(&dev, &mtx, None, 200, 1e-10).unwrap();
            let b = multi_rhs(&dev, n, systems, 1.0);
            let mut x = as_tensor_fill(&dev, (n, systems), "double", 0.0).unwrap();
            let result = solver.solve_batch(&b, &mut x).unwrap();
            assert!(result.all_converged(), "reasons: {:?}", result.stop_reasons);
            let fnv = |h: u64, v: &f64| (h ^ v.to_bits()).wrapping_mul(0x0000_0100_0000_01b3);
            let bits = x.to_vec().iter().fold(0xcbf2_9ce4_8422_2325, fnv);
            (dev.executor().peak_bytes(), bits)
        };
        let (one, _) = run(1);
        let (many, solution) = run(64);
        let vectors = (7 * 64 * n * std::mem::size_of::<f64>()) as u64;
        assert!(
            many < 2 * one + vectors,
            "peak {many} bytes for 64 columns, {one} for one"
        );
        assert_eq!(
            solution, 0x43d4_f635_89fc_b0bd,
            "64-column solution drifted"
        );
    }

    #[test]
    fn solve_batch_half_and_float_dtypes_run() {
        let dev = device("reference").unwrap();
        for dtype in ["float", "half"] {
            let mtx = spd(&dev, 12, dtype);
            let solver = cg(&dev, &mtx, None, 200, 1e-2).unwrap();
            let b = as_tensor_fill(&dev, (12, 2), dtype, 1.0).unwrap();
            let mut x = as_tensor_fill(&dev, (12, 2), dtype, 0.0).unwrap();
            let result = solver.solve_batch(&b, &mut x).unwrap();
            assert_eq!(result.num_systems(), 2);
            assert!(result.all_converged(), "{dtype}: {:?}", result.stop_reasons);
        }
    }
}
