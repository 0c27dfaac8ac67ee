//! Iterative and direct solvers.
//!
//! All solvers are [`LinOp`](crate::linop::LinOp)s: `apply(b, x)` solves
//! `A x = b` starting from the initial guess in `x` and overwrites `x` with
//! the solution (Listing 1's usage). Each solver owns a
//! [`ConvergenceLogger`](crate::log::ConvergenceLogger) that records residual
//! history and the stop reason; failures to converge are reported through
//! the logger, not as errors, matching Ginkgo.
//!
//! # Breakdown and non-finite residuals
//!
//! Krylov recurrences divide by inner products (`p·Ap`, `ρ`, `ω`, …); when
//! such a denominator is exactly zero the method cannot continue and the
//! solver stops with [`StopReason::Breakdown`](crate::stop::StopReason),
//! leaving `x` at its last finite state. Independently,
//! [`Criteria::check`](crate::stop::Criteria::check) reports **any**
//! non-finite residual norm (NaN or ±Inf, e.g. from overflow on a diverging
//! or singular system) as `Breakdown` on the very next check, so a poisoned
//! solve halts within one iteration instead of spinning to the iteration
//! limit on `NaN < tol == false` comparisons.
//!
//! [`SolveRecord::iterations`](crate::log::SolveRecord::iterations) counts
//! **fully completed** iterations under either exit, and
//! `residual_history.len() == iterations` holds on every path — a solver
//! that breaks down mid-iteration does not record that iteration.
//!
//! # Events
//!
//! Every solver emits typed [`Event`](crate::log::Event)s — one
//! `IterationComplete` per iteration, one `CriterionChecked` per stopping
//! test, and a final `SolveCompleted` — to loggers attached either to the
//! solver itself (`with_logger`) or to its executor
//! ([`Executor::add_logger`](crate::Executor::add_logger)). The whole solve
//! is additionally wrapped in a `solver::*` kernel frame so the
//! [`Tracer`](crate::Tracer) can root a span tree at it and attribute
//! SpMV/BLAS time to the enclosing solve. A logger attached to *both* the solver and its executor
//! receives the iteration-level events twice.
//!
//! Implemented Krylov methods: [`Cg`](cg::Cg), [`Fcg`](fcg::Fcg),
//! [`Cgs`](cgs::Cgs), [`BiCgStab`](bicgstab::BiCgStab),
//! [`Minres`](minres::Minres), and [`Gmres`](gmres::Gmres) (restarted,
//! Givens rotations, per-iteration residual checks — §6.2.1's description of
//! Ginkgo's GMRES). Also: [`Ir`](ir::Ir) (Richardson iteration),
//! [`MixedIr`](mixed::MixedIr) (mixed-precision iterative refinement),
//! [`LowerTrs`]/[`UpperTrs`](triangular) sparse triangular solves, and a
//! dense-LU [`Direct`](direct::Direct) solver.

pub mod batch;
pub mod bicgstab;
pub mod cg;
pub mod cgs;
pub mod direct;
pub mod fcg;
pub mod gmres;
pub mod ir;
pub mod minres;
pub mod mixed;
pub mod triangular;

pub use batch::{BatchBiCgStab, BatchCg, BatchSolveRecord, BatchSystemOutcome};
pub use bicgstab::BiCgStab;
pub use cg::Cg;
pub use cgs::Cgs;
pub use direct::Direct;
pub use fcg::Fcg;
pub use gmres::Gmres;
pub use ir::Ir;
pub use minres::Minres;
pub use mixed::MixedIr;
pub use triangular::{LowerTrs, UpperTrs};

use crate::base::dim::Dim2;
use crate::base::error::{GkoError, Result};
use crate::base::types::Value;
use crate::linop::{Identity, LinOp};
use crate::log::{Event, Logger, LoggerRegistry};
use crate::matrix::dense::Dense;
use crate::stop::StopReason;
use std::sync::Arc;

/// Shared state of every iterative solver: the system operator, an optional
/// preconditioner (identity when absent), stopping criteria, and a logger.
///
/// Every iterative solver also carries a [`LoggerRegistry`] of its own:
/// iteration, criterion-check, and solve-completion events are delivered
/// both to loggers attached to the solver and to loggers attached to the
/// system operator's executor (so an executor-wide observer such as the
/// [`MetricsRegistry`](crate::MetricsRegistry) sees solver events alongside
/// the kernels). Attaching the same logger object to both therefore delivers
/// solver events twice — attach to one or the other.
pub(crate) struct SolverCore<V: Value> {
    pub system: Arc<dyn LinOp<V>>,
    pub precond: Arc<dyn LinOp<V>>,
    pub criteria: crate::stop::Criteria,
    pub logger: crate::log::ConvergenceLogger,
    /// Solver display name used in emitted events (e.g. `"solver::Cg"`).
    pub name: &'static str,
    /// Loggers attached directly to this solver.
    events: LoggerRegistry,
    /// The system executor's registry (kernel-level observers).
    exec_events: LoggerRegistry,
}

impl<V: Value> SolverCore<V> {
    pub fn new(name: &'static str, system: Arc<dyn LinOp<V>>) -> Result<Self> {
        if !system.size().is_square() {
            return Err(GkoError::BadInput(format!(
                "iterative solvers need a square system, got {}",
                system.size()
            )));
        }
        let n = system.size().rows;
        let identity = Identity::new(system.executor(), n);
        let events = LoggerRegistry::new();
        let exec_events = system.executor().loggers().clone();
        let logger = crate::log::ConvergenceLogger::new();
        logger.bind_events(name, events.clone());
        logger.bind_events(name, exec_events.clone());
        Ok(SolverCore {
            system,
            precond: identity,
            criteria: crate::stop::Criteria::default(),
            logger,
            name,
            events,
            exec_events,
        })
    }

    /// Attaches a logger to this solver.
    pub fn add_logger(&self, logger: Arc<dyn Logger>) {
        self.events.add(logger);
    }

    /// The registry of loggers attached to this solver.
    pub fn loggers(&self) -> &LoggerRegistry {
        &self.events
    }

    /// Evaluates the stopping criteria and emits
    /// [`Event::CriterionChecked`] to all attached observers.
    pub fn check(&self, iters_done: usize, res_norm: f64, baseline: f64) -> Option<StopReason> {
        let stop = self.criteria.check(iters_done, res_norm, baseline);
        if self.events.is_active() || self.exec_events.is_active() {
            let event = Event::CriterionChecked {
                solver: self.name,
                iteration: iters_done,
                residual: res_norm,
                stop,
            };
            self.events.log(&event);
            self.exec_events.log(&event);
        }
        stop
    }

    pub fn set_preconditioner(&mut self, precond: Arc<dyn LinOp<V>>) -> Result<()> {
        if precond.size() != self.system.size() {
            return Err(GkoError::DimensionMismatch {
                op: "preconditioner",
                expected: self.system.size(),
                actual: precond.size(),
            });
        }
        self.precond = precond;
        Ok(())
    }

    /// Validates `b`/`x` shapes for a solve (single right-hand side).
    pub fn check_vectors(&self, b: &Dense<V>, x: &Dense<V>) -> Result<()> {
        let n = self.system.size().rows;
        let want = Dim2::new(n, 1);
        if b.size() != want || x.size() != want {
            return Err(GkoError::DimensionMismatch {
                op: "solve",
                expected: want,
                actual: if b.size() != want { b.size() } else { x.size() },
            });
        }
        Ok(())
    }

    /// Computes `r = b - A x` into `r`.
    pub fn residual(&self, b: &Dense<V>, x: &Dense<V>, r: &mut Dense<V>) -> Result<()> {
        r.copy_from(b)?;
        self.system
            .apply_advanced(V::from_f64(-1.0), x, V::one(), r)
    }
}
