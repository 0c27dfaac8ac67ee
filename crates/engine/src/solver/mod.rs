//! Iterative and direct solvers.
//!
//! All solvers are [`LinOp`]s: `apply(b, x)` solves
//! `A x = b` starting from the initial guess in `x` and overwrites `x` with
//! the solution (Listing 1's usage). Failures to converge are reported
//! through the solver's [`ConvergenceLogger`], not as errors, matching
//! Ginkgo.
//!
//! # One shell, eight recurrences
//!
//! [`Cg`], [`Fcg`], [`Cgs`], [`BiCgStab`], [`Minres`], [`Gmres`] (restarted,
//! Givens rotations, per-iteration residual checks — §6.2.1's description of
//! Ginkgo's GMRES), [`Ir`] (Richardson iteration) and [`MixedIr`]
//! (mixed-precision refinement) are aliases of one type, [`Iterative`],
//! which differ only in the `Recurrence` they plug in.
//!
//! The **shell** owns everything the methods share: the builder surface
//! (`new`, `with_criteria`, `with_preconditioner`, `with_logger`,
//! `add_logger`, `loggers`, `logger`), the `LinOp` impl, shape validation,
//! the one `solver::*` kernel frame that roots the [`Observer`](crate::Observer)'s
//! span tree, the initial residual `r = b - A x` and its norm (the
//! baseline), and every `begin` / `record_residual` / `check` / `finish`
//! call on the logger and criteria.
//!
//! A **recurrence** supplies its workspace (`seed`, from the initial
//! residual), one iteration (`iterate`) with its own breakdown tests, and —
//! GMRES only — `form_solution`, which folds a pending Krylov cycle into `x`
//! when the solve ends. An iteration answers with a `Step`: `Continue`
//! (done, here is the residual norm: the shell records it and asks the
//! criteria), `Stop` (done, and the method itself ends the solve —
//! BiCGStab's converged half step) or `Abort` (this iteration cannot run or
//! finish; it is not counted — breakdowns, and the lucky breakdowns of
//! MINRES and GMRES seen at the top of the next iteration).
//!
//! The batched solvers ([`BatchCg`], [`BatchBiCgStab`]) are not on this
//! shell: they advance many systems in one `BatchDense` with per-system
//! masking and per-system stop reasons, so sharing would make the shell
//! branch on its caller. They are aliases of a shell of their own,
//! [`Batched`](batch::Batched), the same way: it owns the builder surface
//! (`new`, `with_criteria`, `add_logger`), the initial residual and
//! baselines, the initial check, the record and completion event and the
//! per-system bookkeeping, and a batched method supplies its name and its
//! iterations. The non-iterative [`Direct`], [`LowerTrs`] and [`UpperTrs`]
//! have no loop to share.
//!
//! # Iteration counting, breakdown and non-finite residuals
//!
//! Krylov recurrences divide by inner products (`p·Ap`, `ρ`, `ω`, …); when
//! such a denominator is exactly zero the method cannot continue and the
//! solve stops with [`StopReason::Breakdown`], leaving `x` at its last
//! finite state. Independently, a residual norm that is not finite (NaN or
//! ±Inf, e.g. from overflow on a diverging or singular system) ends the
//! solve as `Breakdown` in the iteration that produced it: the shell turns a
//! `Continue` or `Stop` carrying one into an uncounted abort, so it never
//! reaches `residual_history`, whichever of a method's inner products
//! happens to overflow first. ([`Criteria::check`] reports a non-finite norm
//! as `Breakdown` too, which covers the baseline and the mid-iteration
//! checks of BiCGStab and GMRES.)
//!
//! [`SolveRecord::iterations`](crate::log::SolveRecord::iterations) counts
//! **fully completed** iterations under either exit, and
//! `residual_history.len() == iterations` holds on every path — an aborted
//! iteration is not recorded. The shell enforces both; no recurrence
//! touches the logger.
//!
//! # No preconditioner is no operator
//!
//! The shell holds the preconditioner as an `Option`. Recurrences reach it
//! through `SolverCore::preconditioned`, which returns its argument when
//! there is none, so `M^{-1} v` aliases `v` instead of copying it: CG and
//! FCG then take `ρ = r·r` from the norm their fused update just returned,
//! BiCGStab's `p̂`/`ŝ` are `p`/`s`, and GMRES applies `A` to the basis vector
//! itself.
//!
//! # Events
//!
//! Every solve emits typed [`Event`]s — one `IterationComplete` per counted
//! iteration, one `CriterionChecked` per stopping test, and a final
//! `SolveCompleted` — to loggers attached either to the solver itself
//! (`with_logger`) or to its executor
//! ([`Executor::add_logger`](crate::Executor::add_logger)). A logger attached
//! to *both* receives the iteration-level events twice.

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

pub use batch::{BatchBiCgStab, BatchCg, BatchSolveRecord};
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
use crate::executor::Executor;
use crate::linop::{check_memory_space, LinOp};
use crate::log::{ConvergenceLogger, Event, Logger, LoggerRegistry, OpTimer};
use crate::matrix::dense::Dense;
use crate::stop::{Criteria, StopReason};
use std::sync::Arc;

/// What the shell and the recurrences say to each other. Crate-private: the
/// items are `pub` only because the public aliases' impls mention them, and
/// the module is private so nothing outside the crate can name them.
mod sealed {
    use super::*;

    /// What a recurrence may use of its solver: the system operator, the
    /// preconditioner (through [`SolverCore::preconditioned`]) and the
    /// event-emitting criteria check. The logger and both event registries
    /// stay with the shell.
    pub struct SolverCore<V: Value> {
        pub(crate) system: Arc<dyn LinOp<V>>,
        /// `None` until `with_preconditioner`: an unpreconditioned solve
        /// applies nothing, not an identity that copies.
        pub(crate) precond: Option<Arc<dyn LinOp<V>>>,
        pub(crate) criteria: Criteria,
        pub(crate) logger: ConvergenceLogger,
        /// Solver display name used in emitted events (e.g. `"solver::Cg"`).
        name: &'static str,
        /// Loggers attached directly to this solver.
        pub(crate) events: LoggerRegistry,
        /// The system executor's registry (kernel-level observers), so an
        /// executor-wide observer such as the
        /// [`Observer`](crate::Observer) sees solver events
        /// alongside the kernels.
        exec_events: LoggerRegistry,
    }

    impl<V: Value> SolverCore<V> {
        pub(crate) fn new(name: &'static str, system: Arc<dyn LinOp<V>>) -> Result<Self> {
            if !system.size().is_square() {
                return Err(GkoError::BadInput(format!(
                    "iterative solvers need a square system, got {}",
                    system.size()
                )));
            }
            let events = LoggerRegistry::new();
            let exec_events = system.executor().loggers().clone();
            let logger = ConvergenceLogger::new();
            logger.bind_events(name, events.clone());
            logger.bind_events(name, exec_events.clone());
            Ok(SolverCore {
                system,
                precond: None,
                criteria: Criteria::default(),
                logger,
                name,
                events,
                exec_events,
            })
        }

        /// Evaluates the stopping criteria and emits
        /// [`Event::CriterionChecked`] to all attached observers.
        pub(crate) fn check(
            &self,
            iters_done: usize,
            res_norm: f64,
            baseline: f64,
        ) -> Option<StopReason> {
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

        /// Validates `b`/`x` for a solve: single right-hand side, in the
        /// system's memory space.
        pub(crate) fn check_vectors(&self, b: &Dense<V>, x: &Dense<V>) -> Result<()> {
            let want = Dim2::new(self.system.size().rows, 1);
            if b.size() != want || x.size() != want {
                return Err(GkoError::DimensionMismatch {
                    op: "solve",
                    expected: want,
                    actual: if b.size() != want { b.size() } else { x.size() },
                });
            }
            check_memory_space(self.system.executor(), [b.executor(), x.executor()])
        }

        /// `M^{-1} v`: applied into `slot` (allocated on first use) when the
        /// solver has a preconditioner, `v` itself when it has none.
        pub(crate) fn preconditioned<'a>(
            &self,
            v: &'a Dense<V>,
            slot: &'a mut Option<Dense<V>>,
        ) -> Result<&'a Dense<V>> {
            let Some(precond) = &self.precond else {
                return Ok(v);
            };
            let out = slot.get_or_insert_with(|| Dense::zeros(v.executor(), v.size()));
            precond.apply(v, out)?;
            Ok(out)
        }

        /// Computes `r = b - A x` into `r`.
        pub(crate) fn residual(&self, b: &Dense<V>, x: &Dense<V>, r: &mut Dense<V>) -> Result<()> {
            r.copy_from(b)?;
            self.system
                .apply_advanced(V::from_f64(-1.0), x, V::one(), r)
        }
    }

    /// What the shell lends a recurrence for one iteration.
    pub struct Iteration<'a, V: Value> {
        pub(crate) core: &'a SolverCore<V>,
        pub(crate) b: &'a Dense<V>,
        pub(crate) x: &'a mut Dense<V>,
        /// `b - A x` on entry to the first iteration; from then on whatever
        /// the recurrence keeps in it (a residual, in every method but MINRES,
        /// which keeps its Lanczos vector here).
        pub(crate) r: &'a mut Dense<V>,
        /// Norm of the initial residual.
        pub(crate) baseline: f64,
        /// 1-based number of the iteration being attempted.
        pub(crate) index: usize,
    }

    /// A recurrence's answer to one [`Recurrence::iterate`] call.
    pub enum Step {
        /// The iteration completed with this residual norm: the shell records
        /// it and asks the criteria. (A norm that is not finite aborts.)
        Continue(f64),
        /// The iteration completed with this residual norm and the method ends
        /// the solve itself, having asked the criteria mid-iteration. (A norm
        /// that is not finite aborts.)
        Stop(f64, StopReason),
        /// The iteration could not start or finish and is not counted.
        Abort(StopReason),
    }

    /// The part of an iterative method that is its own: workspace, one
    /// iteration, breakdown tests.
    pub trait Recurrence<V: Value>: Send + Sync + 'static {
        /// Name in events, spans and config trees (e.g. `"solver::Cg"`).
        const NAME: &'static str;
        /// False for methods that have no preconditioner slot.
        const PRECONDITIONED: bool = true;
        /// Per-solve workspace.
        type Work;

        /// Allocates the workspace, given the initial residual `r`. Runs
        /// before the baseline norm is taken and the criteria are first asked.
        fn seed(&self, core: &SolverCore<V>, r: &Dense<V>) -> Result<Self::Work>;

        /// Runs iteration `it.index`.
        fn iterate(&self, it: &mut Iteration<'_, V>, work: &mut Self::Work) -> Result<Step>;

        /// Called once when the solve ends, whatever the reason, for methods
        /// that build `x` lazily.
        fn form_solution(&self, _it: &mut Iteration<'_, V>, _work: &mut Self::Work) -> Result<()> {
            Ok(())
        }
    }
}
pub(crate) use sealed::{Iteration, Recurrence, SolverCore, Step};

/// The iterative-solver shell: everything the eight methods share, around
/// the `Recurrence` `M` that tells them apart. Use it through its aliases
/// ([`Cg`], [`Gmres`], …).
pub struct Iterative<V: Value, M> {
    core: SolverCore<V>,
    pub(crate) method: M,
}

impl<V: Value, M: Recurrence<V> + Default> Iterative<V, M> {
    /// Creates the solver for the given (square) system operator.
    pub fn new(system: Arc<dyn LinOp<V>>) -> Result<Self> {
        Self::from_method(system, M::default())
    }
}

impl<V: Value, M: Recurrence<V>> Iterative<V, M> {
    pub(crate) fn from_method(system: Arc<dyn LinOp<V>>, method: M) -> Result<Self> {
        Ok(Iterative {
            core: SolverCore::new(M::NAME, system)?,
            method,
        })
    }

    /// Attaches a logger observing this solver's iteration events.
    pub fn with_logger(self, logger: Arc<dyn Logger>) -> Self {
        self.add_logger(logger);
        self
    }

    /// Attaches a logger without consuming the solver.
    pub fn add_logger(&self, logger: Arc<dyn Logger>) {
        self.core.events.add(logger);
    }

    /// The registry of loggers attached to this solver.
    pub fn loggers(&self) -> &LoggerRegistry {
        &self.core.events
    }

    /// Sets the preconditioner (applied as `z = M^{-1} r`; from the right in
    /// GMRES). Methods without a preconditioner slot return
    /// [`GkoError::Unsupported`].
    pub fn with_preconditioner(mut self, precond: Arc<dyn LinOp<V>>) -> Result<Self> {
        if !M::PRECONDITIONED {
            return Err(GkoError::Unsupported(format!(
                "{} does not support preconditioning",
                M::NAME
            )));
        }
        if precond.size() != self.core.system.size() {
            return Err(GkoError::DimensionMismatch {
                op: "preconditioner",
                expected: self.core.system.size(),
                actual: precond.size(),
            });
        }
        self.core.precond = Some(precond);
        Ok(self)
    }

    /// Sets the stopping criteria.
    pub fn with_criteria(mut self, criteria: Criteria) -> Self {
        self.core.criteria = criteria;
        self
    }

    /// The logger recording residual history.
    pub fn logger(&self) -> &ConvergenceLogger {
        &self.core.logger
    }
}

impl<V: Value, M: Recurrence<V>> LinOp<V> for Iterative<V, M> {
    fn size(&self) -> Dim2 {
        self.core.system.size()
    }

    fn executor(&self) -> &Executor {
        self.core.system.executor()
    }

    /// Solves `A x = b`; `x` holds the initial guess on entry and the
    /// solution on exit.
    fn apply(&self, b: &Dense<V>, x: &mut Dense<V>) -> Result<()> {
        let core = &self.core;
        core.check_vectors(b, x)?;
        let exec = x.executor().clone();
        let _solve_timer = OpTimer::new(&exec, M::NAME);

        let mut r = Dense::zeros(&exec, b.size());
        core.residual(b, x, &mut r)?;
        let mut work = self.method.seed(core, &r)?;
        let baseline = r.compute_norm2();
        core.logger.begin(baseline);
        let mut stop = core.check(0, baseline, baseline);

        let mut it = Iteration {
            core,
            b,
            x,
            r: &mut r,
            baseline,
            index: 0,
        };
        let mut done = 0usize;
        let reason = loop {
            if let Some(reason) = stop {
                break reason;
            }
            it.index = done + 1;
            let (norm, verdict) = match self.method.iterate(&mut it, &mut work)? {
                Step::Continue(norm) if norm.is_finite() => (norm, None),
                Step::Stop(norm, reason) if norm.is_finite() => (norm, Some(reason)),
                // A non-finite norm is a breakdown whatever the recurrence
                // made of it, and an aborted iteration is never recorded.
                Step::Continue(_) | Step::Stop(..) => break StopReason::Breakdown,
                Step::Abort(reason) => break reason,
            };
            done += 1;
            core.logger.record_residual(done, norm);
            stop = verdict.or_else(|| core.check(done, norm, baseline));
        };
        self.method.form_solution(&mut it, &mut work)?;
        core.logger.finish(done, reason);
        Ok(())
    }

    fn op_name(&self) -> &'static str {
        M::NAME
    }
}

/// Builds the iterative solver a config tree or the facade names by its
/// event name (`"solver::Cg"`, `"solver::Bicgstab"`, …) and returns it with
/// its logger. `krylov_dim` applies to GMRES and `relaxation` to IR; other
/// methods ignore them. An unknown name is [`GkoError::InvalidConfig`].
pub fn iterative_by_name<V: Value>(
    name: &str,
    system: Arc<dyn LinOp<V>>,
    criteria: Criteria,
    precond: Option<Arc<dyn LinOp<V>>>,
    krylov_dim: Option<usize>,
    relaxation: Option<f64>,
) -> Result<(Arc<dyn LinOp<V>>, ConvergenceLogger)> {
    fn finish<V: Value, M: Recurrence<V>>(
        solver: Iterative<V, M>,
        criteria: Criteria,
        precond: Option<Arc<dyn LinOp<V>>>,
    ) -> Result<(Arc<dyn LinOp<V>>, ConvergenceLogger)> {
        let mut solver = solver.with_criteria(criteria);
        if let Some(p) = precond {
            solver = solver.with_preconditioner(p)?;
        }
        let logger = solver.logger().clone();
        Ok((Arc::new(solver), logger))
    }
    match name {
        "solver::Cg" => finish(Cg::new(system)?, criteria, precond),
        "solver::Fcg" => finish(Fcg::new(system)?, criteria, precond),
        "solver::Cgs" => finish(Cgs::new(system)?, criteria, precond),
        "solver::Bicgstab" => finish(BiCgStab::new(system)?, criteria, precond),
        "solver::Minres" => finish(Minres::new(system)?, criteria, precond),
        "solver::Gmres" => {
            let mut solver = Gmres::new(system)?;
            if let Some(dim) = krylov_dim {
                solver = solver.with_krylov_dim(dim);
            }
            finish(solver, criteria, precond)
        }
        "solver::Ir" => {
            let mut solver = Ir::new(system)?;
            if let Some(omega) = relaxation {
                solver = solver.with_relaxation(omega);
            }
            finish(solver, criteria, precond)
        }
        other => Err(GkoError::InvalidConfig(format!(
            "unknown solver type '{other}'"
        ))),
    }
}
