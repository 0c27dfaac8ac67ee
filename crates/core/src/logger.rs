//! The logger object returned by `solver.apply` (Listing 1's
//! `logger, result = solver.apply(b, x)`), plus the event-logging data
//! types surfaced by `Solver::observe` / `Solver::observations`.

use gko::log::{ConvergenceLogger, SolveRecord};

/// Diagnostic information about a finished solve.
#[derive(Clone, Debug)]
pub struct Logger {
    record: SolveRecord,
}

impl Logger {
    pub(crate) fn from_engine(logger: &ConvergenceLogger) -> Self {
        Logger {
            record: logger.snapshot(),
        }
    }

    /// Number of iterations performed.
    pub fn iterations(&self) -> usize {
        self.record.iterations
    }

    /// True if a residual-based criterion stopped the iteration.
    pub fn converged(&self) -> bool {
        self.record.converged()
    }

    /// Residual norm before the first iteration.
    pub fn initial_residual(&self) -> f64 {
        self.record.initial_residual
    }

    /// Residual norm at the last check.
    pub fn final_residual(&self) -> f64 {
        self.record.final_residual
    }

    /// Residual norm after each check (one per iteration for most solvers).
    pub fn residual_history(&self) -> &[f64] {
        &self.record.residual_history
    }

    /// Achieved reduction `final / initial`.
    pub fn reduction(&self) -> f64 {
        self.record.reduction()
    }

    /// Human-readable stop reason (`"converged (residual reduction)"`,
    /// `"max iterations"`, `"breakdown"`, or `"not run"`).
    pub fn stop_reason(&self) -> &'static str {
        self.record
            .stop_reason
            .map_or("not run", |reason| reason.describe())
    }
}

/// One kernel's aggregated timings when both `metrics` and `profile` are
/// observed: calls and inclusive times from the device executor's metrics
/// plane, self time from its flame profile.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ProfileEntry {
    /// Kernel / operator name (`"csr"`, `"dense::dot"`, `"solver::Cg"`, ...).
    pub op: String,
    /// Number of completed invocations.
    pub calls: u64,
    /// Inclusive wall-clock time across all calls, nanoseconds.
    pub wall_ns: u64,
    /// Inclusive simulated device time across all calls, nanoseconds.
    pub virtual_ns: u64,
    /// Wall time excluding instrumented child spans, nanoseconds — summed
    /// over the profiler's flame nodes of this name, so it covers the calls
    /// made inside traced solves (0 for a kernel only ever run outside one).
    pub self_wall_ns: u64,
}

/// Snapshot of everything the loggers attached via `Solver::observe`
/// observed so far.
///
/// Fields whose plane is not observed stay at their defaults (empty vectors
/// / zero counters).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LoggerData {
    /// Rendered event history of `Observe::record`, oldest first.
    pub events: Vec<String>,
    /// Events discarded by the record after its capacity filled.
    pub dropped_events: u64,
    /// Accumulated text of `Observe::stream`.
    pub stream: String,
    /// Per-kernel aggregates (`metrics` with `profile`), hottest first.
    pub profile: Vec<ProfileEntry>,
    /// Solver iterations observed by the profiler.
    pub iterations: u64,
    /// Stopping-criterion evaluations observed by the profiler.
    pub criterion_checks: u64,
    /// Completed solves observed by the profiler.
    pub solves: u64,
    /// Thread-pool dispatches observed by the profiler.
    pub pool_dispatches: u64,
    /// Work chunks executed across all observed pool dispatches.
    pub pool_chunks: u64,
    /// Chunks obtained by work stealing across all observed dispatches.
    pub pool_steals: u64,
    /// Executor allocations observed by the profiler.
    pub allocations: u64,
    /// Total bytes across observed allocations.
    pub allocated_bytes: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use gko::stop::StopReason;

    #[test]
    fn wraps_engine_record() {
        let engine = ConvergenceLogger::new();
        engine.begin(8.0);
        engine.record_residual(1, 2.0);
        engine.record_residual(2, 4e-6);
        engine.finish(2, StopReason::ResidualReduction);
        let log = Logger::from_engine(&engine);
        assert_eq!(log.iterations(), 2);
        assert!(log.converged());
        assert_eq!(log.initial_residual(), 8.0);
        assert_eq!(log.final_residual(), 4e-6);
        assert_eq!(log.residual_history(), &[2.0, 4e-6]);
        assert!((log.reduction() - 5e-7).abs() < 1e-18);
        assert_eq!(log.stop_reason(), "converged (residual reduction)");
    }

    #[test]
    fn unfinished_solve_reads_not_run() {
        let log = Logger::from_engine(&ConvergenceLogger::new());
        assert_eq!(log.stop_reason(), "not run");
        assert!(!log.converged());
    }
}
