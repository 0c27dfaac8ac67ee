//! Event logging.
//!
//! Ginkgo makes loggers first-class citizens of the engine: any event — a
//! `LinOp` apply, a solver iteration, a criterion check, an allocation, a
//! worker-pool dispatch — can be observed by logger objects attached to an
//! executor or a solver. pyGinkgo surfaces the same machinery to Python
//! (`logger, result = solver.apply(b, x)`, Listing 1). This module provides:
//!
//! * the typed [`Event`] stream and the [`Logger`] trait observers implement;
//! * a [`LoggerRegistry`] so several loggers can attach to one emitter
//!   (executors and solvers each own a registry);
//! * two concrete loggers: [`Record`] (bounded in-memory event history) and
//!   [`Stream`] (human-readable line writer);
//! * the [`OpTimer`] RAII guard kernels and solvers use to emit paired
//!   `LinOpApplyStarted`/`LinOpApplyCompleted` events, and
//! * the per-solve [`ConvergenceLogger`] that records residual history and
//!   forwards iteration/solve events into the registries.
//!
//! Emission is designed to be free when nobody listens: every instrumented
//! site performs a single relaxed atomic load and branches away when the
//! relevant registry is empty.
//!
//! This event stream is also the input to the higher observability layers:
//! [`crate::metrics`] aggregates it into histograms, the
//! [`crate::telemetry`] flight recorder folds it into per-solve reports,
//! and the [`crate::trace`] tracer reassembles the paired
//! started/completed events into causal span trees.

use crate::executor::Executor;
use crate::stop::StopReason;
use std::collections::VecDeque;
use std::fmt;
use std::io::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

/// One observable engine event.
///
/// Events are emitted by instrumented kernels (`LinOpApply*`), solver
/// iteration loops (`IterationComplete`, `CriterionChecked`,
/// `SolveCompleted`), the executor's memory accountant
/// (`AllocationComplete`), and the worker pool (`PoolDispatch`).
#[derive(Clone, Debug, PartialEq)]
pub enum Event {
    /// An instrumented operator apply (or kernel) began on the emitting
    /// thread.
    LinOpApplyStarted {
        /// Operator/kernel name, e.g. `"csr"` or `"dense::dot"`.
        op: &'static str,
    },
    /// The matching apply finished.
    LinOpApplyCompleted {
        /// Operator/kernel name, paired with the preceding `Started`.
        op: &'static str,
        /// Host wall-clock nanoseconds between start and completion.
        wall_ns: u64,
        /// Virtual (cost-model) nanoseconds charged to the executor's
        /// timeline between start and completion.
        virtual_ns: u64,
    },
    /// A solver finished one iteration and recorded a residual norm.
    IterationComplete {
        /// Solver name, e.g. `"solver::Cg"`.
        solver: &'static str,
        /// 1-based iteration number.
        iteration: usize,
        /// Residual norm recorded for this iteration.
        residual: f64,
    },
    /// A stopping criterion was evaluated.
    CriterionChecked {
        /// Solver name.
        solver: &'static str,
        /// Completed iterations at the time of the check.
        iteration: usize,
        /// Residual norm handed to the criterion.
        residual: f64,
        /// The criterion's verdict (`None` keeps iterating).
        stop: Option<StopReason>,
    },
    /// A solve finished (for any reason).
    SolveCompleted {
        /// Solver name.
        solver: &'static str,
        /// Fully completed iterations (see [`SolveRecord::iterations`]).
        iterations: usize,
        /// Final residual norm.
        residual: f64,
        /// Why the iteration stopped.
        reason: StopReason,
    },
    /// A batched solve finished: one event summarizes every system in the
    /// batch (per-system outcomes travel in the returned
    /// `BatchSolveRecord`, not in events).
    BatchSolveCompleted {
        /// Solver name, e.g. `"solver::BatchCg"`.
        solver: &'static str,
        /// Systems in the batch.
        systems: usize,
        /// Systems whose stop reason indicates convergence.
        converged: usize,
        /// Systems that stopped with `Breakdown`.
        breakdowns: usize,
        /// Iterations of the slowest system (the batch ran this many).
        iterations: usize,
    },
    /// The executor's memory accountant recorded an allocation.
    AllocationComplete {
        /// Allocation size in bytes.
        bytes: usize,
    },
    /// An SpMV execution plan was built (the inspector ran).
    ///
    /// Emitted at most once per (matrix, strategy, partition) by the plan
    /// cache; subsequent applies reuse the cached plan silently. The
    /// inspector's own wall/virtual cost is carried by the surrounding
    /// `LinOpApply*` pair for the `<op>::plan` kernel, so profilers can
    /// attribute inspection separately from apply time.
    PlanBuilt {
        /// Operator the plan belongs to, e.g. `"csr"`.
        op: &'static str,
        /// Resolved strategy name (`Auto` is resolved before emission).
        strategy: &'static str,
        /// Chunks/segments in the built partition.
        chunks: u64,
        /// Matrix rows inspected.
        rows: u64,
        /// Matrix nonzeros inspected.
        nnz: u64,
        /// Rows the plan visits grouped by length (0: row order).
        ordered_rows: u64,
    },
    /// The worker pool executed one parallel kernel dispatch.
    PoolDispatch {
        /// Chunk closures executed by this dispatch.
        chunks: u64,
        /// Chunks executed by a lane other than their home queue's.
        steals: u64,
        /// Pool lanes (including the submitting thread).
        threads: usize,
        /// Host wall-clock nanoseconds the dispatch spent inside the pool
        /// (publication, chunk execution, and the completion handshake).
        wall_ns: u64,
    },
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Event::LinOpApplyStarted { op } => write!(f, "apply {op} started"),
            Event::LinOpApplyCompleted {
                op,
                wall_ns,
                virtual_ns,
            } => write!(
                f,
                "apply {op} completed wall={wall_ns}ns virtual={virtual_ns}ns"
            ),
            Event::IterationComplete {
                solver,
                iteration,
                residual,
            } => write!(f, "{solver} iteration {iteration} residual {residual:.6e}"),
            Event::CriterionChecked {
                solver,
                iteration,
                residual,
                stop,
            } => write!(
                f,
                "{solver} criterion after {iteration} iters residual {residual:.6e} -> {stop:?}"
            ),
            Event::SolveCompleted {
                solver,
                iterations,
                residual,
                reason,
            } => write!(
                f,
                "{solver} solve completed: {iterations} iterations, residual {residual:.6e}, {reason:?}"
            ),
            Event::BatchSolveCompleted {
                solver,
                systems,
                converged,
                breakdowns,
                iterations,
            } => write!(
                f,
                "{solver} batch completed: {systems} systems ({converged} converged, \
                 {breakdowns} breakdowns) in {iterations} iterations"
            ),
            Event::AllocationComplete { bytes } => write!(f, "allocated {bytes} bytes"),
            Event::PlanBuilt {
                op,
                strategy,
                chunks,
                rows,
                nnz,
                ordered_rows,
            } => {
                write!(
                    f,
                    "plan {op} built: {strategy}, {chunks} chunks over {rows} rows / {nnz} nnz"
                )?;
                if *ordered_rows > 0 {
                    write!(f, ", rows grouped by length")?;
                }
                Ok(())
            }
            Event::PoolDispatch {
                chunks,
                steals,
                threads,
                wall_ns,
            } => write!(
                f,
                "pool dispatch: {chunks} chunks, {steals} steals, {threads} lanes, {wall_ns}ns"
            ),
        }
    }
}

// ---------------------------------------------------------------------------
// Logger trait and registry
// ---------------------------------------------------------------------------

/// An event observer (Ginkgo's `log::Logger`).
///
/// Implementations must be cheap and must not call back into the registry
/// they are attached to from `on_event` (the registry's lock is held during
/// delivery).
pub trait Logger: Send + Sync {
    /// Receives one event. Called synchronously from the emitting thread.
    fn on_event(&self, event: &Event);

    /// Short diagnostic name.
    fn name(&self) -> &'static str {
        "logger"
    }
}

#[derive(Default)]
struct RegistryInner {
    /// Mirror of `loggers.len()` readable without the lock; instrumented
    /// hot paths check it with one relaxed load before building events.
    count: AtomicUsize, // atomic: flag
    loggers: Mutex<Vec<Arc<dyn Logger>>>, // lock: log.loggers
}

/// A cheaply cloneable set of attached [`Logger`]s.
///
/// Executors and solvers each own one registry; clones share state, so a
/// logger added through any handle is seen by all. Delivery order follows
/// attachment order.
#[derive(Clone, Default)]
pub struct LoggerRegistry {
    inner: Arc<RegistryInner>,
}

impl fmt::Debug for LoggerRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LoggerRegistry")
            .field("loggers", &self.len())
            .finish()
    }
}

impl LoggerRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        LoggerRegistry::default()
    }

    /// Attaches a logger. The same logger object may be attached to several
    /// registries, but attaching it twice to registries that both see a
    /// solver's events delivers those events twice.
    pub fn add(&self, logger: Arc<dyn Logger>) {
        let mut loggers = self
            .inner
            .loggers
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        loggers.push(logger);
        self.inner.count.store(loggers.len(), Ordering::Release);
    }

    /// Detaches a logger by object identity; returns true if it was found.
    pub fn remove(&self, logger: &Arc<dyn Logger>) -> bool {
        let mut loggers = self
            .inner
            .loggers
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let before = loggers.len();
        loggers.retain(|l| !Arc::ptr_eq(l, logger));
        self.inner.count.store(loggers.len(), Ordering::Release);
        before != loggers.len()
    }

    /// Detaches every logger.
    pub fn clear(&self) {
        let mut loggers = self
            .inner
            .loggers
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        loggers.clear();
        self.inner.count.store(0, Ordering::Release);
    }

    /// Number of attached loggers.
    pub fn len(&self) -> usize {
        self.inner.count.load(Ordering::Acquire)
    }

    /// True when no logger is attached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fast emptiness check for instrumented hot paths: one relaxed load.
    #[inline]
    pub fn is_active(&self) -> bool {
        self.inner.count.load(Ordering::Relaxed) > 0
    }

    /// Delivers `event` to every attached logger (no-op when empty).
    pub fn log(&self, event: &Event) {
        if !self.is_active() {
            return;
        }
        let loggers = self
            .inner
            .loggers
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        for logger in loggers.iter() {
            logger.on_event(event);
        }
    }
}

// ---------------------------------------------------------------------------
// OpTimer — RAII instrumentation guard
// ---------------------------------------------------------------------------

struct OpTimerInner {
    exec: Executor,
    op: &'static str,
    wall_start: Instant,
    virtual_start: u64,
}

/// RAII guard that brackets an instrumented operation with
/// [`Event::LinOpApplyStarted`]/[`Event::LinOpApplyCompleted`].
///
/// Construction emits `Started` and samples the host clock plus the
/// executor's virtual timeline; dropping the guard emits `Completed` with
/// both elapsed times. When the executor has no attached loggers the guard
/// is inert and costs a single atomic load.
pub struct OpTimer {
    inner: Option<OpTimerInner>,
}

impl OpTimer {
    /// Starts timing `op` on `exec` (inert if `exec` has no loggers).
    pub fn new(exec: &Executor, op: &'static str) -> Self {
        if !exec.loggers().is_active() {
            return OpTimer { inner: None };
        }
        exec.loggers().log(&Event::LinOpApplyStarted { op });
        OpTimer {
            inner: Some(OpTimerInner {
                exec: exec.clone(),
                op,
                wall_start: Instant::now(),
                virtual_start: exec.timeline().now_ns(),
            }),
        }
    }
}

impl Drop for OpTimer {
    fn drop(&mut self) {
        if let Some(inner) = self.inner.take() {
            let wall_ns = inner.wall_start.elapsed().as_nanos() as u64;
            let virtual_ns = inner
                .exec
                .timeline()
                .now_ns()
                .saturating_sub(inner.virtual_start);
            inner.exec.loggers().log(&Event::LinOpApplyCompleted {
                op: inner.op,
                wall_ns,
                virtual_ns,
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Record logger
// ---------------------------------------------------------------------------

struct RecordState {
    events: VecDeque<Event>,
    dropped: u64,
}

/// Bounded in-memory event history (Ginkgo's `log::Record`).
///
/// Keeps the most recent `capacity` events; older events are discarded and
/// counted in [`Record::dropped`].
pub struct Record {
    capacity: usize,
    state: Mutex<RecordState>, // lock: log.record.state
}

impl Default for Record {
    fn default() -> Self {
        Record::new()
    }
}

impl Record {
    /// Default event capacity.
    pub const DEFAULT_CAPACITY: usize = 16_384;

    /// Record with the default capacity.
    pub fn new() -> Self {
        Record::with_capacity(Record::DEFAULT_CAPACITY)
    }

    /// Record keeping at most `capacity` events (minimum 1).
    pub fn with_capacity(capacity: usize) -> Self {
        Record {
            capacity: capacity.max(1),
            state: Mutex::new(RecordState {
                events: VecDeque::new(),
                dropped: 0,
            }),
        }
    }

    fn state(&self) -> std::sync::MutexGuard<'_, RecordState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Copies out the retained events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        self.state().events.iter().cloned().collect()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.state().events.len()
    }

    /// True when no event has been retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events discarded because the buffer was full.
    pub fn dropped(&self) -> u64 {
        self.state().dropped
    }

    /// Discards all retained events and resets the drop counter.
    pub fn reset(&self) {
        let mut s = self.state();
        s.events.clear();
        s.dropped = 0;
    }
}

impl Logger for Record {
    fn on_event(&self, event: &Event) {
        let mut s = self.state();
        if s.events.len() == self.capacity {
            s.events.pop_front();
            s.dropped += 1;
        }
        s.events.push_back(event.clone());
    }

    fn name(&self) -> &'static str {
        "record"
    }
}

// ---------------------------------------------------------------------------
// Stream logger
// ---------------------------------------------------------------------------

/// Human-readable line-per-event writer (Ginkgo's `log::Stream`).
pub struct Stream {
    out: Mutex<Box<dyn std::io::Write + Send>>, // lock: log.stream.out
}

impl Stream {
    /// Stream writing to an arbitrary sink.
    pub fn new(writer: impl std::io::Write + Send + 'static) -> Self {
        Stream {
            out: Mutex::new(Box::new(writer)),
        }
    }

    /// Stream writing to standard output.
    pub fn stdout() -> Self {
        Stream::new(std::io::stdout())
    }
}

impl Logger for Stream {
    fn on_event(&self, event: &Event) {
        let mut out = self.out.lock().unwrap_or_else(PoisonError::into_inner);
        // A full pipe is not worth panicking a solve over.
        let _ = writeln!(out, "[gko] {event}");
    }

    fn name(&self) -> &'static str {
        "stream"
    }
}

/// Cheaply cloneable in-memory byte sink for [`Stream`], used when the
/// rendered log text must be read back (tests, the facade's
/// `logger_data()`).
#[derive(Clone, Default)]
pub struct SharedBuf {
    bytes: Arc<Mutex<Vec<u8>>>, // lock: log.sharedbuf.bytes
}

impl SharedBuf {
    /// Creates an empty shared buffer.
    pub fn new() -> Self {
        SharedBuf::default()
    }

    /// The buffered text so far (lossy UTF-8).
    pub fn contents(&self) -> String {
        let bytes = self.bytes.lock().unwrap_or_else(PoisonError::into_inner);
        String::from_utf8_lossy(&bytes).into_owned()
    }
}

impl std::io::Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.bytes
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// ConvergenceLogger
// ---------------------------------------------------------------------------

/// Snapshot of a finished (or in-progress) solve.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SolveRecord {
    /// Iterations *fully completed* before the solve stopped.
    ///
    /// This is the engine-wide convention at breakdown: an iteration that
    /// aborted partway (a non-finite or zero denominator detected before
    /// the solution update) is **not** counted, so every solver satisfies
    /// `residual_history.len() == iterations` on every exit path. When
    /// breakdown is detected *after* the solution update (e.g. a residual
    /// norm that went non-finite), the iteration did complete and is
    /// counted.
    pub iterations: usize,
    /// Residual norm before the first iteration.
    pub initial_residual: f64,
    /// Residual norm at the last check.
    pub final_residual: f64,
    /// One entry per completed-iteration residual check.
    pub residual_history: Vec<f64>,
    /// Why the iteration stopped.
    pub stop_reason: Option<StopReason>,
}

impl SolveRecord {
    /// True if the solve converged by a residual criterion.
    pub fn converged(&self) -> bool {
        self.stop_reason
            .map(StopReason::is_converged)
            .unwrap_or(false)
    }

    /// The achieved reduction factor `final / initial` (1.0 if no progress
    /// information was recorded).
    pub fn reduction(&self) -> f64 {
        if self.initial_residual > 0.0 {
            self.final_residual / self.initial_residual
        } else {
            1.0
        }
    }
}

struct ConvergenceInner {
    record: SolveRecord,
    solver: &'static str,
    /// Registries that receive `IterationComplete`/`SolveCompleted` events
    /// (typically the owning solver's registry plus its executor's).
    sinks: Vec<LoggerRegistry>,
}

/// Cloneable handle to a solve log.
///
/// All lock acquisitions recover from poisoning: a panic inside a kernel on
/// some worker must not turn every later logger read into a second panic.
#[derive(Clone)]
pub struct ConvergenceLogger {
    inner: Arc<Mutex<ConvergenceInner>>, // lock: log.conv.inner
}

impl fmt::Debug for ConvergenceLogger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ConvergenceLogger")
            .field("record", &self.snapshot())
            .finish()
    }
}

impl Default for ConvergenceLogger {
    fn default() -> Self {
        ConvergenceLogger {
            inner: Arc::new(Mutex::new(ConvergenceInner {
                record: SolveRecord::default(),
                solver: "solver",
                sinks: Vec::new(),
            })),
        }
    }
}

impl ConvergenceLogger {
    /// Creates an empty logger.
    pub fn new() -> Self {
        ConvergenceLogger::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, ConvergenceInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Names the owning solver and adds a registry that receives the
    /// iteration/solve events this logger generates.
    pub(crate) fn bind_events(&self, solver: &'static str, sink: LoggerRegistry) {
        let mut inner = self.lock();
        inner.solver = solver;
        inner.sinks.push(sink);
    }

    /// Delivers an event to every bound registry. The logger's own lock is
    /// *not* held during delivery, so observers may safely call
    /// [`ConvergenceLogger::snapshot`].
    fn emit(&self, sinks: &[LoggerRegistry], event: &Event) {
        for sink in sinks {
            sink.log(event);
        }
    }

    fn active_sinks(inner: &ConvergenceInner) -> Vec<LoggerRegistry> {
        if inner.sinks.iter().any(|s| s.is_active()) {
            inner.sinks.clone()
        } else {
            Vec::new()
        }
    }

    /// Clears the record (called by solvers at the start of an apply).
    pub fn begin(&self, initial_residual: f64) {
        let mut inner = self.lock();
        inner.record = SolveRecord {
            initial_residual,
            final_residual: initial_residual,
            ..SolveRecord::default()
        };
    }

    /// Records one completed iteration's residual check and emits
    /// [`Event::IterationComplete`].
    pub fn record_residual(&self, iteration: usize, residual: f64) {
        let (solver, sinks) = {
            let mut inner = self.lock();
            inner.record.iterations = iteration;
            inner.record.final_residual = residual;
            inner.record.residual_history.push(residual);
            (inner.solver, Self::active_sinks(&inner))
        };
        self.emit(
            &sinks,
            &Event::IterationComplete {
                solver,
                iteration,
                residual,
            },
        );
    }

    /// Records the stop reason and emits [`Event::SolveCompleted`].
    pub fn finish(&self, iterations: usize, reason: StopReason) {
        let (solver, sinks, residual) = {
            let mut inner = self.lock();
            inner.record.iterations = iterations;
            inner.record.stop_reason = Some(reason);
            (
                inner.solver,
                Self::active_sinks(&inner),
                inner.record.final_residual,
            )
        };
        self.emit(
            &sinks,
            &Event::SolveCompleted {
                solver,
                iterations,
                residual,
                reason,
            },
        );
    }

    /// Copies out the current record.
    pub fn snapshot(&self) -> SolveRecord {
        self.lock().record.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle() {
        let log = ConvergenceLogger::new();
        log.begin(10.0);
        log.record_residual(1, 5.0);
        log.record_residual(2, 1e-7);
        log.finish(2, StopReason::ResidualReduction);
        let rec = log.snapshot();
        assert_eq!(rec.iterations, 2);
        assert_eq!(rec.initial_residual, 10.0);
        assert_eq!(rec.final_residual, 1e-7);
        assert_eq!(rec.residual_history, vec![5.0, 1e-7]);
        assert!(rec.converged());
        assert!((rec.reduction() - 1e-8).abs() < 1e-20);
    }

    #[test]
    fn begin_resets_previous_solve() {
        let log = ConvergenceLogger::new();
        log.begin(1.0);
        log.record_residual(1, 0.5);
        log.finish(1, StopReason::MaxIterations);
        log.begin(2.0);
        let rec = log.snapshot();
        assert_eq!(rec.iterations, 0);
        assert!(rec.residual_history.is_empty());
        assert_eq!(rec.stop_reason, None);
        assert!(!rec.converged());
    }

    #[test]
    fn clone_shares_state() {
        let log = ConvergenceLogger::new();
        let log2 = log.clone();
        log.begin(1.0);
        log2.record_residual(1, 0.1);
        assert_eq!(log.snapshot().final_residual, 0.1);
    }

    #[test]
    fn reduction_handles_zero_initial() {
        let rec = SolveRecord::default();
        assert_eq!(rec.reduction(), 1.0);
    }

    #[test]
    fn poisoned_logger_stays_usable() {
        let log = ConvergenceLogger::new();
        log.begin(1.0);
        // Poison the mutex by panicking while holding the lock.
        let log2 = log.clone();
        let handle = std::thread::spawn(move || {
            let _guard = log2.inner.lock().unwrap();
            panic!("kernel panic while logging");
        });
        assert!(handle.join().is_err());
        // Every method must recover the lock instead of double-panicking.
        log.record_residual(1, 0.5);
        log.finish(1, StopReason::MaxIterations);
        let rec = log.snapshot();
        assert_eq!(rec.final_residual, 0.5);
        assert_eq!(rec.stop_reason, Some(StopReason::MaxIterations));
    }

    #[test]
    fn bound_logger_forwards_iteration_and_solve_events() {
        let log = ConvergenceLogger::new();
        let registry = LoggerRegistry::new();
        let record = Arc::new(Record::new());
        registry.add(record.clone());
        log.bind_events("solver::Test", registry);
        log.begin(2.0);
        log.record_residual(1, 1.0);
        log.finish(1, StopReason::ResidualReduction);
        let events = record.events();
        assert_eq!(events.len(), 2);
        assert_eq!(
            events[0],
            Event::IterationComplete {
                solver: "solver::Test",
                iteration: 1,
                residual: 1.0
            }
        );
        assert_eq!(
            events[1],
            Event::SolveCompleted {
                solver: "solver::Test",
                iterations: 1,
                residual: 1.0,
                reason: StopReason::ResidualReduction,
            }
        );
    }

    #[test]
    fn registry_add_remove_clear() {
        let registry = LoggerRegistry::new();
        assert!(registry.is_empty());
        assert!(!registry.is_active());
        let a: Arc<dyn Logger> = Arc::new(Record::new());
        let b: Arc<dyn Logger> = Arc::new(Record::new());
        registry.add(a.clone());
        registry.add(b.clone());
        assert_eq!(registry.len(), 2);
        assert!(registry.is_active());
        assert!(registry.remove(&a));
        assert!(!registry.remove(&a), "already removed");
        assert_eq!(registry.len(), 1);
        registry.clear();
        assert!(registry.is_empty());
    }

    #[test]
    fn record_is_bounded_and_counts_drops() {
        let record = Record::with_capacity(3);
        for i in 0..5 {
            record.on_event(&Event::AllocationComplete { bytes: i });
        }
        assert_eq!(record.len(), 3);
        assert_eq!(record.dropped(), 2);
        let events = record.events();
        assert_eq!(events[0], Event::AllocationComplete { bytes: 2 });
        assert_eq!(events[2], Event::AllocationComplete { bytes: 4 });
        record.reset();
        assert!(record.is_empty());
        assert_eq!(record.dropped(), 0);
    }

    #[test]
    fn stream_renders_one_line_per_event() {
        let buf = SharedBuf::new();
        let stream = Stream::new(buf.clone());
        stream.on_event(&Event::LinOpApplyStarted { op: "csr" });
        stream.on_event(&Event::IterationComplete {
            solver: "solver::Cg",
            iteration: 2,
            residual: 0.25,
        });
        let text = buf.contents();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("apply csr started"), "{text}");
        assert!(lines[1].contains("solver::Cg iteration 2"), "{text}");
    }

    #[test]
    fn op_timer_is_inert_without_loggers() {
        let exec = Executor::reference();
        assert!(!exec.loggers().is_active());
        let _t = OpTimer::new(&exec, "noop"); // must not emit or panic
    }

    #[test]
    fn op_timer_emits_paired_events() {
        let exec = Executor::reference();
        let record = Arc::new(Record::new());
        exec.add_logger(record.clone());
        {
            let _t = OpTimer::new(&exec, "csr");
            exec.timeline().advance_ns(500.0);
        }
        exec.clear_loggers();
        let events = record.events();
        assert_eq!(events[0], Event::LinOpApplyStarted { op: "csr" });
        match events[1] {
            Event::LinOpApplyCompleted { op, virtual_ns, .. } => {
                assert_eq!(op, "csr");
                assert_eq!(virtual_ns, 500);
            }
            ref other => panic!("expected completion, got {other:?}"),
        }
    }
}
