//! One observer per executor: the metrics, flight, trace and profile planes
//! behind one logger, one lock and one end-of-solve fold.
//!
//! [`crate::log`] is the engine's single extension point: components emit
//! [`Event`]s, loggers observe. The [`Observer`] embedded in every executor
//! is the logger behind all four observability planes of
//! [`ObserveConfig`]. It is attached to the executor's registry when the
//! config leaves the inert state and detached when it returns to it, so an
//! executor that observes nothing pays exactly what it pays with no logger:
//! one relaxed load per instrumented site (and one more per pool dispatch,
//! in `Observer::begin_dispatch`).
//!
//! # One lock
//!
//! Everything the planes accumulate lives in one `ObserverState` behind
//! `observe.state`: the config in force, the metrics aggregates, the solve
//! in flight, the solve counter, the runs ring with its drift baselines, the
//! trace ring and the flame tree. Event delivery holds the registry's
//! `log.loggers` and then takes `observe.state`; under `observe.state` only
//! the per-lane buffers of a finished dispatch's chunk log are read
//! (`pool.chunk_log`, leaf locks), so `log.loggers -> observe.state` is the
//! only order it takes part in.
//! `Observer::observe` attaches and detaches outside the state lock, and
//! `observe.arming` (never taken during delivery) serializes concurrent
//! `observe` calls so the attachment always matches the config in force.
//!
//! # One solve in flight
//!
//! A solve opens when a `solver::*` apply starts on a thread with no solve
//! in flight; that thread owns it, and only the owner's events belong to it,
//! for *every* per-solve plane (a concurrent solve on another thread runs
//! unobserved, a stray kernel on another thread is counted by the metrics
//! plane — executor-wide by definition — and by nothing else). Iteration
//! and completion events of solvers nested inside the root (an inner CG, a
//! triangular solve) do not count as the root's. When the root apply
//! returns, `close_solve` runs once, under the lock, in this order:
//!
//! 1. number the solve: one counter, never reset, so the number is unique
//!    for the executor's lifetime;
//! 2. build the [`FlightReport`] under that number (residual summary,
//!    per-kernel quantiles, per-lane utilization since the previous report)
//!    and run the three detectors on it;
//! 3. fold the span tree into the flame tree;
//! 4. take the retention verdict (anomaly, latency, head sample, or drop);
//!    a kept tree becomes a [`TraceReport`] holding the run, and only then
//!    does the run carry `trace_id`, which equals its number.
//!
//! A stream with no root apply (a synthetic one fed to
//! [`Observer::detached`], or the tail of a solve that was running when the
//! observer was armed) still closes into a flight report at its
//! `SolveCompleted`; it has no span tree. A root solver that reports no
//! outcome (a direct or triangular solve) closes into a report too, with no
//! stop reason and no iterations.

use crate::config::{json, Config};
use crate::executor::pool::{lane_stats_since, ChunkLog, LaneStats};
use crate::executor::WeakExecutor;
use crate::log::{Event, Logger, LoggerRegistry};
use crate::metrics::{KernelSnapshot, Log2Histogram, MetricsSnapshot};
use crate::profile::{FlameTree, ProfileSnapshot};
use crate::stop::StopReason;
use crate::telemetry::recorder::{
    detect_convergence, detect_lane_imbalance, BatchOutcome, DetectorConfig, DriftBaseline,
    FlightReport, KernelLatency, ResidualSummary, SystemContext, RUNS_CAPACITY, STAGNATION_WINDOW,
};
use crate::trace::{
    SpanKind, SpanRecord, TraceConfig, TraceReport, LATENCY_THRESHOLD_NS, OWNER_LANE,
    TRACE_CAPACITY,
};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::ThreadId;
use std::time::Instant;

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// Which observability planes an executor runs — the one argument of
/// [`crate::Executor::observe`]. The default is everything off: the inert
/// path, where every instrumented site costs one relaxed atomic load.
///
/// Planes build on each other, and `observe` fills in what a requested
/// plane needs: `profile` folds finished span trees, so it implies `trace`
/// ([`TraceConfig::default`] unless given); `trace` asks the flight
/// detectors which solves to retain and numbers each trace by its run, so
/// it implies `flight` ([`DetectorConfig::default`] unless given).
#[derive(Clone, Debug, Default)]
pub struct ObserveConfig {
    /// Aggregate every event into latency histograms and counters (the
    /// [`MetricsSnapshot`] behind the `/metrics` exposition).
    pub metrics: bool,
    /// Summarize every solve into a bounded ring of [`FlightReport`]s,
    /// screened by the anomaly detectors with these thresholds (the others
    /// are the constants of [`crate::telemetry::recorder`]).
    pub flight: Option<DetectorConfig>,
    /// Assemble a span tree per solve (single or batched), down to the
    /// individual pool-lane chunks, tail-sampled into a bounded ring of
    /// [`TraceReport`]s under this policy (see [`crate::trace`]).
    pub trace: Option<TraceConfig>,
    /// Fold every finished span tree (sampled out or not) into the flame
    /// aggregate (see [`crate::profile`]).
    pub profile: bool,
}

impl ObserveConfig {
    /// Applies the `profile` ⇒ `trace` ⇒ `flight` implication and clamps
    /// the trace policy to its working range.
    fn normalized(mut self) -> Self {
        if self.profile && self.trace.is_none() {
            self.trace = Some(TraceConfig::default());
        }
        self.trace = self.trace.map(TraceConfig::normalized);
        if self.trace.is_some() && self.flight.is_none() {
            self.flight = Some(DetectorConfig::default());
        }
        self
    }

    /// True when no plane is on (`flight` covers `trace` and `profile`).
    fn is_inert(&self) -> bool {
        !self.metrics && self.flight.is_none()
    }
}

/// Counters of every plane in one consistent read
/// ([`Observer::status`]): what `/metrics` and `/healthz` render.
#[derive(Clone, Debug)]
pub struct ObserverStatus {
    /// The config in force (implications applied).
    pub config: ObserveConfig,
    /// Events delivered to the observer since the executor was built.
    pub events: u64,
    /// The metrics plane's aggregates, while it is on.
    pub metrics: Option<MetricsSnapshot>,
    /// Flight reports currently retained.
    pub runs: usize,
    /// Anomalies flagged since the flight plane was switched on, per kind
    /// (sorted).
    pub anomalies: Vec<(String, u64)>,
    /// Span trees currently retained.
    pub traces: usize,
    /// Healthy traces dropped by tail sampling.
    pub trace_drops: u64,
    /// Spans discarded across all traces by the per-trace cap.
    pub truncated_spans: u64,
    /// Flame nodes allocated.
    pub profile_nodes: usize,
    /// Spans dropped because the flame node cap was reached.
    pub profile_evicted: u64,
    /// Solves folded into the flame aggregate.
    pub profile_solves: u64,
}

impl ObserverStatus {
    /// Total anomalies flagged, over all kinds.
    pub fn anomalies_total(&self) -> u64 {
        self.anomalies.iter().map(|(_, n)| n).sum()
    }
}

// ---------------------------------------------------------------------------
// State
// ---------------------------------------------------------------------------

/// An open (not yet completed) span on the owner thread's stack.
struct OpenSpan {
    id: u64,
    kind: SpanKind,
    name: &'static str,
    index: u64,
    start_ns: u64,
}

/// The span tree of the solve in flight, while the trace plane is on.
struct SpanAssembly {
    root: u64,
    /// Batched solvers emit no `IterationComplete`, so no iteration layer
    /// is synthesized for them (kernels parent directly under the root).
    batch: bool,
    start_ns: u64,
    spans: Vec<SpanRecord>,
    open: Vec<OpenSpan>,
    iterations: u64,
    truncated: u64,
}

impl SpanAssembly {
    /// Appends a span unless the per-trace cap is hit (then counts it).
    fn push(&mut self, max_spans: usize, rec: SpanRecord) {
        if self.spans.len() < max_spans {
            self.spans.push(rec);
        } else {
            self.truncated += 1;
        }
    }

    /// Opens a span under the innermost open one.
    fn open(
        &mut self,
        next_id: &mut u64,
        kind: SpanKind,
        name: &'static str,
        index: u64,
        now: u64,
    ) {
        *next_id += 1;
        self.open.push(OpenSpan {
            id: *next_id,
            kind,
            name,
            index,
            start_ns: now,
        });
    }

    /// Completes the innermost open span as a record ending at `now`.
    fn close_top(&mut self, max_spans: usize, now: u64) -> Option<&'static str> {
        let top = self.open.pop()?;
        let rec = SpanRecord {
            id: top.id,
            parent: self.open.last().map(|o| o.id).unwrap_or(0),
            kind: top.kind,
            name: top.name,
            lane: OWNER_LANE,
            steal: false,
            index: top.index,
            start_ns: top.start_ns,
            dur_ns: now.saturating_sub(top.start_ns),
        };
        self.push(max_spans, rec);
        Some(top.name)
    }
}

/// How the solve in flight ended (`SolveCompleted` / `BatchSolveCompleted`).
#[derive(Clone, Copy)]
struct Outcome {
    solver: &'static str,
    iterations: usize,
    /// For a batch, synthesized: any breakdown taints the batch, full
    /// convergence is a converged batch, anything else stalled at the limit.
    reason: StopReason,
    batch: Option<BatchOutcome>,
}

/// What every per-solve plane accumulates between a solve's first and last
/// event.
struct SolveInFlight {
    /// The thread whose events belong to this solve.
    owner: ThreadId,
    /// Root operator name; `None` for a stream that started without one.
    root: Option<&'static str>,
    /// Open `solver::*` applies on the owner thread: the root closes the
    /// solve when it returns to 0, and iteration/completion events count
    /// only at depth <= 1 (deeper ones belong to a nested solver).
    depth: usize,
    residuals: ResidualSummary,
    /// Trailing residuals, oldest first, at most `STAGNATION_WINDOW + 1`.
    window: VecDeque<f64>,
    /// Wall latency per kernel name.
    kernels: BTreeMap<&'static str, Log2Histogram>,
    outcome: Option<Outcome>,
    trace: Option<SpanAssembly>,
}

impl SolveInFlight {
    fn new(owner: ThreadId, root: Option<&'static str>, trace: Option<SpanAssembly>) -> Self {
        SolveInFlight {
            owner,
            root,
            depth: root.is_some() as usize,
            residuals: ResidualSummary::default(),
            window: VecDeque::new(),
            kernels: BTreeMap::new(),
            outcome: None,
            trace,
        }
    }
}

/// The flight plane's ring and what its detectors remember across solves.
#[derive(Default)]
struct FlightLog {
    runs: VecDeque<FlightReport>,
    /// Per-lane counters at the end of the previous report, so each report
    /// carries only its own delta.
    lane_mark: Vec<LaneStats>,
    baselines: BTreeMap<&'static str, DriftBaseline>,
    context: Option<SystemContext>,
    anomaly_counts: BTreeMap<&'static str, u64>,
}

#[derive(Default)]
struct ObserverState {
    /// The config in force (normalized).
    config: ObserveConfig,
    /// Events delivered since construction.
    events: u64,
    /// Metrics plane: the live aggregate *is* the snapshot handed out.
    metrics: MetricsSnapshot,
    solve: Option<SolveInFlight>,
    /// Solves closed since construction: the number of the last one. Never
    /// reset, so a solve's number is unique for the executor's lifetime.
    solves: u64,
    flight: FlightLog,
    /// Trace plane: timebase (the first arm), the span-id counter, the
    /// tail-sampled ring and its counters. Never reset, so span ids stay
    /// unique.
    epoch: Option<Instant>,
    next_id: u64,
    traces: VecDeque<TraceReport>,
    trace_drops: u64,
    truncated_spans: u64,
    /// Profile plane.
    flame: FlameTree,
}

impl ObserverState {
    fn now_ns(&self) -> u64 {
        self.epoch.map_or(0, |e| e.elapsed().as_nanos() as u64)
    }

    /// The solve in flight if `tid` owns it. With none in flight one opens
    /// here, rootless: the stream carries no root apply.
    fn solve_of(&mut self, tid: ThreadId) -> Option<&mut SolveInFlight> {
        self.config.flight.as_ref()?;
        let solve = self
            .solve
            .get_or_insert_with(|| SolveInFlight::new(tid, None, None));
        (solve.owner == tid).then_some(solve)
    }
}

/// The entry of a name-sorted list for `key`, inserted zeroed if new.
fn entry<'a, T>(
    list: &'a mut Vec<T>,
    key: &str,
    name: impl Fn(&T) -> &str,
    new: impl FnOnce(String) -> T,
) -> &'a mut T {
    let at = match list.binary_search_by(|item| name(item).cmp(key)) {
        Ok(at) => at,
        Err(at) => {
            list.insert(at, new(key.to_string()));
            at
        }
    };
    &mut list[at]
}

/// Adds one to `key`'s count in a name-sorted `(name, count)` list.
fn bump(list: &mut Vec<(String, u64)>, key: &str) {
    entry(list, key, |(name, _)| name.as_str(), |name| (name, 0)).1 += 1;
}

// ---------------------------------------------------------------------------
// Observer
// ---------------------------------------------------------------------------

/// The executor's one observability consumer (see the module docs). Reached
/// through [`crate::Executor::observer`]; every read method hands out plain
/// value types.
pub struct Observer {
    /// The executor whose pool lanes flight reports account for.
    exec: WeakExecutor,
    /// A traced solve is in flight — the only thing the pool's per-dispatch
    /// probe reads.
    tracing: AtomicBool, // atomic: flag
    state: Mutex<ObserverState>, // lock: observe.state
    /// Serializes [`Observer::observe`] calls; never taken during delivery.
    arming: Mutex<()>, // lock: observe.arming
}

impl std::fmt::Debug for Observer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Observer")
            .field("config", &self.config())
            .finish_non_exhaustive()
    }
}

impl Observer {
    pub(crate) fn new(exec: WeakExecutor) -> Self {
        Observer {
            exec,
            tracing: AtomicBool::new(false),
            state: Mutex::new(ObserverState::default()),
            arming: Mutex::new(()),
        }
    }

    /// Standalone observer with no executor, running the planes of `config`:
    /// lane utilization stays empty. Intended for tests that synthesize the
    /// event stream and feed it through [`Logger::on_event`].
    pub fn detached(config: ObserveConfig) -> Self {
        let observer = Observer::new(WeakExecutor::default());
        observer.retarget(config.normalized());
        observer
    }

    fn state(&self) -> MutexGuard<'_, ObserverState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Puts `config` in force on `registry`'s executor: see
    /// [`crate::Executor::observe`].
    pub(crate) fn observe(self: &Arc<Self>, config: ObserveConfig, registry: &LoggerRegistry) {
        let _arming = self.arming.lock().unwrap_or_else(PoisonError::into_inner);
        let (was_inert, is_inert) = self.retarget(config.normalized());
        // Outside `observe.state`: delivery takes it under `log.loggers`.
        let me: Arc<dyn Logger> = self.clone();
        match (was_inert, is_inert) {
            (true, false) => registry.add(me),
            (false, true) => {
                registry.remove(&me);
            }
            _ => {}
        }
    }

    /// Swaps the config in force; returns whether the old and the new one
    /// are inert. The metrics and flight planes start afresh when switched
    /// on or off; new detector thresholds keep the runs. Traces, the flame
    /// tree and the solve counter outlive every re-arm.
    fn retarget(&self, config: ObserveConfig) -> (bool, bool) {
        let mut st = self.state();
        let was_inert = st.config.is_inert();
        if config.metrics && !st.config.metrics {
            st.metrics = MetricsSnapshot::default();
        }
        if config.flight.is_some() != st.config.flight.is_some() {
            st.flight = FlightLog::default();
        }
        if config.trace.is_some() {
            st.epoch.get_or_insert_with(Instant::now);
        } else {
            // An in-flight trace is abandoned (not a sampling drop).
            if let Some(solve) = &mut st.solve {
                solve.trace = None;
            }
            self.tracing.store(false, Ordering::Release);
        }
        if config.is_inert() {
            st.solve = None;
        }
        st.config = config;
        (was_inert, st.config.is_inert())
    }

    // -- reads ---------------------------------------------------------------

    /// The [`ObserveConfig`] in force (implications applied).
    pub fn config(&self) -> ObserveConfig {
        self.state().config.clone()
    }

    /// Events delivered to this observer since it was built.
    pub fn events_observed(&self) -> u64 {
        self.state().events
    }

    /// Every plane's counters in one consistent read.
    pub fn status(&self) -> ObserverStatus {
        let st = self.state();
        ObserverStatus {
            config: st.config.clone(),
            events: st.events,
            metrics: st.config.metrics.then(|| st.metrics.clone()),
            runs: st.flight.runs.len(),
            anomalies: st
                .flight
                .anomaly_counts
                .iter()
                .map(|(kind, n)| (kind.to_string(), *n))
                .collect(),
            traces: st.traces.len(),
            trace_drops: st.trace_drops,
            truncated_spans: st.truncated_spans,
            profile_nodes: st.flame.node_count,
            profile_evicted: st.flame.evicted,
            profile_solves: st.flame.solves,
        }
    }

    /// Everything the metrics plane recorded since it was switched on, while
    /// [`ObserveConfig::metrics`] is on.
    pub fn metrics(&self) -> Option<MetricsSnapshot> {
        let st = self.state();
        st.config.metrics.then(|| st.metrics.clone())
    }

    /// Records the system matrix subsequent flight reports describe
    /// (typically called by the facade when a solver is observed).
    pub fn annotate(&self, rows: usize, cols: usize, nnz: usize, format: &str) {
        self.state().flight.context = Some(SystemContext {
            rows,
            cols,
            nnz,
            format: format.to_string(),
        });
    }

    /// Flight reports retained in the ring, oldest first.
    pub fn runs(&self) -> Vec<FlightReport> {
        self.state().flight.runs.iter().cloned().collect()
    }

    /// The most recent flight report, if any solve completed.
    pub fn latest_run(&self) -> Option<FlightReport> {
        self.state().flight.runs.back().cloned()
    }

    /// Renders the `limit` most recent retained reports, newest first, as
    /// the `/runs` JSON document. `total` carries the retained count so a
    /// truncated response is recognizable; `returned` the length of
    /// `reports`. HTTP callers default `limit` to
    /// `DEFAULT_RUNS_LIMIT`.
    pub fn runs_json(&self, limit: usize) -> String {
        let st = self.state();
        let reports: Vec<Config> = st
            .flight
            .runs
            .iter()
            .rev()
            .take(limit.max(1))
            .map(FlightReport::to_config)
            .collect();
        let returned = reports.len();
        json::to_string_pretty(
            &Config::map()
                .with("reports", reports)
                .with("total", st.flight.runs.len())
                .with("returned", returned),
        )
    }

    /// Trace id of the solve currently being assembled, if any: the number
    /// it will be closed under.
    pub fn active_trace_id(&self) -> Option<u64> {
        let st = self.state();
        st.solve.as_ref()?.trace.as_ref().map(|_| st.solves + 1)
    }

    /// Retained traces, oldest first.
    pub fn traces(&self) -> Vec<TraceReport> {
        self.state().traces.iter().cloned().collect()
    }

    /// The most recently retained trace.
    pub fn latest_trace(&self) -> Option<TraceReport> {
        self.state().traces.back().cloned()
    }

    /// Looks up a retained trace by id.
    pub fn trace(&self, trace_id: u64) -> Option<TraceReport> {
        let st = self.state();
        st.traces.iter().find(|r| r.id() == trace_id).cloned()
    }

    /// `GET /traces` index: newest first, plus ring/drop counters.
    pub(crate) fn traces_json(&self) -> String {
        let st = self.state();
        let traces: Vec<Config> = st
            .traces
            .iter()
            .rev()
            .map(TraceReport::summary_config)
            .collect();
        let doc = Config::map()
            .with("traces", traces)
            .with("drops_total", st.trace_drops as i64)
            .with("truncated_spans_total", st.truncated_spans as i64)
            .with("armed", st.config.trace.is_some());
        json::to_string_pretty(&doc)
    }

    /// Snapshot of the flame tree (empty while nothing was folded).
    pub fn profile(&self) -> ProfileSnapshot {
        self.state().flame.snapshot()
    }

    /// Snapshots the flame tree and commits it as baseline `name`,
    /// replacing any previous baseline of that name.
    pub fn commit_profile_baseline(&self, name: &str) -> ProfileSnapshot {
        self.state().flame.commit_baseline(name)
    }

    /// A committed flame baseline by name; `Err` lists the known names
    /// (ascending).
    pub(crate) fn profile_baseline(&self, name: &str) -> Result<ProfileSnapshot, Vec<String>> {
        let st = self.state();
        match st.flame.baselines.get(name) {
            Some(snapshot) => Ok(snapshot.clone()),
            None => Err(st.flame.baselines.keys().cloned().collect()),
        }
    }

    // -- event-driven assembly (owner-thread layers) --------------------------

    /// `LinOpApplyStarted`: opens a solve on a root solver apply, a span
    /// inside a traced one.
    fn on_started(&self, st: &mut ObserverState, op: &'static str, tid: ThreadId) {
        let is_solver = op.starts_with("solver::");
        let now = st.now_ns();
        match &mut st.solve {
            Some(solve) if solve.root.is_some() => {
                if solve.owner != tid {
                    return;
                }
                solve.depth += is_solver as usize;
                let Some(t) = &mut solve.trace else { return };
                let kind = if op.ends_with("::plan") {
                    SpanKind::PlanBuild
                } else if is_solver {
                    SpanKind::Solve
                } else {
                    SpanKind::Kernel
                };
                // Synthesize the iteration layer lazily: the first kernel
                // opened directly under the root starts iteration k+1 (it
                // closes on `IterationComplete`, which stamps the number).
                // The prologue (initial residual) thus lands in iteration 1.
                if !t.batch && t.open.len() == 1 {
                    t.open(
                        &mut st.next_id,
                        SpanKind::Iteration,
                        "iteration",
                        t.iterations + 1,
                        now,
                    );
                }
                t.open(&mut st.next_id, kind, op, 0, now);
            }
            // Only a solver apply opens a solve (replacing what a stream
            // without one left behind); bare kernels outside stay unobserved.
            _ if is_solver && st.config.flight.is_some() => {
                let trace = st.config.trace.map(|_| {
                    st.next_id += 1;
                    SpanAssembly {
                        root: st.next_id,
                        batch: op.starts_with("solver::Batch"),
                        start_ns: now,
                        spans: Vec::new(),
                        open: vec![OpenSpan {
                            id: st.next_id,
                            kind: SpanKind::Solve,
                            name: op,
                            index: 0,
                            start_ns: now,
                        }],
                        iterations: 0,
                        truncated: 0,
                    }
                });
                self.tracing.store(trace.is_some(), Ordering::Release);
                st.solve = Some(SolveInFlight::new(tid, Some(op), trace));
            }
            _ => {}
        }
    }

    /// `LinOpApplyCompleted`: one kernel latency sample; closes the
    /// innermost open span matching `op` (anything opened above it, a
    /// dangling iteration or dispatch span, closes alongside) and, when the
    /// root apply returned, the solve.
    fn on_completed(&self, st: &mut ObserverState, op: &'static str, wall_ns: u64, tid: ThreadId) {
        let now = st.now_ns();
        let max_spans = st.config.trace.map_or(0, |policy| policy.max_spans);
        let Some(solve) = st.solve_of(tid) else {
            return;
        };
        solve.kernels.entry(op).or_default().record(wall_ns);
        if let Some(t) = &mut solve.trace {
            if t.open.iter().any(|o| o.name == op) {
                while t
                    .close_top(max_spans, now)
                    .is_some_and(|closed| closed != op)
                {}
            }
        }
        if solve.root.is_some() && op.starts_with("solver::") {
            solve.depth = solve.depth.saturating_sub(1);
            if solve.depth == 0 {
                self.close_solve(st, now);
            }
        }
    }

    /// `IterationComplete` of the root solver: one residual, and the end of
    /// the open iteration span.
    fn on_iteration(st: &mut ObserverState, iteration: usize, residual: f64, tid: ThreadId) {
        let now = st.now_ns();
        let max_spans = st.config.trace.map_or(0, |policy| policy.max_spans);
        let Some(solve) = st.solve_of(tid).filter(|s| s.depth <= 1) else {
            return;
        };
        let seen = &mut solve.residuals;
        if seen.count == 0 {
            seen.initial = residual;
            seen.minimum = residual;
        }
        seen.minimum = seen.minimum.min(residual);
        seen.last = residual;
        seen.count += 1;
        solve.window.push_back(residual);
        while solve.window.len() > STAGNATION_WINDOW + 1 {
            solve.window.pop_front();
        }
        if let Some(t) = &mut solve.trace {
            t.iterations = t.iterations.max(iteration as u64);
            if let Some(top) = t.open.last_mut().filter(|o| o.kind == SpanKind::Iteration) {
                top.index = iteration as u64;
                t.close_top(max_spans, now);
            }
        }
    }

    /// `SolveCompleted` / `BatchSolveCompleted` of the root solver. A rooted
    /// solve waits for its root apply to return; a rootless one ends here.
    fn on_outcome(&self, st: &mut ObserverState, outcome: Outcome, tid: ThreadId) {
        let Some(solve) = st.solve_of(tid).filter(|s| s.depth <= 1) else {
            return;
        };
        solve.outcome = Some(outcome);
        if solve.root.is_none() {
            self.close_solve(st, 0);
        }
    }

    /// The one end-of-solve fold (see the module docs for the order).
    fn close_solve(&self, st: &mut ObserverState, now: u64) {
        let Some(mut solve) = st.solve.take() else {
            return;
        };
        self.tracing.store(false, Ordering::Release);
        let ObserverState {
            config,
            metrics,
            solves,
            flight,
            traces,
            trace_drops,
            truncated_spans,
            flame,
            ..
        } = st;
        let Some(detectors) = &config.flight else {
            return;
        };
        *solves += 1;
        let lanes_now = self
            .exec
            .upgrade()
            .map(|e| e.pool_lane_stats())
            .unwrap_or_default();
        let lanes = lane_stats_since(&lanes_now, &flight.lane_mark);
        flight.lane_mark = lanes_now;
        let outcome = solve.outcome;
        let stop_reason = outcome.map(|o| o.reason);
        let converged = stop_reason.is_some_and(StopReason::is_converged);
        let mut anomalies = Vec::new();
        anomalies.extend(detect_convergence(
            solve.residuals.initial,
            solve.window.make_contiguous(),
            converged,
        ));
        anomalies.extend(detect_lane_imbalance(&lanes, detectors));
        let mut kernels = Vec::with_capacity(solve.kernels.len());
        for (op, latency) in &solve.kernels {
            let (p50_ns, p99_ns) = (latency.p50(), latency.p99());
            let baseline = flight.baselines.entry(op).or_default();
            anomalies.extend(baseline.judge(op, p99_ns, p50_ns, detectors));
            kernels.push(KernelLatency {
                op: op.to_string(),
                calls: latency.count,
                p50_ns,
                p95_ns: latency.p95(),
                p99_ns,
                max_ns: latency.max,
            });
        }
        for a in &anomalies {
            *flight.anomaly_counts.entry(a.kind()).or_insert(0) += 1;
            if config.metrics {
                bump(&mut metrics.anomalies, a.kind());
            }
        }
        let mut run = FlightReport {
            seq: *solves,
            solver: outcome
                .map(|o| o.solver)
                .or(solve.root)
                .unwrap_or_default()
                .to_string(),
            context: flight.context.clone(),
            iterations: outcome.map_or(0, |o| o.iterations),
            stop_reason,
            converged,
            residuals: solve.residuals,
            kernels,
            lanes,
            anomalies,
            batch: outcome.and_then(|o| o.batch),
            trace_id: None,
        };

        if let (Some(t), Some(policy)) = (solve.trace, config.trace) {
            *truncated_spans += t.truncated;
            // The flame tree aggregates every solve, retained or not.
            if config.profile {
                flame.fold(&t.spans);
            }
            let duration_ns = now.saturating_sub(t.start_ns);
            let retained = if !run.anomalies.is_empty() {
                "anomaly"
            } else if duration_ns >= LATENCY_THRESHOLD_NS {
                "latency"
            } else if (run.seq - 1).is_multiple_of(policy.sample_n) {
                "sampled"
            } else {
                ""
            };
            if retained.is_empty() {
                *trace_drops += 1;
            } else {
                run.trace_id = Some(run.seq);
                while traces.len() >= TRACE_CAPACITY {
                    traces.pop_front();
                }
                traces.push_back(TraceReport {
                    run: run.clone(),
                    root: t.root,
                    duration_ns,
                    retained,
                    truncated_spans: t.truncated,
                    spans: t.spans,
                });
            }
        }
        while flight.runs.len() >= RUNS_CAPACITY {
            flight.runs.pop_front();
        }
        flight.runs.push_back(run);
    }

    // -- pool dispatches -------------------------------------------------------

    /// Opens a dispatch span of `chunks` chunks and returns its id. Returns
    /// `None` — after exactly one relaxed load — unless a traced solve is in
    /// flight *and* owned by the calling thread (nested dispatches submitted
    /// by pool workers stay unattributed).
    pub(crate) fn begin_dispatch(&self, chunks: usize) -> Option<u64> {
        if !self.tracing.load(Ordering::Relaxed) {
            return None;
        }
        let tid = std::thread::current().id();
        let mut guard = self.state();
        let st = &mut *guard;
        let now = st.now_ns();
        let solve = st.solve.as_mut().filter(|s| s.owner == tid)?;
        let t = solve.trace.as_mut()?;
        t.open(
            &mut st.next_id,
            SpanKind::Dispatch,
            "pool_dispatch",
            chunks as u64,
            now,
        );
        Some(st.next_id)
    }

    /// Turns the drained dispatch's chunk log into chunk spans under the
    /// dispatch span `dispatch` and closes it. The log's times count from
    /// its own epoch and are shifted onto the trace's.
    pub(crate) fn end_dispatch(&self, dispatch: u64, log: &ChunkLog) {
        let mut guard = self.state();
        let st = &mut *guard;
        let now = st.now_ns();
        let max_spans = st.config.trace.map_or(0, |policy| policy.max_spans);
        let shift = st.epoch.map_or(0, |epoch| {
            log.epoch().saturating_duration_since(epoch).as_nanos() as u64
        });
        let Some(t) = st.solve.as_mut().and_then(|s| s.trace.as_mut()) else {
            return;
        };
        // Span ids are never reused, so an open dispatch span of this id is
        // the one `begin_dispatch` opened for this log.
        if !t.open.iter().any(|o| o.id == dispatch) {
            return;
        }
        for (lane, runs) in log.lanes().enumerate() {
            for run in runs.iter() {
                st.next_id += 1;
                let span = SpanRecord {
                    id: st.next_id,
                    parent: dispatch,
                    kind: SpanKind::Chunk,
                    name: "chunk",
                    lane: lane as u32,
                    steal: run.steal,
                    index: run.index as u64,
                    start_ns: shift + run.start_ns,
                    dur_ns: run.dur_ns,
                };
                t.push(max_spans, span);
            }
        }
        if t.open.last().is_some_and(|o| o.id == dispatch) {
            t.close_top(max_spans, now);
        }
    }
}

impl Logger for Observer {
    /// The one match: the metrics plane counts every event on the executor,
    /// the per-solve planes fold the ones their solve's owner emitted.
    fn on_event(&self, event: &Event) {
        let tid = std::thread::current().id();
        let mut guard = self.state();
        let st = &mut *guard;
        st.events += 1;
        if st.config.metrics {
            st.metrics.events += 1;
        }
        let counted = st.config.metrics.then_some(&mut st.metrics);
        match *event {
            Event::LinOpApplyStarted { op } => self.on_started(st, op, tid),
            Event::LinOpApplyCompleted {
                op,
                wall_ns,
                virtual_ns,
            } => {
                if let Some(m) = counted {
                    let kernel = entry(
                        &mut m.kernels,
                        op,
                        |k| k.op.as_str(),
                        |op| KernelSnapshot {
                            op,
                            ..KernelSnapshot::default()
                        },
                    );
                    kernel.calls += 1;
                    kernel.wall_ns.record(wall_ns);
                    kernel.virtual_ns.record(virtual_ns);
                }
                self.on_completed(st, op, wall_ns, tid);
            }
            Event::IterationComplete {
                solver,
                iteration,
                residual,
            } => {
                if let Some(m) = counted {
                    bump(&mut m.solver_iterations, solver);
                }
                Self::on_iteration(st, iteration, residual, tid);
            }
            Event::CriterionChecked { .. } => {
                if let Some(m) = counted {
                    m.criterion_checks += 1;
                }
            }
            Event::SolveCompleted {
                solver,
                iterations,
                reason,
                ..
            } => {
                if let Some(m) = counted {
                    m.solves += 1;
                }
                let outcome = Outcome {
                    solver,
                    iterations,
                    reason,
                    batch: None,
                };
                self.on_outcome(st, outcome, tid);
            }
            // A batch is one solve to the metrics plane; the flight report
            // carries the per-system breakdown.
            Event::BatchSolveCompleted {
                solver,
                systems,
                converged,
                breakdowns,
                iterations,
            } => {
                if let Some(m) = counted {
                    m.solves += 1;
                }
                let reason = if breakdowns > 0 {
                    StopReason::Breakdown
                } else if converged == systems {
                    StopReason::ResidualReduction
                } else {
                    StopReason::MaxIterations
                };
                let batch = Some(BatchOutcome {
                    systems,
                    converged,
                    breakdowns,
                });
                let outcome = Outcome {
                    solver,
                    iterations,
                    reason,
                    batch,
                };
                self.on_outcome(st, outcome, tid);
            }
            Event::AllocationComplete { bytes } => {
                if let Some(m) = counted {
                    m.alloc_bytes.record(bytes as u64);
                }
            }
            Event::PlanBuilt { chunks, .. } => {
                if let Some(m) = counted {
                    m.plan_builds += 1;
                }
                // The chunk count the plan resolved to rides on its span.
                let open = st.solve.as_mut().filter(|s| s.owner == tid);
                let top = open
                    .and_then(|s| s.trace.as_mut())
                    .and_then(|t| t.open.last_mut());
                if let Some(top) = top.filter(|o| o.kind == SpanKind::PlanBuild) {
                    top.index = chunks;
                }
            }
            Event::PoolDispatch { wall_ns, .. } => {
                if let Some(m) = counted {
                    m.pool_dispatch_ns.record(wall_ns);
                }
            }
        }
    }

    fn name(&self) -> &'static str {
        "observer"
    }
}
