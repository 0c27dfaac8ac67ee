//! Causal span tracing: per-solve trace trees through the worker pool.
//!
//! Where [`crate::log`] answers *what happened* (a flat event stream) and
//! [`crate::metrics`] answers *how long things usually take* (aggregates),
//! this module answers *why was this particular solve slow*: every solve —
//! single or batched — acquires a [`TraceId`] and assembles a hierarchical
//! span tree
//!
//! ```text
//! solve -> iteration -> kernel apply -> plan build
//!                                    -> pool dispatch -> per-lane chunk
//! ```
//!
//! The owner-thread layers (solve, iteration, kernel, plan build) are
//! reconstructed from the §10 event stream: [`crate::log::OpTimer`] emits
//! `LinOpApplyStarted`/`Completed` strictly nested on the solving thread, so
//! a per-trace stack of open spans recovers the tree without any changes to
//! the kernels themselves. The pool layers cannot be event-reconstructed —
//! chunks run concurrently on other threads — so they are propagated
//! *explicitly*: `parallel_chunks` asks the tracer for a dispatch handle
//! carrying a [`SpanContext`] `{trace_id, parent_span_id}`, the chunk
//! closures record begin/end/steal against cache-padded per-lane buffers,
//! and the handle folds them back into the tree when the dispatch ends.
//! A stolen chunk's span is owned by the lane that *executed* it (`lane`),
//! with `steal = true` recording that its home queue was elsewhere.
//!
//! # Inert fast path
//!
//! Like §10 logging, a disarmed (or armed-but-idle) tracer costs one relaxed
//! atomic load per probe: [`Tracer::begin_dispatch`] checks the `active`
//! flag before touching any lock, and the event hook is only attached to the
//! logger registry while tracing is enabled, so solves on an untraced
//! executor never even reach [`Tracer::ingest`]. `bench_gate` holds the
//! inert path inside a tolerance band (see `trace_overhead`).
//!
//! # Tail-based sampling
//!
//! Retaining every trace of every solve would be unbounded; head-sampling
//! alone would miss exactly the solves worth keeping. The bounded
//! [`TraceStore`] ring therefore decides *at completion* (tail-based):
//!
//! * traces whose solve tripped a flight-recorder anomaly detector
//!   (stagnation, divergence, lane imbalance, latency drift) are always
//!   retained (`retained = "anomaly"`),
//! * traces exceeding [`TraceConfig::latency_threshold_ns`] are always
//!   retained (`retained = "latency"`),
//! * healthy traces are head-sampled 1-in-`sample_n`
//!   (`retained = "sampled"`), and
//! * everything else is dropped, counted in `gko_trace_drops_total`.
//!
//! The flight-recorder linkage is two-way: `FlightReport.trace_id` lets
//! `/runs` anomaly entries link their trace, and the tracer reads the
//! recorder's verdict for the just-finished solve to make the retention
//! decision (arming tracing arms the recorder).
//!
//! Serving: `GET /traces` (index) and `GET /traces/<id>` (full span tree
//! JSON; `?format=chrome` renders [`TraceReport::to_chrome_trace`]).

use crate::config::{json, Config};
use crate::executor::Executor;
use crate::log::Event;
use crate::stop::StopReason;
use std::collections::{BTreeSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::thread::ThreadId;
use std::time::Instant;

// ---------------------------------------------------------------------------
// Identifiers and span records
// ---------------------------------------------------------------------------

/// Identifier of one traced solve. Unique per executor for the lifetime of
/// its tracer (ids are never reused, even across disarm/re-arm).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TraceId(pub u64);

/// Identifier of one span inside a trace. `SpanId(0)` is reserved as "no
/// parent" (the root's parent).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SpanId(pub u64);

/// The context a chunk closure carries through `WorkerPool` dispatch: which
/// trace it belongs to and which span (the dispatch span) parents the chunk
/// spans it records.
#[derive(Clone, Copy, Debug)]
pub struct SpanContext {
    /// Trace the dispatch belongs to.
    pub trace_id: TraceId,
    /// Span id the recorded chunk spans are parented under.
    pub parent_span_id: SpanId,
}

/// Layer of the solve tree a span belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanKind {
    /// A solver apply (the root, or a nested solver such as an inner
    /// preconditioner solve).
    Solve,
    /// One solver iteration (synthesized; closed by `IterationComplete`).
    Iteration,
    /// An instrumented operator/kernel apply.
    Kernel,
    /// An SpMV inspector run (`*::plan` kernels); `index` carries the chunk
    /// count the plan resolved to once `PlanBuilt` is observed.
    PlanBuild,
    /// One worker-pool dispatch; `index` carries the chunk count.
    Dispatch,
    /// One chunk closure executed by a pool lane; `index` is the chunk
    /// index, `lane` the executing lane, `steal` whether the executing lane
    /// differed from the chunk's home queue.
    Chunk,
}

impl SpanKind {
    /// Stable lowercase name used in JSON exports.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Solve => "solve",
            SpanKind::Iteration => "iteration",
            SpanKind::Kernel => "kernel_apply",
            SpanKind::PlanBuild => "plan_build",
            SpanKind::Dispatch => "pool_dispatch",
            SpanKind::Chunk => "chunk",
        }
    }
}

/// Sentinel `lane` for spans recorded on the solve (owner) thread rather
/// than by a pool lane.
pub const OWNER_LANE: u32 = u32::MAX;

/// One completed span. Times are nanoseconds since the tracer's epoch (the
/// first arm), so spans from one trace — and across traces — share a single
/// monotonic timebase.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanRecord {
    /// Unique (per tracer) span id.
    pub id: u64,
    /// Parent span id; `0` for the root.
    pub parent: u64,
    /// Tree layer.
    pub kind: SpanKind,
    /// Operator / synthetic name (`"solver::Cg"`, `"csr"`, `"iteration"`,
    /// `"pool_dispatch"`, `"chunk"`, ...).
    pub name: &'static str,
    /// Executing pool lane for chunk spans, [`OWNER_LANE`] otherwise.
    pub lane: u32,
    /// Chunk spans: executed off the home queue (work stealing).
    pub steal: bool,
    /// Kind-specific payload: iteration number, chunk index, or dispatch /
    /// plan chunk count.
    pub index: u64,
    /// Start offset from the tracer epoch, nanoseconds.
    pub start_ns: u64,
    /// Duration, nanoseconds.
    pub dur_ns: u64,
}

// ---------------------------------------------------------------------------
// Completed traces
// ---------------------------------------------------------------------------

/// One retained trace: the span tree plus the solve-level verdicts that
/// drove the retention decision.
#[derive(Clone, Debug)]
pub struct TraceReport {
    /// Trace identifier (the `/traces/<id>` key).
    pub trace_id: u64,
    /// 1-based ordinal of this solve among all traced solves (drives the
    /// 1-in-N head sample).
    pub seq: u64,
    /// Root operator name, e.g. `"solver::Cg"`.
    pub annotation: String,
    /// Span id of the root solve span.
    pub root: u64,
    /// Wall-clock duration of the root span, nanoseconds.
    pub duration_ns: u64,
    /// Why the trace survived tail sampling: `"anomaly"`, `"latency"`, or
    /// `"sampled"`.
    pub retained: &'static str,
    /// Anomaly kinds the flight recorder flagged for this solve.
    pub anomalies: Vec<String>,
    /// Completed iterations (0 when the solver emits none, e.g. batches).
    pub iterations: u64,
    /// Whether the solve converged.
    pub converged: bool,
    /// Stop reason name (or a batch outcome summary).
    pub stop_reason: String,
    /// Spans discarded because the per-trace cap was hit.
    pub truncated_spans: u64,
    /// The completed spans, in completion order.
    pub spans: Vec<SpanRecord>,
}

impl TraceReport {
    /// Index entry served by `GET /traces`.
    pub fn summary_config(&self) -> Config {
        let anomalies: Vec<Config> = self
            .anomalies
            .iter()
            .map(|k| Config::from(k.clone()))
            .collect();
        Config::map()
            .with("trace_id", self.trace_id as i64)
            .with("annotation", self.annotation.clone())
            .with("duration_ns", self.duration_ns as i64)
            .with("retained", self.retained)
            .with("anomalies", anomalies)
            .with("iterations", self.iterations as i64)
            .with("spans", self.spans.len())
    }

    /// Full span-tree document served by `GET /traces/<id>`.
    pub fn to_config(&self) -> Config {
        let spans: Vec<Config> = self
            .spans
            .iter()
            .map(|s| {
                let mut c = Config::map()
                    .with("id", s.id as i64)
                    .with("parent", s.parent as i64)
                    .with("kind", s.kind.name())
                    .with("name", s.name)
                    .with("index", s.index as i64)
                    .with("start_ns", s.start_ns as i64)
                    .with("dur_ns", s.dur_ns as i64);
                if s.lane != OWNER_LANE {
                    c = c.with("lane", s.lane as i64).with("steal", s.steal);
                }
                c
            })
            .collect();
        self.summary_config()
            .with("seq", self.seq as i64)
            .with("root", self.root as i64)
            .with("converged", self.converged)
            .with("stop_reason", self.stop_reason.clone())
            .with("truncated_spans", self.truncated_spans as i64)
            .with("spans", spans)
    }

    /// Renders the trace as a `chrome://tracing` / Perfetto-loadable JSON
    /// document — the engine's only Chrome exporter: owner-thread spans
    /// land on lane 0 ("solve"), chunk spans on one named lane per
    /// executing pool lane, each span as one balanced `"B"`/`"E"` pair.
    pub fn to_chrome_trace(&self) -> String {
        let meta = |name: &str, tid: u32, label: String| {
            Config::map()
                .with("name", name)
                .with("ph", "M")
                .with("pid", 1i64)
                .with("tid", tid as i64)
                .with("args", Config::map().with("name", label))
        };
        let tid = |s: &SpanRecord| if s.lane == OWNER_LANE { 0 } else { s.lane + 1 };
        let mut events = vec![
            meta("process_name", 0, "gko".to_string()),
            meta("thread_name", 0, format!("solve {}", self.annotation)),
        ];
        let pool_lanes: BTreeSet<u32> = self
            .spans
            .iter()
            .filter(|s| s.lane != OWNER_LANE)
            .map(|s| s.lane)
            .collect();
        for lane in pool_lanes {
            events.push(meta("thread_name", lane + 1, format!("lane-{lane}")));
        }
        // B/E pairs sorted by begin time (longest first on ties) so viewers
        // reconstruct the nesting.
        let mut sorted: Vec<&SpanRecord> = self.spans.iter().collect();
        sorted.sort_by_key(|s| (s.start_ns, std::cmp::Reverse(s.dur_ns)));
        for s in sorted {
            for (ph, at_ns) in [("B", s.start_ns), ("E", s.start_ns + s.dur_ns)] {
                events.push(
                    Config::map()
                        .with("name", s.name)
                        .with("ph", ph)
                        .with("ts", at_ns as f64 / 1000.0)
                        .with("pid", 1i64)
                        .with("tid", tid(s) as i64),
                );
            }
        }
        let mut out = json::to_string(&Config::map().with("traceEvents", events));
        out.push('\n');
        out
    }
}

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// Tracing policy knobs (see the module docs for the sampling model).
#[derive(Clone, Copy, Debug)]
pub struct TraceConfig {
    /// Head-sample 1 healthy trace in every `sample_n` (clamped to >= 1;
    /// `1` retains every trace).
    pub sample_n: u64,
    /// Traces slower than this are always retained regardless of sampling.
    pub latency_threshold_ns: u64,
    /// Retained traces kept in the [`TraceStore`] ring (oldest evicted).
    pub capacity: usize,
    /// Per-trace span cap; spans beyond it are counted in
    /// `truncated_spans`, keeping pathological solves bounded.
    pub max_spans: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            sample_n: 16,
            latency_threshold_ns: 500_000_000,
            capacity: 16,
            max_spans: 200_000,
        }
    }
}

impl TraceConfig {
    fn normalized(mut self) -> Self {
        self.sample_n = self.sample_n.max(1);
        self.capacity = self.capacity.max(1);
        self.max_spans = self.max_spans.max(64);
        self
    }
}

// ---------------------------------------------------------------------------
// Tracer internals
// ---------------------------------------------------------------------------

/// An open (not yet completed) span on the owner thread's stack.
struct OpenSpan {
    id: u64,
    kind: SpanKind,
    name: &'static str,
    index: u64,
    start_ns: u64,
}

/// The trace currently being assembled. At most one solve per executor is
/// traced at a time; concurrent solves from other threads run untraced (and
/// unperturbed — their events fail the owner check and return immediately).
struct ActiveTrace {
    trace_id: u64,
    seq: u64,
    owner: ThreadId,
    root: u64,
    /// Batched solvers emit no `IterationComplete`, so no iteration layer
    /// is synthesized for them (kernels parent directly under the root).
    batch: bool,
    annotation: String,
    head_keep: bool,
    start_ns: u64,
    spans: Vec<SpanRecord>,
    open: Vec<OpenSpan>,
    iterations: u64,
    converged: bool,
    stop_reason: String,
    truncated: u64,
}

/// Bounded ring of retained [`TraceReport`]s (the tail-sampled store).
#[derive(Default)]
pub struct TraceStore {
    ring: VecDeque<TraceReport>,
}

#[derive(Default)]
struct TracerState {
    config: TraceConfig,
    epoch: Option<Instant>,
    seq: u64,
    next_id: u64,
    current: Option<ActiveTrace>,
    store: TraceStore,
    truncated_total: u64,
}

/// A finished trace awaiting its retention verdict (built under the state
/// lock, judged outside it so the flight-recorder query cannot deadlock
/// against a recorder that is querying the tracer).
struct FinishedTrace {
    report: TraceReport,
    head_keep: bool,
}

/// Per-executor trace collector. Embedded directly in the executor (like
/// the sanitizer): probing it costs one relaxed atomic load when inert.
pub struct Tracer {
    /// Tracing enabled (armed) at all.
    armed: AtomicBool, // atomic: flag
    /// A trace is currently assembling — the only flag the pool fast path
    /// reads.
    active: AtomicBool, // atomic: flag
    /// Healthy traces dropped by tail sampling (`gko_trace_drops_total`).
    drops: AtomicU64, // atomic: counter
    state: Mutex<TracerState>, // lock: tracer.state
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("armed", &self.is_armed())
            .field("drops", &self.drops())
            .finish_non_exhaustive()
    }
}

impl std::fmt::Debug for TraceHook {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceHook").finish_non_exhaustive()
    }
}

fn elapsed_ns(epoch: &Option<Instant>) -> u64 {
    match epoch {
        Some(e) => e.elapsed().as_nanos() as u64,
        None => 0,
    }
}

fn stop_reason_name(reason: StopReason) -> &'static str {
    match reason {
        StopReason::MaxIterations => "max_iterations",
        StopReason::ResidualReduction => "residual_reduction",
        StopReason::AbsoluteResidual => "absolute_residual",
        StopReason::Breakdown => "breakdown",
    }
}

/// Appends a span unless the per-trace cap is hit (then counts it).
fn push_span(t: &mut ActiveTrace, max_spans: usize, rec: SpanRecord) {
    if t.spans.len() < max_spans {
        t.spans.push(rec);
    } else {
        t.truncated += 1;
    }
}

impl Tracer {
    pub(crate) fn new() -> Self {
        Tracer {
            armed: AtomicBool::new(false),
            active: AtomicBool::new(false),
            drops: AtomicU64::new(0),
            state: Mutex::new(TracerState::default()),
        }
    }

    fn state(&self) -> MutexGuard<'_, TracerState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Arms tracing with `config`. Idempotent; re-arming updates the policy
    /// but keeps the epoch, id sequence, and retained traces.
    pub(crate) fn arm(&self, config: TraceConfig) {
        let mut s = self.state();
        s.config = config.normalized();
        if s.epoch.is_none() {
            s.epoch = Some(Instant::now());
        }
        let cap = s.config.capacity;
        while s.store.ring.len() > cap {
            s.store.ring.pop_front();
        }
        self.armed.store(true, Ordering::Release);
    }

    /// Disarms tracing; an in-flight trace is abandoned (not counted as a
    /// sampling drop). Retained traces stay readable.
    pub(crate) fn disarm(&self) {
        self.armed.store(false, Ordering::Release);
        self.active.store(false, Ordering::Release);
        self.state().current = None;
    }

    /// Whether tracing is armed.
    pub fn is_armed(&self) -> bool {
        self.armed.load(Ordering::Relaxed)
    }

    /// Healthy traces dropped by tail sampling.
    pub fn drops(&self) -> u64 {
        self.drops.load(Ordering::Relaxed)
    }

    /// Spans discarded across all traces by the per-trace cap.
    pub fn truncated_spans(&self) -> u64 {
        self.state().truncated_total
    }

    /// Trace id of the solve currently being assembled, if any.
    pub fn active_trace_id(&self) -> Option<u64> {
        if !self.active.load(Ordering::Relaxed) {
            return None;
        }
        self.state().current.as_ref().map(|t| t.trace_id)
    }

    /// Retained traces, oldest first.
    pub fn reports(&self) -> Vec<TraceReport> {
        self.state().store.ring.iter().cloned().collect()
    }

    /// Number of retained traces.
    pub fn retained(&self) -> usize {
        self.state().store.ring.len()
    }

    /// The most recently retained trace.
    pub fn latest(&self) -> Option<TraceReport> {
        self.state().store.ring.back().cloned()
    }

    /// Looks up a retained trace by id.
    pub fn report(&self, trace_id: u64) -> Option<TraceReport> {
        self.state()
            .store
            .ring
            .iter()
            .find(|r| r.trace_id == trace_id)
            .cloned()
    }

    /// `GET /traces` index: newest first, plus store/drop counters.
    pub fn index_json(&self) -> String {
        let s = self.state();
        let traces: Vec<Config> = s
            .store
            .ring
            .iter()
            .rev()
            .map(TraceReport::summary_config)
            .collect();
        let doc = Config::map()
            .with("traces", traces)
            .with("drops_total", self.drops() as i64)
            .with("truncated_spans_total", s.truncated_total as i64)
            .with("armed", self.is_armed());
        json::to_string_pretty(&doc)
    }

    // -- event-driven assembly (owner-thread layers) ------------------------

    /// Feeds one §10 event into the assembler. Called by the trace hook the
    /// executor attaches while tracing is armed; must never call back into
    /// the logger registry (the registry lock is held during delivery).
    pub(crate) fn ingest(&self, event: &Event, exec: &Executor) {
        if !self.armed.load(Ordering::Relaxed) {
            return;
        }
        let tid = std::thread::current().id();
        match event {
            Event::LinOpApplyStarted { op } => self.on_started(op, tid),
            Event::LinOpApplyCompleted { op, .. } => {
                if let Some(done) = self.on_completed(op, tid) {
                    self.finish(done, exec);
                }
            }
            Event::IterationComplete { iteration, .. } => {
                self.on_iteration(*iteration as u64, tid)
            }
            Event::PlanBuilt { chunks, .. } => self.on_plan_built(*chunks, tid),
            Event::SolveCompleted {
                iterations, reason, ..
            } => self.on_solve_completed(
                tid,
                *iterations as u64,
                reason.is_converged(),
                stop_reason_name(*reason).to_string(),
            ),
            Event::BatchSolveCompleted {
                systems,
                converged,
                breakdowns,
                iterations,
                ..
            } => self.on_solve_completed(
                tid,
                *iterations as u64,
                *converged == *systems && *breakdowns == 0,
                format!(
                    "batch: {converged}/{systems} converged, {breakdowns} breakdowns"
                ),
            ),
            _ => {}
        }
    }

    fn on_started(&self, op: &'static str, tid: ThreadId) {
        let mut s = self.state();
        let st = &mut *s;
        let now = elapsed_ns(&st.epoch);
        match st.current.as_mut() {
            None => {
                // Only a solver apply roots a new trace; bare kernel applies
                // outside a solve stay untraced.
                if !op.starts_with("solver::") {
                    return;
                }
                st.seq += 1;
                st.next_id += 1;
                let trace_id = st.next_id;
                st.next_id += 1;
                let root = st.next_id;
                let head_keep = (st.seq - 1).is_multiple_of(st.config.sample_n);
                st.current = Some(ActiveTrace {
                    trace_id,
                    seq: st.seq,
                    owner: tid,
                    root,
                    batch: op.starts_with("solver::Batch"),
                    annotation: op.to_string(),
                    head_keep,
                    start_ns: now,
                    spans: Vec::new(),
                    open: vec![OpenSpan {
                        id: root,
                        kind: SpanKind::Solve,
                        name: op,
                        index: 0,
                        start_ns: now,
                    }],
                    iterations: 0,
                    converged: false,
                    stop_reason: String::new(),
                    truncated: 0,
                });
                self.active.store(true, Ordering::Release);
            }
            Some(t) => {
                if t.owner != tid {
                    return;
                }
                let kind = if op.ends_with("::plan") {
                    SpanKind::PlanBuild
                } else if op.starts_with("solver::") {
                    SpanKind::Solve
                } else {
                    SpanKind::Kernel
                };
                // Synthesize the iteration layer lazily: the first kernel
                // opened directly under the root starts iteration k+1 (it
                // closes on `IterationComplete`, which stamps the number).
                // The prologue (initial residual) thus lands in iteration 1.
                if !t.batch && t.open.len() == 1 {
                    st.next_id += 1;
                    t.open.push(OpenSpan {
                        id: st.next_id,
                        kind: SpanKind::Iteration,
                        name: "iteration",
                        index: t.iterations + 1,
                        start_ns: now,
                    });
                }
                st.next_id += 1;
                t.open.push(OpenSpan {
                    id: st.next_id,
                    kind,
                    name: op,
                    index: 0,
                    start_ns: now,
                });
            }
        }
    }

    /// Closes the innermost open span matching `op`; anything opened above
    /// it (a dangling iteration or dispatch span) is closed alongside.
    /// Returns the finished trace when the root itself closed.
    fn on_completed(&self, op: &'static str, tid: ThreadId) -> Option<FinishedTrace> {
        let mut s = self.state();
        let st = &mut *s;
        let now = elapsed_ns(&st.epoch);
        let max_spans = st.config.max_spans;
        let t = st.current.as_mut()?;
        if t.owner != tid || !t.open.iter().any(|o| o.name == op) {
            return None;
        }
        while let Some(top) = t.open.pop() {
            let matched = top.name == op;
            let parent = t.open.last().map(|o| o.id).unwrap_or(0);
            let rec = SpanRecord {
                id: top.id,
                parent,
                kind: top.kind,
                name: top.name,
                lane: OWNER_LANE,
                steal: false,
                index: top.index,
                start_ns: top.start_ns,
                dur_ns: now.saturating_sub(top.start_ns),
            };
            push_span(t, max_spans, rec);
            if matched {
                break;
            }
        }
        if !t.open.is_empty() {
            return None;
        }
        // Root closed: detach the trace and judge it outside the lock.
        let t = st.current.take()?;
        self.active.store(false, Ordering::Release);
        st.truncated_total += t.truncated;
        let duration_ns = now.saturating_sub(t.start_ns);
        Some(FinishedTrace {
            head_keep: t.head_keep,
            report: TraceReport {
                trace_id: t.trace_id,
                seq: t.seq,
                annotation: t.annotation,
                root: t.root,
                duration_ns,
                retained: "",
                anomalies: Vec::new(),
                iterations: t.iterations,
                converged: t.converged,
                stop_reason: t.stop_reason,
                truncated_spans: t.truncated,
                spans: t.spans,
            },
        })
    }

    fn on_iteration(&self, iteration: u64, tid: ThreadId) {
        let mut s = self.state();
        let st = &mut *s;
        let now = elapsed_ns(&st.epoch);
        let max_spans = st.config.max_spans;
        let Some(t) = st.current.as_mut() else { return };
        if t.owner != tid {
            return;
        }
        t.iterations = t.iterations.max(iteration);
        if t.open.last().is_some_and(|o| o.kind == SpanKind::Iteration) {
            if let Some(top) = t.open.pop() {
                let parent = t.open.last().map(|o| o.id).unwrap_or(0);
                let rec = SpanRecord {
                    id: top.id,
                    parent,
                    kind: SpanKind::Iteration,
                    name: top.name,
                    lane: OWNER_LANE,
                    steal: false,
                    index: iteration,
                    start_ns: top.start_ns,
                    dur_ns: now.saturating_sub(top.start_ns),
                };
                push_span(t, max_spans, rec);
            }
        }
    }

    fn on_plan_built(&self, chunks: u64, tid: ThreadId) {
        let mut s = self.state();
        let Some(t) = s.current.as_mut() else { return };
        if t.owner != tid {
            return;
        }
        if let Some(top) = t.open.last_mut() {
            if top.kind == SpanKind::PlanBuild {
                top.index = chunks;
            }
        }
    }

    fn on_solve_completed(&self, tid: ThreadId, iterations: u64, converged: bool, reason: String) {
        let mut s = self.state();
        let Some(t) = s.current.as_mut() else { return };
        if t.owner != tid {
            return;
        }
        t.iterations = t.iterations.max(iterations);
        t.converged = converged;
        t.stop_reason = reason;
    }

    /// Tail-sampling verdict. Runs without the tracer lock held so reading
    /// the flight recorder cannot interleave with a recorder that is
    /// reading [`Tracer::active_trace_id`].
    fn finish(&self, done: FinishedTrace, exec: &Executor) {
        let mut report = done.report;
        // Continuous profiling folds every completed trace — including the
        // ones tail sampling is about to drop — into the flame aggregate.
        // One relaxed load while profiling is disarmed; no tracer lock is
        // held here, and the fold only takes the leaf `profile.state` lock.
        exec.profile().fold(&report);
        if let Some(recorder) = exec.flight_recorder() {
            if let Some(flight) = recorder.latest() {
                if flight.trace_id == Some(report.trace_id) {
                    report.anomalies = flight
                        .anomalies
                        .iter()
                        .map(|a| a.kind().to_string())
                        .collect();
                }
            }
        }
        let mut s = self.state();
        report.retained = if !report.anomalies.is_empty() {
            "anomaly"
        } else if report.duration_ns >= s.config.latency_threshold_ns {
            "latency"
        } else if done.head_keep {
            "sampled"
        } else {
            self.drops.fetch_add(1, Ordering::Relaxed);
            return;
        };
        let cap = s.config.capacity;
        if s.store.ring.len() >= cap {
            s.store.ring.pop_front();
        }
        s.store.ring.push_back(report);
    }

    // -- explicit pool propagation ------------------------------------------

    /// Opens a dispatch span and hands back the context chunk closures
    /// record against. Returns `None` — after exactly one relaxed load —
    /// unless a trace is active *and* owned by the calling thread (nested
    /// dispatches submitted by pool workers stay unattributed).
    pub(crate) fn begin_dispatch(&self, lanes: usize, chunks: usize) -> Option<DispatchTrace> {
        if !self.active.load(Ordering::Relaxed) {
            return None;
        }
        let tid = std::thread::current().id();
        let mut s = self.state();
        let st = &mut *s;
        let epoch = st.epoch?;
        let now = elapsed_ns(&st.epoch);
        let t = st.current.as_mut()?;
        if t.owner != tid {
            return None;
        }
        st.next_id += 1;
        let span_id = st.next_id;
        t.open.push(OpenSpan {
            id: span_id,
            kind: SpanKind::Dispatch,
            name: "pool_dispatch",
            index: chunks as u64,
            start_ns: now,
        });
        Some(DispatchTrace {
            ctx: SpanContext {
                trace_id: TraceId(t.trace_id),
                parent_span_id: SpanId(span_id),
            },
            epoch,
            chunks,
            lanes: (0..lanes.max(1)).map(|_| LaneChunkBuf::default()).collect(),
        })
    }

    /// Folds a dispatch's per-lane chunk records into the tree and closes
    /// the dispatch span. Chunk spans parent under the dispatch span from
    /// the propagated [`SpanContext`].
    pub(crate) fn end_dispatch(&self, d: DispatchTrace) {
        let mut s = self.state();
        let st = &mut *s;
        let now = elapsed_ns(&st.epoch);
        let max_spans = st.config.max_spans;
        let Some(t) = st.current.as_mut() else { return };
        if t.trace_id != d.ctx.trace_id.0 {
            return;
        }
        let parent_chunks = d.ctx.parent_span_id.0;
        for buf in d.lanes.iter() {
            let mut recs = buf.recs.lock().unwrap_or_else(PoisonError::into_inner);
            for rec in recs.drain(..) {
                st.next_id += 1;
                let span = SpanRecord {
                    id: st.next_id,
                    parent: parent_chunks,
                    kind: SpanKind::Chunk,
                    name: "chunk",
                    lane: rec.lane,
                    steal: rec.steal,
                    index: rec.index as u64,
                    start_ns: rec.start_ns,
                    dur_ns: rec.dur_ns,
                };
                push_span(t, max_spans, span);
            }
        }
        if t.open.last().is_some_and(|o| o.id == parent_chunks) {
            if let Some(top) = t.open.pop() {
                let parent = t.open.last().map(|o| o.id).unwrap_or(0);
                let rec = SpanRecord {
                    id: top.id,
                    parent,
                    kind: SpanKind::Dispatch,
                    name: top.name,
                    lane: OWNER_LANE,
                    steal: false,
                    index: d.chunks as u64,
                    start_ns: top.start_ns,
                    dur_ns: now.saturating_sub(top.start_ns),
                };
                push_span(t, max_spans, rec);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Event hook
// ---------------------------------------------------------------------------

/// Logger that forwards the executor's §10 event stream into its embedded
/// tracer. Attached by `Executor::observe` while its config carries a
/// `trace` policy and detached otherwise, so solves on an untraced executor
/// pay only the registry's own relaxed-load fast path.
pub(crate) struct TraceHook {
    exec: crate::executor::WeakExecutor,
}

impl TraceHook {
    pub(crate) fn new(exec: crate::executor::WeakExecutor) -> Self {
        TraceHook { exec }
    }
}

impl crate::log::Logger for TraceHook {
    fn on_event(&self, event: &Event) {
        if let Some(exec) = self.exec.upgrade() {
            exec.tracer().ingest(event, &exec);
        }
    }

    fn name(&self) -> &'static str {
        "trace"
    }
}

// ---------------------------------------------------------------------------
// Dispatch-scoped chunk recording
// ---------------------------------------------------------------------------

/// One chunk execution recorded by a lane.
struct ChunkRec {
    index: usize,
    lane: u32,
    steal: bool,
    start_ns: u64,
    dur_ns: u64,
}

/// Cache-line-padded per-lane buffer: each lane appends its own chunk
/// records without contending with (or false-sharing against) its
/// neighbours.
#[repr(align(64))]
#[derive(Default)]
struct LaneChunkBuf {
    recs: Mutex<Vec<ChunkRec>>, // lock: trace.chunkbuf.recs
}

/// Live handle for one traced pool dispatch: carries the propagated
/// [`SpanContext`] and the per-lane chunk buffers. Created by
/// [`Tracer::begin_dispatch`], consumed by [`Tracer::end_dispatch`].
pub(crate) struct DispatchTrace {
    ctx: SpanContext,
    epoch: Instant,
    chunks: usize,
    lanes: Box<[LaneChunkBuf]>,
}

impl DispatchTrace {
    /// Nanoseconds since the tracer epoch (chunk closures sample this at
    /// begin and end).
    pub(crate) fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The context chunk closures carry: `{trace_id, parent_span_id}`.
    pub(crate) fn context(&self) -> SpanContext {
        self.ctx
    }

    /// Records one executed chunk against the executing lane's buffer.
    /// `ctx` is the span context the chunk closure carried across the
    /// dispatch boundary; a record whose context does not match this
    /// dispatch is discarded rather than attributed to the wrong tree.
    pub(crate) fn record(
        &self,
        ctx: SpanContext,
        index: usize,
        lane: usize,
        steal: bool,
        start_ns: u64,
        end_ns: u64,
    ) {
        if ctx.trace_id != self.ctx.trace_id || ctx.parent_span_id != self.ctx.parent_span_id {
            return;
        }
        let Some(buf) = self.lanes.get(lane.min(self.lanes.len().saturating_sub(1))) else {
            return;
        };
        let mut recs = buf.recs.lock().unwrap_or_else(PoisonError::into_inner);
        recs.push(ChunkRec {
            index,
            lane: lane as u32,
            steal,
            start_ns,
            dur_ns: end_ns.saturating_sub(start_ns),
        });
    }
}
