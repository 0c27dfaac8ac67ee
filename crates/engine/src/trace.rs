//! Span tracing value types: per-solve trace trees through the worker pool.
//!
//! Where [`crate::log`] answers *what happened* (a flat event stream) and
//! [`crate::metrics`] answers *how long things usually take* (aggregates),
//! the trace plane answers *why was this particular solve slow*: while
//! [`crate::ObserveConfig::trace`] is set, every solve — single or batched —
//! gets a trace id and the executor's [`Observer`](crate::Observer)
//! assembles a hierarchical span tree
//!
//! ```text
//! solve -> iteration -> kernel apply -> plan build
//!                                    -> pool dispatch -> per-lane chunk
//! ```
//!
//! The owner-thread layers (solve, iteration, kernel, plan build) are
//! reconstructed from the event stream: [`crate::log::OpTimer`] emits
//! `LinOpApplyStarted`/`Completed` strictly nested on the solving thread, so
//! a stack of open spans recovers the tree without any changes to the
//! kernels themselves. The pool layers cannot be event-reconstructed —
//! chunks run concurrently on other threads — so they are propagated
//! *explicitly*: `parallel_chunks` asks the observer for a dispatch handle
//! carrying a [`SpanContext`] `{trace_id, parent_span_id}`, the chunk
//! closures record begin/end/steal against cache-padded per-lane buffers,
//! and the handle folds them back into the tree when the dispatch ends.
//! A stolen chunk's span is owned by the lane that *executed* it (`lane`),
//! with `steal = true` recording that its home queue was elsewhere.
//!
//! # Tail-based sampling
//!
//! Retaining every trace of every solve would be unbounded; head-sampling
//! alone would miss exactly the solves worth keeping. The bounded trace ring
//! therefore decides *at completion* (tail-based):
//!
//! * traces whose solve tripped an anomaly detector (stagnation, divergence,
//!   lane imbalance, latency drift) are always retained
//!   (`retained = "anomaly"`),
//! * traces exceeding [`TraceConfig::latency_threshold_ns`] are always
//!   retained (`retained = "latency"`),
//! * healthy traces are head-sampled 1-in-`sample_n`
//!   (`retained = "sampled"`), and
//! * everything else is dropped, counted in `gko_trace_drops_total`.
//!
//! The solve's [`FlightReport`](crate::FlightReport) and its [`TraceReport`]
//! are built by the same end-of-solve fold, so they carry the same trace id
//! and the same anomaly labels (arming tracing arms the flight plane).
//!
//! Serving: `GET /traces` (index) and `GET /traces/<id>` (full span tree
//! JSON; `?format=chrome` renders [`TraceReport::to_chrome_trace`]).

use crate::config::{json, Config};
use std::collections::BTreeSet;

// ---------------------------------------------------------------------------
// Identifiers and span records
// ---------------------------------------------------------------------------

/// Identifier of one traced solve. Unique per executor for its lifetime
/// (ids are never reused, even across disarm/re-arm).
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

/// One completed span. Times are nanoseconds since the trace epoch (the
/// first arm), so spans from one trace — and across traces — share a single
/// monotonic timebase.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanRecord {
    /// Unique (per executor) span id.
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
    /// Start offset from the trace epoch, nanoseconds.
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
    /// Retained traces kept in the ring (oldest evicted).
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
    pub(crate) fn normalized(mut self) -> Self {
        self.sample_n = self.sample_n.max(1);
        self.capacity = self.capacity.max(1);
        self.max_spans = self.max_spans.max(64);
        self
    }
}
