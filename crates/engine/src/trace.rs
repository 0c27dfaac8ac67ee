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
//! chunks run concurrently on other threads — so `parallel_chunks` opens a
//! dispatch span, hands the pool a chunk log of its own, and after the drain
//! the observer turns the log's runs into the dispatch span's chunk spans.
//! A chunk span is owned by the lane that *executed* it (`lane`), and
//! `steal = true` records that the lane took it from another lane's queue.
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
//! * traces of solves slower than [`LATENCY_THRESHOLD_NS`] are always
//!   retained (`retained = "latency"`),
//! * healthy traces are head-sampled: the solve numbered `n` is kept when
//!   `n - 1` is a multiple of [`TraceConfig::sample_n`]
//!   (`retained = "sampled"`), and
//! * everything else is dropped, counted in `gko_trace_drops_total`.
//!
//! The ring keeps the newest `TRACE_CAPACITY` retained traces.
//!
//! # One id, one verdict
//!
//! The observer numbers each solve it closes once, from a counter that is
//! never reset (arming tracing arms the flight plane, so every traced solve
//! is closed into a run). That number is the run's
//! [`FlightReport::seq`](crate::FlightReport::seq) and the trace's id: a
//! retained [`TraceReport`] holds the run itself, and only a kept tree
//! stamps [`FlightReport::trace_id`](crate::FlightReport::trace_id), so
//! every `/runs` link resolves.
//!
//! Serving: `GET /traces` (index) and `GET /traces/<id>` (full span tree
//! JSON; `?format=chrome` renders [`TraceReport::to_chrome_trace`]).

use crate::config::{json, Config};
use crate::telemetry::FlightReport;
use std::collections::BTreeSet;

// ---------------------------------------------------------------------------
// Span records
// ---------------------------------------------------------------------------

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
    /// index, `lane` the executing lane, `steal` whether the lane took it
    /// from another lane's queue.
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

/// One retained trace: the solve's run and its span tree.
#[derive(Clone, Debug)]
pub struct TraceReport {
    /// The solve's flight report, the one `/runs` serves: its `seq` is the
    /// trace id, and it holds the verdicts that drove retention.
    pub run: FlightReport,
    /// Span id of the root solve span.
    pub root: u64,
    /// Wall-clock duration of the root span, nanoseconds.
    pub duration_ns: u64,
    /// Why the trace survived tail sampling: `"anomaly"`, `"latency"`, or
    /// `"sampled"`.
    pub retained: &'static str,
    /// Spans discarded because the per-trace cap was hit.
    pub truncated_spans: u64,
    /// The completed spans, in completion order.
    pub spans: Vec<SpanRecord>,
}

impl TraceReport {
    /// The trace id (the `/traces/<id>` key): the run's number.
    pub fn id(&self) -> u64 {
        self.run.seq
    }

    /// Index entry served by `GET /traces`.
    pub(crate) fn summary_config(&self) -> Config {
        let anomalies: Vec<Config> = self.run.anomalies.iter().map(|a| a.kind().into()).collect();
        Config::map()
            .with("trace_id", self.id() as i64)
            .with("solver", self.run.solver.as_str())
            .with("duration_ns", self.duration_ns as i64)
            .with("retained", self.retained)
            .with("anomalies", anomalies)
            .with("spans", self.spans.len())
    }

    /// Full document served by `GET /traces/<id>`: the run as `/runs`
    /// renders it, and the span tree.
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
        Config::map()
            .with("trace_id", self.id() as i64)
            .with("run", self.run.to_config())
            .with("root", self.root as i64)
            .with("duration_ns", self.duration_ns as i64)
            .with("retained", self.retained)
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
            meta("thread_name", 0, format!("solve {}", self.run.solver)),
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

/// Solves slower than this are always retained, whatever the head sample.
pub const LATENCY_THRESHOLD_NS: u64 = 500_000_000;

/// Retained traces kept in the ring (oldest evicted first).
pub(crate) const TRACE_CAPACITY: usize = 16;

/// The two tracing knobs a caller sets (see the module docs for the
/// sampling model).
#[derive(Clone, Copy, Debug)]
pub struct TraceConfig {
    /// Head-sample 1 healthy trace in every `sample_n` (clamped to >= 1;
    /// `1` retains every trace).
    pub sample_n: u64,
    /// Per-trace span cap; spans beyond it are counted in
    /// `truncated_spans`, keeping pathological solves bounded.
    pub max_spans: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            sample_n: 16,
            max_spans: 200_000,
        }
    }
}

impl TraceConfig {
    pub(crate) fn normalized(mut self) -> Self {
        self.sample_n = self.sample_n.max(1);
        self.max_spans = self.max_spans.max(64);
        self
    }
}
