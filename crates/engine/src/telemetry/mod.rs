//! Live telemetry plane: the scrape endpoint over everything the executor's
//! [`Observer`](crate::Observer) holds, plus per-lane pool utilization.
//!
//! [`crate::log`] streams raw events and the observer folds them; this
//! module makes that state *continuously observable* without a human
//! attaching a profiler, using nothing beyond `std`:
//!
//! * [`TelemetryServer`] (see [`crate::Executor::serve_telemetry`]) — a
//!   blocking-accept HTTP exporter serving `GET /metrics` (Prometheus text),
//!   `GET /healthz` (liveness + sanitizer arm state, JSON), `GET /runs`
//!   (recent flight reports, JSON), `GET /traces` + `GET /traces/<id>` (the
//!   tail-sampled span trees, JSON or Chrome-trace), and `GET /profile` +
//!   `GET /profile/diff` (the flame aggregates, JSON or folded stacks);
//! * [`recorder`] — the per-solve [`FlightReport`] and the stagnation /
//!   divergence, lane-imbalance, and latency-drift detectors that screen it
//!   ([`DetectorConfig`] holds the thresholds);
//! * [`prom::validate`] — a strict in-tree validator for the Prometheus
//!   text format, used by tests and CI to prove scrapes are never torn.
//!
//! The inert path is unchanged: with no exporter or plane armed,
//! instrumented sites still cost one relaxed atomic load.

pub mod http;
pub mod prom;
pub mod recorder;

pub use http::TelemetryServer;
pub use recorder::{
    Anomaly, BatchOutcome, DetectorConfig, FlightReport, KernelLatency, ResidualSummary,
    SystemContext, DEFAULT_RUNS_LIMIT,
};

use crate::config::{json, Config};
use crate::executor::pool::LaneStats;
use crate::executor::Executor;
use crate::metrics::Exposition;
use crate::observe::ObserverStatus;

/// Renders the full `/metrics` document for `exec`: see [`render_exposition`].
pub fn render_prometheus(exec: &Executor) -> String {
    render_exposition(
        &exec.observer().status(),
        &exec.pool_lane_stats(),
        exec.uptime_seconds(),
    )
}

/// Renders a `/metrics` document: the metrics plane's families (while on),
/// one labelled series triple per pool lane, the flight, trace and profile
/// gauges of the planes that are on, and the build/uptime identity gauges.
pub fn render_exposition(
    status: &ObserverStatus,
    lanes: &[LaneStats],
    uptime_seconds: f64,
) -> String {
    let mut doc = Exposition::new();
    if let Some(metrics) = &status.metrics {
        metrics.write_families(&mut doc);
    }
    type LaneField = fn(&LaneStats) -> u64;
    let lane_families: [(&str, &str, LaneField); 3] = [
        (
            "gko_pool_lane_chunks_total",
            "Chunk closures executed per pool lane.",
            |l| l.chunks,
        ),
        (
            "gko_pool_lane_steals_total",
            "Chunks stolen from another lane's queue, per executing lane.",
            |l| l.steals,
        ),
        (
            "gko_pool_lane_busy_ns_total",
            "Wall nanoseconds spent draining chunks, per pool lane.",
            |l| l.busy_ns,
        ),
    ];
    // An executor without a pool declares no lane families at all.
    for (name, help, field) in lane_families {
        if lanes.is_empty() {
            break;
        }
        doc.family(name, help, "counter");
        for (lane, stats) in lanes.iter().enumerate() {
            doc.sample(&[("lane", lane.to_string().as_str())], field(stats));
        }
    }
    let config = &status.config;
    let gauges: [(bool, &str, &str, &str, u64); 7] = [
        (
            config.flight.is_some(),
            "gko_flight_reports",
            "Flight-recorder reports currently retained.",
            "gauge",
            status.runs as u64,
        ),
        (
            config.trace.is_some(),
            "gko_trace_retained",
            "Span trees currently retained in the trace store.",
            "gauge",
            status.traces as u64,
        ),
        (
            config.trace.is_some(),
            "gko_trace_drops_total",
            "Traces discarded by tail-based sampling.",
            "counter",
            status.trace_drops,
        ),
        (
            config.trace.is_some(),
            "gko_trace_truncated_spans_total",
            "Spans dropped because a trace hit its span cap.",
            "counter",
            status.truncated_spans,
        ),
        (
            config.profile,
            "gko_profile_nodes",
            "Flame nodes allocated in the profiler's tree.",
            "gauge",
            status.profile_nodes as u64,
        ),
        (
            config.profile,
            "gko_profile_evicted_total",
            "Spans dropped because the profiler's node cap was reached.",
            "counter",
            status.profile_evicted,
        ),
        (
            config.profile,
            "gko_profile_solves_total",
            "Solves folded into the flame aggregate since arming.",
            "counter",
            status.profile_solves,
        ),
    ];
    for (_, name, help, kind, value) in gauges.into_iter().filter(|g| g.0) {
        doc.family(name, help, kind).sample(&[], value);
    }
    // Build/uptime identity gauges, unconditional so every scrape carries
    // them (the standard `build_info` idiom: constant 1, facts as labels).
    let build_profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    doc.family(
        "gko_build_info",
        "Build identity; constant 1 with version/profile labels.",
        "gauge",
    )
    .sample(
        &[
            ("version", env!("CARGO_PKG_VERSION")),
            ("profile", build_profile),
        ],
        1,
    );
    doc.family(
        "gko_uptime_seconds",
        "Real seconds since this executor was constructed.",
        "gauge",
    )
    .sample(&[], uptime_seconds);
    doc.finish()
}

/// Renders the `/healthz` JSON document for `exec`.
pub fn health_json(exec: &Executor) -> String {
    let stats = exec.pool_stats();
    let lanes = exec.pool_lane_stats();
    let sanitizer = exec.sanitizer_report();
    let status = exec.observer().status();
    let cfg = Config::map()
        .with("status", "ok")
        .with("backend", exec.backend().name())
        .with("device", exec.name())
        .with("functional_threads", exec.functional_threads())
        .with(
            "pool",
            Config::map()
                .with("spawned", !lanes.is_empty())
                .with("lanes", lanes.len())
                .with("dispatches", stats.dispatches as i64)
                .with("chunks", stats.chunks as i64)
                .with("steals", stats.steals as i64),
        )
        .with(
            "sanitizer",
            Config::map()
                .with("armed", exec.sanitizer().is_enabled())
                .with("jobs_checked", sanitizer.jobs_checked as i64)
                .with("pieces_checked", sanitizer.pieces_checked as i64),
        )
        .with(
            "metrics",
            Config::map()
                .with("enabled", status.metrics.is_some())
                .with(
                    "events",
                    status.metrics.as_ref().map_or(0, |m| m.events) as i64,
                ),
        )
        .with(
            "flight_recorder",
            Config::map()
                .with("enabled", status.config.flight.is_some())
                .with("reports", status.runs)
                .with("anomalies", status.anomalies_total() as i64),
        )
        .with(
            "tracing",
            Config::map()
                .with("armed", status.config.trace.is_some())
                .with("retained", status.traces)
                .with("drops", status.trace_drops as i64),
        )
        .with(
            "profiling",
            Config::map()
                .with("armed", status.config.profile)
                .with("nodes", status.profile_nodes)
                .with("solves", status.profile_solves as i64)
                .with("evicted", status.profile_evicted as i64),
        )
        .with("uptime_seconds", exec.uptime_seconds());
    json::to_string_pretty(&cfg)
}
