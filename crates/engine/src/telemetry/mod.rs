//! Live telemetry plane: scrape endpoint, per-lane pool utilization, and an
//! anomaly-detecting flight recorder.
//!
//! [`crate::log`] streams raw events and [`crate::metrics`] aggregates them;
//! this module makes that state *continuously observable* without a human
//! attaching a profiler, using nothing beyond `std`:
//!
//! * [`TelemetryServer`] (see [`crate::Executor::serve_telemetry`]) — a
//!   blocking-accept HTTP exporter serving `GET /metrics` (Prometheus text),
//!   `GET /healthz` (liveness + sanitizer arm state, JSON), `GET /runs`
//!   (recent flight-recorder reports, JSON), `GET /traces` +
//!   `GET /traces/<id>` (the tracer's tail-sampled span trees, JSON or
//!   Chrome-trace), and `GET /profile` + `GET /profile/diff` (the
//!   continuous profiler's flame aggregates, JSON or folded stacks);
//! * [`FlightRecorder`] (see [`crate::ObserveConfig::flight`]) —
//!   a bounded ring of per-solve [`FlightReport`]s screened by stagnation /
//!   divergence, lane-imbalance, and latency-drift detectors
//!   ([`DetectorConfig`] holds the thresholds);
//! * [`prom::validate`] — a strict in-tree validator for the Prometheus
//!   text format, used by tests and CI to prove scrapes are never torn.
//!
//! The inert path is unchanged: with no exporter or recorder attached,
//! instrumented sites still cost one relaxed atomic load.

pub mod http;
pub mod prom;
pub mod recorder;

pub use http::TelemetryServer;
pub use recorder::{
    Anomaly, BatchOutcome, DetectorConfig, FlightRecorder, FlightReport, KernelLatency,
    ResidualSummary, SystemContext, DEFAULT_RUNS_LIMIT,
};

use crate::config::{json, Config};
use crate::executor::Executor;
use std::fmt::Write as _;

/// Renders the full `/metrics` document for `exec`: the metrics registry's
/// exposition (when enabled), one labelled series triple per pool lane, and
/// the flight recorder's report gauge.
pub fn render_prometheus(exec: &Executor) -> String {
    let mut out = exec
        .metrics()
        .map(|m| m.snapshot().to_prometheus())
        .unwrap_or_default();
    let lanes = exec.pool_lane_stats();
    if !lanes.is_empty() {
        for (metric, help, field) in [
            (
                "gko_pool_lane_chunks_total",
                "Chunk closures executed per pool lane.",
                0usize,
            ),
            (
                "gko_pool_lane_steals_total",
                "Chunks stolen from another lane's queue, per executing lane.",
                1,
            ),
            (
                "gko_pool_lane_busy_ns_total",
                "Wall nanoseconds spent draining chunks, per pool lane.",
                2,
            ),
        ] {
            let _ = writeln!(out, "# HELP {metric} {help}");
            let _ = writeln!(out, "# TYPE {metric} counter");
            for (lane, stats) in lanes.iter().enumerate() {
                let value = match field {
                    0 => stats.chunks,
                    1 => stats.steals,
                    _ => stats.busy_ns,
                };
                let _ = writeln!(out, "{metric}{{lane=\"{lane}\"}} {value}");
            }
        }
    }
    if let Some(recorder) = exec.flight_recorder() {
        let _ = writeln!(
            out,
            "# HELP gko_flight_reports Flight-recorder reports currently retained."
        );
        let _ = writeln!(out, "# TYPE gko_flight_reports gauge");
        let _ = writeln!(out, "gko_flight_reports {}", recorder.reports_len());
    }
    let tracer = exec.tracer();
    if tracer.is_armed() {
        let _ = writeln!(
            out,
            "# HELP gko_trace_retained Span trees currently retained in the trace store."
        );
        let _ = writeln!(out, "# TYPE gko_trace_retained gauge");
        let _ = writeln!(out, "gko_trace_retained {}", tracer.retained());
        let _ = writeln!(
            out,
            "# HELP gko_trace_drops_total Traces discarded by tail-based sampling."
        );
        let _ = writeln!(out, "# TYPE gko_trace_drops_total counter");
        let _ = writeln!(out, "gko_trace_drops_total {}", tracer.drops());
        let _ = writeln!(
            out,
            "# HELP gko_trace_truncated_spans_total Spans dropped because a trace hit its span cap."
        );
        let _ = writeln!(out, "# TYPE gko_trace_truncated_spans_total counter");
        let _ = writeln!(
            out,
            "gko_trace_truncated_spans_total {}",
            tracer.truncated_spans()
        );
    }
    let profile = exec.profile();
    if profile.is_armed() {
        let _ = writeln!(
            out,
            "# HELP gko_profile_nodes Flame nodes allocated in the profiler's live window."
        );
        let _ = writeln!(out, "# TYPE gko_profile_nodes gauge");
        let _ = writeln!(out, "gko_profile_nodes {}", profile.node_count());
        let _ = writeln!(
            out,
            "# HELP gko_profile_evicted_total Spans dropped because the profiler's node cap was reached."
        );
        let _ = writeln!(out, "# TYPE gko_profile_evicted_total counter");
        let _ = writeln!(out, "gko_profile_evicted_total {}", profile.evicted());
        let _ = writeln!(
            out,
            "# HELP gko_profile_solves_total Solves folded into the flame aggregate since arming."
        );
        let _ = writeln!(out, "# TYPE gko_profile_solves_total counter");
        let _ = writeln!(out, "gko_profile_solves_total {}", profile.solves_total());
    }
    // Build/uptime identity gauges, unconditional so every scrape carries
    // them (the standard `build_info` idiom: constant 1, facts as labels).
    let build_profile = if cfg!(debug_assertions) { "debug" } else { "release" };
    let _ = writeln!(
        out,
        "# HELP gko_build_info Build identity; constant 1 with version/profile labels."
    );
    let _ = writeln!(out, "# TYPE gko_build_info gauge");
    let _ = writeln!(
        out,
        "gko_build_info{{version=\"{}\",profile=\"{build_profile}\"}} 1",
        env!("CARGO_PKG_VERSION")
    );
    let _ = writeln!(
        out,
        "# HELP gko_uptime_seconds Real seconds since this executor was constructed."
    );
    let _ = writeln!(out, "# TYPE gko_uptime_seconds gauge");
    let _ = writeln!(out, "gko_uptime_seconds {}", exec.uptime_seconds());
    out
}

/// Renders the `/healthz` JSON document for `exec`.
pub fn health_json(exec: &Executor) -> String {
    let stats = exec.pool_stats();
    let lanes = exec.pool_lane_stats();
    let sanitizer = exec.sanitizer_report();
    let recorder = exec.flight_recorder();
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
                .with("enabled", exec.metrics().is_some())
                .with(
                    "events",
                    exec.metrics().map(|m| m.events_observed()).unwrap_or(0) as i64,
                ),
        )
        .with(
            "flight_recorder",
            Config::map()
                .with("enabled", recorder.is_some())
                .with(
                    "reports",
                    recorder.as_ref().map(|r| r.reports_len()).unwrap_or(0),
                )
                .with(
                    "anomalies",
                    recorder.as_ref().map(|r| r.anomalies_total()).unwrap_or(0) as i64,
                ),
        )
        .with(
            "tracing",
            Config::map()
                .with("armed", exec.tracer().is_armed())
                .with("retained", exec.tracer().retained())
                .with("drops", exec.tracer().drops() as i64),
        )
        .with(
            "profiling",
            Config::map()
                .with("armed", exec.profile().is_armed())
                .with("nodes", exec.profile().node_count())
                .with("solves", exec.profile().solves_total() as i64)
                .with("evicted", exec.profile().evicted() as i64),
        )
        .with("uptime_seconds", exec.uptime_seconds());
    json::to_string_pretty(&cfg)
}
