//! `gko` — a from-scratch Rust reimplementation of the architecture of the
//! [Ginkgo](https://ginkgo-project.github.io) sparse linear algebra engine,
//! built as the computational substrate for the pyGinkgo reproduction.
//!
//! The crate mirrors Ginkgo's layering (paper §3.2, §4):
//!
//! * **Executors** ([`executor`]) decide where data lives and where kernels
//!   run. `Reference`, `Omp`, `Cuda`, and `Hip` executors are provided; the
//!   device executors are deterministic performance-model simulations (see
//!   `pygko-sim`) that execute real numerics.
//! * **The [`LinOp`](linop::LinOp) abstraction** (paper §4.2) unifies
//!   matrices, solvers, and preconditioners behind one `apply` interface,
//!   enabling composable solver pipelines.
//! * **Matrix formats** ([`matrix`]): `Dense`, `Csr` (with classical and
//!   load-balanced SpMV strategies), `Coo`, `Ell`, and `Sellp`.
//! * **Solvers** ([`solver`]): CG, CGS, BiCGStab, GMRES (Givens rotations,
//!   per-iteration residual updates — the exact algorithmic choices §6.2.1
//!   contrasts with CuPy), Richardson/IR, triangular solves, and a dense LU
//!   direct solver.
//! * **Preconditioners** ([`preconditioner`]): scalar and block Jacobi, ILU,
//!   and IC, backed by the [`factorization`] module's ILU(0)/IC(0).
//! * **Stopping criteria** ([`stop`]), **loggers** ([`log`]), and the
//!   always-on **metrics registry** ([`metrics`]: latency histograms,
//!   Prometheus exporter). The registry, flight recorder, tracer and
//!   profiler below are switched by one call, [`Executor::observe`].
//! * **The live telemetry plane** ([`telemetry`]): a std-only HTTP scrape
//!   endpoint (`/metrics`, `/healthz`, `/runs`), per-lane pool utilization
//!   series, and an anomaly-detecting flight recorder.
//! * **The runtime sanitizer** ([`sanitize`]): chunk-overlap detection for
//!   the worker pool, structural `validate()` for every matrix format, and
//!   a seeded schedule-perturbation stress harness.
//! * **Causal span tracing** ([`trace`]): per-solve trace trees from the
//!   solve root down to individual pool-lane chunks, tail-sampled into a
//!   bounded store and served by the telemetry plane (`/traces`, with a
//!   Chrome-trace export).
//! * **Continuous profiling** ([`profile`]): always-on flame aggregation
//!   over the span stream — windowed [`FlameNode`](profile) trees keyed by
//!   span path with wall/virtual self-time, per-lane attribution, and
//!   p50/p99 per path, served as JSON or folded stacks (`/profile`) and
//!   diffed against named baselines (`/profile/diff`).
//! * **The config solver** ([`config`], paper §5): a generic entry point that
//!   builds arbitrary solver/preconditioner pipelines from a JSON-style
//!   configuration tree, with a from-scratch JSON parser/serializer.

#![warn(missing_docs)]

pub mod base;
pub mod config;
pub mod executor;
pub mod factorization;
pub mod linop;
pub mod log;
pub mod matrix;
pub mod metrics;
pub mod preconditioner;
pub mod profile;
pub mod sanitize;
pub mod solver;
pub mod stop;
pub mod telemetry;
pub mod trace;

pub use base::array::Array;
pub use base::dim::Dim2;
pub use base::error::{GkoError, Result};
pub use base::types::{Index, TripletValue, Value};
pub use executor::pool::{LaneStats, PoolStats};
pub use executor::{Executor, ObserveConfig};
pub use linop::LinOp;
pub use metrics::{HistogramSnapshot, MetricsRegistry, MetricsSnapshot};
pub use profile::{
    DiffRow, FlameStat, ProfileConfig, ProfileDiff, ProfileSnapshot, ProfileStore,
};
pub use sanitize::{ClaimLog, ClaimViolation, Sanitizer, SanitizerReport};
pub use telemetry::{
    Anomaly, DetectorConfig, FlightRecorder, FlightReport, TelemetryServer,
};
pub use trace::{
    SpanContext, SpanId, SpanKind, SpanRecord, TraceConfig, TraceId, TraceReport, Tracer,
};
