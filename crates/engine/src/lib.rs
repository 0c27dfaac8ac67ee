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
//! * **Stopping criteria** ([`stop`]) and **loggers** ([`log`]): components
//!   emit events, loggers observe.
//! * **Observability** ([`observe`]): every executor embeds one
//!   [`Observer`], the single consumer behind four planes switched by one
//!   call, [`Executor::observe`] — aggregated [`metrics`] (latency
//!   histograms, Prometheus exposition), per-solve flight reports screened
//!   by anomaly detectors ([`telemetry::recorder`]), span trees from the
//!   solve root down to individual pool-lane chunks ([`trace`]), and flame
//!   aggregates over them ([`profile`]). [`telemetry`] serves it all over a
//!   std-only HTTP endpoint (`/metrics`, `/healthz`, `/runs`, `/traces`,
//!   `/profile`).
//! * **The runtime sanitizer** ([`sanitize`]): chunk-overlap detection for
//!   the worker pool, structural `validate()` for every matrix format, and
//!   a seeded schedule-perturbation stress harness.
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
pub mod observe;
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
pub use executor::Executor;
pub use linop::LinOp;
pub use metrics::{HistogramSnapshot, Log2Histogram, MetricsSnapshot};
pub use observe::{ObserveConfig, Observer, ObserverStatus};
pub use profile::{DiffRow, FlameStat, ProfileDiff, ProfileSnapshot};
pub use sanitize::{ClaimLog, PartitionViolation, Sanitizer, SanitizerReport};
pub use telemetry::{Anomaly, DetectorConfig, FlightReport, TelemetryServer};
pub use trace::{SpanContext, SpanId, SpanKind, SpanRecord, TraceConfig, TraceReport};
