//! Flight reports: the per-solve record the flight plane keeps, and the
//! anomaly detectors that screen it.
//!
//! While [`crate::ObserveConfig::flight`] is set, the executor's
//! [`Observer`](crate::Observer) folds the event stream of each solve into
//! one [`FlightReport`] — matrix context, iteration count, a
//! residual-trajectory summary, per-kernel latency quantiles, and the
//! per-lane pool utilization delta — then screens the report with three
//! detectors before pushing it into a bounded ring:
//!
//! * **convergence** — a solve that gave up is flagged [`Anomaly::Divergence`]
//!   when its final residual grew by [`DIVERGENCE_GROWTH`] over the initial
//!   one, or [`Anomaly::Stagnation`] when the last [`STAGNATION_WINDOW`]
//!   iterations made no meaningful progress;
//! * **lane imbalance** — [`Anomaly::LaneImbalance`] when one pool lane's
//!   busy time exceeds [`DetectorConfig::imbalance_ratio`] times the mean;
//! * **latency drift** — [`Anomaly::LatencyDrift`] when a kernel's p99 in
//!   this solve exceeds [`DRIFT_RATIO`] times its rolling (EWMA) baseline
//!   built from previous solves.
//!
//! Each flagged anomaly is also counted by the metrics plane
//! (`gko_anomalies_total{kind=...}`), so scrape-based alerting needs no
//! extra wiring.

use crate::config::Config;
use crate::executor::pool::LaneStats;
use crate::stop::StopReason;

/// Default cap on reports returned by a `/runs` scrape when the request
/// carries no explicit `?limit=N`.
pub const DEFAULT_RUNS_LIMIT: usize = 32;

/// Reports retained in the flight ring (oldest evicted first).
pub const RUNS_CAPACITY: usize = 64;

/// Iterations the stagnation check looks back over.
pub const STAGNATION_WINDOW: usize = 8;

/// A non-converged solve is stagnating when the newest residual is at least
/// this fraction of the residual [`STAGNATION_WINDOW`] iterations ago (1.0
/// is exactly no progress; 0.99 tolerates 1 %).
pub const STAGNATION_RATIO: f64 = 0.99;

/// A non-converged solve is diverging when its final residual is at least
/// this factor above the initial one.
pub const DIVERGENCE_GROWTH: f64 = 1.0e3;

/// Imbalance is only assessed when the mean per-lane busy time is at least
/// this many nanoseconds: tiny jobs always look skewed.
pub const IMBALANCE_MIN_BUSY_NS: u64 = 1_000_000;

/// A kernel drifted when its p99 (and its median) this solve is at least
/// this multiple of its rolling baseline.
pub const DRIFT_RATIO: f64 = 3.0;

/// Drift is only assessed when this solve's p99 is at least this many
/// nanoseconds: micro-kernel tails are dominated by scheduler noise.
pub const DRIFT_MIN_P99_NS: u64 = 100_000;

/// Consecutive drifting solves required before [`Anomaly::LatencyDrift`] is
/// reported: one slow solve on a noisy host is not a regression.
pub const DRIFT_MIN_STREAK: u64 = 2;

/// The two detector thresholds a caller sets; every other threshold is one
/// of the constants above (`DESIGN.md` §10 gives the reason for each value).
///
/// The defaults stay silent on the healthy solves of this repository's
/// tests and benchmarks, so a flagged report means something is genuinely
/// off.
#[derive(Clone, Debug, PartialEq)]
pub struct DetectorConfig {
    /// A solve is imbalanced when the busiest lane's busy-ns is at least
    /// this multiple of the mean over all lanes.
    pub imbalance_ratio: f64,
    /// Solves a kernel must appear in before its drift baseline is trusted.
    /// The default, `u64::MAX`, trusts none: latency drift, which flagged
    /// healthy solves on a busy 2-vCPU host, is opt-in (3 is a good count).
    pub drift_min_solves: u64,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            imbalance_ratio: 4.0,
            drift_min_solves: u64::MAX,
        }
    }
}

/// One misbehaviour detected in a solve.
#[derive(Clone, Debug, PartialEq)]
pub enum Anomaly {
    /// The solve stopped without converging and the residual made no
    /// meaningful progress over the detector window.
    Stagnation {
        /// Iterations the check looked back over.
        window: usize,
        /// Residual at the start of the window.
        from: f64,
        /// Residual at the end of the window.
        to: f64,
    },
    /// The solve stopped without converging and the residual grew far past
    /// its initial value.
    Divergence {
        /// First recorded residual norm.
        initial: f64,
        /// Final residual norm.
        last: f64,
    },
    /// One pool lane did a disproportionate share of the work.
    LaneImbalance {
        /// The busiest lane's id.
        lane: usize,
        /// That lane's busy nanoseconds during the solve.
        busy_ns: u64,
        /// Mean busy nanoseconds over all lanes.
        mean_busy_ns: u64,
        /// `busy_ns / mean_busy_ns`.
        ratio: f64,
    },
    /// A kernel's tail latency moved away from its rolling baseline.
    LatencyDrift {
        /// Kernel / operator name.
        op: String,
        /// p99 wall latency in this solve, nanoseconds.
        p99_ns: u64,
        /// Rolling baseline p99, nanoseconds.
        baseline_ns: u64,
        /// `p99_ns / baseline_ns`.
        ratio: f64,
    },
}

impl Anomaly {
    /// Stable kind label, used for metric labels and report JSON.
    pub fn kind(&self) -> &'static str {
        match self {
            Anomaly::Stagnation { .. } => "stagnation",
            Anomaly::Divergence { .. } => "divergence",
            Anomaly::LaneImbalance { .. } => "lane_imbalance",
            Anomaly::LatencyDrift { .. } => "latency_drift",
        }
    }

    fn to_config(&self) -> Config {
        let base = Config::map().with("kind", self.kind());
        match self {
            Anomaly::Stagnation { window, from, to } => base
                .with("window", *window)
                .with("from", *from)
                .with("to", *to),
            Anomaly::Divergence { initial, last } => {
                base.with("initial", *initial).with("last", *last)
            }
            Anomaly::LaneImbalance {
                lane,
                busy_ns,
                mean_busy_ns,
                ratio,
            } => base
                .with("lane", *lane)
                .with("busy_ns", *busy_ns as i64)
                .with("mean_busy_ns", *mean_busy_ns as i64)
                .with("ratio", *ratio),
            Anomaly::LatencyDrift {
                op,
                p99_ns,
                baseline_ns,
                ratio,
            } => base
                .with("op", op.as_str())
                .with("p99_ns", *p99_ns as i64)
                .with("baseline_ns", *baseline_ns as i64)
                .with("ratio", *ratio),
        }
    }
}

/// The system matrix a recorded solve ran against (set by the facade via
/// [`Observer::annotate`](crate::Observer::annotate)).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SystemContext {
    /// Matrix rows.
    pub rows: usize,
    /// Matrix columns.
    pub cols: usize,
    /// Stored nonzeros.
    pub nnz: usize,
    /// Storage format name, e.g. `"csr"`.
    pub format: String,
}

/// Compressed residual trajectory of one solve.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ResidualSummary {
    /// First recorded residual norm (0.0 when no iteration ran).
    pub initial: f64,
    /// Smallest recorded residual norm.
    pub minimum: f64,
    /// Last recorded residual norm.
    pub last: f64,
    /// Residual norms recorded.
    pub count: usize,
}

/// Wall-latency quantiles of one kernel within one solve.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct KernelLatency {
    /// Kernel / operator name.
    pub op: String,
    /// Completed invocations during the solve.
    pub calls: u64,
    /// Median wall latency, nanoseconds.
    pub p50_ns: u64,
    /// 95th-percentile wall latency, nanoseconds.
    pub p95_ns: u64,
    /// 99th-percentile wall latency, nanoseconds.
    pub p99_ns: u64,
    /// Exact maximum wall latency, nanoseconds.
    pub max_ns: u64,
}

/// Per-system outcome counts of one batched solve.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchOutcome {
    /// Systems in the batch.
    pub systems: usize,
    /// Systems whose stop reason indicates convergence.
    pub converged: usize,
    /// Systems that stopped with `Breakdown`.
    pub breakdowns: usize,
}

/// Structured record of one completed solve.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FlightReport {
    /// The solve's one number: 1-based, counted over every solve the
    /// executor's observer closed, never reset. It is also the solve's trace
    /// id.
    pub seq: u64,
    /// Solver name, e.g. `"solver::Cg"`.
    pub solver: String,
    /// The system matrix, when the facade annotated it.
    pub context: Option<SystemContext>,
    /// Fully completed iterations.
    pub iterations: usize,
    /// Why the solve stopped (`None` only for the `Default` value).
    pub stop_reason: Option<StopReason>,
    /// Whether the stop reason indicates convergence.
    pub converged: bool,
    /// Residual trajectory summary.
    pub residuals: ResidualSummary,
    /// Per-kernel latency quantiles, sorted by kernel name.
    pub kernels: Vec<KernelLatency>,
    /// Per-lane pool utilization delta attributed to this solve.
    pub lanes: Vec<LaneStats>,
    /// Anomalies the detectors flagged (empty for a healthy solve).
    pub anomalies: Vec<Anomaly>,
    /// Per-system outcome counts when the solve was batched.
    pub batch: Option<BatchOutcome>,
    /// Set to `seq` when tail sampling kept the solve's span tree: the link
    /// to `/traces/<id>`. `None` when tracing was off or the tree was
    /// dropped.
    pub trace_id: Option<u64>,
}

impl FlightReport {
    /// Renders the report as a [`Config`] tree (for JSON export).
    pub fn to_config(&self) -> Config {
        let mut cfg = Config::map()
            .with("seq", self.seq as i64)
            .with("solver", self.solver.as_str())
            .with("iterations", self.iterations)
            .with(
                "stop_reason",
                self.stop_reason.map(StopReason::name).unwrap_or("unknown"),
            )
            .with("converged", self.converged)
            .with(
                "residuals",
                Config::map()
                    .with("initial", self.residuals.initial)
                    .with("minimum", self.residuals.minimum)
                    .with("last", self.residuals.last)
                    .with("count", self.residuals.count),
            );
        if let Some(ctx) = &self.context {
            cfg = cfg.with(
                "matrix",
                Config::map()
                    .with("rows", ctx.rows)
                    .with("cols", ctx.cols)
                    .with("nnz", ctx.nnz)
                    .with("format", ctx.format.as_str()),
            );
        }
        if let Some(b) = &self.batch {
            cfg = cfg.with(
                "batch",
                Config::map()
                    .with("systems", b.systems)
                    .with("converged", b.converged)
                    .with("breakdowns", b.breakdowns),
            );
        }
        let kernels: Vec<Config> = self
            .kernels
            .iter()
            .map(|k| {
                Config::map()
                    .with("op", k.op.as_str())
                    .with("calls", k.calls as i64)
                    .with("p50_ns", k.p50_ns as i64)
                    .with("p95_ns", k.p95_ns as i64)
                    .with("p99_ns", k.p99_ns as i64)
                    .with("max_ns", k.max_ns as i64)
            })
            .collect();
        let lanes: Vec<Config> = self
            .lanes
            .iter()
            .enumerate()
            .map(|(i, l)| {
                Config::map()
                    .with("lane", i)
                    .with("chunks", l.chunks as i64)
                    .with("steals", l.steals as i64)
                    .with("busy_ns", l.busy_ns as i64)
            })
            .collect();
        if let Some(id) = self.trace_id {
            cfg = cfg.with("trace_id", id as i64);
        }
        let anomalies: Vec<Config> = self.anomalies.iter().map(Anomaly::to_config).collect();
        cfg.with("kernels", kernels)
            .with("lanes", lanes)
            .with("anomalies", anomalies)
    }
}

// ---------------------------------------------------------------------------
// Detectors (pure functions, unit-testable in isolation)
// ---------------------------------------------------------------------------

/// Convergence detector: given the first recorded residual, the trailing
/// residual window (oldest first, at most [`STAGNATION_WINDOW`]` + 1`
/// entries), and whether the solve converged, decides between
/// [`Anomaly::Divergence`], [`Anomaly::Stagnation`], and a clean bill
/// (`None`). Converged solves are never flagged.
pub fn detect_convergence(initial: f64, window: &[f64], converged: bool) -> Option<Anomaly> {
    if converged {
        return None;
    }
    let last = *window.last()?;
    if initial > 0.0 && initial.is_finite() && last >= DIVERGENCE_GROWTH * initial {
        return Some(Anomaly::Divergence { initial, last });
    }
    if window.len() > STAGNATION_WINDOW {
        let from = window[window.len() - 1 - STAGNATION_WINDOW];
        if from > 0.0 && from.is_finite() && last >= STAGNATION_RATIO * from {
            return Some(Anomaly::Stagnation {
                window: STAGNATION_WINDOW,
                from,
                to: last,
            });
        }
    }
    None
}

/// Lane-imbalance detector over a per-lane utilization delta: flags when the
/// busiest lane carried at least `imbalance_ratio` times the mean busy time.
/// Skips pools with fewer than two lanes and jobs too small to judge
/// ([`IMBALANCE_MIN_BUSY_NS`]).
///
/// The busiest lane carries at most the total, so the ratio is at most the
/// lane count (plus under `lanes / IMBALANCE_MIN_BUSY_NS` from the mean's
/// rounding): at the default 4.0 a pool of 3 lanes or fewer never fires,
/// which is every pool on a host of 3 cores or fewer.
pub fn detect_lane_imbalance(lanes: &[LaneStats], cfg: &DetectorConfig) -> Option<Anomaly> {
    if lanes.len() < 2 {
        return None;
    }
    let total: u64 = lanes.iter().map(|l| l.busy_ns).sum();
    let mean = total / lanes.len() as u64;
    if mean < IMBALANCE_MIN_BUSY_NS {
        return None;
    }
    let (lane, busy_ns) = lanes
        .iter()
        .map(|l| l.busy_ns)
        .enumerate()
        .max_by_key(|&(_, b)| b)?;
    let ratio = busy_ns as f64 / mean as f64;
    (ratio >= cfg.imbalance_ratio).then_some(Anomaly::LaneImbalance {
        lane,
        busy_ns,
        mean_busy_ns: mean,
        ratio,
    })
}

/// Latency-drift detector for one kernel: flags when this solve's p99 is at
/// least [`DRIFT_RATIO`] times the rolling p99 baseline **and** the median
/// moved with it. A genuine kernel regression shifts the whole latency
/// distribution; a preempted sample on a busy host inflates only the tail,
/// so the median corroboration keeps the detector quiet on oversubscribed
/// machines. Baselines are only trusted after `drift_min_solves` solves
/// contributed, and tails below [`DRIFT_MIN_P99_NS`] are never judged.
pub fn detect_latency_drift(
    op: &str,
    p99_ns: u64,
    p50_ns: u64,
    baseline_p99: f64,
    baseline_p50: f64,
    baseline_solves: u64,
    cfg: &DetectorConfig,
) -> Option<Anomaly> {
    if baseline_solves < cfg.drift_min_solves || baseline_p99 <= 0.0 || p99_ns < DRIFT_MIN_P99_NS {
        return None;
    }
    let ratio = p99_ns as f64 / baseline_p99;
    let median_moved = baseline_p50 <= 0.0 || p50_ns as f64 >= DRIFT_RATIO * baseline_p50;
    (ratio >= DRIFT_RATIO && median_moved).then_some(Anomaly::LatencyDrift {
        op: op.to_string(),
        p99_ns,
        baseline_ns: baseline_p99 as u64,
        ratio,
    })
}

/// Rolling latency baseline of one kernel across solves: EWMA p99 and p50,
/// solves folded in, and the current run of consecutive drifting solves.
#[derive(Debug, Default)]
pub(crate) struct DriftBaseline {
    ewma_p99: f64,
    ewma_p50: f64,
    solves: u64,
    streak: u64,
}

impl DriftBaseline {
    /// Judges one solve's `p99_ns`/`p50_ns` of kernel `op` against the
    /// baseline, then updates it. A drifting sample is kept out of the
    /// baseline so a persistent regression keeps firing instead of
    /// normalizing itself away — but it is only *reported* once the drift
    /// has held for [`DRIFT_MIN_STREAK`] consecutive solves (one slow solve
    /// on a noisy host is not a regression).
    pub(crate) fn judge(
        &mut self,
        op: &str,
        p99_ns: u64,
        p50_ns: u64,
        cfg: &DetectorConfig,
    ) -> Option<Anomaly> {
        let drift = detect_latency_drift(
            op,
            p99_ns,
            p50_ns,
            self.ewma_p99,
            self.ewma_p50,
            self.solves,
            cfg,
        );
        if drift.is_some() {
            self.streak += 1;
            return drift.filter(|_| self.streak >= DRIFT_MIN_STREAK);
        }
        self.streak = 0;
        if self.solves == 0 {
            self.ewma_p99 = p99_ns as f64;
            self.ewma_p50 = p50_ns as f64;
        } else {
            self.ewma_p99 = 0.7 * self.ewma_p99 + 0.3 * p99_ns as f64;
            self.ewma_p50 = 0.7 * self.ewma_p50 + 0.3 * p50_ns as f64;
        }
        self.solves += 1;
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn converged_solves_are_never_flagged() {
        let window = [1.0, 10.0, 100.0, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9];
        assert_eq!(detect_convergence(1.0, &window, true), None);
    }

    #[test]
    fn divergence_beats_stagnation_on_large_growth() {
        let window: Vec<f64> = (0..=STAGNATION_WINDOW)
            .map(|i| 2.0f64.powi(i as i32))
            .collect();
        // Growth 2^8 = 256x over the window but only vs initial 1e-3 -> 2e5x.
        let got = detect_convergence(1.0e-3, &window, false);
        assert!(matches!(got, Some(Anomaly::Divergence { .. })), "{got:?}");
    }

    #[test]
    fn plateau_without_convergence_is_stagnation() {
        let window = vec![1.0; STAGNATION_WINDOW + 1];
        let got = detect_convergence(1.0, &window, false);
        match got {
            Some(Anomaly::Stagnation {
                window: w,
                from,
                to,
            }) => {
                assert_eq!(w, STAGNATION_WINDOW);
                assert_eq!(from, 1.0);
                assert_eq!(to, 1.0);
            }
            other => panic!("expected Stagnation, got {other:?}"),
        }
        // A steadily improving (if slow) solve is not stagnating.
        let improving: Vec<f64> = (0..=STAGNATION_WINDOW)
            .map(|i| 0.9f64.powi(i as i32))
            .collect();
        assert_eq!(detect_convergence(1.0, &improving, false), None);
        // Too few residuals to judge: stay silent.
        assert_eq!(detect_convergence(1.0, &[1.0, 1.0], false), None);
    }

    #[test]
    fn lane_imbalance_needs_scale_and_skew() {
        let cfg = DetectorConfig::default();
        let lane = |busy_ns| LaneStats {
            chunks: 1,
            steals: 0,
            busy_ns,
        };
        // Balanced: silent.
        assert_eq!(detect_lane_imbalance(&[lane(5_000_000); 4], &cfg), None);
        // Skewed but tiny (mean below the floor): silent.
        assert_eq!(
            detect_lane_imbalance(&[lane(800_000), lane(0), lane(0), lane(0)], &cfg),
            None
        );
        // Skewed at scale: flagged, on the right lane.
        let got = detect_lane_imbalance(&[lane(0), lane(40_000_000), lane(0), lane(0)], &cfg);
        match got {
            Some(Anomaly::LaneImbalance { lane, ratio, .. }) => {
                assert_eq!(lane, 1);
                assert!(ratio >= cfg.imbalance_ratio);
            }
            other => panic!("expected LaneImbalance, got {other:?}"),
        }
        // A single lane (reference executor) can never be imbalanced.
        assert_eq!(detect_lane_imbalance(&[lane(1_000_000_000)], &cfg), None);
    }

    #[test]
    fn latency_drift_requires_trusted_baseline_and_moved_median() {
        let cfg = DetectorConfig {
            drift_min_solves: 3,
            ..DetectorConfig::default()
        };
        // Baseline not yet trusted.
        assert_eq!(
            detect_latency_drift("csr", 10_000_000, 10_000_000, 1_000.0, 1_000.0, 2, &cfg),
            None
        );
        // Whole distribution moved: flagged.
        let got = detect_latency_drift("csr", 10_000_000, 10_000_000, 1_000.0, 1_000.0, 3, &cfg);
        assert!(matches!(got, Some(Anomaly::LatencyDrift { .. })), "{got:?}");
        // Tail-only spike (median unchanged): scheduler noise, silent.
        assert_eq!(
            detect_latency_drift("csr", 10_000_000, 1_000, 1_000.0, 1_000.0, 3, &cfg),
            None
        );
        // Below the absolute p99 floor: silent even at a huge ratio.
        assert_eq!(
            detect_latency_drift("csr", 50_000, 50_000, 100.0, 100.0, 3, &cfg),
            None
        );
    }
}
