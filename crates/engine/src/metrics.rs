//! Always-on aggregated metrics: counters and latency histograms.
//!
//! [`crate::log`] gives the engine a raw event stream; this module gives it
//! the layer a production deployment actually watches. A
//! [`MetricsRegistry`] is an ordinary [`Logger`] — attach it to an
//! executor's [`crate::log::LoggerRegistry`] and every instrumented kernel,
//! solver iteration, allocation, and pool dispatch is folded into
//!
//! * **sharded relaxed-atomic counters** (one cache line per shard, so
//!   concurrent lanes never bounce a counter line between cores) and
//! * **log2-bucketed latency histograms** per kernel kind (SpMV per format,
//!   dense BLAS, solver applies), for pool-dispatch latency, and for
//!   allocation sizes — each answering p50/p95/p99/max queries.
//!
//! Reading happens through an immutable [`MetricsSnapshot`], which renders
//! itself as Prometheus text exposition ([`MetricsSnapshot::to_prometheus`]).
//! Spans are not assembled here: [`crate::trace`] is the engine's one span
//! assembler and Chrome-trace exporter.
//!
//! The fast path is unchanged: when no registry (or any other logger) is
//! attached, instrumented sites still pay exactly one relaxed atomic load
//! (see [`crate::log::LoggerRegistry::is_active`]); a registry that exists
//! but is not attached records nothing.

use crate::log::{Event, Logger};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, PoisonError, RwLock};

// ---------------------------------------------------------------------------
// Sharding
// ---------------------------------------------------------------------------

/// Number of independent shards behind every [`ShardedCounter`] and
/// [`LatencyHistogram`]. Each thread hashes to one shard, so up to this many
/// lanes update metrics without sharing a cache line.
pub const METRIC_SHARDS: usize = 8;

/// One cache line holding one shard's counter.
#[repr(align(64))]
#[derive(Default)]
// atomic: counter
struct PaddedU64(AtomicU64);

thread_local! {
    /// Stable per-thread shard assignment, handed out round-robin on first
    /// metric touch so lanes spread evenly over the shards.
    static THREAD_SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
}

fn thread_shard() -> usize {
    // atomic: counter
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    THREAD_SHARD.with(|cell| {
        let mut v = cell.get();
        if v == usize::MAX {
            v = NEXT.fetch_add(1, Ordering::Relaxed);
            cell.set(v);
        }
        v % METRIC_SHARDS
    })
}

/// A monotonically increasing counter sharded over [`METRIC_SHARDS`] cache
/// lines. Increments are relaxed atomics on the calling thread's home
/// shard; reads sum all shards (and may race with concurrent increments,
/// which is fine for monitoring).
#[derive(Default)]
pub struct ShardedCounter {
    shards: [PaddedU64; METRIC_SHARDS],
}

impl ShardedCounter {
    /// Creates a zeroed counter.
    pub fn new() -> Self {
        ShardedCounter::default()
    }

    /// Adds `v` to the calling thread's shard.
    #[inline]
    pub fn add(&self, v: u64) {
        self.shards[thread_shard()].0.fetch_add(v, Ordering::Relaxed);
    }

    /// Increments by one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Sum over all shards.
    pub fn get(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }
}

impl std::fmt::Debug for ShardedCounter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("ShardedCounter").field(&self.get()).finish()
    }
}

// ---------------------------------------------------------------------------
// Log2-bucketed histogram
// ---------------------------------------------------------------------------

/// Number of buckets in a [`LatencyHistogram`]: bucket 0 holds the value 0,
/// bucket `i >= 1` holds values in `[2^(i-1), 2^i)`, and the last bucket
/// absorbs everything above `2^(HISTOGRAM_BUCKETS-2)`.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// Bucket index for a recorded value (log2 bucketing).
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        (64 - v.leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1)
    }
}

/// Inclusive upper bound of bucket `i` (the largest value it can hold).
pub fn bucket_upper_bound(i: usize) -> u64 {
    match i {
        0 => 0,
        i if i >= HISTOGRAM_BUCKETS - 1 => u64::MAX,
        i => (1u64 << i) - 1,
    }
}

struct HistShard {
    counts: [AtomicU64; HISTOGRAM_BUCKETS], // atomic: counter
    sum: AtomicU64,                         // atomic: counter
}

impl Default for HistShard {
    fn default() -> Self {
        HistShard {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }
    }
}

/// A log2-bucketed histogram with sharded relaxed-atomic buckets.
///
/// Designed for nanosecond latencies and byte sizes: 64 power-of-two
/// buckets cover the full `u64` range with a worst-case quantile error of
/// 2x, which is plenty to tell a 1 µs kernel from a 1 ms one. The exact
/// maximum is tracked separately so tail queries never under-report.
#[derive(Default)]
pub struct LatencyHistogram {
    shards: [HistShard; METRIC_SHARDS],
    max: AtomicU64, // atomic: counter
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LatencyHistogram::default()
    }

    /// Records one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        let shard = &self.shards[thread_shard()];
        shard.counts[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        shard.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Merges the shards into an immutable snapshot.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = vec![0u64; HISTOGRAM_BUCKETS];
        let mut sum = 0u64;
        for shard in &self.shards {
            for (b, c) in buckets.iter_mut().zip(&shard.counts) {
                *b += c.load(Ordering::Relaxed);
            }
            sum += shard.sum.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            count: buckets.iter().sum(),
            sum,
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

impl std::fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.snapshot();
        f.debug_struct("LatencyHistogram")
            .field("count", &s.count)
            .field("max", &s.max)
            .finish()
    }
}

/// Immutable view of a [`LatencyHistogram`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Exact largest observed value (0 when empty).
    pub max: u64,
    /// Per-bucket observation counts ([`HISTOGRAM_BUCKETS`] entries).
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Value at quantile `q` in `[0, 1]`: the inclusive upper bound of the
    /// bucket containing the rank-`ceil(q * count)` observation, clamped to
    /// the exact maximum. Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper_bound(i).min(self.max);
            }
        }
        self.max
    }

    /// Median (see [`HistogramSnapshot::quantile`]).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th percentile.
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Arithmetic mean of the observations (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// Per-kernel metric pair: wall-clock and virtual (cost-model) latencies.
#[derive(Default)]
struct KernelMetrics {
    wall_ns: LatencyHistogram,
    virtual_ns: LatencyHistogram,
}

/// The engine-wide metrics registry.
///
/// A registry is an ordinary [`Logger`]; attach it with
/// [`crate::Executor::add_logger`] — or let [`crate::Executor::observe`]
/// with `metrics: true` do both steps — and read it back with
/// [`MetricsRegistry::snapshot`]. All recording paths are lock-free sharded
/// atomics except the first observation of a new kernel name (which takes a
/// write lock once).
#[derive(Default)]
pub struct MetricsRegistry {
    kernels: RwLock<BTreeMap<&'static str, Arc<KernelMetrics>>>, // lock: metrics.kernels
    solver_iterations: RwLock<BTreeMap<&'static str, Arc<ShardedCounter>>>, // lock: metrics.solver-iters
    pool_dispatch_ns: LatencyHistogram,
    alloc_bytes: LatencyHistogram,
    solves: ShardedCounter,
    criterion_checks: ShardedCounter,
    plan_builds: ShardedCounter,
    events: ShardedCounter,
    /// Anomalies reported by the flight recorder (or any other detector),
    /// keyed by anomaly kind.
    anomalies: RwLock<BTreeMap<&'static str, Arc<ShardedCounter>>>, // lock: metrics.anomalies
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsRegistry")
            .field("events", &self.events.get())
            .finish()
    }
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Total events this registry has observed.
    pub fn events_observed(&self) -> u64 {
        self.events.get()
    }

    fn kernel(&self, op: &'static str) -> Arc<KernelMetrics> {
        if let Some(k) = self
            .kernels
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(op)
        {
            return k.clone();
        }
        self.kernels
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .entry(op)
            .or_default()
            .clone()
    }

    fn iteration_counter(&self, solver: &'static str) -> Arc<ShardedCounter> {
        if let Some(c) = self
            .solver_iterations
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(solver)
        {
            return c.clone();
        }
        self.solver_iterations
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .entry(solver)
            .or_default()
            .clone()
    }

    /// Increments the counter for one detected anomaly of the given kind
    /// (`"stagnation"`, `"lane_imbalance"`, ...). Exported as the labelled
    /// `gko_anomalies_total` Prometheus series.
    pub fn record_anomaly(&self, kind: &'static str) {
        if let Some(c) = self
            .anomalies
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(kind)
        {
            c.incr();
            return;
        }
        self.anomalies
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .entry(kind)
            .or_default()
            .incr();
    }

    /// Materializes everything recorded so far into an immutable snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let kernels = self
            .kernels
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|(op, k)| {
                let wall_ns = k.wall_ns.snapshot();
                KernelSnapshot {
                    op: op.to_string(),
                    calls: wall_ns.count,
                    wall_ns,
                    virtual_ns: k.virtual_ns.snapshot(),
                }
            })
            .collect();
        let solver_iterations = self
            .solver_iterations
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|(s, c)| (s.to_string(), c.get()))
            .collect();
        let anomalies = self
            .anomalies
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|(k, c)| (k.to_string(), c.get()))
            .collect();
        MetricsSnapshot {
            kernels,
            solver_iterations,
            pool_dispatch_ns: self.pool_dispatch_ns.snapshot(),
            alloc_bytes: self.alloc_bytes.snapshot(),
            solves: self.solves.get(),
            criterion_checks: self.criterion_checks.get(),
            plan_builds: self.plan_builds.get(),
            events: self.events.get(),
            anomalies,
        }
    }
}

impl Logger for MetricsRegistry {
    fn on_event(&self, event: &Event) {
        self.events.incr();
        match *event {
            Event::LinOpApplyStarted { .. } => {}
            Event::LinOpApplyCompleted {
                op,
                wall_ns,
                virtual_ns,
            } => {
                let kernel = self.kernel(op);
                kernel.wall_ns.record(wall_ns);
                kernel.virtual_ns.record(virtual_ns);
            }
            Event::IterationComplete { solver, .. } => {
                self.iteration_counter(solver).incr();
            }
            Event::CriterionChecked { .. } => self.criterion_checks.incr(),
            Event::SolveCompleted { .. } => self.solves.incr(),
            // A batch is one solve from the registry's point of view; the
            // flight recorder carries the per-system breakdown.
            Event::BatchSolveCompleted { .. } => self.solves.incr(),
            Event::PlanBuilt { .. } => self.plan_builds.incr(),
            Event::AllocationComplete { bytes } => self.alloc_bytes.record(bytes as u64),
            Event::PoolDispatch { wall_ns, .. } => self.pool_dispatch_ns.record(wall_ns),
        }
    }

    fn name(&self) -> &'static str {
        "metrics"
    }
}

// ---------------------------------------------------------------------------
// Snapshot + exporters
// ---------------------------------------------------------------------------

/// Aggregates of one kernel kind inside a [`MetricsSnapshot`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct KernelSnapshot {
    /// Kernel / operator name.
    pub op: String,
    /// Completed invocations.
    pub calls: u64,
    /// Wall-clock latency distribution.
    pub wall_ns: HistogramSnapshot,
    /// Virtual (cost-model) latency distribution.
    pub virtual_ns: HistogramSnapshot,
}

/// Immutable, exportable view of everything a [`MetricsRegistry`] recorded.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Per-kernel latency aggregates, sorted by kernel name.
    pub kernels: Vec<KernelSnapshot>,
    /// Completed iterations per solver name, sorted by name.
    pub solver_iterations: Vec<(String, u64)>,
    /// Worker-pool dispatch latency distribution (wall nanoseconds).
    pub pool_dispatch_ns: HistogramSnapshot,
    /// Allocation size distribution (bytes).
    pub alloc_bytes: HistogramSnapshot,
    /// Completed solves observed.
    pub solves: u64,
    /// Stopping-criterion evaluations observed.
    pub criterion_checks: u64,
    /// SpMV plan (inspector) builds observed.
    pub plan_builds: u64,
    /// Total events observed.
    pub events: u64,
    /// Detected anomalies per kind, sorted by kind.
    pub anomalies: Vec<(String, u64)>,
}

/// Escapes a label *value* per the Prometheus text-format spec: backslash,
/// double quote, and line feed.
fn prom_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

/// Escapes `# HELP` text per the spec: backslash and line feed (quotes are
/// legal in help text).
fn prom_help_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Emits the `# HELP` / `# TYPE` header pair for one metric family.
fn prom_header(out: &mut String, metric: &str, help: &str, kind: &str) {
    let _ = writeln!(out, "# HELP {metric} {}", prom_help_escape(help));
    let _ = writeln!(out, "# TYPE {metric} {kind}");
}

fn prom_histogram(out: &mut String, metric: &str, labels: &str, h: &HistogramSnapshot) {
    let sep = if labels.is_empty() { "" } else { "," };
    let mut cumulative = 0u64;
    let last = h
        .buckets
        .iter()
        .rposition(|&c| c > 0)
        .unwrap_or(0);
    for (i, c) in h.buckets.iter().enumerate().take(last + 1) {
        cumulative += c;
        let _ = writeln!(
            out,
            "{metric}_bucket{{{labels}{sep}le=\"{}\"}} {cumulative}",
            bucket_upper_bound(i)
        );
    }
    let _ = writeln!(out, "{metric}_bucket{{{labels}{sep}le=\"+Inf\"}} {}", h.count);
    if labels.is_empty() {
        let _ = writeln!(out, "{metric}_sum {}", h.sum);
        let _ = writeln!(out, "{metric}_count {}", h.count);
    } else {
        let _ = writeln!(out, "{metric}_sum{{{labels}}} {}", h.sum);
        let _ = writeln!(out, "{metric}_count{{{labels}}} {}", h.count);
    }
}

impl MetricsSnapshot {
    /// Aggregates for one kernel, if it was observed.
    pub fn kernel(&self, op: &str) -> Option<&KernelSnapshot> {
        self.kernels.iter().find(|k| k.op == op)
    }

    /// Renders the snapshot in the Prometheus text exposition format:
    /// `# HELP`/`# TYPE` headers for every family, escaped label values, and
    /// cumulative-`le` histograms, labeled by kernel/solver.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        prom_header(
            &mut out,
            "gko_events_total",
            "Events observed by the metrics registry.",
            "counter",
        );
        let _ = writeln!(out, "gko_events_total {}", self.events);
        prom_header(&mut out, "gko_solves_total", "Completed solves.", "counter");
        let _ = writeln!(out, "gko_solves_total {}", self.solves);
        prom_header(
            &mut out,
            "gko_criterion_checks_total",
            "Stopping-criterion evaluations.",
            "counter",
        );
        let _ = writeln!(out, "gko_criterion_checks_total {}", self.criterion_checks);
        prom_header(
            &mut out,
            "gko_plan_builds_total",
            "SpMV execution-plan (inspector) builds.",
            "counter",
        );
        let _ = writeln!(out, "gko_plan_builds_total {}", self.plan_builds);
        prom_header(
            &mut out,
            "gko_solver_iterations_total",
            "Completed iterations per solver.",
            "counter",
        );
        for (solver, n) in &self.solver_iterations {
            let _ = writeln!(
                out,
                "gko_solver_iterations_total{{solver=\"{}\"}} {n}",
                prom_escape(solver)
            );
        }
        prom_header(
            &mut out,
            "gko_anomalies_total",
            "Anomalies flagged by the flight-recorder detectors, per kind.",
            "counter",
        );
        for (kind, n) in &self.anomalies {
            let _ = writeln!(
                out,
                "gko_anomalies_total{{kind=\"{}\"}} {n}",
                prom_escape(kind)
            );
        }
        prom_header(
            &mut out,
            "gko_kernel_calls_total",
            "Completed kernel invocations per operator.",
            "counter",
        );
        for k in &self.kernels {
            let _ = writeln!(
                out,
                "gko_kernel_calls_total{{op=\"{}\"}} {}",
                prom_escape(&k.op),
                k.calls
            );
        }
        prom_header(
            &mut out,
            "gko_kernel_wall_ns",
            "Wall-clock kernel latency in nanoseconds.",
            "histogram",
        );
        for k in &self.kernels {
            let labels = format!("op=\"{}\"", prom_escape(&k.op));
            prom_histogram(&mut out, "gko_kernel_wall_ns", &labels, &k.wall_ns);
        }
        prom_header(
            &mut out,
            "gko_kernel_virtual_ns",
            "Virtual (cost-model) kernel latency in nanoseconds.",
            "histogram",
        );
        for k in &self.kernels {
            let labels = format!("op=\"{}\"", prom_escape(&k.op));
            prom_histogram(&mut out, "gko_kernel_virtual_ns", &labels, &k.virtual_ns);
        }
        prom_header(
            &mut out,
            "gko_pool_dispatch_ns",
            "Worker-pool dispatch latency in wall nanoseconds.",
            "histogram",
        );
        prom_histogram(&mut out, "gko_pool_dispatch_ns", "", &self.pool_dispatch_ns);
        prom_header(
            &mut out,
            "gko_alloc_bytes",
            "Allocation sizes in bytes.",
            "histogram",
        );
        prom_histogram(&mut out, "gko_alloc_bytes", "", &self.alloc_bytes);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(7), 3);
        assert_eq!(bucket_index(8), 4);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        // Every bucket's upper bound maps back into that bucket.
        for i in 0..HISTOGRAM_BUCKETS {
            assert_eq!(bucket_index(bucket_upper_bound(i)), i, "bucket {i}");
        }
    }

    #[test]
    fn histogram_counts_sum_and_max() {
        let h = LatencyHistogram::new();
        for v in [0, 1, 2, 3, 4, 1000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 6);
        assert_eq!(s.sum, 1010);
        assert_eq!(s.max, 1000);
        assert_eq!(s.buckets[0], 1, "value 0");
        assert_eq!(s.buckets[1], 1, "value 1");
        assert_eq!(s.buckets[2], 2, "values 2, 3");
        assert_eq!(s.buckets[3], 1, "value 4");
        assert_eq!(s.buckets[10], 1, "value 1000 in [512, 1024)");
    }

    #[test]
    fn quantiles_are_monotone_and_bounded_by_max() {
        let h = LatencyHistogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        let (p50, p95, p99) = (s.p50(), s.p95(), s.p99());
        assert!(p50 <= p95 && p95 <= p99 && p99 <= s.max);
        // log2 buckets answer within a factor of two.
        assert!((256..=1000).contains(&p50), "p50 = {p50}");
        assert!(p99 >= 512, "p99 = {p99}");
        assert_eq!(s.quantile(1.0), 1000);
        assert!((s.mean() - 500.5).abs() < 1e-9);
        assert_eq!(HistogramSnapshot::default().quantile(0.5), 0);
    }

    #[test]
    fn sharded_counter_sums_across_threads() {
        let c = Arc::new(ShardedCounter::new());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let c = c.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        c.incr();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.get(), 8000);
    }

    #[test]
    fn registry_aggregates_the_event_stream() {
        let reg = MetricsRegistry::new();
        reg.on_event(&Event::LinOpApplyStarted { op: "csr" });
        reg.on_event(&Event::LinOpApplyCompleted {
            op: "csr",
            wall_ns: 1500,
            virtual_ns: 1000,
        });
        reg.on_event(&Event::IterationComplete {
            solver: "solver::Cg",
            iteration: 1,
            residual: 1.0,
        });
        reg.on_event(&Event::AllocationComplete { bytes: 4096 });
        reg.on_event(&Event::PoolDispatch {
            chunks: 8,
            steals: 1,
            threads: 4,
            wall_ns: 2500,
        });
        let snap = reg.snapshot();
        let csr = snap.kernel("csr").expect("csr kernel recorded");
        assert_eq!(csr.calls, 1);
        assert_eq!(csr.wall_ns.max, 1500);
        assert_eq!(csr.virtual_ns.max, 1000);
        assert_eq!(snap.solver_iterations, vec![("solver::Cg".to_string(), 1)]);
        assert_eq!(snap.alloc_bytes.count, 1);
        assert_eq!(snap.alloc_bytes.max, 4096);
        assert_eq!(snap.pool_dispatch_ns.max, 2500);
        assert_eq!(snap.events, 5);
    }

    #[test]
    fn prometheus_exposition_shape() {
        let reg = MetricsRegistry::new();
        reg.on_event(&Event::LinOpApplyCompleted {
            op: "csr",
            wall_ns: 100,
            virtual_ns: 90,
        });
        let text = reg.snapshot().to_prometheus();
        assert!(text.contains("gko_kernel_calls_total{op=\"csr\"} 1"), "{text}");
        assert!(text.contains("gko_kernel_wall_ns_bucket{op=\"csr\",le=\"127\"} 1"), "{text}");
        assert!(text.contains("le=\"+Inf\"} 1"), "{text}");
        assert!(text.contains("gko_kernel_wall_ns_sum{op=\"csr\"} 100"), "{text}");
        assert!(text.contains("gko_pool_dispatch_ns_bucket{le=\"+Inf\"} 0"), "{text}");
    }

    #[test]
    fn exposition_has_help_and_type_for_every_family() {
        let text = MetricsRegistry::new().snapshot().to_prometheus();
        for line in text.lines().filter(|l| l.starts_with("# TYPE ")) {
            let family = line.split_whitespace().nth(2).unwrap();
            assert!(
                text.contains(&format!("# HELP {family} ")),
                "missing HELP for {family}"
            );
        }
        assert!(text.contains("# TYPE gko_anomalies_total counter"), "{text}");
    }

    #[test]
    fn label_values_escape_backslash_quote_and_newline() {
        assert_eq!(prom_escape(r"a\b"), r"a\\b");
        assert_eq!(prom_escape("say \"hi\""), "say \\\"hi\\\"");
        assert_eq!(prom_escape("two\nlines"), "two\\nlines");
        // End to end: a hostile label value never breaks the line framing.
        let snap = MetricsSnapshot {
            solver_iterations: vec![("evil\"s\\olver\nname".to_string(), 3)],
            ..MetricsSnapshot::default()
        };
        let text = snap.to_prometheus();
        assert!(
            text.contains("gko_solver_iterations_total{solver=\"evil\\\"s\\\\olver\\nname\"} 3"),
            "{text}"
        );
    }

    #[test]
    fn anomaly_counters_aggregate_by_kind() {
        let reg = MetricsRegistry::new();
        reg.record_anomaly("stagnation");
        reg.record_anomaly("stagnation");
        reg.record_anomaly("latency_drift");
        let snap = reg.snapshot();
        assert_eq!(
            snap.anomalies,
            vec![
                ("latency_drift".to_string(), 1),
                ("stagnation".to_string(), 2)
            ]
        );
        let text = snap.to_prometheus();
        assert!(text.contains("gko_anomalies_total{kind=\"stagnation\"} 2"), "{text}");
    }
}
