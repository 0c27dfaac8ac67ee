//! Metrics plane: the log2 histogram, the snapshot the observer hands out,
//! and the Prometheus exposition writer.
//!
//! [`crate::log`] gives the engine a raw event stream; while
//! [`crate::ObserveConfig::metrics`] is on, the executor's
//! [`Observer`](crate::Observer) folds every instrumented kernel, solver
//! iteration, allocation, and pool dispatch into counters and
//! [`Log2Histogram`]s per kernel kind (SpMV per format, dense BLAS, solver
//! applies), for pool-dispatch latency, and for allocation sizes, each
//! answering p50/p95/p99/max queries. The same histogram type holds the
//! per-solve kernel latencies of a flight report and the per-call self times
//! of a flame node.
//!
//! Reading happens through an immutable [`MetricsSnapshot`], which renders
//! itself as Prometheus text exposition ([`MetricsSnapshot::to_prometheus`])
//! through `Exposition`, the one writer behind `/metrics`.

use std::fmt::{Display, Write as _};

/// Number of buckets in a [`Log2Histogram`]: bucket 0 holds the value 0,
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

/// A log2-bucketed histogram of plain integers.
///
/// Designed for nanosecond latencies and byte sizes: 64 power-of-two
/// buckets cover the full `u64` range with a worst-case quantile error of
/// 2x, which is plenty to tell a 1 µs kernel from a 1 ms one. The exact
/// maximum is tracked separately so tail queries never under-report. Every
/// event on an executor is delivered under its logger registry's lock, so
/// the observer updates these fields without atomics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Log2Histogram {
    /// Per-bucket observation counts.
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values (saturating).
    pub sum: u64,
    /// Exact largest observed value (0 when empty).
    pub max: u64,
}

/// A histogram as read back from the observer: being plain data, a snapshot
/// of a [`Log2Histogram`] is a copy of it.
pub type HistogramSnapshot = Log2Histogram;

impl Default for Log2Histogram {
    fn default() -> Self {
        Log2Histogram {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl Log2Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Log2Histogram::default()
    }

    /// Records one observation.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
    }

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

    /// Median (see [`Log2Histogram::quantile`]).
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
// Snapshot
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

/// Immutable, exportable view of everything the metrics plane recorded
/// since it was last switched on.
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

impl MetricsSnapshot {
    /// Aggregates for one kernel, if it was observed.
    pub fn kernel(&self, op: &str) -> Option<&KernelSnapshot> {
        self.kernels.iter().find(|k| k.op == op)
    }

    /// Renders the snapshot in the Prometheus text exposition format:
    /// `# HELP`/`# TYPE` headers for every family, escaped label values, and
    /// cumulative-`le` histograms, labeled by kernel/solver.
    pub fn to_prometheus(&self) -> String {
        let mut doc = Exposition::new();
        self.write_families(&mut doc);
        doc.finish()
    }

    /// Appends this snapshot's metric families to `doc`.
    pub(crate) fn write_families(&self, doc: &mut Exposition) {
        for (name, help, value) in [
            (
                "gko_events_total",
                "Events observed by the metrics plane.",
                self.events,
            ),
            ("gko_solves_total", "Completed solves.", self.solves),
            (
                "gko_criterion_checks_total",
                "Stopping-criterion evaluations.",
                self.criterion_checks,
            ),
            (
                "gko_plan_builds_total",
                "SpMV execution-plan (inspector) builds.",
                self.plan_builds,
            ),
        ] {
            doc.family(name, help, "counter").sample(&[], value);
        }
        doc.family(
            "gko_solver_iterations_total",
            "Completed iterations per solver.",
            "counter",
        );
        for (solver, n) in &self.solver_iterations {
            doc.sample(&[("solver", solver.as_str())], n);
        }
        doc.family(
            "gko_anomalies_total",
            "Anomalies flagged by the flight-recorder detectors, per kind.",
            "counter",
        );
        for (kind, n) in &self.anomalies {
            doc.sample(&[("kind", kind.as_str())], n);
        }
        doc.family(
            "gko_kernel_calls_total",
            "Completed kernel invocations per operator.",
            "counter",
        );
        for k in &self.kernels {
            doc.sample(&[("op", k.op.as_str())], k.calls);
        }
        doc.family(
            "gko_kernel_wall_ns",
            "Wall-clock kernel latency in nanoseconds.",
            "histogram",
        );
        for k in &self.kernels {
            doc.histogram(&[("op", k.op.as_str())], &k.wall_ns);
        }
        doc.family(
            "gko_kernel_virtual_ns",
            "Virtual (cost-model) kernel latency in nanoseconds.",
            "histogram",
        );
        for k in &self.kernels {
            doc.histogram(&[("op", k.op.as_str())], &k.virtual_ns);
        }
        doc.family(
            "gko_pool_dispatch_ns",
            "Worker-pool dispatch latency in wall nanoseconds.",
            "histogram",
        )
        .histogram(&[], &self.pool_dispatch_ns);
        doc.family("gko_alloc_bytes", "Allocation sizes in bytes.", "histogram")
            .histogram(&[], &self.alloc_bytes);
    }
}

// ---------------------------------------------------------------------------
// Exposition writer
// ---------------------------------------------------------------------------

/// Writer for the Prometheus text exposition format: [`Exposition::family`]
/// opens a metric family with its `# HELP`/`# TYPE` pair, and every
/// [`Exposition::sample`] / [`Exposition::histogram`] that follows belongs to
/// it, so a sample can never appear under a family that was not declared.
#[derive(Debug, Default)]
pub(crate) struct Exposition {
    out: String,
    family: &'static str,
}

impl Exposition {
    /// Starts an empty document.
    pub fn new() -> Self {
        Exposition::default()
    }

    /// Opens metric family `name` of the given `kind` (`counter`, `gauge`,
    /// `histogram`). Help text is escaped per the spec: backslash and line
    /// feed (quotes are legal there).
    pub fn family(&mut self, name: &'static str, help: &str, kind: &str) -> &mut Self {
        let help = help.replace('\\', "\\\\").replace('\n', "\\n");
        let _ = writeln!(self.out, "# HELP {name} {help}\n# TYPE {name} {kind}");
        self.family = name;
        self
    }

    /// One sample of the open family. Label *values* are escaped per the
    /// spec: backslash, double quote, and line feed.
    pub fn sample(&mut self, labels: &[(&str, &str)], value: impl Display) -> &mut Self {
        self.line("", labels, None, value);
        self
    }

    /// One histogram of the open family: cumulative `le` buckets up to the
    /// highest occupied one, `+Inf`, `_sum` and `_count`.
    pub fn histogram(&mut self, labels: &[(&str, &str)], h: &Log2Histogram) -> &mut Self {
        let last = h.buckets.iter().rposition(|&c| c > 0).unwrap_or(0);
        let mut cumulative = 0u64;
        for (i, c) in h.buckets.iter().enumerate().take(last + 1) {
            cumulative += c;
            let le = bucket_upper_bound(i).to_string();
            self.line("_bucket", labels, Some(&le), cumulative);
        }
        self.line("_bucket", labels, Some("+Inf"), h.count);
        self.line("_sum", labels, None, h.sum);
        self.line("_count", labels, None, h.count);
        self
    }

    /// The finished document.
    pub fn finish(self) -> String {
        self.out
    }

    fn line(
        &mut self,
        suffix: &str,
        labels: &[(&str, &str)],
        le: Option<&str>,
        value: impl Display,
    ) {
        let _ = write!(self.out, "{}{suffix}", self.family);
        let pairs = labels.iter().copied().chain(le.map(|le| ("le", le)));
        for (i, (key, raw)) in pairs.enumerate() {
            let escaped = raw
                .replace('\\', "\\\\")
                .replace('"', "\\\"")
                .replace('\n', "\\n");
            let _ = write!(
                self.out,
                "{}{key}=\"{escaped}\"",
                if i == 0 { '{' } else { ',' }
            );
        }
        if !labels.is_empty() || le.is_some() {
            self.out.push('}');
        }
        let _ = writeln!(self.out, " {value}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::{Event, Logger};
    use crate::observe::{ObserveConfig, Observer};
    use crate::stop::StopReason;

    /// A detached observer running the metrics plane only.
    fn metrics_observer() -> Observer {
        Observer::detached(ObserveConfig {
            metrics: true,
            ..ObserveConfig::default()
        })
    }

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
        let mut h = Log2Histogram::new();
        for v in [0, 1, 2, 3, 4, 1000] {
            h.record(v);
        }
        assert_eq!(h.count, 6);
        assert_eq!(h.sum, 1010);
        assert_eq!(h.max, 1000);
        assert_eq!(h.buckets[0], 1, "value 0");
        assert_eq!(h.buckets[1], 1, "value 1");
        assert_eq!(h.buckets[2], 2, "values 2, 3");
        assert_eq!(h.buckets[3], 1, "value 4");
        assert_eq!(h.buckets[10], 1, "value 1000 in [512, 1024)");
    }

    /// The one quantile function against a sorted-vector reference, on
    /// fixed-seed samples of every shape the three planes feed it: kernel
    /// latencies (metrics), a handful of calls (one solve's kernel table),
    /// and self times with many zeros (flame nodes).
    #[test]
    fn quantiles_are_monotone_and_bounded_by_max() {
        fn samples(seed: u64, n: usize, spread: u32, zero_every: usize) -> Vec<u64> {
            let mut state = seed;
            (0..n)
                .map(|i| {
                    // SplitMix64: fixed seed, fixed sequence.
                    state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                    let mut z = state;
                    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                    z ^= z >> 31;
                    if zero_every > 0 && i % zero_every == 0 {
                        0
                    } else {
                        z >> (64 - 1 - (z % spread as u64) as u32)
                    }
                })
                .collect()
        }
        let table: [(&str, Vec<u64>); 5] = [
            ("uniform 1..=1000", (1..=1000).collect()),
            ("kernel latencies", samples(20250911, 4096, 30, 0)),
            ("one solve's calls", samples(7, 9, 20, 0)),
            ("self times with zeros", samples(42, 513, 24, 3)),
            ("single value", vec![777]),
        ];
        for (what, values) in &table {
            let mut h = Log2Histogram::new();
            for &v in values {
                h.record(v);
            }
            let mut sorted = values.clone();
            sorted.sort_unstable();
            let mut previous = 0u64;
            for q in [0.0, 0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0] {
                let got = h.quantile(q);
                let rank = ((q * sorted.len() as f64).ceil() as usize).max(1);
                let exact = sorted[rank - 1];
                // The answer is the bound of the exact value's bucket (or the max).
                assert_eq!(
                    got,
                    bucket_upper_bound(bucket_index(exact)).min(h.max),
                    "{what} q={q}: exact value {exact}"
                );
                assert!(
                    got >= previous && got <= h.max,
                    "{what} q={q}: not monotone"
                );
                previous = got;
            }
            assert_eq!(
                h.quantile(1.0),
                *sorted.last().unwrap(),
                "{what}: q=1 is the max"
            );
            let mean = values.iter().map(|&v| v as f64).sum::<f64>() / values.len() as f64;
            assert!(
                (h.mean() - mean).abs() <= 1e-9 * mean.max(1.0),
                "{what}: mean"
            );
        }
        assert_eq!(HistogramSnapshot::default().quantile(0.5), 0);
    }

    /// Deliveries from many threads all count: the observer's lock, not
    /// sharded atomics, is what makes concurrent emitters safe.
    #[test]
    fn deliveries_from_many_threads_all_count() {
        let obs = metrics_observer();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..1000 {
                        obs.on_event(&Event::AllocationComplete { bytes: 64 });
                    }
                });
            }
        });
        let snap = obs.metrics().unwrap();
        assert_eq!((snap.events, snap.alloc_bytes.count), (8000, 8000));
        assert_eq!(snap.alloc_bytes.sum, 8000 * 64);
    }

    #[test]
    fn registry_aggregates_the_event_stream() {
        let obs = metrics_observer();
        obs.on_event(&Event::LinOpApplyStarted { op: "csr" });
        obs.on_event(&Event::LinOpApplyCompleted {
            op: "csr",
            wall_ns: 1500,
            virtual_ns: 1000,
        });
        obs.on_event(&Event::IterationComplete {
            solver: "solver::Cg",
            iteration: 1,
            residual: 1.0,
        });
        obs.on_event(&Event::AllocationComplete { bytes: 4096 });
        obs.on_event(&Event::PoolDispatch {
            chunks: 8,
            steals: 1,
            threads: 4,
            wall_ns: 2500,
        });
        let snap = obs.metrics().expect("metrics plane on");
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
        let obs = metrics_observer();
        obs.on_event(&Event::LinOpApplyCompleted {
            op: "csr",
            wall_ns: 100,
            virtual_ns: 90,
        });
        let text = obs.metrics().unwrap().to_prometheus();
        assert!(
            text.contains("gko_kernel_calls_total{op=\"csr\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("gko_kernel_wall_ns_bucket{op=\"csr\",le=\"127\"} 1"),
            "{text}"
        );
        assert!(text.contains("le=\"+Inf\"} 1"), "{text}");
        assert!(
            text.contains("gko_kernel_wall_ns_sum{op=\"csr\"} 100"),
            "{text}"
        );
        assert!(
            text.contains("gko_pool_dispatch_ns_bucket{le=\"+Inf\"} 0"),
            "{text}"
        );
    }

    #[test]
    fn exposition_has_help_and_type_for_every_family() {
        let text = MetricsSnapshot::default().to_prometheus();
        for line in text.lines().filter(|l| l.starts_with("# TYPE ")) {
            let family = line.split_whitespace().nth(2).unwrap();
            assert!(
                text.contains(&format!("# HELP {family} ")),
                "missing HELP for {family}"
            );
        }
        assert!(
            text.contains("# TYPE gko_anomalies_total counter"),
            "{text}"
        );
    }

    #[test]
    fn label_values_escape_backslash_quote_and_newline() {
        let mut doc = Exposition::new();
        doc.family("m", "help with \\ and\nnewline", "gauge")
            .sample(
                &[("a", r"a\b"), ("b", "say \"hi\""), ("c", "two\nlines")],
                1,
            );
        assert_eq!(
            doc.finish(),
            "# HELP m help with \\\\ and\\nnewline\n# TYPE m gauge\n\
             m{a=\"a\\\\b\",b=\"say \\\"hi\\\"\",c=\"two\\nlines\"} 1\n"
        );
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
        let obs = Observer::detached(ObserveConfig {
            metrics: true,
            flight: Some(Default::default()),
            ..ObserveConfig::default()
        });
        // Two solves that plateau without converging, one that diverges.
        for (residuals, kind) in [
            ([1.0; 12], "stagnation"),
            ([1.0; 12], "stagnation"),
            ([1.0e6; 12], "divergence"),
        ] {
            obs.on_event(&Event::IterationComplete {
                solver: "solver::Ir",
                iteration: 0,
                residual: 1.0,
            });
            for (i, residual) in residuals.into_iter().enumerate() {
                obs.on_event(&Event::IterationComplete {
                    solver: "solver::Ir",
                    iteration: i + 1,
                    residual,
                });
            }
            obs.on_event(&Event::SolveCompleted {
                solver: "solver::Ir",
                iterations: 12,
                residual: residuals[11],
                reason: StopReason::MaxIterations,
            });
            assert_eq!(obs.latest_run().unwrap().anomalies[0].kind(), kind);
        }
        let snap = obs.metrics().unwrap();
        assert_eq!(
            snap.anomalies,
            vec![("divergence".to_string(), 1), ("stagnation".to_string(), 2)]
        );
        let text = snap.to_prometheus();
        assert!(
            text.contains("gko_anomalies_total{kind=\"stagnation\"} 2"),
            "{text}"
        );
    }
}
