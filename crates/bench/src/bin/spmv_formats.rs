//! Format × executor SpMV sweep with pool and metrics telemetry.
//!
//! Runs every sparse format on the reference executor and on OpenMP-model
//! executors with 1/2/4/8/16 threads, on a large (~1.8M-nnz) Poisson
//! matrix — plus the full CSR strategy sweep (classical, load-balance,
//! merge-path, auto) on a skewed power-law matrix whose ultra-dense row is
//! the case merge-path exists for, and a plan-reuse-vs-rebuild ablation
//! quantifying the cached inspector — and writes
//! `results/BENCH_spmv.json` with deterministic
//! virtual-time GFLOP/s, the speedup over the reference executor, the
//! deterministic worker-pool counters (dispatches, chunks), and — via the
//! metrics plane observing each executor — the per-kernel call counts,
//! virtual-time totals and virtual-latency quantiles of the whole sweep.
//!
//! Everything the file holds is deterministic, so `scripts/verify.sh` reruns
//! the bin and `cmp`s the file against the committed one. What varies run to
//! run is printed only: steals, `ns/dispatch` (mean wall-clock nanoseconds a
//! dispatch spends inside the pool, chunk execution included), per-kernel
//! wall time, the trace-overhead timings and the folded flame profile.
//!
//! The bin exits nonzero when a flight-recorder detector fires anywhere in
//! the sweep, or when armed tracing or profiling costs more than
//! [`TRACE_OVERHEAD_LIMIT`] times the inert solve.
//!
//! `cargo run --release -p pygko-bench --bin spmv_formats`

use gko::config::Config;
use gko::linop::LinOp;
use gko::matrix::{BatchCsr, BatchDense, Coo, Csr, Dense, Ell, Hybrid, Sellp, SpmvStrategy};
use gko::solver::{BatchCg, BatchSolveRecord, Cg};
use gko::stop::Criteria;
use gko::{Dim2, Executor, MetricsSnapshot, ObserveConfig, PoolStats};
use pygko_bench::{fmt, gflops, quick_mode, results_dir, virtual_secs, Report};
use pygko_matgen::generators::{poisson2d, power_law, spd_tridiag_batch};
use std::sync::Arc;

/// Largest allowed wall-clock ratio of an armed (traced, or traced and
/// profiled) fixed-work solve over the inert one. Generous on purpose: it
/// catches the inert tracing path growing from "one relaxed load" into
/// something structural, not scheduler noise.
const TRACE_OVERHEAD_LIMIT: f64 = 5.0;

struct Record {
    matrix: String,
    format: &'static str,
    strategy: &'static str,
    executor: String,
    threads: usize,
    seconds: f64,
    gflops: f64,
    speedup: f64,
    dispatches: u64,
    chunks: u64,
    steals: u64,
    pool_ns_per_dispatch: f64,
}

/// One timed apply of `op` on `exec`; returns virtual seconds plus the pool
/// counters this kernel added.
fn run_once<V: gko::Value>(
    exec: &Executor,
    op: &dyn LinOp<V>,
    b: &Dense<V>,
    x: &mut Dense<V>,
) -> (f64, gko::PoolStats) {
    // Warm up so lazy pool spawning is not charged to the measured kernel.
    op.apply(b, x).expect("spmv");
    let s0 = exec.pool_stats();
    let secs = virtual_secs(exec, || op.apply(b, x).expect("spmv")).seconds();
    (secs, exec.pool_stats().since(&s0))
}

/// Flight-recorder anomalies an executor's metrics plane counted, all kinds.
fn anomalies_total(snap: &MetricsSnapshot) -> u64 {
    snap.anomalies.iter().map(|(_, n)| *n).sum()
}

fn main() {
    let grid = if quick_mode() { 120 } else { 600 };
    let gen = poisson2d("poisson2d", grid, grid);
    let nnz = gen.nnz();
    let dim = Dim2::new(gen.rows, gen.cols);
    let poisson_name = format!("poisson2d_{grid}");
    println!("matrix: {poisson_name} ({} rows, {nnz} nnz)", gen.rows);

    // Skewed power-law matrix: one row holds ~90% of the columns, so
    // row-parallel strategies serialize one lane while merge-path splits the
    // row by nonzero count.
    let skew_n = if quick_mode() { 20_000 } else { 200_000 };
    let skew_gen = power_law("powerlaw", skew_n, 2, 0.9, 2026);
    let skew_nnz = skew_gen.nnz();
    let skew_dim = Dim2::new(skew_gen.rows, skew_gen.cols);
    let skew_name = format!("powerlaw_{skew_n}");
    println!(
        "matrix: {skew_name} ({} rows, {skew_nnz} nnz)",
        skew_gen.rows
    );

    let executors: Vec<(String, usize, Executor)> =
        std::iter::once(("reference".to_string(), 1usize, Executor::reference()))
            .chain(
                [1usize, 2, 4, 8, 16]
                    .into_iter()
                    .map(|t| (format!("omp{t}"), t, Executor::omp(t))),
            )
            .collect();

    let mut records: Vec<Record> = Vec::new();
    // Each executor's metrics plane observes every kernel of that
    // executor's sweep (including warm-up applies and format conversions),
    // folding the stream into call counts, time sums and latency
    // histograms; the flight plane's anomaly counters ride along so a run
    // that tripped a detector fails. The pool's own counters complete the
    // per-executor profile.
    let mut metrics: Vec<(String, usize, MetricsSnapshot, PoolStats)> = Vec::new();
    for (name, threads, exec) in &executors {
        exec.observe(ObserveConfig {
            metrics: true,
            flight: Some(gko::DetectorConfig::default()),
            ..ObserveConfig::default()
        });
        let csr = Csr::<f64, i32>::from_triplets(exec, dim, &gen.triplets).unwrap();
        let b = Dense::<f64>::vector(exec, gen.cols, 1.0);
        let mut x = Dense::zeros(exec, Dim2::new(gen.rows, 1));

        let mut push = |matrix: &str,
                        mat_nnz: usize,
                        format: &'static str,
                        strategy: &'static str,
                        op: &dyn LinOp<f64>,
                        b: &Dense<f64>,
                        x: &mut Dense<f64>| {
            let (secs, stats) = run_once(exec, op, b, x);
            records.push(Record {
                matrix: matrix.to_owned(),
                format,
                strategy,
                executor: name.clone(),
                threads: *threads,
                seconds: secs,
                gflops: gflops(mat_nnz, secs),
                speedup: 0.0, // filled below, once the reference row exists
                dispatches: stats.dispatches,
                chunks: stats.chunks,
                steals: stats.steals,
                pool_ns_per_dispatch: if stats.dispatches == 0 {
                    0.0
                } else {
                    stats.dispatch_ns as f64 / stats.dispatches as f64
                },
            });
        };

        push(
            &poisson_name,
            nnz,
            "csr",
            "classical",
            &csr.clone().with_strategy(SpmvStrategy::Classical),
            &b,
            &mut x,
        );
        push(
            &poisson_name,
            nnz,
            "csr",
            "load_balance",
            &csr.clone().with_strategy(SpmvStrategy::LoadBalance),
            &b,
            &mut x,
        );
        push(
            &poisson_name,
            nnz,
            "csr",
            "merge_path",
            &csr.clone().with_strategy(SpmvStrategy::MergePath),
            &b,
            &mut x,
        );
        push(&poisson_name, nnz, "csr", "auto", &csr, &b, &mut x);
        push(
            &poisson_name,
            nnz,
            "coo",
            "segmented",
            &Coo::from_csr(&csr),
            &b,
            &mut x,
        );
        push(
            &poisson_name,
            nnz,
            "ell",
            "row_parallel",
            &Ell::from_csr(&csr),
            &b,
            &mut x,
        );
        push(
            &poisson_name,
            nnz,
            "sellp",
            "slice_parallel",
            &Sellp::from_csr(&csr),
            &b,
            &mut x,
        );
        push(
            &poisson_name,
            nnz,
            "hybrid",
            "ell+coo",
            &Hybrid::from_csr(&csr),
            &b,
            &mut x,
        );

        // CSR strategy sweep on the skewed matrix: the row the merge-path
        // kernel exists for.
        let skew_csr = Csr::<f64, i32>::from_triplets(exec, skew_dim, &skew_gen.triplets).unwrap();
        let sb = Dense::<f64>::vector(exec, skew_gen.cols, 1.0);
        let mut sx = Dense::zeros(exec, Dim2::new(skew_gen.rows, 1));
        push(
            &skew_name,
            skew_nnz,
            "csr",
            "classical",
            &skew_csr.clone().with_strategy(SpmvStrategy::Classical),
            &sb,
            &mut sx,
        );
        push(
            &skew_name,
            skew_nnz,
            "csr",
            "load_balance",
            &skew_csr.clone().with_strategy(SpmvStrategy::LoadBalance),
            &sb,
            &mut sx,
        );
        push(
            &skew_name,
            skew_nnz,
            "csr",
            "merge_path",
            &skew_csr.clone().with_strategy(SpmvStrategy::MergePath),
            &sb,
            &mut sx,
        );
        push(&skew_name, skew_nnz, "csr", "auto", &skew_csr, &sb, &mut sx);
        metrics.push((
            name.clone(),
            *threads,
            exec.observer().metrics().expect("metrics observed"),
            exec.pool_stats(),
        ));
        exec.clear_loggers();
    }
    for (name, _, snap, _) in &metrics {
        assert_eq!(
            anomalies_total(snap),
            0,
            "the {name} sweep tripped a flight-recorder detector"
        );
    }

    // Speedup of each row over the same matrix/format/strategy on reference.
    let reference: Vec<(String, f64)> = records
        .iter()
        .filter(|r| r.executor == "reference")
        .map(|r| {
            (
                format!("{}/{}/{}", r.matrix, r.format, r.strategy),
                r.seconds,
            )
        })
        .collect();
    for r in records.iter_mut() {
        let key = format!("{}/{}/{}", r.matrix, r.format, r.strategy);
        if let Some((_, ref_secs)) = reference.iter().find(|(k, _)| *k == key) {
            r.speedup = ref_secs / r.seconds;
        }
    }

    let mut report = Report::new(
        "SpMV formats x strategies (virtual time)",
        &[
            "matrix",
            "format",
            "strategy",
            "executor",
            "threads",
            "GFLOP/s",
            "speedup",
            "dispatches",
            "chunks",
            "steals",
            "ns/dispatch",
        ],
    );
    for r in &records {
        report.row(vec![
            r.matrix.clone(),
            r.format.into(),
            r.strategy.into(),
            r.executor.clone(),
            r.threads.to_string(),
            fmt(r.gflops),
            fmt(r.speedup),
            r.dispatches.to_string(),
            r.chunks.to_string(),
            r.steals.to_string(),
            fmt(r.pool_ns_per_dispatch),
        ]);
    }
    report.print();

    // Plan-reuse vs per-apply-rebuild ablation (the inspector-executor
    // payoff): the same LoadBalance CSR applied `applies` times with the
    // cached plan, then again with the cache invalidated before every
    // apply. Virtual time is deterministic, so the delta is exactly the
    // modeled inspector cost.
    let applies = 100usize;
    let ab_exec = Executor::omp(16);
    let ab_csr = Csr::<f64, i32>::from_triplets(&ab_exec, dim, &gen.triplets)
        .unwrap()
        .with_strategy(SpmvStrategy::LoadBalance);
    let ab_b = Dense::<f64>::vector(&ab_exec, gen.cols, 1.0);
    let mut ab_x = Dense::zeros(&ab_exec, Dim2::new(gen.rows, 1));
    // Measure the inspector alone: one plan build on the virtual timeline.
    let plan_build_secs = virtual_secs(&ab_exec, || drop(ab_csr.plan())).seconds();
    let run_applies = |rebuild: bool, x: &mut Dense<f64>| -> f64 {
        virtual_secs(&ab_exec, || {
            for _ in 0..applies {
                if rebuild {
                    ab_csr.invalidate_plan();
                }
                ab_csr.apply(&ab_b, x).expect("spmv");
            }
        })
        .seconds()
    };
    ab_csr.invalidate_plan();
    let before = ab_csr.plan_stats();
    let reused_secs = run_applies(false, &mut ab_x);
    let after = ab_csr.plan_stats();
    // Counters are monotone; the delta is this run's build/hit behaviour.
    let reused_stats = gko::matrix::PlanCacheStats {
        builds: after.builds - before.builds,
        hits: after.hits - before.hits,
    };
    let rebuilt_secs = run_applies(true, &mut ab_x);
    let reuse_ratio = reused_stats.reuse_ratio();
    println!(
        "\nplan ablation ({poisson_name}, csr/load_balance, omp16, {applies} applies):\n  \
         plan_build {:.3} us | apply (reused) {:.3} us | apply (rebuilt) {:.3} us | \
         reuse ratio {:.4}",
        plan_build_secs * 1e6,
        reused_secs / applies as f64 * 1e6,
        rebuilt_secs / applies as f64 * 1e6,
        reuse_ratio
    );
    assert!(
        reuse_ratio >= 0.99,
        "cached plan should serve >=99% of lookups: {reused_stats:?}"
    );
    assert!(
        reused_secs <= rebuilt_secs,
        "plan reuse must not be slower than per-apply rebuilds"
    );

    // Batched-solver headline: many independent small SPD systems sharing
    // one sparsity, solved by batched CG (one pool drain per kernel across
    // all systems) versus a loop of single-system CG solves. omp16 charges a
    // virtual launch fee per kernel, so batching amortizes it across the
    // whole batch and the per-system virtual time must drop.
    let batch_systems = if quick_mode() { 200 } else { 1200 };
    let batch_n = 32usize;
    let bgen = spd_tridiag_batch("tridiag", batch_n, batch_systems, 7);
    let bt_exec = Executor::omp(16);
    bt_exec.observe(ObserveConfig {
        flight: Some(gko::DetectorConfig::default()),
        ..ObserveConfig::default()
    });
    let bt_dim = Dim2::new(batch_n, batch_n);
    let proto = Csr::<f64, i32>::from_triplets(&bt_exec, bt_dim, &bgen.prototype.triplets).unwrap();
    let batch = Arc::new(BatchCsr::from_shared(&proto, &bgen.system_values).unwrap());
    let batch_criteria = Criteria::iterations_and_reduction(200, 1e-10);
    let vec_dim = Dim2::new(batch_n, 1);
    let mut batch_b = BatchDense::<f64>::zeros(&bt_exec, batch_systems, vec_dim);
    let mut batch_x = BatchDense::<f64>::zeros(&bt_exec, batch_systems, vec_dim);
    for s in 0..batch_systems {
        batch_b.system_mut(s).copy_from_slice(&bgen.rhs[s]);
    }
    let batch_solver = BatchCg::new(batch).unwrap().with_criteria(batch_criteria);
    let mut batch_record = BatchSolveRecord::default();
    let batched_secs = virtual_secs(&bt_exec, || {
        batch_record = batch_solver.apply_batch(&batch_b, &mut batch_x).unwrap();
    })
    .seconds();
    assert!(
        batch_record.all_converged(),
        "batched CG should converge on every diagonally dominant system \
         ({}/{batch_systems} converged)",
        batch_record.converged_count()
    );

    // The same systems as independent single solves (matrices, vectors, and
    // solvers built outside the timed region — only solve time is compared).
    let singles: Vec<(Cg<f64>, Dense<f64>, Dense<f64>)> = (0..batch_systems)
        .map(|s| {
            let triplets = bgen.system_triplets(s);
            let csr =
                Arc::new(Csr::<f64, i32>::from_triplets(&bt_exec, bt_dim, &triplets).unwrap());
            let solver = Cg::new(csr).unwrap().with_criteria(batch_criteria);
            let b = Dense::from_vec(&bt_exec, vec_dim, bgen.rhs[s].clone()).unwrap();
            let x = Dense::zeros(&bt_exec, vec_dim);
            (solver, b, x)
        })
        .collect();
    let loop_secs = virtual_secs(&bt_exec, || {
        for (solver, b, mut x) in singles {
            solver.apply(&b, &mut x).expect("single cg");
        }
    })
    .seconds();

    // Stagnation and divergence read only residuals, which are
    // bit-reproducible, so the sweep must trip neither. Lane imbalance reads
    // the wall clock (and cannot fire on a pool of three lanes or fewer);
    // latency drift is off unless opted in. Both are printed, and written
    // nowhere.
    let anomalies = bt_exec.observer().status().anomalies;
    let count = |kind: &str| {
        anomalies
            .iter()
            .find(|(k, _)| k == kind)
            .map_or(0, |(_, n)| *n)
    };
    let residual_anomalies = count("stagnation") + count("divergence");
    let per_system_batched_ns = batched_secs / batch_systems as f64 * 1e9;
    let per_system_loop_ns = loop_secs / batch_systems as f64 * 1e9;
    println!(
        "\nbatched CG ({batch_systems} systems of {batch_n} rows, omp16):\n  \
         batched {:.2} us/system | loop-of-singles {:.2} us/system | speedup {:.2}x\n  \
         anomalies: stagnation {} | divergence {} | lane_imbalance {} | latency_drift {}",
        per_system_batched_ns / 1e3,
        per_system_loop_ns / 1e3,
        loop_secs / batched_secs,
        count("stagnation"),
        count("divergence"),
        count("lane_imbalance"),
        count("latency_drift"),
    );
    assert!(
        batched_secs < loop_secs,
        "batched CG must beat the loop of single solves per system: \
         batched {batched_secs}s vs loop {loop_secs}s"
    );
    assert_eq!(
        residual_anomalies, 0,
        "batched sweep tripped a residual detector: {anomalies:?}"
    );

    // Trace overhead: the same fixed-work CG solve (fixed iteration count,
    // so the inert and armed runs do identical numerical work) on a fresh
    // omp-16 executor with standard (classical) CSR, timed on the wall
    // clock untraced and with tracing armed at sample_n=1. The inert figure
    // is the cost of the tracing *code paths* while disarmed — one relaxed
    // load per probe — and the armed figure quantifies full span assembly;
    // their ratio must stay under `TRACE_OVERHEAD_LIMIT`. The retained trace's
    // per-op span counts are asserted here: exactly one root, one iteration
    // span per iteration, and one csr kernel span per iteration plus the
    // prologue residual apply.
    let tr_iters = 40usize;
    let tr_exec = Executor::omp(16);
    let tr_csr = Arc::new(
        Csr::<f64, i32>::from_triplets(&tr_exec, dim, &gen.triplets)
            .unwrap()
            .with_strategy(SpmvStrategy::Classical),
    );
    let tr_b = Dense::<f64>::vector(&tr_exec, gen.cols, 1.0);
    let tr_criteria = Criteria::iterations(tr_iters);
    let timed_solve = |exec: &Executor| -> u64 {
        let solver = Cg::new(tr_csr.clone()).unwrap().with_criteria(tr_criteria);
        let mut x = Dense::<f64>::zeros(exec, Dim2::new(gen.rows, 1));
        let t0 = std::time::Instant::now();
        solver.apply(&tr_b, &mut x).expect("fixed-work cg");
        t0.elapsed().as_nanos() as u64
    };
    let min_of = |exec: &Executor, runs: usize| -> u64 {
        timed_solve(exec); // warm-up: pool spawn, plan build, page faults
        (0..runs).map(|_| timed_solve(exec)).min().unwrap_or(0)
    };
    let inert_ns = min_of(&tr_exec, 3);
    let tracing = ObserveConfig {
        flight: Some(gko::DetectorConfig {
            drift_min_solves: u64::MAX,
            imbalance_ratio: f64::INFINITY,
        }),
        trace: Some(gko::TraceConfig {
            sample_n: 1,
            max_spans: 2_000_000,
        }),
        ..ObserveConfig::default()
    };
    tr_exec.observe(tracing.clone());
    let armed_ns = min_of(&tr_exec, 3);
    let trace = tr_exec
        .observer()
        .latest_trace()
        .expect("armed solve retained");
    assert_eq!(trace.run.iterations, tr_iters);
    assert_eq!(trace.truncated_spans, 0);
    let count =
        |pred: &dyn Fn(&gko::SpanRecord) -> bool| trace.spans.iter().filter(|s| pred(s)).count();
    let span_counts = [
        ("solve", count(&|s| s.kind == gko::SpanKind::Solve)),
        ("iteration", count(&|s| s.kind == gko::SpanKind::Iteration)),
        ("kernel_apply", count(&|s| s.kind == gko::SpanKind::Kernel)),
        ("plan_build", count(&|s| s.kind == gko::SpanKind::PlanBuild)),
        (
            "pool_dispatch",
            count(&|s| s.kind == gko::SpanKind::Dispatch),
        ),
        ("chunk", count(&|s| s.kind == gko::SpanKind::Chunk)),
    ];
    assert_eq!(span_counts[0].1, 1, "exactly one solve root");
    assert_eq!(span_counts[1].1, tr_iters, "one span per iteration");
    assert_eq!(
        count(&|s| s.name == "csr"),
        tr_iters + 1,
        "one csr apply per iteration plus the prologue residual"
    );
    assert!(span_counts[4].1 > 0, "pooled solve opened dispatch spans");
    assert!(span_counts[5].1 > 0, "dispatches recorded chunk spans");

    // Continuous profiler on top of armed tracing: the same fixed-work
    // solve with every finished span tree folded into the flame aggregate.
    // The fold runs off the solve's critical path only in the sense that it
    // is one pass per completed trace, so its cost is held to the same limit
    // as armed tracing.
    tr_exec.observe(ObserveConfig {
        profile: true,
        ..tracing
    });
    let profiled_ns = min_of(&tr_exec, 3);
    let prof = tr_exec.observer().profile();
    assert!(
        prof.solves >= 4,
        "warm-up + 3 timed solves folded: {}",
        prof.solves
    );
    assert!(!prof.nodes.is_empty(), "profiled solve built a flame tree");
    let root = &prof.nodes[0];
    assert_eq!(root.depth, 0, "first flattened node is a root");
    assert_eq!(root.kind, "solve", "flame tree is rooted at the solve span");
    assert!(
        prof.nodes.iter().any(|n| n.path.contains("csr")),
        "csr kernel spans surface as flame paths"
    );
    assert!(
        prof.nodes.len() <= gko::profile::MAX_FLAME_NODES,
        "flame store respects its node cap"
    );
    tr_exec.observe(ObserveConfig::default());
    let inert_ns_per_iter = inert_ns as f64 / tr_iters as f64;
    let armed_ns_per_iter = armed_ns as f64 / tr_iters as f64;
    let profiled_ns_per_iter = profiled_ns as f64 / tr_iters as f64;
    let armed_over_inert = if inert_ns == 0 {
        0.0
    } else {
        armed_ns as f64 / inert_ns as f64
    };
    let profiled_over_inert = if inert_ns == 0 {
        0.0
    } else {
        profiled_ns as f64 / inert_ns as f64
    };
    println!(
        "\ntrace overhead ({poisson_name}, csr/classical, omp16, {tr_iters} fixed iterations):\n  \
         inert {:.1} us/iter | armed {:.1} us/iter | profiled {:.1} us/iter | \
         armed/inert {:.2}x | profiled/inert {:.2}x | {} spans | {} flame nodes",
        inert_ns_per_iter / 1e3,
        armed_ns_per_iter / 1e3,
        profiled_ns_per_iter / 1e3,
        armed_over_inert,
        profiled_over_inert,
        trace.spans.len(),
        prof.nodes.len()
    );
    print!(
        "\nfolded flame profile (self wall ns, {} solves):\n{}",
        prof.solves,
        prof.folded()
    );
    assert!(
        armed_over_inert <= TRACE_OVERHEAD_LIMIT && profiled_over_inert <= TRACE_OVERHEAD_LIMIT,
        "armed/inert {armed_over_inert:.2}x or profiled/inert {profiled_over_inert:.2}x is above \
         {TRACE_OVERHEAD_LIMIT}x (wall clock: rerun before believing it)"
    );

    // Per-kernel aggregates per executor, hottest first.
    for (name, _, snap, pool) in &metrics {
        println!("\nkernel profile ({name}):");
        let mut kernels: Vec<_> = snap.kernels.iter().collect();
        kernels.sort_by_key(|k| std::cmp::Reverse(k.virtual_ns.sum));
        for k in kernels {
            println!(
                "  {:<14} {:>6} calls  {:>12} virtual ns  {:>12} wall ns",
                k.op, k.calls, k.virtual_ns.sum, k.wall_ns.sum
            );
        }
        println!(
            "  pool: {} dispatches, {} chunks, {} steals; {} allocations ({} bytes)",
            pool.dispatches, pool.chunks, pool.steals, snap.alloc_bytes.count, snap.alloc_bytes.sum
        );
    }

    // JSON via the engine's own Config tree + serializer (the workspace
    // carries no serialization dependency): timing records, each executor's
    // per-kernel totals and pool counters, and the quantile summaries, all
    // virtual or counted, never wall clock or steals, so reruns are
    // byte-identical.
    let record_json: Vec<Config> = records
        .iter()
        .map(|r| {
            Config::map()
                .with("matrix", r.matrix.as_str())
                .with(
                    "nnz",
                    if r.matrix == poisson_name {
                        nnz
                    } else {
                        skew_nnz
                    },
                )
                .with("format", r.format)
                .with("strategy", r.strategy)
                .with("executor", r.executor.as_str())
                .with("threads", r.threads)
                .with("virtual_seconds", r.seconds)
                .with("gflops", r.gflops)
                .with("speedup_vs_reference", r.speedup)
                .with("pool_dispatches", r.dispatches as i64)
                .with("pool_chunks", r.chunks as i64)
        })
        .collect();
    let profile_json: Vec<Config> = metrics
        .iter()
        .map(|(name, threads, snap, pool)| {
            let kernels: Vec<Config> = snap
                .kernels
                .iter()
                .map(|k| {
                    Config::map()
                        .with("op", k.op.as_str())
                        .with("calls", k.calls as i64)
                        .with("virtual_ns", k.virtual_ns.sum as i64)
                })
                .collect();
            Config::map()
                .with("executor", name.as_str())
                .with("threads", *threads)
                .with("pool_dispatches", pool.dispatches as i64)
                .with("pool_chunks", pool.chunks as i64)
                .with("allocations", snap.alloc_bytes.count as i64)
                .with("allocated_bytes", snap.alloc_bytes.sum as i64)
                .with("kernels", kernels)
        })
        .collect();
    let metrics_json: Vec<Config> = metrics
        .iter()
        .map(|(name, threads, snap, _)| {
            let kernels: Vec<Config> = snap
                .kernels
                .iter()
                .map(|k| {
                    Config::map()
                        .with("op", k.op.as_str())
                        .with("calls", k.calls as i64)
                        .with("virtual_p50_ns", k.virtual_ns.p50() as i64)
                        .with("virtual_p95_ns", k.virtual_ns.p95() as i64)
                        .with("virtual_p99_ns", k.virtual_ns.p99() as i64)
                        .with("virtual_max_ns", k.virtual_ns.max as i64)
                })
                .collect();
            Config::map()
                .with("executor", name.as_str())
                .with("threads", *threads)
                .with("events", snap.events as i64)
                .with("pool_dispatches", snap.pool_dispatch_ns.count as i64)
                .with("allocations", snap.alloc_bytes.count as i64)
                .with("anomalies_total", anomalies_total(snap) as i64)
                .with("kernels", kernels)
        })
        .collect();
    let plan_ablation_json = Config::map()
        .with("matrix", poisson_name.as_str())
        .with("format", "csr")
        .with("strategy", "load_balance")
        .with("executor", "omp16")
        .with("applies", applies)
        .with("plan_build_ns", plan_build_secs * 1e9)
        .with("apply_reused_ns", reused_secs / applies as f64 * 1e9)
        .with("apply_rebuilt_ns", rebuilt_secs / applies as f64 * 1e9)
        .with("plan_builds", reused_stats.builds as i64)
        .with("plan_hits", reused_stats.hits as i64)
        .with("reuse_ratio", reuse_ratio);
    let batched_json = Config::map()
        .with("matrix", "tridiag_batch")
        .with("systems", batch_systems)
        .with("rows_per_system", batch_n)
        .with("executor", "omp16")
        .with("threads", 16usize)
        .with("batched_virtual_seconds", batched_secs)
        .with("loop_virtual_seconds", loop_secs)
        .with("per_system_batched_ns", per_system_batched_ns)
        .with("per_system_loop_ns", per_system_loop_ns)
        .with("speedup_vs_loop", loop_secs / batched_secs)
        .with("converged", batch_record.converged_count())
        .with("max_iterations", batch_record.max_iterations())
        .with("residual_anomalies", residual_anomalies as i64);
    // The span counts are exact for the fixed-work solve.
    let span_counts_json = span_counts
        .iter()
        .fold(Config::map(), |c, (kind, n)| c.with(kind, *n as i64));
    let trace_overhead_json = Config::map()
        .with("matrix", poisson_name.as_str())
        .with("format", "csr")
        .with("strategy", "classical")
        .with("executor", "omp16")
        .with("iterations", tr_iters)
        .with("spans_total", trace.spans.len() as i64)
        .with("span_counts", span_counts_json);
    let doc = Config::map()
        .with("records", record_json)
        .with("profiles", profile_json)
        .with("metrics", metrics_json)
        .with("plan_ablation", plan_ablation_json)
        .with("batched", batched_json)
        .with("trace_overhead", trace_overhead_json);

    let dir = results_dir();
    std::fs::create_dir_all(&dir).expect("create results dir");
    let path = dir.join("BENCH_spmv.json");
    std::fs::write(&path, gko::config::json::to_string_pretty(&doc)).expect("write json");
    println!("\nwrote {}", path.display());

    // Headline check: parallel CSR and COO beat the serial reference by 2x.
    for format in ["csr", "coo"] {
        let best = records
            .iter()
            .filter(|r| r.matrix == poisson_name && r.format == format && r.executor != "reference")
            .map(|r| r.speedup)
            .fold(0.0f64, f64::max);
        println!("best {format} omp speedup vs reference: {best:.2}x");
        assert!(
            best >= 2.0,
            "{format} omp should be at least 2x the reference executor"
        );
    }

    // Merge-path headline: on the skewed matrix at full width, splitting the
    // ultra-dense row beats every row-parallel strategy.
    let skew_secs = |strategy: &str| {
        records
            .iter()
            .find(|r| r.matrix == skew_name && r.strategy == strategy && r.executor == "omp16")
            .map(|r| r.seconds)
            .expect("skewed omp16 row")
    };
    let (mp, lb, cl) = (
        skew_secs("merge_path"),
        skew_secs("load_balance"),
        skew_secs("classical"),
    );
    println!(
        "powerlaw omp16: merge_path {:.1} us vs load_balance {:.1} us vs classical {:.1} us",
        mp * 1e6,
        lb * 1e6,
        cl * 1e6
    );
    assert!(
        mp < lb && mp < cl,
        "merge-path should win on the skewed matrix: mp {mp} lb {lb} cl {cl}"
    );
    // Auto must have picked merge-path there (skew is far past the
    // threshold), so its row should match merge_path's virtual time.
    let auto = skew_secs("auto");
    assert!(
        (auto - mp).abs() <= 1e-12_f64.max(mp * 1e-9),
        "auto should resolve to merge-path on the skewed matrix: auto {auto} mp {mp}"
    );
}
