//! Acceptance tests for causal span tracing: an armed CG solve on a 16-lane
//! pool yields one rooted span tree whose per-lane chunk spans exactly tile
//! every pool dispatch; anomalous solves are always retained while healthy
//! ones head-sample 1-in-N; slow solves are retained by the latency
//! threshold; every run and its trace share one id, across re-arms too, and
//! only a kept trace is linked; and the inert/disarmed paths observe nothing.

use gko::linop::LinOp;
use gko::log::{Event, Logger};
use gko::matrix::{BatchCsr, BatchDense, Csr, Dense};
use gko::preconditioner::Jacobi;
use gko::solver::{BatchCg, Cg, Ir};
use gko::stop::{Criteria, StopReason};
use gko::telemetry::BatchOutcome;
use gko::trace::{SpanKind, TraceConfig, TraceReport, LATENCY_THRESHOLD_NS, OWNER_LANE};
use gko::{DetectorConfig, Dim2, Executor, ObserveConfig, Observer};
use std::collections::BTreeSet;
use std::sync::Arc;

fn poisson_csr(exec: &Executor, n: usize) -> Csr<f64, i32> {
    let mut t = Vec::new();
    for i in 0..n {
        t.push((i, i, 4.0));
        if i > 0 {
            t.push((i, i - 1, -1.0));
            t.push((i - 1, i, -1.0));
        }
    }
    Csr::from_triplets(exec, Dim2::square(n), &t).unwrap()
}

fn solve_cg(exec: &Executor, a: &Arc<Csr<f64, i32>>) {
    let n = a.size().rows;
    let solver = Cg::new(a.clone())
        .unwrap()
        .with_criteria(Criteria::iterations_and_reduction(2 * n, 1e-10));
    let b = Dense::<f64>::filled(exec, Dim2::new(n, 1), 1.0);
    let mut x = Dense::<f64>::zeros(exec, Dim2::new(n, 1));
    solver.apply(&b, &mut x).unwrap();
    assert!(
        solver
            .logger()
            .snapshot()
            .stop_reason
            .unwrap()
            .is_converged(),
        "reference solve must converge"
    );
}

/// Flight-recorder thresholds with the timing-based detectors neutralized:
/// these tests assert on *tracing* behaviour, and wall-clock detectors fire
/// spuriously on oversubscribed CI hosts.
fn quiet_detectors() -> DetectorConfig {
    DetectorConfig {
        drift_min_solves: u64::MAX,
        imbalance_ratio: f64::INFINITY,
    }
}

/// Tracing under `policy`, screened by the quiet detectors.
fn traced(policy: TraceConfig) -> ObserveConfig {
    ObserveConfig {
        flight: Some(quiet_detectors()),
        trace: Some(policy),
        ..ObserveConfig::default()
    }
}

/// The default trace policy at 1-in-`sample_n` head sampling.
fn sampled(sample_n: u64) -> TraceConfig {
    TraceConfig {
        sample_n,
        ..TraceConfig::default()
    }
}

/// Structural validation of a span tree: unique ids, exactly one root (the
/// report's `root`), every parent resolvable, and for every dispatch span
/// the chunk spans parented under it exactly tile `0..chunk_count`.
fn assert_rooted_tree(report: &TraceReport, lanes: usize) {
    let mut ids = BTreeSet::new();
    for s in &report.spans {
        assert!(ids.insert(s.id), "duplicate span id {} in {report:?}", s.id);
    }
    let roots: Vec<_> = report.spans.iter().filter(|s| s.parent == 0).collect();
    assert_eq!(roots.len(), 1, "exactly one root span: {report:?}");
    assert_eq!(roots[0].id, report.root);
    assert_eq!(roots[0].kind, SpanKind::Solve);
    for s in &report.spans {
        if s.parent != 0 {
            assert!(
                ids.contains(&s.parent),
                "span {} has dangling parent {}",
                s.id,
                s.parent
            );
        }
        match s.kind {
            SpanKind::Chunk => {
                assert!(
                    (s.lane as usize) < lanes,
                    "chunk lane {} out of range",
                    s.lane
                );
            }
            _ => assert_eq!(s.lane, OWNER_LANE, "owner-thread span has a lane"),
        }
    }
    // Per-dispatch tiling: a dispatch span's `index` is its chunk count, and
    // the chunk spans parented under it must carry exactly the indices
    // 0..count, each once.
    let dispatches: Vec<_> = report
        .spans
        .iter()
        .filter(|s| s.kind == SpanKind::Dispatch)
        .collect();
    assert!(
        !dispatches.is_empty(),
        "pooled solve produced no dispatch spans"
    );
    for d in &dispatches {
        let mut chunk_indices: Vec<u64> = report
            .spans
            .iter()
            .filter(|s| s.kind == SpanKind::Chunk && s.parent == d.id)
            .map(|s| s.index)
            .collect();
        chunk_indices.sort_unstable();
        let expected: Vec<u64> = (0..d.index).collect();
        assert_eq!(
            chunk_indices, expected,
            "chunk spans must tile dispatch {} exactly",
            d.id
        );
    }
}

/// Tentpole acceptance: an armed CG solve on omp-16 yields a single rooted
/// span tree with solve, iteration, kernel, and dispatch layers, whose
/// per-lane chunk spans exactly tile every pool dispatch.
#[test]
fn armed_cg_solve_yields_one_rooted_tree_with_tiled_chunks() {
    let exec = Executor::omp(16);
    exec.observe(traced(sampled(1)));
    let a = Arc::new(poisson_csr(&exec, 2048));
    solve_cg(&exec, &a);

    let report = exec
        .observer()
        .latest_trace()
        .expect("sample_n=1 retains the solve");
    assert_eq!(report.run.solver, "solver::Cg");
    assert!(report.run.converged, "{report:?}");
    assert_eq!(report.run.stop_reason, Some(StopReason::ResidualReduction));
    assert!(report.run.iterations > 0);
    assert_eq!(report.retained, "sampled");
    assert_eq!(report.truncated_spans, 0);
    assert!(report.duration_ns > 0);
    assert_rooted_tree(&report, 16);

    // All four owner-thread layers are present.
    for kind in [
        SpanKind::Solve,
        SpanKind::Iteration,
        SpanKind::Kernel,
        SpanKind::Dispatch,
    ] {
        assert!(
            report.spans.iter().any(|s| s.kind == kind),
            "missing {kind:?} layer: {report:?}"
        );
    }
    // Iteration spans are numbered and parent under the root.
    let iters: Vec<_> = report
        .spans
        .iter()
        .filter(|s| s.kind == SpanKind::Iteration)
        .collect();
    assert_eq!(iters.len(), report.run.iterations);
    for it in &iters {
        assert_eq!(it.parent, report.root);
        assert!(it.index >= 1 && it.index <= report.run.iterations as u64);
    }
    // The flight report links back to this trace, and the trace holds it.
    let flight = exec.observer().latest_run().unwrap();
    assert_eq!(flight.trace_id, Some(report.id()));
    assert_eq!(flight, report.run);

    // The JSON and Chrome-trace exports are well-formed.
    let doc =
        gko::config::Config::from_json(&gko::config::json::to_string_pretty(&report.to_config()))
            .expect("trace JSON round-trips");
    assert_eq!(
        doc.get("spans").and_then(|s| s.as_array()).unwrap().len(),
        report.spans.len()
    );
    let chrome = report.to_chrome_trace();
    let chrome_doc = gko::config::Config::from_json(&chrome).expect("chrome trace is JSON");
    assert!(chrome_doc
        .get("traceEvents")
        .and_then(|e| e.as_array())
        .is_some_and(|e| !e.is_empty()));
}

/// Healthy solves head-sample 1-in-N: with `sample_n = 4`, eight healthy
/// solves retain exactly solves 1 and 5 and count six drops.
#[test]
fn healthy_solves_sample_one_in_n() {
    let exec = Executor::omp(4);
    exec.observe(traced(sampled(4)));
    let a = Arc::new(poisson_csr(&exec, 512));
    for _ in 0..8 {
        solve_cg(&exec, &a);
    }
    let reports = exec.observer().traces();
    assert_eq!(reports.len(), 2, "1-in-4 of 8 solves: {reports:?}");
    assert_eq!(exec.observer().status().trace_drops, 6);
    assert_eq!(
        reports.iter().map(|r| r.id()).collect::<Vec<_>>(),
        vec![1, 5]
    );
    for r in &reports {
        assert_eq!(r.retained, "sampled");
        assert!(r.run.anomalies.is_empty());
    }
}

/// A run links only to a trace that exists: of eight healthy solves sampled
/// 1-in-4, exactly the two kept runs carry a `trace_id` (their own number),
/// and each resolves to the trace holding that run.
#[test]
fn sampled_out_runs_link_to_no_trace() {
    let exec = Executor::omp(4);
    exec.observe(traced(sampled(4)));
    let a = Arc::new(poisson_csr(&exec, 512));
    for _ in 0..8 {
        solve_cg(&exec, &a);
    }
    let runs = exec.observer().runs();
    assert_eq!(runs.len(), 8);
    let linked: Vec<u64> = runs.iter().filter_map(|r| r.trace_id).collect();
    assert_eq!(linked, vec![1, 5], "only the kept runs link");
    for run in runs.iter().filter(|r| r.trace_id.is_some()) {
        assert_eq!(run.trace_id, Some(run.seq));
        let trace = exec.observer().trace(run.seq).expect("the link resolves");
        assert_eq!(&trace.run, run);
    }
}

/// One number per solve, whatever happens to the config in between: two
/// solves, a re-arm with other detector thresholds, two more solves. Every
/// run's number is its trace's id, the numbers strictly increase, and none
/// repeats.
#[test]
fn one_id_survives_a_re_arm() {
    let exec = Executor::omp(2);
    exec.observe(traced(sampled(1)));
    let a = Arc::new(poisson_csr(&exec, 128));
    solve_cg(&exec, &a);
    solve_cg(&exec, &a);
    exec.observe(ObserveConfig {
        flight: Some(DetectorConfig {
            imbalance_ratio: 1e9,
            ..quiet_detectors()
        }),
        ..exec.observing()
    });
    solve_cg(&exec, &a);
    solve_cg(&exec, &a);

    let runs = exec.observer().runs();
    let seqs: Vec<u64> = runs.iter().map(|r| r.seq).collect();
    assert_eq!(
        seqs,
        vec![1, 2, 3, 4],
        "the re-arm kept the ring and the count"
    );
    for run in &runs {
        assert_eq!(run.trace_id, Some(run.seq));
        assert_eq!(exec.observer().trace(run.seq).expect("kept").run, *run);
    }
    let ids: Vec<u64> = exec.observer().traces().iter().map(|t| t.id()).collect();
    assert_eq!(ids, seqs, "one id per solve, strictly increasing");
}

/// Anomalous solves are always retained, regardless of the head sample: a
/// stagnating Richardson solve lands in the store with `retained =
/// "anomaly"` even though its ordinal is sampled out.
#[test]
fn anomalous_solves_are_always_retained() {
    let exec = Executor::reference();
    // No `flight` given: tracing arms the flight plane with default detectors.
    exec.observe(ObserveConfig {
        trace: Some(sampled(1_000_000)),
        ..ObserveConfig::default()
    });
    // Solve 1 is the head-kept ordinal; it is healthy and retained as
    // "sampled", so the stagnating solve below is *not* head-kept.
    let a = Arc::new(poisson_csr(&exec, 64));
    solve_cg(&exec, &a);

    let indefinite = Csr::<f64, i32>::from_triplets(
        &exec,
        Dim2::square(2),
        &[(0, 0, 2.0), (0, 1, 3.0), (1, 0, 3.0), (1, 1, 2.0)],
    )
    .unwrap();
    let jacobi = Arc::new(Jacobi::new(&indefinite).unwrap());
    let solver = Ir::new(Arc::new(indefinite))
        .unwrap()
        .with_solver(jacobi)
        .unwrap()
        .with_criteria(Criteria::iterations(12));
    let b = Dense::<f64>::filled(&exec, Dim2::new(2, 1), 1.0);
    let mut x = Dense::<f64>::zeros(&exec, Dim2::new(2, 1));
    solver.apply(&b, &mut x).unwrap();

    let report = exec
        .observer()
        .latest_trace()
        .expect("anomalous solve retained");
    assert_eq!(report.id(), 2, "the stagnating solve is ordinal 2");
    assert_eq!(report.retained, "anomaly");
    assert_eq!(report.run.solver, "solver::Ir");
    assert!(!report.run.converged);
    let labels: Vec<&str> = report.run.anomalies.iter().map(|a| a.kind()).collect();
    assert_eq!(labels, ["stagnation"]);
    assert_eq!(report.run.stop_reason, Some(StopReason::MaxIterations));
    // One end-of-solve fold: the run carries this trace id and the trace
    // holds the run.
    let flight = exec.observer().latest_run().unwrap();
    assert_eq!(flight.trace_id, Some(report.id()));
    assert_eq!(flight, report.run);
    assert_eq!(
        exec.observer().status().trace_drops,
        0,
        "anomalies never count as drops"
    );
}

/// Solves slower than the latency threshold are always retained, even when
/// their ordinal is sampled out. Each synthetic solve stays open just past
/// [`LATENCY_THRESHOLD_NS`] on the wall clock.
#[test]
fn slow_solves_are_retained_by_latency_threshold() {
    let observer = Observer::detached(traced(sampled(1_000_000)));
    for _ in 0..2 {
        observer.on_event(&Event::LinOpApplyStarted { op: "solver::Cg" });
        std::thread::sleep(std::time::Duration::from_nanos(LATENCY_THRESHOLD_NS));
        observer.on_event(&Event::SolveCompleted {
            solver: "solver::Cg",
            iterations: 1,
            residual: 1e-12,
            reason: StopReason::ResidualReduction,
        });
        observer.on_event(&Event::LinOpApplyCompleted {
            op: "solver::Cg",
            wall_ns: LATENCY_THRESHOLD_NS,
            virtual_ns: 0,
        });
    }
    let reports = observer.traces();
    assert_eq!(reports.len(), 2);
    // Solve 1 is head-kept anyway, but the anomaly/latency verdict takes
    // precedence over the head sample; solve 2 survives only via latency.
    assert!(
        reports.iter().all(|r| r.retained == "latency"),
        "{reports:?}"
    );
    assert_eq!(observer.status().trace_drops, 0);
}

/// A root solver that reports no outcome (a direct solve emits no
/// `SolveCompleted`) still closes into one run, and its trace holds it.
#[test]
fn direct_solve_closes_into_one_run_and_its_trace() {
    let exec = Executor::reference();
    exec.observe(traced(sampled(1)));
    let solver = gko::solver::Direct::new(&poisson_csr(&exec, 32)).unwrap();
    let b = Dense::<f64>::filled(&exec, Dim2::new(32, 1), 1.0);
    let mut x = Dense::<f64>::zeros(&exec, Dim2::new(32, 1));
    solver.apply(&b, &mut x).unwrap();
    let runs = exec.observer().runs();
    assert_eq!(runs.len(), 1);
    assert_eq!(runs[0].solver, "solver::Direct");
    assert_eq!((runs[0].stop_reason, runs[0].iterations), (None, 0));
    assert_eq!(exec.observer().trace(runs[0].seq).unwrap().run, runs[0]);
}

/// Inert-path regression: an untraced executor assembles nothing, and
/// disabling tracing stops assembly while keeping retained traces readable.
#[test]
fn disarmed_tracer_observes_nothing() {
    let exec = Executor::omp(2);
    let a = Arc::new(poisson_csr(&exec, 256));
    let observer = exec.observer();
    assert!(exec.observing().trace.is_none());
    solve_cg(&exec, &a);
    assert_eq!(observer.traces().len(), 0);
    assert_eq!(observer.status().trace_drops, 0);
    assert!(observer.active_trace_id().is_none());

    exec.observe(traced(sampled(1)));
    solve_cg(&exec, &a);
    assert_eq!(observer.traces().len(), 1);

    // Dropping `trace` from the config disarms it; the flight plane stays.
    exec.observe(ObserveConfig {
        trace: None,
        ..exec.observing()
    });
    assert!(exec.observing().trace.is_none());
    assert!(exec.observing().flight.is_some());
    solve_cg(&exec, &a);
    assert_eq!(observer.runs().len(), 2, "the flight plane kept recording");
    assert_eq!(
        observer.traces().len(),
        1,
        "disarmed solves must not be traced"
    );
    assert!(observer.latest_trace().is_some(), "ring stays readable");
}

/// Batched solves trace too: one root per `apply_batch`, no synthesized
/// iteration layer (batched solvers emit no per-iteration events), and a
/// batch-outcome stop reason.
#[test]
fn batched_solve_produces_rooted_trace_without_iteration_layer() {
    let exec = Executor::omp(4);
    exec.observe(traced(sampled(1)));
    let single = poisson_csr(&exec, 96);
    let batch = Arc::new(BatchCsr::replicated(&single, 5).unwrap());
    let mut b = BatchDense::<f64>::zeros(&exec, 5, Dim2::new(96, 1));
    b.fill(1.0);
    let mut x = BatchDense::<f64>::zeros(&exec, 5, Dim2::new(96, 1));
    let record = BatchCg::new(batch)
        .unwrap()
        .with_criteria(Criteria::iterations_and_reduction(400, 1e-10))
        .apply_batch(&b, &mut x)
        .unwrap();
    assert!(record.all_converged(), "{record:?}");

    let report = exec
        .observer()
        .latest_trace()
        .expect("batched solve retained");
    assert_eq!(report.run.solver, "solver::BatchCg");
    assert!(report.run.converged);
    assert_eq!(
        report.run.batch,
        Some(BatchOutcome {
            systems: 5,
            converged: 5,
            breakdowns: 0
        })
    );
    assert!(
        report.spans.iter().all(|s| s.kind != SpanKind::Iteration),
        "batched solves have no iteration layer: {report:?}"
    );
    assert_rooted_tree(&report, 4);
}

/// `profile` alone arms the whole chain it feeds on: the trace plane
/// (default policy) and, through it, the flight plane (default detectors).
#[test]
fn profile_only_config_arms_tracer_and_flight_recorder() {
    let exec = Executor::reference();
    exec.observe(ObserveConfig {
        profile: true,
        ..ObserveConfig::default()
    });
    let now = exec.observing();
    assert!(now.profile);
    assert!(
        !now.metrics && exec.observer().metrics().is_none(),
        "metrics was not asked for"
    );
    assert_eq!(
        now.trace.map(|t| t.sample_n),
        Some(TraceConfig::default().sample_n)
    );
    assert_eq!(now.flight, Some(DetectorConfig::default()));

    let a = Arc::new(poisson_csr(&exec, 64));
    solve_cg(&exec, &a);
    assert_eq!(exec.observer().profile().solves, 1, "the solve was folded");
    assert_eq!(exec.observer().runs().len(), 1, "and recorded");
}

/// Two threads keep re-targeting `observe` (metrics on/off against
/// trace+profile on/off, the flight plane wanted throughout) while CG solves
/// run on a 16-lane pool. Nothing may deadlock, the flight ring must survive
/// every flip with one report per solve in its `/runs` document, and
/// switching everything off afterwards must leave no logger behind.
#[test]
fn concurrent_observe_flips_keep_every_solve_in_runs() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Barrier;

    const SOLVES: usize = 12;
    let exec = Executor::omp(16);
    let base = ObserveConfig {
        flight: Some(quiet_detectors()),
        ..ObserveConfig::default()
    };
    exec.observe(base.clone());
    let a = Arc::new(poisson_csr(&exec, 1024));
    let stop = AtomicBool::new(false);
    let start = Barrier::new(3);
    let flips = std::thread::scope(|scope| {
        let flipper = |on: ObserveConfig| {
            let (exec, base, stop, start) = (&exec, &base, &stop, &start);
            scope.spawn(move || {
                start.wait();
                let mut flips = 0u64;
                while !stop.load(Ordering::Acquire) {
                    exec.observe(on.clone());
                    exec.observe(base.clone());
                    flips += 1;
                }
                flips
            })
        };
        let metrics = flipper(ObserveConfig {
            metrics: true,
            ..base.clone()
        });
        let spans = flipper(ObserveConfig {
            trace: Some(sampled(1)),
            profile: true,
            ..base.clone()
        });
        start.wait();
        for _ in 0..SOLVES {
            solve_cg(&exec, &a);
        }
        stop.store(true, Ordering::Release);
        metrics.join().unwrap() + spans.join().unwrap()
    });
    assert!(flips > 0);

    assert!(
        exec.observing().flight.is_some(),
        "flight plane wanted throughout"
    );
    let runs = gko::config::Config::from_json(&exec.observer().runs_json(64)).unwrap();
    assert_eq!(
        runs.get("total").and_then(|t| t.as_int()),
        Some(SOLVES as i64),
        "every solve reported once: {runs:?}"
    );
    exec.observe(ObserveConfig::default());
    assert!(
        !exec.loggers().is_active(),
        "a flip that lost a race must not leave its logger attached"
    );
}

/// Arming the four planes one by one in every order, then disarming them in
/// every order, keeps exactly one logger attached while any plane is on and
/// none once the last one is off: the registry ends where it started. A
/// plane another still needs (`flight` under `trace`, `trace` under
/// `profile`) stays on until its dependant goes.
#[test]
fn every_arm_and_disarm_order_returns_to_inert() {
    const PLANES: [&str; 4] = ["metrics", "flight", "trace", "profile"];
    fn set(config: &mut ObserveConfig, plane: &str, on: bool) {
        match plane {
            "metrics" => config.metrics = on,
            "flight" => config.flight = on.then(quiet_detectors),
            "trace" => config.trace = on.then(|| sampled(1)),
            _ => config.profile = on,
        }
    }
    /// All 24 orders of the four planes: the base-4 codes whose digits are
    /// a permutation.
    fn orders() -> Vec<[&'static str; 4]> {
        (0..256usize)
            .map(|code| [code & 3, (code >> 2) & 3, (code >> 4) & 3, code >> 6])
            .filter(|digits| (0..4).all(|plane| digits.contains(&plane)))
            .map(|digits| digits.map(|plane| PLANES[plane]))
            .collect()
    }
    assert_eq!(orders().len(), 24);

    let exec = Executor::omp(2);
    let a = Arc::new(poisson_csr(&exec, 64));
    let start = exec.loggers().len();
    assert_eq!(start, 0);
    for arm in orders() {
        for disarm in orders() {
            let mut wanted = ObserveConfig::default();
            for (step, plane) in arm.iter().enumerate() {
                set(&mut wanted, plane, true);
                exec.observe(wanted.clone());
                assert_eq!(
                    exec.loggers().len(),
                    start + 1,
                    "arming {arm:?}, step {step}"
                );
            }
            let armed = exec.observing();
            assert!(armed.metrics && armed.flight.is_some());
            assert!(armed.trace.is_some() && armed.profile);
            for (step, plane) in disarm.iter().enumerate() {
                // `wanted` carries only what was asked for; the config in
                // force adds what the remaining planes imply.
                set(&mut wanted, plane, false);
                exec.observe(wanted.clone());
                let now = exec.observing();
                assert_eq!(now.profile, wanted.profile);
                assert_eq!(now.trace.is_some(), wanted.trace.is_some() || now.profile);
                assert_eq!(
                    now.flight.is_some(),
                    wanted.flight.is_some() || now.trace.is_some()
                );
                let attached = usize::from(now.metrics || now.flight.is_some());
                assert_eq!(
                    exec.loggers().len(),
                    start + attached,
                    "arming {arm:?}, disarming {disarm:?}, step {step}"
                );
            }
            assert!(
                !exec.loggers().is_active(),
                "{arm:?} / {disarm:?} left a logger behind"
            );
        }
        // The planes still work after all that flipping.
        exec.observe(traced(sampled(1)));
        solve_cg(&exec, &a);
        assert!(exec.observer().latest_trace().is_some());
        exec.observe(ObserveConfig::default());
    }
    assert_eq!(exec.loggers().len(), start);
    assert!(!exec.loggers().is_active());
}
