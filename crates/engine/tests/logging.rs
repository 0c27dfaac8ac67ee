//! End-to-end event-logging acceptance: a CG solve with a `Record` logger
//! attached to the executor — and its metrics registry and continuous
//! profiler observing — yields a per-iteration event stream and a per-kernel
//! time breakdown that accounts for the whole solve.

use gko::linop::LinOp;
use gko::log::{Event, Record, SharedBuf, Stream};
use gko::matrix::Dense;
use gko::solver::Cg;
use gko::stop::{Criteria, StopReason};
use gko::{Executor, ObserveConfig};
use std::sync::Arc;

mod common;
use common::poisson;

#[test]
fn cg_solve_emits_event_stream_and_kernel_breakdown() {
    let exec = Executor::omp(4);
    let a = poisson(&exec, 20);
    let n = a.size().rows;
    let b = Dense::<f64>::vector(&exec, n, 1.0);
    let mut x = Dense::<f64>::vector(&exec, n, 0.0);

    // Attach after constructing operands so every observed kernel belongs
    // to the solve.
    let record = Arc::new(Record::with_capacity(1 << 17));
    exec.add_logger(record.clone());
    exec.observe(ObserveConfig {
        metrics: true,
        profile: true,
        ..ObserveConfig::default()
    });
    assert_eq!(
        exec.loggers().len(),
        2,
        "record + the one observer behind metrics and everything profiling implies"
    );

    let solver = Cg::new(a as Arc<dyn LinOp<f64>>)
        .unwrap()
        .with_criteria(Criteria::iterations_and_reduction(500, 1e-9));
    solver.apply(&b, &mut x).unwrap();
    let snap = exec.observer().metrics().expect("metrics plane on");
    exec.clear_loggers();

    let rec = solver.logger().snapshot();
    assert!(rec.converged());
    let iters = rec.iterations;
    assert!(iters > 10, "poisson(20) CG needs a real iteration count");

    let events = record.events();
    assert_eq!(record.dropped(), 0, "capacity must cover the whole solve");

    // Per-iteration stream: IterationComplete 1..=iters, in order.
    let iterations: Vec<usize> = events
        .iter()
        .filter_map(|e| match e {
            Event::IterationComplete {
                solver, iteration, ..
            } => {
                assert_eq!(*solver, "solver::Cg");
                Some(*iteration)
            }
            _ => None,
        })
        .collect();
    assert_eq!(iterations, (1..=iters).collect::<Vec<_>>());

    // One criterion check before the loop plus one per iteration.
    let checks = events
        .iter()
        .filter(|e| matches!(e, Event::CriterionChecked { .. }))
        .count();
    assert_eq!(checks, iters + 1);

    // Exactly one completion event, consistent with the logger snapshot.
    let completions: Vec<&Event> = events
        .iter()
        .filter(|e| matches!(e, Event::SolveCompleted { .. }))
        .collect();
    assert_eq!(completions.len(), 1);
    match completions[0] {
        Event::SolveCompleted {
            solver,
            iterations,
            reason,
            ..
        } => {
            assert_eq!(*solver, "solver::Cg");
            assert_eq!(*iterations, iters);
            assert_eq!(*reason, StopReason::ResidualReduction);
        }
        _ => unreachable!(),
    }

    // Kernel events arrive as balanced started/completed pairs, and the
    // omp pool reports its dispatches.
    let started = events
        .iter()
        .filter(|e| matches!(e, Event::LinOpApplyStarted { .. }))
        .count();
    let completed = events
        .iter()
        .filter(|e| matches!(e, Event::LinOpApplyCompleted { .. }))
        .count();
    assert_eq!(started, completed);
    assert!(
        started > 3 * iters,
        "p update, spmv, p.q and the fused x/r update each iteration"
    );
    assert!(
        events
            .iter()
            .any(|e| matches!(e, Event::PoolDispatch { chunks, .. } if *chunks > 0)),
        "omp executor must report pool dispatches"
    );
    assert!(events
        .iter()
        .any(|e| matches!(e, Event::AllocationComplete { .. })));

    // The metrics plane folded the same stream into per-kernel aggregates.
    assert_eq!(snap.solves, 1);
    assert_eq!(
        snap.solver_iterations,
        vec![("solver::Cg".to_string(), iters as u64)]
    );
    assert_eq!(snap.criterion_checks as usize, iters + 1);
    assert!(snap.pool_dispatch_ns.count > 0);
    assert_eq!(snap.pool_dispatch_ns.count, exec.pool_stats().dispatches);
    assert!(snap.alloc_bytes.count > 0);
    // An unpreconditioned CG iteration is four kernels: `p = r + beta p`,
    // the SpMV, `p.q`, and the fused `x += alpha p; r -= alpha q; r.r`.
    for (kernel, calls) in [
        ("solver::Cg", 1),
        ("csr", iters + 1),        // one SpMV per iteration + r0
        ("dense::dot", iters + 2), // p.q per iteration + the baseline norm + the first r.r
        ("dense::scale_add", iters - 1),
        ("dense::axpy", iters), // the fused update keeps the AXPY family name
    ] {
        let seen = snap
            .kernel(kernel)
            .unwrap_or_else(|| panic!("missing {kernel} in {snap:?}"));
        assert_eq!(seen.calls as usize, calls, "{kernel}");
    }
    let spmv = snap.kernel("csr").unwrap();
    let solve = snap.kernel("solver::Cg").unwrap();
    assert_eq!(solve.calls, 1);
    assert!(
        solve.virtual_ns.sum >= spmv.virtual_ns.sum,
        "the solve frame is inclusive"
    );

    // The profiler's self times decompose the solve exactly: owner-thread
    // spans nest sequentially, so self times summed over the flame tree —
    // each pool dispatch counted whole, its chunks run concurrently — give
    // back the root's wall time.
    let flame = exec.observer().profile();
    assert_eq!(flame.solves, 1);
    assert_eq!(flame.evicted_nodes, 0);
    let root = flame
        .find("solver::Cg")
        .expect("flame tree rooted at the solve");
    assert!(root.wall_ns > 0);
    let covered: u64 = flame
        .nodes
        .iter()
        .map(|n| match n.kind.as_str() {
            "pool_dispatch" => n.wall_ns,
            "chunk" => 0,
            _ => n.self_wall_ns,
        })
        .sum();
    assert_eq!(
        covered, root.wall_ns,
        "self times must account for the solve"
    );
}

/// Loggers attached to the *solver* see iteration-level events only; kernel
/// and allocation events flow to the executor registry.
#[test]
fn solver_attached_logger_sees_iteration_events_only() {
    let exec = Executor::reference();
    let a = poisson(&exec, 8);
    let n = a.size().rows;
    let record = Arc::new(Record::new());
    let solver = Cg::new(a as Arc<dyn LinOp<f64>>)
        .unwrap()
        .with_criteria(Criteria::iterations_and_reduction(200, 1e-8))
        .with_logger(record.clone());
    let b = Dense::<f64>::vector(&exec, n, 1.0);
    let mut x = Dense::<f64>::vector(&exec, n, 0.0);
    solver.apply(&b, &mut x).unwrap();

    assert_eq!(solver.loggers().len(), 1);
    let events = record.events();
    assert!(events
        .iter()
        .any(|e| matches!(e, Event::IterationComplete { .. })));
    assert!(events
        .iter()
        .any(|e| matches!(e, Event::SolveCompleted { .. })));
    assert!(
        !events
            .iter()
            .any(|e| matches!(e, Event::LinOpApplyStarted { .. })),
        "kernel events belong to the executor registry, not the solver's"
    );
}

/// The `Stream` logger renders a line per event into any writer.
#[test]
fn stream_logger_renders_solve_as_text() {
    let exec = Executor::reference();
    let a = poisson(&exec, 6);
    let n = a.size().rows;
    let buf = SharedBuf::new();
    exec.add_logger(Arc::new(Stream::new(buf.clone())));
    let solver = Cg::new(a as Arc<dyn LinOp<f64>>)
        .unwrap()
        .with_criteria(Criteria::iterations_and_reduction(200, 1e-8));
    let b = Dense::<f64>::vector(&exec, n, 1.0);
    let mut x = Dense::<f64>::vector(&exec, n, 0.0);
    solver.apply(&b, &mut x).unwrap();
    exec.clear_loggers();

    let text = buf.contents();
    assert!(text.lines().count() > 10, "one line per event: {text}");
    assert!(text.contains("[gko] solver::Cg iteration"));
    assert!(text.contains("solve completed"));
    assert!(text.contains("[gko] apply csr completed"));
}

/// `clear_loggers` detaches: subsequent work emits nothing.
#[test]
fn cleared_registry_stops_observing() {
    let exec = Executor::reference();
    let record = Arc::new(Record::new());
    exec.add_logger(record.clone());
    let mut v = Dense::<f64>::vector(&exec, 16, 1.0);
    v.scale(2.0);
    let before = record.len();
    assert!(before > 0);
    exec.clear_loggers();
    assert!(exec.loggers().is_empty());
    v.scale(3.0);
    assert_eq!(record.len(), before);
}
