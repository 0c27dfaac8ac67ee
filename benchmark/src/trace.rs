//! The traced run: harness-side spans around every call into the library,
//! the per-layer self-time table, and the per-layer metrics.
//!
//! Every group runs at its home size here, whichever workload is named: the
//! per-layer metrics describe the layers, not a workload. The named workload
//! decides which cells get traced rounds and whose spans are written to
//! `results/trace_<workload>.json`. End-to-end metrics never come from this
//! run; the gap between its traced and untraced rounds is
//! `harness.trace_overhead_pct`.

use crate::cells::{self, lanes, Cell, Exec, Outcome};
use crate::inputs::{Inputs, Scale};
use crate::probes::Probes;
use crate::report::{Metric, Report};
use crate::run::{self, Options, Samples, ScratchDir};
use crate::span::{self, LayerTable, Tracer};
use crate::stats;
use std::time::Instant;

type Res<T> = Result<T, Box<dyn std::error::Error>>;

/// `laps` untraced laps over all cells.
fn observe(cells: &mut [Cell], laps: usize, report: &mut Report) -> Vec<Samples> {
    let mut samples: Vec<Samples> = cells.iter().map(Samples::for_cell).collect();
    for _ in 0..laps {
        run::lap(cells, &mut samples, &mut Tracer::off(), report, |_| true);
    }
    samples
}

/// Iterations of a cell's operations in the latest lap, summed.
fn iterations(samples: &Samples) -> f64 {
    samples.latest().map(|o| o.iterations as f64).sum()
}

/// Mean of `f` over a cell's operations in the latest lap.
fn latest_mean(samples: &Samples, f: impl Fn(&Outcome) -> f64) -> f64 {
    stats::mean(&samples.latest().map(f).collect::<Vec<_>>())
}

/// `a / b`, or 0 when there is nothing to divide by (a one-lane host has no
/// pool, so every pool count is 0).
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The aggregate CPU line of `/proc/stat`: `(steal, total)` in ticks.
fn cpu_ticks() -> Option<(f64, f64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<f64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice]
    Some((*fields.get(7)?, fields.iter().take(8).sum()))
}

/// The traced run of one workload.
pub fn per_layer(opts: &Options) -> Res<Report> {
    let ticks = cpu_ticks();
    let scale = if opts.quick {
        Scale::Quick
    } else {
        Scale::Home
    };
    let (min_pairs, laps, reps) = if opts.quick { (1, 1, 1) } else { (3, 3, 5) };
    let inputs = Inputs::generate(opts.seed, |_| scale);
    let spmv_want = run::spmv_references(&inputs);
    let scratch = ScratchDir::create()?;
    let mut report = Report::default();
    let mut metrics = Vec::new();
    let mut push = |name: &str, value: f64, unit: &'static str| {
        metrics.push(Metric::new(name, value, unit));
    };

    // Traced set-up, then untraced and traced rounds of the named workload's
    // cells in turn, so both see the same machine.
    let mut tr = Tracer::on();
    let mut off = Tracer::off();
    let mut bench = cells::setup(
        &inputs,
        &spmv_want,
        scratch.path(),
        Exec::Reference,
        &mut tr,
        &mut report,
    )?;
    let home = |c: &Cell| c.group == opts.workload;
    let mut plain: Vec<Samples> = bench.cells.iter().map(Samples::for_cell).collect();
    let mut traced: Vec<Samples> = bench.cells.iter().map(Samples::for_cell).collect();
    let start = Instant::now();
    let mut pairs = 0;
    while pairs < min_pairs || (!opts.quick && start.elapsed().as_secs_f64() < opts.seconds / 3.0) {
        run::lap(&mut bench.cells, &mut plain, &mut off, &mut report, home);
        tr.scope("workload", |tr| {
            run::lap(&mut bench.cells, &mut traced, tr, &mut report, home)
        });
        pairs += 1;
    }
    let total = |samples: &[Samples]| -> f64 {
        bench
            .cells
            .iter()
            .zip(samples)
            .filter(|(cell, _)| cell.group == opts.workload)
            .map(|(_, s)| s.mean_of(stats::min) * s.0.len() as f64)
            .sum()
    };
    let overhead_pct = 100.0 * (total(&traced) - total(&plain)) / total(&plain);

    let dir = run::benchmark_dir().join("results");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("trace_{}.json", opts.workload.name()));
    std::fs::write(&path, span::to_chrome_trace(tr.spans()))?;
    let whole = LayerTable::build(tr.spans(), None);
    let operations = LayerTable::build(tr.spans(), Some("operation"));
    println!(
        "trace: {} spans, {pairs} traced rounds -> {}",
        tr.spans().len(),
        path.display()
    );
    print!(
        "{}",
        whole.render("self time by layer, set-up and traced rounds")
    );
    print!(
        "{}",
        operations.render("self time by layer, operations only")
    );
    if !(whole.closes() && operations.closes()) {
        return Err("trace does not close: layer self times + unattributed != total".into());
    }

    // Exact counts and per-iteration times from untraced laps over every
    // cell on the reference executor ...
    let on_ref = observe(&mut bench.cells, laps, &mut report);
    let value = |cells: &[Cell], samples: &[Samples], i: usize| {
        cells[i].metric_value(samples[i].mean_of(stats::min))
    };
    let index = |metric: &str| -> usize {
        bench
            .cells
            .iter()
            .position(|c| c.metric == metric)
            .expect("cell of that metric exists")
    };
    let (cg, gmres, bicgstab) = (
        index("cg_solve_s"),
        index("gmres_solve_s"),
        index("bicgstab_solve_s"),
    );
    let storm = index("storm_ref_solve_us");
    let (spd, unsym) = (index("pipeline_spd_s"), index("pipeline_unsym_s"));
    for (tag, i) in [
        ("cg", cg),
        ("gmres", gmres),
        ("bicgstab", bicgstab),
        ("pipeline_spd", spd),
        ("pipeline_unsym", unsym),
    ] {
        push(
            &format!("solver.{tag}.iters"),
            iterations(&on_ref[i]),
            "count",
        );
    }
    push(
        "solver.storm.iters_total",
        iterations(&on_ref[storm]),
        "count",
    );
    for (tag, i) in [("cg", cg), ("gmres", gmres), ("bicgstab", bicgstab)] {
        push(
            &format!("solver.{tag}.ms_per_iter"),
            ratio(
                value(&bench.cells, &on_ref, i) * 1e3,
                iterations(&on_ref[i]),
            ),
            "ms",
        );
    }
    let gil_calls = |o: &Outcome| o.gil_calls as f64;
    push(
        "gil.calls_per_storm_solve",
        latest_mean(&on_ref[storm], gil_calls),
        "count",
    );
    push(
        "gil.calls_per_pipeline",
        (latest_mean(&on_ref[spd], gil_calls) + latest_mean(&on_ref[unsym], gil_calls)) / 2.0,
        "count",
    );
    drop(bench);

    // ... and the same cells on `omp-L`: what the pool adds. These times are
    // dominated by worker wake-ups, which this class of host makes too
    // unsteady to gate (see the README), so they live here.
    let mut omp = cells::setup(
        &inputs,
        &spmv_want,
        scratch.path(),
        Exec::Omp,
        &mut off,
        &mut report,
    )?;
    let on_omp = observe(&mut omp.cells, laps, &mut report);
    for (name, i, unit) in [
        ("omp.cg_solve_s", cg, "s"),
        ("omp.gmres_solve_s", gmres, "s"),
        ("omp.bicgstab_solve_s", bicgstab, "s"),
        ("storm_omp_solve_us", storm, "us"),
        ("omp.pipeline_spd_s", spd, "s"),
        ("omp.pipeline_unsym_s", unsym, "s"),
    ] {
        push(name, value(&omp.cells, &on_omp, i), unit);
    }
    let dispatches = |o: &Outcome| o.pool.dispatches as f64;
    push(
        "pool.dispatches_per_cg_iter",
        ratio(
            latest_mean(&on_omp[cg], dispatches),
            iterations(&on_omp[cg]),
        ),
        "count",
    );
    push(
        "pool.dispatches_per_gmres_iter",
        ratio(
            latest_mean(&on_omp[gmres], dispatches),
            iterations(&on_omp[gmres]),
        ),
        "count",
    );
    push(
        "pool.dispatches_per_storm_solve",
        latest_mean(&on_omp[storm], dispatches),
        "count",
    );
    push(
        "pool.dispatch_share.cg",
        latest_mean(&on_omp[cg], |o| {
            ratio(o.pool.dispatch_ns as f64, o.seconds * 1e9)
        }),
        "ratio",
    );
    let pool = omp.device.executor().pool_stats();
    push(
        "pool.parks_per_dispatch",
        ratio(pool.parks as f64, pool.dispatches as f64),
        "ratio",
    );
    push(
        "pool.steal_ratio",
        ratio(pool.steals as f64, pool.chunks as f64),
        "ratio",
    );
    let busy: Vec<f64> = omp
        .device
        .executor()
        .pool_lane_stats()
        .iter()
        .map(|l| l.busy_ns as f64)
        .collect();
    push(
        "pool.lane_busy_skew",
        ratio(busy.iter().copied().fold(0.0, f64::max), stats::mean(&busy)),
        "ratio",
    );
    drop(omp);

    let mut probes = Probes::new(&inputs, &spmv_want, reps, &mut report);
    probes.all()?;
    let mut probed = probes.metrics;

    push("harness.gen_s", inputs.gen_s, "s");
    push("harness.lanes", lanes() as f64, "count");
    push("harness.trace_overhead_pct", overhead_pct, "%");
    let steal_pct = match (ticks, cpu_ticks()) {
        (Some((s0, t0)), Some((s1, t1))) => 100.0 * ratio(s1 - s0, t1 - t0),
        _ => 0.0,
    };
    push("harness.cpu_steal_pct", steal_pct, "%");
    push(
        "harness.fail_ratio",
        report.failed as f64 / report.attempted as f64,
        "ratio",
    );
    metrics.append(&mut probed);
    report.metrics = metrics;
    Ok(report)
}
