//! The untraced run: set-up (several times), measured rounds, end-to-end
//! metrics.
//!
//! Closed loop, one client: the harness thread. A run measures the named
//! workload's cells at their defined sizes and, beside them, the other three
//! workloads' cells on inputs of a few thousand rows (the *companions*), so
//! every end-to-end metric has a value on every workload. Rounds go
//! round-robin over all cells, so every cell's samples span the whole run.

use crate::cells::{self, Cell, Exec, Outcome};
use crate::inputs::{Inputs, Scale, Workload};
use crate::oracle;
use crate::report::{Metric, Report};
use crate::span::Tracer;
use crate::stats;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Rounds every run makes however slow the host, so that a minimum is over at
/// least this many samples per operation.
const MIN_ROUNDS: usize = 6;

/// Laps over the companion cells per lap over the home cells.
const COMPANION_LAPS: usize = 3;

/// Command-line settings of a run.
#[derive(Clone, Copy, Debug)]
pub struct Options {
    /// Workload to run.
    pub workload: Workload,
    /// Seed of every seeded input.
    pub seed: u64,
    /// Seconds the measured rounds last.
    pub seconds: f64,
    /// Tiny inputs, one round: the schema test's mode.
    pub quick: bool,
}

impl Options {
    /// Size of `group`'s inputs in an untraced run of this workload.
    pub fn scale_of(&self, group: Workload) -> Scale {
        if self.quick {
            Scale::Quick
        } else if group == self.workload {
            Scale::Home
        } else {
            Scale::Companion
        }
    }
}

/// The benchmark's own directory in the checkout it was built in.
pub fn benchmark_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// A scratch directory under `benchmark/tmp/`, removed on drop.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Creates `benchmark/tmp/run_<pid>`.
    pub fn create() -> std::io::Result<ScratchDir> {
        let dir = benchmark_dir()
            .join("tmp")
            .join(format!("run_{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(ScratchDir(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        // Nothing useful can be done about a failed clean-up at exit.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The harness's SpMV references for the two SpMV inputs.
pub fn spmv_references(inputs: &Inputs) -> [Vec<f64>; 2] {
    [0, 1].map(|i| {
        let s = &inputs.spmv[i];
        oracle::spmv(s.n, &s.triplets, &s.vector)
    })
}

/// Everything a cell's operations did: one vector of outcomes per operation.
pub struct Samples(pub Vec<Vec<Outcome>>);

impl Samples {
    /// Empty sample sets for a cell.
    pub fn for_cell(cell: &Cell) -> Samples {
        Samples(vec![Vec::new(); cell.ops()])
    }

    /// Mean over the operations of `stat` of the operation's times, in
    /// seconds. With [`stats::min`] this is the gated statistic.
    pub fn mean_of(&self, stat: fn(&[f64]) -> f64) -> f64 {
        let per_op = self
            .0
            .iter()
            .map(|outcomes| stat(&outcomes.iter().map(|o| o.seconds).collect::<Vec<_>>()));
        stats::mean(&per_op.collect::<Vec<_>>())
    }

    /// The latest outcome of every operation.
    pub fn latest(&self) -> impl Iterator<Item = &Outcome> {
        self.0.iter().filter_map(|outcomes| outcomes.last())
    }
}

/// Runs the cells `pick` selects once each, recording every operation.
pub fn lap(
    cells: &mut [Cell],
    samples: &mut [Samples],
    tr: &mut Tracer,
    report: &mut Report,
    pick: impl Fn(&Cell) -> bool,
) {
    for (cell, samples) in cells.iter_mut().zip(samples) {
        if !pick(cell) {
            continue;
        }
        for op in 0..cell.ops() {
            let outcome = cell.run(op, tr);
            report.count(outcome.ok);
            samples.0[op].push(outcome);
        }
    }
}

/// The untraced run of one workload.
pub fn end_to_end(opts: &Options) -> Result<Report, Box<dyn std::error::Error>> {
    let inputs = Inputs::generate(opts.seed, |g| opts.scale_of(g));
    let spmv_want = spmv_references(&inputs);
    let scratch = ScratchDir::create()?;
    let mut tr = Tracer::off();
    let mut report = Report::default();

    // Set up several times and keep the last: one set-up is a single sample
    // of a number the gate compares.
    let mut setup_s = Vec::new();
    let mut bench = None;
    let (setups, min_rounds, seconds) = if opts.quick {
        (1, 1, 0.0)
    } else {
        (SETUPS, MIN_ROUNDS, opts.seconds)
    };
    for _ in 0..setups {
        drop(bench.take());
        let t0 = Instant::now();
        bench = Some(cells::setup(
            &inputs,
            &spmv_want,
            scratch.path(),
            Exec::Reference,
            &mut tr,
            &mut report,
        )?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut bench = bench.expect("at least one set-up ran");

    let mut samples: Vec<Samples> = bench.cells.iter().map(Samples::for_cell).collect();
    let start = Instant::now();
    let mut rounds = 0;
    while rounds < min_rounds || start.elapsed().as_secs_f64() < seconds {
        // Companions are milliseconds each: a few laps of them per home lap
        // give their minima as many samples as a short home cell gets.
        for _ in 0..COMPANION_LAPS {
            lap(&mut bench.cells, &mut samples, &mut tr, &mut report, |c| {
                c.group != opts.workload
            });
        }
        lap(&mut bench.cells, &mut samples, &mut tr, &mut report, |c| {
            c.group == opts.workload
        });
        rounds += 1;
    }

    println!(
        "workload {}  seed {}  lanes {}  rounds {rounds}  measured {:.2} s  gen {:.2} s",
        opts.workload.name(),
        opts.seed,
        cells::lanes(),
        start.elapsed().as_secs_f64(),
        inputs.gen_s
    );
    println!(
        "{:<30} {:>14} {:<7} {:>14} {:>12} {:>6}  input",
        "metric", "min (gated)", "unit", "p50", "iqr", "n"
    );
    for (cell, s) in bench.cells.iter().zip(&samples) {
        let value = cell.metric_value(s.mean_of(stats::min));
        println!(
            "{:<30} {:>14.6} {:<7} {:>14.6} {:>12.6} {:>6}  {}",
            cell.metric,
            value,
            cell.unit,
            cell.metric_value(s.mean_of(stats::median)),
            cell.metric_value(s.mean_of(stats::iqr)),
            s.0[0].len(),
            if cell.group == opts.workload {
                "home"
            } else {
                "companion"
            },
        );
        report
            .metrics
            .push(Metric::new(cell.metric, value, cell.unit));
    }
    let setup = stats::median(&setup_s);
    let peak = bench.peak_mem_mb();
    println!(
        "{:<30} {setup:>14.6} s       (median of {:?})",
        "setup_s", setup_s
    );
    println!("{:<30} {peak:>14.6} MB", "peak_mem_mb");
    report.metrics.push(Metric::new("setup_s", setup, "s"));
    report.metrics.push(Metric::new("peak_mem_mb", peak, "MB"));
    Ok(report)
}
