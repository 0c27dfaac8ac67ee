//! `bench --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--quick]`
//! runs one workload; `bench --summarize <raw.jsonl>` is `repeat.sh`'s helper.

use pygko_benchmark::inputs::{Workload, DEFAULT_SEED};
use pygko_benchmark::report::result_line;
use pygko_benchmark::run::{self, Options};
use pygko_benchmark::{repeat, trace};
use std::process::ExitCode;

/// `run_seconds` of `BENCHMARK.json`: what `--seconds` defaults to.
const DEFAULT_SECONDS: f64 = 15.0;

fn usage() -> ExitCode {
    eprintln!(
        "usage: bench --workload <spmv|krylov|storm|cold_pipeline> [--seed N] [--seconds S] \
         [--trace 0|1] [--quick]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = DEFAULT_SECONDS;
    let mut traced = false;
    let mut quick = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().unwrap_or_default();
        match flag.as_str() {
            "--workload" => workload = Workload::parse(&value()),
            "--seed" => match value().parse() {
                Ok(v) => seed = v,
                Err(_) => return usage(),
            },
            "--seconds" => match value().parse::<f64>() {
                Ok(v) if v > 0.0 => seconds = v,
                _ => return usage(),
            },
            "--trace" => match value().as_str() {
                "0" => traced = false,
                "1" => traced = true,
                _ => return usage(),
            },
            "--quick" => quick = true,
            "--summarize" => {
                return match repeat::summarize(&value()) {
                    Ok(true) => ExitCode::SUCCESS,
                    Ok(false) => {
                        eprintln!("a metric's spread over the sets exceeds its bound");
                        ExitCode::from(1)
                    }
                    Err(e) => {
                        eprintln!("summarize: {e}");
                        ExitCode::from(2)
                    }
                };
            }
            _ => return usage(),
        }
    }
    let Some(workload) = workload else {
        return usage();
    };
    let opts = Options {
        workload,
        seed,
        seconds,
        quick,
    };
    let report = if traced {
        trace::per_layer(&opts)
    } else {
        run::end_to_end(&opts)
    };
    match report {
        Ok(report) => {
            println!("{}", result_line(&report));
            // A workload defined with no failing operation must stay so.
            if report.failed == 0 {
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "{} of {} operations failed",
                    report.failed, report.attempted
                );
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("benchmark error: {e}");
            ExitCode::from(1)
        }
    }
}
