//! Wall-clock microbenchmarks of the real SpMV kernels.
//!
//! These measure actual host execution time (unlike the figure harnesses,
//! which report deterministic virtual time) and exist for regression
//! tracking of the kernels themselves. Successor of the former criterion
//! bench of the same scope, as a plain binary so the workspace builds with
//! no external dev-dependencies.
//!
//! `cargo run --release -p pygko-bench --bin micro_spmv`

use gko::linop::LinOp;
use gko::matrix::{BatchCsr, BatchDense, Coo, Csr, Dense, Ell, Sellp, SpmvStrategy};
use gko::{Dim2, Executor, Value};
use pygko_bench::{best_in_turn, fmt, micro_iters, wall_secs, wall_secs_best, Report};
use pygko_matgen::generators::{circuit, poisson2d};

/// COO may cost at most this multiple of CSR on `formats_poisson2d_200`
/// (it moves 20 B/nnz against CSR's 16 and reads 1.06-1.1 as leaf kernels;
/// per-entry bounds checks read 1.25, a per-row allocation 4.9).
const COO_OVER_CSR_LIMIT: f64 = 1.4;

/// `Csr::apply` may cost at most this multiple of [`plain_csr`], its own
/// loop over its own arrays as a free function (1.1 as a leaf kernel; 1.55
/// when every row paid a call and a reload of the closure's captures).
const CSR_OVER_PLAIN_LIMIT: f64 = 1.25;

/// `Csr::apply` on `circuit_50k` may cost at most this multiple of
/// [`plain_csr`] in row order: with the plan's rows grouped by length it
/// reads 0.67-0.74, visiting them in row order ~1.1-1.3.
const CIRCUIT_CSR_OVER_PLAIN_LIMIT: f64 = 0.8;

/// What this host does with the CSR kernel's arithmetic and nothing else: the
/// 4-accumulator row sum over bare slices. The ruler `Csr::apply` is read
/// against, and bit for bit its result.
#[inline(never)]
fn plain_csr(rp: &[i32], ci: &[i32], vals: &[f64], b: &[f64], x: &mut [f64]) {
    for (out, w) in x.iter_mut().zip(rp.windows(2)) {
        let (lo, hi) = (w[0] as usize, w[1] as usize);
        let mut vv = vals[lo..hi].chunks_exact(4);
        let mut cc = ci[lo..hi].chunks_exact(4);
        let mut a = [0.0f64; 4];
        for (v, c) in (&mut vv).zip(&mut cc) {
            for j in 0..4 {
                a[j] += v[j] * b[c[j] as usize];
            }
        }
        let mut tail = 0.0f64;
        for (v, c) in vv.remainder().iter().zip(cc.remainder()) {
            tail += v * b[*c as usize];
        }
        *out = ((a[0] + a[1]) + (a[2] + a[3])) + tail;
    }
}

/// The flat COO loop: one read-modify-write of the output per entry.
#[inline(never)]
fn plain_coo(ri: &[i32], ci: &[i32], vals: &[f64], b: &[f64], x: &mut [f64]) {
    x.fill(0.0);
    for ((r, c), v) in ri.iter().zip(ci).zip(vals) {
        x[*r as usize] += v * b[*c as usize];
    }
}

/// Times `f` (mean over `iters` calls, and the fastest of at least 20) and
/// files the row.
fn time_row(
    report: &mut Report,
    group: &str,
    case: &str,
    nnz: usize,
    iters: usize,
    mut f: impl FnMut(),
) {
    let secs = wall_secs(iters, &mut f);
    let best = wall_secs_best(iters.max(20), &mut f);
    report.row(vec![
        group.into(),
        case.into(),
        nnz.to_string(),
        fmt(secs * 1e6),
        fmt(nnz as f64 / secs / 1e6),
        fmt(best * 1e9 / nnz as f64),
    ]);
}

/// Ratios the run is gated on: each the smallest of [`GATE_BLOCKS`] readings,
/// because a kernel that is structurally slow is slow in every block and a
/// noisy spell on a shared host only in some.
struct Ratios {
    coo_over_csr: f64,
    csr_over_plain: f64,
}

/// Blocks of [`GATE_ROUNDS`] rounds a gated ratio is read over.
const GATE_BLOCKS: usize = 5;
const GATE_ROUNDS: usize = 20;

/// Bit patterns, for asserting that two outputs are the same numbers.
fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|e| e.to_bits()).collect()
}

/// Times every format, the two plain loops and the `k = 3` kernels on one
/// stencil.
fn bench_formats(report: &mut Report) -> Ratios {
    let exec = Executor::reference();
    let gen = poisson2d("p", 200, 200);
    let nnz = gen.nnz();
    let dim = Dim2::new(gen.rows, gen.cols);
    let csr = Csr::<f64, i32>::from_triplets(&exec, dim, &gen.triplets).unwrap();
    let coo = Coo::from_csr(&csr);
    let ell = Ell::from_csr(&csr);
    let sellp = Sellp::from_csr(&csr);
    // Varied, and exact in every partial sum: the plain loops' outputs can be
    // compared bit for bit wherever COO's segments cut a row.
    let bv: Vec<f64> = (0..gen.cols)
        .map(|i| 0.25 + (i % 13) as f64 * 0.125)
        .collect();
    let b = Dense::from_vec(&exec, Dim2::new(gen.cols, 1), bv.clone()).unwrap();
    let mut x = Dense::zeros(&exec, Dim2::new(gen.rows, 1));

    let iters = micro_iters(50);
    let ops: [(&str, &dyn LinOp<f64>); 4] = [
        ("csr", &csr),
        ("coo", &coo),
        ("ell", &ell),
        ("sellp", &sellp),
    ];
    for (name, op) in ops {
        time_row(report, "formats_poisson2d_200", name, nnz, iters, || {
            op.apply(&b, &mut x).unwrap()
        });
    }

    let group = "plain_loop_poisson2d_200";
    let mut plain = vec![0.0f64; gen.rows];
    time_row(report, group, "csr", nnz, iters, || {
        plain_csr(
            csr.row_ptrs(),
            csr.col_idxs(),
            csr.values(),
            &bv,
            &mut plain,
        )
    });
    csr.apply(&b, &mut x).unwrap();
    assert_eq!(
        bits(&plain),
        bits(x.as_slice()),
        "plain_csr is Csr::apply's arithmetic"
    );
    time_row(report, group, "coo", nnz, iters, || {
        plain_coo(
            coo.row_idxs(),
            coo.col_idxs(),
            coo.values(),
            &bv,
            &mut plain,
        )
    });
    coo.apply(&b, &mut x).unwrap();
    assert_eq!(
        bits(&plain),
        bits(x.as_slice()),
        "plain_coo is Coo::apply's arithmetic"
    );

    let b3 = Dense::<f64>::filled(&exec, Dim2::new(gen.cols, 3), 1.0);
    let mut x3 = Dense::zeros(&exec, Dim2::new(gen.rows, 3));
    for (name, op) in &ops[..2] {
        time_row(report, "rhs3_poisson2d_200", name, 3 * nnz, iters, || {
            op.apply(&b3, &mut x3).unwrap()
        });
    }

    let mut x_coo = x.clone();
    let mut ratios = Ratios {
        coo_over_csr: f64::INFINITY,
        csr_over_plain: f64::INFINITY,
    };
    for _ in 0..GATE_BLOCKS {
        let [csr_secs, coo_secs, plain_secs] = best_in_turn(
            GATE_ROUNDS,
            [
                &mut || csr.apply(&b, &mut x).unwrap(),
                &mut || coo.apply(&b, &mut x_coo).unwrap(),
                &mut || {
                    plain_csr(
                        csr.row_ptrs(),
                        csr.col_idxs(),
                        csr.values(),
                        &bv,
                        &mut plain,
                    )
                },
            ],
        );
        ratios.coo_over_csr = ratios.coo_over_csr.min(coo_secs / csr_secs);
        ratios.csr_over_plain = ratios.csr_over_plain.min(csr_secs / plain_secs);
    }
    ratios
}

/// Times the CSR strategies, COO, the plain loop, the plan build and the
/// structure check on one circuit matrix, whose short rows of random length
/// the plan groups by length; returns `circuit_csr_over_plain`.
fn bench_strategies(report: &mut Report) -> f64 {
    let exec = Executor::reference();
    let gen = circuit("c", 50_000, 4, 3, 9);
    let dim = Dim2::new(gen.rows, gen.cols);
    let bv = vec![1.0f64; gen.cols];
    let b = Dense::from_vec(&exec, Dim2::new(gen.cols, 1), bv.clone()).unwrap();
    let mut x = Dense::zeros(&exec, Dim2::new(gen.rows, 1));

    let iters = micro_iters(30);
    let csr = Csr::<f64, i32>::from_triplets(&exec, dim, &gen.triplets).unwrap();
    for (name, strategy) in [
        ("classical", SpmvStrategy::Classical),
        ("load_balance", SpmvStrategy::LoadBalance),
        ("merge_path", SpmvStrategy::MergePath),
    ] {
        let a = csr.clone().with_strategy(strategy);
        time_row(
            report,
            "strategy_circuit_50k",
            name,
            gen.nnz(),
            iters,
            || a.apply(&b, &mut x).unwrap(),
        );
    }
    let coo = Coo::from_csr(&csr);
    time_row(
        report,
        "strategy_circuit_50k",
        "coo",
        gen.nnz(),
        iters,
        || coo.apply(&b, &mut x).unwrap(),
    );
    // Not an SpMV: the inspector `Csr::apply` runs once per matrix, and what
    // every checked constructor and `Trs::new` pay per entry.
    time_row(
        report,
        "strategy_circuit_50k",
        "plan_build",
        gen.nnz(),
        iters,
        || {
            csr.invalidate_plan();
            std::hint::black_box(csr.plan());
        },
    );
    time_row(
        report,
        "structure_circuit_50k",
        "validate",
        gen.nnz(),
        iters,
        || csr.validate().unwrap(),
    );

    let mut plain = vec![0.0f64; gen.rows];
    let plain_loop =
        |plain: &mut [f64]| plain_csr(csr.row_ptrs(), csr.col_idxs(), csr.values(), &bv, plain);
    time_row(
        report,
        "plain_loop_circuit_50k",
        "csr",
        gen.nnz(),
        iters,
        || plain_loop(&mut plain),
    );
    csr.apply(&b, &mut x).unwrap();
    assert_eq!(
        bits(&plain),
        bits(x.as_slice()),
        "plain_csr is Csr::apply's arithmetic"
    );
    let mut ratio = f64::INFINITY;
    for _ in 0..GATE_BLOCKS {
        let [csr_secs, plain_secs] = best_in_turn(
            GATE_ROUNDS,
            [&mut || csr.apply(&b, &mut x).unwrap(), &mut || {
                plain_loop(&mut plain)
            }],
        );
        ratio = ratio.min(csr_secs / plain_secs);
    }
    ratio
}

/// `BatchCsr::apply_batch` over 32 systems of one 40 x 40 stencil (two chunks
/// of 16 whole systems on this executor).
fn bench_batch(report: &mut Report) {
    let exec = Executor::reference();
    let gen = poisson2d("p", 40, 40);
    let systems = 32;
    let dim = Dim2::new(gen.rows, gen.cols);
    let proto = Csr::<f64, i32>::from_triplets(&exec, dim, &gen.triplets).unwrap();
    let batch = BatchCsr::replicated(&proto, systems).unwrap();
    let rhs = vec![vec![1.0f64; gen.cols]; systems];
    let b = BatchDense::from_systems(&exec, Dim2::new(gen.cols, 1), &rhs).unwrap();
    let mut x = BatchDense::zeros(&exec, systems, Dim2::new(gen.rows, 1));
    let iters = micro_iters(50);
    time_row(
        report,
        "batch_csr_poisson2d_40x32",
        "shared",
        systems * gen.nnz(),
        iters,
        || batch.apply_batch(&b, &mut x, None).unwrap(),
    );
}

fn bench_value_types(report: &mut Report) {
    let exec = Executor::reference();
    let gen = poisson2d("p", 150, 150);
    let dim = Dim2::new(gen.rows, gen.cols);
    let iters = micro_iters(50);

    macro_rules! run {
        ($v:ty, $name:expr) => {{
            let a = Csr::<$v, i32>::from_triplets(&exec, dim, &gen.triplets).unwrap();
            let b = Dense::<$v>::filled(&exec, Dim2::new(gen.cols, 1), <$v as Value>::one());
            let mut x = Dense::<$v>::zeros(&exec, Dim2::new(gen.rows, 1));
            time_row(
                report,
                "value_types_poisson2d_150",
                $name,
                gen.nnz(),
                iters,
                || a.apply(&b, &mut x).unwrap(),
            );
        }};
    }
    run!(pygko_half::Half, "half");
    run!(f32, "float");
    run!(f64, "double");
}

fn main() {
    let mut report = Report::new(
        "SpMV wall-clock microbenchmarks",
        &["group", "case", "nnz", "us/op", "Mnnz/s", "best ns/nnz"],
    );
    let Ratios {
        coo_over_csr,
        csr_over_plain,
    } = bench_formats(&mut report);
    let circuit_csr_over_plain = bench_strategies(&mut report);
    bench_batch(&mut report);
    bench_value_types(&mut report);
    report.print();
    let path = report.write_csv("micro_spmv").expect("write csv");
    println!("\nwrote {}", path.display());
    println!(
        "coo_over_csr = {coo_over_csr:.2} (formats_poisson2d_200, limit {COO_OVER_CSR_LIMIT})"
    );
    println!(
        "csr_over_plain = {csr_over_plain:.2} (Csr::apply over its own loop as a free function, \
         limit {CSR_OVER_PLAIN_LIMIT})"
    );
    println!(
        "circuit_csr_over_plain = {circuit_csr_over_plain:.2} (Csr::apply over the same loop in \
         row order on circuit_50k, limit {CIRCUIT_CSR_OVER_PLAIN_LIMIT})"
    );
    if coo_over_csr > COO_OVER_CSR_LIMIT {
        eprintln!(
            "micro_spmv: FAIL — COO SpMV costs {coo_over_csr:.2}x CSR, above {COO_OVER_CSR_LIMIT}"
        );
        std::process::exit(1);
    }
    if csr_over_plain > CSR_OVER_PLAIN_LIMIT {
        eprintln!(
            "micro_spmv: FAIL — Csr::apply costs {csr_over_plain:.2}x its plain loop, above \
             {CSR_OVER_PLAIN_LIMIT}"
        );
        std::process::exit(1);
    }
    if circuit_csr_over_plain > CIRCUIT_CSR_OVER_PLAIN_LIMIT {
        eprintln!(
            "micro_spmv: FAIL — Csr::apply on circuit_50k costs {circuit_csr_over_plain:.2}x \
             its loop in row order, above {CIRCUIT_CSR_OVER_PLAIN_LIMIT}"
        );
        std::process::exit(1);
    }
}
