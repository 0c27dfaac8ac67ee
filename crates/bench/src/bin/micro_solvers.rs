//! Wall-clock microbenchmarks of the solver iterations (real host
//! execution of the real numerics). Plain-binary successor of the former
//! criterion bench.
//!
//! Also four gates. A dot product reads two vectors and writes none, so it
//! may not cost much more than an AXPY of the same length when both stream
//! from memory, nor may two dot products in one sweep when both run in
//! cache; a scalar Jacobi
//! application is one multiply per element over three vectors, so it may
//! cost an AXPY and the third vector's traffic; the two triangular
//! sweeps of an ILU application read the same entries a CSR SpMV over the
//! factors reads, and in level order their rows overlap as the SpMV's do, so
//! they may cost only a little more; and a
//! batched solve of many small systems exists to beat the loop of single
//! solves over them, so it has to. Both sides of each ratio are timed in this
//! process, back to back, so the ratio holds still when the host's speed
//! drifts.
//!
//! `cargo run --release -p pygko-bench --bin micro_solvers`

use gko::factorization::ilu0;
use gko::linop::LinOp;
use gko::log::ConvergenceLogger;
use gko::matrix::{BatchCsr, BatchDense, Csr, Dense};
use gko::preconditioner::{Ic, Ilu, Jacobi};
use gko::solver::{
    BatchBiCgStab, BatchCg, BatchSolveRecord, BiCgStab, Cg, Cgs, Gmres, LowerTrs, UpperTrs,
};
use gko::stop::Criteria;
use gko::{Dim2, Executor};
use pygko_bench::{best_in_turn, fmt, micro_iters, wall_secs, wall_secs_best, Report};
use pygko_matgen::generators::{circuit, poisson2d, spd_tridiag_batch};
use pygko_matgen::GeneratedMatrix;
use std::sync::Arc;

/// `compute_dot` may cost at most this multiple of `add_scaled` per element
/// on the reference executor (a serial `f64` add chain read 2.2; the 8-lane
/// kernel reads about 1.0).
const DOT_OVER_AXPY_LIMIT: f64 = 1.5;

/// In cache, where neither kernel waits on memory, `compute_dot2` (two dot
/// products over two vectors, BiCGStab's `(t·t, t·s)`) may cost at most this
/// multiple of `add_scaled` per element: it reads what an AXPY reads and
/// writes nothing. With the lane kernel's combine tree evaluated inline, LLVM
/// shuffled the accumulators in every block and this read 2.4-2.8; without,
/// 1.0-1.3. (`compute_dot` in cache reads 0.85-1.05 either way and is
/// printed only.)
const IN_CACHE_DOT2_OVER_AXPY_LIMIT: f64 = 1.5;

/// Scalar `Jacobi::apply` may cost at most this multiple of `add_scaled` per
/// element on the reference executor. An indexed loop over a run-time column
/// count read 7; the product sweep reads 1.45-2.0 at this length, where it
/// streams three arrays and a write-allocate to an AXPY's two (in cache the
/// two cost the same).
const JACOBI_OVER_AXPY_LIMIT: f64 = 3.0;

/// The lower plus the upper sweep of ILU(0)'s factors may cost at most this
/// multiple of the reference CSR SpMV over the same entries. In row order
/// each sweep read 1.9 ns per entry, the dependent chain itself, against the
/// SpMV's 0.8 (a leaf kernel, DESIGN.md §25): 2.4, and a divide per row on
/// the chain read 4.6. In level order the core overlaps the independent rows
/// of a level and the two sweeps read 1.2.
const TRS_OVER_CSR_LIMIT: f64 = 1.8;

/// The loop of single solves over 32-row systems must cost at least this
/// multiple of the batched solve of the same systems on the reference
/// executor (measured 2.3-3.4 for CG, 3.0-4.0 for BiCGStab: a 32-row system
/// is little more than its kernels' fixed costs, which the batch pays once).
const BATCH_OVER_LOOP_FLOOR: f64 = 1.5;

/// Vector length of the BLAS-1 rows: a 400 x 400 grid, beyond L2 in pairs.
const BLAS1_N: usize = 160_000;

/// Vector lengths of the in-cache dot and AXPY rows: the GMRES basis vectors
/// of a `storm` system and of `krylov`'s `poisson3d_24`.
const IN_CACHE_N: [usize; 2] = [2_000, 13_824];

/// `n` values of `sin(0.37 i + phase)` as one column.
fn wave(exec: &Executor, n: usize, phase: f64) -> Dense<f64> {
    let values = (0..n).map(|i| (i as f64 * 0.37 + phase).sin()).collect();
    Dense::from_vec(exec, Dim2::new(n, 1), values).unwrap()
}

/// Times `compute_dot`, `compute_dot2` and `add_scaled` in turn on vectors
/// of length `n`, which stay in cache, and returns the best dot and the best
/// `dot2` over the best AXPY.
fn bench_blas1_in_cache(report: &mut Report, n: usize) -> (f64, f64) {
    let exec = Executor::reference();
    let (p, q, mut x) = (
        wave(&exec, n, 0.0),
        wave(&exec, n, 1.0),
        wave(&exec, n, 2.0),
    );
    let [dot, dot2, axpy] = best_in_turn(
        micro_iters(100_000_000 / n),
        [
            &mut || {
                std::hint::black_box(p.compute_dot(&q).unwrap());
            },
            &mut || {
                std::hint::black_box(p.compute_dot2(&q).unwrap());
            },
            &mut || x.add_scaled(1e-9, &p).unwrap(),
        ],
    );
    for (case, secs) in [("dot", dot), ("dot2", dot2), ("axpy", axpy)] {
        report.row(vec![
            format!("blas1_n{n}"),
            case.into(),
            fmt(secs * 1e3),
            fmt(secs * 1e9 / n as f64),
        ]);
    }
    (dot / axpy, dot2 / axpy)
}

/// Times the BLAS-1 kernels of a CG iteration and the Jacobi applications
/// on vectors of the same length, and returns the best repetitions of
/// `compute_dot` and of scalar `Jacobi::apply` over `add_scaled`'s.
fn bench_blas1(report: &mut Report) -> (f64, f64) {
    let exec = Executor::reference();
    let fill = |phase: f64| wave(&exec, BLAS1_N, phase);
    let (p, q, mut x, mut r) = (fill(0.0), fill(1.0), fill(2.0), fill(3.0));
    let iters = micro_iters(200);
    let mut row = |case: &str, secs: f64| {
        report.row(vec![
            format!("blas1_n{BLAS1_N}"),
            case.into(),
            fmt(secs * 1e3),
            fmt(secs * 1e9 / BLAS1_N as f64),
        ]);
        secs
    };
    let dot = row(
        "dot",
        wall_secs_best(iters, || {
            std::hint::black_box(p.compute_dot(&q).unwrap());
        }),
    );
    let axpy = row(
        "axpy",
        wall_secs_best(iters, || x.add_scaled(1e-9, &p).unwrap()),
    );
    row(
        "axpy2_dot",
        wall_secs_best(iters, || {
            std::hint::black_box(
                x.add_scaled_with_residual(1e-9, &p, &mut r, -1e-9, &q)
                    .unwrap(),
            );
        }),
    );
    let grid = poisson2d("p", 400, 400);
    assert_eq!(grid.rows, BLAS1_N);
    let a = Csr::<f64, i32>::from_triplets(&exec, Dim2::square(BLAS1_N), &grid.triplets).unwrap();
    let (scalar, block) = (
        Jacobi::new(&a).unwrap(),
        Jacobi::with_block_size(&a, 4).unwrap(),
    );
    let jacobi = row(
        "jacobi_apply",
        wall_secs_best(iters, || scalar.apply(&p, &mut x).unwrap()),
    );
    row(
        "block_jacobi4_apply",
        wall_secs_best(micro_iters(20), || block.apply(&p, &mut x).unwrap()),
    );
    (dot / axpy, jacobi / axpy)
}

fn setup() -> (Executor, Arc<Csr<f64, i32>>, Dense<f64>) {
    let exec = Executor::reference();
    let gen = poisson2d("p", 60, 60);
    let a = Arc::new(
        Csr::<f64, i32>::from_triplets(&exec, Dim2::new(gen.rows, gen.cols), &gen.triplets)
            .unwrap(),
    );
    let b = Dense::<f64>::vector(&exec, gen.rows, 1.0);
    (exec, a, b)
}

fn bench_krylov_iterations(report: &mut Report) {
    let (exec, a, b) = setup();
    let n = a.size().rows;
    let criteria = Criteria::iterations(20);
    let iters = micro_iters(10);

    let cg_with = |m: Arc<dyn LinOp<f64>>| -> Box<dyn LinOp<f64>> {
        Box::new(
            Cg::new(a.clone() as Arc<dyn LinOp<f64>>)
                .unwrap()
                .with_preconditioner(m)
                .unwrap()
                .with_criteria(criteria),
        )
    };
    let solvers: Vec<(&str, Box<dyn LinOp<f64>>)> = vec![
        (
            "cg_unpreconditioned",
            Box::new(
                Cg::new(a.clone() as Arc<dyn LinOp<f64>>)
                    .unwrap()
                    .with_criteria(criteria),
            ),
        ),
        ("cg_jacobi", cg_with(Arc::new(Jacobi::new(&*a).unwrap()))),
        ("cg_ilu", cg_with(Arc::new(Ilu::new(&*a).unwrap()))),
        ("cg_ic", cg_with(Arc::new(Ic::new(&*a).unwrap()))),
        (
            "cgs",
            Box::new(
                Cgs::new(a.clone() as Arc<dyn LinOp<f64>>)
                    .unwrap()
                    .with_criteria(criteria),
            ),
        ),
        (
            "bicgstab",
            Box::new(
                BiCgStab::new(a.clone() as Arc<dyn LinOp<f64>>)
                    .unwrap()
                    .with_criteria(criteria),
            ),
        ),
        (
            "gmres30",
            Box::new(
                Gmres::new(a.clone() as Arc<dyn LinOp<f64>>)
                    .unwrap()
                    .with_krylov_dim(30)
                    .with_criteria(criteria),
            ),
        ),
    ];
    for (name, solver) in &solvers {
        let secs = wall_secs(iters, || {
            let mut x = Dense::<f64>::zeros(&exec, Dim2::new(n, 1));
            solver.apply(&b, &mut x).unwrap();
        });
        report.row(vec![
            "krylov_20_iterations_poisson2d_60".into(),
            (*name).into(),
            fmt(secs * 1e3),
            "-".into(),
        ]);
    }
}

/// Times the two sweeps of ILU(0)'s factors of `gen`, the whole ILU
/// application and the reference CSR SpMV with `A`, which holds the same
/// entries, in turn, then the generation of both sweeps; returns the sweeps'
/// best repetitions over the SpMV's.
fn bench_triangular(report: &mut Report, gen: &GeneratedMatrix, rounds: usize) -> f64 {
    let exec = Executor::reference();
    let a = Csr::<f64, i32>::from_triplets(&exec, Dim2::new(gen.rows, gen.cols), &gen.triplets)
        .unwrap();
    let n = a.size().rows;
    let (l, u) = ilu0(&a).unwrap();
    let (l, u) = (Arc::new(l), Arc::new(u));
    let lower = LowerTrs::new(l.clone()).unwrap().with_unit_diagonal();
    let upper = UpperTrs::new(u.clone()).unwrap();
    let ilu = Ilu::new(&a).unwrap();
    let b = Dense::<f64>::vector(&exec, n, 1.0);
    let mut x = Dense::<f64>::zeros(&exec, Dim2::new(n, 1));
    let mut y = Dense::<f64>::zeros(&exec, Dim2::new(n, 1));
    let (mut z, mut w) = (x.clone(), x.clone());
    let [lower_secs, upper_secs, ilu_secs, spmv_secs] = best_in_turn(
        micro_iters(rounds),
        [
            &mut || lower.apply(&b, &mut x).unwrap(),
            &mut || upper.apply(&b, &mut y).unwrap(),
            &mut || ilu.apply(&b, &mut z).unwrap(),
            &mut || a.apply(&b, &mut w).unwrap(),
        ],
    );
    let generate_secs = wall_secs_best(micro_iters(rounds / 10).max(3), || {
        std::hint::black_box(LowerTrs::new(l.clone()).unwrap().with_unit_diagonal());
        std::hint::black_box(UpperTrs::new(u.clone()).unwrap());
    });
    // ILU(0) keeps the pattern of `A`: strict `L` plus `U` hold its entries.
    assert_eq!(l.nnz() + u.nnz(), a.nnz());
    let cases = [
        ("lower", lower_secs, l.nnz()),
        ("upper", upper_secs, u.nnz()),
        ("ilu_apply", ilu_secs, a.nnz()),
        ("csr_spmv", spmv_secs, a.nnz()),
        ("generate", generate_secs, a.nnz()),
    ];
    for (case, secs, entries) in cases {
        report.row(vec![
            format!("triangular_{}", gen.name),
            case.into(),
            fmt(secs * 1e3),
            fmt(secs * 1e9 / entries as f64),
        ]);
    }
    (lower_secs + upper_secs) / spmv_secs
}

/// Times one batched solve of `systems` SPD tridiagonal systems of `rows`
/// rows (`spd_tridiag_batch`, one sparsity, per-system diagonals and
/// right-hand sides) against the loop of single solves over the same systems,
/// and returns the loop's best repetition over the batch's. Matrices, solvers
/// and vectors are built before the timed calls, which start from a zero
/// guess; every system must converge, in the same number of iterations on
/// both sides. The rows' last column is per system.
fn bench_batch(
    report: &mut Report,
    on: &str,
    exec: &Executor,
    cg: bool,
    systems: usize,
    rows: usize,
) -> f64 {
    let gen = spd_tridiag_batch("tridiag", rows, systems, 7);
    let criteria = Criteria::iterations_and_reduction(200, 1e-10);
    let (dim, vec_dim) = (Dim2::square(rows), Dim2::new(rows, 1));
    let proto = Csr::<f64, i32>::from_triplets(exec, dim, &gen.prototype.triplets).unwrap();
    let batch = Arc::new(BatchCsr::from_shared(&proto, &gen.system_values).unwrap());
    let b = BatchDense::from_systems(exec, vec_dim, &gen.rhs).unwrap();
    let mut x = BatchDense::<f64>::zeros(exec, systems, vec_dim);
    let batch_cg = BatchCg::new(batch.clone()).unwrap().with_criteria(criteria);
    let batch_bicgstab = BatchBiCgStab::new(batch).unwrap().with_criteria(criteria);
    type Single = (
        Box<dyn LinOp<f64>>,
        ConvergenceLogger,
        Dense<f64>,
        Dense<f64>,
    );
    let mut singles: Vec<Single> = (0..systems)
        .map(|s| {
            let triplets = gen.system_triplets(s);
            let a = Arc::new(Csr::<f64, i32>::from_triplets(exec, dim, &triplets).unwrap());
            let (solver, logger): (Box<dyn LinOp<f64>>, _) = if cg {
                let solver = Cg::new(a).unwrap().with_criteria(criteria);
                let logger = solver.logger().clone();
                (Box::new(solver), logger)
            } else {
                let solver = BiCgStab::new(a).unwrap().with_criteria(criteria);
                let logger = solver.logger().clone();
                (Box::new(solver), logger)
            };
            let b = Dense::from_vec(exec, vec_dim, gen.rhs[s].clone()).unwrap();
            (solver, logger, b, Dense::zeros(exec, vec_dim))
        })
        .collect();

    // On a pool every dispatch of a single solve parks: the loop takes
    // seconds a repetition there.
    let iters = micro_iters(if exec.spec().workers > 1 { 3 } else { 50 });
    let mut record = BatchSolveRecord::default();
    let batch_secs = wall_secs_best(iters, || {
        x.as_mut_slice().fill(0.0);
        let solved = if cg {
            batch_cg.apply_batch(&b, &mut x)
        } else {
            batch_bicgstab.apply_batch(&b, &mut x)
        };
        record = solved.unwrap();
    });
    let loop_secs = wall_secs_best(iters, || {
        for (solver, _, b, x) in &mut singles {
            x.as_mut_slice().fill(0.0);
            solver.apply(b, x).unwrap();
        }
    });
    let method = if cg { "cg" } else { "bicgstab" };
    let group = format!("batch_{method}_{systems}x{rows}");
    for (s, (_, logger, ..)) in singles.iter().enumerate() {
        let (single, batched) = (logger.snapshot(), record.outcomes[s]);
        assert!(
            single.converged() && batched.converged(),
            "{group} on {on}: system {s}"
        );
        assert_eq!(
            batched.iterations, single.iterations,
            "{group} on {on}: system {s}"
        );
    }
    for (case, secs) in [("batch", batch_secs), ("loop", loop_secs)] {
        report.row(vec![
            group.clone(),
            format!("{case}_{on}"),
            fmt(secs * 1e3),
            fmt(secs * 1e9 / systems as f64),
        ]);
    }
    loop_secs / batch_secs
}

fn bench_preconditioner_generation(report: &mut Report) {
    let (_, a, _) = setup();
    let iters = micro_iters(10);
    let secs = wall_secs(iters, || {
        Jacobi::new(&*a).unwrap();
    });
    report.row(vec![
        "preconditioner_generation_poisson2d_60".into(),
        "jacobi".into(),
        fmt(secs * 1e3),
        "-".into(),
    ]);
    let secs = wall_secs(iters, || {
        Ilu::new(&*a).unwrap();
    });
    report.row(vec![
        "preconditioner_generation_poisson2d_60".into(),
        "ilu0".into(),
        fmt(secs * 1e3),
        "-".into(),
    ]);
}

fn main() {
    let mut report = Report::new(
        "Solver wall-clock microbenchmarks",
        &["group", "case", "ms/op", "ns/entry"],
    );
    bench_krylov_iterations(&mut report);
    bench_preconditioner_generation(&mut report);
    let trs_over_csr = bench_triangular(&mut report, &poisson2d("poisson2d_60", 60, 60), 2000);
    // The two `cold_pipeline` matrices: ILU-CG's stencil and ILU-GMRES's circuit.
    bench_triangular(&mut report, &poisson2d("poisson2d_120", 120, 120), 500);
    bench_triangular(&mut report, &circuit("circuit_25000", 25_000, 6, 4, 7), 100);
    // (executor, gated): the pool's wake-up cost per dispatch of a single
    // solve, not batching, sets the `omp(2)` ratios, so they are only printed.
    let mut batch_over_loop = Vec::new();
    for (on, exec, gated) in [
        ("reference", Executor::reference(), true),
        ("omp2", Executor::omp(2), false),
    ] {
        for (cg, systems, rows) in [(true, 1200, 32), (false, 1200, 32), (true, 200, 256)] {
            let ratio = bench_batch(&mut report, on, &exec, cg, systems, rows);
            let method = if cg { "cg" } else { "bicgstab" };
            batch_over_loop.push((
                format!("batch_{method}_{systems}x{rows} on {on}"),
                ratio,
                gated && rows == 32,
            ));
        }
    }
    let (dot_over_axpy, jacobi_over_axpy) = bench_blas1(&mut report);
    let in_cache = IN_CACHE_N.map(|n| (n, bench_blas1_in_cache(&mut report, n)));
    report.print();
    let path = report.write_csv("micro_solvers").expect("write csv");
    println!("\nwrote {}", path.display());
    println!("dot_over_axpy = {dot_over_axpy:.2} (n = {BLAS1_N}, limit {DOT_OVER_AXPY_LIMIT})");
    for (n, (dot, dot2)) in &in_cache {
        println!("dot_over_axpy = {dot:.2} (n = {n}, in cache, not gated)");
        println!(
            "dot2_over_axpy = {dot2:.2} (n = {n}, in cache, limit {IN_CACHE_DOT2_OVER_AXPY_LIMIT})"
        );
    }
    println!(
        "jacobi_over_axpy = {jacobi_over_axpy:.2} (n = {BLAS1_N}, limit {JACOBI_OVER_AXPY_LIMIT})"
    );
    println!("trs_over_csr = {trs_over_csr:.2} (ILU(0) factors of poisson2d_60, limit {TRS_OVER_CSR_LIMIT})");
    let mut failed = false;
    for (case, ratio, gated) in &batch_over_loop {
        let floor = if *gated {
            format!("floor {BATCH_OVER_LOOP_FLOOR}")
        } else {
            "not gated".to_owned()
        };
        println!("batch_over_loop = {ratio:.2} ({case}, {floor})");
        if *gated && *ratio < BATCH_OVER_LOOP_FLOOR {
            eprintln!(
                "micro_solvers: FAIL — the loop of single solves costs {ratio:.2}x {case}, below {BATCH_OVER_LOOP_FLOOR}"
            );
            failed = true;
        }
    }
    if dot_over_axpy > DOT_OVER_AXPY_LIMIT {
        eprintln!(
            "micro_solvers: FAIL — compute_dot costs {dot_over_axpy:.2}x add_scaled, above {DOT_OVER_AXPY_LIMIT}"
        );
        failed = true;
    }
    for (n, (_, dot2)) in &in_cache {
        if *dot2 > IN_CACHE_DOT2_OVER_AXPY_LIMIT {
            eprintln!(
                "micro_solvers: FAIL — compute_dot2 costs {dot2:.2}x add_scaled at n = {n}, above {IN_CACHE_DOT2_OVER_AXPY_LIMIT}"
            );
            failed = true;
        }
    }
    if jacobi_over_axpy > JACOBI_OVER_AXPY_LIMIT {
        eprintln!(
            "micro_solvers: FAIL — Jacobi::apply costs {jacobi_over_axpy:.2}x add_scaled, above {JACOBI_OVER_AXPY_LIMIT}"
        );
        failed = true;
    }
    if trs_over_csr > TRS_OVER_CSR_LIMIT {
        eprintln!(
            "micro_solvers: FAIL — the triangular sweeps cost {trs_over_csr:.2}x a CSR SpMV over the same entries, above {TRS_OVER_CSR_LIMIT}"
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
