//! Per-layer probes: each layer's public functions timed on the inputs of
//! the workload that exercises it, at that workload's home size.
//!
//! A probe reports the minimum over a few repetitions after one untimed call.
//! Per-layer metrics are not gated; they say where an end-to-end change came
//! from. Every SpMV result a probe produces is checked against the harness's
//! triplet loop at the tolerance of its value type.

use crate::cells::{facade_matrix, facade_vectors, lanes, GMRES_RESTART, MAX_ITERS, SOLVE_TOL};
use crate::inputs::{Inputs, System};
use crate::model::{self, UnitCosts};
use crate::oracle::{self, Triplet};
use crate::report::{Metric, Report};
use crate::stats::{self, time_min};
use gko::config::{config_solve, Config};
use gko::factorization::{ic0, ilu0};
use gko::matrix::{Coo, Csr, Dense, Ell, Hybrid, Sellp, SpmvStrategy};
use gko::preconditioner::{Ilu, Jacobi};
use gko::solver::{LowerTrs, UpperTrs};
use gko::{Dim2, Executor, LinOp, Value};
use pyginkgo as pg;
use pyginkgo::config_solver::SolveOptions;
use pygko_half::Half;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

type Res<T> = Result<T, Box<dyn std::error::Error>>;

/// Vector length of the `dense.*.n160k.*` rows (a 400 x 400 grid).
const DENSE_LARGE: usize = 160_000;
/// Vector length of the `dense.*.n2k.*` rows (a storm system).
const DENSE_SMALL: usize = 2_000;

fn cast<V: Value>(triplets: &[Triplet]) -> Vec<(usize, usize, V)> {
    triplets
        .iter()
        .map(|&(r, c, v)| (r, c, V::from_f64(v)))
        .collect()
}

fn csr_on<V: Value>(exec: &Executor, system: &System) -> Res<Csr<V, i32>> {
    Ok(Csr::from_triplets(
        exec,
        Dim2::square(system.n),
        &cast::<V>(&system.triplets),
    )?)
}

fn coo_on<V: Value>(exec: &Executor, system: &System) -> Res<Coo<V, i32>> {
    Ok(Coo::from_triplets(
        exec,
        Dim2::square(system.n),
        &cast::<V>(&system.triplets),
    )?)
}

fn dense_from<V: Value>(exec: &Executor, values: &[f64]) -> Res<Dense<V>> {
    Ok(Dense::from_vec(
        exec,
        Dim2::new(values.len(), 1),
        values.iter().map(|&v| V::from_f64(v)).collect(),
    )?)
}

/// Minimum time of `reps` solves from a zero guess, and the iteration count.
fn timed_solve(
    reps: usize,
    solver: &pg::solver::Solver,
    b: &pg::Tensor,
    x: &mut pg::Tensor,
) -> (f64, usize) {
    let mut iterations = 0;
    let seconds = time_min(reps, || {
        x.fill(0.0);
        iterations = solver.apply(b, x).expect("solve").iterations();
    });
    (seconds, iterations)
}

fn ns_per(seconds: f64, count: usize) -> f64 {
    seconds * 1e9 / count.max(1) as f64
}

/// State shared by the probes of one traced run.
pub struct Probes<'a> {
    inputs: &'a Inputs,
    spmv_want: &'a [Vec<f64>; 2],
    reps: usize,
    omp: Executor,
    reference: Executor,
    /// Metrics gathered so far.
    pub metrics: Vec<Metric>,
    /// Operation counts; SpMV probes are checked and counted here.
    pub report: &'a mut Report,
}

impl<'a> Probes<'a> {
    /// Probes over `inputs`, `reps` timed repetitions each.
    pub fn new(
        inputs: &'a Inputs,
        spmv_want: &'a [Vec<f64>; 2],
        reps: usize,
        report: &'a mut Report,
    ) -> Self {
        Probes {
            inputs,
            spmv_want,
            reps,
            omp: Executor::omp(lanes()),
            reference: Executor::reference(),
            metrics: Vec::new(),
            report,
        }
    }

    fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric::new(name, value, unit));
    }

    /// Runs every probe.
    pub fn all(&mut self) -> Res<()> {
        self.facade()?;
        self.config()?;
        self.mtx()?;
        self.assembly()?;
        self.kernels()?;
        self.dense()?;
        self.pool();
        self.factorization()?;
        self.closure()?;
        Ok(())
    }

    /// Times `op.apply` on SpMV input `which`, checks the result at `tol`,
    /// and returns ns per stored entry.
    fn spmv_probe<V: Value>(&mut self, op: &dyn LinOp<V>, which: usize, tol: f64) -> Res<f64> {
        let system = &self.inputs.spmv[which];
        let exec = op.executor().clone();
        let b = dense_from::<V>(&exec, &system.vector)?;
        let mut y = Dense::<V>::zeros(&exec, Dim2::new(system.n, 1));
        let mut ok = true;
        let seconds = time_min(self.reps, || ok &= op.apply(&b, &mut y).is_ok());
        let got: Vec<f64> = y.as_slice().iter().map(|v| v.to_f64()).collect();
        ok &= oracle::relative_error(&got, &self.spmv_want[which]) <= tol;
        self.report.count(ok);
        Ok(ns_per(seconds, system.nnz()))
    }

    /// `pyginkgo::{gil, matrix, tensor}`: what the binding layer adds.
    fn facade(&mut self) -> Res<()> {
        let dev = pg::device("reference")?;
        const BATCH: usize = 10_000;
        let t = time_min(self.reps, || {
            for _ in 0..BATCH {
                pg::gil::binding_call(&dev, || black_box(()));
            }
        });
        self.push("gil.binding_call_ns", ns_per(t, BATCH), "ns");

        // Facade SpMV against the engine call it wraps, on a matrix so small
        // (diagonal, n = 1000) that the kernel is a few hundred ns.
        let n = 1000;
        let diag: Vec<Triplet> = (0..n).map(|i| (i, i, 2.0)).collect();
        let a = pg::SparseMatrix::from_triplets(&dev, (n, n), &diag, "double", "int32", "Csr")?;
        let b = pg::as_tensor_fill(&dev, (n, 1), "double", 1.0)?;
        let mut x = pg::as_tensor_fill(&dev, (n, 1), "double", 0.0)?;
        let engine = Csr::<f64, i32>::from_triplets(dev.executor(), Dim2::square(n), &diag)?;
        let eb = Dense::<f64>::vector(dev.executor(), n, 1.0);
        let mut ex = Dense::<f64>::vector(dev.executor(), n, 0.0);
        const CALLS: usize = 1000;
        let facade = time_min(self.reps, || {
            for _ in 0..CALLS {
                a.spmv_into(&b, &mut x).expect("facade spmv");
            }
        });
        let direct = time_min(self.reps, || {
            for _ in 0..CALLS {
                engine.apply(&eb, &mut ex).expect("engine spmv");
            }
        });
        self.push(
            "facade.spmv_overhead_ns",
            ns_per(facade - direct, CALLS),
            "ns",
        );

        // The allocating form against the in-place one, at home size.
        let system = &self.inputs.spmv[0];
        let a = facade_matrix(&dev, system, "Csr")?;
        let (b, mut x) = facade_vectors(&dev, system)?;
        let into = time_min(self.reps, || a.spmv_into(&b, &mut x).expect("spmv_into"));
        let alloc = time_min(self.reps, || {
            black_box(a.spmv(&b).expect("spmv"));
        });
        self.push("facade.spmv_alloc_us", (alloc - into) * 1e6, "us");

        let fill = time_min(self.reps, || {
            black_box(pg::as_tensor_fill(&dev, (DENSE_LARGE, 1), "double", 1.0).expect("fill"));
        });
        self.push(
            "facade.tensor_fill_ns_per_elem",
            ns_per(fill, DENSE_LARGE),
            "ns/elem",
        );
        Ok(())
    }

    /// `pyginkgo::config_solver` + `gko::config`: the Listing 2 path, piece
    /// by piece, on the first storm system.
    fn config(&mut self) -> Res<()> {
        let system = &self.inputs.storm[0];
        let options = SolveOptions::default();
        const BATCH: usize = 200;
        let t = time_min(self.reps, || {
            for _ in 0..BATCH {
                let json = options.to_json().expect("to_json");
                black_box(Config::from_json(&json).expect("from_json"));
            }
        });
        self.push("config.json_roundtrip_us", t * 1e6 / BATCH as f64, "us");

        let cfg = Config::from_json(&options.to_json()?)?;
        let csr = Arc::new(csr_on::<f64>(&self.reference, system)?);
        let t = time_min(self.reps * 4, || {
            black_box(
                config_solve(csr.clone(), &cfg)
                    .expect("config_solve")
                    .logger,
            );
        });
        self.push("config.factory_us", t * 1e6, "us");
        let t = time_min(self.reps * 4, || {
            black_box(Csr::clone(&csr));
        });
        self.push("config.csr_clone_us", t * 1e6, "us");

        let dev = pg::device("reference")?;
        let a = facade_matrix(&dev, system, "Csr")?;
        let (b, mut x) = facade_vectors(&dev, system)?;
        let per_call = time_min(self.reps * 2, || {
            x.fill(0.0);
            pg::solve(&a, &b, &mut x, &options).expect("pg::solve");
        });
        let jacobi = pg::preconditioner::jacobi(&dev, &a)?;
        let prebuilt = pg::solver::gmres(
            &dev,
            &a,
            Some(jacobi),
            options.max_iters,
            options.krylov_dim,
            options.reduction_factor,
        )?;
        let apply = time_min(self.reps * 2, || {
            x.fill(0.0);
            prebuilt.apply(&b, &mut x).expect("prebuilt apply");
        });
        self.push("config.solve_over_prebuilt", per_call / apply, "ratio");
        Ok(())
    }

    /// `pygko_mtx`: in-memory parse and print of the unsymmetric pipeline
    /// matrix.
    fn mtx(&mut self) -> Res<()> {
        let system = &self.inputs.pipeline[1];
        let mut text = Vec::new();
        let write = time_min(self.reps, || {
            text.clear();
            pygko_mtx::write_mtx(&mut text, system.n, system.n, &system.triplets)
                .expect("write_mtx");
        });
        let read = time_min(self.reps, || {
            black_box(pygko_mtx::read_mtx(text.as_slice()).expect("read_mtx"));
        });
        self.push(
            "mtx.read_ns_per_entry",
            ns_per(read, system.nnz()),
            "ns/entry",
        );
        self.push("mtx.read_mb_per_s", text.len() as f64 / 1e6 / read, "MB/s");
        self.push(
            "mtx.write_ns_per_entry",
            ns_per(write, system.nnz()),
            "ns/entry",
        );
        Ok(())
    }

    /// `gko::matrix` assembly and conversion on the regular SpMV matrix.
    fn assembly(&mut self) -> Res<()> {
        let system = &self.inputs.spmv[0];
        let exec = self.reference.clone();
        let typed = cast::<f64>(&system.triplets);
        let dim = Dim2::square(system.n);
        let nnz = system.nnz();
        let t = time_min(self.reps, || {
            black_box(Csr::<f64, i32>::from_triplets(&exec, dim, &typed).expect("csr"));
        });
        self.push(
            "matrix.csr_from_triplets_ns_per_nnz",
            ns_per(t, nnz),
            "ns/nnz",
        );
        let t = time_min(self.reps, || {
            black_box(Coo::<f64, i32>::from_triplets(&exec, dim, &typed).expect("coo"));
        });
        self.push(
            "matrix.coo_from_triplets_ns_per_nnz",
            ns_per(t, nnz),
            "ns/nnz",
        );
        let coo = Coo::<f64, i32>::from_triplets(&exec, dim, &typed)?;
        let t = time_min(self.reps, || {
            black_box(coo.to_csr());
        });
        self.push("matrix.coo_to_csr_ns_per_nnz", ns_per(t, nnz), "ns/nnz");
        let csr = coo.to_csr();
        let t = time_min(self.reps, || {
            black_box(Coo::from_csr(&csr));
        });
        self.push("matrix.csr_to_coo_ns_per_nnz", ns_per(t, nnz), "ns/nnz");
        Ok(())
    }

    /// `gko::matrix::{csr,coo,ell,sellp,hybrid}` kernels and
    /// `gko::matrix::plan`, ns per stored entry through `LinOp::apply`.
    fn kernels(&mut self) -> Res<()> {
        const STRUCTURES: [&str; 2] = ["regular", "skewed"];
        let (omp, reference) = (self.omp.clone(), self.reference.clone());
        let inputs = self.inputs;
        let mut csr_omp_ns = [0.0; 2];
        for (which, structure) in STRUCTURES.into_iter().enumerate() {
            let system = &inputs.spmv[which];
            let csr = csr_on::<f64>(&omp, system)?;

            // The plan first, while the matrix is untouched: build cost, the
            // first apply against a steady one, and the chunk count.
            let build = time_min(self.reps, || {
                csr.invalidate_plan();
                black_box(csr.plan());
            });
            self.push(format!("plan.build_us.{structure}"), build * 1e6, "us");
            self.push(
                format!("plan.chunks.{structure}"),
                csr.plan().chunks() as f64,
                "count",
            );
            let b = dense_from::<f64>(&omp, &system.vector)?;
            let mut y = Dense::<f64>::zeros(&omp, Dim2::new(system.n, 1));
            let mut first = f64::INFINITY;
            for _ in 0..self.reps {
                csr.invalidate_plan();
                let t0 = Instant::now();
                csr.apply(&b, &mut y)?;
                first = first.min(t0.elapsed().as_secs_f64());
            }
            let steady = time_min(self.reps, || csr.apply(&b, &mut y).expect("csr apply"));
            self.push(
                format!("plan.first_over_steady.{structure}"),
                first / steady,
                "ratio",
            );

            // A clone starts with an empty plan cache: one build, then hits.
            let fresh = csr.clone();
            let ns = self.spmv_probe(&fresh, which, oracle::SPMV_TOL_F64)?;
            csr_omp_ns[which] = ns;
            self.push(format!("kernel.csr.{structure}.f64.omp"), ns, "ns/nnz");
            if which == 1 {
                self.push(
                    "plan.reuse_ratio",
                    fresh.plan_stats().reuse_ratio(),
                    "ratio",
                );
                // The explicit strategies beside the default `auto`.
                for (name, strategy) in [
                    ("classical", SpmvStrategy::Classical),
                    ("load_balance", SpmvStrategy::LoadBalance),
                    ("merge_path", SpmvStrategy::MergePath),
                ] {
                    let explicit = csr.clone().with_strategy(strategy);
                    let ns = self.spmv_probe(&explicit, which, oracle::SPMV_TOL_F64)?;
                    self.push(format!("kernel.csr.skewed.f64.omp.{name}"), ns, "ns/nnz");
                }
            }
            let ns = self.spmv_probe(&coo_on::<f64>(&omp, system)?, which, oracle::SPMV_TOL_F64)?;
            self.push(format!("kernel.coo.{structure}.f64.omp"), ns, "ns/nnz");
            let ns = self.spmv_probe(&Hybrid::from_csr(&csr), which, oracle::SPMV_TOL_F64)?;
            self.push(format!("kernel.hybrid.{structure}.f64.omp"), ns, "ns/nnz");
            if which == 0 {
                // ELL and SELL-P pad every row to the longest: regular only.
                let ns = self.spmv_probe(&Ell::from_csr(&csr), which, oracle::SPMV_TOL_F64)?;
                self.push("kernel.ell.regular.f64.omp", ns, "ns/nnz");
                let ns = self.spmv_probe(&Sellp::from_csr(&csr), which, oracle::SPMV_TOL_F64)?;
                self.push("kernel.sellp.regular.f64.omp", ns, "ns/nnz");
                let ns =
                    self.spmv_probe(&csr_on::<Half>(&omp, system)?, which, oracle::SPMV_TOL_F16)?;
                self.push("kernel.csr.regular.f16.omp", ns, "ns/nnz");

                let scipy = pygko_baselines::scipy_executor();
                let textbook =
                    pygko_baselines::scipy::ScipyCsr::new(Arc::new(csr_on::<f64>(&scipy, system)?));
                let ns = self.spmv_probe(&textbook, which, oracle::SPMV_TOL_F64)?;
                self.push("baselines.scipy_csr.regular.f64", ns, "ns/nnz");

                // Bytes a CSR SpMV must move, computed from the array sizes
                // (f64 values, i32 indices; row pointers, x and y once).
                let bytes = system.nnz() * (8 + 4) + system.n * (4 + 8 + 8);
                self.push(
                    "kernel.csr.bytes_per_nnz_computed",
                    bytes as f64 / system.nnz() as f64,
                    "B/nnz",
                );
                self.push(
                    "kernel.csr.flops_per_byte_computed",
                    2.0 * system.nnz() as f64 / bytes as f64,
                    "flop/B",
                );
            }

            let ns = self.spmv_probe(&csr_on::<f32>(&omp, system)?, which, oracle::SPMV_TOL_F32)?;
            self.push(format!("kernel.csr.{structure}.f32.omp"), ns, "ns/nnz");
            let ns = self.spmv_probe(&coo_on::<f32>(&omp, system)?, which, oracle::SPMV_TOL_F32)?;
            self.push(format!("kernel.coo.{structure}.f32.omp"), ns, "ns/nnz");

            // The plain single-threaded baseline of the same problem.
            let csr_ref = csr_on::<f64>(&reference, system)?;
            let ns_ref = self.spmv_probe(&csr_ref, which, oracle::SPMV_TOL_F64)?;
            if which == 0 {
                // What the cost model charges one apply, beside its wall time.
                let rb = dense_from::<f64>(&reference, &system.vector)?;
                let mut ry = Dense::<f64>::zeros(&reference, Dim2::new(system.n, 1));
                let before = reference.timeline().now_ns();
                csr_ref.apply(&rb, &mut ry)?;
                let virtual_ns = (reference.timeline().now_ns() - before) as f64;
                self.push(
                    "sim.virtual_over_wall.spmv",
                    virtual_ns / (ns_ref * system.nnz() as f64),
                    "ratio",
                );
            }
            self.push(format!("kernel.csr.{structure}.f64.ref"), ns_ref, "ns/nnz");
            self.push(
                format!("kernel.omp_speedup.csr.{structure}"),
                ns_ref / csr_omp_ns[which],
                "ratio",
            );
            let ns = self.spmv_probe(
                &coo_on::<f64>(&reference, system)?,
                which,
                oracle::SPMV_TOL_F64,
            )?;
            self.push(format!("kernel.coo.{structure}.f64.ref"), ns, "ns/nnz");
        }
        Ok(())
    }

    /// Seconds per call of the four BLAS-1 kernels at length `n` on `exec`:
    /// `[dot, axpy, norm2, copy]`.
    fn blas1(&self, exec: &Executor, n: usize) -> [f64; 4] {
        let a = Dense::<f64>::vector(exec, n, 1.5);
        let mut b = Dense::<f64>::vector(exec, n, 0.5);
        // Short vectors are timed in batches so the clock resolves them.
        let batch = (200_000 / n).max(1);
        let per_call = |t: f64| t / batch as f64;
        let dot = time_min(self.reps, || {
            for _ in 0..batch {
                black_box(a.compute_dot(&b).expect("dot"));
            }
        });
        let axpy = time_min(self.reps, || {
            for _ in 0..batch {
                b.add_scaled(1e-9, &a).expect("axpy");
            }
        });
        let norm2 = time_min(self.reps, || {
            for _ in 0..batch {
                black_box(a.compute_norm2());
            }
        });
        let copy = time_min(self.reps, || {
            for _ in 0..batch {
                b.copy_from(&a).expect("copy");
            }
        });
        [dot, axpy, norm2, copy].map(per_call)
    }

    /// `gko::matrix::dense`: ns per element.
    fn dense(&mut self) -> Res<()> {
        let (omp, reference) = (self.omp.clone(), self.reference.clone());
        for (exec, n, tag) in [
            (&omp, DENSE_LARGE, "n160k.omp"),
            (&reference, DENSE_LARGE, "n160k.ref"),
            (&omp, DENSE_SMALL, "n2k.omp"),
        ] {
            let costs = self.blas1(exec, n);
            for (op, seconds) in ["dot", "axpy", "norm2", "copy"].into_iter().zip(costs) {
                self.push(format!("dense.{op}.{tag}"), ns_per(seconds, n), "ns/elem");
            }
        }
        Ok(())
    }

    /// `gko::executor::pool`: a dispatch of `L` empty chunks.
    fn pool(&mut self) {
        let lanes = lanes();
        let mut samples = Vec::new();
        // A one-lane executor has no pool: dispatch costs nothing there.
        if let Some(pool) = self.omp.worker_pool() {
            for _ in 0..200 * self.reps {
                let t0 = Instant::now();
                pool.run(lanes, &|_| {});
                samples.push(t0.elapsed().as_secs_f64() * 1e6);
            }
        } else {
            samples.push(0.0);
        }
        self.push("pool.noop_dispatch_us.min", stats::min(&samples), "us");
        self.push("pool.noop_dispatch_us.p50", stats::median(&samples), "us");
    }

    /// `gko::factorization`, `gko::preconditioner`, `gko::solver::triangular`
    /// on the pipeline matrices, and ILU's share of the pipeline solves.
    fn factorization(&mut self) -> Res<()> {
        let exec = self.reference.clone();
        let spd = &self.inputs.pipeline[0];
        let a = csr_on::<f64>(&exec, spd)?;
        let t = time_min(self.reps, || {
            black_box(ilu0(&a).expect("ilu0"));
        });
        self.push(
            "factorization.ilu0_ns_per_nnz",
            ns_per(t, spd.nnz()),
            "ns/nnz",
        );
        let t = time_min(self.reps, || {
            black_box(ic0(&a).expect("ic0"));
        });
        self.push(
            "factorization.ic0_ns_per_nnz",
            ns_per(t, spd.nnz()),
            "ns/nnz",
        );

        let (l, u) = ilu0(&a)?;
        let (l_nnz, u_nnz) = (l.nnz(), u.nnz());
        let lower = LowerTrs::new(Arc::new(l))?.with_unit_diagonal();
        let upper = UpperTrs::new(Arc::new(u))?;
        let b = dense_from::<f64>(&exec, &spd.vector)?;
        let mut x = Dense::<f64>::zeros(&exec, Dim2::new(spd.n, 1));
        let t = time_min(self.reps, || lower.apply(&b, &mut x).expect("lower"));
        self.push("triangular.lower_ns_per_nnz", ns_per(t, l_nnz), "ns/nnz");
        let t = time_min(self.reps, || upper.apply(&b, &mut x).expect("upper"));
        self.push("triangular.upper_ns_per_nnz", ns_per(t, u_nnz), "ns/nnz");

        let gmres_system = &self.inputs.krylov[1];
        let g = csr_on::<f64>(&exec, gmres_system)?;
        let t = time_min(self.reps, || {
            black_box(Jacobi::new(&g).expect("jacobi"));
        });
        self.push(
            "preconditioner.jacobi_generate_ns_per_row",
            ns_per(t, gmres_system.n),
            "ns/row",
        );

        // One ILU apply per iteration (plus one before the loop), against
        // the whole solve of the same chain built from prebuilt parts.
        let dev = pg::device("reference")?;
        for (which, tag) in [(0, "spd"), (1, "unsym")] {
            let system = &self.inputs.pipeline[which];
            let n = system.n;
            let engine = csr_on::<f64>(dev.executor(), system)?;
            let ilu = Ilu::new(&engine)?;
            let r = dense_from::<f64>(dev.executor(), &system.vector)?;
            let mut z = Dense::<f64>::zeros(dev.executor(), Dim2::new(n, 1));
            let ilu_apply = time_min(self.reps, || ilu.apply(&r, &mut z).expect("ilu apply"));

            let a = facade_matrix(&dev, system, "Csr")?;
            let pre = pg::preconditioner::ilu(&dev, &a)?;
            let solver = if which == 0 {
                pg::solver::cg(&dev, &a, Some(pre), MAX_ITERS, SOLVE_TOL)?
            } else {
                pg::solver::gmres(&dev, &a, Some(pre), MAX_ITERS, GMRES_RESTART, SOLVE_TOL)?
            };
            let (b, mut x) = facade_vectors(&dev, system)?;
            let (solve, iterations) = timed_solve(self.reps.min(3), &solver, &b, &mut x);
            self.push(
                format!("preconditioner.ilu_apply_share.{tag}"),
                (iterations + 1) as f64 * ilu_apply / solve,
                "ratio",
            );
        }
        Ok(())
    }

    /// `gko::solver`: the closure pair of CG and GMRES on the `krylov` home
    /// inputs, the solver factory, and the cost model's figure beside the
    /// measured one.
    fn closure(&mut self) -> Res<()> {
        let dev = pg::device("reference")?;
        let exec = dev.executor().clone();
        for (which, tag) in [(0, "cg"), (1, "gmres")] {
            let system = &self.inputs.krylov[which];
            let n = system.n;
            let a = facade_matrix(&dev, system, "Csr")?;
            let engine = csr_on::<f64>(&exec, system)?;
            let eb = dense_from::<f64>(&exec, &system.vector)?;
            let mut ex = Dense::<f64>::zeros(&exec, Dim2::new(n, 1));
            let spmv = time_min(self.reps, || engine.apply(&eb, &mut ex).expect("spmv"));
            let [dot, axpy, norm2, copy] = self.blas1(&exec, n);
            let (solver, precond) = if which == 0 {
                let t = time_min(self.reps * 4, || {
                    black_box(
                        pg::solver::cg(&dev, &a, None, MAX_ITERS, SOLVE_TOL).expect("factory"),
                    );
                });
                self.push("solver.generate_us", t * 1e6, "us");
                let s = pg::solver::cg(&dev, &a, None, MAX_ITERS, SOLVE_TOL)?;
                (s, 0.0)
            } else {
                let jacobi = Jacobi::new(&engine)?;
                let t = time_min(self.reps, || jacobi.apply(&eb, &mut ex).expect("jacobi"));
                let pre = pg::preconditioner::jacobi(&dev, &a)?;
                let s =
                    pg::solver::gmres(&dev, &a, Some(pre), MAX_ITERS, GMRES_RESTART, SOLVE_TOL)?;
                (s, t)
            };
            let costs = UnitCosts {
                spmv,
                dot,
                norm2,
                axpy,
                copy,
                precond,
            };
            let (b, mut x) = facade_vectors(&dev, system)?;
            let (measured, iterations) = timed_solve(self.reps, &solver, &b, &mut x);
            if which == 0 {
                x.fill(0.0);
                let before = exec.timeline().now_ns();
                solver.apply(&b, &mut x)?;
                let virtual_ns = (exec.timeline().now_ns() - before) as f64;
                self.push(
                    "sim.virtual_over_wall.cg",
                    virtual_ns / (measured * 1e9),
                    "ratio",
                );
            }
            let calls = if which == 0 {
                model::cg_calls(iterations)
            } else {
                model::gmres_calls(iterations, GMRES_RESTART)
            };
            let (share, rest) = model::shares(model::replay(&calls, &costs), measured);
            self.push(format!("solver.{tag}.kernel_model_share"), share, "ratio");
            self.push(format!("solver.{tag}.unattributed_share"), rest, "ratio");
        }
        Ok(())
    }
}
