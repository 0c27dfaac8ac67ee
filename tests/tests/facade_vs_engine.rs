//! Facade-vs-engine parity: the binding layer must change *costs*, never
//! *results* — the premise of the paper's §6.3 overhead study.

use gko::config::{config_solve, Config};
use gko::linop::LinOp;
use gko::log::ConvergenceLogger;
use gko::matrix::{BatchCsr, BatchDense, Coo, Csr, Dense, SpmvStrategy};
use gko::preconditioner::{Ic, Ilu, Jacobi};
use gko::solver::{BatchCg, Cg, Direct, Gmres, LowerTrs, UpperTrs};
use gko::stop::Criteria;
use gko::{Dim2, Executor, Index, Value};
use pyginkgo as pg;
use pygko_half::Half;
use std::sync::Arc;

fn triplets(n: usize) -> Vec<(usize, usize, f64)> {
    let mut t = vec![];
    for i in 0..n {
        t.push((i, i, 3.0 + (i % 3) as f64));
        if i > 0 {
            t.push((i, i - 1, -1.0));
        }
        if i + 2 < n {
            t.push((i, i + 2, 0.25));
        }
    }
    t
}

/// What the engine stores for `t` under the concrete types `V`, `I`: the
/// stored entries of the CSR (or of the COO, read back through `to_csr`)
/// assembled from a pre-rounded copy of the list.
fn engine_entries<V: Value, I: Index>(
    n: usize,
    t: &[(usize, usize, f64)],
    coo: bool,
) -> Vec<(usize, usize, u64)> {
    let exec = Executor::reference();
    let rounded: Vec<(usize, usize, V)> =
        t.iter().map(|&(r, c, v)| (r, c, V::from_f64(v))).collect();
    let csr = if coo {
        Coo::<V, I>::from_triplets(&exec, Dim2::square(n), &rounded)
            .unwrap()
            .to_csr()
    } else {
        Csr::<V, I>::from_triplets(&exec, Dim2::square(n), &rounded).unwrap()
    };
    stored_bits(&csr)
}

fn stored_bits<V: Value, I: Index>(csr: &Csr<V, I>) -> Vec<(usize, usize, u64)> {
    let (rp, ci, v) = (csr.row_ptrs(), csr.col_idxs(), csr.values());
    (0..csr.size().rows)
        .flat_map(|r| (rp[r].to_usize()..rp[r + 1].to_usize()).map(move |k| (r, k)))
        .map(|(r, k)| (r, ci[k].to_usize(), v[k].to_f64().to_bits()))
        .collect()
}

fn facade_entries(m: &pg::SparseMatrix) -> Vec<(usize, usize, u64)> {
    let t = m.to_triplets();
    t.iter().map(|&(r, c, v)| (r, c, v.to_bits())).collect()
}

/// Out of order, every entry three times with values whose sum depends on
/// the order in f32 and half (none sums to zero, which `to_triplets` drops).
fn scrambled_triplets(n: usize) -> Vec<(usize, usize, f64)> {
    let mut t = Vec::new();
    for pass in 0..3 {
        for (k, &(r, c, v)) in triplets(n).iter().enumerate().rev() {
            t.push((
                r,
                c,
                v * (1.0 + 0.001 * (k % 7 + pass) as f64) + 0.37 * pass as f64,
            ));
        }
    }
    t
}

/// The facade hands its `f64` triplets straight to the assembler, which
/// rounds each value on the way into the typed array. That must store
/// exactly what assembling a pre-rounded copy of the list stores: same
/// entries, same duplicate sums, bit for bit.
fn from_triplets_cell<V: Value, I: Index>(format: &str) {
    let n = 60;
    let t = scrambled_triplets(n);
    let dev = pg::device("reference").unwrap();
    let m = pg::SparseMatrix::from_triplets(&dev, (n, n), &t, V::NAME, I::NAME, format).unwrap();
    let got = facade_entries(&m);
    assert_eq!(got.len(), triplets(n).len());
    assert_eq!(
        got,
        engine_entries::<V, I>(n, &t, format == "Coo"),
        "{format}/{}/{}",
        V::NAME,
        I::NAME
    );
}

/// Runs `f::<V, I>` for the engine types a (dtype, index type) pair names.
macro_rules! with_engine_types {
    ($dtype:expr, $itype:expr, $f:ident($($arg:expr),*)) => {
        match ($dtype, $itype) {
            ("half", "int32") => $f::<Half, i32>($($arg),*),
            ("half", "int64") => $f::<Half, i64>($($arg),*),
            ("float", "int32") => $f::<f32, i32>($($arg),*),
            ("float", "int64") => $f::<f32, i64>($($arg),*),
            ("double", "int32") => $f::<f64, i32>($($arg),*),
            ("double", "int64") => $f::<f64, i64>($($arg),*),
            other => panic!("no engine instantiation for {other:?}"),
        }
    };
}

#[test]
fn from_triplets_stores_what_assembling_rounded_triplets_stores() {
    for format in ["Csr", "Coo"] {
        for dtype in ["half", "float", "double"] {
            for itype in ["int32", "int64"] {
                with_engine_types!(dtype, itype, from_triplets_cell(format));
            }
        }
    }
}

#[test]
fn spmv_results_are_bit_identical() {
    let n = 500;
    let t = triplets(n);

    // Engine path.
    let exec = Executor::cuda(0);
    let a = Csr::<f64, i32>::from_triplets(&exec, Dim2::square(n), &t).unwrap();
    let b = Dense::<f64>::vector(&exec, n, 1.5);
    let mut x_engine = Dense::zeros(&exec, Dim2::new(n, 1));
    a.apply(&b, &mut x_engine).unwrap();

    // Facade path.
    let dev = pg::device("cuda").unwrap();
    let m = pg::SparseMatrix::from_triplets(&dev, (n, n), &t, "double", "int32", "Csr").unwrap();
    let bt = pg::as_tensor_fill(&dev, (n, 1), "double", 1.5).unwrap();
    let x_facade = m.spmv(&bt).unwrap();

    assert_eq!(x_engine.to_host_vec(), x_facade.to_vec());
}

#[test]
fn facade_adds_binding_time_but_not_much() {
    let n = 2000;
    let t = triplets(n);

    // Engine: direct kernel calls on a fresh executor.
    let exec = Executor::cuda(0);
    let a = Csr::<f64, i32>::from_triplets(&exec, Dim2::square(n), &t).unwrap();
    let b = Dense::<f64>::vector(&exec, n, 1.0);
    let mut x = Dense::zeros(&exec, Dim2::new(n, 1));
    let t0 = exec.timeline().snapshot();
    a.apply(&b, &mut x).unwrap();
    let engine_ns = exec.timeline().snapshot().since(&t0).ns;

    // Facade: same operation through the dynamic layer on its own executor.
    let dev = pg::device("cuda").unwrap();
    let m = pg::SparseMatrix::from_triplets(&dev, (n, n), &t, "double", "int32", "Csr").unwrap();
    let bt = pg::as_tensor_fill(&dev, (n, 1), "double", 1.0).unwrap();
    let mut xt = pg::as_tensor_fill(&dev, (n, 1), "double", 0.0).unwrap();
    let t0 = dev.executor().timeline().snapshot();
    m.spmv_into(&bt, &mut xt).unwrap();
    let facade_ns = dev.executor().timeline().snapshot().since(&t0).ns;

    assert!(
        facade_ns > engine_ns,
        "binding layer must cost something: {facade_ns} vs {engine_ns}"
    );
    let overhead_ns = facade_ns - engine_ns;
    // §6.3: per-call overhead is in the 1e-7..1e-5 s range.
    assert!(
        (50..100_000).contains(&overhead_ns),
        "overhead {overhead_ns} ns outside the paper's range"
    );
}

#[test]
fn overhead_fraction_shrinks_with_matrix_size() {
    // Fig. 5b's shape: relative overhead drops as nnz grows.
    let mut fractions = Vec::new();
    for n in [500usize, 5_000, 50_000] {
        let t = triplets(n);

        let exec = Executor::cuda(0);
        let a = Csr::<f64, i32>::from_triplets(&exec, Dim2::square(n), &t).unwrap();
        let b = Dense::<f64>::vector(&exec, n, 1.0);
        let mut x = Dense::zeros(&exec, Dim2::new(n, 1));
        let t0 = exec.timeline().snapshot();
        a.apply(&b, &mut x).unwrap();
        let engine_ns = exec.timeline().snapshot().since(&t0).ns as f64;

        let dev = pg::device("cuda").unwrap();
        let m =
            pg::SparseMatrix::from_triplets(&dev, (n, n), &t, "double", "int32", "Csr").unwrap();
        let bt = pg::as_tensor_fill(&dev, (n, 1), "double", 1.0).unwrap();
        let mut xt = pg::as_tensor_fill(&dev, (n, 1), "double", 0.0).unwrap();
        let t0 = dev.executor().timeline().snapshot();
        m.spmv_into(&bt, &mut xt).unwrap();
        let facade_ns = dev.executor().timeline().snapshot().since(&t0).ns as f64;

        fractions.push((facade_ns - engine_ns) / facade_ns);
    }
    assert!(
        fractions[0] > fractions[2],
        "overhead fraction should shrink with size: {fractions:?}"
    );
}

#[test]
fn gil_serializes_and_counts_calls() {
    let dev = pg::device("reference").unwrap();
    let before = pg::gil::total_calls();
    let m = pg::SparseMatrix::from_triplets(&dev, (4, 4), &triplets(4), "double", "int32", "Csr")
        .unwrap();
    let b = pg::as_tensor_fill(&dev, (4, 1), "double", 1.0).unwrap();
    let _ = m.spmv(&b).unwrap();
    let calls = pg::gil::total_calls() - before;
    assert!(
        calls >= 3,
        "construction + tensor + spmv crossings, got {calls}"
    );
}

#[test]
fn solver_logger_matches_between_paths() {
    // Engine CG and facade CG over the same matrix must do identical
    // iteration counts (same algorithm behind the binding).
    let n = 80;
    let t = triplets(n);

    let exec = Executor::reference();
    let a = Arc::new(Csr::<f64, i32>::from_triplets(&exec, Dim2::square(n), &t).unwrap());
    let engine = gko::solver::Cg::new(a as Arc<dyn LinOp<f64>>)
        .unwrap()
        .with_criteria(gko::stop::Criteria::iterations_and_reduction(500, 1e-9));
    let b = Dense::<f64>::vector(&exec, n, 1.0);
    let mut x = Dense::<f64>::vector(&exec, n, 0.0);
    engine.apply(&b, &mut x).unwrap();
    let engine_iters = engine.logger().snapshot().iterations;

    let dev = pg::device("reference").unwrap();
    let m = pg::SparseMatrix::from_triplets(&dev, (n, n), &t, "double", "int32", "Csr").unwrap();
    let bt = pg::as_tensor_fill(&dev, (n, 1), "double", 1.0).unwrap();
    let mut xt = pg::as_tensor_fill(&dev, (n, 1), "double", 0.0).unwrap();
    let solver = pg::solver::cg(&dev, &m, None, 500, 1e-9).unwrap();
    let log = solver.apply(&bt, &mut xt).unwrap();

    assert_eq!(log.iterations(), engine_iters);
    assert_eq!(xt.to_vec(), x.to_host_vec());
}

// ---------------------------------------------------------------------------
// The instantiation matrix: every registry entry against the engine called
// with concrete types, bit for bit
// ---------------------------------------------------------------------------

const N: usize = 24;
const MAX_ITERS: usize = 60;
const REDUCTION: f64 = 1e-6;
const KRYLOV_DIM: usize = 10;

/// An SPD band matrix whose entries are exact in half precision.
fn spd(n: usize) -> Vec<(usize, usize, f64)> {
    let mut t = vec![];
    for i in 0..n {
        t.push((i, i, 4.0 + 0.5 * (i % 3) as f64));
        for (d, v) in [(1, -1.0), (5, -0.5)] {
            if i + d < n {
                t.push((i, i + d, v));
                t.push((i + d, i, v));
            }
        }
    }
    t
}

/// Row-major `(N, cols)` right-hand side values, exact in half precision.
fn rhs(cols: usize) -> Vec<f64> {
    (0..N * cols)
        .map(|k| 1.0 + 0.25 * (k % 5) as f64 - 0.5 * (k % cols) as f64)
        .collect()
}

fn dense<V: Value>(exec: &Executor, cols: usize, vals: &[f64]) -> Dense<V> {
    let vals = vals.iter().map(|&v| V::from_f64(v)).collect();
    Dense::from_vec(exec, Dim2::new(N, cols), vals).unwrap()
}

fn bits<V: Value>(d: &Dense<V>) -> Vec<u64> {
    d.as_slice().iter().map(|v| v.to_f64().to_bits()).collect()
}

fn tensor_bits(t: &pg::Tensor) -> Vec<u64> {
    t.to_vec().iter().map(|v| v.to_bits()).collect()
}

/// One instantiation on both sides of the boundary: the facade handle, and
/// the engine operator in the same format with the CSR every factorisation
/// is generated from (the matrix itself, or `to_csr` of the COO).
struct Cell<V: Value, I: Index> {
    name: String,
    dev: pg::Device,
    exec: Executor,
    dtype: &'static str,
    facade: pg::SparseMatrix,
    op: Arc<dyn LinOp<V>>,
    csr: Arc<Csr<V, I>>,
}

impl<V: Value, I: Index> Cell<V, I> {
    fn new(format: pg::MatrixFormat, t: &[(usize, usize, f64)]) -> Self {
        let dev = pg::device("reference").unwrap();
        let exec = Executor::reference();
        let facade =
            pg::SparseMatrix::from_triplets(&dev, (N, N), t, V::NAME, I::NAME, format.name())
                .unwrap();
        let rounded: Vec<(usize, usize, V)> =
            t.iter().map(|&(r, c, v)| (r, c, V::from_f64(v))).collect();
        let (op, csr): (Arc<dyn LinOp<V>>, _) = match format {
            pg::MatrixFormat::Csr => {
                let csr =
                    Arc::new(Csr::<V, I>::from_triplets(&exec, Dim2::square(N), &rounded).unwrap());
                (csr.clone(), csr)
            }
            pg::MatrixFormat::Coo => {
                let coo = Coo::<V, I>::from_triplets(&exec, Dim2::square(N), &rounded).unwrap();
                let csr = Arc::new(coo.to_csr());
                (Arc::new(coo), csr)
            }
        };
        Cell {
            name: format!("{}/{}/{}", format.name(), V::NAME, I::NAME),
            dev,
            exec,
            dtype: V::NAME,
            facade,
            op,
            csr,
        }
    }

    fn tensor(&self, cols: usize, vals: &[f64]) -> pg::Tensor {
        pg::as_tensor(vals.to_vec(), &self.dev, (N, cols), self.dtype).unwrap()
    }

    fn zeros(&self, cols: usize) -> pg::Tensor {
        pg::as_tensor_fill(&self.dev, (N, cols), self.dtype, 0.0).unwrap()
    }

    /// `solver` applied to the one-column right-hand side from a zero guess
    /// on the engine: iterations logged and the solution's bits.
    fn engine_solve(
        &self,
        solver: &dyn LinOp<V>,
        logger: Option<&ConvergenceLogger>,
    ) -> (usize, Vec<u64>) {
        let b = dense::<V>(&self.exec, 1, &rhs(1));
        let mut x = Dense::zeros(&self.exec, Dim2::new(N, 1));
        solver.apply(&b, &mut x).unwrap();
        (logger.map_or(0, |l| l.snapshot().iterations), bits(&x))
    }

    /// The same solve through a facade solver.
    fn facade_solve(&self, solver: &pg::solver::Solver) -> (usize, Vec<u64>) {
        let mut x = self.zeros(1);
        let log = solver.apply(&self.tensor(1, &rhs(1)), &mut x).unwrap();
        (log.iterations(), tensor_bits(&x))
    }
}

fn spmv_cells<V: Value, I: Index>(e: &pg::dispatch::BindingEntry) {
    let c = Cell::<V, I>::new(e.format, &spd(N));
    let (m, name) = (&c.facade, &c.name);
    assert_eq!(
        (m.format(), m.dtype(), m.index_type()),
        (e.format, e.dtype, e.index_type)
    );
    assert_eq!(m.binding_name(e.op), e.mangled());
    assert_eq!((m.shape(), m.nnz()), ((N, N), c.csr.nnz()));
    m.validate().unwrap();

    let vals = rhs(2);
    let b = c.tensor(2, &vals);
    let mut want = Dense::zeros(&c.exec, Dim2::new(N, 2));
    c.op.apply(&dense::<V>(&c.exec, 2, &vals), &mut want)
        .unwrap();
    assert_eq!(
        tensor_bits(&m.spmv(&b).unwrap()),
        bits(&want),
        "{name} spmv"
    );
    let mut x = c.zeros(2);
    m.spmv_into(&b, &mut x).unwrap();
    assert_eq!(tensor_bits(&x), bits(&want), "{name} spmv_into");

    for (strategy, s) in [
        ("classical", SpmvStrategy::Classical),
        ("load_balance", SpmvStrategy::LoadBalance),
        ("merge", SpmvStrategy::MergePath),
        ("merge_path", SpmvStrategy::MergePath),
        ("auto", SpmvStrategy::Auto),
    ] {
        let with = m.with_spmv_strategy(strategy).unwrap();
        assert_eq!((with.format(), with.nnz()), (e.format, m.nnz()));
        // COO is nnz-partitioned whatever the name: the strategy is a no-op.
        let mut want = Dense::zeros(&c.exec, Dim2::new(N, 2));
        let bd = dense::<V>(&c.exec, 2, &vals);
        match e.format {
            pg::MatrixFormat::Csr => (*c.csr).clone().with_strategy(s).apply(&bd, &mut want),
            pg::MatrixFormat::Coo => c.op.apply(&bd, &mut want),
        }
        .unwrap();
        assert_eq!(
            tensor_bits(&with.spmv(&b).unwrap()),
            bits(&want),
            "{name} {strategy}"
        );
    }

    assert_eq!(
        tensor_bits(&m.to_dense()),
        bits(&c.csr.to_dense()),
        "{name} to_dense"
    );
    assert_eq!(facade_entries(m), stored_bits(&c.csr), "{name} to_triplets");
}

fn convert_cells<V: Value, I: Index>(e: &pg::dispatch::BindingEntry) {
    let c = Cell::<V, I>::new(e.format, &spd(N));
    let (m, name) = (&c.facade, &c.name);
    let (here, there) = match e.format {
        pg::MatrixFormat::Csr => ("Csr", "Coo"),
        pg::MatrixFormat::Coo => ("Coo", "Csr"),
    };
    let same = m.convert(here).unwrap();
    assert_eq!(
        (same.format(), facade_entries(&same)),
        (e.format, facade_entries(m))
    );

    let other = m.convert(there).unwrap();
    assert_ne!(other.format(), e.format);
    assert_eq!((other.dtype(), other.index_type()), (e.dtype, e.index_type));
    other.validate().unwrap();
    assert_eq!(
        facade_entries(&other),
        stored_bits(&c.csr),
        "{name} -> {there}"
    );
    // The converted operator multiplies like the engine's conversion does.
    let converted: Arc<dyn LinOp<V>> = match e.format {
        pg::MatrixFormat::Csr => Arc::new(Coo::from_csr(&c.csr)),
        pg::MatrixFormat::Coo => c.csr.clone(),
    };
    let vals = rhs(1);
    let mut want = Dense::zeros(&c.exec, Dim2::new(N, 1));
    converted
        .apply(&dense::<V>(&c.exec, 1, &vals), &mut want)
        .unwrap();
    let got = other.spmv(&c.tensor(1, &vals)).unwrap();
    assert_eq!(tensor_bits(&got), bits(&want), "{name} -> {there} spmv");

    let back = other.convert(here).unwrap();
    assert_eq!(back.format(), e.format);
    assert_eq!(facade_entries(&back), facade_entries(m), "{name} and back");
    assert_eq!(tensor_bits(&back.to_dense()), tensor_bits(&m.to_dense()));
}

fn solve_cells<V: Value, I: Index>(e: &pg::dispatch::BindingEntry) {
    let c = Cell::<V, I>::new(e.format, &spd(N));
    let (m, dev, name) = (&c.facade, &c.dev, &c.name);
    let criteria = Criteria::iterations_and_reduction(MAX_ITERS, REDUCTION);

    // Preconditioners x Krylov solvers: same iteration count, same solution.
    type Generated<V> = (pg::preconditioner::Preconditioner, Arc<dyn LinOp<V>>);
    let preconditioners: [(&str, Generated<V>); 4] = [
        (
            "jacobi",
            (
                pg::preconditioner::jacobi(dev, m).unwrap(),
                Arc::new(Jacobi::with_block_size(&*c.csr, 1).unwrap()),
            ),
        ),
        (
            "jacobi(2)",
            (
                pg::preconditioner::jacobi_with_block_size(dev, m, 2).unwrap(),
                Arc::new(Jacobi::with_block_size(&*c.csr, 2).unwrap()),
            ),
        ),
        (
            "ilu",
            (
                pg::preconditioner::ilu(dev, m).unwrap(),
                Arc::new(Ilu::new(&c.csr).unwrap()),
            ),
        ),
        (
            "ic",
            (
                pg::preconditioner::ic(dev, m).unwrap(),
                Arc::new(Ic::new(&c.csr).unwrap()),
            ),
        ),
    ];
    for (pname, (facade_pre, engine_pre)) in preconditioners {
        let cg = Cg::new(c.op.clone())
            .unwrap()
            .with_criteria(criteria)
            .with_preconditioner(engine_pre.clone())
            .unwrap();
        let solver =
            pg::solver::cg(dev, m, Some(facade_pre.clone()), MAX_ITERS, REDUCTION).unwrap();
        let got = c.facade_solve(&solver);
        assert!(got.0 > 0, "{name} cg + {pname} iterates");
        assert_eq!(
            got,
            c.engine_solve(&cg, Some(cg.logger())),
            "{name} cg + {pname}"
        );

        let gmres = Gmres::new(c.op.clone())
            .unwrap()
            .with_krylov_dim(KRYLOV_DIM)
            .with_criteria(criteria)
            .with_preconditioner(engine_pre)
            .unwrap();
        let solver =
            pg::solver::gmres(dev, m, Some(facade_pre), MAX_ITERS, KRYLOV_DIM, REDUCTION).unwrap();
        assert_eq!(
            c.facade_solve(&solver),
            c.engine_solve(&gmres, Some(gmres.logger())),
            "{name} gmres + {pname}"
        );
    }

    // Direct and triangular solves (the triangles as their own matrices).
    let direct = pg::solver::direct(dev, m).unwrap();
    assert_eq!(
        c.facade_solve(&direct).1,
        c.engine_solve(&Direct::new(&*c.csr).unwrap(), None).1,
        "{name} direct"
    );
    let lower: Vec<_> = spd(N).into_iter().filter(|&(r, col, _)| col <= r).collect();
    let l = Cell::<V, I>::new(e.format, &lower);
    let solver = pg::solver::lower_trs(dev, &l.facade).unwrap();
    assert_eq!(
        l.facade_solve(&solver).1,
        l.engine_solve(&LowerTrs::new(l.csr.clone()).unwrap(), None)
            .1,
        "{name} lower_trs"
    );
    let upper: Vec<_> = spd(N).into_iter().filter(|&(r, col, _)| col >= r).collect();
    let u = Cell::<V, I>::new(e.format, &upper);
    let solver = pg::solver::upper_trs(dev, &u.facade).unwrap();
    assert_eq!(
        u.facade_solve(&solver).1,
        u.engine_solve(&UpperTrs::new(u.csr.clone()).unwrap(), None)
            .1,
        "{name} upper_trs"
    );

    // The config path: options -> JSON -> tree, and a tree handed in.
    let options = pg::config_solver::SolveOptions {
        max_iters: MAX_ITERS,
        krylov_dim: KRYLOV_DIM,
        ..Default::default()
    };
    let tree = Config::from_json(&options.to_json().unwrap()).unwrap();
    let configured = config_solve(c.csr.clone(), &tree).unwrap();
    let mut x = c.zeros(1);
    let log = pg::solve(m, &c.tensor(1, &rhs(1)), &mut x, &options).unwrap();
    assert_eq!(
        (log.iterations(), tensor_bits(&x)),
        c.engine_solve(&*configured.op, Some(&configured.logger)),
        "{name} solve"
    );
    let tree = Config::map()
        .with("type", "solver::Cg")
        .with(
            "preconditioner",
            Config::map().with("type", "preconditioner::Ilu"),
        )
        .with(
            "criteria",
            vec![
                Config::map()
                    .with("type", "Iteration")
                    .with("max_iters", MAX_ITERS),
                Config::map()
                    .with("type", "ResidualNorm")
                    .with("reduction_factor", REDUCTION),
            ],
        );
    let configured = config_solve(c.csr.clone(), &tree).unwrap();
    let mut x = c.zeros(1);
    let log =
        pg::config_solver::solve_with_config(m, &c.tensor(1, &rhs(1)), &mut x, &tree).unwrap();
    assert_eq!(
        (log.iterations(), tensor_bits(&x)),
        c.engine_solve(&*configured.op, Some(&configured.logger)),
        "{name} solve_with_config"
    );

    // The batched solve: CSR only, COO keeps its type error.
    let solver = pg::solver::cg(dev, m, None, MAX_ITERS, REDUCTION).unwrap();
    let vals = rhs(2);
    let mut x = c.zeros(2);
    let got = solver.solve_batch(&c.tensor(2, &vals), &mut x);
    if e.format == pg::MatrixFormat::Coo {
        assert!(
            matches!(got, Err(pg::PyGinkgoError::Type(_))),
            "{name} solve_batch: {got:?}"
        );
        return;
    }
    let batch = Arc::new(BatchCsr::replicated(&*c.csr, 2).unwrap());
    let mut bb = BatchDense::<V>::zeros(&c.exec, 2, Dim2::new(N, 1));
    let mut xb = BatchDense::<V>::zeros(&c.exec, 2, Dim2::new(N, 1));
    for s in 0..2 {
        for i in 0..N {
            bb.system_mut(s)[i] = V::from_f64(vals[i * 2 + s]);
        }
    }
    let record = BatchCg::new(batch)
        .unwrap()
        .with_criteria(criteria)
        .apply_batch(&bb, &mut xb)
        .unwrap();
    let want_iters: Vec<usize> = record.outcomes.iter().map(|o| o.iterations).collect();
    let want_x: Vec<u64> = (0..N * 2)
        .map(|k| xb.system(k % 2)[k / 2].to_f64().to_bits())
        .collect();
    assert_eq!(
        (got.unwrap().iterations, tensor_bits(&x)),
        (want_iters, want_x),
        "{name} batch"
    );
}

fn from_triplets_cells<V: Value, I: Index>(e: &pg::dispatch::BindingEntry) {
    from_triplets_cell::<V, I>(e.format.name());
}

/// Walks `pg::dispatch::registry()` and drives every entry's operation
/// through the facade against the engine called with the entry's concrete
/// types. A registry operation without a driver here is a failure.
#[test]
fn every_registry_entry_matches_the_engine_bit_for_bit() {
    let registry = pg::dispatch::registry();
    assert_eq!(registry.len(), pg::dispatch::OPS.len() * 12);
    for e in &registry {
        let (dtype, itype) = (e.dtype.name(), e.index_type.name());
        match e.op {
            "from_triplets" => with_engine_types!(dtype, itype, from_triplets_cells(e)),
            "spmv" => with_engine_types!(dtype, itype, spmv_cells(e)),
            "convert" => with_engine_types!(dtype, itype, convert_cells(e)),
            "solve" => with_engine_types!(dtype, itype, solve_cells(e)),
            other => panic!("registry operation '{other}' has no driver"),
        }
    }
}

// ---------------------------------------------------------------------------
// GIL crossings per public call
// ---------------------------------------------------------------------------

/// `gil::total_calls()` deltas, collected so a failure prints the whole table.
#[derive(Default)]
struct Crossings {
    wrong: Vec<String>,
}

impl Crossings {
    fn call<R>(&mut self, what: &str, expected: u64, f: impl FnOnce() -> R) -> R {
        let before = pg::gil::total_calls();
        let out = f();
        let got = pg::gil::total_calls() - before;
        if got != expected {
            self.wrong
                .push(format!("{what}: {got} crossings, expected {expected}"));
        }
        out
    }
}

/// Every `binding_call` charges `BINDING_CALL_NS` to the virtual timeline
/// Fig. 5b/5c are drawn from, so how often each public call crosses the
/// binding boundary is part of the facade's contract. The test holds the
/// (reentrant) GIL through an outer crossing, so no other test's calls can
/// land between two reads of the counter.
#[test]
fn gil_crossings_per_public_call() {
    use pg::config_solver::{solve_default, solve_with_config, SolveOptions};
    use pg::{preconditioner, solver};

    pg::gil::binding_call_nodevice(|| {
        let dev = pg::device("reference").unwrap();
        let dir = std::env::temp_dir().join("pyginkgo_gil_crossings");
        std::fs::create_dir_all(&dir).unwrap();
        let (mtx_path, cfg_path) = (dir.join("a.mtx"), dir.join("solver.json"));
        let t = spd(N);
        let mut c = Crossings::default();

        let csr = c.call("from_triplets", 1, || {
            pg::SparseMatrix::from_triplets(&dev, (N, N), &t, "double", "int32", "Csr").unwrap()
        });
        let coo = c.call("convert", 1, || csr.convert("Coo").unwrap());
        c.call("convert to the same format", 1, || {
            csr.convert("Csr").unwrap()
        });
        let b = c.call("as_tensor", 1, || {
            pg::as_tensor(rhs(1), &dev, (N, 1), "double").unwrap()
        });
        let mut x = c.call("as_tensor_fill", 1, || {
            pg::as_tensor_fill(&dev, (N, 1), "double", 0.0).unwrap()
        });
        c.call("shape/nnz/dtype/format/binding_name", 0, || {
            (
                csr.shape(),
                csr.nnz(),
                csr.dtype(),
                csr.format(),
                csr.binding_name("spmv"),
            )
        });
        c.call("validate", 0, || csr.validate().unwrap());
        c.call("with_spmv_strategy", 0, || {
            csr.with_spmv_strategy("merge").unwrap()
        });
        c.call("spmv", 2, || csr.spmv(&b).unwrap());
        c.call("spmv_into", 1, || csr.spmv_into(&b, &mut x).unwrap());
        c.call("spmv_into on COO", 1, || coo.spmv_into(&b, &mut x).unwrap());
        c.call("to_dense", 1, || csr.to_dense());
        c.call("to_triplets", 1, || csr.to_triplets());
        c.call("write", 1, || pg::write(&csr, &mtx_path).unwrap());
        c.call("read", 1, || {
            pg::read(&dev, &mtx_path, "double", "Csr").unwrap()
        });

        c.call("Tensor::to_vec", 1, || b.to_vec());
        c.call("Tensor::get/shape/dtype", 0, || {
            (b.get(0, 0).unwrap(), b.shape(), b.dtype())
        });
        c.call("Tensor::dot", 1, || b.dot(&b).unwrap());
        c.call("Tensor::norm", 1, || b.norm());
        c.call("Tensor::add_scaled", 1, || x.add_scaled(1.0, &b).unwrap());
        c.call("Tensor::scale", 1, || x.scale(0.5));
        c.call("Tensor::fill", 1, || x.fill(0.0));
        c.call("Tensor::astype", 1, || b.astype("float").unwrap());
        c.call("Tensor::to_device", 1, || b.to_device(&dev));

        for (format, m, converts) in [("CSR", &csr, 0), ("COO", &coo, 1)] {
            let pre = c.call(&format!("jacobi on {format}"), 1 + converts, || {
                preconditioner::jacobi(&dev, m).unwrap()
            });
            c.call(
                &format!("jacobi_with_block_size on {format}"),
                1 + converts,
                || preconditioner::jacobi_with_block_size(&dev, m, 2).unwrap(),
            );
            c.call(&format!("ilu on {format}"), 1 + converts, || {
                preconditioner::ilu(&dev, m).unwrap()
            });
            c.call(&format!("ic on {format}"), 1 + converts, || {
                preconditioner::ic(&dev, m).unwrap()
            });
            let cg = c.call(&format!("cg on {format}"), 1, || {
                solver::cg(&dev, m, Some(pre.clone()), MAX_ITERS, REDUCTION).unwrap()
            });
            c.call(&format!("gmres on {format}"), 1, || {
                solver::gmres(&dev, m, Some(pre.clone()), MAX_ITERS, KRYLOV_DIM, REDUCTION).unwrap()
            });
            c.call(&format!("cgs on {format}"), 1, || {
                solver::cgs(&dev, m, None, MAX_ITERS, REDUCTION).unwrap()
            });
            c.call(&format!("bicgstab on {format}"), 1, || {
                solver::bicgstab(&dev, m, None, MAX_ITERS, REDUCTION).unwrap()
            });
            c.call(&format!("krylov_fixed_iters on {format}"), 1, || {
                solver::krylov_fixed_iters(&dev, m, "cg", 5, KRYLOV_DIM).unwrap()
            });
            c.call(&format!("Solver::apply on {format}"), 1, || {
                cg.apply(&b, &mut x).unwrap()
            });
            let direct = c.call(&format!("direct on {format}"), 1 + converts, || {
                solver::direct(&dev, m).unwrap()
            });
            c.call(&format!("direct Solver::apply on {format}"), 1, || {
                direct.apply(&b, &mut x).unwrap()
            });
            c.call(&format!("lower_trs on {format}"), 1 + converts, || {
                solver::lower_trs(&dev, m).unwrap()
            });
            c.call(&format!("upper_trs on {format}"), 1 + converts, || {
                solver::upper_trs(&dev, m).unwrap()
            });
            c.call(&format!("solve on {format}"), 1 + converts, || {
                pg::solve(m, &b, &mut x, &SolveOptions::default()).unwrap()
            });
            c.call(&format!("solve_default on {format}"), 1 + converts, || {
                solve_default(&dev, m, &b, &mut x).unwrap()
            });
            let tree = SolveOptions::default().to_config().unwrap();
            c.call(
                &format!("solve_with_config on {format}"),
                1 + converts,
                || solve_with_config(m, &b, &mut x, &tree).unwrap(),
            );
            std::fs::write(&cfg_path, tree.to_json()).unwrap();
            c.call(
                &format!("solve_from_config_file on {format}"),
                1 + converts,
                || pg::solve_from_config_file(m, &b, &mut x, &cfg_path).unwrap(),
            );
            let plain = solver::cg(&dev, m, None, MAX_ITERS, REDUCTION).unwrap();
            let b2 = pg::as_tensor(rhs(2), &dev, (N, 2), "double").unwrap();
            let mut x2 = pg::as_tensor_fill(&dev, (N, 2), "double", 0.0).unwrap();
            c.call(&format!("solve_batch on {format}"), 1, || {
                plain.solve_batch(&b2, &mut x2).is_ok()
            });
        }

        let conv = c.call("conv2d", 1, || {
            pg::conv2d(&dev, (4, 6), (1, 1), &[2.0], "double").unwrap()
        });
        c.call("Conv2dOp::apply", 2, || conv.apply(&b).unwrap());

        assert!(c.wrong.is_empty(), "{:#?}", c.wrong);
    });
}
