//! Facade-vs-engine parity: the binding layer must change *costs*, never
//! *results* — the premise of the paper's §6.3 overhead study.

use gko::linop::LinOp;
use gko::matrix::{Csr, Dense};
use gko::{Dim2, Executor};
use pyginkgo as pg;
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

/// The facade hands its `f64` triplets straight to the assembler, which
/// rounds each value on the way into the typed array. For every cell of the
/// dispatch table that must store exactly what assembling a pre-rounded copy
/// of the list stores: same entries, same duplicate sums, bit for bit.
#[test]
fn from_triplets_stores_what_assembling_rounded_triplets_stores() {
    use gko::matrix::Coo;
    use gko::{Index, Value};
    use pygko_half::Half;

    fn engine<V: Value, I: Index>(
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
        let (rp, ci, v) = (csr.row_ptrs(), csr.col_idxs(), csr.values());
        (0..n)
            .flat_map(|r| (rp[r].to_usize()..rp[r + 1].to_usize()).map(move |k| (r, k)))
            .map(|(r, k)| (r, ci[k].to_usize(), v[k].to_f64().to_bits()))
            .collect()
    }

    // Out of order, every entry three times with values whose sum depends on
    // the order in f32 and half (none sums to zero, which `to_triplets` drops).
    let n = 60;
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
    let dev = pg::device("reference").unwrap();
    for format in ["Csr", "Coo"] {
        for dtype in ["half", "float", "double"] {
            for itype in ["int32", "int64"] {
                let m = pg::SparseMatrix::from_triplets(&dev, (n, n), &t, dtype, itype, format)
                    .unwrap();
                let got: Vec<_> = m
                    .to_triplets()
                    .iter()
                    .map(|&(r, c, v)| (r, c, v.to_bits()))
                    .collect();
                let coo = format == "Coo";
                let want = match (dtype, itype) {
                    ("half", "int32") => engine::<Half, i32>(n, &t, coo),
                    ("half", _) => engine::<Half, i64>(n, &t, coo),
                    ("float", "int32") => engine::<f32, i32>(n, &t, coo),
                    ("float", _) => engine::<f32, i64>(n, &t, coo),
                    (_, "int32") => engine::<f64, i32>(n, &t, coo),
                    _ => engine::<f64, i64>(n, &t, coo),
                };
                assert_eq!(got.len(), triplets(n).len());
                assert_eq!(got, want, "{format}/{dtype}/{itype}");
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
    let m = pg::SparseMatrix::from_triplets(
        &dev,
        (4, 4),
        &triplets(4),
        "double",
        "int32",
        "Csr",
    )
    .unwrap();
    let b = pg::as_tensor_fill(&dev, (4, 1), "double", 1.0).unwrap();
    let _ = m.spmv(&b).unwrap();
    let calls = pg::gil::total_calls() - before;
    assert!(calls >= 3, "construction + tensor + spmv crossings, got {calls}");
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
