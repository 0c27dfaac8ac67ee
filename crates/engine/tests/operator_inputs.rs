//! What every operator checks of its inputs.
//!
//! Operands: each engine `LinOp` refuses a `b` or an `x` that lives outside
//! its memory space with `ExecutorMismatch`, on every path it has (one and
//! several columns, scalar and block Jacobi), rather than reading host
//! memory a device vector stands for.
//!
//! Generation: a malformed matrix handed to a generating operator (ILU, IC,
//! the direct solver, a triangular solve) is refused with `BadInput` before
//! anything indexes through it.

use gko::linop::{Composition, Identity};
use gko::matrix::{Conv2d, Coo, Csr, Dense, Diagonal, Ell, Hybrid, Sellp};
use gko::preconditioner::{Ic, Ilu, Jacobi};
use gko::solver::{Cg, Direct, Gmres, LowerTrs, UpperTrs};
use gko::{Dim2, Executor, GkoError, LinOp};
use std::sync::Arc;

/// A 4 x 4 SPD tridiagonal matrix on `exec`.
fn spd(exec: &Executor) -> Csr<f64, i32> {
    let mut t = vec![];
    for i in 0..4 {
        t.push((i, i, 4.0));
        if i > 0 {
            t.extend([(i, i - 1, -1.0), (i - 1, i, -1.0)]);
        }
    }
    Csr::from_triplets(exec, Dim2::square(4), &t).unwrap()
}

/// Every engine operator, built on `exec`, with the most columns it applies
/// to at once (the iterative solvers take one).
fn operators(exec: &Executor) -> Vec<(&'static str, Arc<dyn LinOp<f64>>, usize)> {
    let a = spd(exec);
    let system: Arc<dyn LinOp<f64>> = Arc::new(spd(exec));
    let diagonal = Arc::new(Diagonal::new(exec, vec![1.0, 2.0, 3.0, 4.0]));
    let conv = Conv2d::new(exec, (2, 2), (3, 3), vec![0.5; 9]).unwrap();
    vec![
        ("identity", Identity::new(exec, 4), 2),
        (
            "composition",
            Composition::new(diagonal.clone(), system.clone()).unwrap(),
            2,
        ),
        ("dense", Arc::new(a.to_dense()), 2),
        ("csr", system.clone(), 2),
        ("coo", Arc::new(Coo::from_csr(&a)), 2),
        ("ell", Arc::new(Ell::from_csr(&a)), 2),
        ("sellp", Arc::new(Sellp::from_csr(&a)), 2),
        ("hybrid", Arc::new(Hybrid::from_csr(&a)), 2),
        ("diagonal", diagonal, 2),
        ("conv2d", Arc::new(conv), 2),
        ("jacobi", Arc::new(Jacobi::new(&a).unwrap()), 2),
        (
            "block jacobi",
            Arc::new(Jacobi::with_block_size(&a, 2).unwrap()),
            2,
        ),
        ("ilu", Arc::new(Ilu::new(&a).unwrap()), 2),
        ("ic", Arc::new(Ic::new(&a).unwrap()), 2),
        (
            "lower trs",
            Arc::new(LowerTrs::new(Arc::new(spd(exec))).unwrap()),
            2,
        ),
        (
            "upper trs",
            Arc::new(UpperTrs::new(Arc::new(spd(exec))).unwrap()),
            2,
        ),
        ("direct", Arc::new(Direct::new(&a).unwrap()), 2),
        ("cg", Arc::new(Cg::new(system.clone()).unwrap()), 1),
        ("gmres", Arc::new(Gmres::new(system).unwrap()), 1),
    ]
}

#[test]
fn every_operator_refuses_operands_outside_its_memory_space() {
    let host = Executor::reference();
    let device = Executor::cuda(0);
    for (name, op, max_cols) in operators(&host) {
        for k in 1..=max_cols {
            let dim = Dim2::new(4, k);
            let b = Dense::<f64>::filled(&host, dim, 1.0);
            let mut x = Dense::<f64>::zeros(&host, dim);
            op.apply(&b, &mut x)
                .unwrap_or_else(|e| panic!("{name}, {k} columns, on the host: {e}"));
            let far_b = Dense::<f64>::filled(&device, dim, 1.0);
            let mut far_x = Dense::<f64>::zeros(&device, dim);
            for (what, result) in [
                ("b", op.apply(&far_b, &mut x)),
                ("x", op.apply(&b, &mut far_x)),
            ] {
                assert!(
                    matches!(result, Err(GkoError::ExecutorMismatch { .. })),
                    "{name}, {k} columns, {what} on the device: {result:?}"
                );
            }
        }
    }
}

#[test]
fn generation_refuses_a_malformed_matrix() {
    let exec = Executor::reference();
    // Row 1 names column 7 of a 3 x 3 matrix.
    let bad = Csr::<f64, i32>::from_raw_unchecked(
        &exec,
        Dim2::square(3),
        vec![0, 1, 3, 4],
        vec![0, 1, 7, 2],
        vec![2.0, 1.0, 1.0, 2.0],
    );
    let refused = |name: &str, result: Result<(), GkoError>| {
        assert!(
            matches!(result, Err(GkoError::BadInput(_))),
            "{name}: {result:?}"
        );
    };
    refused("ilu", Ilu::new(&bad).map(drop));
    refused("ic", Ic::new(&bad).map(drop));
    refused("direct", Direct::<f64>::new(&bad).map(drop));
    refused("lower trs", LowerTrs::new(Arc::new(bad)).map(drop));
}
