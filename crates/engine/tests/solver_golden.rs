//! Golden trajectories for the eight iterative solvers.
//!
//! Every solver runs on one fixed SPD and one fixed unsymmetric system, with
//! and without Jacobi where the method takes a preconditioner, on the
//! reference executor and on `omp(7)`. Iteration count, stop reason, every
//! residual-history entry (as `f64::to_bits`), a fingerprint of the solution
//! vector and the number of criterion checks are pinned in [`GOLDEN`]. The
//! table was printed by `print_golden_table` from the hand-rolled solve
//! loops that preceded the shared solver shell; a refactor of the solver
//! layer must leave every bit equal. Regenerate (only for a deliberate
//! numerical change) with
//!
//! ```text
//! cargo test -p gko --test solver_golden -- --ignored --nocapture print_golden_table
//! ```
//!
//! The same runs assert the event contract of a solve: one
//! `IterationComplete` per counted iteration and exactly one
//! `SolveCompleted`. The three edge cases every solver shares — iteration
//! limit, zero right-hand side, shape mismatch — are tabled here over all
//! eight solvers instead of living in some solvers' unit tests.

use gko::linop::LinOp;
use gko::log::{ConvergenceLogger, Event, Record};
use gko::matrix::{Csr, Dense};
use gko::preconditioner::Jacobi;
use gko::solver::{BiCgStab, Cg, Cgs, Fcg, Gmres, Ir, Minres, MixedIr};
use gko::stop::{Criteria, StopReason};
use gko::{Dim2, Executor};
use std::sync::Arc;

/// Grid edge: 8 x 8 = 64 unknowns, several chunks per dense op on `omp(7)`.
const GRID: usize = 8;
const MAX_ITERS: usize = 36;
const REDUCTION: f64 = 1e-9;

/// 5-point stencil with a row-dependent diagonal (so Jacobi is not a scalar
/// scaling). `skew = 0` gives an SPD matrix; `skew != 0` weakens the west and
/// north couplings and strengthens east and south — convection–diffusion
/// like, unsymmetric.
fn stencil(exec: &Executor, skew: f64) -> Arc<Csr<f64, i32>> {
    let g = GRID;
    let mut t = Vec::new();
    for i in 0..g {
        for j in 0..g {
            let r = i * g + j;
            t.push((r, r, 4.0 + 0.5 * (r % 5) as f64));
            if i > 0 {
                t.push((r, r - g, -1.0 + skew));
            }
            if i + 1 < g {
                t.push((r, r + g, -1.0 - skew));
            }
            if j > 0 {
                t.push((r, r - 1, -1.0 + skew));
            }
            if j + 1 < g {
                t.push((r, r + 1, -1.0 - skew));
            }
        }
    }
    Arc::new(Csr::from_triplets(exec, Dim2::square(g * g), &t).unwrap())
}

fn rhs(exec: &Executor, n: usize) -> Dense<f64> {
    let mut b = Dense::zeros(exec, Dim2::new(n, 1));
    for i in 0..n {
        b.set(
            i,
            0,
            1.0 + 0.25 * ((i % 7) as f64) - 0.125 * ((i % 3) as f64),
        );
    }
    b
}

/// A built solver behind the two handles every case needs.
type Built = (Arc<dyn LinOp<f64>>, ConvergenceLogger);

/// Builds solver `kind` on `a`. `jacobi` is only passed for kinds that take
/// a preconditioner; `record`, when given, observes the solver's events.
fn solver_under_test(
    kind: &str,
    a: &Arc<Csr<f64, i32>>,
    criteria: Criteria,
    jacobi: bool,
    record: Option<Arc<Record>>,
) -> Built {
    let system = a.clone() as Arc<dyn LinOp<f64>>;
    let precond = || Arc::new(Jacobi::new(&**a).unwrap()) as Arc<dyn LinOp<f64>>;
    macro_rules! finish {
        ($solver:expr) => {{
            let s = $solver.with_criteria(criteria);
            if let Some(r) = record {
                s.add_logger(r);
            }
            let logger = s.logger().clone();
            (Arc::new(s) as Arc<dyn LinOp<f64>>, logger)
        }};
    }
    macro_rules! krylov {
        ($ctor:ident) => {{
            let s = $ctor::new(system).unwrap();
            finish!(if jacobi {
                s.with_preconditioner(precond()).unwrap()
            } else {
                s
            })
        }};
    }
    match kind {
        "cg" => krylov!(Cg),
        "fcg" => krylov!(Fcg),
        "cgs" => krylov!(Cgs),
        "bicgstab" => krylov!(BiCgStab),
        "gmres" => {
            // A short restart so the solve crosses several restarts.
            let s = Gmres::new(system).unwrap().with_krylov_dim(9);
            finish!(if jacobi {
                s.with_preconditioner(precond()).unwrap()
            } else {
                s
            })
        }
        "ir" => {
            let s = Ir::new(system).unwrap().with_relaxation(0.25);
            finish!(if jacobi {
                s.with_solver(precond()).unwrap()
            } else {
                s
            })
        }
        "minres" => finish!(Minres::new(system).unwrap()),
        "mixed_ir" => finish!(MixedIr::<f64, f32>::new(a.clone())
            .unwrap()
            .with_inner_iterations(4)),
        other => panic!("unknown solver kind {other}"),
    }
}

/// Solver kinds and whether they take a preconditioner.
const KINDS: [(&str, bool); 8] = [
    ("cg", true),
    ("fcg", true),
    ("cgs", true),
    ("bicgstab", true),
    ("gmres", true),
    ("ir", true),
    ("minres", false),
    ("mixed_ir", false),
];

/// What one solve is pinned on.
#[derive(Debug, PartialEq)]
struct Trajectory {
    case: String,
    iterations: usize,
    stop: StopReason,
    /// `CriterionChecked` events the solve emitted.
    checks: usize,
    /// Order-sensitive fold of the solution vector's bits.
    solution: u64,
    history: Vec<u64>,
}

fn executors() -> [(&'static str, Executor); 2] {
    [
        ("reference", Executor::reference()),
        ("omp7", Executor::omp(7)),
    ]
}

/// Runs every (solver, system, preconditioner, executor) case, asserting the
/// per-solve event contract on the way.
fn trajectories() -> Vec<Trajectory> {
    let mut out = Vec::new();
    for (exec_name, exec) in executors() {
        for (sys_name, skew) in [("spd", 0.0), ("unsym", 0.35)] {
            let a = stencil(&exec, skew);
            let n = a.size().rows;
            let b = rhs(&exec, n);
            for (kind, takes_precond) in KINDS {
                for jacobi in [false, true] {
                    if jacobi && !takes_precond {
                        continue;
                    }
                    let pname = if jacobi { "jacobi" } else { "plain" };
                    let case = format!("{kind}/{sys_name}/{pname}/{exec_name}");
                    let record = Arc::new(Record::new());
                    let criteria = Criteria::iterations_and_reduction(MAX_ITERS, REDUCTION);
                    let (op, logger) =
                        solver_under_test(kind, &a, criteria, jacobi, Some(record.clone()));
                    let mut x = Dense::zeros(&exec, Dim2::new(n, 1));
                    op.apply(&b, &mut x).unwrap();
                    let rec = logger.snapshot();

                    let events = record.events();
                    let count =
                        |pred: fn(&Event) -> bool| events.iter().filter(|e| pred(e)).count();
                    assert_eq!(
                        count(|e| matches!(e, Event::IterationComplete { .. })),
                        rec.iterations,
                        "{case}: one IterationComplete per counted iteration"
                    );
                    assert_eq!(
                        count(|e| matches!(e, Event::SolveCompleted { .. })),
                        1,
                        "{case}: exactly one SolveCompleted"
                    );
                    assert_eq!(
                        rec.residual_history.len(),
                        rec.iterations,
                        "{case}: history/iterations invariant"
                    );
                    out.push(Trajectory {
                        case,
                        iterations: rec.iterations,
                        stop: rec.stop_reason.expect("solve finished"),
                        checks: count(|e| matches!(e, Event::CriterionChecked { .. })),
                        solution: x
                            .to_host_vec()
                            .iter()
                            .fold(0u64, |h, v| h.rotate_left(5) ^ v.to_bits()),
                        history: rec.residual_history.iter().map(|r| r.to_bits()).collect(),
                    });
                }
            }
        }
    }
    out
}

#[test]
fn trajectories_match_the_golden_table() {
    let got = trajectories();
    assert_eq!(got.len(), GOLDEN.len(), "case count");
    for (g, want) in got.iter().zip(GOLDEN) {
        let want = Trajectory {
            case: want.0.to_string(),
            iterations: want.1,
            stop: want.2,
            checks: want.3,
            solution: want.4,
            history: want.5.to_vec(),
        };
        assert_eq!(*g, want, "{} drifted from its golden trajectory", g.case);
    }
}

/// Prints [`GOLDEN`] as Rust source (see the module docs).
#[test]
#[ignore = "generator for the GOLDEN table"]
fn print_golden_table() {
    println!("#[rustfmt::skip]\nconst GOLDEN: &[Golden] = &[");
    for t in trajectories() {
        println!(
            "    ({:?}, {}, StopReason::{:?}, {}, {:#018x}, &[",
            t.case, t.iterations, t.stop, t.checks, t.solution
        );
        for row in t.history.chunks(4) {
            let cells: Vec<String> = row.iter().map(|b| format!("{b:#018x}")).collect();
            println!("        {},", cells.join(", "));
        }
        println!("    ]),");
    }
    println!("];");
}

// ---------------------------------------------------------------------------
// Shared edge cases, one table over all eight solvers
// ---------------------------------------------------------------------------

/// Runs `check(label, executor, built solver)` for every solver kind on
/// both executors, unpreconditioned, on the SPD system.
fn for_each_solver(criteria: Criteria, check: impl Fn(&str, &Executor, Built)) {
    for (exec_name, exec) in executors() {
        let a = stencil(&exec, 0.0);
        for (kind, _) in KINDS {
            let label = format!("{kind}/{exec_name}");
            check(
                &label,
                &exec,
                solver_under_test(kind, &a, criteria, false, None),
            );
        }
    }
}

#[test]
fn iteration_limit_is_respected() {
    for_each_solver(
        Criteria::iterations_and_reduction(3, 1e-14),
        |label, exec, (op, logger)| {
            let n = op.size().rows;
            let mut x = Dense::zeros(exec, Dim2::new(n, 1));
            op.apply(&rhs(exec, n), &mut x).unwrap();
            let rec = logger.snapshot();
            assert_eq!(rec.iterations, 3, "{label}");
            assert_eq!(rec.stop_reason, Some(StopReason::MaxIterations), "{label}");
            assert_eq!(rec.residual_history.len(), 3, "{label}");
        },
    );
}

#[test]
fn zero_rhs_converges_immediately() {
    for_each_solver(Criteria::default(), |label, exec, (op, logger)| {
        let n = op.size().rows;
        let b = Dense::<f64>::zeros(exec, Dim2::new(n, 1));
        let mut x = Dense::zeros(exec, Dim2::new(n, 1));
        op.apply(&b, &mut x).unwrap();
        let rec = logger.snapshot();
        assert_eq!(rec.iterations, 0, "{label}");
        assert!(rec.converged(), "{label}: {:?}", rec.stop_reason);
        assert!(
            x.to_host_vec().iter().all(|v| *v == 0.0),
            "{label}: x untouched"
        );
    });
}

#[test]
fn shape_mismatch_is_an_error() {
    for_each_solver(Criteria::default(), |label, exec, (op, _)| {
        let n = op.size().rows;
        let short = Dense::<f64>::vector(exec, n / 2, 1.0);
        let full = Dense::<f64>::vector(exec, n, 1.0);
        let mut x = Dense::<f64>::vector(exec, n, 0.0);
        assert!(op.apply(&short, &mut x).is_err(), "{label}: short b");
        let mut short_x = Dense::<f64>::vector(exec, n / 2, 0.0);
        assert!(op.apply(&full, &mut short_x).is_err(), "{label}: short x");
    });
}

/// `(case, iterations, stop, criterion checks, solution fingerprint,
/// residual history bits)`.
type Golden = (&'static str, usize, StopReason, usize, u64, &'static [u64]);

#[rustfmt::skip]
const GOLDEN: &[Golden] = &[
    ("cg/spd/plain/reference", 23, StopReason::ResidualReduction, 24, 0x01f5a85061c929cb, &[
        0x40247abb657062ee, 0x401115b79fe521ac, 0x400313816840140c, 0x3fecd096474dce78,
        0x3fd76bf0ce885dca, 0x3fc0172eff617c79, 0x3fa6055fe6ae1380, 0x3f90ff29f239f706,
        0x3f7579552541bb0c, 0x3f621a89d0191036, 0x3f5172b05fa4b929, 0x3f41714ca6b60e60,
        0x3f2c841cbe8d827e, 0x3f141ded60c324f7, 0x3ef95608848ba2fa, 0x3ee294f4149ecd9c,
        0x3ed03fee53b35517, 0x3eba7037063e2da3, 0x3ea27b8c98a11d12, 0x3e83031fca68e723,
        0x3e69e6fd85c8b631, 0x3e56c6b994cb357f, 0x3e3ff8ab55ce0aca,
    ]),
    ("cg/spd/jacobi/reference", 22, StopReason::ResidualReduction, 23, 0x56f5217b7679d3d5, &[
        0x4022d2398df8cff0, 0x4010d093d2bf276f, 0x4000c19d11f96f54, 0x3fea87547b627d02,
        0x3fd40180f7c84153, 0x3fb8d1d82683bcdd, 0x3f9fbe2677812a40, 0x3f8a66846614b657,
        0x3f704987572c581a, 0x3f5b39c41510c622, 0x3f4f6ee447517f47, 0x3f3684121204759a,
        0x3f201f8e1b66e474, 0x3f05a7d91738e442, 0x3ef00b5ccee0ddee, 0x3edfd202e7ee7353,
        0x3ec1e783a114efea, 0x3ea4723953b34dd5, 0x3e859385182b15a5, 0x3e66c0f9bfd704f2,
        0x3e5162ca08547448, 0x3e3689b1f4a811ce,
    ]),
    ("fcg/spd/plain/reference", 23, StopReason::ResidualReduction, 24, 0x0455a2d2d08fc9f4, &[
        0x40247abb657062ee, 0x401115b79fe521ad, 0x400313816840140f, 0x3fecd096474dce7e,
        0x3fd76bf0ce885dd2, 0x3fc0172eff617c7c, 0x3fa6055fe6ae1381, 0x3f90ff29f239f708,
        0x3f7579552541bb0b, 0x3f621a89d0191033, 0x3f5172b05fa4b920, 0x3f41714ca6b60e57,
        0x3f2c841cbe8d8279, 0x3f141ded60c324f7, 0x3ef95608848ba2f8, 0x3ee294f4149ecd98,
        0x3ed03fee53b35511, 0x3eba7037063e2d9f, 0x3ea27b8c98a11d11, 0x3e83031fca68e725,
        0x3e69e6fd85c8b631, 0x3e56c6b994cb356d, 0x3e3ff8ab55ce0a58,
    ]),
    ("fcg/spd/jacobi/reference", 22, StopReason::ResidualReduction, 23, 0xcbae30db7fe1ec4b, &[
        0x4022d2398df8cff0, 0x4010d093d2bf276e, 0x4000c19d11f96f56, 0x3fea87547b627d06,
        0x3fd40180f7c84156, 0x3fb8d1d82683bce3, 0x3f9fbe2677812a42, 0x3f8a66846614b658,
        0x3f704987572c5819, 0x3f5b39c41510c60f, 0x3f4f6ee447517f36, 0x3f3684121204759d,
        0x3f201f8e1b66e474, 0x3f05a7d91738e434, 0x3ef00b5ccee0ddfb, 0x3edfd202e7ee738c,
        0x3ec1e783a114efaa, 0x3ea4723953b34e7e, 0x3e859385182b1589, 0x3e66c0f9bfd7033a,
        0x3e5162ca0854742c, 0x3e3689b1f4a81082,
    ]),
    ("cgs/spd/plain/reference", 14, StopReason::ResidualReduction, 15, 0x9c02137300f05ba2, &[
        0x403d7a94d9b22870, 0x4016aa298c8ce447, 0x40012c1128904448, 0x3fcdd8d2820d1b5e,
        0x3fa33612fb46ee4c, 0x3f793c38f5e6c0f6, 0x3f43928d2cf67b40, 0x3f1530d34396a4b8,
        0x3ef244bd2087933f, 0x3ed5d0ade1231217, 0x3eb9ceec2bdd8c96, 0x3e910c3ba58104d2,
        0x3e5b14e8758ac5c4, 0x3e348b3002be0115,
    ]),
    ("cgs/spd/jacobi/reference", 13, StopReason::ResidualReduction, 14, 0x4129f3b4d2597e4f, &[
        0x403ccfae860c4fe6, 0x40182e03f73ee334, 0x3ffa64fae782b250, 0x3fc8ac69f079ef62,
        0x3fa3f92ab6fe5f07, 0x3f6e76e676ccba5c, 0x3f35a75cca6ce153, 0x3f161740c3f1600b,
        0x3ef10bc8883cb6a1, 0x3ed0733e7de120f8, 0x3eb0f1650837a7b2, 0x3e70fe571890f47f,
        0x3e450d898f3dc511,
    ]),
    ("bicgstab/spd/plain/reference", 14, StopReason::ResidualReduction, 29, 0x3c040e8cd3239f7b, &[
        0x400f1be3727d8e5e, 0x3ff5b6a093746eca, 0x3fd9b9b27f506a95, 0x3fb1d62b00765cea,
        0x3f8943c96a86e9c9, 0x3f5f1738db47bc04, 0x3f3e6f14f1ddd449, 0x3f21226e9d8dc374,
        0x3f02fbda422d2e6f, 0x3eeb64cca4a6918e, 0x3ecf804f1576e0c3, 0x3eabb617d2539e80,
        0x3e78301b9a66f383, 0x3e444e258eb9a63b,
    ]),
    ("bicgstab/spd/jacobi/reference", 14, StopReason::ResidualReduction, 28, 0xf5d8f24a1e85083d, &[
        0x400da80d46388220, 0x3ff47d962ddbb032, 0x3fd3d1f439dcffba, 0x3fae2dc9da47fcf2,
        0x3f7f60f5dafe1744, 0x3f5150d2ee8b89fc, 0x3f32750929e7e717, 0x3f193d8e13711888,
        0x3f01235ee1178011, 0x3eead5d5d07f8f9a, 0x3ec9a3945f84fa25, 0x3e95fa30778b8b68,
        0x3e6764918630f9b4, 0x3e4c758e863410fe,
    ]),
    ("gmres/spd/plain/reference", 26, StopReason::ResidualReduction, 30, 0x5d600b14524552f0, &[
        0x402057647aa7780d, 0x400e48225a8e4da4, 0x400023f95d45e25b, 0x3fea50229329e15c,
        0x3fd565e96f31fd13, 0x3fbe1f554a9dea24, 0x3fa4aebf833241aa, 0x3f8f7150f362afeb,
        0x3f74526057799111, 0x3f63e47c9082d4a3, 0x3f524463a5aabff3, 0x3f40bfdbf5180229,
        0x3f2df3b22e12ad0d, 0x3f18fd750bf0bf10, 0x3f02678cd1dd5522, 0x3eec87fd975e4092,
        0x3ed660254ebe05bd, 0x3ec621e27398a0fe, 0x3ebae33c685e0689, 0x3ea9e6bc53b403ef,
        0x3e9a6390388e3966, 0x3e8ca20702d18c13, 0x3e7bccdc22f3e34e, 0x3e667547af6645bf,
        0x3e509bae8346d479, 0x3e3a5960de173766,
    ]),
    ("gmres/spd/jacobi/reference", 25, StopReason::ResidualReduction, 29, 0x10d5582b5e4357d5, &[
        0x401f49001aaf8dfa, 0x400d74f8e5402be0, 0x3ffd1b707e5025a3, 0x3fe840ee1f6fa965,
        0x3fd28af36d92b940, 0x3fb73efbf82efc6e, 0x3f9e03ce8aa964e1, 0x3f8843a34e7b8306,
        0x3f6ebd6e4d946a7e, 0x3f5df27677e43521, 0x3f4eb6c465e0c36a, 0x3f386827de155053,
        0x3f230565d6e4e1f6, 0x3f0eac75ca7c7034, 0x3ef5eb7576bd9f97, 0x3ee28ec796f01bdb,
        0x3eccbd3340f6095d, 0x3ebb75b6a6b5bdaf, 0x3eaedd8a0c9df4a3, 0x3e9c47e2dbbb5707,
        0x3e8d95d053a5baeb, 0x3e7fcef5ee70f8bd, 0x3e6f1f5b61eca1be, 0x3e596a70b76bc0b4,
        0x3e446d160ea19e45,
    ]),
    ("ir/spd/plain/reference", 36, StopReason::MaxIterations, 37, 0x35fbd3689cc3b97d, &[
        0x4021eaca9ddac7e2, 0x401958aa35f467c6, 0x4012d30bc819a312, 0x400e0ddbb7548104,
        0x400ac80e13f9fc1a, 0x400afa716cb3c791, 0x400dc7ebbf745e06, 0x4011465847795b40,
        0x4014815fe405aab8, 0x40189796b99a7571, 0x401da3f72bb0fa4a, 0x4021e94662da12b9,
        0x4025aefaa7031057, 0x402a47dc9d3872c6, 0x402fe124aac3088f, 0x40335907659314e1,
        0x40377ef3cee8f7ab, 0x403c8b4e197152fe, 0x404157f7d2d239dc, 0x404514c0101c2c5d,
        0x4049a0e6101d70e1, 0x404f294ee0f1e3dc, 0x4052f24cceba6e91, 0x40570a9d6376d582,
        0x405c06063c96e177, 0x40610adb31e03faf, 0x4064bac2434f5579, 0x4069371eea358612,
        0x406eac3a6d8c4b3a, 0x4072a7fb079b26dc, 0x4076b1ef89423185, 0x407b9bdb018da31d,
        0x4080cb208ceabbaa, 0x40846e13f51e0a4b, 0x4088daaf658deff0, 0x408e3ca1b3c85851,
    ]),
    ("ir/spd/jacobi/reference", 36, StopReason::MaxIterations, 37, 0xeb1a4c711553a479, &[
        0x4028f1f16313bc57, 0x402714eb933f0ce3, 0x40256e31e0d77ee7, 0x4023f12e2ab0d4ea,
        0x4022965249588c32, 0x40215890ba0e00c3, 0x40203437b2f653c6, 0x401e4cca6b422ee1,
        0x401c597ee4c4cd64, 0x401a8a9a2ec1553a, 0x4018dcbacd234494, 0x40174cf13f2bed56,
        0x4015d8aa459d3d1b, 0x40147d9eec3d729f, 0x401339c856452411, 0x40120b5624b0432b,
        0x4010f0a6beeb6e18, 0x400fd0820b3c65f8, 0x400de19e396d787d, 0x400c12342276c26a,
        0x400a600c5d9208c6, 0x4008c91fc67505d1, 0x40074b922d04b237, 0x4005e5adc4965685,
        0x400495df323d09ee, 0x40035ab220025888, 0x400232ce3fdb8a5e, 0x40011cf4ad0fcfb3,
        0x400017fd9dd8870d, 0x3ffe45acb2f78847, 0x3ffc78fed23b23c8, 0x3ffac815f64140fd,
        0x3ff93136e47ea482, 0x3ff7b2c43533c02f, 0x3ff64b3bffb3318e, 0x3ff4f935c08adce2,
    ]),
    ("minres/spd/plain/reference", 23, StopReason::ResidualReduction, 24, 0xbaff95448612a8cf, &[
        0x402057647aa7780e, 0x400e48225a8e4da4, 0x400023f95d45e25a, 0x3fea50229329e154,
        0x3fd565e96f31fd0c, 0x3fbe1f554a9dea14, 0x3fa4aebf833241a3, 0x3f8f7150f362afe1,
        0x3f74526057799111, 0x3f60898d676e8007, 0x3f4edd563f710ce1, 0x3f3e5eee700c1b33,
        0x3f29d022b9a6f33a, 0x3f12be7efd0d3b61, 0x3ef800af1195aeae, 0x3ee15435bbf01e23,
        0x3ecd6cf8e01ce424, 0x3eb81dd64084de25, 0x3ea14245a5463b4d, 0x3e82546e21416f5d,
        0x3e686c4accdfb307, 0x3e54a479270638b4, 0x3e3dd07ca0404e2e,
    ]),
    ("mixed_ir/spd/plain/reference", 8, StopReason::ResidualReduction, 9, 0x5dd8d191e89518cf, &[
        0x3fecd09607cba140, 0x3fa179a6eb18aa70, 0x3f65fd253070e189, 0x3f212982b13e3c47,
        0x3ee97960f56d32e2, 0x3eaa39ae5da5630c, 0x3e75897b14cc2feb, 0x3e3923395be8f28d,
    ]),
    ("cg/unsym/plain/reference", 36, StopReason::MaxIterations, 37, 0x4190a4d08cf34742, &[
        0x4025614e2bbb95e0, 0x40145f72d3bf27da, 0x400987b42541526d, 0x3fff4de667e9f565,
        0x3ff922d13ee5c123, 0x3ff5c9d9e7cabed7, 0x3ff4052096011e13, 0x3ff2dde92667a480,
        0x3ff266a258fd2c8e, 0x3ff325c874e55b92, 0x3ff43cd80e24e971, 0x3ff493d6a56d5cfc,
        0x3ff42fe197b45bf9, 0x3ff3cbd0c9fe1203, 0x3ff3f39b9cbf2201, 0x3ff4c932589582f0,
        0x3ff6238869e3917f, 0x3ff7b5cad050b492, 0x3ff933129fbb9784, 0x3ffa6a970a921d6d,
        0x3ffb52276925981e, 0x3ffbfd6be838daaf, 0x3ffc8ca9b48cce7c, 0x3ffd1e7751b6ab5d,
        0x3ffdc887e5a65dce, 0x3ffe961c589812c8, 0x3fff895d29c93a27, 0x40004edb5f1609b0,
        0x4000e52a7ed9a065, 0x4001823627669162, 0x40022097eee25a31, 0x4002bbae16acdc80,
        0x4003501f405c4001, 0x4003dc16a7be8161, 0x40045f3d5c8e81c1, 0x4004da7f6fa40d56,
    ]),
    ("cg/unsym/jacobi/reference", 36, StopReason::MaxIterations, 37, 0xfe54707b79dc2f47, &[
        0x4023f20c1c867ad1, 0x401447aedf77b188, 0x40094d6fc411ed61, 0x4000507eea4351cf,
        0x3ffac4c1ae4471d1, 0x3ff8c1fab58d0ffe, 0x3ff727afa59555ea, 0x3ff67c5109320e8f,
        0x3ff6a33e54726247, 0x3ff75114c85a7823, 0x3ff83b2809f31708, 0x3ff90f1d53da348c,
        0x3ff99dc281d7678c, 0x3ff9f33e86461600, 0x3ffa42865b972793, 0x3ffac2b9afab955d,
        0x3ffb96f0287c4f55, 0x3ffcc4e11816c609, 0x3ffe37e5048bdf92, 0x3fffcc63bca07c90,
        0x4000aee521801d76, 0x40016893f5e3bd69, 0x40020ccd166cb2cc, 0x40029b9f1ed9af0f,
        0x4003199b04787321, 0x40038d970302fc8b, 0x4003fee01d282729, 0x4004740766600951,
        0x4004f233689c6a6f, 0x40057ccd7a0aca04, 0x4006156c296c5871, 0x4006bbe9edd515b8,
        0x40076e9ff7c1e22e, 0x40082abeaf8308db, 0x4008ecbaae3b8366, 0x4009b0c1794aafed,
    ]),
    ("fcg/unsym/plain/reference", 34, StopReason::ResidualReduction, 35, 0x85ff67f03cb4923b, &[
        0x4025614e2bbb95e0, 0x40145f72d3bf27da, 0x4008ceec0b339d98, 0x3ffb35a918a0b455,
        0x3ff1a70e1da1f20e, 0x3fe811281a59af1d, 0x3fdf71effa7b9eec, 0x3fd80553d37ad657,
        0x3fcedfb139a6e587, 0x3fc4f4221347b54a, 0x3fbdaeb7f9e3cea2, 0x3fb467bff822c2ac,
        0x3fac4f7e755b7da3, 0x3fa446d80191d020, 0x3f9c7aeff0552066, 0x3f91910cbfae287b,
        0x3f7f95eb99944c76, 0x3f75c23d5c875fd3, 0x3f692f1a36dd0a93, 0x3f4b0eac7fe736c7,
        0x3f400bfea211f67d, 0x3f28d5b356c6b736, 0x3f1dbcb3b2319c45, 0x3f013ead893171c8,
        0x3eeb3c6556aa70fe, 0x3ed72a8c4212ee14, 0x3ec4deb3f46fec52, 0x3eafef2dbeb9ef2a,
        0x3e9ba92cbe7854d4, 0x3e870cd18e9d4479, 0x3e7803979edd0f2b, 0x3e6b1108f6270eea,
        0x3e52567134cac008, 0x3e4719ce0e8ee33a,
    ]),
    ("fcg/unsym/jacobi/reference", 36, StopReason::ResidualReduction, 37, 0x5e9ef01888c064ad, &[
        0x4023f20c1c867ad1, 0x401447aedf77b188, 0x400835163367fa83, 0x3ffb730d91666bd0,
        0x3ff2c82cc407fede, 0x3fe9cc40bba8f48a, 0x3fe19ecfce70d8b9, 0x3fd970f3909ecc87,
        0x3fd0c76c23598955, 0x3fc75ec856a5817b, 0x3fc0f8b3feccdfbb, 0x3fb783c511a5ae40,
        0x3fafb75afda4bfa7, 0x3fa591f9ef409505, 0x3fa035747a0beb4d, 0x3f93d3c8bd5e70a5,
        0x3f82f6f60b179259, 0x3f7364b0a130eb36, 0x3f5c5b9219f85d90, 0x3f3d2a2f098d5d9e,
        0x3f21a58901f3fc28, 0x3f0c146a094c4be2, 0x3ef2b5bd57b4fb43, 0x3ee69db4f6eeb5d1,
        0x3ede4dd34e175c59, 0x3ed2f90dcf099472, 0x3ec40fdb75ecfe38, 0x3eb35760238e293f,
        0x3ea668bc0c8ab9cf, 0x3ea30023093741b9, 0x3e84abc091c4c81f, 0x3e77a52699e075c2,
        0x3e696bcbc63bae7f, 0x3e59ff342059879d, 0x3e5433bc4092e3fb, 0x3e468c06868cd741,
    ]),
    ("cgs/unsym/plain/reference", 16, StopReason::ResidualReduction, 17, 0x186a497da4f3fd04, &[
        0x403dcdca67aceb03, 0x4017795cdd968a84, 0x4008f82ef92d7c5f, 0x3fd1817aea38474a,
        0x3fe090a56fde2b9c, 0x3fd94ff6de44e735, 0x3fa06001b27fcb20, 0x3f794058c1ea5923,
        0x3f94c9b07473dfaf, 0x3f3e58e139d778d3, 0x3fbb5222955494f5, 0x3ea1b9398e64edb9,
        0x3e882df70c14f803, 0x3eaa6c63e6d91e98, 0x3e5d552656577b0e, 0x3e4b6845d3827f39,
    ]),
    ("cgs/unsym/jacobi/reference", 15, StopReason::ResidualReduction, 16, 0x7e5294ae1e693fc0, &[
        0x403de238bb304ffb, 0x4019389dc1872cb4, 0x40065cffd9983fd1, 0x3fd1927d8313e6a6,
        0x4033809569609d68, 0x3fd5f81c4b7d8c06, 0x3fb610c4feea38a1, 0x3fb01d9ebad64674,
        0x3f85f3d8542a1d19, 0x3f69fb26e9c6d996, 0x3f425a82524c1ea5, 0x3ed1ab90e20b1f18,
        0x3ee27a2e37e19f24, 0x3ead1e1585176fb5, 0x3e255d868310a866,
    ]),
    ("bicgstab/unsym/plain/reference", 13, StopReason::ResidualReduction, 27, 0x8b826ae83feac77f, &[
        0x40116578f68bf558, 0x3ff8fb247237f07c, 0x3fe1761037cd0701, 0x3fc2c88b8d40a02a,
        0x3fbebc10622e5fbe, 0x3f995ef262147079, 0x3f64a4c72b9aa0e1, 0x3f4a1901f99e9597,
        0x3f34785770edd124, 0x3edf7af9f8490924, 0x3f0cdf33a4c2e102, 0x3e77e04c20143d2b,
        0x3e36c108ffe965ef,
    ]),
    ("bicgstab/unsym/jacobi/reference", 14, StopReason::ResidualReduction, 29, 0x3d27b2f64b738c29, &[
        0x40110b764210f53e, 0x3ff81b4126ed6f10, 0x3fdde8fa342bfe34, 0x3fc20b0ed57852cf,
        0x3fd793957d8ceaa5, 0x3f92bfcce4a5dc78, 0x3f64dd3603a637de, 0x3f3e4fb9007136b3,
        0x3f18a84fcfebe972, 0x3eead379c5e7d569, 0x3ed53c4d7dcf69c9, 0x3e6ecccf2fb060d7,
        0x3e658ca1522ed945, 0x3e48249d6bf845e6,
    ]),
    ("gmres/unsym/plain/reference", 30, StopReason::ResidualReduction, 35, 0x46c1c2faf2a3e942, &[
        0x4020c9c372f9a0a1, 0x401152aa8513fa80, 0x40039fa2d7bd87af, 0x3ff4a19dcfb84af2,
        0x3fe716262b783700, 0x3fd9e3596ed25b79, 0x3fcc52cf5a266613, 0x3fbe2f67fe30800c,
        0x3faf2c56449bf15e, 0x3fa02a47cc89689c, 0x3f8a4fef6aa0f981, 0x3f7cc3e5965c754a,
        0x3f7217884372b86a, 0x3f6476bb6074bc6e, 0x3f514e05e1077129, 0x3f3dad637346c227,
        0x3f2189cae28ffff0, 0x3efddeabbe63a094, 0x3ee8f500f596fa3c, 0x3ed5b20337f828af,
        0x3ec4f9cd8a8ca674, 0x3eb2e4d2980e2e79, 0x3ea409c0a33b676e, 0x3e982079c78332a8,
        0x3e8bf34b9ea8c0f0, 0x3e7b3dd81916c002, 0x3e6bf40ef8821693, 0x3e625347abe0dce1,
        0x3e54914550904b23, 0x3e45f3e7d567ee3f,
    ]),
    ("gmres/unsym/jacobi/reference", 28, StopReason::ResidualReduction, 33, 0x0d04e014f9f29162, &[
        0x40203d9d2492aa15, 0x40110a712b1c5ba0, 0x4002fdd400a7c56e, 0x3ff443e9958b29ab,
        0x3fe66b679046887e, 0x3fd909715c96a0d0, 0x3fcc0600ea7dbf72, 0x3fbde393f56676c7,
        0x3fb00da25b29644c, 0x3fa16dfc020ea19d, 0x3f8c880edd326d84, 0x3f7d926e40a76e38,
        0x3f72c9f7a95181a8, 0x3f66e6fbd429846b, 0x3f543595edf0e9b0, 0x3f423ed59f61ca68,
        0x3f16fffcdb21fc5b, 0x3f0063f0bd7095e3, 0x3ef117f3818e70e3, 0x3ede7055178c6cf5,
        0x3eceb77f0d890a68, 0x3ec13a18ca5e60cb, 0x3eb40034e4846c16, 0x3ea553d336c34ebb,
        0x3e99107227420de6, 0x3e7d736756cd1e18, 0x3e62544a9c6c897f, 0x3e4b417b08b4d41a,
    ]),
    ("ir/unsym/plain/reference", 36, StopReason::MaxIterations, 37, 0x9b6d166f4046b5ed, &[
        0x40221a2a2cb391d4, 0x40197f6776267b42, 0x4012ae3a95d24b8e, 0x400d824c77647f3e,
        0x4009ef04df35dd7a, 0x4009d32d117c444b, 0x400c10e074a94cb1, 0x400febf44c0e1e0e,
        0x40127cb6ed972292, 0x40158b7e67592e0e, 0x4019226b826380cb, 0x401d4ce99282505a,
        0x40210d800ecc613e, 0x4023d14e56cb1679, 0x4026fe4f95ac99be, 0x402aa3afd8ad55ca,
        0x402ed2a0d5a950ee, 0x4031cfba7435fc48, 0x403490b8fa6da429, 0x4037b9dfb4b7b092,
        0x403b5ad25edac5d4, 0x403f85b716caf37c, 0x404227c18cc2b6f5, 0x4044e83d9b9b9062,
        0x404812568ba3bea6, 0x404bb6476da656c1, 0x404fe6d57ae26e62, 0x40525cdc0e3f7ebc,
        0x4055240733cb048f, 0x40585774a3be2631, 0x405c07f516cdbc49, 0x4060247ef59c48db,
        0x40629889eeb77063, 0x40656d23708f22d1, 0x4068b160bd22779b, 0x406c76b7747e6d06,
    ]),
    ("ir/unsym/jacobi/reference", 36, StopReason::MaxIterations, 37, 0x7a061f4c69426345, &[
        0x4028f314fd37c5bd, 0x402716dd6e96a355, 0x4025707c148fe747, 0x4023f35810b54f5c,
        0x402297ee12258bc0, 0x40215940a54c5644, 0x402033af38ece4e3, 0x401e48d0a7c64a65,
        0x401c5242669647c5, 0x401a7fdbb65f1ca1, 0x4018ce5257b8e0cb, 0x40173acac9686223,
        0x4015c2c2d1d9313d, 0x40146401ceaaccd7, 0x40131c8cc48071de, 0x4011ea9d04b48736,
        0x4010cc98b18814fa, 0x400f821951f88146, 0x400d8d4f078e6bf3, 0x400bb86ad9fd6572,
        0x400a01394c9413bd, 0x400865b52ddb3184, 0x4006e40297195fb7, 0x40057a6aa42bf2d3,
        0x40042757c3176053, 0x4002e952813bbf65, 0x4001befec13404e9, 0x4000a719486ac27d,
        0x3fff40eb2d3b2ad1, 0x3ffd53f7f82177cf, 0x3ffb854fca74e64c, 0x3ff9d30ca89ad986,
        0x3ff83b6904b085de, 0x3ff6bcbd457c2458, 0x3ff5557d894ed8c0, 0x3ff404379d7a139f,
    ]),
    ("minres/unsym/plain/reference", 36, StopReason::MaxIterations, 37, 0x3ee31cb3b3adf4b9, &[
        0x4020c9c372f9a0a2, 0x4011d8d4bc00146f, 0x40066b58c77e93a1, 0x3fff4ace697ae1d8,
        0x3ffc36e13e44d739, 0x3ffc3686bd335bde, 0x3ffa556e44010f46, 0x3ff93de05a01a326,
        0x3ff9339a70f55658, 0x3ff80b28932d7b0e, 0x3ff7c9a89cbb3faa, 0x3ff745ed14002502,
        0x3ff6ac597df8187f, 0x3ff693e053066306, 0x3ff5f7ca96532c66, 0x3ff5f798bee7bab4,
        0x3ff589471a97164f, 0x3ff5767bb0497a9d, 0x3ff53b3e12edaf65, 0x3ff50c8920e533dc,
        0x3ff4f5a136dfe026, 0x3ff4b3549205c317, 0x3ff4aec4ce28324f, 0x3ff466836a46e1bc,
        0x3ff46680ab2fd373, 0x3ff423ec9254164d, 0x3ff4204a98ccf3bb, 0x3ff3ea340a2ae8d5,
        0x3ff3df48d0329791, 0x3ff3b7d97087c6bd, 0x3ff3a4ed1e848de7, 0x3ff38b17a08e1cee,
        0x3ff37126a26aa459, 0x3ff3623390e3ee94, 0x3ff343179a703f0e, 0x3ff33bd09698e500,
    ]),
    ("mixed_ir/unsym/plain/reference", 8, StopReason::ResidualReduction, 9, 0x02b37a7fd7426b3b, &[
        0x3fff4de6762b3fb9, 0x3fd9b73d92233fde, 0x3fae810bc5c9a5c6, 0x3f786d0ed05e0d4b,
        0x3f24fd0b3cebdb5f, 0x3ee611684228f6ea, 0x3e862acb2c3d812b, 0x3e336a3dc808d4c2,
    ]),
    ("cg/spd/plain/omp7", 23, StopReason::ResidualReduction, 24, 0xd232743c39c56565, &[
        0x40247abb657062ef, 0x401115b79fe521ad, 0x400313816840140f, 0x3fecd096474dce7e,
        0x3fd76bf0ce885dd2, 0x3fc0172eff617c7e, 0x3fa6055fe6ae1384, 0x3f90ff29f239f70b,
        0x3f7579552541bb14, 0x3f621a89d019103f, 0x3f5172b05fa4b930, 0x3f41714ca6b60e69,
        0x3f2c841cbe8d828a, 0x3f141ded60c32501, 0x3ef95608848ba2ff, 0x3ee294f4149ecd9c,
        0x3ed03fee53b35512, 0x3eba7037063e2dab, 0x3ea27b8c98a11d1c, 0x3e83031fca68e732,
        0x3e69e6fd85c8b664, 0x3e56c6b994cb35c3, 0x3e3ff8ab55ce0b7b,
    ]),
    ("cg/spd/jacobi/omp7", 22, StopReason::ResidualReduction, 23, 0x623b19c7b055818c, &[
        0x4022d2398df8cfef, 0x4010d093d2bf276e, 0x4000c19d11f96f54, 0x3fea87547b627d00,
        0x3fd40180f7c84152, 0x3fb8d1d82683bcdd, 0x3f9fbe2677812a3f, 0x3f8a66846614b654,
        0x3f704987572c581c, 0x3f5b39c41510c628, 0x3f4f6ee447517f41, 0x3f36841212047595,
        0x3f201f8e1b66e47b, 0x3f05a7d91738e451, 0x3ef00b5ccee0ddce, 0x3edfd202e7ee731a,
        0x3ec1e783a114f04e, 0x3ea4723953b34d97, 0x3e859385182b135c, 0x3e66c0f9bfd709cd,
        0x3e5162ca08547723, 0x3e3689b1f4a806d3,
    ]),
    ("fcg/spd/plain/omp7", 23, StopReason::ResidualReduction, 24, 0xec99349c16a535a5, &[
        0x40247abb657062ef, 0x401115b79fe521ad, 0x400313816840140f, 0x3fecd096474dce7d,
        0x3fd76bf0ce885dd1, 0x3fc0172eff617c7c, 0x3fa6055fe6ae1381, 0x3f90ff29f239f708,
        0x3f7579552541bb0c, 0x3f621a89d0191032, 0x3f5172b05fa4b920, 0x3f41714ca6b60e57,
        0x3f2c841cbe8d827e, 0x3f141ded60c324ff, 0x3ef95608848ba2f8, 0x3ee294f4149ecd95,
        0x3ed03fee53b3550b, 0x3eba7037063e2da3, 0x3ea27b8c98a11d18, 0x3e83031fca68e72d,
        0x3e69e6fd85c8b644, 0x3e56c6b994cb3598, 0x3e3ff8ab55ce0ade,
    ]),
    ("fcg/spd/jacobi/omp7", 22, StopReason::ResidualReduction, 23, 0xf111527af8f74ebf, &[
        0x4022d2398df8cfef, 0x4010d093d2bf276d, 0x4000c19d11f96f55, 0x3fea87547b627d02,
        0x3fd40180f7c84153, 0x3fb8d1d82683bcdc, 0x3f9fbe2677812a39, 0x3f8a66846614b64d,
        0x3f704987572c5813, 0x3f5b39c41510c609, 0x3f4f6ee447517f1e, 0x3f36841212047585,
        0x3f201f8e1b66e47a, 0x3f05a7d91738e456, 0x3ef00b5ccee0ddc1, 0x3edfd202e7ee7306,
        0x3ec1e783a114f07a, 0x3ea4723953b34d7c, 0x3e859385182b122c, 0x3e66c0f9bfd70baa,
        0x3e5162ca085477de, 0x3e3689b1f4a7ff17,
    ]),
    ("cgs/spd/plain/omp7", 14, StopReason::ResidualReduction, 15, 0xf61baeac4a8ef5d6, &[
        0x403d7a94d9b22870, 0x4016aa298c8ce43f, 0x40012c1128904441, 0x3fcdd8d2820d1b51,
        0x3fa33612fb46ee20, 0x3f793c38f5e6c031, 0x3f43928d2cf6788a, 0x3f1530d343969bce,
        0x3ef244bd208782a5, 0x3ed5d0ade122cc5f, 0x3eb9ceec2bdca0e0, 0x3e910c3ba580d35d,
        0x3e5b14e87588eacf, 0x3e348b3002b7b1b7,
    ]),
    ("cgs/spd/jacobi/omp7", 13, StopReason::ResidualReduction, 14, 0x7929f3b4d558764f, &[
        0x403ccfae860c4fe6, 0x40182e03f73ee334, 0x3ffa64fae782b250, 0x3fc8ac69f079ef68,
        0x3fa3f92ab6fe5f03, 0x3f6e76e676ccba2e, 0x3f35a75cca6ce0ad, 0x3f161740c3f15d19,
        0x3ef10bc8883cb088, 0x3ed0733e7de10df0, 0x3eb0f165083771af, 0x3e70fe571890bb0f,
        0x3e450d898f3ce148,
    ]),
    ("bicgstab/spd/plain/omp7", 14, StopReason::ResidualReduction, 29, 0xa1657db163b4fb1c, &[
        0x400f1be3727d8e5f, 0x3ff5b6a093746ecc, 0x3fd9b9b27f506a9c, 0x3fb1d62b00765cf4,
        0x3f8943c96a86e9e3, 0x3f5f1738db47bc5e, 0x3f3e6f14f1ddd464, 0x3f21226e9d8dc3b4,
        0x3f02fbda422d2f12, 0x3eeb64cca4a69195, 0x3ecf804f1576e067, 0x3eabb617d2539fa1,
        0x3e78301b9a66f2da, 0x3e444e258eb9a9c8,
    ]),
    ("bicgstab/spd/jacobi/omp7", 14, StopReason::ResidualReduction, 28, 0xd0877e6e2d4e3d1e, &[
        0x400da80d4638821f, 0x3ff47d962ddbb02f, 0x3fd3d1f439dcffaf, 0x3fae2dc9da47fcf5,
        0x3f7f60f5dafe172d, 0x3f5150d2ee8b8a0d, 0x3f32750929e7e71c, 0x3f193d8e13711894,
        0x3f01235ee1178038, 0x3eead5d5d07f8f31, 0x3ec9a3945f84f914, 0x3e95fa30778b86ca,
        0x3e6764918631292d, 0x3e4c758e8633fec6,
    ]),
    ("gmres/spd/plain/omp7", 26, StopReason::ResidualReduction, 30, 0x8f9d9539ed67e495, &[
        0x402057647aa7780d, 0x400e48225a8e4da4, 0x400023f95d45e25b, 0x3fea50229329e15b,
        0x3fd565e96f31fd10, 0x3fbe1f554a9dea20, 0x3fa4aebf833241a8, 0x3f8f7150f362afeb,
        0x3f74526057799112, 0x3f63e47c9082d359, 0x3f524463a5aabf29, 0x3f40bfdbf51805dd,
        0x3f2df3b22e12af3b, 0x3f18fd750bf0baf1, 0x3f02678cd1dd50dc, 0x3eec87fd975e1b7b,
        0x3ed660254ebdab43, 0x3ec621e27397de4a, 0x3ebae33c686d85e7, 0x3ea9e6bc53bf9d3b,
        0x3e9a639038bdd794, 0x3e8ca20702e25dde, 0x3e7bccdc230c6997, 0x3e667547af817f0f,
        0x3e509bae83348c0a, 0x3e3a5960de049347,
    ]),
    ("gmres/spd/jacobi/omp7", 25, StopReason::ResidualReduction, 29, 0x772540ac5ce3f5a9, &[
        0x401f49001aaf8dfa, 0x400d74f8e5402be0, 0x3ffd1b707e5025a3, 0x3fe840ee1f6fa965,
        0x3fd28af36d92b940, 0x3fb73efbf82efc6f, 0x3f9e03ce8aa964e5, 0x3f8843a34e7b830f,
        0x3f6ebd6e4d946a91, 0x3f5df27677e43136, 0x3f4eb6c465e0bb82, 0x3f386827de15514f,
        0x3f230565d6e4e0c1, 0x3f0eac75ca7c6abf, 0x3ef5eb7576bd9914, 0x3ee28ec796f00e89,
        0x3eccbd3340f5e2cf, 0x3ebb75b6a6b58d89, 0x3eaedd8a0c8e8d99, 0x3e9c47e2dbe59371,
        0x3e8d95d053704c2a, 0x3e7fcef5ee66bbaf, 0x3e6f1f5b61cb0ac0, 0x3e596a70b753ec98,
        0x3e446d160e6c836f,
    ]),
    ("ir/spd/plain/omp7", 36, StopReason::MaxIterations, 37, 0x35fbd3689cc3b97d, &[
        0x4021eaca9ddac7e2, 0x401958aa35f467c6, 0x4012d30bc819a312, 0x400e0ddbb7548104,
        0x400ac80e13f9fc1a, 0x400afa716cb3c791, 0x400dc7ebbf745e06, 0x4011465847795b40,
        0x4014815fe405aab8, 0x40189796b99a7571, 0x401da3f72bb0fa4a, 0x4021e94662da12b9,
        0x4025aefaa7031057, 0x402a47dc9d3872c6, 0x402fe124aac3088e, 0x40335907659314e1,
        0x40377ef3cee8f7ab, 0x403c8b4e197152fe, 0x404157f7d2d239dc, 0x404514c0101c2c5c,
        0x4049a0e6101d70e0, 0x404f294ee0f1e3dc, 0x4052f24cceba6e91, 0x40570a9d6376d582,
        0x405c06063c96e178, 0x40610adb31e03faf, 0x4064bac2434f5578, 0x4069371eea358612,
        0x406eac3a6d8c4b3b, 0x4072a7fb079b26dc, 0x4076b1ef89423185, 0x407b9bdb018da31d,
        0x4080cb208ceabbaa, 0x40846e13f51e0a4a, 0x4088daaf658deff1, 0x408e3ca1b3c85851,
    ]),
    ("ir/spd/jacobi/omp7", 36, StopReason::MaxIterations, 37, 0xeb1a4c711553a479, &[
        0x4028f1f16313bc57, 0x402714eb933f0ce3, 0x40256e31e0d77ee7, 0x4023f12e2ab0d4e9,
        0x4022965249588c32, 0x40215890ba0e00c3, 0x40203437b2f653c6, 0x401e4cca6b422ee1,
        0x401c597ee4c4cd64, 0x401a8a9a2ec1553a, 0x4018dcbacd234495, 0x40174cf13f2bed56,
        0x4015d8aa459d3d1b, 0x40147d9eec3d729f, 0x401339c856452411, 0x40120b5624b0432b,
        0x4010f0a6beeb6e18, 0x400fd0820b3c65f7, 0x400de19e396d787d, 0x400c12342276c26a,
        0x400a600c5d9208c6, 0x4008c91fc67505d1, 0x40074b922d04b237, 0x4005e5adc4965686,
        0x400495df323d09ed, 0x40035ab220025888, 0x400232ce3fdb8a5d, 0x40011cf4ad0fcfb3,
        0x400017fd9dd8870d, 0x3ffe45acb2f78847, 0x3ffc78fed23b23c9, 0x3ffac815f64140fc,
        0x3ff93136e47ea482, 0x3ff7b2c43533c02f, 0x3ff64b3bffb3318e, 0x3ff4f935c08adce2,
    ]),
    ("minres/spd/plain/omp7", 23, StopReason::ResidualReduction, 24, 0x47fc8fe216bd2305, &[
        0x402057647aa7780d, 0x400e48225a8e4da0, 0x400023f95d45e259, 0x3fea50229329e157,
        0x3fd565e96f31fd08, 0x3fbe1f554a9dea0f, 0x3fa4aebf8332419c, 0x3f8f7150f362afdc,
        0x3f7452605779910b, 0x3f60898d676e800c, 0x3f4edd563f710ce9, 0x3f3e5eee700c1b3b,
        0x3f29d022b9a6f334, 0x3f12be7efd0d3b62, 0x3ef800af1195aeac, 0x3ee15435bbf01e34,
        0x3ecd6cf8e01ce441, 0x3eb81dd64084de3c, 0x3ea14245a5463b4c, 0x3e82546e21416f5f,
        0x3e686c4accdfb2f5, 0x3e54a479270638b2, 0x3e3dd07ca0404e08,
    ]),
    ("mixed_ir/spd/plain/omp7", 8, StopReason::ResidualReduction, 9, 0x5dd8d191e89518cf, &[
        0x3fecd09607cba140, 0x3fa179a6eb18aa70, 0x3f65fd253070e189, 0x3f212982b13e3c47,
        0x3ee97960f56d32e4, 0x3eaa39ae5da5630b, 0x3e75897b14cc2fec, 0x3e3923395be8f28d,
    ]),
    ("cg/unsym/plain/omp7", 36, StopReason::MaxIterations, 37, 0x0ea6513e6015b3d6, &[
        0x4025614e2bbb95e2, 0x40145f72d3bf27de, 0x400987b425415272, 0x3fff4de667e9f56d,
        0x3ff922d13ee5c12b, 0x3ff5c9d9e7cabee0, 0x3ff4052096011e1b, 0x3ff2dde92667a488,
        0x3ff266a258fd2c95, 0x3ff325c874e55b9b, 0x3ff43cd80e24e97a, 0x3ff493d6a56d5d04,
        0x3ff42fe197b45bfe, 0x3ff3cbd0c9fe1209, 0x3ff3f39b9cbf2208, 0x3ff4c932589582f9,
        0x3ff6238869e39189, 0x3ff7b5cad050b49d, 0x3ff933129fbb9790, 0x3ffa6a970a921d78,
        0x3ffb52276925982a, 0x3ffbfd6be838daba, 0x3ffc8ca9b48cce88, 0x3ffd1e7751b6ab6a,
        0x3ffdc887e5a65ddc, 0x3ffe961c589812d6, 0x3fff895d29c93a37, 0x40004edb5f1609b8,
        0x4000e52a7ed9a06d, 0x400182362766916b, 0x40022097eee25a3a, 0x4002bbae16acdc89,
        0x4003501f405c400a, 0x4003dc16a7be816a, 0x40045f3d5c8e81cb, 0x4004da7f6fa40d60,
    ]),
    ("cg/unsym/jacobi/omp7", 36, StopReason::MaxIterations, 37, 0x305f89ce2ccb308b, &[
        0x4023f20c1c867acf, 0x401447aedf77b186, 0x40094d6fc411ed60, 0x4000507eea4351cf,
        0x3ffac4c1ae4471d3, 0x3ff8c1fab58d1000, 0x3ff727afa59555ed, 0x3ff67c5109320e93,
        0x3ff6a33e5472624b, 0x3ff75114c85a7827, 0x3ff83b2809f3170b, 0x3ff90f1d53da3491,
        0x3ff99dc281d7678f, 0x3ff9f33e86461602, 0x3ffa42865b972793, 0x3ffac2b9afab955d,
        0x3ffb96f0287c4f57, 0x3ffcc4e11816c60a, 0x3ffe37e5048bdf95, 0x3fffcc63bca07c92,
        0x4000aee521801d76, 0x40016893f5e3bd6a, 0x40020ccd166cb2cb, 0x40029b9f1ed9af0f,
        0x4003199b04787321, 0x40038d970302fc8a, 0x4003fee01d282728, 0x400474076660094f,
        0x4004f233689c6a6e, 0x40057ccd7a0aca04, 0x4006156c296c5871, 0x4006bbe9edd515b8,
        0x40076e9ff7c1e22e, 0x40082abeaf8308db, 0x4008ecbaae3b8366, 0x4009b0c1794aafed,
    ]),
    ("fcg/unsym/plain/omp7", 34, StopReason::ResidualReduction, 35, 0x0041025db40366d2, &[
        0x4025614e2bbb95e2, 0x40145f72d3bf27de, 0x4008ceec0b339da1, 0x3ffb35a918a0b468,
        0x3ff1a70e1da1f220, 0x3fe811281a59af3d, 0x3fdf71effa7b9f1c, 0x3fd80553d37ad683,
        0x3fcedfb139a6e5be, 0x3fc4f4221347b573, 0x3fbdaeb7f9e3cee2, 0x3fb467bff822c2de,
        0x3fac4f7e755b7deb, 0x3fa446d80191d051, 0x3f9c7aeff05520a8, 0x3f91910cbfae28a0,
        0x3f7f95eb99944cd2, 0x3f75c23d5c876025, 0x3f692f1a36dd0aed, 0x3f4b0eac7fe73743,
        0x3f400bfea211f6d0, 0x3f28d5b356c6b7d0, 0x3f1dbcb3b2319cfe, 0x3f013ead8931720a,
        0x3eeb3c6556aa717f, 0x3ed72a8c4212ee95, 0x3ec4deb3f46fed1e, 0x3eafef2dbeb9f006,
        0x3e9ba92cbe78570f, 0x3e870cd18e9d455b, 0x3e7803979edd10ad, 0x3e6b1108f62712e9,
        0x3e52567134cac0ec, 0x3e4719ce0e8ee48c,
    ]),
    ("fcg/unsym/jacobi/omp7", 36, StopReason::ResidualReduction, 37, 0xbdb1bcaabff48af5, &[
        0x4023f20c1c867acf, 0x401447aedf77b186, 0x400835163367fa82, 0x3ffb730d91666bcd,
        0x3ff2c82cc407feda, 0x3fe9cc40bba8f488, 0x3fe19ecfce70d8b9, 0x3fd970f3909ecc86,
        0x3fd0c76c23598954, 0x3fc75ec856a5817a, 0x3fc0f8b3feccdfb8, 0x3fb783c511a5ae40,
        0x3fafb75afda4bfa9, 0x3fa591f9ef409506, 0x3fa035747a0beb51, 0x3f93d3c8bd5e70ae,
        0x3f82f6f60b179266, 0x3f7364b0a130eb3e, 0x3f5c5b9219f85dac, 0x3f3d2a2f098d5dd6,
        0x3f21a58901f3fc5c, 0x3f0c146a094c4c6a, 0x3ef2b5bd57b4fb3b, 0x3ee69db4f6eeb54e,
        0x3ede4dd34e175be8, 0x3ed2f90dcf099474, 0x3ec40fdb75ecfe57, 0x3eb35760238e28ed,
        0x3ea668bc0c8ab8ec, 0x3ea3002309374121, 0x3e84abc091c4c817, 0x3e77a52699e0757e,
        0x3e696bcbc63bae23, 0x3e59ff342059871a, 0x3e5433bc4092e35f, 0x3e468c06868cd75f,
    ]),
    ("cgs/unsym/plain/omp7", 16, StopReason::ResidualReduction, 17, 0x09bb8e88749947c6, &[
        0x403dcdca67aceb08, 0x4017795cdd968a85, 0x4008f82ef92d7c6c, 0x3fd1817aea38475b,
        0x3fe090a56fde2b48, 0x3fd94ff6de44e716, 0x3fa06001b27fcaf4, 0x3f794058c1ea5b0f,
        0x3f94c9b07473e1b5, 0x3f3e58e139d79200, 0x3fbb52229555de20, 0x3ea1b9398e60eef9,
        0x3e882df70c1cccee, 0x3eaa6c63e10c835c, 0x3e5d552654c90d0a, 0x3e4b6845d1bf4737,
    ]),
    ("cgs/unsym/jacobi/omp7", 15, StopReason::ResidualReduction, 16, 0xfcf36c6e4cb9675e, &[
        0x403de238bb304ffb, 0x4019389dc1872cb0, 0x40065cffd9983fcd, 0x3fd1927d8313e6a5,
        0x4033809569609d7b, 0x3fd5f81c4b7d8d33, 0x3fb610c4feea38cd, 0x3fb01d9ebad65aa7,
        0x3f85f3d8542a0fde, 0x3f69fb26e9c716bb, 0x3f425a82524bd67a, 0x3ed1ab90e20b4cd1,
        0x3ee27a2e3665cc10, 0x3ead1e158706639e, 0x3e255d868368245c,
    ]),
    ("bicgstab/unsym/plain/omp7", 13, StopReason::ResidualReduction, 27, 0xe9887095eec055b3, &[
        0x40116578f68bf558, 0x3ff8fb247237f07d, 0x3fe1761037cd0706, 0x3fc2c88b8d40a02a,
        0x3fbebc10622e5fd4, 0x3f995ef262146f53, 0x3f64a4c72b9aa0f3, 0x3f4a1901f99e9651,
        0x3f34785770edbd9f, 0x3edf7af9f848fca0, 0x3f0cdf33a4c4a50d, 0x3e77e04c20146dac,
        0x3e36c108ffeab0d6,
    ]),
    ("bicgstab/unsym/jacobi/omp7", 14, StopReason::ResidualReduction, 29, 0x765806cf8d525d6d, &[
        0x40110b764210f53e, 0x3ff81b4126ed6f10, 0x3fdde8fa342bfe3c, 0x3fc20b0ed57852d0,
        0x3fd793957d8ceb63, 0x3f92bfcce4a5dc4c, 0x3f64dd3603a63822, 0x3f3e4fb900713831,
        0x3f18a84fcfebe7d0, 0x3eead379c5e7d631, 0x3ed53c4d7dcf6b4a, 0x3e6ecccf2fb055cc,
        0x3e658ca1522edc33, 0x3e48249d6bf8382a,
    ]),
    ("gmres/unsym/plain/omp7", 30, StopReason::ResidualReduction, 35, 0x3222026971525451, &[
        0x4020c9c372f9a0a2, 0x401152aa8513fa82, 0x40039fa2d7bd87b1, 0x3ff4a19dcfb84af3,
        0x3fe716262b7836fe, 0x3fd9e3596ed25b74, 0x3fcc52cf5a266608, 0x3fbe2f67fe307ffe,
        0x3faf2c56449bf151, 0x3fa02a47cc8968b4, 0x3f8a4fef6aa0fc09, 0x3f7cc3e5965c7b4d,
        0x3f7217884372bc08, 0x3f6476bb6074c053, 0x3f514e05e10775a2, 0x3f3dad637346cd3b,
        0x3f2189cae29006ee, 0x3efddeabbe63a833, 0x3ee8f500f594f5bd, 0x3ed5b20337f95b9c,
        0x3ec4f9cd8a912b5d, 0x3eb2e4d29812225b, 0x3ea409c0a342ed06, 0x3e982079c7916b85,
        0x3e8bf34b9eb98c2a, 0x3e7b3dd81935566f, 0x3e6bf40ef8b96cce, 0x3e625347a9351939,
        0x3e549145503fe57d, 0x3e45f3e7db055980,
    ]),
    ("gmres/unsym/jacobi/omp7", 28, StopReason::ResidualReduction, 33, 0x64b8408329b29476, &[
        0x40203d9d2492aa15, 0x40110a712b1c5ba0, 0x4002fdd400a7c56e, 0x3ff443e9958b29aa,
        0x3fe66b679046887c, 0x3fd909715c96a0ce, 0x3fcc0600ea7dbf6c, 0x3fbde393f56676c3,
        0x3fb00da25b29644b, 0x3fa16dfc020ea184, 0x3f8c880edd326d22, 0x3f7d926e40a76c98,
        0x3f72c9f7a9518032, 0x3f66e6fbd429835e, 0x3f543595edf0e89d, 0x3f423ed59f61ca55,
        0x3f16fffcdb21f93e, 0x3f0063f0bd7094d6, 0x3ef117f3818fd7d1, 0x3ede7055178c3bda,
        0x3eceb77f0d8566f6, 0x3ec13a18ca5aef26, 0x3eb40034e47e5bc2, 0x3ea553d336bedd83,
        0x3e991072273e7503, 0x3e7d736756e8f15b, 0x3e62544a9c886f49, 0x3e4b417b17213999,
    ]),
    ("ir/unsym/plain/omp7", 36, StopReason::MaxIterations, 37, 0x9b6d166f4046b5ed, &[
        0x40221a2a2cb391d4, 0x40197f6776267b42, 0x4012ae3a95d24b8e, 0x400d824c77647f3e,
        0x4009ef04df35dd7a, 0x4009d32d117c444c, 0x400c10e074a94cb2, 0x400febf44c0e1e0e,
        0x40127cb6ed972291, 0x40158b7e67592e0e, 0x4019226b826380cc, 0x401d4ce99282505a,
        0x40210d800ecc613e, 0x4023d14e56cb1679, 0x4026fe4f95ac99be, 0x402aa3afd8ad55c9,
        0x402ed2a0d5a950ee, 0x4031cfba7435fc48, 0x403490b8fa6da42a, 0x4037b9dfb4b7b092,
        0x403b5ad25edac5d5, 0x403f85b716caf37c, 0x404227c18cc2b6f5, 0x4044e83d9b9b9062,
        0x404812568ba3bea6, 0x404bb6476da656c1, 0x404fe6d57ae26e61, 0x40525cdc0e3f7ebb,
        0x4055240733cb048f, 0x40585774a3be2632, 0x405c07f516cdbc49, 0x4060247ef59c48db,
        0x40629889eeb77063, 0x40656d23708f22d2, 0x4068b160bd22779c, 0x406c76b7747e6d06,
    ]),
    ("ir/unsym/jacobi/omp7", 36, StopReason::MaxIterations, 37, 0x7a061f4c69426345, &[
        0x4028f314fd37c5bd, 0x402716dd6e96a355, 0x4025707c148fe746, 0x4023f35810b54f5c,
        0x402297ee12258bc0, 0x40215940a54c5643, 0x402033af38ece4e3, 0x401e48d0a7c64a63,
        0x401c5242669647c5, 0x401a7fdbb65f1ca1, 0x4018ce5257b8e0c9, 0x40173acac9686225,
        0x4015c2c2d1d9313d, 0x40146401ceaaccd7, 0x40131c8cc48071de, 0x4011ea9d04b48736,
        0x4010cc98b18814fa, 0x400f821951f88145, 0x400d8d4f078e6bf2, 0x400bb86ad9fd6573,
        0x400a01394c9413bc, 0x400865b52ddb3183, 0x4006e40297195fb8, 0x40057a6aa42bf2d2,
        0x40042757c3176053, 0x4002e952813bbf66, 0x4001befec13404e9, 0x4000a719486ac27c,
        0x3fff40eb2d3b2ad1, 0x3ffd53f7f82177cf, 0x3ffb854fca74e64b, 0x3ff9d30ca89ad986,
        0x3ff83b6904b085de, 0x3ff6bcbd457c2458, 0x3ff5557d894ed8bf, 0x3ff404379d7a13a0,
    ]),
    ("minres/unsym/plain/omp7", 36, StopReason::MaxIterations, 37, 0x50f7c80872a2f4e9, &[
        0x4020c9c372f9a0a2, 0x4011d8d4bc00146f, 0x40066b58c77e939e, 0x3fff4ace697ae1d3,
        0x3ffc36e13e44d732, 0x3ffc3686bd335bd7, 0x3ffa556e44010f41, 0x3ff93de05a01a321,
        0x3ff9339a70f55653, 0x3ff80b28932d7b0b, 0x3ff7c9a89cbb3fa6, 0x3ff745ed140024ff,
        0x3ff6ac597df8187c, 0x3ff693e053066305, 0x3ff5f7ca96532c65, 0x3ff5f798bee7bab3,
        0x3ff589471a97164e, 0x3ff5767bb0497a9c, 0x3ff53b3e12edaf64, 0x3ff50c8920e533db,
        0x3ff4f5a136dfe025, 0x3ff4b3549205c316, 0x3ff4aec4ce28324e, 0x3ff466836a46e1bb,
        0x3ff46680ab2fd372, 0x3ff423ec9254164c, 0x3ff4204a98ccf3ba, 0x3ff3ea340a2ae8d4,
        0x3ff3df48d0329790, 0x3ff3b7d97087c6bd, 0x3ff3a4ed1e848de7, 0x3ff38b17a08e1cee,
        0x3ff37126a26aa459, 0x3ff3623390e3ee94, 0x3ff343179a703f0e, 0x3ff33bd09698e500,
    ]),
    ("mixed_ir/unsym/plain/omp7", 8, StopReason::ResidualReduction, 9, 0x02b37a7fd7426b3b, &[
        0x3fff4de6762b3fb9, 0x3fd9b73d92233fdd, 0x3fae810bc5c9a5c6, 0x3f786d0ed05e0d4c,
        0x3f24fd0b3cebdb60, 0x3ee611684228f6ea, 0x3e862acb2c3d812b, 0x3e336a3dc808d4c2,
    ]),
];
