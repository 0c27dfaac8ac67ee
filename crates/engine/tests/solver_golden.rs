//! The solver oracle: golden trajectories for the eight iterative solvers,
//! and a band around a live reference run.
//!
//! Every solver runs on one fixed SPD and one fixed unsymmetric system, with
//! and without Jacobi where the method takes a preconditioner, on the
//! reference executor and on `omp(7)`. Iteration count, stop reason, every
//! residual-history entry (as `f64::to_bits`), a fingerprint of the solution
//! vector and the number of criterion checks are pinned in [`GOLDEN`]; a
//! refactor of the solver layer must leave every bit equal. The table was
//! last printed when `matrix::dense` moved every reduction onto the 8-lane
//! kernel (a dot product now sums eight interleaved partial series and
//! combines them pairwise, where it used to add the products left to right)
//! and the unpreconditioned CG/FCG took `r·r` from their fused update. That
//! was a deliberate numerical change: the residual and solution bits moved
//! in the last places, while every iteration count, stop reason and check
//! count stayed what the hand-rolled loops before the shared shell
//! produced. Regenerate (only for another such change) with
//!
//! ```text
//! cargo test -p gko --test solver_golden -- --ignored --nocapture print_golden_table
//! ```
//!
//! The same generator prints [`FINGERPRINTS`]: every case of [`GOLDEN`] on
//! `omp(2)`, `omp(16)` and `cuda(0)`, pinned by one `u64` fold of its
//! history and solution bits. Every case that converges also checks its true
//! residual `‖b - A x‖ / ‖b‖` against [`true_residual_bound`]. The bounded
//! tier, `every_executor_stays_in_the_band_of_the_reference`, compares the
//! first `common::BAND_ITERS` iterations on every executor but the reference
//! with a live reference run, inside an ulp band that doubles per iteration
//! (`common::assert_in_band`), on the two golden systems and a 12 x 12
//! Poisson system; the cells that outgrow the band are listed in
//! [`OUTSIDE_THE_BAND`] and pinned by their fingerprints only. A cell is one
//! (kind, system, preconditioner, executor, tier); `--nocapture` prints the
//! count per axis.
//!
//! The same runs assert the event contract of a solve: one
//! `IterationComplete` per counted iteration and exactly one
//! `SolveCompleted`. The three edge cases every solver shares — iteration
//! limit, zero right-hand side, shape mismatch — are tabled here over all
//! eight solvers instead of living in some solvers' unit tests.
//!
//! GMRES(9) is also pinned on a system of 101 unknowns, in `f64`, `f32` and
//! `Half`, plain and with Jacobi, on both executors ([`RAGGED_GMRES_GOLDEN`],
//! generator `print_ragged_gmres_golden_table`): its Gram–Schmidt sweep
//! reduces whole vectors, and 64 is a multiple of the lane kernel's 8.
//!
//! The two batched solvers, which are not on the shared shell, are pinned
//! per system in [`BATCH_GOLDEN`] (iterations, stop reason, first and last
//! residual, solution fingerprint), for batches below and above every
//! executor's chunk count; its generator is `print_batch_golden_table`.

use gko::linop::LinOp;
use gko::log::{ConvergenceLogger, Event, Record};
use gko::matrix::{BatchCsr, BatchDense, Csr, Dense};
use gko::preconditioner::Jacobi;
use gko::solver::{BatchBiCgStab, BatchCg, BiCgStab, Cg, Cgs, Fcg, Gmres, Ir, Minres, MixedIr};
use gko::stop::{Criteria, StopReason};
use gko::{Dim2, Executor, TripletValue, Value};
use pygko_half::Half;
use std::sync::Arc;

mod common;
use common::PoisonAfter;

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
    let b = (0..n).map(|i| 1.0 + 0.25 * ((i % 7) as f64) - 0.125 * ((i % 3) as f64));
    Dense::from_vec(exec, Dim2::new(n, 1), b.collect()).unwrap()
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
    solver_on(kind, a, a.clone(), criteria, jacobi, record)
}

/// [`solver_under_test`] with the system operator given apart from the
/// matrix `a` it stands for (Jacobi and mixed-precision IR, which converts
/// its matrix, are still built from `a`).
fn solver_on(
    kind: &str,
    a: &Arc<Csr<f64, i32>>,
    system: Arc<dyn LinOp<f64>>,
    criteria: Criteria,
    jacobi: bool,
    record: Option<Arc<Record>>,
) -> Built {
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

/// The executors of [`GOLDEN`]'s full rows.
fn executors() -> [Executor; 2] {
    [Executor::reference(), Executor::omp(7)]
}

/// The executors of [`FINGERPRINTS`]' columns.
fn fingerprinted() -> [Executor; 3] {
    [Executor::omp(2), Executor::omp(16), Executor::cuda(0)]
}

/// Counts one checked solver cell of `case` (`kind/system/[value/]
/// preconditioner/executor`) for the coverage table.
fn cover_case(case: &str, tier: &str) {
    let mut axes: Vec<&str> = case.split('/').collect();
    if axes.len() == 4 {
        axes.insert(2, "double");
    }
    let names = ["kind", "system", "value", "preconditioner", "executor"];
    let mut cell: Vec<(&'static str, &dyn std::fmt::Display)> =
        names.iter().zip(&axes).map(|(n, v)| (*n, v as _)).collect();
    cell.push(("tier", &tier));
    common::cover(&cell);
}

/// Bound on `‖b - A x‖ / ‖b‖` for a case converged in `V`: `REDUCTION` for
/// the criterion, which stops on the recurrence residual (the guess is zero);
/// `REDUCTION` once more for the recurrence's drift from the true residual
/// (at most 0.98 `REDUCTION` measured in `f64`); and `8 ε_V` for storing `x`
/// in `V`, which moves the residual by up to `κ(A) u_V ‖b‖`, with `κ ≤ 4.4`
/// on the ragged system by diagonal dominance (0.41 `ε_V` measured in
/// `f32`).
fn true_residual_bound<V: Value>() -> f64 {
    2.0 * REDUCTION + 8.0 * V::eps()
}

/// `‖b - A x‖ / ‖b‖`, summed in `f64` from the stored entries.
fn true_residual<V: Value>(a: &Csr<V, i32>, b: &[V], x: &[V]) -> f64 {
    let (rp, ci, vals) = (a.row_ptrs(), a.col_idxs(), a.values());
    let (mut rr, mut bb) = (0.0, 0.0);
    for (r, b) in b.iter().enumerate() {
        let span = rp[r] as usize..rp[r + 1] as usize;
        let ax: f64 = vals[span.clone()]
            .iter()
            .zip(&ci[span])
            .map(|(v, &c)| v.to_f64() * x[c as usize].to_f64())
            .sum();
        rr += (b.to_f64() - ax).powi(2);
        bb += b.to_f64().powi(2);
    }
    (rr / bb).sqrt()
}

/// Solves `b` from a zero guess with a solver whose events `record` observes,
/// asserting the per-solve event contract on the way.
fn trajectory<V: Value>(
    case: String,
    a: &Csr<V, i32>,
    (op, logger): (Arc<dyn LinOp<V>>, ConvergenceLogger),
    record: &Record,
    b: &Dense<V>,
) -> Trajectory {
    let mut x = Dense::zeros(b.executor(), b.size());
    op.apply(b, &mut x).unwrap();
    let rec = logger.snapshot();

    let events = record.events();
    let count = |pred: fn(&Event) -> bool| events.iter().filter(|e| pred(e)).count();
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
    if rec.converged() {
        let residual = true_residual(a, b.as_slice(), x.as_slice());
        assert!(
            residual <= true_residual_bound::<V>(),
            "{case}: converged with a true residual of {residual:e}"
        );
        cover_case(&case, "true_residual");
    }
    let solution: Vec<f64> = x.as_slice().iter().map(|v| v.to_f64()).collect();
    Trajectory {
        case,
        iterations: rec.iterations,
        stop: rec.stop_reason.expect("solve finished"),
        checks: count(|e| matches!(e, Event::CriterionChecked { .. })),
        solution: fingerprint(solution.iter()),
        history: rec.residual_history.iter().map(|r| r.to_bits()).collect(),
    }
}

/// The two golden systems: name and skew of [`stencil`].
const SYSTEMS: [(&str, f64); 2] = [("spd", 0.0), ("unsym", 0.35)];

/// Every (solver kind, preconditioner) pair, Jacobi where the kind takes one.
fn configs() -> impl Iterator<Item = (&'static str, &'static str)> {
    KINDS.into_iter().flat_map(|(kind, takes_precond)| {
        let preconds: &[&str] = if takes_precond {
            &["plain", "jacobi"]
        } else {
            &["plain"]
        };
        preconds.iter().map(move |p| (kind, *p))
    })
}

/// Runs every (solver, system, preconditioner) case on each of `execs`.
fn trajectories(execs: &[Executor]) -> Vec<Trajectory> {
    let mut out = Vec::new();
    for exec in execs {
        for (sys_name, skew) in SYSTEMS {
            let a = stencil(exec, skew);
            let b = rhs(exec, a.size().rows);
            for (kind, pname) in configs() {
                let case = format!("{kind}/{sys_name}/{pname}/{}", common::label(exec));
                let record = Arc::new(Record::new());
                let criteria = Criteria::iterations_and_reduction(MAX_ITERS, REDUCTION);
                let jacobi = pname == "jacobi";
                let built = solver_under_test(kind, &a, criteria, jacobi, Some(record.clone()));
                out.push(trajectory(case, &a, built, &record, &b));
            }
        }
    }
    out
}

/// Asserts that `got` is `table`, row by row.
fn assert_matches_table(got: &[Trajectory], table: &[Golden]) {
    assert_eq!(got.len(), table.len(), "case count");
    for (g, want) in got.iter().zip(table) {
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

/// Prints `trajectories` as the Rust source of the table `name`.
fn print_table(name: &str, trajectories: &[Trajectory]) {
    println!("#[rustfmt::skip]\nconst {name}: &[Golden] = &[");
    for t in trajectories {
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

#[test]
fn trajectories_match_the_golden_table() {
    let got = trajectories(&executors());
    assert_matches_table(&got, GOLDEN);
    got.iter().for_each(|t| cover_case(&t.case, "golden"));
    common::print_coverage("solver_golden::golden");
}

impl Trajectory {
    /// One `u64` fold of the residual history's bits and the solution's.
    fn fingerprint(&self) -> u64 {
        fold(self.history.iter().copied().chain([self.solution]))
    }
}

/// [`trajectories`] on the [`fingerprinted`] executors as [`FINGERPRINTS`]
/// rows: each case without its executor, then one fingerprint per executor.
fn fingerprint_rows() -> Vec<(String, [u64; 3])> {
    let got = trajectories(&fingerprinted());
    let cases = got.len() / 3;
    (0..cases)
        .map(|i| {
            let case = got[i].case.rsplit_once('/').unwrap().0;
            let columns = [0, 1, 2].map(|e| &got[e * cases + i]);
            for t in columns {
                assert!(t.case.starts_with(case));
                cover_case(&t.case, "fingerprint");
            }
            (case.to_string(), columns.map(Trajectory::fingerprint))
        })
        .collect()
}

/// Every case of [`GOLDEN`] on `omp(2)`, `omp(16)` and `cuda(0)`, pinned by
/// one fingerprint each.
#[test]
fn other_executors_match_their_fingerprints() {
    let got = fingerprint_rows();
    assert_eq!(got.len(), FINGERPRINTS.len(), "case count");
    for ((case, got), (want_case, want)) in got.iter().zip(FINGERPRINTS) {
        assert_eq!(case, want_case);
        assert_eq!(got, want, "{case} on omp2 / omp16 / cuda0 drifted");
    }
    common::print_coverage("solver_golden::fingerprints");
}

/// Prints [`GOLDEN`] and [`FINGERPRINTS`] as Rust source (see the module
/// docs).
#[test]
#[ignore = "generator for the GOLDEN and FINGERPRINTS tables"]
fn print_golden_table() {
    print_table("GOLDEN", &trajectories(&executors()));
    println!("#[rustfmt::skip]\nconst FINGERPRINTS: &[(&str, [u64; 3])] = &[");
    for (case, [a, b, c]) in fingerprint_rows() {
        println!("    ({case:?}, [{a:#018x}, {b:#018x}, {c:#018x}]),");
    }
    println!("];");
}

// ---------------------------------------------------------------------------
// The band: other executors against a live reference run
// ---------------------------------------------------------------------------

/// Cells whose rounding differences outgrow the band: the Jacobi-scaled CGS
/// and BiCGStab recurrences amplify them faster than doubling (by up to
/// 8.3x past the band). They are pinned by [`FINGERPRINTS`] only.
const OUTSIDE_THE_BAND: [&str; 11] = [
    "cgs/spd/jacobi/omp2",
    "cgs/spd/jacobi/omp7",
    "cgs/spd/jacobi/omp16",
    "cgs/spd/jacobi/cuda0",
    "cgs/unsym/jacobi/omp2",
    "cgs/unsym/jacobi/omp7",
    "cgs/unsym/jacobi/omp16",
    "cgs/unsym/jacobi/cuda0",
    "bicgstab/unsym/jacobi/omp2",
    "bicgstab/unsym/jacobi/omp16",
    "bicgstab/unsym/jacobi/cuda0",
];

/// Each (kind, system, preconditioner) on every other executor against the
/// reference executor, inside `common::assert_in_band`'s band, on the
/// golden systems and a 12 x 12 Poisson system.
#[test]
fn every_executor_stays_in_the_band_of_the_reference() {
    let [reference, omp7] = executors();
    let others: Vec<Executor> = std::iter::once(omp7).chain(fingerprinted()).collect();
    let system = |name: &str, exec: &Executor| match SYSTEMS.iter().find(|s| s.0 == name) {
        Some(&(_, skew)) => stencil(exec, skew),
        None => common::poisson(exec, 12),
    };
    let run = |kind: &str, pname: &str, a: &Arc<Csr<f64, i32>>| {
        let criteria = Criteria::iterations(common::BAND_ITERS);
        let (op, logger) = solver_under_test(kind, a, criteria, pname == "jacobi", None);
        let (exec, n) = (a.executor(), a.size().rows);
        let mut x = Dense::zeros(exec, Dim2::new(n, 1));
        op.apply(&rhs(exec, n), &mut x).unwrap();
        (logger.snapshot().residual_history, x.to_host_vec())
    };
    for sys_name in ["spd", "unsym", "poisson12"] {
        for (kind, pname) in configs() {
            let want = run(kind, pname, &system(sys_name, &reference));
            for exec in &others {
                let case = format!("{kind}/{sys_name}/{pname}/{}", common::label(exec));
                if OUTSIDE_THE_BAND.contains(&case.as_str()) {
                    continue;
                }
                let (history, x) = run(kind, pname, &system(sys_name, exec));
                common::assert_in_band(&case, (&history, &x), (&want.0, &want.1));
                cover_case(&case, "band");
            }
        }
    }
    common::print_coverage("solver_golden::band");
}

// ---------------------------------------------------------------------------
// GMRES on a ragged length, in three precisions
// ---------------------------------------------------------------------------

/// Unknowns of the ragged GMRES system: 12 blocks of 8 and 5 more, so every
/// whole-vector reduction of the Gram–Schmidt sweep ends in a tail, and on
/// `omp(7)` the chunks of the dense operations (7 or 8 elements) do too.
const RAGGED_N: usize = 101;

/// A banded unsymmetric matrix on [`RAGGED_N`] unknowns in `V`: the
/// unsymmetric stencil's couplings at distance 1 and 10 (a 10-wide grid
/// whose last row is short) and its row-dependent diagonal plus 3, so that
/// GMRES(9) converges within [`MAX_ITERS`] in `f64` and `f32`.
fn ragged_system<V: Value>(exec: &Executor) -> Arc<Csr<V, i32>>
where
    f64: TripletValue<V>,
{
    let (n, skew) = (RAGGED_N, 0.35);
    let mut t = Vec::new();
    for r in 0..n {
        t.push((r, r, 7.0 + 0.5 * (r % 5) as f64));
        for d in [1, 10] {
            if r >= d {
                t.push((r, r - d, -1.0 + skew));
            }
            if r + d < n {
                t.push((r, r + d, -1.0 - skew));
            }
        }
    }
    Arc::new(Csr::from_triplets(exec, Dim2::square(n), &t).unwrap())
}

/// GMRES(9) on [`ragged_system`] in `V`, plain and with Jacobi, on both
/// executors.
fn ragged_gmres_trajectories<V: Value>() -> Vec<Trajectory>
where
    f64: TripletValue<V>,
{
    let mut out = Vec::new();
    for exec in executors() {
        let a = ragged_system::<V>(&exec);
        let values = rhs(&exec, RAGGED_N)
            .to_host_vec()
            .into_iter()
            .map(V::from_f64)
            .collect();
        let b = Dense::from_vec(&exec, Dim2::new(RAGGED_N, 1), values).unwrap();
        for jacobi in [false, true] {
            let pname = if jacobi { "jacobi" } else { "plain" };
            let case = format!("gmres/ragged/{}/{pname}/{}", V::NAME, common::label(&exec));
            let record = Arc::new(Record::new());
            let s = Gmres::new(a.clone() as Arc<dyn LinOp<V>>)
                .unwrap()
                .with_krylov_dim(9);
            let s = if jacobi {
                s.with_preconditioner(Arc::new(Jacobi::new(&*a).unwrap()))
                    .unwrap()
            } else {
                s
            };
            let s = s.with_criteria(Criteria::iterations_and_reduction(MAX_ITERS, REDUCTION));
            s.add_logger(record.clone());
            let logger = s.logger().clone();
            out.push(trajectory(case, &a, (Arc::new(s), logger), &record, &b));
        }
    }
    out
}

fn ragged_gmres_all() -> Vec<Trajectory> {
    let mut out = ragged_gmres_trajectories::<f64>();
    out.extend(ragged_gmres_trajectories::<f32>());
    out.extend(ragged_gmres_trajectories::<Half>());
    out
}

/// GMRES's Gram–Schmidt sweep reduces whole vectors on the calling thread,
/// so on [`GOLDEN`]'s 64 unknowns it never reaches the lane kernel's tail;
/// these rows do, in every value type the solver is instantiated for.
#[test]
fn ragged_gmres_matches_the_golden_table() {
    let got = ragged_gmres_all();
    assert_matches_table(&got, RAGGED_GMRES_GOLDEN);
    got.iter().for_each(|t| cover_case(&t.case, "golden"));
    common::print_coverage("solver_golden::ragged_gmres");
}

/// Prints [`RAGGED_GMRES_GOLDEN`] as Rust source.
#[test]
#[ignore = "generator for the RAGGED_GMRES_GOLDEN table"]
fn print_ragged_gmres_golden_table() {
    print_table("RAGGED_GMRES_GOLDEN", &ragged_gmres_all());
}

// ---------------------------------------------------------------------------
// Shared edge cases, one table over all eight solvers
// ---------------------------------------------------------------------------

/// A residual norm that is not finite ends the solve as an uncounted
/// breakdown in every method: it is never recorded, whichever inner product
/// of the recurrence overflows or is poisoned first. Two ways to get one: an
/// operator that turns to NaN at its third application, and the singular
/// system `diag(0, 1, .., n-1) x = 1`, on which the methods that diverge
/// overflow (MINRES and mixed-precision IR stagnate on finite residuals
/// instead and run out of iterations).
#[test]
fn a_non_finite_residual_is_an_unrecorded_breakdown() {
    let exec = Executor::reference();
    let a = stencil(&exec, 0.0);
    let n = a.size().rows;
    let diagonal: Vec<(usize, usize, f64)> = (0..n).map(|i| (i, i, i as f64)).collect();
    let singular = Arc::new(Csr::from_triplets(&exec, Dim2::square(n), &diagonal).unwrap());
    let ones = Dense::<f64>::vector(&exec, n, 1.0);
    // (solver, stop reason on the singular system).
    let table = [
        ("cg", StopReason::Breakdown),
        ("fcg", StopReason::Breakdown),
        ("cgs", StopReason::Breakdown),
        ("bicgstab", StopReason::Breakdown),
        ("gmres", StopReason::Breakdown),
        ("ir", StopReason::Breakdown),
        ("minres", StopReason::MaxIterations),
        ("mixed_ir", StopReason::MaxIterations),
    ];
    let criteria = Criteria::iterations_and_reduction(2000, 1e-10);
    for (kind, on_singular) in table {
        let poisoned = PoisonAfter::new(a.clone(), 3);
        let cases = [
            // Mixed-precision IR applies the matrix it was built from, not
            // an operator, so it cannot be poisoned this way.
            (kind != "mixed_ir").then(|| {
                (
                    "poisoned",
                    solver_on(kind, &a, poisoned, criteria, false, None),
                    StopReason::Breakdown,
                )
            }),
            Some((
                "singular",
                solver_on(kind, &singular, singular.clone(), criteria, false, None),
                on_singular,
            )),
        ];
        for (case, (op, logger), want) in cases.into_iter().flatten() {
            let mut x = Dense::zeros(&exec, Dim2::new(n, 1));
            op.apply(&ones, &mut x).unwrap();
            let rec = logger.snapshot();
            assert_eq!(rec.stop_reason, Some(want), "{kind}/{case}: {rec:?}");
            assert!(
                rec.residual_history.iter().all(|r| r.is_finite()),
                "{kind}/{case}: a non-finite residual was recorded: {rec:?}"
            );
            assert_eq!(rec.residual_history.len(), rec.iterations, "{kind}/{case}");
        }
    }
}

/// Runs `check(label, executor, built solver)` for every solver kind on
/// both executors, unpreconditioned, on the SPD system.
fn for_each_solver(criteria: Criteria, check: impl Fn(&str, &Executor, Built)) {
    for exec in executors() {
        let a = stencil(&exec, 0.0);
        for (kind, _) in KINDS {
            let label = format!("{kind}/{}", common::label(&exec));
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

// ---------------------------------------------------------------------------
// Batched solvers
// ---------------------------------------------------------------------------

/// Batched cases: name, `BatchCg` on the SPD stencil (`true`) or
/// `BatchBiCgStab` on the unsymmetric one, systems, iteration limit. One
/// system lies below every executor's chunk count, 3 below omp's and above
/// the reference executor's, 40 above all of them.
const BATCH_CASES: [(&str, bool, usize, usize); 7] = [
    ("cg/1", true, 1, MAX_ITERS),
    ("cg/3", true, 3, MAX_ITERS),
    ("cg/40", true, 40, MAX_ITERS),
    ("cg/2/limit", true, 2, 3),
    ("bicgstab/1", false, 1, MAX_ITERS),
    ("bicgstab/3", false, 3, MAX_ITERS),
    ("bicgstab/40", false, 40, MAX_ITERS),
];

/// One batched solve: the stencil's sparsity shared by `systems` systems
/// whose diagonals are scaled per system, right-hand sides and initial
/// guesses that differ per system. From three systems on, system 1 has a
/// zero right-hand side and a zero guess (converged at iteration 0, `x`
/// untouched), system 2 a NaN in its right-hand side (breaks down alone at
/// iteration 0, its guess untouched), and BiCGStab's system 0 is `2 I`
/// stored on the shared pattern, for which `s = r - alpha v` is exactly zero:
/// it leaves through the half-step exit of iteration 1 (the full step would
/// break down on `t·t = 0`).
/// Entry `i` of system `s`'s initial guess.
fn batch_guess(s: usize, i: usize) -> f64 {
    0.015625 * ((i + s) % 5) as f64
}

/// Order-sensitive fold of a sequence of bit patterns.
fn fold(bits: impl Iterator<Item = u64>) -> u64 {
    bits.fold(0u64, |h, b| h.rotate_left(5) ^ b)
}

/// Order-sensitive fold of a vector's bits.
fn fingerprint<'a>(v: impl Iterator<Item = &'a f64>) -> u64 {
    fold(v.map(|v| v.to_bits()))
}

fn batch_outcomes(exec: &Executor, cg: bool, systems: usize, limit: usize) -> Vec<BatchGolden> {
    let proto = stencil(exec, if cg { 0.0 } else { 0.35 });
    let n = proto.size().rows;
    let (row_ptrs, col_idxs) = (proto.row_ptrs(), proto.col_idxs());
    let diagonal: Vec<bool> = (0..n)
        .flat_map(|r| {
            (row_ptrs[r]..row_ptrs[r + 1]).map(move |k| col_idxs[k as usize] as usize == r)
        })
        .collect();
    let specials = systems >= 3;
    let values: Vec<Vec<f64>> = (0..systems)
        .map(|s| {
            let scale = 1.0 + 0.125 * (s % 9) as f64;
            let twice_identity = specials && !cg && s == 0;
            let entry = |(&v, &on_diagonal): (&f64, &bool)| match (twice_identity, on_diagonal) {
                (true, true) => 2.0,
                (true, false) => 0.0,
                (false, true) => v * scale,
                (false, false) => v,
            };
            proto.values().iter().zip(&diagonal).map(entry).collect()
        })
        .collect();
    let batch = Arc::new(BatchCsr::from_shared(&proto, &values).unwrap());
    let mut b = BatchDense::<f64>::zeros(exec, systems, Dim2::new(n, 1));
    let mut x = BatchDense::<f64>::zeros(exec, systems, Dim2::new(n, 1));
    let single = rhs(exec, n).to_host_vec();
    for s in 0..systems {
        for (i, (b_i, x_i)) in b.system_mut(s).iter_mut().zip(x.system_mut(s)).enumerate() {
            *b_i = single[i] + 0.0625 * s as f64;
            *x_i = batch_guess(s, i);
        }
    }
    if specials {
        b.system_mut(1).fill(0.0);
        x.system_mut(1).fill(0.0);
        b.system_mut(2)[4] = f64::NAN;
    }
    let criteria = Criteria::iterations_and_reduction(limit, REDUCTION);
    let record = if cg {
        BatchCg::new(batch)
            .unwrap()
            .with_criteria(criteria)
            .apply_batch(&b, &mut x)
    } else {
        BatchBiCgStab::new(batch)
            .unwrap()
            .with_criteria(criteria)
            .apply_batch(&b, &mut x)
    }
    .unwrap();
    record
        .outcomes
        .iter()
        .enumerate()
        .map(|(s, o)| {
            let (initial, last) = (o.initial_residual.to_bits(), o.final_residual.to_bits());
            (
                o.iterations,
                o.stop_reason,
                initial,
                last,
                fingerprint(x.system(s).iter()),
            )
        })
        .collect()
}

/// Every system of every batched case equals its golden row in every bit, on
/// the reference executor and on `omp(7)` / `omp(16)`: a system's arithmetic
/// does not depend on how the batch was cut into chunks.
#[test]
fn batched_outcomes_match_the_golden_table() {
    assert_eq!(BATCH_CASES.len(), BATCH_GOLDEN.len(), "case count");
    let executors = [Executor::reference(), Executor::omp(7), Executor::omp(16)];
    for ((case, cg, systems, limit), (name, want)) in BATCH_CASES.into_iter().zip(BATCH_GOLDEN) {
        assert_eq!(case, *name);
        for exec in &executors {
            let got = batch_outcomes(exec, cg, systems, limit);
            assert_eq!(got.len(), want.len(), "{case} on {}", exec.name());
            for (s, (g, w)) in got.iter().zip(*want).enumerate() {
                assert_eq!(g, w, "{case} system {s} on {} drifted", exec.name());
            }
        }
    }
    // The special systems are what their names say.
    let row = |case: &str, s: usize| {
        let (_, rows) = BATCH_GOLDEN.iter().find(|(name, _)| *name == case).unwrap();
        rows[s]
    };
    let guess: Vec<f64> = (0..GRID * GRID).map(|i| batch_guess(2, i)).collect();
    for case in ["cg/3", "cg/40", "bicgstab/3", "bicgstab/40"] {
        let (zero_rhs, poisoned) = (row(case, 1), row(case, 2));
        let converged_at_once = (0, StopReason::ResidualReduction, 0);
        assert_eq!(
            (zero_rhs.0, zero_rhs.1, zero_rhs.4),
            converged_at_once,
            "{case}"
        );
        let broke_down_at_once = (0, StopReason::Breakdown, fingerprint(guess.iter()));
        assert_eq!(
            (poisoned.0, poisoned.1, poisoned.4),
            broke_down_at_once,
            "{case}"
        );
    }
    for case in ["bicgstab/3", "bicgstab/40"] {
        let half_step = row(case, 0);
        let exact_after_half_a_step = (1, StopReason::ResidualReduction, 0);
        assert_eq!(
            (half_step.0, half_step.1, half_step.3),
            exact_after_half_a_step,
            "{case}"
        );
    }
    for s in 0..2 {
        let limited = row("cg/2/limit", s);
        assert_eq!((limited.0, limited.1), (3, StopReason::MaxIterations));
    }
}

/// Prints [`BATCH_GOLDEN`] as Rust source.
#[test]
#[ignore = "generator for the BATCH_GOLDEN table"]
fn print_batch_golden_table() {
    println!("#[rustfmt::skip]\nconst BATCH_GOLDEN: &[(&str, &[BatchGolden])] = &[");
    for (case, cg, systems, limit) in BATCH_CASES {
        println!("    ({case:?}, &[");
        let outcomes = batch_outcomes(&Executor::reference(), cg, systems, limit);
        for (iters, stop, initial, last, x) in outcomes {
            println!("        ({iters}, StopReason::{stop:?}, {initial:#018x}, {last:#018x}, {x:#018x}),");
        }
        println!("    ]),");
    }
    println!("];");
}

/// One system of a batched solve: `(iterations, stop, initial residual bits,
/// final residual bits, solution fingerprint)`.
type BatchGolden = (usize, StopReason, u64, u64, u64);

#[rustfmt::skip]
const BATCH_GOLDEN: &[(&str, &[BatchGolden])] = &[
    ("cg/1", &[
        (23, StopReason::ResidualReduction, 0x402a5c41db8ffc72, 0x3e3da498ef9041d5, 0xb7016151387cd6cb),
    ]),
    ("cg/3", &[
        (23, StopReason::ResidualReduction, 0x402a5c41db8ffc72, 0x3e3da498ef9041d5, 0xb7016151387cd6cb),
        (0, StopReason::ResidualReduction, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000),
        (0, StopReason::Breakdown, 0x7ff8000000000000, 0x7ff8000000000000, 0xb3e2cf8d3967c69c),
    ]),
    ("cg/40", &[
        (23, StopReason::ResidualReduction, 0x402a5c41db8ffc72, 0x3e3da498ef9041d5, 0xb7016151387cd6cb),
        (0, StopReason::ResidualReduction, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000),
        (0, StopReason::Breakdown, 0x7ff8000000000000, 0x7ff8000000000000, 0xb3e2cf8d3967c69c),
        (17, StopReason::ResidualReduction, 0x402ca4f9c15e1a10, 0x3e38f24247c5132d, 0x4ae5365fa9f4aa10),
        (16, StopReason::ResidualReduction, 0x402d35b6886feb99, 0x3e3a2bbf372e8705, 0x121f34df9c205b86),
        (15, StopReason::ResidualReduction, 0x402da81376f02bb8, 0x3e44575ab0c99824, 0x136ca93732689744),
        (15, StopReason::ResidualReduction, 0x402e8a8cbb9b2ec6, 0x3e2fd72c8a5961dc, 0x02148f1e46e2055b),
        (14, StopReason::ResidualReduction, 0x402f6b2fbf2e91cf, 0x3e3c7fa8b9b8a9aa, 0xacf2bc6f5aba847a),
        (13, StopReason::ResidualReduction, 0x40300d87c76dd737, 0x3e4e55e74295016e, 0xdb15e86ba71c7b0d),
        (23, StopReason::ResidualReduction, 0x40319402bb0cc232, 0x3e42101884c7bb2a, 0x6b3a96f33688a529),
        (20, StopReason::ResidualReduction, 0x4031d2b6a1c60548, 0x3e416d30b636e9fa, 0xd5b07e206c1c0ee9),
        (18, StopReason::ResidualReduction, 0x40323dc11f42f165, 0x3e489229a2a11b3b, 0x700fee42f62c8b79),
        (17, StopReason::ResidualReduction, 0x4032a9fda33364b5, 0x3e3d2acd7cc9a020, 0xdb6469eb70fb64ad),
        (16, StopReason::ResidualReduction, 0x403303c93a6164fc, 0x3e3ef5dd4b644ec9, 0xf0970347394ffa54),
        (15, StopReason::ResidualReduction, 0x40334aef594771ad, 0x3e4985c730d26844, 0xf2783944df3302b7),
        (14, StopReason::ResidualReduction, 0x40337e60b6ee6922, 0x3e51f312d2693208, 0x183d2ff2cf655e65),
        (14, StopReason::ResidualReduction, 0x4033f50713e34935, 0x3e3fcc0fc11900c1, 0x479d3bb4882c8527),
        (13, StopReason::ResidualReduction, 0x40346a6438a5777b, 0x3e50f2be9ad44a12, 0x835975a031d0dcce),
        (23, StopReason::ResidualReduction, 0x403604ea16645ca1, 0x3e438b6a41e9ad52, 0x6e59bfd752fb14ba),
        (20, StopReason::ResidualReduction, 0x403650fca0c70f7d, 0x3e45d19803089c1e, 0xac10bf39dede21c8),
        (18, StopReason::ResidualReduction, 0x40368bcc405837ca, 0x3e4ab00b616833c5, 0xde842d21c6315bca),
        (17, StopReason::ResidualReduction, 0x4036fad68a51bed1, 0x3e40b3f4eacd9d8b, 0x729b9358974a5df9),
        (16, StopReason::ResidualReduction, 0x40376a864b339e47, 0x3e4264c8fdaae240, 0xa8af0725aeb079b0),
        (15, StopReason::ResidualReduction, 0x4037c59d0f18898d, 0x3e4dc2a8c6e8ec1a, 0x0b2889165e6ea10f),
        (14, StopReason::ResidualReduction, 0x40380b2dc5847dc1, 0x3e5438d402c47977, 0x412c989a8e0bb31b),
        (14, StopReason::ResidualReduction, 0x40383993046891fa, 0x3e4018aef2aec0d9, 0xcb49568700cee89d),
        (13, StopReason::ResidualReduction, 0x4038b43be90c09b9, 0x3e5204e25db5bf73, 0x5590befd5fc44288),
        (23, StopReason::ResidualReduction, 0x403a72222ef444a4, 0x3e45d2e2d87d9b90, 0xc6f66a9abc187a44),
        (20, StopReason::ResidualReduction, 0x403acd2382174476, 0x3e49213fa7c43de6, 0xbaae07eeaa30af0d),
        (18, StopReason::ResidualReduction, 0x403b17cf510757e7, 0x3e4fefa6286e2b50, 0x19b611b653488e82),
        (17, StopReason::ResidualReduction, 0x403b4ec0e5f8ef98, 0x3e41724f8c47d0a6, 0x7ad2528d09f29efb),
        (16, StopReason::ResidualReduction, 0x403bc1239489e430, 0x3e42b8cf5f704693, 0x45b45f308708ed22),
        (15, StopReason::ResidualReduction, 0x403c33c38f22a853, 0x3e50680b0bc506de, 0x56372db5122b68f4),
        (14, StopReason::ResidualReduction, 0x403c8fb7329d0e59, 0x3e5573c56d1490b6, 0xf032b2d7e18e5066),
        (14, StopReason::ResidualReduction, 0x403cd3998077b62e, 0x3e4187c1c773d4b4, 0x7f773f0c9469bf13),
        (13, StopReason::ResidualReduction, 0x403cfd60fc28768d, 0x3e53ee312fdad733, 0x7f3b3f146cbc9a59),
        (23, StopReason::ResidualReduction, 0x403ed457f83e5e05, 0x3e45cab623ba430b, 0x23763d3faeada591),
        (20, StopReason::ResidualReduction, 0x403f3f48bfb174bb, 0x3e4bbf641429a24f, 0x9c4da71e2eff9fbc),
        (18, StopReason::ResidualReduction, 0x403f9ae85e6128e7, 0x3e52c3dd01ca2393, 0xacf6d1340126cad8),
        (17, StopReason::ResidualReduction, 0x403fe40e6696862f, 0x3e448bce017249ee, 0x3ab58868c8f2a56f),
    ]),
    ("cg/2/limit", &[
        (3, StopReason::MaxIterations, 0x402a5c41db8ffc72, 0x4001f448286d6ee9, 0x88f6a313ded06592),
        (3, StopReason::MaxIterations, 0x402b271b0d0590da, 0x3ff4d964f79bed0c, 0xf72658937c800781),
    ]),
    ("bicgstab/1", &[
        (14, StopReason::ResidualReduction, 0x402a5eaddbded013, 0x3e3f766258578bde, 0xadf940c30a6f52ea),
    ]),
    ("bicgstab/3", &[
        (1, StopReason::ResidualReduction, 0x402a31513a1d70c0, 0x0000000000000000, 0xc40c8093d9750300),
        (0, StopReason::ResidualReduction, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000),
        (0, StopReason::Breakdown, 0x7ff8000000000000, 0x7ff8000000000000, 0xb3e2cf8d3967c69c),
    ]),
    ("bicgstab/40", &[
        (1, StopReason::ResidualReduction, 0x402a31513a1d70c0, 0x0000000000000000, 0xc40c8093d9750300),
        (0, StopReason::ResidualReduction, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000),
        (0, StopReason::Breakdown, 0x7ff8000000000000, 0x7ff8000000000000, 0xb3e2cf8d3967c69c),
        (10, StopReason::ResidualReduction, 0x402ca38346a7164e, 0x3e450e322d9a59c6, 0xbe779c62fe861932),
        (10, StopReason::ResidualReduction, 0x402d338d1a1c8780, 0x3e42599ec64e0b4d, 0xc297f922072b0b68),
        (10, StopReason::ResidualReduction, 0x402daa916948483c, 0x3e40897e745a1c7e, 0xff623fcb963c66cc),
        (9, StopReason::ResidualReduction, 0x402e8d4fbfe3690c, 0x3e4dbc889648a8be, 0x31eb28ba9c3ed744),
        (8, StopReason::ResidualReduction, 0x402f6af74a0924ab, 0x3e49297ced5863b8, 0xf9c65dc425311806),
        (8, StopReason::ResidualReduction, 0x40300cc9d4eefa55, 0x3e3a5980b282f9ba, 0x47fbfff3aa306ef3),
        (14, StopReason::ResidualReduction, 0x4031932ed5645402, 0x3e51dfd2ab7969c7, 0xa4295291fc62d7f4),
        (12, StopReason::ResidualReduction, 0x4031d3d05b1cd21d, 0x3e39ab4854b0fc03, 0x333ec9b8cc1ccb5f),
        (11, StopReason::ResidualReduction, 0x40323ef7cf0259c6, 0x3e371799743e8675, 0xa3b5c93b0ba9857a),
        (10, StopReason::ResidualReduction, 0x4032a9e31a2a90f5, 0x3e4331b1aad48020, 0x602e24e440433d0c),
        (10, StopReason::ResidualReduction, 0x403302f8b6c52e28, 0x3e3bbc2eab42f05d, 0x13bb8d6b4cb563b8),
        (10, StopReason::ResidualReduction, 0x40334a0cb7f26aca, 0x3e33efce904529da, 0x05ffb46e0b26fc3c),
        (9, StopReason::ResidualReduction, 0x40337f83546ed841, 0x3e4024cddedb2ee6, 0xf03317a83701ee06),
        (9, StopReason::ResidualReduction, 0x4033f644b8cfcf71, 0x3e375ccc1f230772, 0x6b9952339f3d1cbb),
        (9, StopReason::ResidualReduction, 0x40346a42ca5fe3f2, 0x3e135e7ddfb0a02b, 0x320fabe5d93d040f),
        (13, StopReason::ResidualReduction, 0x4036040c70b111d9, 0x3e5090ce6db047a2, 0x06822cea327ead7c),
        (12, StopReason::ResidualReduction, 0x40365046e35d40dd, 0x3e4c798c555b132b, 0x0f3d1a9d9f91c282),
        (11, StopReason::ResidualReduction, 0x40368cd4712e0b92, 0x3e430bf32faf9113, 0xd7fe456d198265a8),
        (10, StopReason::ResidualReduction, 0x4036fbf61b194a71, 0x3e4e137158165460, 0xc926137baa0b0088),
        (10, StopReason::ResidualReduction, 0x40376a66ef478e6f, 0x3e50c6a9c74a0e80, 0x2d7edded46f9bc3d),
        (10, StopReason::ResidualReduction, 0x4037c4c04b729453, 0x3e2398b2ce9845dd, 0xb0ec15daf9575a6c),
        (10, StopReason::ResidualReduction, 0x40380a6a27f8a00f, 0x3e1902b98e763c4a, 0x34450ae342fad06e),
        (8, StopReason::ResidualReduction, 0x40383aa37b68f59d, 0x3e50933321abd81f, 0x037169de4df66f62),
        (8, StopReason::ResidualReduction, 0x4038b5629b2e3521, 0x3e505a333f5bffb6, 0x91c322f60f96e083),
        (14, StopReason::ResidualReduction, 0x403a7204754ff4be, 0x3e31f8fae9d169ce, 0x7cd4398ef27a85ce),
        (12, StopReason::ResidualReduction, 0x403acc3d8897fdc3, 0x3e4b1bb69b204920, 0x96433c575600ed4c),
        (12, StopReason::ResidualReduction, 0x403b172d664300fe, 0x3e2093821ba7e47d, 0x83a7ea62db469e29),
        (10, StopReason::ResidualReduction, 0x403b4fbd4582aae0, 0x3e49465102d79f2c, 0x73c0913616be4cb8),
        (10, StopReason::ResidualReduction, 0x403bc233934c0d40, 0x3e2d566b162297ed, 0xa70cb44dc6eae418),
        (9, StopReason::ResidualReduction, 0x403c33a10ba86dd6, 0x3e5388da62a598a3, 0xc8f739fda9d1dc2b),
        (9, StopReason::ResidualReduction, 0x403c8ed28737dbc2, 0x3e54f6bcb81632ae, 0xdb190035c76c4b28),
        (8, StopReason::ResidualReduction, 0x403cd2eadbe60e8d, 0x3e5ba3c46ab932ca, 0x9625d3aa509c5894),
        (8, StopReason::ResidualReduction, 0x403cfe64ed8ea882, 0x3e42717f7131d4de, 0x68f93adf22503d6f),
        (13, StopReason::ResidualReduction, 0x403ed5558e7e29d4, 0x3e586a58896dd51c, 0x217e570225885ccb),
        (12, StopReason::ResidualReduction, 0x403f3f27f0d87958, 0x3e48d119e3c3df09, 0xae81885b62c77340),
        (11, StopReason::ResidualReduction, 0x403f99fcc014bbb0, 0x3e570dd903bd43de, 0x54d4f6af5c822017),
        (10, StopReason::ResidualReduction, 0x403fe37a764e53ba, 0x3e536ebc5ea6ec16, 0xe8a42af5ee3af6a7),
    ]),
];

#[rustfmt::skip]
const FINGERPRINTS: &[(&str, [u64; 3])] = &[
    ("cg/spd/plain", [0x9bcd3048f697823f, 0xe4301d4f53a72dd1, 0xe4301d4f53a72dd1]),
    ("cg/spd/jacobi", [0x800b2ca661828b65, 0x037f2efe612a45d1, 0x037f2efe612a45d1]),
    ("fcg/spd/plain", [0x2341d1ada9fc9d26, 0x76c6648aaa139956, 0x76c6648aaa139956]),
    ("fcg/spd/jacobi", [0x98dcad99e448c8ff, 0xbcc3c3ea2c022621, 0xbcc3c3ea2c022621]),
    ("cgs/spd/plain", [0x94d4afdc0a0132e6, 0x94d4afdc63325884, 0x94d4afdc63325884]),
    ("cgs/spd/jacobi", [0x7f8e2a5cef7e95e1, 0x47802905f922cbde, 0x47802905f922cbde]),
    ("bicgstab/spd/plain", [0x8b9a3c2530137ac2, 0x3a59bc02bbc09a23, 0x3a59bc02bbc09a23]),
    ("bicgstab/spd/jacobi", [0x829910e4eca196cc, 0x889e84d75e3d27e5, 0x889e84d75e3d27e5]),
    ("gmres/spd/plain", [0xcd07bae01ab78471, 0xcd07bae01ab78471, 0xcd07bae01ab78471]),
    ("gmres/spd/jacobi", [0x9282f14103ac5921, 0x921d5d414a783a61, 0x921d5d414a783a61]),
    ("ir/spd/plain", [0x3e1c196fff5b5215, 0x3e1c1f6fff5b5215, 0x3e1c1f6fff5b5215]),
    ("ir/spd/jacobi", [0x521447a036b72bee, 0x521447c076b723ee, 0x521447c076b723ee]),
    ("minres/spd/plain", [0x724f7cd5f017bf39, 0x5176761a8ae3d023, 0x5176761a8ae3d023]),
    ("mixed_ir/spd/plain", [0x1c1b744cea8eee79, 0x1c1b744cea8eee79, 0x1c1b744cea8eee79]),
    ("cg/unsym/plain", [0x060511621596c4d5, 0x3a0562b2006b40ae, 0x3a0562b2006b40ae]),
    ("cg/unsym/jacobi", [0xe3a197bbfaf79995, 0x0a1d502d9eaa6760, 0x0a1d502d9eaa6760]),
    ("fcg/unsym/plain", [0x91be906f0236dfb2, 0xdb46d0427bdc4c3b, 0xdb46d0427bdc4c3b]),
    ("fcg/unsym/jacobi", [0x00ecf61014ef263a, 0x7c6608594e88a68b, 0x7c6608594e88a68b]),
    ("cgs/unsym/plain", [0x732ec96ccf60c568, 0x4a29d39899071baf, 0x4a29d39899071baf]),
    ("cgs/unsym/jacobi", [0x3003777f2b976cee, 0x63a787415d4f6024, 0x63a787415d4f6024]),
    ("bicgstab/unsym/plain", [0xb98ffd5aeac3b1de, 0x0ab9afe5fc1a8ab0, 0x0ab9afe5fc1a8ab0]),
    ("bicgstab/unsym/jacobi", [0xb95bda8cc7bd1af5, 0x2aa51ca833ef9e8f, 0x2aa51ca833ef9e8f]),
    ("gmres/unsym/plain", [0x803fe6b7cf5b8ec4, 0xebe3780481a05c51, 0xebe3780481a05c51]),
    ("gmres/unsym/jacobi", [0xe0c194a92631b1d0, 0x341cd8a83188a518, 0x341cd8a83188a518]),
    ("ir/unsym/plain", [0xc13581849656ecc9, 0xc1358184ee80ecc9, 0xc1358184ee80ecc9]),
    ("ir/unsym/jacobi", [0x07f627579c0c0703, 0x07f603771e23f8c3, 0x07f603771e23f8c3]),
    ("minres/unsym/plain", [0x8193868dd32f60e6, 0xb33696074e4125cc, 0xb33696074e4125cc]),
    ("mixed_ir/unsym/plain", [0x52866c62f8cfbdb8, 0x52866c7af8cfbdb8, 0x52866c7af8cfbdb8]),
];

/// `(case, iterations, stop, criterion checks, solution fingerprint,
/// residual history bits)`.
type Golden = (&'static str, usize, StopReason, usize, u64, &'static [u64]);

#[rustfmt::skip]
const GOLDEN: &[Golden] = &[
    ("cg/spd/plain/reference", 23, StopReason::ResidualReduction, 24, 0x30bada96a93d884d, &[
        0x40247abb657062ef, 0x401115b79fe521af, 0x4003138168401410, 0x3fecd096474dce80,
        0x3fd76bf0ce885dd4, 0x3fc0172eff617c7e, 0x3fa6055fe6ae1384, 0x3f90ff29f239f708,
        0x3f7579552541bb0c, 0x3f621a89d0191031, 0x3f5172b05fa4b91f, 0x3f41714ca6b60e54,
        0x3f2c841cbe8d827b, 0x3f141ded60c324f8, 0x3ef95608848ba2ec, 0x3ee294f4149ecd85,
        0x3ed03fee53b354f8, 0x3eba7037063e2d91, 0x3ea27b8c98a11d12, 0x3e83031fca68e72a,
        0x3e69e6fd85c8b643, 0x3e56c6b994cb3593, 0x3e3ff8ab55ce0afd,
    ]),
    ("cg/spd/jacobi/reference", 22, StopReason::ResidualReduction, 23, 0xc1e483b510c2c717, &[
        0x4022d2398df8cfef, 0x4010d093d2bf276c, 0x4000c19d11f96f54, 0x3fea87547b627d03,
        0x3fd40180f7c84155, 0x3fb8d1d82683bce0, 0x3f9fbe2677812a3e, 0x3f8a66846614b657,
        0x3f704987572c581f, 0x3f5b39c41510c62b, 0x3f4f6ee447517f42, 0x3f36841212047592,
        0x3f201f8e1b66e483, 0x3f05a7d91738e46a, 0x3ef00b5ccee0ddd4, 0x3edfd202e7ee7328,
        0x3ec1e783a114f082, 0x3ea4723953b34d7a, 0x3e859385182b1259, 0x3e66c0f9bfd70bc9,
        0x3e5162ca08547847, 0x3e3689b1f4a800f2,
    ]),
    ("fcg/spd/plain/reference", 23, StopReason::ResidualReduction, 24, 0xe6a659866ebbead8, &[
        0x40247abb657062ef, 0x401115b79fe521ae, 0x4003138168401410, 0x3fecd096474dce81,
        0x3fd76bf0ce885dd4, 0x3fc0172eff617c7f, 0x3fa6055fe6ae1387, 0x3f90ff29f239f70e,
        0x3f7579552541bb18, 0x3f621a89d0191043, 0x3f5172b05fa4b933, 0x3f41714ca6b60e6a,
        0x3f2c841cbe8d828d, 0x3f141ded60c32503, 0x3ef95608848ba304, 0x3ee294f4149ecda1,
        0x3ed03fee53b35519, 0x3eba7037063e2db0, 0x3ea27b8c98a11d1b, 0x3e83031fca68e72e,
        0x3e69e6fd85c8b641, 0x3e56c6b994cb358c, 0x3e3ff8ab55ce0aca,
    ]),
    ("fcg/spd/jacobi/reference", 22, StopReason::ResidualReduction, 23, 0x4bf1e3de89c3bcdc, &[
        0x4022d2398df8cfef, 0x4010d093d2bf276c, 0x4000c19d11f96f53, 0x3fea87547b627d00,
        0x3fd40180f7c84153, 0x3fb8d1d82683bcdb, 0x3f9fbe2677812a38, 0x3f8a66846614b64e,
        0x3f704987572c5815, 0x3f5b39c41510c60b, 0x3f4f6ee447517f16, 0x3f3684121204757d,
        0x3f201f8e1b66e484, 0x3f05a7d91738e470, 0x3ef00b5ccee0ddaf, 0x3edfd202e7ee72e1,
        0x3ec1e783a114f0e6, 0x3ea4723953b34d14, 0x3e859385182b104b, 0x3e66c0f9bfd71045,
        0x3e5162ca08547a52, 0x3e3689b1f4a7f539,
    ]),
    ("cgs/spd/plain/reference", 14, StopReason::ResidualReduction, 15, 0xf11ba6b11c2e3516, &[
        0x403d7a94d9b22870, 0x4016aa298c8ce43e, 0x40012c1128904441, 0x3fcdd8d2820d1b4a,
        0x3fa33612fb46ee27, 0x3f793c38f5e6c061, 0x3f43928d2cf67917, 0x3f1530d343969dcd,
        0x3ef244bd20878693, 0x3ed5d0ade122dd0b, 0x3eb9ceec2bdcd968, 0x3e910c3ba580ddb6,
        0x3e5b14e875895c92, 0x3e348b3002b93d3c,
    ]),
    ("cgs/spd/jacobi/reference", 13, StopReason::ResidualReduction, 14, 0xf12342989a72a649, &[
        0x403ccfae860c4fe3, 0x40182e03f73ee32e, 0x3ffa64fae782b247, 0x3fc8ac69f079ef52,
        0x3fa3f92ab6fe5ec9, 0x3f6e76e676ccb880, 0x3f35a75cca6cdac7, 0x3f161740c3f1475d,
        0x3ef10bc8883c895c, 0x3ed0733e7de0940c, 0x3eb0f16508361f44, 0x3e70fe57188f4e94,
        0x3e450d898f36f0a3,
    ]),
    ("bicgstab/spd/plain/reference", 14, StopReason::ResidualReduction, 29, 0xeffd6294b4d19d7e, &[
        0x400f1be3727d8e5f, 0x3ff5b6a093746ecb, 0x3fd9b9b27f506a9a, 0x3fb1d62b00765cf3,
        0x3f8943c96a86e9ed, 0x3f5f1738db47bc80, 0x3f3e6f14f1ddd4df, 0x3f21226e9d8dc3df,
        0x3f02fbda422d2f0f, 0x3eeb64cca4a691e9, 0x3ecf804f1576e124, 0x3eabb617d253a19a,
        0x3e78301b9a66fac7, 0x3e444e258eb9b599,
    ]),
    ("bicgstab/spd/jacobi/reference", 14, StopReason::ResidualReduction, 28, 0xfbf101f387ce2946, &[
        0x400da80d46388220, 0x3ff47d962ddbb02c, 0x3fd3d1f439dcffb0, 0x3fae2dc9da47fcf1,
        0x3f7f60f5dafe1765, 0x3f5150d2ee8b8a29, 0x3f32750929e7e74f, 0x3f193d8e137118e0,
        0x3f01235ee1178042, 0x3eead5d5d07f8fb0, 0x3ec9a3945f84f94f, 0x3e95fa30778b82b4,
        0x3e6764918631083b, 0x3e4c758e8633e50a,
    ]),
    ("gmres/spd/plain/reference", 26, StopReason::ResidualReduction, 30, 0x179bda677b7c205b, &[
        0x402057647aa7780d, 0x400e48225a8e4d9f, 0x400023f95d45e258, 0x3fea50229329e158,
        0x3fd565e96f31fd0b, 0x3fbe1f554a9dea19, 0x3fa4aebf833241a4, 0x3f8f7150f362afe5,
        0x3f74526057799117, 0x3f63e47c9082cede, 0x3f524463a5aab6c4, 0x3f40bfdbf51801e3,
        0x3f2df3b22e12b70f, 0x3f18fd750bf0ccbb, 0x3f02678cd1dd7746, 0x3eec87fd975ecb58,
        0x3ed660254ebe7ead, 0x3ec621e273990a41, 0x3ebae33c686ca7c7, 0x3ea9e6bc53e6d82b,
        0x3e9a639038be8c5f, 0x3e8ca20703036d84, 0x3e7bccdc22fece4c, 0x3e667547af8b8869,
        0x3e509bae837361c8, 0x3e3a5960de31ab09,
    ]),
    ("gmres/spd/jacobi/reference", 25, StopReason::ResidualReduction, 29, 0xdff280df5987900b, &[
        0x401f49001aaf8df8, 0x400d74f8e5402be2, 0x3ffd1b707e5025a8, 0x3fe840ee1f6fa966,
        0x3fd28af36d92b941, 0x3fb73efbf82efc6a, 0x3f9e03ce8aa964e0, 0x3f8843a34e7b830b,
        0x3f6ebd6e4d946a92, 0x3f5df27677e42a90, 0x3f4eb6c465e0b37d, 0x3f386827de154b0c,
        0x3f230565d6e4d65c, 0x3f0eac75ca7c6028, 0x3ef5eb7576bd6242, 0x3ee28ec796efcff0,
        0x3eccbd3340f56831, 0x3ebb75b6a6b53147, 0x3eaedd8a0c8c40dd, 0x3e9c47e2dba96d8b,
        0x3e8d95d0537fd956, 0x3e7fcef5ee387aff, 0x3e6f1f5b61f25ee7, 0x3e596a70b6ccce9d,
        0x3e446d160e62b061,
    ]),
    ("ir/spd/plain/reference", 36, StopReason::MaxIterations, 37, 0x35fbd3689cc3b97d, &[
        0x4021eaca9ddac7e2, 0x401958aa35f467c6, 0x4012d30bc819a312, 0x400e0ddbb7548104,
        0x400ac80e13f9fc1a, 0x400afa716cb3c791, 0x400dc7ebbf745e06, 0x4011465847795b41,
        0x4014815fe405aab8, 0x40189796b99a7571, 0x401da3f72bb0fa4a, 0x4021e94662da12ba,
        0x4025aefaa7031057, 0x402a47dc9d3872c6, 0x402fe124aac3088e, 0x40335907659314e2,
        0x40377ef3cee8f7ab, 0x403c8b4e197152fe, 0x404157f7d2d239dc, 0x404514c0101c2c5c,
        0x4049a0e6101d70e0, 0x404f294ee0f1e3dc, 0x4052f24cceba6e91, 0x40570a9d6376d581,
        0x405c06063c96e177, 0x40610adb31e03fae, 0x4064bac2434f5578, 0x4069371eea358612,
        0x406eac3a6d8c4b3b, 0x4072a7fb079b26dc, 0x4076b1ef89423186, 0x407b9bdb018da31d,
        0x4080cb208ceabbaa, 0x40846e13f51e0a4a, 0x4088daaf658deff1, 0x408e3ca1b3c85851,
    ]),
    ("ir/spd/jacobi/reference", 36, StopReason::MaxIterations, 37, 0xeb1a4c711553a479, &[
        0x4028f1f16313bc57, 0x402714eb933f0ce3, 0x40256e31e0d77ee7, 0x4023f12e2ab0d4ea,
        0x4022965249588c32, 0x40215890ba0e00c3, 0x40203437b2f653c6, 0x401e4cca6b422ee1,
        0x401c597ee4c4cd64, 0x401a8a9a2ec1553a, 0x4018dcbacd234494, 0x40174cf13f2bed56,
        0x4015d8aa459d3d1b, 0x40147d9eec3d729f, 0x401339c856452411, 0x40120b5624b0432b,
        0x4010f0a6beeb6e18, 0x400fd0820b3c65f7, 0x400de19e396d787d, 0x400c12342276c26a,
        0x400a600c5d9208c5, 0x4008c91fc67505d1, 0x40074b922d04b237, 0x4005e5adc4965686,
        0x400495df323d09ed, 0x40035ab220025888, 0x400232ce3fdb8a5d, 0x40011cf4ad0fcfb2,
        0x400017fd9dd8870d, 0x3ffe45acb2f78847, 0x3ffc78fed23b23c9, 0x3ffac815f64140fc,
        0x3ff93136e47ea482, 0x3ff7b2c43533c02f, 0x3ff64b3bffb3318e, 0x3ff4f935c08adce2,
    ]),
    ("minres/spd/plain/reference", 23, StopReason::ResidualReduction, 24, 0x697914c43a306d9d, &[
        0x402057647aa7780d, 0x400e48225a8e4da0, 0x400023f95d45e259, 0x3fea50229329e153,
        0x3fd565e96f31fd0a, 0x3fbe1f554a9dea11, 0x3fa4aebf833241a4, 0x3f8f7150f362afde,
        0x3f74526057799113, 0x3f60898d676e800a, 0x3f4edd563f710ce7, 0x3f3e5eee700c1b38,
        0x3f29d022b9a6f33b, 0x3f12be7efd0d3b62, 0x3ef800af1195aeb9, 0x3ee15435bbf01e36,
        0x3ecd6cf8e01ce458, 0x3eb81dd64084de45, 0x3ea14245a5463b53, 0x3e82546e21416f60,
        0x3e686c4accdfb2f7, 0x3e54a479270638ab, 0x3e3dd07ca0404e0f,
    ]),
    ("mixed_ir/spd/plain/reference", 8, StopReason::ResidualReduction, 9, 0x5dd8d191e89518cf, &[
        0x3fecd09607cba141, 0x3fa179a6eb18aa70, 0x3f65fd253070e189, 0x3f212982b13e3c47,
        0x3ee97960f56d32e4, 0x3eaa39ae5da5630b, 0x3e75897b14cc2fec, 0x3e3923395be8f28d,
    ]),
    ("cg/unsym/plain/reference", 36, StopReason::MaxIterations, 37, 0x2b87bba961c78583, &[
        0x4025614e2bbb95e1, 0x40145f72d3bf27dc, 0x400987b42541526f, 0x3fff4de667e9f568,
        0x3ff922d13ee5c126, 0x3ff5c9d9e7cabeda, 0x3ff4052096011e15, 0x3ff2dde92667a482,
        0x3ff266a258fd2c8f, 0x3ff325c874e55b94, 0x3ff43cd80e24e972, 0x3ff493d6a56d5cfd,
        0x3ff42fe197b45bf7, 0x3ff3cbd0c9fe1202, 0x3ff3f39b9cbf2200, 0x3ff4c932589582f1,
        0x3ff6238869e39180, 0x3ff7b5cad050b494, 0x3ff933129fbb9785, 0x3ffa6a970a921d6d,
        0x3ffb52276925981e, 0x3ffbfd6be838daaf, 0x3ffc8ca9b48cce7c, 0x3ffd1e7751b6ab5c,
        0x3ffdc887e5a65dcf, 0x3ffe961c589812c9, 0x3fff895d29c93a29, 0x40004edb5f1609b1,
        0x4000e52a7ed9a065, 0x4001823627669163, 0x40022097eee25a32, 0x4002bbae16acdc80,
        0x4003501f405c4002, 0x4003dc16a7be8162, 0x40045f3d5c8e81c1, 0x4004da7f6fa40d56,
    ]),
    ("cg/unsym/jacobi/reference", 36, StopReason::MaxIterations, 37, 0xcc6299c875a6d38a, &[
        0x4023f20c1c867acf, 0x401447aedf77b186, 0x40094d6fc411ed60, 0x4000507eea4351cf,
        0x3ffac4c1ae4471d3, 0x3ff8c1fab58d1001, 0x3ff727afa59555ee, 0x3ff67c5109320e94,
        0x3ff6a33e5472624d, 0x3ff75114c85a7829, 0x3ff83b2809f3170f, 0x3ff90f1d53da3495,
        0x3ff99dc281d76793, 0x3ff9f33e86461607, 0x3ffa42865b972798, 0x3ffac2b9afab9563,
        0x3ffb96f0287c4f5b, 0x3ffcc4e11816c60f, 0x3ffe37e5048bdf99, 0x3fffcc63bca07c98,
        0x4000aee521801d7a, 0x40016893f5e3bd6d, 0x40020ccd166cb2ce, 0x40029b9f1ed9af12,
        0x4003199b04787323, 0x40038d970302fc8d, 0x4003fee01d28272a, 0x4004740766600952,
        0x4004f233689c6a70, 0x40057ccd7a0aca06, 0x4006156c296c5873, 0x4006bbe9edd515ba,
        0x40076e9ff7c1e22f, 0x40082abeaf8308dd, 0x4008ecbaae3b8368, 0x4009b0c1794aafef,
    ]),
    ("fcg/unsym/plain/reference", 34, StopReason::ResidualReduction, 35, 0x80ef9b07727d0ff5, &[
        0x4025614e2bbb95e1, 0x40145f72d3bf27da, 0x4008ceec0b339d99, 0x3ffb35a918a0b458,
        0x3ff1a70e1da1f211, 0x3fe811281a59af23, 0x3fdf71effa7b9ef3, 0x3fd80553d37ad65e,
        0x3fcedfb139a6e58f, 0x3fc4f4221347b550, 0x3fbdaeb7f9e3ceab, 0x3fb467bff822c2b5,
        0x3fac4f7e755b7daf, 0x3fa446d80191d025, 0x3f9c7aeff055206c, 0x3f91910cbfae287e,
        0x3f7f95eb99944c8c, 0x3f75c23d5c875fea, 0x3f692f1a36dd0ab7, 0x3f4b0eac7fe73705,
        0x3f400bfea211f6a6, 0x3f28d5b356c6b786, 0x3f1dbcb3b2319c9d, 0x3f013ead893171e1,
        0x3eeb3c6556aa7136, 0x3ed72a8c4212ee45, 0x3ec4deb3f46feca3, 0x3eafef2dbeb9ef93,
        0x3e9ba92cbe7855ef, 0x3e870cd18e9d44fd, 0x3e7803979edd102f, 0x3e6b1108f6271138,
        0x3e52567134cac0b2, 0x3e4719ce0e8ee424,
    ]),
    ("fcg/unsym/jacobi/reference", 36, StopReason::ResidualReduction, 37, 0x6b596bb0389d8135, &[
        0x4023f20c1c867acf, 0x401447aedf77b186, 0x400835163367fa80, 0x3ffb730d91666bcb,
        0x3ff2c82cc407fed8, 0x3fe9cc40bba8f484, 0x3fe19ecfce70d8b5, 0x3fd970f3909ecc86,
        0x3fd0c76c23598956, 0x3fc75ec856a5817e, 0x3fc0f8b3feccdfbd, 0x3fb783c511a5ae48,
        0x3fafb75afda4bfb7, 0x3fa591f9ef40950e, 0x3fa035747a0beb55, 0x3f93d3c8bd5e70b1,
        0x3f82f6f60b179269, 0x3f7364b0a130eb47, 0x3f5c5b9219f85dbd, 0x3f3d2a2f098d5ddc,
        0x3f21a58901f3fc64, 0x3f0c146a094c4c92, 0x3ef2b5bd57b4fb08, 0x3ee69db4f6eeb516,
        0x3ede4dd34e175bb6, 0x3ed2f90dcf099468, 0x3ec40fdb75ecfe43, 0x3eb35760238e28a2,
        0x3ea668bc0c8ab87d, 0x3ea30023093740e8, 0x3e84abc091c4c756, 0x3e77a52699e07452,
        0x3e696bcbc63bad78, 0x3e59ff34205985cc, 0x3e5433bc4092e205, 0x3e468c06868cd66b,
    ]),
    ("cgs/unsym/plain/reference", 16, StopReason::ResidualReduction, 17, 0xfb160f73676df0a5, &[
        0x403dcdca67aceb03, 0x4017795cdd968a84, 0x4008f82ef92d7c60, 0x3fd1817aea38474b,
        0x3fe090a56fde2ba5, 0x3fd94ff6de44e73c, 0x3fa06001b27fcb1f, 0x3f794058c1ea59e2,
        0x3f94c9b07473dfb7, 0x3f3e58e139d77e2d, 0x3fbb5222955149cb, 0x3ea1b9398e6552c5,
        0x3e882df70c1a3b1b, 0x3eaa6c63e40616e2, 0x3e5d55265574c4c7, 0x3e4b6845d3f74eec,
    ]),
    ("cgs/unsym/jacobi/reference", 15, StopReason::ResidualReduction, 16, 0xd34a5ecc35219aac, &[
        0x403de238bb304ffa, 0x4019389dc1872cbb, 0x40065cffd9983fdb, 0x3fd1927d8313e6aa,
        0x4033809569609e57, 0x3fd5f81c4b7d8c2e, 0x3fb610c4feea3844, 0x3fb01d9ebad64f03,
        0x3f85f3d8542a1cb9, 0x3f69fb26e9c6eb36, 0x3f425a82524c417a, 0x3ed1ab90e20ae08e,
        0x3ee27a2e38aea0ef, 0x3ead1e1583d39dc8, 0x3e255d8682f3a177,
    ]),
    ("bicgstab/unsym/plain/reference", 13, StopReason::ResidualReduction, 27, 0x7cdd543cf38314e1, &[
        0x40116578f68bf558, 0x3ff8fb247237f07c, 0x3fe1761037cd0705, 0x3fc2c88b8d40a029,
        0x3fbebc10622e5fdb, 0x3f995ef262146fae, 0x3f64a4c72b9aa09d, 0x3f4a1901f99e95ea,
        0x3f34785770edc321, 0x3edf7af9f848fea5, 0x3f0cdf33a4c25528, 0x3e77e04c201455e5,
        0x3e36c108ffea84b1,
    ]),
    ("bicgstab/unsym/jacobi/reference", 14, StopReason::ResidualReduction, 29, 0xd11bd844ac797768, &[
        0x40110b764210f53e, 0x3ff81b4126ed6f10, 0x3fdde8fa342bfe3c, 0x3fc20b0ed57852d0,
        0x3fd793957d8ceb29, 0x3f92bfcce4a5dbd9, 0x3f64dd3603a637b3, 0x3f3e4fb900713726,
        0x3f18a84fcfebe6b7, 0x3eead379c5e7d5af, 0x3ed53c4d7dcf6b64, 0x3e6ecccf2fb0680a,
        0x3e658ca1522e6236, 0x3e48249d6bf8ae68,
    ]),
    ("gmres/unsym/plain/reference", 30, StopReason::ResidualReduction, 35, 0x4f047cb3d8446989, &[
        0x4020c9c372f9a0a2, 0x401152aa8513fa81, 0x40039fa2d7bd87b4, 0x3ff4a19dcfb84af6,
        0x3fe716262b783704, 0x3fd9e3596ed25b7b, 0x3fcc52cf5a266612, 0x3fbe2f67fe308009,
        0x3faf2c56449bf15f, 0x3fa02a47cc896974, 0x3f8a4fef6aa0fd6d, 0x3f7cc3e5965c7cdc,
        0x3f7217884372bc97, 0x3f6476bb6074c00f, 0x3f514e05e1077158, 0x3f3dad637346c3ae,
        0x3f2189cae28ffe2b, 0x3efddeabbe639c54, 0x3ee8f500f59666a0, 0x3ed5b20337f82703,
        0x3ec4f9cd8a8de48c, 0x3eb2e4d2980c7b68, 0x3ea409c0a33b2dab, 0x3e982079c782a43e,
        0x3e8bf34b9ea8892b, 0x3e7b3dd819166d83, 0x3e6bf40ef8789767, 0x3e625347acdfb702,
        0x3e549145525bfff0, 0x3e45f3e7d54a2ad6,
    ]),
    ("gmres/unsym/jacobi/reference", 28, StopReason::ResidualReduction, 33, 0xbb861c39d7c280e7, &[
        0x40203d9d2492aa15, 0x40110a712b1c5ba0, 0x4002fdd400a7c56c, 0x3ff443e9958b29a7,
        0x3fe66b679046887a, 0x3fd909715c96a0ce, 0x3fcc0600ea7dbf72, 0x3fbde393f56676ce,
        0x3fb00da25b296451, 0x3fa16dfc020ea269, 0x3f8c880edd32710d, 0x3f7d926e40a7754b,
        0x3f72c9f7a95186b7, 0x3f66e6fbd4298985, 0x3f543595edf0ea69, 0x3f423ed59f61cd79,
        0x3f16fffcdb21f381, 0x3f0063f0bd708382, 0x3ef117f3818e5583, 0x3ede7055178c17ec,
        0x3eceb77f0d7e0d45, 0x3ec13a18ca544ee3, 0x3eb40034e4794f6c, 0x3ea553d336b48231,
        0x3e991072272a7bf2, 0x3e7d736756e02e64, 0x3e62544a9c7673b5, 0x3e4b417b2d13d733,
    ]),
    ("ir/unsym/plain/reference", 36, StopReason::MaxIterations, 37, 0x9b6d166f4046b5ed, &[
        0x40221a2a2cb391d4, 0x40197f6776267b42, 0x4012ae3a95d24b8e, 0x400d824c77647f3e,
        0x4009ef04df35dd7a, 0x4009d32d117c444c, 0x400c10e074a94cb2, 0x400febf44c0e1e0e,
        0x40127cb6ed972292, 0x40158b7e67592e0e, 0x4019226b826380cb, 0x401d4ce99282505a,
        0x40210d800ecc613e, 0x4023d14e56cb1679, 0x4026fe4f95ac99be, 0x402aa3afd8ad55ca,
        0x402ed2a0d5a950ed, 0x4031cfba7435fc48, 0x403490b8fa6da42a, 0x4037b9dfb4b7b092,
        0x403b5ad25edac5d5, 0x403f85b716caf37c, 0x404227c18cc2b6f5, 0x4044e83d9b9b9062,
        0x404812568ba3bea5, 0x404bb6476da656c1, 0x404fe6d57ae26e61, 0x40525cdc0e3f7ebb,
        0x4055240733cb048f, 0x40585774a3be2631, 0x405c07f516cdbc48, 0x4060247ef59c48db,
        0x40629889eeb77063, 0x40656d23708f22d2, 0x4068b160bd22779b, 0x406c76b7747e6d06,
    ]),
    ("ir/unsym/jacobi/reference", 36, StopReason::MaxIterations, 37, 0x7a061f4c69426345, &[
        0x4028f314fd37c5bd, 0x402716dd6e96a355, 0x4025707c148fe746, 0x4023f35810b54f5d,
        0x402297ee12258bc0, 0x40215940a54c5643, 0x402033af38ece4e3, 0x401e48d0a7c64a64,
        0x401c5242669647c5, 0x401a7fdbb65f1ca1, 0x4018ce5257b8e0c9, 0x40173acac9686225,
        0x4015c2c2d1d9313d, 0x40146401ceaaccd7, 0x40131c8cc48071de, 0x4011ea9d04b48736,
        0x4010cc98b18814fb, 0x400f821951f88146, 0x400d8d4f078e6bf2, 0x400bb86ad9fd6572,
        0x400a01394c9413bc, 0x400865b52ddb3184, 0x4006e40297195fb8, 0x40057a6aa42bf2d2,
        0x40042757c3176053, 0x4002e952813bbf65, 0x4001befec13404e9, 0x4000a719486ac27c,
        0x3fff40eb2d3b2ad1, 0x3ffd53f7f82177cf, 0x3ffb854fca74e64b, 0x3ff9d30ca89ad987,
        0x3ff83b6904b085de, 0x3ff6bcbd457c2458, 0x3ff5557d894ed8bf, 0x3ff404379d7a139f,
    ]),
    ("minres/unsym/plain/reference", 36, StopReason::MaxIterations, 37, 0xdd20d76896dc84fd, &[
        0x4020c9c372f9a0a2, 0x4011d8d4bc00146f, 0x40066b58c77e939e, 0x3fff4ace697ae1d3,
        0x3ffc36e13e44d732, 0x3ffc3686bd335bd7, 0x3ffa556e44010f41, 0x3ff93de05a01a321,
        0x3ff9339a70f55653, 0x3ff80b28932d7b0b, 0x3ff7c9a89cbb3fa6, 0x3ff745ed140024ff,
        0x3ff6ac597df8187c, 0x3ff693e053066303, 0x3ff5f7ca96532c63, 0x3ff5f798bee7bab1,
        0x3ff589471a97164c, 0x3ff5767bb0497a9a, 0x3ff53b3e12edaf62, 0x3ff50c8920e533da,
        0x3ff4f5a136dfe024, 0x3ff4b3549205c316, 0x3ff4aec4ce28324e, 0x3ff466836a46e1bb,
        0x3ff46680ab2fd372, 0x3ff423ec9254164c, 0x3ff4204a98ccf3ba, 0x3ff3ea340a2ae8d3,
        0x3ff3df48d032978f, 0x3ff3b7d97087c6bc, 0x3ff3a4ed1e848de6, 0x3ff38b17a08e1ced,
        0x3ff37126a26aa458, 0x3ff3623390e3ee95, 0x3ff343179a703f0f, 0x3ff33bd09698e501,
    ]),
    ("mixed_ir/unsym/plain/reference", 8, StopReason::ResidualReduction, 9, 0x02b37a7fd7426b3b, &[
        0x3fff4de6762b3fb9, 0x3fd9b73d92233fdd, 0x3fae810bc5c9a5c6, 0x3f786d0ed05e0d4c,
        0x3f24fd0b3cebdb5f, 0x3ee611684228f6eb, 0x3e862acb2c3d812b, 0x3e336a3dc808d4c2,
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
    ("gmres/spd/plain/omp7", 26, StopReason::ResidualReduction, 30, 0x179bda677b7c205b, &[
        0x402057647aa7780d, 0x400e48225a8e4d9f, 0x400023f95d45e258, 0x3fea50229329e158,
        0x3fd565e96f31fd0b, 0x3fbe1f554a9dea19, 0x3fa4aebf833241a4, 0x3f8f7150f362afe5,
        0x3f74526057799117, 0x3f63e47c9082cede, 0x3f524463a5aab6c3, 0x3f40bfdbf51801e2,
        0x3f2df3b22e12b710, 0x3f18fd750bf0ccbd, 0x3f02678cd1dd7746, 0x3eec87fd975ecb5a,
        0x3ed660254ebe7eb7, 0x3ec621e273990a53, 0x3ebae33c686ca7c7, 0x3ea9e6bc53e6d82a,
        0x3e9a639038be8c5e, 0x3e8ca20703036d83, 0x3e7bccdc22fece4b, 0x3e667547af8b8869,
        0x3e509bae837361c8, 0x3e3a5960de31ab09,
    ]),
    ("gmres/spd/jacobi/omp7", 25, StopReason::ResidualReduction, 29, 0xdff280df5987900b, &[
        0x401f49001aaf8df8, 0x400d74f8e5402be2, 0x3ffd1b707e5025a8, 0x3fe840ee1f6fa966,
        0x3fd28af36d92b941, 0x3fb73efbf82efc6a, 0x3f9e03ce8aa964e0, 0x3f8843a34e7b830c,
        0x3f6ebd6e4d946a92, 0x3f5df27677e42a90, 0x3f4eb6c465e0b37c, 0x3f386827de154b0b,
        0x3f230565d6e4d65c, 0x3f0eac75ca7c602a, 0x3ef5eb7576bd6243, 0x3ee28ec796efcff0,
        0x3eccbd3340f56835, 0x3ebb75b6a6b53149, 0x3eaedd8a0c8c40dd, 0x3e9c47e2dba96d8a,
        0x3e8d95d0537fd953, 0x3e7fcef5ee387afc, 0x3e6f1f5b61f25ee4, 0x3e596a70b6ccce9a,
        0x3e446d160e62b05f,
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
    ("gmres/unsym/plain/omp7", 30, StopReason::ResidualReduction, 35, 0x4f047cb3d8446989, &[
        0x4020c9c372f9a0a2, 0x401152aa8513fa81, 0x40039fa2d7bd87b4, 0x3ff4a19dcfb84af6,
        0x3fe716262b783704, 0x3fd9e3596ed25b7b, 0x3fcc52cf5a266612, 0x3fbe2f67fe308009,
        0x3faf2c56449bf15f, 0x3fa02a47cc896974, 0x3f8a4fef6aa0fd72, 0x3f7cc3e5965c7cdf,
        0x3f7217884372bc99, 0x3f6476bb6074c010, 0x3f514e05e1077159, 0x3f3dad637346c3aa,
        0x3f2189cae28ffe25, 0x3efddeabbe639c50, 0x3ee8f500f59666a0, 0x3ed5b20337f82703,
        0x3ec4f9cd8a8de48c, 0x3eb2e4d2980c7b68, 0x3ea409c0a33b2dab, 0x3e982079c782a43e,
        0x3e8bf34b9ea8892c, 0x3e7b3dd819166d86, 0x3e6bf40ef8789766, 0x3e625347acdfb702,
        0x3e549145525bfff1, 0x3e45f3e7d54a2ad5,
    ]),
    ("gmres/unsym/jacobi/omp7", 28, StopReason::ResidualReduction, 33, 0xb3c624bfe3da82e6, &[
        0x40203d9d2492aa15, 0x40110a712b1c5ba0, 0x4002fdd400a7c56c, 0x3ff443e9958b29a7,
        0x3fe66b679046887a, 0x3fd909715c96a0cc, 0x3fcc0600ea7dbf6f, 0x3fbde393f56676cb,
        0x3fb00da25b29644f, 0x3fa16dfc020ea236, 0x3f8c880edd3270d7, 0x3f7d926e40a77530,
        0x3f72c9f7a9518685, 0x3f66e6fbd42988f0, 0x3f543595edf0ea2f, 0x3f423ed59f61cd8c,
        0x3f16fffcdb21f5b9, 0x3f0063f0bd7083ed, 0x3ef117f3818e9fd9, 0x3ede7055178b4176,
        0x3eceb77f0d75c540, 0x3ec13a18ca513336, 0x3eb40034e47ac038, 0x3ea553d336b868be,
        0x3e991072273547ad, 0x3e7d736756f96555, 0x3e62544a9c84e654, 0x3e4b417b0d70bda5,
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

#[rustfmt::skip]
const RAGGED_GMRES_GOLDEN: &[Golden] = &[
    ("gmres/ragged/double/plain/reference", 19, StopReason::ResidualReduction, 23, 0xe2f4d9126e4e7019, &[
        0x401503a22fe742b5, 0x3ff82bb74233e168, 0x3fdfaef10111a348, 0x3fc3d0c9a1651ceb,
        0x3faa10a2731c43ad, 0x3f917fd23d055aa5, 0x3f77770fa9ef33fe, 0x3f5fb77b7c796683,
        0x3f43c0543122b9f9, 0x3f2eb14e6aa12dad, 0x3f12d981a7e6376a, 0x3ef6f858a07ab5e6,
        0x3edddb987936fe30, 0x3ec4e574b8de7951, 0x3eadd704664071fc, 0x3e941b14460df29d,
        0x3e78f6709489f271, 0x3e5cce0aabfcd050, 0x3e433a0cae3164bc,
    ]),
    ("gmres/ragged/double/jacobi/reference", 18, StopReason::ResidualReduction, 21, 0xf7bde2599b6a4190, &[
        0x40134562d6793e0f, 0x3ff0f73ca3038842, 0x3fd4600337dcaaf8, 0x3fba2494c8ae581b,
        0x3fa0c5336f5892f0, 0x3f85dbe6bc468d15, 0x3f6bd91717e1c799, 0x3f527dd4c165c1c7,
        0x3f3797c1b7affb80, 0x3f20fb958363d1ab, 0x3f0415505631066c, 0x3ee8c86e5d9b3356,
        0x3ece8d60e40fa4ac, 0x3eb56b21c5a71b2f, 0x3e9f33f045203fd5, 0x3e84c778fd144298,
        0x3e68d6315e79d47b, 0x3e4c9f0a57275b30,
    ]),
    ("gmres/ragged/double/plain/omp7", 19, StopReason::ResidualReduction, 23, 0x32f59b1de3917c18, &[
        0x401503a22fe742b5, 0x3ff82bb74233e168, 0x3fdfaef10111a348, 0x3fc3d0c9a1651cec,
        0x3faa10a2731c43af, 0x3f917fd23d055aa5, 0x3f77770fa9ef33fe, 0x3f5fb77b7c796684,
        0x3f43c0543122b9fb, 0x3f2eb14e6aa127ef, 0x3f12d981a7e62d3a, 0x3ef6f858a07aa175,
        0x3edddb987936fd57, 0x3ec4e574b8de8058, 0x3eadd704664077ba, 0x3e941b14460dea6e,
        0x3e78f6709489e72f, 0x3e5cce0aabfcc42b, 0x3e433a0ca9b72d58,
    ]),
    ("gmres/ragged/double/jacobi/omp7", 18, StopReason::ResidualReduction, 21, 0x055a82dea2b050dd, &[
        0x40134562d6793e0f, 0x3ff0f73ca3038842, 0x3fd4600337dcaaf9, 0x3fba2494c8ae581d,
        0x3fa0c5336f5892f1, 0x3f85dbe6bc468d14, 0x3f6bd91717e1c794, 0x3f527dd4c165c1c2,
        0x3f3797c1b7affb76, 0x3f20fb958363f51d, 0x3f041550563134c2, 0x3ee8c86e5d9b84b1,
        0x3ece8d60e4102ea8, 0x3eb56b21c5a795bd, 0x3e9f33f04520e888, 0x3e84c778fd14a738,
        0x3e68d6315e7a483e, 0x3e4c9f0a5727fff4,
    ]),
    ("gmres/ragged/float/plain/reference", 22, StopReason::ResidualReduction, 26, 0x29b2ec3a531f949f, &[
        0x401503a23bad78b0, 0x3ff82bb761ed4639, 0x3fdfaef1278276f0, 0x3fc3d0c9ce3d3108,
        0x3faa10a2cd2feeef, 0x3f917fd26f79744d, 0x3f77770fef3f1dd6, 0x3f5fb77c48669f4c,
        0x3f43c0571799891b, 0x3f2ead817d636d7a, 0x3f12d80f3dfc61f5, 0x3ef6f8203ca0abb0,
        0x3edddf5857d117d8, 0x3ec4eb2dfa36f886, 0x3eaddf2fd600927a, 0x3e941fcf51617298,
        0x3e78f98aaa4a065d, 0x3e5ccacb6e420972, 0x3e8e37c060410e9e, 0x3e74a038c3014cc2,
        0x3e5e60ecfe33c5aa, 0x3e449d1babeef4f2,
    ]),
    ("gmres/ragged/float/jacobi/reference", 18, StopReason::ResidualReduction, 21, 0x8dfc0c3ad32d8a71, &[
        0x40134562e427981a, 0x3ff0f73c97bfd77d, 0x3fd46003107d92aa, 0x3fba2494b168dc8f,
        0x3fa0c5336ace935a, 0x3f85dbe6af8fa679, 0x3f6bd917408e3ed6, 0x3f527dd603f00657,
        0x3f3797d1df9e1e3d, 0x3f20fd5ffec6b1b1, 0x3f041780cd9d2090, 0x3ee8cf8900a54d6f,
        0x3ecea4586e872d4e, 0x3eb583f9de850e09, 0x3e9f5959f9cb602e, 0x3e84d956a6d6ccf1,
        0x3e68e4814d2b020e, 0x3e4cac909315d094,
    ]),
    ("gmres/ragged/float/plain/omp7", 22, StopReason::ResidualReduction, 26, 0x29b2ec3a531f949f, &[
        0x401503a23bad78b0, 0x3ff82bb761ed4639, 0x3fdfaef1278276f0, 0x3fc3d0c9ce3d3108,
        0x3faa10a2cd2feef0, 0x3f917fd26f79744e, 0x3f77770fef3f1dd8, 0x3f5fb77c48669f4f,
        0x3f43c0571799891c, 0x3f2ead817d636d7a, 0x3f12d80f3dfc61f5, 0x3ef6f8203ca0abb0,
        0x3edddf5857d117d8, 0x3ec4eb2dfa36f886, 0x3eaddf2fd600927a, 0x3e941fcf51617298,
        0x3e78f98aaa4a065d, 0x3e5ccacb6e420972, 0x3e8e37c060410e9e, 0x3e74a038c3014cc2,
        0x3e5e60ecfe33c5ab, 0x3e449d1babeef4f3,
    ]),
    ("gmres/ragged/float/jacobi/omp7", 18, StopReason::ResidualReduction, 21, 0x8dfc0c3ad32d8a71, &[
        0x40134562e427981a, 0x3ff0f73c97bfd77d, 0x3fd46003107d92aa, 0x3fba2494b168dc8f,
        0x3fa0c5336ace935a, 0x3f85dbe6af8fa679, 0x3f6bd917408e3ed6, 0x3f527dd603f00657,
        0x3f3797d1df9e1e3d, 0x3f20fd5ffec6b1b1, 0x3f041780cd9d2090, 0x3ee8cf8900a54d6f,
        0x3ecea4586e872d4e, 0x3eb583f9de850e0a, 0x3e9f5959f9cb602f, 0x3e84d956a6d6ccf1,
        0x3e68e4814d2b020e, 0x3e4cac909315d094,
    ]),
    ("gmres/ragged/half/plain/reference", 36, StopReason::MaxIterations, 41, 0xced07725d30f036c, &[
        0x4015032d94da7bfe, 0x3ff82aeaa6f4ca15, 0x3fdfb09e2029f616, 0x3fc3e06300bfee6c,
        0x3faaea05056b70e7, 0x3f962cc60434f443, 0x3f8db93023028470, 0x3f8b9c579f6866b7,
        0x3f8b5cc139e7624c, 0x3f736ef2d14ef0f5, 0x3f57d4b58ee76d29, 0x3f3eefb62663a53e,
        0x3f2563074e6c8d90, 0x3f0fb8df3fe7b18a, 0x3efb578fdb1bc7b4, 0x3ef2ce3f6c8768a2,
        0x3ef1e3fb58af48f7, 0x3ef1c3d3b1bdfb71, 0x3f611ae04c108c10, 0x3f4645385fc3a9ef,
        0x3f2eb532e3782663, 0x3f13ebd41d66b2a6, 0x3efa55a7c278408c, 0x3ee3eed78c474281,
        0x3ed50e2bafb4f20b, 0x3ed1cc57c1e6c702, 0x3ed17e25ea980dda, 0x3f5fc6c3f061fbed,
        0x3f4410d8e4576360, 0x3f2924f610160b7d, 0x3f0fdd119cc921b3, 0x3ef5b66e0af47cfb,
        0x3ee2a7745933956b, 0x3ed8bcba78018758, 0x3ed6dcf55caf1e90, 0x3ed69da7cd8b5570,
    ]),
    ("gmres/ragged/half/jacobi/reference", 36, StopReason::MaxIterations, 41, 0x3f3174a83c3b076c, &[
        0x4013450dcef2484b, 0x3ff0f6c63b591ed9, 0x3fd461debed5ee93, 0x3fba4093e479f3a8,
        0x3fa1819610f44cfc, 0x3f8dce088eafd47c, 0x3f85712826510dfd, 0x3f846aba0e60c308,
        0x3f844d886571cd23, 0x3f73cd9ff65f3f7f, 0x3f59364a5810a34f, 0x3f41d0e9e9ee2d6a,
        0x3f27f22069118981, 0x3f0f7783c192174f, 0x3ef593a218f943a4, 0x3ee1bb1321c17ea0,
        0x3ed731b2ba53b920, 0x3ed5618fa99d45af, 0x3f5d6c277cf1f4f7, 0x3f41e24f3cc00425,
        0x3f27263e219693b9, 0x3f0f33ef4be33630, 0x3ef52e08327b2331, 0x3ee14916b3acbb3b,
        0x3ed75d3d1c8c544c, 0x3ed5d473773584a0, 0x3ed5ab18325d10b6, 0x3f5d6e9c4ba925c6,
        0x3f42ed39ca9d8eee, 0x3f27c4fc9763881e, 0x3f0e636485b12c8f, 0x3ef2ed829b08715c,
        0x3edd876b2dfd53fc, 0x3ed3f2717ad7c8c9, 0x3ed2a772e5bdcd99, 0x3ed283292ad9fe08,
    ]),
    ("gmres/ragged/half/plain/omp7", 36, StopReason::MaxIterations, 41, 0xced07725d30f036c, &[
        0x4015032d94da7bfe, 0x3ff82aeaa6f4ca15, 0x3fdfb09e2029f616, 0x3fc3e06300bfee6c,
        0x3faaea05056b70e7, 0x3f962cc60434f443, 0x3f8db93023028470, 0x3f8b9c579f6866b7,
        0x3f8b5cc139e7624c, 0x3f736ef2d14ef0f5, 0x3f57d4b58ee76d29, 0x3f3eefb62663a53e,
        0x3f2563074e6c8d90, 0x3f0fb8df3fe7b18a, 0x3efb578fdb1bc7b4, 0x3ef2ce3f6c8768a2,
        0x3ef1e3fb58af48f7, 0x3ef1c3d3b1bdfb71, 0x3f611ae04c108c10, 0x3f4645385fc3a9ef,
        0x3f2eb532e3782663, 0x3f13ebd41d66b2a6, 0x3efa55a7c278408c, 0x3ee3eed78c474281,
        0x3ed50e2bafb4f20b, 0x3ed1cc57c1e6c702, 0x3ed17e25ea980dda, 0x3f5fc6c3f061fbed,
        0x3f4410d8e4576360, 0x3f2924f610160b7d, 0x3f0fdd119cc921b3, 0x3ef5b66e0af47cfb,
        0x3ee2a7745933956b, 0x3ed8bcba78018758, 0x3ed6dcf55caf1e90, 0x3ed69da7cd8b5570,
    ]),
    ("gmres/ragged/half/jacobi/omp7", 36, StopReason::MaxIterations, 41, 0x3f3174a83c3b076c, &[
        0x4013450dcef2484b, 0x3ff0f6c63b591ed9, 0x3fd461debed5ee93, 0x3fba4093e479f3a8,
        0x3fa1819610f44cfc, 0x3f8dce088eafd47c, 0x3f85712826510dfd, 0x3f846aba0e60c308,
        0x3f844d886571cd23, 0x3f73cd9ff65f3f7f, 0x3f59364a5810a34f, 0x3f41d0e9e9ee2d6a,
        0x3f27f22069118981, 0x3f0f7783c192174f, 0x3ef593a218f943a4, 0x3ee1bb1321c17ea0,
        0x3ed731b2ba53b920, 0x3ed5618fa99d45af, 0x3f5d6c277cf1f4f7, 0x3f41e24f3cc00425,
        0x3f27263e219693b9, 0x3f0f33ef4be33630, 0x3ef52e08327b2331, 0x3ee14916b3acbb3b,
        0x3ed75d3d1c8c544c, 0x3ed5d473773584a0, 0x3ed5ab18325d10b6, 0x3f5d6e9c4ba925c6,
        0x3f42ed39ca9d8eee, 0x3f27c4fc9763881e, 0x3f0e636485b12c8f, 0x3ef2ed829b08715c,
        0x3edd876b2dfd53fc, 0x3ed3f2717ad7c8c9, 0x3ed2a772e5bdcd99, 0x3ed283292ad9fe08,
    ]),
];
