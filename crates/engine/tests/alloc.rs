//! Allocation regression: a steady SpMV must not allocate per row or per
//! nonzero, and a solver loop must not allocate per iteration.
//!
//! The virtual clock charges a kernel the same nanoseconds whether or not it
//! allocates, so a `vec!` inside a per-row loop (the COO segment kernel and
//! the multi-RHS merge-path branch both had one) is invisible to every
//! virtual-time gate. This binary counts heap allocations instead: for each
//! format, one warmed-up `apply` on a 2 000-row matrix must allocate exactly
//! as often as on a 20 000-row matrix of the same generator. Per-apply
//! allocations that depend only on the executor spec (chunk bounds, segment
//! scratch, cost-model work lists) are fine and cancel out.
//!
//! The solver loops get the same treatment one level up: a `k`-iteration
//! solve allocates equally often at both sizes, and once a recurrence has
//! its workspace (after the first iteration; for GMRES after the first
//! restart cycle has filled its basis slots) the executor hands out no
//! further `Array`, which the event stream shows as no `AllocationComplete`
//! behind that iteration's `IterationComplete`.

use gko::linop::LinOp;
use gko::log::{Event, Record};
use gko::matrix::{Coo, Csr, Dense, Ell, Hybrid, Sellp, SpmvStrategy};
use gko::preconditioner::{Ic, Ilu, Jacobi};
use gko::solver::{BiCgStab, Cg, Fcg, Gmres};
use gko::stop::Criteria;
use gko::{Dim2, Executor};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

thread_local! {
    /// Allocations made by this thread. `Executor::reference()` runs every
    /// kernel on the calling thread, so a per-thread count sees the whole
    /// apply and nothing of the tests running beside it.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting calls. `realloc` and `alloc_zeroed` keep
/// their default implementations, which go through `alloc`.
struct Counting;

// SAFETY: defers every request unchanged to `System`; the counter is a
// const-initialised, destructor-free thread-local, so touching it neither
// allocates nor runs after thread teardown.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract, which is
    // `System.alloc`'s.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    // SAFETY: `ptr` came from `System.alloc` above with this layout.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Tridiagonal rows, every tenth row carrying eight more entries: enough
/// spread that `Hybrid` keeps a COO overflow part, at any size.
fn matrix(exec: &Executor, n: usize) -> Csr<f64, i32> {
    let mut t = Vec::new();
    for i in 0..n {
        t.push((i, i, 4.0));
        if i > 0 {
            t.push((i, i - 1, -1.0));
        }
        if i + 1 < n {
            t.push((i, i + 1, -1.0));
        }
        if i % 10 == 0 {
            for j in 1..=8 {
                t.push((i, (i + 17 * j + 2) % n, 0.125));
            }
        }
    }
    Csr::from_triplets(exec, Dim2::square(n), &t).unwrap()
}

/// Allocations of one steady `apply` (the first apply builds cached plans).
fn steady_apply_allocations<O: LinOp<f64>>(op: &O, exec: &Executor, n: usize, k: usize) -> u64 {
    let b = Dense::filled(exec, Dim2::new(n, k), 0.5);
    let mut x = Dense::zeros(exec, Dim2::new(n, k));
    op.apply(&b, &mut x).unwrap();
    let before = ALLOCATIONS.with(Cell::get);
    op.apply(&b, &mut x).unwrap();
    ALLOCATIONS.with(Cell::get) - before
}

fn check<O: LinOp<f64>>(name: &str, make: impl Fn(&Csr<f64, i32>) -> O) {
    let exec = Executor::reference();
    for k in [1usize, 3] {
        let [small, large] = [2_000usize, 20_000].map(|n| {
            let op = make(&matrix(&exec, n));
            steady_apply_allocations(&op, &exec, n, k)
        });
        assert_eq!(
            small, large,
            "{name}, k = {k}: {small} allocations per apply at 2 000 rows, \
             {large} at 20 000 — something allocates per row or per nonzero"
        );
    }
}

#[test]
fn csr_applies_allocate_independently_of_size() {
    for (name, strategy) in [
        ("csr/classical", SpmvStrategy::Classical),
        ("csr/load_balance", SpmvStrategy::LoadBalance),
        ("csr/merge_path", SpmvStrategy::MergePath),
        ("csr/auto", SpmvStrategy::Auto),
    ] {
        check(name, |csr| csr.clone().with_strategy(strategy));
    }
}

#[test]
fn coo_apply_allocates_independently_of_size() {
    check("coo", Coo::from_csr);
}

#[test]
fn ell_apply_allocates_independently_of_size() {
    check("ell", Ell::from_csr);
}

#[test]
fn sellp_apply_allocates_independently_of_size() {
    check("sellp", Sellp::from_csr);
}

#[test]
fn hybrid_apply_allocates_independently_of_size() {
    check("hybrid", |csr| {
        let hybrid = Hybrid::from_csr(csr);
        assert!(
            hybrid.coo_nnz() > 0,
            "generator must leave a COO overflow part"
        );
        hybrid
    });
}

/// Block Jacobi gathers every block through one buffer per application; it
/// used to build two vectors per block.
#[test]
fn jacobi_applies_allocate_independently_of_size() {
    check("jacobi", |csr| Jacobi::new(csr).unwrap());
    check("block-jacobi(4)", |csr| {
        Jacobi::with_block_size(csr, 4).unwrap()
    });
}

/// Assembly from triplets already in (row, col) order makes four
/// allocations: the per-row cursor and the three CSR arrays. No sorted copy
/// of the list, no converted copy when the list holds `f64` for an `f32`
/// matrix, nothing per row; COO adds its row index array.
#[test]
fn assembling_sorted_triplets_allocates_only_the_arrays_it_returns() {
    let exec = Executor::reference();
    let triplets = |n: usize| -> Vec<(usize, usize, f64)> {
        let a = matrix(&exec, n);
        let (rp, ci, v) = (a.row_ptrs(), a.col_idxs(), a.values());
        (0..n)
            .flat_map(|r| (rp[r] as usize..rp[r + 1] as usize).map(move |k| (r, k)))
            .map(|(r, k)| (r, ci[k] as usize, v[k]))
            .collect()
    };
    let (small, large) = (triplets(2_000), triplets(20_000));
    type Build<'a> = &'a dyn Fn(Dim2, &[(usize, usize, f64)]);
    let count = |t: &[(usize, usize, f64)], build: Build| {
        let dim = Dim2::square(t.iter().map(|e| e.0).max().unwrap() + 1);
        let before = ALLOCATIONS.with(Cell::get);
        build(dim, t);
        ALLOCATIONS.with(Cell::get) - before
    };
    let csr = |dim: Dim2, t: &[(usize, usize, f64)]| {
        assert_eq!(
            Csr::<f64, i32>::from_triplets(&exec, dim, t).unwrap().nnz(),
            t.len()
        );
    };
    let csr_f32 = |dim: Dim2, t: &[(usize, usize, f64)]| {
        assert_eq!(
            Csr::<f32, i64>::from_triplets(&exec, dim, t).unwrap().nnz(),
            t.len()
        );
    };
    let coo = |dim: Dim2, t: &[(usize, usize, f64)]| {
        assert_eq!(
            Coo::<f64, i32>::from_triplets(&exec, dim, t).unwrap().nnz(),
            t.len()
        );
    };
    assert_eq!(count(&small, &csr), 4);
    assert_eq!(count(&large, &csr), 4);
    assert_eq!(count(&large, &csr_f32), 4);
    assert_eq!(count(&small, &coo), 5);
    assert_eq!(count(&large, &coo), 5);
}

/// Iterations every solver below is capped at, and GMRES's restart length:
/// three full cycles.
const SOLVE_ITERS: usize = 12;
const RESTART: usize = 4;

/// What the loops under test are preconditioned with.
#[derive(Clone, Copy, Debug)]
enum Precond {
    None,
    Jacobi,
    BlockJacobi,
    Ilu,
    Ic,
}

const PRECONDS: [Precond; 5] = [
    Precond::None,
    Precond::Jacobi,
    Precond::BlockJacobi,
    Precond::Ilu,
    Precond::Ic,
];

/// The loops under test on `a` (all four; CG alone with `Ic`, which is for
/// symmetric solvers), each stopping after exactly [`SOLVE_ITERS`]
/// iterations.
fn solvers(a: &Arc<Csr<f64, i32>>, precond: Precond) -> Vec<(&'static str, Arc<dyn LinOp<f64>>)> {
    let criteria = Criteria::iterations(SOLVE_ITERS);
    let system = || a.clone() as Arc<dyn LinOp<f64>>;
    let m: Option<Arc<dyn LinOp<f64>>> = match precond {
        Precond::None => None,
        Precond::Jacobi => Some(Arc::new(Jacobi::new(&**a).unwrap())),
        Precond::BlockJacobi => Some(Arc::new(Jacobi::with_block_size(&**a, 4).unwrap())),
        Precond::Ilu => Some(Arc::new(Ilu::new(&**a).unwrap())),
        Precond::Ic => Some(Arc::new(Ic::new(&**a).unwrap())),
    };
    macro_rules! built {
        ($solver:expr) => {{
            let solver = $solver.with_criteria(criteria);
            match &m {
                Some(m) => Arc::new(solver.with_preconditioner(m.clone()).unwrap()),
                None => Arc::new(solver) as Arc<dyn LinOp<f64>>,
            }
        }};
    }
    let mut loops = vec![("cg", built!(Cg::new(system()).unwrap()))];
    if !matches!(precond, Precond::Ic) {
        loops.extend([
            ("fcg", built!(Fcg::new(system()).unwrap())),
            ("bicgstab", built!(BiCgStab::new(system()).unwrap())),
            (
                "gmres",
                built!(Gmres::new(system()).unwrap().with_krylov_dim(RESTART)),
            ),
        ]);
    }
    loops
}

#[test]
fn solver_loops_allocate_independently_of_size() {
    let exec = Executor::reference();
    for precond in PRECONDS {
        let per_size = [2_000usize, 20_000].map(|n| {
            let a = Arc::new(matrix(&exec, n));
            let b = Dense::filled(&exec, Dim2::new(n, 1), 0.5);
            let counts = solvers(&a, precond).into_iter().map(|(name, solver)| {
                let mut x = Dense::zeros(&exec, Dim2::new(n, 1));
                solver.apply(&b, &mut x).unwrap(); // builds the cached plan
                x.fill(0.0);
                let before = ALLOCATIONS.with(Cell::get);
                solver.apply(&b, &mut x).unwrap();
                (name, ALLOCATIONS.with(Cell::get) - before)
            });
            counts.collect::<Vec<_>>()
        });
        assert_eq!(
            per_size[0], per_size[1],
            "{precond:?}: allocations of a {SOLVE_ITERS}-iteration solve at 2 000 rows \
             vs 20 000 — some loop allocates per element"
        );
    }
}

/// The preconditioned loops included: one ILU or IC application is two
/// sweeps into the caller's vector, with no intermediate of its own.
#[test]
fn solver_loops_stop_allocating_once_their_workspace_exists() {
    for precond in PRECONDS {
        let exec = Executor::reference();
        let n = 2_000;
        let a = Arc::new(matrix(&exec, n));
        let b = Dense::filled(&exec, Dim2::new(n, 1), 0.5);
        for (name, solver) in solvers(&a, precond) {
            let mut x = Dense::zeros(&exec, Dim2::new(n, 1));
            let record = Arc::new(Record::new());
            exec.add_logger(record.clone());
            solver.apply(&b, &mut x).unwrap();
            exec.clear_loggers();

            // GMRES creates one basis slot per iteration of its first cycle.
            let settled = if name == "gmres" { RESTART } else { 1 };
            let events = record.events();
            let completed = |e: &Event, k: usize| matches!(e, Event::IterationComplete { iteration, .. } if *iteration == k);
            let from = events.iter().position(|e| completed(e, settled)).unwrap();
            assert!(
                events.iter().any(|e| completed(e, SOLVE_ITERS)),
                "{name}: ran all {SOLVE_ITERS} iterations"
            );
            let late = events[from..]
                .iter()
                .filter(|e| matches!(e, Event::AllocationComplete { .. }))
                .count();
            assert_eq!(
                late, 0,
                "{name}, {precond:?}: {late} arrays allocated after iteration {settled}"
            );
        }
    }
}
