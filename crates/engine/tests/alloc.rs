//! Allocation regression: a steady SpMV must not allocate per row or per
//! nonzero.
//!
//! The virtual clock charges a kernel the same nanoseconds whether or not it
//! allocates, so a `vec!` inside a per-row loop (the COO segment kernel and
//! the multi-RHS merge-path branch both had one) is invisible to every
//! virtual-time gate. This binary counts heap allocations instead: for each
//! format, one warmed-up `apply` on a 2 000-row matrix must allocate exactly
//! as often as on a 20 000-row matrix of the same generator. Per-apply
//! allocations that depend only on the executor spec (chunk bounds, segment
//! scratch, cost-model work lists) are fine and cancel out.

use gko::linop::LinOp;
use gko::matrix::{Coo, Csr, Dense, Ell, Hybrid, Sellp, SpmvStrategy};
use gko::{Dim2, Executor};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

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
        assert!(hybrid.coo_nnz() > 0, "generator must leave a COO overflow part");
        hybrid
    });
}
