//! Allocation regression: reading and writing a Matrix Market document costs
//! a fixed number of heap allocations, whatever its length. A `String` per
//! line or a `Vec<&str>` per entry shows up here as a count that grows with
//! the document.

use pygko_mtx::{read_mtx, write_mtx};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations made by this thread; tests running beside it do not count.
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

fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// `n` entries in (row, col) order: short integer-valued values, long ones
/// of 16-17 digits (the reader's Eisel-Lemire path once their digits pass
/// 2^53), and tiny ones the writer prints in exponent form.
fn entries(n: usize) -> Vec<(usize, usize, f64)> {
    (0..n)
        .map(|k| {
            let v = match k % 3 {
                0 => 4.0,
                1 => -0.437_146_363_263_368_53 * (k + 1) as f64,
                _ => 1e-9 / (k + 1) as f64,
            };
            (k / 4, k % 4 + k / 4, v)
        })
        .collect()
}

fn document(entries: &[(usize, usize, f64)]) -> Vec<u8> {
    let n = entries.len();
    let mut text = Vec::new();
    write_mtx(&mut text, n, n + 4, entries).unwrap();
    text
}

#[test]
fn reading_allocates_the_same_few_times_at_any_length() {
    let (small, large) = (document(&entries(1_000)), document(&entries(10_000)));
    let count = |text: &[u8]| {
        allocations(|| {
            let m = read_mtx(text).unwrap();
            assert!(m.entries.len() == 1_000 || m.entries.len() == 10_000);
        })
    };
    let (at_small, at_large) = (count(&small), count(&large));
    assert_eq!(at_small, at_large, "allocations grow with the document");
    // The document buffer and the entry list.
    assert!(at_small <= 2, "{at_small} allocations for one read");
}

#[test]
fn reading_symmetric_and_array_documents_allocates_independently_of_length() {
    let symmetric = |n: usize| {
        let mut doc = format!("%%MatrixMarket matrix coordinate real symmetric\n{n} {n} {n}\n");
        for i in 1..=n {
            doc.push_str(&format!("{i} {} 0.5\n", i / 2 + 1));
        }
        doc.into_bytes()
    };
    let array = |n: usize| {
        let mut doc = format!("%%MatrixMarket matrix array real general\n{n} 1\n");
        for i in 0..n {
            doc.push_str(&format!("{}\n", i % 3));
        }
        doc.into_bytes()
    };
    for (what, small, large) in [
        ("symmetric", symmetric(1_000), symmetric(10_000)),
        ("array", array(1_000), array(10_000)),
    ] {
        let count = |text: &[u8]| allocations(|| drop(read_mtx(text).unwrap()));
        let (at_small, at_large) = (count(&small), count(&large));
        // Only the entry list of an array document, whose length the header
        // does not give, and the final sort's scratch may grow: by doublings,
        // never per line.
        assert!(
            at_large <= at_small + 4 && at_large <= 24,
            "{what}: {at_small} allocations at 1 000 entries, {at_large} at 10 000"
        );
    }
}

#[test]
fn writing_allocates_the_same_few_times_at_any_length() {
    let (small, large) = (entries(1_000), entries(10_000));
    let count = |entries: &[(usize, usize, f64)]| {
        let mut sink = Vec::with_capacity(1 << 20);
        let n = entries.len();
        let made = allocations(|| write_mtx(&mut sink, n, n + 4, entries).unwrap());
        assert!(sink.len() > 20 * n && sink.len() < (1 << 20));
        made
    };
    let (at_small, at_large) = (count(&small), count(&large));
    assert_eq!(at_small, at_large, "allocations grow with the entry count");
    // The block buffer.
    assert!(at_small <= 1, "{at_small} allocations for one write");
}

/// Above two floors (512 KiB of entry lines per read lane, 16 Ki entries
/// per write lane) the work is cut into as many lanes as the host runs at
/// once; documents at 4 and 16 floors get the same lanes, and the caller's
/// thread allocates as often for both: the spawned lanes' own lists and
/// buffers are theirs.
#[test]
fn reading_and_writing_on_several_lanes_allocate_the_same_on_the_callers_thread() {
    let (small, large) = (entries(80_000), entries(320_000));
    let (small_doc, large_doc) = (document(&small), document(&large));
    assert!(small_doc.len() > 4 * (512 << 10) && small.len() > 4 * (16 << 10));
    assert!(large_doc.len() > 16 * (512 << 10) && large.len() > 16 * (16 << 10));
    // The host's parallelism is read once per process, by the first call.
    drop(read_mtx(small_doc.as_slice()).unwrap());

    let read = |text: &[u8]| allocations(|| drop(read_mtx(text).unwrap()));
    assert_eq!(read(&small_doc), read(&large_doc), "reading");
    let write = |entries: &[(usize, usize, f64)]| {
        let mut sink = Vec::with_capacity(16 << 20);
        let n = entries.len();
        allocations(|| write_mtx(&mut sink, n, n + 4, entries).unwrap())
    };
    assert_eq!(write(&small), write(&large), "writing");
}
