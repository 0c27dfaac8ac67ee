//! Executor parity: every parallel kernel must produce (near-)identical
//! results on the omp executor — for any thread count — as on the serial
//! reference executor.
//!
//! Chunk partitions are derived from the executor spec, so results are
//! deterministic per spec; across *different* specs the segment structure
//! (and hence floating-point summation order) may differ, which is why the
//! comparisons below use an ulp-distance tolerance rather than bitwise
//! equality. A handful of ulps is the honest bound for reassociated sums of
//! well-scaled data; anything larger indicates a racing or mispartitioned
//! kernel.

use gko::linop::LinOp;
use gko::matrix::{Coo, Csr, Dense, Diagonal, Ell, Hybrid, Sellp, SpmvStrategy};
use gko::{Dim2, Executor};
use pygko_sim::testing::{case_rng, sparse_triplets};

/// Thread counts exercised for every kernel: serial-on-omp, even split,
/// prime (uneven chunk boundaries), and wider than any test matrix's
/// natural chunk count.
const THREADS: [usize; 4] = [1, 2, 7, 16];

/// Ulp tolerance for reassociated sums (different chunk partitions change
/// the order in which partial results are merged).
const TOL_ULPS: u64 = 4;

/// Maps a float to an integer such that consecutive representable values
/// differ by 1 and ordering is preserved (two's-complement trick).
fn ordered(x: f64) -> i64 {
    let b = x.to_bits() as i64;
    if b < 0 {
        i64::MIN - b
    } else {
        b
    }
}

fn ulps(a: f64, b: f64) -> u64 {
    ordered(a).wrapping_sub(ordered(b)).unsigned_abs()
}

fn assert_close(got: &[f64], want: &[f64], ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}: length mismatch");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            ulps(*g, *w) <= TOL_ULPS,
            "{ctx}[{i}]: {g} vs {w} ({} ulps apart)",
            ulps(*g, *w)
        );
    }
}

/// A named test matrix: shape name, dimensions, triplets.
type Shape = (&'static str, Dim2, Vec<(usize, usize, f64)>);

/// Test matrices covering the degenerate shapes that stress chunk
/// partitioning: zero rows, rows with no entries, a single wide row, and
/// one dense row inside an otherwise sparse matrix (the arrow head that
/// used to break load-balanced bounds).
fn shapes() -> Vec<Shape> {
    let mut shapes: Vec<Shape> = Vec::new();

    shapes.push(("zero_rows", Dim2::new(0, 7), vec![]));
    shapes.push(("all_rows_empty", Dim2::new(9, 9), vec![]));

    // Tridiagonal with a band of empty rows in the middle.
    let n = 40;
    let mut t = Vec::new();
    for i in 0..n {
        if (15..25).contains(&i) {
            continue;
        }
        t.push((i, i, 2.0 + i as f64 * 0.25));
        if i > 0 {
            t.push((i, i - 1, -1.0));
        }
        if i + 1 < n {
            t.push((i, i + 1, -0.5));
        }
    }
    shapes.push(("empty_row_band", Dim2::square(n), t));

    // A single 1 x n dense row.
    let n = 33;
    let row: Vec<(usize, usize, f64)> = (0..n)
        .map(|j| (0usize, j, 1.0 + (j as f64) * 0.125))
        .collect();
    shapes.push(("one_by_n", Dim2::new(1, n), row));

    // Arrow head: dense first row and column plus diagonal.
    let n = 48;
    let mut t = Vec::new();
    for j in 1..n {
        t.push((0, j, 0.5 + j as f64 * 0.0625));
        t.push((j, 0, -0.25));
        t.push((j, j, 3.0 + j as f64 * 0.5));
    }
    t.push((0, 0, 4.0));
    shapes.push(("arrow_head", Dim2::square(n), t));

    // A few deterministic random sparse matrices.
    for case in 0..3u64 {
        let mut rng = case_rng("parity_shapes", case);
        let (n, t) = sparse_triplets(&mut rng, 8, 48, 160, 4.0);
        shapes.push(("random", Dim2::square(n), t));
    }
    shapes
}

/// b-vector with varied, exactly representable entries.
fn rhs(exec: &Executor, n: usize) -> Dense<f64> {
    rhs_block(exec, n, 1)
}

/// `n x k` right-hand-side block with varied, exactly representable entries.
fn rhs_block(exec: &Executor, n: usize, k: usize) -> Dense<f64> {
    let v: Vec<f64> = (0..n * k).map(|i| 0.25 + (i % 13) as f64 * 0.125).collect();
    Dense::from_vec(exec, Dim2::new(n, k), v).unwrap()
}

/// Runs SpMV (plain and advanced) against `k` right-hand sides for a format
/// built by `make` on the given executor; returns (apply result,
/// apply_advanced result).
fn spmv_outputs<F, O>(
    exec: &Executor,
    dim: Dim2,
    t: &[(usize, usize, f64)],
    k: usize,
    make: F,
) -> (Vec<f64>, Vec<f64>)
where
    F: Fn(&Csr<f64, i32>) -> O,
    O: LinOp<f64>,
{
    let csr = Csr::<f64, i32>::from_triplets(exec, dim, t).unwrap();
    let op = make(&csr);
    let b = rhs_block(exec, dim.cols, k);
    let mut x = Dense::zeros(exec, Dim2::new(dim.rows, k));
    op.apply(&b, &mut x).unwrap();
    let plain = x.to_host_vec();
    // Advanced apply with nontrivial alpha/beta on a nonzero x.
    let mut x = Dense::<f64>::filled(exec, Dim2::new(dim.rows, k), 1.5);
    op.apply_advanced(2.0, &b, -0.5, &mut x).unwrap();
    (plain, x.to_host_vec())
}

/// Right-hand-side counts: the single-vector kernels, and the multi-vector
/// branches (per-row accumulator blocks) most formats keep separately.
const RHS_COLS: [usize; 2] = [1, 3];

fn check_format_parity<F, O>(name: &str, make: F)
where
    F: Fn(&Csr<f64, i32>) -> O,
    O: LinOp<f64>,
{
    let reference = Executor::reference();
    for (shape, dim, t) in shapes() {
        for k in RHS_COLS {
            let (want_plain, want_adv) = spmv_outputs(&reference, dim, &t, k, &make);
            for threads in THREADS {
                let omp = Executor::omp(threads);
                let (got_plain, got_adv) = spmv_outputs(&omp, dim, &t, k, &make);
                let ctx = format!("{name}/{shape}/k{k}/omp{threads}");
                assert_close(&got_plain, &want_plain, &ctx);
                assert_close(&got_adv, &want_adv, &format!("{ctx}/advanced"));
            }
        }
    }
}

#[test]
fn csr_classical_matches_reference() {
    check_format_parity("csr_classical", |csr| {
        csr.clone().with_strategy(SpmvStrategy::Classical)
    });
}

#[test]
fn csr_load_balance_matches_reference() {
    check_format_parity("csr_load_balance", |csr| {
        csr.clone().with_strategy(SpmvStrategy::LoadBalance)
    });
}

#[test]
fn csr_merge_path_matches_reference() {
    check_format_parity("csr_merge_path", |csr| {
        csr.clone().with_strategy(SpmvStrategy::MergePath)
    });
}

#[test]
fn csr_auto_matches_reference() {
    check_format_parity("csr_auto", |csr| {
        csr.clone().with_strategy(SpmvStrategy::Auto)
    });
}

#[test]
fn coo_matches_reference() {
    check_format_parity("coo", Coo::from_csr);
}

/// COO's `k == 1` row sum is one `f64` accumulated in entry order: bit-equal
/// to a sequential per-row loop. 64 rows of 5 entries keep every nnz-uniform
/// cut into 4, 8 or 64 segments on a row boundary (a split row is summed
/// piecewise, which is a different rounding), and the values are not dyadic,
/// so a reassociated sum shows.
#[test]
fn coo_single_rhs_sums_in_entry_order() {
    let n = 64;
    let t: Vec<(usize, usize, f64)> = (0..n * 5)
        .map(|e| (e / 5, (e / 5 + 11 * (e % 5)) % n, 1.0 / (3.0 + e as f64)))
        .collect();
    let execs = [
        Executor::reference(),
        Executor::omp(1),
        Executor::omp(2),
        Executor::omp(16),
    ];
    for exec in execs {
        let coo = Coo::<f64, i32>::from_triplets(&exec, Dim2::square(n), &t).unwrap();
        let b = rhs(&exec, n);
        let mut x = Dense::zeros(&exec, Dim2::new(n, 1));
        coo.apply(&b, &mut x).unwrap();

        let bv = b.to_host_vec();
        let mut want = vec![0.0f64; n];
        let entries = coo.row_idxs().iter().zip(coo.col_idxs()).zip(coo.values());
        for ((&r, &c), &v) in entries {
            want[r as usize] += v * bv[c as usize];
        }
        assert_eq!(
            x.to_host_vec(),
            want,
            "coo on {}: row sums reordered",
            exec.name()
        );
    }
}

#[test]
fn ell_matches_reference() {
    check_format_parity("ell", Ell::from_csr);
}

#[test]
fn sellp_matches_reference() {
    check_format_parity("sellp", Sellp::from_csr);
}

#[test]
fn hybrid_matches_reference() {
    check_format_parity("hybrid", Hybrid::from_csr);
}

#[test]
fn diagonal_matches_reference() {
    let reference = Executor::reference();
    for n in [0usize, 1, 7, 64, 257] {
        let d: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64 * 0.5).collect();
        let want = {
            let diag = Diagonal::new(&reference, d.clone());
            let b = rhs(&reference, n);
            let mut x = Dense::zeros(&reference, Dim2::new(n, 1));
            diag.apply(&b, &mut x).unwrap();
            x.to_host_vec()
        };
        for threads in THREADS {
            let omp = Executor::omp(threads);
            let diag = Diagonal::new(&omp, d.clone());
            let b = rhs(&omp, n);
            let mut x = Dense::zeros(&omp, Dim2::new(n, 1));
            diag.apply(&b, &mut x).unwrap();
            assert_close(
                &x.to_host_vec(),
                &want,
                &format!("diagonal/n{n}/omp{threads}"),
            );
        }
    }
}

/// Vectors for the BLAS-1 parity checks; entries vary in sign and
/// magnitude so reassociation actually changes intermediate sums.
fn blas1_vectors(exec: &Executor, n: usize) -> (Dense<f64>, Dense<f64>) {
    let a: Vec<f64> = (0..n)
        .map(|i| (if i % 2 == 0 { 1.0 } else { -1.0 }) * (0.5 + (i % 31) as f64 * 0.375))
        .collect();
    let b: Vec<f64> = (0..n).map(|i| 0.125 + (i % 17) as f64 * 0.0625).collect();
    (
        Dense::from_vec(exec, Dim2::new(n, 1), a).unwrap(),
        Dense::from_vec(exec, Dim2::new(n, 1), b).unwrap(),
    )
}

#[test]
fn dot_matches_reference() {
    let reference = Executor::reference();
    for n in [0usize, 1, 13, 100, 1023] {
        let (a, b) = blas1_vectors(&reference, n);
        let want = a.compute_dot(&b).unwrap();
        for threads in THREADS {
            let omp = Executor::omp(threads);
            let (a, b) = blas1_vectors(&omp, n);
            let got = a.compute_dot(&b).unwrap();
            assert!(
                ulps(got, want) <= TOL_ULPS,
                "dot/n{n}/omp{threads}: {got} vs {want}"
            );
        }
    }
}

#[test]
fn norm_matches_reference() {
    let reference = Executor::reference();
    for n in [0usize, 1, 13, 100, 1023] {
        let (a, _) = blas1_vectors(&reference, n);
        let want = a.compute_norm2();
        for threads in THREADS {
            let omp = Executor::omp(threads);
            let (a, _) = blas1_vectors(&omp, n);
            let got = a.compute_norm2();
            assert!(
                ulps(got, want) <= TOL_ULPS,
                "norm/n{n}/omp{threads}: {got} vs {want}"
            );
        }
    }
}

#[test]
fn axpy_matches_reference() {
    let reference = Executor::reference();
    for n in [0usize, 1, 13, 100, 1023] {
        let (mut a, b) = blas1_vectors(&reference, n);
        a.add_scaled(-1.75, &b).unwrap();
        let want = a.to_host_vec();
        for threads in THREADS {
            let omp = Executor::omp(threads);
            let (mut a, b) = blas1_vectors(&omp, n);
            a.add_scaled(-1.75, &b).unwrap();
            // axpy is elementwise (no reassociation), so demand bitwise.
            assert_eq!(a.to_host_vec(), want, "axpy/n{n}/omp{threads}");
        }
    }
}
