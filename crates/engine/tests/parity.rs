//! Executor parity: every parallel kernel on the omp executor, for any
//! thread count, against the serial reference executor.
//!
//! Each SpMV test is the SpMV oracle (`common/spmv.rs`) narrowed to one
//! format or CSR strategy in `f64` / `i32`: on every executor of
//! `common::executors()`, every input of `matrices()`, `k` in {1, 3} and
//! every `alpha` / `beta`, bit for bit against the summation order of that
//! executor's partition and within the bounded tier. `spmv_bits.rs` runs the
//! same cells for all formats at once and in every type; here a failure
//! names its format.
//!
//! The BLAS-1 tests compare every omp executor with the reference executor:
//! a reduction combines different chunk partials and may move by
//! [`TOL_ULPS`]; the update and the diagonal product are elementwise and
//! must be bit-identical.

use common::spmv::{check_everywhere, check_formats, matrices, Format, Reference};
use gko::linop::LinOp;
use gko::matrix::SpmvStrategy::{Auto, Classical, LoadBalance, MergePath};
use gko::matrix::{Csr, Dense, Diagonal};
use gko::{Dim2, Executor};

mod common;

/// The ulps a reassociated reduction may move by across executors.
const TOL_ULPS: u64 = 4;

/// One test per format or CSR strategy: the oracle on that operator alone.
macro_rules! format_case {
    ($test:ident, $format:expr) => {
        #[test]
        fn $test() {
            let format = $format;
            check_everywhere::<f64, i32>(&format!("parity::{format:?}"), &[format]);
        }
    };
}

format_case!(csr_classical_matches_reference, Format::Csr(Classical));
format_case!(csr_load_balance_matches_reference, Format::Csr(LoadBalance));
format_case!(csr_merge_path_matches_reference, Format::Csr(MergePath));
format_case!(csr_auto_matches_reference, Format::Csr(Auto));
format_case!(coo_matches_reference, Format::Coo);
format_case!(ell_matches_reference, Format::Ell);
format_case!(sellp_matches_reference, Format::Sellp);
format_case!(hybrid_matches_reference, Format::Hybrid);

/// COO's `k == 1` row sum is one `f64` accumulated in entry order. On the
/// 64 rows of 5 entries every cut into `4 * workers` nnz-uniform segments
/// falls on a row boundary when `4 * workers` divides 64, so no row is
/// summed piecewise and the oracle's segment reference is the plain
/// entry-order loop; the values are not dyadic, so a reassociated sum shows.
#[test]
fn coo_single_rhs_sums_in_entry_order() {
    let (name, dim, t) = matrices()
        .into_iter()
        .find(|(name, ..)| *name == "five_per_row")
        .unwrap();
    let executors = common::executors().into_iter();
    for exec in executors.filter(|exec| 64usize.is_multiple_of(4 * exec.spec().workers)) {
        let csr = Csr::<f64, i32>::from_triplets(&exec, dim, &t).unwrap();
        let segments = Reference::of(&csr).coo_segments(exec.spec().workers);
        let on = common::label(&exec);
        assert!(
            segments.iter().all(|s| s.nnz_start.is_multiple_of(5)),
            "{on}: a cut inside a row"
        );
        check_formats::<f64, i32>(&exec, name, dim, &t, &[Format::Coo]);
    }
    common::print_coverage("parity::coo_single_rhs");
}

/// `op` on every omp executor against the reference executor, at lengths
/// around a block of eight, primes and one past powers of two: every output
/// within `tol` ulps, and bit-identical when `tol` is 0.
fn check_against_reference(name: &str, tol: u64, op: impl Fn(&Executor, usize) -> Vec<f64>) {
    let executors = common::executors();
    let (reference, omps) = executors.split_first().unwrap();
    for n in [0usize, 1, 7, 13, 64, 100, 257, 1023] {
        let want = op(reference, n);
        for omp in omps {
            let got = op(omp, n);
            let ctx = format!("{name}/n{n}/{}", common::label(omp));
            assert_eq!(got.len(), want.len(), "{ctx}: length");
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                let off = common::ulps(*g, *w);
                let same = tol > 0 || g.to_bits() == w.to_bits();
                assert!(off <= tol && same, "{ctx}[{i}]: {g} vs {w} ({off} ulps)");
            }
        }
    }
}

/// Two vectors whose entries vary in sign and magnitude, so that
/// reassociation changes intermediate sums.
fn vectors(exec: &Executor, n: usize) -> (Dense<f64>, Dense<f64>) {
    let sign = |i: usize| if i.is_multiple_of(2) { 1.0 } else { -1.0 };
    let a = (0..n).map(|i| sign(i) * (0.5 + (i % 31) as f64 * 0.375));
    let b = (0..n).map(|i| 0.125 + (i % 17) as f64 * 0.0625);
    (
        Dense::from_vec(exec, Dim2::new(n, 1), a.collect()).unwrap(),
        Dense::from_vec(exec, Dim2::new(n, 1), b.collect()).unwrap(),
    )
}

#[test]
fn diagonal_matches_reference() {
    check_against_reference("diagonal", 0, |exec, n| {
        let (_, b) = vectors(exec, n);
        let d = (0..n).map(|i| 1.0 + (i % 7) as f64 * 0.5).collect();
        let mut x = Dense::zeros(exec, Dim2::new(n, 1));
        Diagonal::new(exec, d).apply(&b, &mut x).unwrap();
        x.to_host_vec()
    });
}

#[test]
fn dot_matches_reference() {
    check_against_reference("dot", TOL_ULPS, |exec, n| {
        let (a, b) = vectors(exec, n);
        vec![a.compute_dot(&b).unwrap()]
    });
}

#[test]
fn norm_matches_reference() {
    check_against_reference("norm", TOL_ULPS, |exec, n| {
        vec![vectors(exec, n).0.compute_norm2()]
    });
}

#[test]
fn axpy_matches_reference() {
    check_against_reference("axpy", 0, |exec, n| {
        let (mut a, b) = vectors(exec, n);
        a.add_scaled(-1.75, &b).unwrap();
        a.to_host_vec()
    });
}
