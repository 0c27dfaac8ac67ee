//! Acceptance tests for the runtime sanitizer: format validators reject
//! corrupted storage, the chunk-overlap detector stays silent on real pool
//! runs (its injected-overlap tests are unit tests of `sanitize.rs`, where
//! the crate-private chunk log can be written by hand), counters attribute
//! verified work, and the schedule-perturbation harness separates
//! order-independent kernels from order-dependent ones.

use gko::linop::LinOp;
use gko::matrix::{Coo, Csr, Dense, Ell, Hybrid, Sellp};
use gko::sanitize::{check_finite, stress_schedules, Schedule};
use gko::{Dim2, Executor};
use std::sync::atomic::{AtomicUsize, Ordering};

mod common;
use common::poisson_csr;

// ---------------------------------------------------------------------------
// validate(): corrupted storage is rejected, well-formed storage passes
// ---------------------------------------------------------------------------

#[test]
fn well_formed_formats_validate_clean() {
    let exec = Executor::reference();
    let csr = poisson_csr(&exec, 40);
    csr.validate().expect("well-formed CSR");
    Coo::from_csr(&csr).validate().expect("well-formed COO");
    Ell::from_csr(&csr).validate().expect("well-formed ELL");
    Sellp::from_csr(&csr)
        .validate()
        .expect("well-formed SELL-P");
    Hybrid::from_csr(&csr)
        .validate()
        .expect("well-formed Hybrid");
    csr.to_dense().validate().expect("finite dense");
}

#[test]
fn corrupted_csr_is_rejected() {
    let exec = Executor::reference();
    // Out-of-range column index.
    let m = Csr::<f64, i32>::from_raw_unchecked(
        &exec,
        Dim2::square(3),
        vec![0, 1, 2, 3],
        vec![0, 7, 2], // column 7 in a 3-column matrix
        vec![1.0, 2.0, 3.0],
    );
    let err = m.validate().expect_err("column out of range");
    assert!(err.to_string().contains('7'), "names the bad index: {err}");

    // Non-monotone row pointers.
    let m = Csr::<f64, i32>::from_raw_unchecked(
        &exec,
        Dim2::square(3),
        vec![0, 2, 1, 3],
        vec![0, 1, 2],
        vec![1.0, 2.0, 3.0],
    );
    m.validate().expect_err("row_ptrs must be monotone");

    // Row pointers overrunning the value storage: validate() must reject
    // this rather than let a later SpMV slice out of bounds.
    let m = Csr::<f64, i32>::from_raw_unchecked(
        &exec,
        Dim2::square(3),
        vec![0, 1, 2, 9],
        vec![0, 1, 2],
        vec![1.0, 2.0, 3.0],
    );
    m.validate().expect_err("row_ptrs overrun storage");

    // Wrong row_ptrs length entirely.
    let m = Csr::<f64, i32>::from_raw_unchecked(
        &exec,
        Dim2::square(3),
        vec![0, 3],
        vec![0, 1, 2],
        vec![1.0, 2.0, 3.0],
    );
    m.validate().expect_err("row_ptrs length != rows + 1");
}

#[test]
fn corrupted_coo_is_rejected() {
    let exec = Executor::reference();
    // Out-of-bounds row index.
    let m = Coo::<f64, i32>::from_raw_unchecked(
        &exec,
        Dim2::square(3),
        vec![0, 5],
        vec![0, 1],
        vec![1.0, 2.0],
    );
    m.validate().expect_err("row index out of range");

    // Unsorted coordinates break the row-major invariant the COO kernels
    // and the CSR conversion both rely on.
    let m = Coo::<f64, i32>::from_raw_unchecked(
        &exec,
        Dim2::square(3),
        vec![2, 0],
        vec![0, 0],
        vec![1.0, 2.0],
    );
    m.validate().expect_err("coordinates must be sorted");

    // Mismatched array lengths.
    let m = Coo::<f64, i32>::from_raw_unchecked(
        &exec,
        Dim2::square(3),
        vec![0, 1],
        vec![0],
        vec![1.0, 2.0],
    );
    m.validate().expect_err("array lengths must agree");
}

#[test]
fn non_finite_dense_is_rejected() {
    let exec = Executor::reference();
    let mut d = Dense::<f64>::zeros(&exec, Dim2::new(2, 2));
    d.validate().expect("zeros are finite");
    d.as_mut_slice()[3] = f64::NAN;
    let err = d.validate().expect_err("NaN must be rejected");
    assert!(err.to_string().contains("non-finite"), "{err}");
    assert!(check_finite("buf", &[1.0f64, f64::INFINITY]).is_err());
}

// ---------------------------------------------------------------------------
// Chunk-overlap detector
// ---------------------------------------------------------------------------

/// End to end: with the sanitizer armed, real pool kernels verify clean and
/// the counters attribute every dispatched piece; with it off, the counters
/// do not move (the off path is one relaxed load).
#[test]
fn pool_runs_verify_clean_and_are_counted() {
    let exec = Executor::omp(4);
    let a = poisson_csr(&exec, 600);
    let b = Dense::<f64>::filled(&exec, Dim2::new(600, 1), 1.0);
    let mut x = Dense::<f64>::zeros(&exec, Dim2::new(600, 1));

    // Off by default: nothing is recorded.
    a.apply(&b, &mut x).unwrap();
    assert_eq!(exec.sanitizer_report().jobs_checked, 0);

    // Armed: every pool dispatch is verified as an exact disjoint partition
    // (a violation would panic inside the apply).
    exec.enable_sanitizer();
    let mut want = Dense::<f64>::zeros(&exec, Dim2::new(600, 1));
    a.apply(&b, &mut want).unwrap();
    a.apply(&b, &mut x).unwrap();
    let report = exec.sanitizer_report();
    assert!(
        report.jobs_checked >= 2,
        "both applies verified: {report:?}"
    );
    assert!(report.pieces_checked > report.jobs_checked);
    assert_eq!(x.to_host_vec(), want.to_host_vec());

    // Disarmed again: counters freeze.
    exec.disable_sanitizer();
    a.apply(&b, &mut x).unwrap();
    assert_eq!(exec.sanitizer_report(), report);
}

/// The sanitizer must also cover every other format's parallel kernels.
#[test]
fn all_formats_verify_clean_under_sanitizer() {
    let exec = Executor::omp(3);
    exec.enable_sanitizer();
    let csr = poisson_csr(&exec, 300);
    let b = Dense::<f64>::filled(&exec, Dim2::new(300, 1), 1.0);
    let mut x = Dense::<f64>::zeros(&exec, Dim2::new(300, 1));
    csr.apply(&b, &mut x).unwrap();
    Coo::from_csr(&csr).apply(&b, &mut x).unwrap();
    Ell::from_csr(&csr).apply(&b, &mut x).unwrap();
    Sellp::from_csr(&csr).apply(&b, &mut x).unwrap();
    Hybrid::from_csr(&csr).apply(&b, &mut x).unwrap();
    let report = exec.sanitizer_report();
    assert!(report.jobs_checked >= 5, "{report:?}");
}

// ---------------------------------------------------------------------------
// Schedule-perturbation stress harness
// ---------------------------------------------------------------------------

#[test]
fn stress_passes_for_disjoint_kernel() {
    let exec = Executor::omp(4);
    let init = vec![0.0f64; 257];
    let bounds = vec![0, 31, 64, 130, 200, 257];
    stress_schedules(&exec, &init, &bounds, 8, 42, |chunk, xs| {
        for (j, x) in xs.iter_mut().enumerate() {
            *x = (chunk * 1000 + j) as f64;
        }
    })
    .expect("a chunk-local kernel is schedule-independent");
}

#[test]
fn stress_catches_order_dependence() {
    let exec = Executor::omp(4);
    let init = vec![0usize; 8];
    let bounds = vec![0, 2, 4, 6, 8];
    // A hidden shared counter makes the output depend on execution order —
    // exactly the class of bug the harness exists to surface.
    let ticket = AtomicUsize::new(0);
    let err = stress_schedules(&exec, &init, &bounds, 6, 7, |_chunk, xs| {
        let t = ticket.fetch_add(1, Ordering::Relaxed);
        for x in xs.iter_mut() {
            *x = t;
        }
    })
    .expect_err("order-dependent kernel must diverge");
    match err.schedule {
        Schedule::Permuted { seed, .. } => {
            // The failure names a reproducing seed derived from ours.
            assert!((7..7 + 6).contains(&seed), "seed {seed}");
        }
        Schedule::Pool => {} // pool interleaving caught it instead — also fine
    }
    assert!(err.index < 8);
}
