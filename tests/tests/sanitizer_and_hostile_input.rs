//! Sanitizer surface at the facade, plus hostile Matrix Market inputs: the
//! parser must reject malformed/adversarial files with line-numbered errors
//! (never panic or over-allocate), `SparseMatrix::validate` must pass on
//! facade-built matrices, and `Solver::observe` with a `sanitize` mode must
//! arm the pool overlap detector and the NaN/Inf operand checks.

use pyginkgo as pg;
use pyginkgo_integration_tests::{residual, spd_system};
use pygko_mtx::read_mtx;

// ---------------------------------------------------------------------------
// Hostile read_mtx inputs: errors, not panics
// ---------------------------------------------------------------------------

/// Every hostile input must come back as a structured parse error — the
/// point of the corpus is that none of them panics, hangs, or allocates
/// anything near the declared (bogus) sizes.
#[test]
fn hostile_mtx_inputs_fail_cleanly() {
    let hostile: &[(&str, &str)] = &[
        ("empty", ""),
        ("whitespace only", "   \n\t\n  \n"),
        ("garbage header", "hello world\n1 1 1\n1 1 1.0\n"),
        (
            "wrong banner",
            "%%MatrixMarket tensor coordinate real general\n",
        ),
        (
            "header only",
            "%%MatrixMarket matrix coordinate real general\n",
        ),
        (
            "absurd declared nnz",
            "%%MatrixMarket matrix coordinate real general\n10 10 99999999999999\n1 1 1.0\n",
        ),
        (
            "truncated entries",
            "%%MatrixMarket matrix coordinate real general\n3 3 3\n1 1 1.0\n",
        ),
        (
            "extra entries",
            "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1.0\n2 2 2.0\n",
        ),
        (
            "out-of-range index",
            "%%MatrixMarket matrix coordinate real general\n2 2 1\n5 1 1.0\n",
        ),
        (
            "zero (one-based) index",
            "%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 1.0\n",
        ),
        (
            "non-numeric value",
            "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 abc\n",
        ),
        (
            "non-numeric dims",
            "%%MatrixMarket matrix coordinate real general\nx y z\n",
        ),
        (
            "negative dims",
            "%%MatrixMarket matrix coordinate real general\n-3 -3 1\n1 1 1.0\n",
        ),
        (
            "binary junk",
            "%%MatrixMarket matrix coordinate real general\n\u{0}\u{1}\u{2}\u{fffd}\n",
        ),
        (
            "array size wrapping to zero values",
            "%%MatrixMarket matrix array real general\n4294967296 4294967296\n",
        ),
        (
            "array size overflowing a multiply",
            "%%MatrixMarket matrix array real general\n5000000000 5000000000\n",
        ),
        (
            "symmetric array taller than wide",
            "%%MatrixMarket matrix array real symmetric\n3 2\n1 2 3\n",
        ),
        (
            "symmetric entry whose mirror image is outside",
            "%%MatrixMarket matrix coordinate real symmetric\n3 2 1\n3 1 1.0\n",
        ),
    ];
    for (what, text) in hostile {
        let got = read_mtx(text.as_bytes());
        assert!(got.is_err(), "{what}: hostile input must be rejected");
    }
}

/// A parse error points at the offending line, so a hostile file is
/// diagnosable rather than a bare "invalid input".
#[test]
fn hostile_mtx_errors_carry_line_numbers() {
    let text = "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n9 9 1.0\n";
    let err = read_mtx(text.as_bytes()).expect_err("row 9 of 2");
    let msg = err.to_string();
    assert!(msg.contains('4'), "error should name line 4: {msg}");
}

/// Bytes that are not UTF-8 are a parse error on their line, not an
/// `Io(InvalidData)` without one.
#[test]
fn non_utf8_mtx_bytes_are_a_line_numbered_parse_error() {
    let doc = b"%%MatrixMarket matrix coordinate real general\n2 2 1\n1 \xff 1.0\n";
    match read_mtx(doc.as_slice()).expect_err("0xff is not an index") {
        pygko_mtx::MtxError::Parse { line, message } => {
            assert_eq!(line, 3);
            assert!(message.contains("bad col index"), "{message}");
        }
        other => panic!("expected a parse error, got {other:?}"),
    }
}

/// A file whose shape the requested index type cannot address is a value
/// error at the facade, not a panic in the assembler.
#[test]
fn mtx_shape_beyond_int32_is_a_value_error() {
    let dir = std::env::temp_dir().join("pyginkgo_hostile_mtx");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("wide.mtx");
    std::fs::write(
        &path,
        "%%MatrixMarket matrix coordinate real general\n1 3000000000 1\n1 3000000000 1.0\n",
    )
    .unwrap();
    let dev = pg::device("reference").unwrap();
    for format in ["Csr", "Coo"] {
        let err =
            pg::read(&dev, &path, "double", format).expect_err("int32 cannot hold column 3e9");
        assert!(
            matches!(err, pg::PyGinkgoError::Value(_)),
            "{format}: {err}"
        );
    }
    let wide = pg::read::read_with_index_type(&dev, &path, "double", "int64", "Csr").unwrap();
    std::fs::remove_file(&path).unwrap();
    assert_eq!(wide.to_triplets(), vec![(0, 2_999_999_999, 1.0)]);
}

/// Sanity: the corpus above is hostile, not the parser — a well-formed file
/// still parses.
#[test]
fn well_formed_mtx_still_parses() {
    let text = "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.5\n2 2 2.5\n";
    let data = read_mtx(text.as_bytes()).expect("clean file");
    assert_eq!((data.rows, data.cols), (2, 2));
    assert_eq!(data.entries.len(), 2);
}

// ---------------------------------------------------------------------------
// Hostile shapes and config files at the facade
// ---------------------------------------------------------------------------

/// A shape whose element count wraps (to 0, the empty buffer's length, in a
/// release build; a multiply-overflow panic in a debug one) is a value error
/// naming the shape, before anything is allocated for it.
#[test]
fn tensor_shapes_beyond_the_address_space_are_value_errors() {
    let dev = pg::device("reference").unwrap();
    for shape in [
        (1usize << 63, 2usize),
        (2, 1 << 63),
        (usize::MAX, usize::MAX),
    ] {
        for got in [
            pg::as_tensor(vec![], &dev, shape, "double"),
            pg::as_tensor_fill(&dev, shape, "double", 1.0),
            pg::as_tensor_fill(&dev, shape, "half", 1.0),
        ] {
            match got {
                Err(pg::PyGinkgoError::Value(msg)) => {
                    assert!(msg.contains(&shape.0.to_string()), "{msg}")
                }
                other => panic!("{shape:?}: expected a ValueError, got {other:?}"),
            }
        }
    }
    let empty = pg::as_tensor(vec![], &dev, (0, 1 << 63), "double").unwrap();
    assert_eq!(empty.shape(), (0, 1 << 63));
}

/// The config parser recurses per nesting level: a 10 kB file of `[` used to
/// overflow the stack (an abort, not a catchable panic). Nesting is bounded
/// now, and the file is a value error like any other malformed one.
#[test]
fn deeply_nested_config_file_is_a_value_error() {
    let dev = pg::device("reference").unwrap();
    let mtx = spd_system(&dev, 8, "double", "Csr");
    let b = pg::as_tensor_fill(&dev, (8, 1), "double", 1.0).unwrap();
    let mut x = pg::as_tensor_fill(&dev, (8, 1), "double", 0.0).unwrap();
    let dir = std::env::temp_dir().join("pyginkgo_hostile_cfg");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("deep.json");
    for doc in ["[".repeat(10_000), "{\"a\":".repeat(1_000_000)] {
        std::fs::write(&path, doc).unwrap();
        match pg::solve_from_config_file(&mtx, &b, &mut x, &path) {
            Err(pg::PyGinkgoError::Value(msg)) => assert!(msg.contains("nesting"), "{msg}"),
            other => panic!("expected a ValueError, got {other:?}"),
        }
    }
    std::fs::remove_file(&path).unwrap();
}

// ---------------------------------------------------------------------------
// SparseMatrix::validate on the facade
// ---------------------------------------------------------------------------

#[test]
fn facade_matrices_validate_clean() {
    let dev = pg::device("reference").unwrap();
    for format in ["Csr", "Coo"] {
        for dtype in ["half", "float", "double"] {
            let m = spd_system(&dev, 20, dtype, format);
            m.validate()
                .unwrap_or_else(|e| panic!("{format}/{dtype}: {e}"));
        }
    }
}

// ---------------------------------------------------------------------------
// Solver::observe(Observe { sanitize, .. })
// ---------------------------------------------------------------------------

/// Observing nothing but the given sanitizer mode.
fn sanitize(mode: &str) -> pg::Observe {
    pg::Observe {
        sanitize: Some(mode.to_string()),
        ..pg::Observe::default()
    }
}

#[test]
fn with_sanitizer_pool_verifies_solver_kernels() {
    let dev = pg::device("omp").unwrap();
    let mtx = spd_system(&dev, 300, "double", "Csr");
    let b = pg::as_tensor_fill(&dev, (300, 1), "double", 1.0).unwrap();
    let mut x = pg::as_tensor_fill(&dev, (300, 1), "double", 0.0).unwrap();
    let solver = pg::solver::cg(&dev, &mtx, None, 200, 1e-10)
        .unwrap()
        .observe(sanitize("pool"))
        .unwrap();
    let log = solver.apply(&b, &mut x).unwrap();
    assert!(log.converged(), "{}", log.stop_reason());
    assert!(residual(&mtx, &b, &x) < 1e-6);
    let report = solver.observations().sanitizer;
    assert!(
        report.jobs_checked > 0,
        "CG's SpMV/axpy pool jobs must be claim-verified: {report:?}"
    );
    assert!(report.pieces_checked >= report.jobs_checked);
}

#[test]
fn with_sanitizer_values_rejects_poisoned_rhs() {
    let dev = pg::device("reference").unwrap();
    let mtx = spd_system(&dev, 10, "double", "Csr");
    let mut b = pg::as_tensor_fill(&dev, (10, 1), "double", 1.0).unwrap();
    b.set(3, 0, f64::NAN).unwrap();
    let mut x = pg::as_tensor_fill(&dev, (10, 1), "double", 0.0).unwrap();
    let solver = pg::solver::cg(&dev, &mtx, None, 50, 1e-10)
        .unwrap()
        .observe(sanitize("values"))
        .unwrap();
    let err = solver
        .apply(&b, &mut x)
        .expect_err("NaN rhs must be rejected");
    let msg = err.to_string();
    assert!(msg.contains("rhs"), "error names the operand: {msg}");

    // The same solve with finite inputs passes the pre- and post-checks.
    let b = pg::as_tensor_fill(&dev, (10, 1), "double", 1.0).unwrap();
    let log = solver.apply(&b, &mut x).unwrap();
    assert!(log.converged());
}

#[test]
fn with_sanitizer_full_combines_both_and_rejects_bad_modes() {
    let dev = pg::device("omp").unwrap();
    let mtx = spd_system(&dev, 100, "double", "Csr");
    let b = pg::as_tensor_fill(&dev, (100, 1), "double", 1.0).unwrap();
    let mut x = pg::as_tensor_fill(&dev, (100, 1), "double", 0.0).unwrap();
    let solver = pg::solver::cg(&dev, &mtx, None, 200, 1e-10)
        .unwrap()
        .observe(sanitize("full"))
        .unwrap();
    let log = solver.apply(&b, &mut x).unwrap();
    assert!(log.converged());
    assert!(solver.observations().sanitizer.jobs_checked > 0);

    let plain = pg::solver::cg(&dev, &mtx, None, 10, 1e-6).unwrap();
    assert!(
        matches!(
            plain.observe(sanitize("bogus")),
            Err(pg::PyGinkgoError::Value(_))
        ),
        "unknown sanitizer modes are value errors"
    );
}
