//! Matrix Market round trips through the facade and config-solver parity
//! across crates.

use pyginkgo as pg;
use pyginkgo::config_solver::SolveOptions;
use pyginkgo_integration_tests::{residual, spd_system};

fn temp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("pyginkgo_integration");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn generated_matrix_survives_mtx_roundtrip_and_solves() {
    let gen = pygko_matgen::generators::circuit("rt", 400, 4, 1, 5);
    let path = temp("circuit_rt.mtx");
    pygko_mtx::write_mtx_file(&path, gen.rows, gen.cols, &gen.triplets).unwrap();

    let dev = pg::device("cuda").unwrap();
    let mtx = pg::read(&dev, &path, "double", "Csr").unwrap();
    assert_eq!(mtx.shape(), (gen.rows, gen.cols));
    assert_eq!(mtx.nnz(), gen.triplets.len());

    let b = pg::as_tensor_fill(&dev, (gen.rows, 1), "double", 1.0).unwrap();
    let mut x = pg::as_tensor_fill(&dev, (gen.rows, 1), "double", 0.0).unwrap();
    let log = pg::solve(&mtx, &b, &mut x, &SolveOptions::default()).unwrap();
    assert!(log.converged(), "{}", log.stop_reason());
    assert!(residual(&mtx, &b, &x) < 1e-4 * log.initial_residual());
    let _ = std::fs::remove_file(path);
}

#[test]
fn facade_write_then_read_identity() {
    let dev = pg::device("reference").unwrap();
    let m = spd_system(&dev, 25, "double", "Coo");
    let path = temp("facade_rt.mtx");
    pg::write(&m, &path).unwrap();
    let back = pg::read(&dev, &path, "double", "Coo").unwrap();
    assert_eq!(back.nnz(), m.nnz());
    assert_eq!(back.to_dense().to_vec(), m.to_dense().to_vec());
    let _ = std::fs::remove_file(path);
}

#[test]
fn circuit_values_survive_write_then_read_bit_for_bit() {
    let gen = pygko_matgen::generators::circuit("bits", 3_000, 6, 4, 11);
    let dev = pg::device("reference").unwrap();
    let bits = |m: &pg::SparseMatrix| -> Vec<(usize, usize, u64)> {
        m.to_triplets()
            .into_iter()
            .map(|(r, c, v)| (r, c, v.to_bits()))
            .collect()
    };
    for dtype in ["double", "float"] {
        let m = pg::SparseMatrix::from_triplets(
            &dev,
            (gen.rows, gen.cols),
            &gen.triplets,
            dtype,
            "int32",
            "Csr",
        )
        .unwrap();
        let path = temp(&format!("circuit_bits_{dtype}.mtx"));
        pg::write(&m, &path).unwrap();
        let back = pg::read(&dev, &path, dtype, "Csr").unwrap();
        let _ = std::fs::remove_file(path);
        assert!(m.nnz() > 5 * gen.rows, "{dtype}: {} entries", m.nnz());
        assert!(
            bits(&back) == bits(&m),
            "{dtype}: a value changed on the way"
        );
    }
}

#[test]
fn symmetric_mtx_file_expands_through_facade() {
    let path = temp("sym.mtx");
    std::fs::write(
        &path,
        "%%MatrixMarket matrix coordinate real symmetric\n3 3 4\n1 1 4.0\n2 1 -1.0\n2 2 4.0\n3 3 4.0\n",
    )
    .unwrap();
    let dev = pg::device("reference").unwrap();
    let m = pg::read(&dev, &path, "double", "Csr").unwrap();
    assert_eq!(m.nnz(), 5, "off-diagonal expands to both triangles");
    let d = m.to_dense();
    assert_eq!(d.get(0, 1).unwrap(), -1.0);
    assert_eq!(d.get(1, 0).unwrap(), -1.0);
    let _ = std::fs::remove_file(path);
}

#[test]
fn config_solver_and_direct_bindings_agree_on_every_device() {
    for device_name in ["reference", "omp", "cuda", "hip"] {
        let dev = pg::device(device_name).unwrap();
        let mtx = spd_system(&dev, 36, "double", "Csr");
        let b = pg::as_tensor_fill(&dev, (36, 1), "double", 1.0).unwrap();

        let mut x_cfg = pg::as_tensor_fill(&dev, (36, 1), "double", 0.0).unwrap();
        let opts = SolveOptions {
            method: "gmres".into(),
            preconditioner: Some("jacobi".into()),
            ..SolveOptions::default()
        };
        let log_cfg = pg::solve(&mtx, &b, &mut x_cfg, &opts).unwrap();

        let pre = pg::preconditioner::jacobi(&dev, &mtx).unwrap();
        let solver = pg::solver::gmres(&dev, &mtx, Some(pre), 1000, 30, 1e-6).unwrap();
        let mut x_direct = pg::as_tensor_fill(&dev, (36, 1), "double", 0.0).unwrap();
        let log_direct = solver.apply(&b, &mut x_direct).unwrap();

        assert_eq!(
            log_cfg.iterations(),
            log_direct.iterations(),
            "{device_name}: same algorithm behind both entry points"
        );
        for (a, c) in x_cfg.to_vec().iter().zip(x_direct.to_vec()) {
            assert!((a - c).abs() < 1e-12, "{device_name}: {a} vs {c}");
        }
    }
}

#[test]
fn listing_2_json_parses_back_through_engine_config() {
    // The JSON the facade produces must be consumable by the engine's own
    // parser (the two sides of the §5 boundary).
    let json = SolveOptions::default().to_json().unwrap();
    let cfg = gko::config::Config::from_json(&json).unwrap();
    assert_eq!(cfg.get("type").unwrap().as_str(), Some("solver::Gmres"));
    assert_eq!(
        cfg.get("preconditioner")
            .unwrap()
            .get("type")
            .unwrap()
            .as_str(),
        Some("preconditioner::Jacobi")
    );
    // And round-trips losslessly.
    assert_eq!(gko::config::Config::from_json(&cfg.to_json()).unwrap(), cfg);
}

/// FNV-1a over a byte stream.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The message and line of a document `read_mtx` must reject.
fn rejection(doc: &[u8]) -> (String, usize) {
    match pygko_mtx::read_mtx(doc) {
        Err(pygko_mtx::MtxError::Parse { line, message }) => (message, line),
        other => panic!("expected a parse error, got {other:?}"),
    }
}

/// `doc` with `z` appended to the line holding byte `at`: that line's last
/// token becomes malformed.
fn with_bad_token(doc: &[u8], at: usize) -> Vec<u8> {
    let end = doc[at..].iter().position(|&b| b == b'\n').unwrap() + at;
    let mut bad = doc.to_vec();
    bad.insert(end, b'z');
    bad
}

/// The two documents of the cold pipeline, large enough to be read and
/// written in several slices: the written bytes, the bits read back, and the
/// message and line of a bad token near the start, at the byte midpoint and
/// on the last line, and of a missing last entry.
#[test]
fn large_documents_keep_their_bytes_bits_and_errors() {
    type Pinned = (u64, u64, [(&'static str, usize); 4]);
    let cases: [(pygko_matgen::GeneratedMatrix, usize, Pinned); 2] = [
        (
            pygko_matgen::generators::circuit("circuit_25000", 25_000, 6, 4, 6),
            5_000_000,
            (
                0x464d_1abc_4138_3ba1,
                0x55ab_d380_06f2_b619,
                [
                    ("bad value", 8),
                    ("bad value", 82_924),
                    ("bad value", 161_418),
                    ("declared 161415 entries but found 161414", 161_417),
                ],
            ),
        ),
        (
            pygko_matgen::generators::poisson2d("poisson2d_120", 120, 120),
            1_000_000,
            (
                0x1867_909a_1df6_41bf,
                0x7a68_452a_6d69_0ced,
                [
                    ("bad value", 16),
                    ("bad value", 37_592),
                    ("bad value", 71_523),
                    ("declared 71520 entries but found 71519", 71_522),
                ],
            ),
        ),
    ];
    for (gen, at_least, (bytes_hash, bits_hash, errors)) in cases {
        let mut doc = Vec::new();
        pygko_mtx::write_mtx(&mut doc, gen.rows, gen.cols, &gen.triplets).unwrap();
        assert!(doc.len() > at_least, "{}: {} bytes", gen.name, doc.len());
        let read = pygko_mtx::read_mtx(doc.as_slice()).unwrap();
        let bits = fnv1a(read.entries.iter().flat_map(|&(r, c, v)| {
            [r as u64, c as u64, v.to_bits()]
                .into_iter()
                .flat_map(u64::to_le_bytes)
        }));
        let last_line = doc[..doc.len() - 1]
            .iter()
            .rposition(|&b| b == b'\n')
            .unwrap()
            + 1;
        let found = [
            rejection(&with_bad_token(&doc, 200)),
            rejection(&with_bad_token(&doc, doc.len() / 2)),
            rejection(&with_bad_token(&doc, last_line)),
            rejection(&doc[..last_line]),
        ];
        assert_eq!(
            fnv1a(doc.iter().copied()),
            bytes_hash,
            "{}: bytes",
            gen.name
        );
        assert_eq!(bits, bits_hash, "{}: bits read back", gen.name);
        for ((message, line), (want_message, want_line)) in found.iter().zip(errors) {
            assert_eq!(
                (message.as_str(), *line),
                (want_message, want_line),
                "{}",
                gen.name
            );
        }
    }
}
