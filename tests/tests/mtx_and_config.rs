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
