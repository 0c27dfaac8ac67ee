//! The config-solver path (paper §5, Listing 2).
//!
//! `pg.solve(...)` assembles a configuration *dictionary* from keyword-style
//! arguments, serializes it to JSON in memory (no temporary files, as the
//! paper emphasizes), re-parses it, and hands the tree to the engine's
//! generic `config_solve` entry point. Going through the JSON text is
//! deliberate: it exercises exactly the boundary the real pyGinkgo crosses.

use crate::device::Device;
use crate::dispatch::with_dtype;
use crate::error::{PyGinkgoError, PyResult};
use crate::gil::binding_call;
use crate::logger::Logger;
use crate::matrix::{csr_half, SparseMatrix};
use crate::tensor::Tensor;
use gko::config::Config;

/// Keyword arguments for [`solve`], mirroring Listing 2's dictionary.
#[derive(Clone, Debug)]
pub struct SolveOptions {
    /// Solver: `"gmres"`, `"cg"`, `"fcg"`, `"cgs"`, `"bicgstab"`, `"minres"`,
    /// `"ir"`, `"direct"`.
    pub method: String,
    /// Preconditioner: `"jacobi"`, `"ilu"`, `"ic"`, or `None`.
    pub preconditioner: Option<String>,
    /// Jacobi block size (`max_block_size` in Listing 2).
    pub block_size: usize,
    /// Iteration limit.
    pub max_iters: usize,
    /// Relative residual reduction factor.
    pub reduction_factor: f64,
    /// GMRES restart length.
    pub krylov_dim: usize,
}

impl Default for SolveOptions {
    /// Listing 2's configuration: GMRES(30), scalar Jacobi, 1000 iterations,
    /// reduction factor 1e-6.
    fn default() -> Self {
        SolveOptions {
            method: "gmres".to_owned(),
            preconditioner: Some("jacobi".to_owned()),
            block_size: 1,
            max_iters: 1000,
            reduction_factor: 1e-6,
            krylov_dim: 30,
        }
    }
}

impl SolveOptions {
    /// Builds the configuration dictionary (the tree Listing 2 prints).
    pub fn to_config(&self) -> PyResult<Config> {
        let (_, solver_type) = crate::solver::method(&self.method)?;
        let mut cfg = Config::map().with("type", solver_type).with(
            "criteria",
            vec![
                Config::map()
                    .with("type", "Iteration")
                    .with("max_iters", self.max_iters),
                Config::map()
                    .with("type", "ResidualNorm")
                    .with("reduction_factor", self.reduction_factor),
            ],
        );
        if solver_type == "solver::Gmres" {
            cfg = cfg.with("krylov_dim", self.krylov_dim);
        }
        if let Some(p) = &self.preconditioner {
            let ptype = match p.to_ascii_lowercase().as_str() {
                "jacobi" => "preconditioner::Jacobi",
                "ilu" => "preconditioner::Ilu",
                "ic" => "preconditioner::Ic",
                "none" => {
                    return Ok(cfg.with("preconditioner", Config::Null));
                }
                other => {
                    return Err(PyGinkgoError::Value(format!(
                        "unknown preconditioner '{other}'"
                    )))
                }
            };
            let mut pcfg = Config::map().with("type", ptype);
            if ptype == "preconditioner::Jacobi" {
                pcfg = pcfg.with("max_block_size", self.block_size);
            }
            cfg = cfg.with("preconditioner", pcfg);
        }
        Ok(cfg)
    }

    /// The JSON document handed to the engine — what Listing 2 shows.
    pub fn to_json(&self) -> PyResult<String> {
        Ok(self.to_config()?.to_json())
    }
}

/// Runs the pipeline `cfg` describes on `A x = b`: under both [`solve`] and
/// [`solve_with_config`], inside their binding crossing.
fn run_configured(
    matrix: &SparseMatrix,
    b: &Tensor,
    x: &mut Tensor,
    cfg: &Config,
) -> PyResult<Logger> {
    with_dtype!(("matrix", &matrix.inner), ("b", &b.data), ("x", &mut x.data); |m, bd, xd| {
        let solver = csr_half(matrix.device(), m).config_solve(cfg)?;
        solver.op.apply(bd, xd)?;
        Ok(Logger::from_engine(&solver.logger))
    })
}

/// Solves `A x = b` through the generic config-solver entry point.
///
/// Builds the config dictionary from `options`, round-trips it through JSON,
/// and runs the configured pipeline. `x` holds the initial guess and is
/// overwritten with the solution.
pub fn solve(
    matrix: &SparseMatrix,
    b: &Tensor,
    x: &mut Tensor,
    options: &SolveOptions,
) -> PyResult<Logger> {
    binding_call(matrix.device(), || {
        // dict -> JSON string -> tree, as the facade's Python layer does.
        let json = options.to_json()?;
        run_configured(matrix, b, x, &Config::from_json(&json)?)
    })
}

/// Solves `A x = b` with the pipeline described by a JSON configuration
/// *file* — the "typical use case" §5 describes (run-time solver selection
/// by editing a file, no recompilation).
pub fn solve_from_config_file(
    matrix: &SparseMatrix,
    b: &Tensor,
    x: &mut Tensor,
    path: impl AsRef<std::path::Path>,
) -> PyResult<Logger> {
    let text =
        std::fs::read_to_string(path.as_ref()).map_err(|e| PyGinkgoError::Os(e.to_string()))?;
    solve_with_config(matrix, b, x, &Config::from_json(&text)?)
}

/// Solves with an already-built configuration tree (the non-file variant of
/// [`solve_from_config_file`]; [`solve`] builds the tree from options).
pub fn solve_with_config(
    matrix: &SparseMatrix,
    b: &Tensor,
    x: &mut Tensor,
    cfg: &Config,
) -> PyResult<Logger> {
    binding_call(matrix.device(), || run_configured(matrix, b, x, cfg))
}

/// Convenience: solve with the default (Listing 2) configuration on a given
/// device.
pub fn solve_default(
    _device: &Device,
    matrix: &SparseMatrix,
    b: &Tensor,
    x: &mut Tensor,
) -> PyResult<Logger> {
    solve(matrix, b, x, &SolveOptions::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::device;
    use crate::tensor::as_tensor_fill;

    fn spd(dev: &Device, n: usize) -> SparseMatrix {
        let mut t = vec![];
        for i in 0..n {
            t.push((i, i, 4.0));
            if i > 0 {
                t.push((i, i - 1, -1.0));
                t.push((i - 1, i, -1.0));
            }
        }
        SparseMatrix::from_triplets(dev, (n, n), &t, "double", "int32", "Csr").unwrap()
    }

    #[test]
    fn default_options_produce_listing_2_json() {
        let json = SolveOptions::default().to_json().unwrap();
        assert!(json.contains("\"type\":\"solver::Gmres\""), "{json}");
        assert!(json.contains("\"krylov_dim\":30"));
        assert!(json.contains("\"type\":\"preconditioner::Jacobi\""));
        assert!(json.contains("\"max_block_size\":1"));
        assert!(json.contains("\"max_iters\":1000"));
        assert!(
            json.contains("\"reduction_factor\":1e-6")
                || json.contains("1e-06")
                || json.contains("0.000001"),
            "{json}"
        );
    }

    #[test]
    fn listing_2_pipeline_solves() {
        let dev = device("cuda").unwrap();
        let mtx = spd(&dev, 40);
        let b = as_tensor_fill(&dev, (40, 1), "double", 1.0).unwrap();
        let mut x = as_tensor_fill(&dev, (40, 1), "double", 0.0).unwrap();
        let log = solve_default(&dev, &mtx, &b, &mut x).unwrap();
        assert!(log.converged(), "{}", log.stop_reason());
        assert!(log.reduction() <= 1e-6);
    }

    #[test]
    fn config_path_matches_direct_bindings() {
        let dev = device("reference").unwrap();
        let mtx = spd(&dev, 30);
        let b = as_tensor_fill(&dev, (30, 1), "double", 1.0).unwrap();

        let mut x_cfg = as_tensor_fill(&dev, (30, 1), "double", 0.0).unwrap();
        let opts = SolveOptions {
            method: "cg".into(),
            preconditioner: None,
            ..SolveOptions::default()
        };
        solve(&mtx, &b, &mut x_cfg, &opts).unwrap();

        let mut x_direct = as_tensor_fill(&dev, (30, 1), "double", 0.0).unwrap();
        let solver = crate::solver::cg(&dev, &mtx, None, 1000, 1e-6).unwrap();
        solver.apply(&b, &mut x_direct).unwrap();

        for (a, c) in x_cfg.to_vec().iter().zip(x_direct.to_vec()) {
            assert!((a - c).abs() < 1e-12, "config {a} vs direct {c}");
        }
    }

    #[test]
    fn every_method_string_works() {
        let dev = device("reference").unwrap();
        let mtx = spd(&dev, 16);
        let b = as_tensor_fill(&dev, (16, 1), "double", 1.0).unwrap();
        for method in [
            "cg", "fcg", "cgs", "bicgstab", "minres", "gmres", "ir", "direct",
        ] {
            let mut x = as_tensor_fill(&dev, (16, 1), "double", 0.0).unwrap();
            let opts = SolveOptions {
                method: method.into(),
                // MINRES takes no preconditioner; the others get Jacobi.
                preconditioner: if method == "minres" {
                    None
                } else {
                    Some("jacobi".into())
                },
                ..SolveOptions::default()
            };
            let log = solve(&mtx, &b, &mut x, &opts);
            assert!(log.is_ok(), "{method}: {log:?}");
        }
    }

    #[test]
    fn bad_options_raise_value_errors() {
        let dev = device("reference").unwrap();
        let mtx = spd(&dev, 8);
        let b = as_tensor_fill(&dev, (8, 1), "double", 1.0).unwrap();
        let mut x = as_tensor_fill(&dev, (8, 1), "double", 0.0).unwrap();
        let opts = SolveOptions {
            method: "quantum".into(),
            ..SolveOptions::default()
        };
        assert!(matches!(
            solve(&mtx, &b, &mut x, &opts),
            Err(PyGinkgoError::Value(_))
        ));
        let opts = SolveOptions {
            preconditioner: Some("magic".into()),
            ..SolveOptions::default()
        };
        assert!(matches!(
            solve(&mtx, &b, &mut x, &opts),
            Err(PyGinkgoError::Value(_))
        ));

        // A present-but-mistyped parameter (a hand-edited config file) is a
        // ValueError naming the key, not a silent fall-back to the default.
        let gmres = SolveOptions::default().to_config().unwrap();
        let jacobi = |block: Config| {
            Config::map()
                .with("type", "preconditioner::Jacobi")
                .with("max_block_size", block)
        };
        let ir = Config::map().with("type", "solver::Ir");
        for (key, cfg) in [
            ("krylov_dim", gmres.clone().with("krylov_dim", "50")),
            ("krylov_dim", gmres.clone().with("krylov_dim", 30.5)),
            ("relaxation_factor", ir.with("relaxation_factor", "0.5")),
            (
                "max_block_size",
                gmres.with("preconditioner", jacobi("4".into())),
            ),
        ] {
            match solve_with_config(&mtx, &b, &mut x, &cfg) {
                Err(PyGinkgoError::Value(msg)) => assert!(msg.contains(key), "{msg}"),
                other => panic!("{key}: expected a ValueError, got {other:?}"),
            }
        }
    }

    #[test]
    fn preconditioner_none_string_disables() {
        let dev = device("reference").unwrap();
        let mtx = spd(&dev, 16);
        let b = as_tensor_fill(&dev, (16, 1), "double", 1.0).unwrap();
        let mut x = as_tensor_fill(&dev, (16, 1), "double", 0.0).unwrap();
        let opts = SolveOptions {
            preconditioner: Some("none".into()),
            ..SolveOptions::default()
        };
        assert!(solve(&mtx, &b, &mut x, &opts).unwrap().converged());
    }

    #[test]
    fn config_file_path_works_end_to_end() {
        let dev = device("reference").unwrap();
        let mtx = spd(&dev, 20);
        let b = as_tensor_fill(&dev, (20, 1), "double", 1.0).unwrap();
        let mut x = as_tensor_fill(&dev, (20, 1), "double", 0.0).unwrap();
        let dir = std::env::temp_dir().join("pyginkgo_cfg");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("solver.json");
        std::fs::write(&path, SolveOptions::default().to_json().unwrap()).unwrap();
        let log = solve_from_config_file(&mtx, &b, &mut x, &path).unwrap();
        assert!(log.converged());
        // Missing file -> OSError; malformed file -> ValueError.
        assert!(matches!(
            solve_from_config_file(&mtx, &b, &mut x, dir.join("nope.json")),
            Err(PyGinkgoError::Os(_))
        ));
        std::fs::write(&path, "{not json").unwrap();
        assert!(matches!(
            solve_from_config_file(&mtx, &b, &mut x, &path),
            Err(PyGinkgoError::Value(_))
        ));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn coo_matrix_is_converted_for_config_solve() {
        let dev = device("reference").unwrap();
        let mtx = spd(&dev, 16).convert("Coo").unwrap();
        let b = as_tensor_fill(&dev, (16, 1), "double", 1.0).unwrap();
        let mut x = as_tensor_fill(&dev, (16, 1), "double", 0.0).unwrap();
        assert!(solve_default(&dev, &mtx, &b, &mut x).unwrap().converged());
    }
}
