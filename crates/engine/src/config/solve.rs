//! The config-solver factory: builds solver pipelines from config trees.
//!
//! Mirrors Ginkgo's `config::parse` + `LinOpFactory::generate`: the tree
//! selects the solver type, its parameters, its stopping criteria, and an
//! optional preconditioner; `config_solve` instantiates the whole pipeline
//! against a concrete matrix. The facade's `solve()` builds these trees from
//! keyword arguments (Listing 2).

use crate::base::error::{GkoError, Result};
use crate::base::types::{Index, Value};
use crate::config::Config;
use crate::linop::LinOp;
use crate::log::ConvergenceLogger;
use crate::matrix::csr::Csr;
use crate::preconditioner::{Ic, Ilu, Jacobi};
use crate::solver::{iterative_by_name, Direct};
use crate::stop::Criteria;
use std::sync::Arc;

/// A solver built by the config factory: the operator plus its logger.
pub struct ConfiguredSolver<V: Value> {
    /// The solver, usable like any other operator.
    pub op: Arc<dyn LinOp<V>>,
    /// Logger attached to the solver (empty for direct solvers).
    pub logger: ConvergenceLogger,
}

/// Reads optional key `key`; when present it must hold what `read` accepts
/// (`what`, for the error), not silently fall back to the default.
fn optional<T>(
    config: &Config,
    key: &str,
    read: fn(&Config) -> Option<T>,
    what: &str,
) -> Result<Option<T>> {
    let value = config
        .get(key)
        .map(|v| read(v).ok_or_else(|| GkoError::InvalidConfig(format!("'{key}' must be {what}"))));
    value.transpose()
}

/// Reads optional key `key` as a positive integer.
fn optional_positive(config: &Config, key: &str) -> Result<Option<usize>> {
    let Some(n) = optional(config, key, Config::as_int, "an integer")? else {
        return Ok(None);
    };
    match usize::try_from(n) {
        Ok(n) if n > 0 => Ok(Some(n)),
        _ => Err(GkoError::InvalidConfig(format!("'{key}' must be positive"))),
    }
}

/// Parses the `criteria` array of a config tree.
pub(crate) fn parse_criteria(config: &Config) -> Result<Criteria> {
    let mut criteria = Criteria {
        max_iters: usize::MAX,
        reduction_factor: None,
        abs_tolerance: None,
    };
    let Some(list) = config.get("criteria") else {
        return Ok(Criteria::default());
    };
    let items = list
        .as_array()
        .ok_or_else(|| GkoError::InvalidConfig("'criteria' must be an array".into()))?;
    for item in items {
        let ty = item
            .require("type")?
            .as_str()
            .ok_or_else(|| GkoError::InvalidConfig("criterion 'type' must be a string".into()))?;
        match ty {
            "Iteration" => {
                let n = item.require("max_iters")?.as_int().ok_or_else(|| {
                    GkoError::InvalidConfig("'max_iters' must be an integer".into())
                })?;
                criteria.max_iters = usize::try_from(n).map_err(|_| {
                    GkoError::InvalidConfig("'max_iters' must be non-negative".into())
                })?;
            }
            "ResidualNorm" => {
                let f = item
                    .require("reduction_factor")?
                    .as_float()
                    .ok_or_else(|| {
                        GkoError::InvalidConfig("'reduction_factor' must be a number".into())
                    })?;
                criteria.reduction_factor = Some(f);
            }
            "AbsoluteResidualNorm" => {
                let f = item.require("tolerance")?.as_float().ok_or_else(|| {
                    GkoError::InvalidConfig("'tolerance' must be a number".into())
                })?;
                criteria.abs_tolerance = Some(f);
            }
            other => {
                return Err(GkoError::InvalidConfig(format!(
                    "unknown criterion type '{other}'"
                )))
            }
        }
    }
    if criteria.max_iters == usize::MAX
        && criteria.reduction_factor.is_none()
        && criteria.abs_tolerance.is_none()
    {
        return Ok(Criteria::default());
    }
    Ok(criteria)
}

/// Builds the preconditioner named in the config (if any).
pub(crate) fn build_preconditioner<V: Value, I: Index>(
    matrix: &Arc<Csr<V, I>>,
    config: &Config,
) -> Result<Option<Arc<dyn LinOp<V>>>> {
    let Some(sub) = config.get("preconditioner") else {
        return Ok(None);
    };
    if matches!(sub, Config::Null) {
        return Ok(None);
    }
    let ty = sub
        .require("type")?
        .as_str()
        .ok_or_else(|| GkoError::InvalidConfig("preconditioner 'type' must be a string".into()))?;
    let op: Arc<dyn LinOp<V>> = match ty {
        "preconditioner::Jacobi" => {
            let block = optional_positive(sub, "max_block_size")?.unwrap_or(1);
            Arc::new(Jacobi::with_block_size(matrix, block)?)
        }
        "preconditioner::Ilu" => Arc::new(Ilu::new(matrix)?),
        "preconditioner::Ic" => Arc::new(Ic::new(matrix)?),
        other => {
            return Err(GkoError::InvalidConfig(format!(
                "unknown preconditioner type '{other}'"
            )))
        }
    };
    Ok(Some(op))
}

/// Instantiates the solver pipeline described by `config` for `matrix`.
pub fn config_solve<V: Value, I: Index>(
    matrix: Arc<Csr<V, I>>,
    config: &Config,
) -> Result<ConfiguredSolver<V>> {
    let ty = config
        .require("type")?
        .as_str()
        .ok_or_else(|| GkoError::InvalidConfig("solver 'type' must be a string".into()))?;
    let criteria = parse_criteria(config)?;
    let precond = build_preconditioner(&matrix, config)?;
    let krylov_dim = optional_positive(config, "krylov_dim")?;
    let relaxation = optional(config, "relaxation_factor", Config::as_float, "a number")?;
    let (op, logger) = match ty {
        "solver::Direct" => (
            Arc::new(Direct::new(&matrix)?) as Arc<dyn LinOp<V>>,
            ConvergenceLogger::new(),
        ),
        _ => iterative_by_name(ty, matrix, criteria, precond, krylov_dim, relaxation)?,
    };
    Ok(ConfiguredSolver { op, logger })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::base::dim::Dim2;
    use crate::executor::Executor;
    use crate::matrix::dense::Dense;

    fn system(exec: &Executor, n: usize) -> Arc<Csr<f64, i32>> {
        let mut t = vec![];
        for i in 0..n {
            t.push((i, i, 4.0));
            if i > 0 {
                t.push((i, i - 1, -1.0));
                t.push((i - 1, i, -1.0));
            }
        }
        Arc::new(Csr::from_triplets(exec, Dim2::square(n), &t).unwrap())
    }

    fn listing_2_config() -> Config {
        Config::from_json(
            r#"{
                "type": "solver::Gmres",
                "krylov_dim": 30,
                "preconditioner": {"type": "preconditioner::Jacobi", "max_block_size": 1},
                "criteria": [
                    {"type": "Iteration", "max_iters": 1000},
                    {"type": "ResidualNorm", "reduction_factor": 1e-06}
                ]
            }"#,
        )
        .unwrap()
    }

    #[test]
    fn builds_and_solves_listing_2_pipeline() {
        let exec = Executor::reference();
        let a = system(&exec, 50);
        let solver = config_solve(a.clone(), &listing_2_config()).unwrap();
        let b = Dense::<f64>::vector(&exec, 50, 1.0);
        let mut x = Dense::<f64>::vector(&exec, 50, 0.0);
        solver.op.apply(&b, &mut x).unwrap();
        let rec = solver.logger.snapshot();
        assert!(rec.converged(), "{:?}", rec.stop_reason);
        assert!(rec.final_residual <= 1e-6 * rec.initial_residual);
    }

    /// The largest restart the config accepts solves, as any restart the
    /// solve never reaches does: GMRES sizes its cycle by the columns it has,
    /// not by the configured dimension.
    #[test]
    fn a_huge_krylov_dim_solves_like_a_restart_never_reached() {
        let exec = Executor::reference();
        let a = system(&exec, 50);
        let b = Dense::<f64>::vector(&exec, 50, 1.0);
        let solve = |dim: &str| {
            let cfg = Config::from_json(&format!(
                r#"{{"type": "solver::Gmres", "krylov_dim": {dim},
                    "criteria": [{{"type": "ResidualNorm", "reduction_factor": 1e-10}}]}}"#
            ))
            .unwrap();
            let solver = config_solve(a.clone(), &cfg).unwrap();
            let mut x = Dense::<f64>::vector(&exec, 50, 0.0);
            solver.op.apply(&b, &mut x).unwrap();
            let rec = solver.logger.snapshot();
            assert!(rec.converged(), "krylov_dim {dim}: {:?}", rec.stop_reason);
            (
                rec.iterations,
                x.to_host_vec()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>(),
            )
        };
        let huge = solve(&i64::MAX.to_string());
        assert!(huge.0 < 100);
        assert_eq!(huge, solve("100"));
    }

    #[test]
    fn every_krylov_solver_is_constructible() {
        let exec = Executor::reference();
        let a = system(&exec, 20);
        for ty in [
            "solver::Cg",
            "solver::Fcg",
            "solver::Cgs",
            "solver::Bicgstab",
            "solver::Minres",
            "solver::Gmres",
        ] {
            let cfg = Config::map().with("type", ty).with(
                "criteria",
                vec![Config::map()
                    .with("type", "ResidualNorm")
                    .with("reduction_factor", 1e-8)],
            );
            let solver = config_solve(a.clone(), &cfg).unwrap();
            let b = Dense::<f64>::vector(&exec, 20, 1.0);
            let mut x = Dense::<f64>::vector(&exec, 20, 0.0);
            solver.op.apply(&b, &mut x).unwrap();
            assert!(
                solver.logger.snapshot().converged(),
                "{ty} failed to converge"
            );
        }
    }

    #[test]
    fn direct_solver_via_config() {
        let exec = Executor::reference();
        let a = system(&exec, 10);
        let cfg = Config::map().with("type", "solver::Direct");
        let solver = config_solve(a.clone(), &cfg).unwrap();
        let x_true = Dense::<f64>::vector(&exec, 10, 2.0);
        let mut b = Dense::zeros(&exec, Dim2::new(10, 1));
        a.apply(&x_true, &mut b).unwrap();
        let mut x = Dense::zeros(&exec, Dim2::new(10, 1));
        solver.op.apply(&b, &mut x).unwrap();
        for (got, want) in x.to_host_vec().iter().zip(x_true.to_host_vec()) {
            assert!((got - want).abs() < 1e-10);
        }
    }

    #[test]
    fn ilu_and_ic_preconditioners_via_config() {
        let exec = Executor::reference();
        let a = system(&exec, 30);
        for p in ["preconditioner::Ilu", "preconditioner::Ic"] {
            let cfg = Config::map()
                .with("type", "solver::Cg")
                .with("preconditioner", Config::map().with("type", p))
                .with(
                    "criteria",
                    vec![Config::map()
                        .with("type", "ResidualNorm")
                        .with("reduction_factor", 1e-10)],
                );
            let solver = config_solve(a.clone(), &cfg).unwrap();
            let b = Dense::<f64>::vector(&exec, 30, 1.0);
            let mut x = Dense::<f64>::vector(&exec, 30, 0.0);
            solver.op.apply(&b, &mut x).unwrap();
            assert!(solver.logger.snapshot().converged(), "{p}");
        }
    }

    #[test]
    fn unknown_types_are_informative_errors() {
        let exec = Executor::reference();
        let a = system(&exec, 5);
        let cfg = Config::map().with("type", "solver::Quantum");
        let err = match config_solve(a.clone(), &cfg) {
            Err(e) => e,
            Ok(_) => panic!("unknown solver type must fail"),
        };
        assert!(err.to_string().contains("solver::Quantum"));

        let cfg = Config::map().with("type", "solver::Cg").with(
            "preconditioner",
            Config::map().with("type", "preconditioner::Magic"),
        );
        assert!(config_solve(a, &cfg).is_err());
    }

    #[test]
    fn missing_type_is_an_error() {
        let exec = Executor::reference();
        let a = system(&exec, 5);
        assert!(config_solve(a, &Config::map()).is_err());
    }

    #[test]
    fn bad_criteria_are_rejected() {
        let exec = Executor::reference();
        let a = system(&exec, 5);
        let cfg = Config::map()
            .with("type", "solver::Cg")
            .with("criteria", vec![Config::map().with("type", "Wormhole")]);
        assert!(config_solve(a.clone(), &cfg).is_err());

        let cfg = Config::map()
            .with("type", "solver::Cg")
            .with("criteria", Config::Str("nope".into()));
        assert!(config_solve(a, &cfg).is_err());
    }

    #[test]
    fn mistyped_parameters_are_rejected_naming_the_key() {
        let exec = Executor::reference();
        let a = system(&exec, 5);
        let jacobi = |block: Config| {
            Config::map()
                .with("type", "preconditioner::Jacobi")
                .with("max_block_size", block)
        };
        let cases = [
            (
                "krylov_dim",
                Config::map()
                    .with("type", "solver::Gmres")
                    .with("krylov_dim", "50"),
            ),
            (
                "krylov_dim",
                Config::map()
                    .with("type", "solver::Gmres")
                    .with("krylov_dim", 30.5),
            ),
            (
                "krylov_dim",
                Config::map()
                    .with("type", "solver::Gmres")
                    .with("krylov_dim", 0usize),
            ),
            (
                "relaxation_factor",
                Config::map()
                    .with("type", "solver::Ir")
                    .with("relaxation_factor", "0.5"),
            ),
            (
                "max_block_size",
                Config::map()
                    .with("type", "solver::Cg")
                    .with("preconditioner", jacobi(Config::Str("2".into()))),
            ),
            (
                "max_block_size",
                Config::map()
                    .with("type", "solver::Cg")
                    .with("preconditioner", jacobi(Config::Float(1.5))),
            ),
        ];
        for (key, cfg) in cases {
            match config_solve(a.clone(), &cfg) {
                Err(GkoError::InvalidConfig(msg)) => {
                    assert!(msg.contains(key), "{msg} should name {key}")
                }
                Err(other) => panic!("{key}: expected InvalidConfig, got {other}"),
                Ok(_) => panic!("{key}: a mistyped value must not fall back to the default"),
            }
        }
        // Well-typed values still pass, integers widening to floats.
        let cfg = Config::map()
            .with("type", "solver::Ir")
            .with("relaxation_factor", 1usize);
        assert!(config_solve(a, &cfg).is_ok());
    }

    #[test]
    fn minres_rejects_a_preconditioner_itself() {
        let exec = Executor::reference();
        let a = system(&exec, 5);
        let cfg = Config::map().with("type", "solver::Minres").with(
            "preconditioner",
            Config::map().with("type", "preconditioner::Jacobi"),
        );
        let err = config_solve(a, &cfg)
            .err()
            .expect("MINRES takes no preconditioner");
        assert!(matches!(err, GkoError::Unsupported(_)), "{err}");
        assert!(err.to_string().contains("solver::Minres"), "{err}");
    }

    #[test]
    fn null_preconditioner_means_none() {
        let exec = Executor::reference();
        let a = system(&exec, 5);
        let cfg = Config::map()
            .with("type", "solver::Cg")
            .with("preconditioner", Config::Null);
        assert!(config_solve(a, &cfg).is_ok());
    }
}
