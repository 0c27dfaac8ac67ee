//! The generic solver entry point ("config solver", paper §5).
//!
//! Ginkgo can build any solver/preconditioner pipeline from a configuration
//! tree supplied as JSON (or constructed programmatically). pyGinkgo builds
//! that tree from a Python dictionary (Listing 2) and hands it over without
//! touching disk. This module provides:
//!
//! * [`Config`] — the configuration value tree;
//! * [`json`] — a from-scratch JSON parser/serializer (no external crates);
//! * [`solve`] — the factory that instantiates engine solvers from a tree.

pub mod json;
pub mod solve;

pub use solve::{config_solve, ConfiguredSolver};

use crate::base::error::{GkoError, Result};
use std::collections::BTreeMap;
use std::fmt;

/// A configuration value (JSON data model).
#[derive(Clone, Debug, PartialEq)]
pub enum Config {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// JSON integer (kept separate from floats so iteration counts stay
    /// exact).
    Int(i64),
    /// JSON floating point number.
    Float(f64),
    /// JSON string.
    Str(String),
    /// JSON array.
    Array(Vec<Config>),
    /// JSON object with deterministic (sorted) key order.
    Map(BTreeMap<String, Config>),
}

impl Config {
    /// Creates an empty object.
    pub fn map() -> Config {
        Config::Map(BTreeMap::new())
    }

    /// Builder-style insertion; panics if `self` is not a map (programming
    /// error, analogous to Python raising on attribute access).
    pub fn with(mut self, key: &str, value: impl Into<Config>) -> Config {
        match &mut self {
            Config::Map(m) => {
                m.insert(key.to_owned(), value.into());
            }
            _ => panic!("Config::with on a non-map"),
        }
        self
    }

    /// Looks a key up in an object.
    pub fn get(&self, key: &str) -> Option<&Config> {
        match self {
            Config::Map(m) => m.get(key),
            _ => None,
        }
    }

    /// String accessor.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Config::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Integer accessor (floats with integral value also qualify).
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Config::Int(v) => Some(*v),
            Config::Float(f) if f.fract() == 0.0 => Some(*f as i64),
            _ => None,
        }
    }

    /// Float accessor (integers widen).
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Config::Float(v) => Some(*v),
            Config::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// Array accessor.
    pub fn as_array(&self) -> Option<&[Config]> {
        match self {
            Config::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Required-field accessor with a config-error message.
    pub(crate) fn require(&self, key: &str) -> Result<&Config> {
        self.get(key)
            .ok_or_else(|| GkoError::InvalidConfig(format!("missing required key '{key}'")))
    }

    /// Serializes to a JSON string.
    pub fn to_json(&self) -> String {
        json::to_string(self)
    }

    /// Parses a JSON string.
    pub fn from_json(text: &str) -> Result<Config> {
        json::parse(text)
    }
}

impl fmt::Display for Config {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_json())
    }
}

impl From<bool> for Config {
    fn from(v: bool) -> Config {
        Config::Bool(v)
    }
}
impl From<i64> for Config {
    fn from(v: i64) -> Config {
        Config::Int(v)
    }
}
impl From<usize> for Config {
    fn from(v: usize) -> Config {
        Config::Int(v as i64)
    }
}
impl From<f64> for Config {
    fn from(v: f64) -> Config {
        Config::Float(v)
    }
}
impl From<&str> for Config {
    fn from(v: &str) -> Config {
        Config::Str(v.to_owned())
    }
}
impl From<String> for Config {
    fn from(v: String) -> Config {
        Config::Str(v)
    }
}
impl From<Vec<Config>> for Config {
    fn from(v: Vec<Config>) -> Config {
        Config::Array(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_constructs_listing_2_shape() {
        let cfg = Config::map()
            .with("type", "solver::Gmres")
            .with("krylov_dim", 30usize)
            .with(
                "preconditioner",
                Config::map()
                    .with("type", "preconditioner::Jacobi")
                    .with("max_block_size", 1usize),
            )
            .with(
                "criteria",
                vec![
                    Config::map()
                        .with("type", "Iteration")
                        .with("max_iters", 1000usize),
                    Config::map()
                        .with("type", "ResidualNorm")
                        .with("reduction_factor", 1e-6),
                ],
            );
        assert_eq!(cfg.get("type").unwrap().as_str(), Some("solver::Gmres"));
        assert_eq!(cfg.get("krylov_dim").unwrap().as_int(), Some(30));
        let crit = cfg.get("criteria").unwrap().as_array().unwrap();
        assert_eq!(crit.len(), 2);
        assert_eq!(
            cfg.get("preconditioner")
                .unwrap()
                .get("max_block_size")
                .unwrap()
                .as_int(),
            Some(1)
        );
    }

    #[test]
    fn accessors_coerce_sensibly() {
        assert_eq!(Config::Int(3).as_float(), Some(3.0));
        assert_eq!(Config::Float(3.0).as_int(), Some(3));
        assert_eq!(Config::Float(3.5).as_int(), None);
        assert_eq!(Config::Str("x".into()).as_int(), None);
    }

    #[test]
    fn require_reports_missing_keys() {
        let cfg = Config::map();
        let err = cfg.require("type").unwrap_err();
        assert!(err.to_string().contains("type"));
    }

    #[test]
    #[should_panic(expected = "non-map")]
    fn with_on_scalar_panics() {
        let _ = Config::Int(1).with("x", 2i64);
    }
}
