//! Python-exception-flavoured errors.
//!
//! pybind11 translates C++ exceptions into Python exceptions; this module is
//! the analog. Engine errors are wrapped with the exception class a Python
//! user would see (`TypeError` for dtype mismatches, `ValueError` for bad
//! arguments, `RuntimeError` for numerical failures).

use gko::GkoError;
use std::fmt;

/// Facade-level error with a Python exception class.
#[derive(Clone, Debug, PartialEq)]
pub enum PyGinkgoError {
    /// Mismatched or unknown dtypes/argument types (`TypeError`).
    Type(String),
    /// Invalid argument values — shapes, names, ranges (`ValueError`).
    Value(String),
    /// Numerical or engine failures (`RuntimeError`).
    Runtime(String),
    /// File IO problems (`OSError`).
    Os(String),
}

impl fmt::Display for PyGinkgoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PyGinkgoError::Type(m) => write!(f, "TypeError: {m}"),
            PyGinkgoError::Value(m) => write!(f, "ValueError: {m}"),
            PyGinkgoError::Runtime(m) => write!(f, "RuntimeError: {m}"),
            PyGinkgoError::Os(m) => write!(f, "OSError: {m}"),
        }
    }
}

impl std::error::Error for PyGinkgoError {}

impl From<GkoError> for PyGinkgoError {
    fn from(e: GkoError) -> Self {
        match &e {
            GkoError::DimensionMismatch { .. } | GkoError::BadInput(_) => {
                PyGinkgoError::Value(e.to_string())
            }
            GkoError::ExecutorMismatch { .. } => PyGinkgoError::Value(e.to_string()),
            GkoError::Breakdown(_) | GkoError::Singular { .. } => {
                PyGinkgoError::Runtime(e.to_string())
            }
            GkoError::Unsupported(_) | GkoError::InvalidConfig(_) => {
                PyGinkgoError::Value(e.to_string())
            }
        }
    }
}

/// Facade result alias.
pub type PyResult<T> = Result<T, PyGinkgoError>;

#[cfg(test)]
mod tests {
    use super::*;
    use gko::Dim2;

    #[test]
    fn display_uses_python_exception_names() {
        assert!(PyGinkgoError::Type("x".into())
            .to_string()
            .starts_with("TypeError"));
        assert!(PyGinkgoError::Value("x".into())
            .to_string()
            .starts_with("ValueError"));
        assert!(PyGinkgoError::Runtime("x".into())
            .to_string()
            .starts_with("RuntimeError"));
        assert!(PyGinkgoError::Os("x".into())
            .to_string()
            .starts_with("OSError"));
    }

    #[test]
    fn engine_errors_map_to_sensible_exceptions() {
        let dim = GkoError::DimensionMismatch {
            op: "apply",
            expected: Dim2::new(2, 1),
            actual: Dim2::new(3, 1),
        };
        assert!(matches!(PyGinkgoError::from(dim), PyGinkgoError::Value(_)));
        assert!(matches!(
            PyGinkgoError::from(GkoError::Breakdown("cg")),
            PyGinkgoError::Runtime(_)
        ));
        assert!(matches!(
            PyGinkgoError::from(GkoError::Singular { at: 0 }),
            PyGinkgoError::Runtime(_)
        ));
        assert!(matches!(
            PyGinkgoError::from(GkoError::InvalidConfig("x".into())),
            PyGinkgoError::Value(_)
        ));
    }
}
