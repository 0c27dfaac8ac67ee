//! Error handling for the engine.

use crate::base::dim::Dim2;
use std::fmt;

/// Errors produced by engine operations.
#[derive(Clone, Debug, PartialEq)]
pub enum GkoError {
    /// Operand sizes are incompatible for the requested operation.
    DimensionMismatch {
        /// Operation that was attempted (e.g. `"apply"`, `"dot"`).
        op: &'static str,
        /// Size the operation expected.
        expected: Dim2,
        /// Size that was supplied.
        actual: Dim2,
    },
    /// Structurally invalid input (unsorted indices, out-of-range column,
    /// inconsistent array lengths, ...).
    BadInput(String),
    /// Operands live on different executors and the operation does not copy
    /// implicitly.
    ExecutorMismatch {
        /// Executor of the first operand.
        left: String,
        /// Executor of the second operand.
        right: String,
    },
    /// Numerical breakdown: a pivot, rho, or denominator became zero or
    /// non-finite.
    Breakdown(&'static str),
    /// A matrix required by a factorization or direct solve is singular.
    Singular {
        /// Row/column at which singularity was detected. A triangular solve
        /// names the first row with a zero or missing diagonal in its sweep's
        /// direction (top down for `LowerTrs`, bottom up for `UpperTrs`),
        /// whatever order it visits the rows in.
        at: usize,
    },
    /// Feature not supported by this build (e.g. unknown config key).
    Unsupported(String),
    /// Configuration tree could not be interpreted.
    InvalidConfig(String),
}

impl fmt::Display for GkoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GkoError::DimensionMismatch {
                op,
                expected,
                actual,
            } => write!(
                f,
                "dimension mismatch in {op}: expected {expected}, got {actual}"
            ),
            GkoError::BadInput(msg) => write!(f, "bad input: {msg}"),
            GkoError::ExecutorMismatch { left, right } => {
                write!(f, "executor mismatch: {left} vs {right}")
            }
            GkoError::Breakdown(what) => write!(f, "numerical breakdown in {what}"),
            GkoError::Singular { at } => write!(f, "singular matrix (zero pivot at {at})"),
            GkoError::Unsupported(what) => write!(f, "unsupported: {what}"),
            GkoError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
        }
    }
}

impl std::error::Error for GkoError {}

/// Convenience alias used throughout the engine.
pub type Result<T> = std::result::Result<T, GkoError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = GkoError::DimensionMismatch {
            op: "apply",
            expected: Dim2::new(3, 1),
            actual: Dim2::new(4, 1),
        };
        assert_eq!(
            e.to_string(),
            "dimension mismatch in apply: expected (3 x 1), got (4 x 1)"
        );
        assert!(GkoError::Singular { at: 7 }.to_string().contains('7'));
        assert!(GkoError::Breakdown("cg rho").to_string().contains("cg rho"));
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&GkoError::BadInput("x".into()));
    }
}
