//! The linear operator abstraction (paper §4.2).
//!
//! Every matrix, solver, and preconditioner in the engine is a [`LinOp`]:
//! something with a size that can be applied to a dense block of vectors.
//! A matrix `apply` is an SpMV, a solver `apply` runs the iteration to solve
//! `A x = b`, and a preconditioner `apply` approximates `M^{-1} b`. The
//! single entry point is what makes solver pipelines composable — a solver
//! takes *any* `LinOp` as system operator and *any* `LinOp` as
//! preconditioner.

use crate::base::dim::Dim2;
use crate::base::error::{GkoError, Result};
use crate::base::types::Value;
use crate::executor::Executor;
use crate::log::OpTimer;
use crate::matrix::dense::Dense;
use std::sync::Arc;

/// A linear operator `Op: R^n -> R^m` applicable to dense vector blocks.
pub trait LinOp<V: Value>: Send + Sync {
    /// Operator size `(m, n)`.
    fn size(&self) -> Dim2;

    /// Executor the operator's data lives on.
    fn executor(&self) -> &Executor;

    /// Computes `x = Op(b)`.
    fn apply(&self, b: &Dense<V>, x: &mut Dense<V>) -> Result<()>;

    /// Computes `x = alpha * Op(b) + beta * x`.
    ///
    /// The default implementation materializes `Op(b)` in a temporary; matrix
    /// formats override it with fused kernels.
    fn apply_advanced(&self, alpha: V, b: &Dense<V>, beta: V, x: &mut Dense<V>) -> Result<()> {
        let mut tmp = Dense::zeros(x.executor(), x.size());
        self.apply(b, &mut tmp)?;
        x.scale(beta);
        x.add_scaled(alpha, &tmp)?;
        Ok(())
    }

    /// Short kind name for diagnostics (e.g. `"csr"`, `"solver::Cg"`).
    fn op_name(&self) -> &'static str {
        "linop"
    }
}

/// Validates the operands of `x = Op(b)` for an operator of size `op_size`
/// on `exec`: their shapes, and that `b` and `x` both live in `exec`'s
/// memory space. Every operator checks its operands through this.
pub fn check_operands<V: Value>(
    op_size: Dim2,
    exec: &Executor,
    b: &Dense<V>,
    x: &Dense<V>,
) -> Result<()> {
    if b.size().rows != op_size.cols
        || x.size().rows != op_size.rows
        || b.size().cols != x.size().cols
    {
        return Err(GkoError::DimensionMismatch {
            op: "apply",
            expected: Dim2::new(op_size.cols, x.size().cols),
            actual: b.size(),
        });
    }
    check_memory_space(exec, [b.executor(), x.executor()])
}

/// Fails with [`GkoError::ExecutorMismatch`] naming the first operand
/// executor outside `exec`'s memory space.
pub(crate) fn check_memory_space<'a>(
    exec: &Executor,
    operands: impl IntoIterator<Item = &'a Executor>,
) -> Result<()> {
    match operands.into_iter().find(|o| !exec.same_memory_space(o)) {
        Some(other) => Err(GkoError::ExecutorMismatch {
            left: exec.name().to_owned(),
            right: other.name().to_owned(),
        }),
        None => Ok(()),
    }
}

/// The identity operator (useful as a "no preconditioner" placeholder).
pub struct Identity {
    exec: Executor,
    size: Dim2,
}

impl Identity {
    /// Creates an `n x n` identity on `exec`.
    pub fn new(exec: &Executor, n: usize) -> Arc<Self> {
        Arc::new(Identity {
            exec: exec.clone(),
            size: Dim2::square(n),
        })
    }
}

impl<V: Value> LinOp<V> for Identity {
    fn size(&self) -> Dim2 {
        self.size
    }

    fn executor(&self) -> &Executor {
        &self.exec
    }

    fn apply(&self, b: &Dense<V>, x: &mut Dense<V>) -> Result<()> {
        check_operands(self.size, &self.exec, b, x)?;
        x.copy_from(b)
    }

    fn op_name(&self) -> &'static str {
        "identity"
    }
}

/// A scaled composition `alpha * A * B` of two operators, demonstrating
/// LinOp composability (Ginkgo's `Composition`).
pub struct Composition<V: Value> {
    first: Arc<dyn LinOp<V>>,
    second: Arc<dyn LinOp<V>>,
}

impl<V: Value> Composition<V> {
    /// Creates the operator `b -> first(second(b))`.
    ///
    /// Returns an error if the inner sizes are incompatible.
    pub fn new(first: Arc<dyn LinOp<V>>, second: Arc<dyn LinOp<V>>) -> Result<Arc<Self>> {
        if first.size().cols != second.size().rows {
            return Err(GkoError::DimensionMismatch {
                op: "composition",
                expected: Dim2::new(first.size().cols, second.size().cols),
                actual: second.size(),
            });
        }
        Ok(Arc::new(Composition { first, second }))
    }
}

impl<V: Value> LinOp<V> for Composition<V> {
    fn size(&self) -> Dim2 {
        Dim2::new(self.first.size().rows, self.second.size().cols)
    }

    fn executor(&self) -> &Executor {
        self.first.executor()
    }

    fn apply(&self, b: &Dense<V>, x: &mut Dense<V>) -> Result<()> {
        check_operands(self.size(), self.executor(), b, x)?;
        let _timer = OpTimer::new(self.executor(), "composition");
        let mut tmp = Dense::zeros(
            self.second.executor(),
            Dim2::new(self.second.size().rows, b.size().cols),
        );
        self.second.apply(b, &mut tmp)?;
        self.first.apply(&tmp, x)
    }

    fn op_name(&self) -> &'static str {
        "composition"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_copies_input() {
        let exec = Executor::reference();
        let id = Identity::new(&exec, 3);
        let b = Dense::from_rows(&exec, &[[1.0f64], [2.0], [3.0]]);
        let mut x = Dense::zeros(&exec, Dim2::new(3, 1));
        LinOp::<f64>::apply(&*id, &b, &mut x).unwrap();
        assert_eq!(x.to_host_vec(), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn identity_rejects_wrong_shapes() {
        let exec = Executor::reference();
        let id = Identity::new(&exec, 3);
        let b = Dense::<f64>::zeros(&exec, Dim2::new(4, 1));
        let mut x = Dense::<f64>::zeros(&exec, Dim2::new(3, 1));
        assert!(matches!(
            LinOp::<f64>::apply(&*id, &b, &mut x),
            Err(GkoError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn default_apply_advanced_combines() {
        let exec = Executor::reference();
        let id = Identity::new(&exec, 2);
        let b = Dense::from_rows(&exec, &[[1.0f64], [2.0]]);
        let mut x = Dense::from_rows(&exec, &[[10.0f64], [20.0]]);
        // x = 2*I*b + 3*x
        LinOp::<f64>::apply_advanced(&*id, 2.0, &b, 3.0, &mut x).unwrap();
        assert_eq!(x.to_host_vec(), vec![32.0, 64.0]);
    }

    #[test]
    fn composition_applies_in_order() {
        let exec = Executor::reference();
        let id1: Arc<dyn LinOp<f64>> = Identity::new(&exec, 2);
        let id2: Arc<dyn LinOp<f64>> = Identity::new(&exec, 2);
        let comp = Composition::new(id1, id2).unwrap();
        let b = Dense::from_rows(&exec, &[[5.0f64], [6.0]]);
        let mut x = Dense::zeros(&exec, Dim2::new(2, 1));
        comp.apply(&b, &mut x).unwrap();
        assert_eq!(x.to_host_vec(), vec![5.0, 6.0]);
        assert_eq!(comp.op_name(), "composition");
    }

    #[test]
    fn composition_size_mismatch_is_rejected() {
        let exec = Executor::reference();
        let id1: Arc<dyn LinOp<f64>> = Identity::new(&exec, 2);
        let id3: Arc<dyn LinOp<f64>> = Identity::new(&exec, 3);
        assert!(Composition::new(id1, id3).is_err());
    }
}
