//! Preconditioners (all of them `LinOp`s applying `z = M^{-1} r`).
//!
//! The paper's Listing 1 uses ILU with GMRES; Listing 2 configures scalar
//! Jacobi through the config solver. Available:
//!
//! * [`Jacobi`] — scalar (block size 1) and block Jacobi;
//! * [`Ilu`] — ILU(0) forward/backward triangular sweeps;
//! * [`Ic`] — IC(0) Cholesky sweeps for SPD systems.
//!
//! `Ilu` and `Ic` are aliases of one type, [`Incomplete`], which differ only
//! in the factorization whose factors they sweep.

pub mod ic;
pub mod ilu;
pub mod jacobi;

pub use ic::Ic;
pub use ilu::Ilu;
pub use jacobi::Jacobi;

use crate::base::dim::Dim2;
use crate::base::error::Result;
use crate::base::types::{Index, Value};
use crate::executor::Executor;
use crate::factorization::{ic0, ilu0};
use crate::linop::LinOp;
use crate::matrix::csr::Csr;
use crate::matrix::dense::Dense;
use crate::solver::triangular::{LowerTrs, UpperTrs};
use std::sync::Arc;

/// An incomplete-factorization preconditioner: a lower then an upper
/// triangular sweep, over ILU(0)'s factors ([`Ilu`]) or, with `CHOLESKY`,
/// over IC(0)'s factor and its transpose ([`Ic`]).
pub struct Incomplete<V: Value, I: Index, const CHOLESKY: bool> {
    lower: LowerTrs<V, I>,
    upper: UpperTrs<V, I>,
}

impl<V: Value, I: Index, const CHOLESKY: bool> Incomplete<V, I, CHOLESKY> {
    /// Factorizes `A` and generates the triangular sweeps, which keep what
    /// they sweep: the factors are freed on return.
    pub fn new(matrix: &Csr<V, I>) -> Result<Self> {
        let (lower, upper) = if CHOLESKY {
            let l = ic0(matrix)?;
            let lt = l.transpose();
            (LowerTrs::new(Arc::new(l))?, UpperTrs::new(Arc::new(lt))?)
        } else {
            let (l, u) = ilu0(matrix)?;
            let lower = LowerTrs::new(Arc::new(l))?.with_unit_diagonal();
            (lower, UpperTrs::new(Arc::new(u))?)
        };
        Ok(Incomplete { lower, upper })
    }
}

impl<V: Value, I: Index, const CHOLESKY: bool> LinOp<V> for Incomplete<V, I, CHOLESKY> {
    fn size(&self) -> Dim2 {
        self.lower.size()
    }

    fn executor(&self) -> &Executor {
        self.lower.executor()
    }

    /// The lower sweep checks the operands.
    fn apply(&self, b: &Dense<V>, x: &mut Dense<V>) -> Result<()> {
        self.lower.apply(b, x)?;
        self.upper.apply_in_place(x)
    }

    fn op_name(&self) -> &'static str {
        if CHOLESKY {
            "preconditioner::Ic"
        } else {
            "preconditioner::Ilu"
        }
    }
}
