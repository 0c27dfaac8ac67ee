//! Incomplete and complete factorizations.
//!
//! * [`ilu0`](ilu0::ilu0) — ILU(0): LU restricted to the sparsity pattern of
//!   `A`, producing a unit-lower `L` and upper `U` (backs the
//!   [`Ilu`](crate::preconditioner::ilu::Ilu) preconditioner of Listing 1).
//! * [`ic0`](ic0::ic0) — IC(0): incomplete Cholesky for SPD matrices (backs
//!   the `Ic` preconditioner).
//! * [`DenseLu`] — dense LU with partial pivoting (backs the
//!   [`Direct`](crate::solver::direct::Direct) solver binding).

pub mod ic0;
pub mod ilu0;
pub mod lu;

pub use ic0::ic0;
pub use ilu0::ilu0;
pub use lu::DenseLu;
