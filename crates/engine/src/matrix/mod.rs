//! Matrix formats.
//!
//! The paper benchmarks CSR and COO (§6); Ginkgo additionally provides ELL
//! and sliced-ELL formats which we reproduce for completeness and for the
//! format-choice ablation benches, plus the 2-D convolution operator the
//! paper's outlook names as future work. All formats implement
//! [`LinOp`](crate::linop::LinOp) (their `apply` is an SpMV) and conversions
//! to/from [`Dense`] and each other.

pub mod batch;
pub mod conv;
pub mod coo;
pub mod csr;
pub mod dense;
pub mod diagonal;
pub mod ell;
pub mod hybrid;
pub(crate) mod order;
pub mod plan;
pub mod sellp;

pub use batch::{BatchCsr, BatchDense};
pub use conv::Conv2d;
pub use coo::Coo;
pub use csr::{Csr, SpmvStrategy};
pub use dense::Dense;
pub use diagonal::Diagonal;
pub use ell::Ell;
pub use hybrid::Hybrid;
pub use plan::{MergeSegment, PlanCacheStats, ResolvedStrategy, SpmvPlan};
pub use sellp::Sellp;
