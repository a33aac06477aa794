//! Matrix and numeric substrate for the `socsense` workspace.
//!
//! The social-sensing kernels in this workspace operate on two kinds of data:
//!
//! * **Binary incidence matrices** — the source-claim matrix `SC` and the
//!   dependency indicator matrix `D` from the ICDCS 2016 paper. Both are
//!   extremely sparse at Twitter scale (tens of thousands of sources and
//!   assertions, but only on the order of one claim per source), so the
//!   workhorse type is [`SparseBinaryMatrix`]: an immutable CSR + CSC dual
//!   index built once from an entry list via [`SparseBinaryMatrixBuilder`].
//!
//! On top of that live two numeric helpers used throughout the estimator
//! and bound code: [`logprob`] (log-space probability arithmetic, so that
//! products over hundreds of Bernoulli factors never underflow) and
//! [`FixedBitSet`] (compact claim-pattern bit sets for the exact-bound
//! enumerator and the Gibbs sampler state).
//!
//! # Example
//!
//! ```
//! use socsense_matrix::SparseBinaryMatrixBuilder;
//!
//! // Source 0 claims assertions {0, 2}; source 1 claims {2}.
//! let mut b = SparseBinaryMatrixBuilder::new(2, 3);
//! b.insert(0, 0);
//! b.insert(0, 2);
//! b.insert(1, 2);
//! let sc = b.build();
//!
//! assert!(sc.contains(0, 2));
//! assert_eq!(sc.col(2), &[0, 1]);
//! assert_eq!(sc.nnz(), 3);
//! ```

// detlint: contract = deterministic
#![warn(missing_docs)]

mod bitset;
pub mod logprob;
pub mod parallel;
mod sparse;
mod unionfind;

pub use bitset::FixedBitSet;
pub use parallel::Parallelism;
pub use sparse::{EntriesIter, SparseBinaryMatrix, SparseBinaryMatrixBuilder};
pub use unionfind::UnionFind;
