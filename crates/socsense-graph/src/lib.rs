//! Follower / dependency graph substrate for the `socsense` workspace.
//!
//! The ICDCS 2016 dependency model hinges on *who can see whom*: a claim by
//! source `S_i` is **dependent** when one of `S_i`'s *ancestors* (accounts
//! `S_i` follows) asserted the same thing earlier. This crate provides:
//!
//! * [`FollowerGraph`] — the directed follow relation with forward
//!   (ancestor) and reverse (follower) adjacency;
//! * [`DependencyForest`] — the paper's Sec. V-A synthetic dependency
//!   structure: a forest of `τ` two-level trees over `n` sources;
//! * [`preferential_attachment`] — a heavy-tailed follower graph generator
//!   used by the simulated Twitter substrate;
//! * [`TimedClaim`] and [`build_matrices`] — the glue that turns a
//!   timestamped claim log plus a follower graph into the paper's
//!   source-claim matrix `SC` and dependency indicator matrix `D`.
//!
//! # Example
//!
//! Reproducing the paper's Fig. 1 walk-through (John follows Sally;
//! Sally tweets first, so John's repeat of her claim is dependent while
//! his other claim is independent):
//!
//! ```
//! use socsense_graph::{build_matrices, FollowerGraph, TimedClaim};
//!
//! // Sources: 0 = John, 1 = Sally, 2 = Heather. John follows Sally.
//! let mut g = FollowerGraph::new(3);
//! g.add_follow(0, 1);
//!
//! let claims = vec![
//!     TimedClaim::new(1, 0, 1), // Sally asserts C1 at t1
//!     TimedClaim::new(2, 1, 1), // Heather asserts C2 at t1
//!     TimedClaim::new(0, 0, 2), // John repeats C1 at t2 -> dependent
//!     TimedClaim::new(0, 1, 3), // John asserts C2 at t3 -> independent
//! ];
//! let (sc, d) = build_matrices(3, 2, &claims, &g);
//! assert!(sc.contains(0, 0) && sc.contains(0, 1));
//! assert!(d.contains(0, 0));   // D_{1,1} = 1 in the paper's numbering
//! assert!(!d.contains(0, 1));  // D_{1,2} = 0
//! ```

// detlint: contract = deterministic
#![warn(missing_docs)]

mod claims;
mod error;
mod follow;
mod forest;
mod prefattach;

pub use claims::{
    build_matrices, dependent_assertions, CellChange, CellState, ClaimLogIndex, TimedClaim,
};
pub use error::GraphError;
pub use follow::FollowerGraph;
pub use forest::DependencyForest;
pub use prefattach::preferential_attachment;
