//! Dependency-aware social sensing: model, estimator, and error bounds.
//!
//! This crate implements the primary contribution of *"On Source Dependency
//! Models for Reliable Social Sensing: Algorithms and Fundamental Error
//! Bounds"* (ICDCS 2016):
//!
//! * **The source behaviour model** ([`SourceParams`], [`Theta`]): each
//!   source is described by four probabilities — `a` / `b` (rates of making
//!   *independent* claims about true / false assertions) and `f` / `g` (the
//!   same for *dependent* claims, i.e. claims whose content an ancestor
//!   asserted first) — plus the global prior `z = P(C = 1)`.
//! * **The fundamental error bound** on assertion misclassification
//!   ([`exact_bound`], Eq. 3): the Bayes risk of the *optimal* estimator
//!   with perfect knowledge of `θ` and `D`, computed exactly by a pruned
//!   enumeration of the `2^n` claim patterns, and approximated scalably by
//!   Gibbs sampling ([`gibbs_bound`], Algorithm 1 / Eq. 6).
//! * **EM-Ext** ([`EmExt`]): the practical dependency-aware
//!   maximum-likelihood estimator (Algorithm 2, Eqs. 9–14) that jointly
//!   recovers `θ` and the per-assertion truth posterior from the
//!   source-claim matrix `SC` and dependency indicators `D` alone.
//!
//! Input data is carried by [`ClaimData`] (an `SC`/`D` pair, usually built
//! from a timestamped claim log via [`ClaimData::from_claims`]).
//!
//! # Quick start
//!
//! ```
//! use socsense_core::{ClaimData, EmConfig, EmExt};
//! use socsense_graph::{FollowerGraph, TimedClaim};
//!
//! // Three sources; source 0 follows source 1.
//! let mut g = FollowerGraph::new(3);
//! g.add_follow(0, 1);
//! let claims = vec![
//!     TimedClaim::new(1, 0, 1),
//!     TimedClaim::new(0, 0, 2), // dependent repeat
//!     TimedClaim::new(2, 1, 1),
//! ];
//! let data = ClaimData::from_claims(3, 2, &claims, &g);
//!
//! let fit = EmExt::new(EmConfig::default()).fit(&data)?;
//! assert_eq!(fit.posterior.len(), 2);
//! # Ok::<(), socsense_core::SenseError>(())
//! ```

// detlint: contract = deterministic
#![warn(missing_docs)]

pub mod bound;
mod cluster;
mod confidence;
mod data;
mod delta;
mod em;
mod error;
mod likelihood;
mod model;
pub mod state;
mod streaming;

pub use bound::{
    bound_for_assertions, bound_for_assertions_traced, bound_for_data, exact_bound,
    exact_bound_from_table, gibbs_bound, mismatched_decision_error, BoundMethod, BoundResult,
    GibbsConfig, GibbsEstimator, GibbsOutcome,
};
pub use cluster::{cluster_partition, ClusterMembers, ClusterTracker, ClusterUpdate, ClusterWorld};
pub use confidence::{confidence_report, ConfidenceReport, RateInterval, SourceConfidence};
pub use data::ClaimData;
pub use delta::{DeltaConfig, RefitMode, RefitOutcome};
pub use em::{EmConfig, EmExt, EmFit, InitStrategy};
pub use error::SenseError;
pub use likelihood::{
    assertion_posteriors, assertion_posteriors_with, data_log_likelihood_with, ColumnFit,
    LikelihoodTables,
};
pub use model::{classify, SourceParams, Theta};
pub use state::{DeltaEngineState, EmFitBits, StreamingState, ThetaBits};
pub use streaming::{RefitStats, StreamingEstimator};

// The parallelism knob these APIs take, re-exported for convenience.
pub use socsense_matrix::parallel::Parallelism;

// The metrics handle the instrumented APIs take, re-exported so callers
// need not depend on `socsense-obs` directly for the common case.
pub use socsense_obs::{MetricsSnapshot, Obs};
