//! **socsense** — dependency-aware social sensing.
//!
//! A full reproduction of *"On Source Dependency Models for Reliable
//! Social Sensing: Algorithms and Fundamental Error Bounds"* (ICDCS
//! 2016): the source behaviour model, the EM-Ext dependency-aware
//! fact-finder, the fundamental (Bayes-risk) error bound with its exact
//! and Gibbs evaluations, six baseline fact-finders, the paper's
//! synthetic evaluation substrate, a simulated Twitter substrate standing
//! in for the paper's 2015 datasets, and an Apollo-style end-to-end
//! pipeline.
//!
//! This crate is a facade: it re-exports the public API of the workspace
//! crates so applications can depend on `socsense` alone.
//!
//! # Crate map
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`core`] | `socsense-core` | model `θ`, [`core::EmExt`], exact & Gibbs bounds |
//! | [`baselines`] | `socsense-baselines` | EM, EM-Social, Voting, Sums, Average·Log, TruthFinder |
//! | [`synth`] | `socsense-synth` | Sec. V-A synthetic claim generator |
//! | [`twitter`] | `socsense-twitter` | simulated Twitter scenarios (Table III) |
//! | [`apollo`] | `socsense-apollo` | tweet clustering + ranking pipeline |
//! | [`discover`] | `socsense-discover` | dependency discovery: infer `D̂` from the claim log |
//! | [`serve`] | `socsense-serve` | long-lived query service over a streaming estimator |
//! | [`eval`] | `socsense-eval` | metrics, experiment runner, figure harnesses |
//! | [`graph`] | `socsense-graph` | follower graphs, dependency forests, `SC`/`D` construction |
//! | [`matrix`] | `socsense-matrix` | sparse binary matrices, log-probability helpers |
//!
//! # Quick start
//!
//! ```
//! use socsense::core::{classify, ClaimData, EmConfig, EmExt};
//! use socsense::graph::{FollowerGraph, TimedClaim};
//!
//! // Fig. 1 of the paper: John (0) follows Sally (1); Heather (2) is
//! // independent. John repeats Sally's claim -> dependent.
//! let mut g = FollowerGraph::new(3);
//! g.add_follow(0, 1);
//! let claims = vec![
//!     TimedClaim::new(1, 0, 1),
//!     TimedClaim::new(2, 1, 1),
//!     TimedClaim::new(0, 0, 2),
//!     TimedClaim::new(0, 1, 3),
//! ];
//! let data = ClaimData::from_claims(3, 2, &claims, &g);
//! let fit = EmExt::new(EmConfig::default()).fit(&data)?;
//! let labels = classify(&fit.posterior);
//! assert_eq!(labels.len(), 2);
//! # Ok::<(), socsense::core::SenseError>(())
//! ```

// detlint: contract = deterministic
#![warn(missing_docs)]

pub use socsense_apollo as apollo;
pub use socsense_baselines as baselines;
pub use socsense_core as core;
pub use socsense_discover as discover;
pub use socsense_eval as eval;
pub use socsense_graph as graph;
pub use socsense_matrix as matrix;
pub use socsense_serve as serve;
pub use socsense_synth as synth;
pub use socsense_twitter as twitter;
