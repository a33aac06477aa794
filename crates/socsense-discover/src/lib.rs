// detlint: contract = deterministic
//! Dependency discovery: infer the source-dependency graph `D̂` from a
//! timestamped claim log alone.
//!
//! The paper's EM-Ext assumes the dependency matrix `D` is *given*
//! (follower graph + retweet timestamps). In a real deployment it is
//! not. This crate recovers a sparse directed dependency graph from the
//! claim log via three composable signal extractors, each a z-score
//! against an explicit null model:
//!
//! 1. **Copy-lag signatures** — a who-spoke-first sign test plus a
//!    windowed lag count tested against a permutation null that re-pairs
//!    the two sources' claim times (destroying per-assertion alignment
//!    while preserving both marginal time distributions);
//! 2. **Co-occurrence lift** — shared-claim count against a
//!    uniform-random-subset independence null over the active columns;
//! 3. **Error correlation** — the same lift restricted to *rare*
//!    assertions (support at or below a quantile cutoff), because
//!    agreement on claims almost nobody makes is far stronger dependence
//!    evidence than agreement on popular, probably-true ones.
//!
//! Scores combine linearly and a fixed-order acceptance pass with a
//! marginal-coverage rule emits a [`Discovery`] whose
//! [`FollowerGraph`](socsense_graph::FollowerGraph) plugs straight into
//! `ClaimData::from_claims`. Scoring is parallel over candidate pairs
//! using the workspace's fixed-chunk helpers; every per-pair computation
//! is a pure function of the immutable profile + config, so results are
//! bit-identical at every thread count. See `DESIGN.md` §13.

#![warn(missing_docs)]

mod config;
mod discover;
mod profile;
mod quality;
mod signals;

pub use config::{DiscoverConfig, DiscoverError, LagWindow};
pub use discover::{
    discover_dependencies, discover_dependencies_par, discover_dependencies_traced, DiscoverStats,
    DiscoveredEdge, Discovery,
};
pub use quality::{edge_quality, EdgeQuality};
