//! Warm-state-safe serving: a channel-based query service over one
//! shared [`EmFit`](socsense_core::EmFit).
//!
//! During a live event many consumers want the *current* truth
//! posterior, the source-reliability ranking, and the Bayes-risk bound —
//! without each of them refitting EM from scratch. [`QueryService`]
//! owns a single [`StreamingEstimator`](socsense_core::StreamingEstimator)
//! on a dedicated worker thread and serves typed requests — ingest,
//! posterior, top-sources, bound, stats, shutdown — to any number of
//! concurrent [`ServeHandle`] clients over a std `mpsc` channel. No
//! async runtime, no locks, no network dependency: the same std-only
//! discipline as the repo's parallel layer.
//!
//! # Why a channel worker instead of a lock around the fit
//!
//! A refit *mutates* warm-start state, and which state it reads must not
//! depend on which client happened to grab a lock first. Funnelling
//! every request through one owner serializes refits by construction,
//! removes lock-poisoning from the failure model, and gives shutdown a
//! natural semantics (drain the queue, then join). Clients pay one
//! channel round trip — negligible next to an EM iteration.
//!
//! # Refit policy: every ingest refits, no read fits
//!
//! Each `Ingest` that leaves claims pending advances the warm-start
//! chain once before it is acked: a refit (full, or scoped under
//! [`ServeConfig::refit_mode`]) whose `θ̂` becomes the next warm start.
//! Reads — posterior, top-sources, bound, stats —
//! answer from the newest chain fit and never run EM; before the first
//! refit they answer the neutral prior (posterior `0.5`, source
//! parameters `0.5` under prior `0.5`, the coin-flip bound). A refit
//! that fails leaves its claims ingested, and reads keep serving the
//! last good fit.
//!
//! Because only ingest moves the chain, **every served number is a pure
//! function of the ingest sequence and the query parameters** —
//! byte-identical no matter how many clients query concurrently, or
//! when. The service integration tests pin exactly this.
//!
//! # Scaling out: the sharded tier
//!
//! [`ShardedService`] serves the same request surface from a router
//! thread over `N` worker shards, partitioned by *assertion cluster*
//! (connected components of claim co-occurrence — the granularity at
//! which the dependency model factorizes). Each cluster runs its own
//! compacted [`StreamingEstimator`](socsense_core::StreamingEstimator);
//! cross-shard answers merge in fixed order, so results are
//! `f64::to_bits`-identical at every shard count. See the
//! [`router`](ShardedService) docs for the epoch/drain protocol and
//! the determinism argument.
//!
//! # Example
//!
//! ```
//! use socsense_graph::{FollowerGraph, TimedClaim};
//! use socsense_serve::{QueryService, ServeConfig};
//!
//! let service = QueryService::spawn(3, 2, FollowerGraph::new(3), ServeConfig::default())?;
//! let client = service.handle(); // cloneable, Send
//! client.ingest(vec![TimedClaim::new(0, 0, 1), TimedClaim::new(1, 0, 2)])?;
//! let p = client.posterior(0)?;
//! assert!((0.0..=1.0).contains(&p));
//! let top = client.top_sources(2)?;
//! assert_eq!(top.len(), 2);
//! let stats = service.shutdown()?;
//! assert_eq!(stats.total_claims, 2);
//! # Ok::<(), socsense_serve::ServeError>(())
//! ```

// detlint: contract = deterministic
#![warn(missing_docs)]

mod api;
mod durable;
mod router;
mod service;
mod shard;
mod slot;

pub use api::{
    ClusterAssignment, IngestAck, PersistConfig, ServeConfig, ServeError, ServeStats,
    ShardTopology, SourceRank,
};
pub use router::{ShardedHandle, ShardedService};
pub use service::{QueryService, ServeHandle};

// Re-exported so clients can name bound methods and read metrics
// snapshots without depending on socsense-core directly.
pub use socsense_core::{BoundMethod, BoundResult, GibbsConfig, MetricsSnapshot, Obs};
