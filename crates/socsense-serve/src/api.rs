//! Public request/response types of the query service.

use std::error::Error;
use std::fmt;
use std::path::PathBuf;

use serde::{Deserialize, Serialize};

use socsense_core::{EmConfig, RefitMode, SenseError, SourceParams};
use socsense_matrix::Parallelism;
use socsense_persist::PersistError;

/// Durability configuration of a service (see DESIGN.md §12).
///
/// When attached to a [`ServeConfig`], every ingest batch is appended to
/// a CRC-guarded write-ahead log under `data_dir` and the full serving
/// state is checkpointed every [`snapshot_every`](Self::snapshot_every)
/// batches, and once more at a clean shutdown. A service spawned over a
/// `data_dir` holding prior state recovers it first — replaying the WAL
/// tail since the newest snapshot, which is empty after a clean
/// shutdown — and then answers every query `f64::to_bits`-identically
/// to a worker that was never interrupted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PersistConfig {
    /// Root directory of the service's durable state. One directory
    /// belongs to one service at a time (single writer).
    pub data_dir: PathBuf,
    /// WAL batched-fsync policy: issue an `fsync` every this many
    /// appended batches. `1` (the default) syncs every batch — an acked
    /// batch is always on disk; larger values trade the latest
    /// un-synced batches on power loss for throughput; `0` never syncs
    /// implicitly.
    pub fsync_every: usize,
    /// Checkpoint cadence: write a full snapshot every this many ingest
    /// batches, and at a clean shutdown when batches arrived since the
    /// newest one. After a crash, recovery replays at most
    /// `snapshot_every − 1` batches. `0` disables snapshots, the
    /// shutdown one included; recovery then replays the whole WAL.
    pub snapshot_every: usize,
}

impl PersistConfig {
    /// Durability rooted at `data_dir` with the default policy:
    /// fsync every batch, snapshot every 8 batches.
    pub fn at(data_dir: impl Into<PathBuf>) -> Self {
        Self {
            data_dir: data_dir.into(),
            fsync_every: 1,
            snapshot_every: 8,
        }
    }
}

/// Configuration for a [`QueryService`](crate::QueryService).
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// EM configuration for every refit (cold and warm). Spawning
    /// refuses one that [`EmConfig::validate`] rejects.
    pub em: EmConfig,
    /// Worker threads for bound evaluation
    /// ([`bound_for_assertions_traced`](socsense_core::bound_for_assertions_traced))
    /// inside the service worker. Never changes the numbers — only
    /// wall-clock time. A [`Bound`](crate::ServeHandle::bound) request
    /// without its own method runs [`BoundMethod::default`](socsense_core::BoundMethod::default).
    pub parallelism: Parallelism,
    /// How ingest-driven refits run: [`RefitMode::Full`] re-runs warm EM
    /// over the whole log every time; [`RefitMode::Delta`] scopes each
    /// E-step to the assertions the batch touched, falling back to a
    /// full warm refit when the configured drift/staleness thresholds
    /// trip (see [`socsense_core::DeltaConfig`]).
    pub refit_mode: RefitMode,
    /// Backpressure: the most requests allowed to sit unserved in the
    /// service queue. A request arriving at a full queue is shed
    /// immediately with [`ServeError::Overloaded`] instead of queuing
    /// behind a slow worker without bound. `0` (the default) disables
    /// the limit. Shutdown requests are always admitted.
    pub max_queue_depth: usize,
    /// Durability: when set, ingest batches are write-ahead logged and
    /// serving state is periodically checkpointed under
    /// [`PersistConfig::data_dir`], and spawning over existing state
    /// recovers it bit-identically. `None` (the default) keeps the
    /// service purely in-memory.
    pub persist: Option<PersistConfig>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            em: EmConfig::default(),
            parallelism: Parallelism::Auto,
            refit_mode: RefitMode::Full,
            max_queue_depth: 0,
            persist: None,
        }
    }
}

/// Errors surfaced to service clients.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ServeError {
    /// The service has shut down (or its worker died) — the request was
    /// not, or may not have been, processed.
    Closed,
    /// The estimator or bound computation rejected the request.
    Sense(SenseError),
    /// The worker answered with an unexpected response variant. This
    /// indicates a bug in the service itself, never in the caller.
    Protocol(&'static str),
    /// The request was shed at the door: the service queue already held
    /// [`ServeConfig::max_queue_depth`] unserved requests. The request
    /// was never enqueued — retrying later is safe.
    Overloaded,
    /// The worker (or the sharded tier's router or a shard) panicked.
    /// Carries the panic payload when it was a string. Surfaced by
    /// `shutdown()`; in-flight requests observe [`Closed`](Self::Closed).
    WorkerPanicked(String),
    /// The durability layer failed (WAL append, fsync, snapshot, or
    /// recovery). Carries the storage error's description. In-memory
    /// state may be ahead of disk once this is returned; treat the
    /// `data_dir` as suspect.
    Persist(String),
    /// An ingest failed half-way, so in-memory state and the WAL
    /// disagree: a sharded epoch failed at or after the WAL append but
    /// before the shard fan-out completed (a failed append, or a shard
    /// channel that closed), or the single worker's WAL append failed
    /// after its slot took the batch. The service refuses every
    /// further request with the original failure rather than serve from
    /// silently incomplete state, and writes no shutdown checkpoint;
    /// restart the service to rebuild from the WAL.
    Wedged(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Closed => write!(f, "query service is shut down"),
            ServeError::Sense(e) => write!(f, "{e}"),
            ServeError::Protocol(what) => write!(f, "protocol mismatch: {what}"),
            ServeError::Overloaded => write!(f, "query service queue is full"),
            ServeError::WorkerPanicked(what) => write!(f, "service worker panicked: {what}"),
            ServeError::Persist(what) => write!(f, "durability failure: {what}"),
            ServeError::Wedged(what) => write!(
                f,
                "service is wedged by an earlier ingest failure ({what}); \
                 restart to rebuild from the WAL"
            ),
        }
    }
}

impl Error for ServeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ServeError::Sense(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SenseError> for ServeError {
    fn from(e: SenseError) -> Self {
        ServeError::Sense(e)
    }
}

impl From<PersistError> for ServeError {
    fn from(e: PersistError) -> Self {
        ServeError::Persist(e.to_string())
    }
}

/// Acknowledgement of one ingested batch: its claims are in the log and
/// the chain refit over them has run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct IngestAck {
    /// Claims in the log after the batch.
    pub total_claims: usize,
}

/// One entry of a source-reliability ranking.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SourceRank {
    /// Source id.
    pub source: u32,
    /// Ranking key: the source's independent-claim precision
    /// `P(C = 1 | source claims independently) = z·a / (z·a + (1−z)·b)`
    /// under the fitted `θ̂` — the posterior that an assertion is true
    /// given only that this source asserted it on its own.
    pub precision: f64,
    /// The fitted behaviour parameters `(a, b, f, g)`.
    pub params: SourceParams,
}

/// The partition map of a sharded service: which shard hosts each
/// assertion cluster, at which ingest epoch the map was read.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardTopology {
    /// Configured shard (worker) count.
    pub shards: usize,
    /// Ingest batches processed when the map was snapshot.
    pub epoch: u64,
    /// One entry per live cluster, ascending by key.
    pub clusters: Vec<ClusterAssignment>,
}

/// One cluster's placement in a [`ShardTopology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClusterAssignment {
    /// Cluster key: the smallest member assertion id.
    pub key: u32,
    /// Owning shard index.
    pub shard: usize,
    /// Member sources: claimants plus followers linked by dependency
    /// cells — every source whose behaviour the cluster's fit
    /// estimates.
    pub sources: usize,
    /// Member assertions.
    pub assertions: usize,
}

/// Operating statistics of a running (or just-shut-down) service.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ServeStats {
    /// Claims ingested over the service's lifetime.
    pub total_claims: usize,
    /// Requests answered (including the one reporting these stats).
    pub requests_served: u64,
    /// Successful warm-start-chain refits, one per ingest that left
    /// claims pending.
    pub chain_refits: u64,
    /// Refits that returned an error. The warm-start state survives
    /// these (see `StreamingEstimator::estimate_with_stats`), and reads
    /// keep serving the last good fit.
    pub failed_refits: u64,
    /// Refits that warm-started from a previous `θ̂`.
    pub warm_refits: u64,
    /// Refits the delta engine answered with a scoped, `O(touched)`
    /// E-step (only in [`RefitMode::Delta`](socsense_core::RefitMode)).
    pub delta_refits: u64,
    /// Delta-mode refits that tripped a threshold and fell back to a
    /// full warm refit (bit-identical to what `RefitMode::Full` would
    /// have produced).
    pub fallback_refits: u64,
    /// EM iterations of the most recent successful refit.
    pub last_refit_iterations: Option<usize>,
    /// Assertions the most recent successful refit re-evaluated (`m`
    /// for full and fallback refits, the touched-set size for delta
    /// refits).
    pub last_touched_assertions: Option<usize>,
    /// Sources whose M-step rows the most recent successful refit
    /// re-derived (`n` for full and fallback refits).
    pub last_touched_sources: Option<usize>,
    /// Whether the most recent successful refit reported an exact
    /// log-likelihood (always true for full and fallback refits; true
    /// for scoped delta refits only under
    /// [`DeltaConfig::exact_ll`](socsense_core::DeltaConfig)).
    #[serde(default)]
    pub last_ll_exact: Option<bool>,
}
