//! The cluster-partitioned router of the sharded serving tier.
//!
//! A [`ShardedService`] owns one router thread and `N` shard worker
//! threads ([`ShardWorker`](crate::shard::ShardWorker)). The router is
//! the single writer of the partition map: it tracks assertion clusters
//! with a [`ClusterTracker`] (union-find over claim co-occurrence),
//! assigns each *new* cluster to a shard by a deterministic rendezvous
//! hash of its key (the smallest assertion id), fans ingest batches out
//! by cluster, and merges fan-out answers in fixed shard/key order —
//! so every served number is a pure function of the ingest sequence and
//! the query parameters, independent of the shard count.
//!
//! # Epoch / drain protocol
//!
//! The router stamps every ingest batch with a fresh epoch. Shards
//! involved in the batch receive the cluster operations and must ack
//! (the drain barrier); uninvolved shards receive a bare epoch marker
//! over the same FIFO channel, which is delivered — and therefore
//! applied — before any later query. Queries carry the epoch the router
//! expects; a shard answering at a different epoch reports a protocol
//! error instead of mixing epochs into a fan-out.
//!
//! # Determinism argument
//!
//! Cluster membership, per-cluster claim sub-streams, and per-cluster
//! batch boundaries are all derived from the global ingest sequence
//! alone — never from the shard count or query timing. Each cluster's
//! estimator state is a pure function of `(membership, batch history)`
//! because membership changes rebuild the cluster by replaying its
//! history under the live refit policy. The router holds every
//! cluster's history in memory, with or without a data directory; a
//! durable router rebuilds it from the WAL at recovery. Fan-out replies
//! are merged after sorting by shard index, folding in ascending
//! cluster-key order, so the merge order is fixed too. Hence `Shards(1)`,
//! `Shards(2)`, and `Shards(4)` produce `f64::to_bits`-identical
//! answers.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

use socsense_core::{BoundResult, ClusterTracker, ClusterUpdate, SenseError};
use socsense_graph::{FollowerGraph, TimedClaim};
use socsense_obs::{Obs, Recorder};

use crate::api::{
    ClusterAssignment, IngestAck, PersistConfig, ServeConfig, ServeError, ServeStats, ShardTopology,
};
use crate::durable::{DurableLog, RouterSnapshot, CHECKPOINT_FORMAT};
use crate::service::{
    check_assertions, panic_message, recorded, Backend, FrontEnd, Request, Response, ServeHandle,
};
use crate::shard::{ClusterOp, ShardMsg, ShardQuery, ShardReply, ShardReturn, ShardWorker};
use crate::slot::{neutral_bound, rank_sources, Slot, SlotStats, NEUTRAL_PRIOR, NEUTRAL_SOURCE};

/// SplitMix64 finalizer: a full-avalanche mix of one 64-bit word.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Rendezvous (highest-random-weight) assignment of a cluster key to a
/// shard: every participant computes the same winner from the key
/// alone, with no assignment table to coordinate. Strict `>` keeps the
/// lowest shard index on (astronomically unlikely) weight ties.
pub(crate) fn rendezvous_shard(key: u32, shards: usize) -> usize {
    let mut best = 0usize;
    let mut best_weight = 0u64;
    for s in 0..shards {
        let weight = splitmix64(((key as u64) << 32) ^ (s as u64 + 1));
        if s == 0 || weight > best_weight {
            best = s;
            best_weight = weight;
        }
    }
    best
}

/// What the router knows about one live cluster.
struct RecordedCluster {
    shard: usize,
    n_sources: usize,
    n_assertions: usize,
}

/// One entry of a cluster's claim history: `(ingest epoch, position in
/// that epoch's batch, the claim)`. The pair orders entries globally.
type HistoryEntry = (u64, u32, TimedClaim);

/// Folds `absorbed` (a merged-away cluster's history) into `into`,
/// restoring global `(epoch, pos)` order. The pairs are unique, so this
/// is a deterministic merge of two sorted runs.
fn merge_history(into: &mut Vec<HistoryEntry>, absorbed: Vec<HistoryEntry>) {
    into.extend(absorbed);
    into.sort_unstable_by_key(|&(epoch, pos, _)| (epoch, pos));
}

/// Groups a sorted cluster history back into its original ingest
/// batches (one `Vec` per epoch, batch order preserved) so a rebuild
/// replays the refit policy over the exact boundaries the live path saw.
fn history_batches(history: &[HistoryEntry]) -> Vec<Vec<TimedClaim>> {
    let mut out: Vec<Vec<TimedClaim>> = Vec::new();
    let mut current = None;
    for &(seq, _, claim) in history {
        if current != Some(seq) {
            out.push(Vec::new());
            current = Some(seq);
        }
        if let Some(last) = out.last_mut() {
            last.push(claim);
        }
    }
    out
}

/// The first refit error of one ingest fan-out, in shard order (each
/// shard reports its first, in cluster-operation order).
fn first_error(
    returns: Vec<ShardReturn<Option<SenseError>>>,
) -> Result<Option<SenseError>, ServeError> {
    let mut first = None;
    for ret in returns {
        first = first.or(ret.payload?);
    }
    Ok(first)
}

/// A sharded drop-in for [`QueryService`](crate::QueryService): the
/// same request surface, served by a router thread over `N` worker
/// shards partitioned by assertion cluster.
///
/// Answers are `f64::to_bits`-identical at every shard count: sharding
/// changes wall-clock behaviour, never served numbers. See the module
/// docs for the protocol and the determinism argument.
#[derive(Debug)]
pub struct ShardedService {
    front: FrontEnd,
    shards: usize,
}

/// A cheap, cloneable client of a [`ShardedService`].
///
/// Dereferences to [`ServeHandle`], so every unsharded client method
/// (ingest, posterior, bound, …) works unchanged; adds
/// [`topology`](Self::topology) for inspecting the partition map.
#[derive(Debug, Clone)]
pub struct ShardedHandle {
    inner: ServeHandle,
}

impl std::ops::Deref for ShardedHandle {
    type Target = ServeHandle;

    fn deref(&self) -> &ServeHandle {
        &self.inner
    }
}

impl ShardedHandle {
    /// The current partition map: shard count, ingest epoch, and each
    /// live cluster's key, owning shard, and member counts (keys
    /// ascending).
    ///
    /// # Errors
    ///
    /// [`ServeError::Closed`] when the service is gone.
    pub fn topology(&self) -> Result<ShardTopology, ServeError> {
        match self.inner.call(Request::Topology)? {
            Response::Topology(t) => Ok(*t),
            _ => Err(ServeError::Protocol("expected Topology")),
        }
    }
}

impl ShardedService {
    /// Spawns the router and `shards` worker threads over `n` sources
    /// and `m` assertions with the given follow relation.
    ///
    /// # Errors
    ///
    /// [`ServeError::Sense`] for an invalid shape or configuration —
    /// the same construction-error surface as
    /// [`QueryService::spawn`](crate::QueryService::spawn) — or a zero
    /// shard count; [`ServeError::Persist`] when
    /// [`ServeConfig::persist`] is set and the durable state cannot be
    /// opened or recovered. Recovery is timed on
    /// `serve.recovery.seconds`.
    pub fn spawn(
        n: u32,
        m: u32,
        graph: FollowerGraph,
        config: ServeConfig,
        shards: usize,
    ) -> Result<Self, ServeError> {
        Self::spawn_with_obs(n, m, graph, config, shards, Obs::none())
    }

    /// As [`spawn`](Self::spawn), additionally teeing every metric the
    /// router and shards emit into `extra`. Metrics are
    /// observation-only and never change served numbers.
    ///
    /// # Errors
    ///
    /// See [`spawn`](Self::spawn).
    pub fn spawn_with_obs(
        n: u32,
        m: u32,
        graph: FollowerGraph,
        config: ServeConfig,
        shards: usize,
        extra: Obs,
    ) -> Result<Self, ServeError> {
        if shards == 0 {
            return Err(ServeError::Sense(SenseError::BadConfig {
                what: "sharded service needs at least one shard",
            }));
        }
        // Trial construction: surface exactly the shape/config errors
        // the unsharded service would, before any thread exists.
        Slot::new(n, m, graph.clone(), &config, Obs::none())?;
        let tracker = ClusterTracker::new(n, m, graph.clone())?;
        let (rec, obs) = recorded(&extra);
        let mut shard_tx = Vec::with_capacity(shards);
        let mut shard_depth = Vec::with_capacity(shards);
        let mut shard_workers = Vec::with_capacity(shards);
        for i in 0..shards {
            let (tx, rx) = mpsc::channel::<ShardMsg>();
            let depth = Arc::new(AtomicUsize::new(0));
            let worker =
                ShardWorker::new(i, config.clone(), graph.clone(), obs.clone(), depth.clone());
            let handle = std::thread::Builder::new()
                .name(format!("socsense-shard-{i}"))
                .spawn(move || worker.run(rx))
                // detlint: allow(P1) -- construction-time: no client exists yet, so a failed spawn panics the caller, not a worker others wait on
                .expect("spawning a shard worker thread");
            shard_tx.push(tx);
            shard_depth.push(depth);
            shard_workers.push(handle);
        }
        let max_depth = config.max_queue_depth;
        let persist = config.persist.clone();
        let mut router = Router {
            tracker,
            epoch: 0,
            total_claims: 0,
            requests_served: 0,
            recorded: BTreeMap::new(),
            history: BTreeMap::new(),
            shard_tx,
            shard_depth,
            shard_workers,
            rec,
            obs,
            durable: None,
            wedged: None,
        };
        // Recovery runs here, on the caller thread, with the shards
        // already live (they receive the snapshot's cluster states and
        // the WAL-tail replay) but before the router serves anything.
        if let Some(pcfg) = &persist {
            if let Err(e) = router.recover(pcfg) {
                // Recovery failed before the durable log was installed,
                // so stopping writes no checkpoint; it joins the shards.
                let _ = router.stop();
                return Err(e);
            }
        }
        Ok(Self {
            front: FrontEnd::spawn("socsense-router", router, max_depth),
            shards,
        })
    }

    /// The configured shard count.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// A new client handle. Handles stay valid until shutdown.
    pub fn handle(&self) -> ShardedHandle {
        ShardedHandle {
            inner: self.front.handle(),
        }
    }

    /// Shuts the tier down gracefully: requests already queued are
    /// still answered, then a durable router writes its shutdown
    /// checkpoint (see [`PersistConfig::snapshot_every`]), and the
    /// shards and the router exit and are joined. Returns the final
    /// operating statistics.
    ///
    /// # Errors
    ///
    /// [`ServeError::Closed`] when the router was already gone;
    /// [`ServeError::WorkerPanicked`] when the router — or any shard,
    /// surfaced through the router's shutdown reply — died by panic;
    /// [`ServeError::Persist`] when the shutdown checkpoint could not be
    /// written (the data directory still recovers from the previous
    /// checkpoint and the WAL).
    pub fn shutdown(mut self) -> Result<ServeStats, ServeError> {
        self.front.shutdown()
    }
}

/// The single-threaded owner of the partition map and shard channels.
struct Router {
    tracker: ClusterTracker,
    /// Ingest batches processed; every shard state and query is pinned
    /// to an epoch.
    epoch: u64,
    total_claims: usize,
    requests_served: u64,
    recorded: BTreeMap<u32, RecordedCluster>,
    /// Per-cluster claim history in `(epoch, position)` order — the
    /// replay source for membership-change rebuilds. Recovery rebuilds
    /// it from the WAL.
    history: BTreeMap<u32, Vec<HistoryEntry>>,
    shard_tx: Vec<Sender<ShardMsg>>,
    shard_depth: Vec<Arc<AtomicUsize>>,
    shard_workers: Vec<JoinHandle<()>>,
    rec: Arc<Recorder>,
    obs: Obs,
    /// Durability engine, when [`ServeConfig::persist`] is set.
    durable: Option<DurableLog>,
    /// Set when an ingest epoch failed at or after the WAL append but
    /// before the shard fan-out completed: the shards are missing that
    /// epoch's cluster operations, so every later request but shutdown
    /// (which still joins the shards) fails fast with this message
    /// instead of serving silently incomplete state, and no checkpoint
    /// is written. A restart clears the wedge by rebuilding from the WAL.
    wedged: Option<String>,
}

impl Backend for Router {
    fn obs(&self) -> &Obs {
        &self.obs
    }

    fn picked_up(&mut self, waiting: usize) {
        self.requests_served += 1;
        self.obs.gauge("serve.router.queue.depth", waiting as f64);
    }

    fn dispatch(&mut self, req: Request) -> Result<Response, ServeError> {
        match req {
            Request::Ingest(batch) => self.ingest(batch, true),
            Request::Posterior(j) => self.posterior(j),
            Request::Posteriors => self.posteriors(),
            Request::TopSources(k) => self.top_sources(k),
            Request::Bound { assertions, method } => self.bound(assertions, method),
            Request::Stats => Ok(Response::Stats(self.stats_snapshot()?)),
            Request::Metrics => Ok(Response::Metrics(Box::new(self.rec.snapshot()))),
            Request::Topology => Ok(Response::Topology(Box::new(self.topology()))),
            Request::Shutdown => Ok(Response::ShuttingDown(self.stats_snapshot()?)),
            #[cfg(test)]
            Request::InjectPanic => panic!("injected router panic"),
            #[cfg(test)]
            Request::FailNextAppend => {
                if let Some(d) = &mut self.durable {
                    d.fail_next_append = true;
                }
                Ok(Response::Stats(self.stats_snapshot()?))
            }
            #[cfg(test)]
            Request::FailNextRefit => Err(ServeError::Protocol(
                "refit failures are injected on the single worker only",
            )),
            #[cfg(test)]
            Request::Park { ack, release } => {
                let _ = ack.send(());
                let _ = release.recv();
                Ok(Response::Stats(self.stats_snapshot()?))
            }
        }
    }

    fn wedged(&self) -> Option<&str> {
        self.wedged.as_deref()
    }

    /// Writes the shutdown checkpoint when one is due and the router is
    /// not wedged — first, because it exports the shards' clusters — then
    /// stops and joins every shard. A shard that died by panic outranks
    /// a failed checkpoint in the shutdown reply.
    fn stop(&mut self) -> Result<(), ServeError> {
        let checkpointed = match self.wedged {
            None => self.checkpoint_if(DurableLog::shutdown_due),
            Some(_) => Ok(()),
        };
        for (i, tx) in self.shard_tx.iter().enumerate() {
            self.shard_depth[i].fetch_add(1, Ordering::Relaxed);
            let _ = tx.send(ShardMsg::Shutdown);
        }
        let mut panicked = None;
        for handle in self.shard_workers.drain(..) {
            if let Err(payload) = handle.join() {
                if panicked.is_none() {
                    panicked = Some(panic_message(payload));
                }
            }
        }
        match panicked {
            Some(what) => Err(ServeError::WorkerPanicked(what)),
            None => checkpointed,
        }
    }
}

impl Router {
    /// Fans an ingest batch out by cluster and waits for every involved
    /// shard's ack (the drain barrier) before acknowledging the client.
    /// Shared by live requests (`log = true`: the batch is WAL-appended
    /// and the checkpoint cadence applies) and recovery's WAL-tail
    /// replay (`log = false`: the records are already on disk).
    fn ingest(&mut self, batch: Vec<TimedClaim>, log: bool) -> Result<Response, ServeError> {
        // Atomic validation: a rejected batch changes nothing, and the
        // epoch does not advance.
        let update = self.tracker.ingest(&batch)?;
        self.epoch += 1;
        // Everything between the epoch advance and the drain barrier
        // must either complete or wedge the router: a failure in here
        // (a dead WAL, a closed shard channel) means the shards never
        // received this epoch's cluster operations, so carrying on
        // would serve from silently incomplete state — exactly the
        // truncation-without-telling-anyone failure the durability
        // layer exists to rule out. On failure the router broadcasts
        // bare epoch markers (keeping the fleet's epochs aligned so
        // the drain protocol still works), records the wedge, and
        // fails every later request fast until a restart rebuilds
        // from the WAL.
        let returns = match self.commit_batch(&batch, &update, log) {
            Ok(returns) => returns,
            Err(e) => {
                self.wedged = Some(e.to_string());
                self.obs.counter("serve.router.wedged_total", 1);
                let _ = self.dispatch_ops(BTreeMap::new());
                return Err(e);
            }
        };
        let refit_error = first_error(returns)?;
        if log {
            self.checkpoint_if(DurableLog::should_snapshot)?;
        }
        // Mirror the unsharded service: a failed refit surfaces as an
        // error, but the claims stay ingested.
        if let Some(e) = refit_error {
            return Err(ServeError::Sense(e));
        }
        Ok(Response::Ingested(IngestAck {
            total_claims: self.total_claims,
        }))
    }

    /// The wedge-guarded half of one ingest epoch: WAL append, history
    /// advance, cluster-operation build, and the shard fan-out. Runs
    /// with the epoch already advanced; [`Router::ingest`] wedges the
    /// router if any step fails.
    fn commit_batch(
        &mut self,
        batch: &[TimedClaim],
        update: &ClusterUpdate,
        log: bool,
    ) -> Result<Vec<ShardReturn<Option<SenseError>>>, ServeError> {
        // Log the accepted batch before the fan-out and the ack — with
        // `fsync_every = 1`, an acked batch is on disk.
        if log {
            if let Some(d) = &mut self.durable {
                d.append(self.epoch, batch, &self.obs)?;
            }
        }
        self.total_claims += batch.len();
        self.obs.gauge("serve.router.epoch", self.epoch as f64);

        let (per_key, merged_into) = self.advance_history(self.epoch, batch, &update.removed)?;

        // Cluster operations, grouped per shard in ascending key order.
        let mut ops: BTreeMap<usize, Vec<ClusterOp>> = BTreeMap::new();
        for &gone in &update.removed {
            if let Some(rc) = self.recorded.remove(&gone) {
                ops.entry(rc.shard)
                    .or_default()
                    .push(ClusterOp::Drop { key: gone });
            }
        }
        for (&key, claims) in &per_key {
            let members = self
                .tracker
                .members(key)
                .ok_or(ServeError::Protocol("claimed cluster is not tracked"))?;
            let sizes = (members.sources().len(), members.assertions().len());
            let (shard, needs_build, was_recorded) = match self.recorded.get(&key) {
                None => (rendezvous_shard(key, self.shard_tx.len()), true, false),
                Some(rc) => (
                    rc.shard,
                    merged_into.contains(&key) || (rc.n_sources, rc.n_assertions) != sizes,
                    true,
                ),
            };
            let op = if needs_build {
                if was_recorded {
                    self.obs.counter("serve.router.rebuilds_total", 1);
                }
                ClusterOp::Build {
                    key,
                    sources: members.sources().to_vec(),
                    assertions: members.assertions().to_vec(),
                    batches: history_batches(
                        self.history
                            .get(&key)
                            .map(Vec::as_slice)
                            .unwrap_or_default(),
                    ),
                }
            } else {
                ClusterOp::Append {
                    key,
                    claims: claims.iter().map(|&(_, c)| c).collect(),
                }
            };
            ops.entry(shard).or_default().push(op);
            self.recorded.insert(
                key,
                RecordedCluster {
                    shard,
                    n_sources: sizes.0,
                    n_assertions: sizes.1,
                },
            );
        }
        self.obs
            .gauge("serve.router.clusters", self.recorded.len() as f64);

        self.dispatch_ops(ops)
    }

    /// Applies one batch's history consequences: clusters merged away
    /// hand their logged claims to the surviving key, and the batch's
    /// claims are appended to each owning cluster's history, stamped
    /// `(epoch, position)`. Returns the per-cluster sub-batches
    /// (position-tagged, batch order preserved) and the keys that
    /// absorbed a merge.
    #[allow(clippy::type_complexity)]
    fn advance_history(
        &mut self,
        epoch: u64,
        batch: &[TimedClaim],
        removed: &[u32],
    ) -> Result<(BTreeMap<u32, Vec<(u32, TimedClaim)>>, BTreeSet<u32>), ServeError> {
        let mut merged_into: BTreeSet<u32> = BTreeSet::new();
        for &gone in removed {
            if let Some(src) = self.history.remove(&gone) {
                let winner = self
                    .tracker
                    .cluster_key_of(src[0].2.assertion)
                    .ok_or(ServeError::Protocol("merged cluster has no live key"))?;
                merge_history(self.history.entry(winner).or_default(), src);
                merged_into.insert(winner);
            }
        }
        // Partition the batch by owning cluster, preserving batch order
        // inside each sub-stream. One map probe per claim; the history
        // log extends once per involved cluster afterwards.
        let mut per_key: BTreeMap<u32, Vec<(u32, TimedClaim)>> = BTreeMap::new();
        for (pos, &claim) in batch.iter().enumerate() {
            let key = self
                .tracker
                .cluster_key_of(claim.assertion)
                .ok_or(ServeError::Protocol("ingested claim has no cluster"))?;
            per_key.entry(key).or_default().push((pos as u32, claim));
        }
        for (&key, positioned) in &per_key {
            self.history
                .entry(key)
                .or_default()
                .extend(positioned.iter().map(|&(pos, c)| (epoch, pos, c)));
        }
        Ok((per_key, merged_into))
    }

    /// Sends each shard its cluster operations (a bare epoch marker
    /// when it has none) and collects the involved shards' acks sorted
    /// by shard index — the drain barrier of one ingest batch.
    fn dispatch_ops(
        &mut self,
        mut ops: BTreeMap<usize, Vec<ClusterOp>>,
    ) -> Result<Vec<ShardReturn<Option<SenseError>>>, ServeError> {
        let (ack_tx, ack_rx) = mpsc::channel();
        let mut involved = 0usize;
        for (i, tx) in self.shard_tx.iter().enumerate() {
            self.shard_depth[i].fetch_add(1, Ordering::Relaxed);
            let msg = match ops.remove(&i) {
                Some(ops) => {
                    involved += 1;
                    ShardMsg::Ingest {
                        epoch: self.epoch,
                        ops,
                        reply: ack_tx.clone(),
                    }
                }
                None => ShardMsg::Epoch(self.epoch),
            };
            tx.send(msg).map_err(|_| ServeError::Closed)?;
        }
        drop(ack_tx);
        let mut returns = Vec::with_capacity(involved);
        for _ in 0..involved {
            returns.push(ack_rx.recv().map_err(|_| ServeError::Closed)?);
        }
        returns.sort_by_key(|r| r.shard);
        Ok(returns)
    }

    /// Writes a router checkpoint at the current epoch when `due` says
    /// so: every cluster's state is exported from its owning shard and
    /// written alongside the router counters. The WAL is kept — the full
    /// batch sequence is the membership dry-replay source at recovery.
    fn checkpoint_if(&mut self, due: fn(&DurableLog, u64) -> bool) -> Result<(), ServeError> {
        if !self.durable.as_ref().is_some_and(|d| due(d, self.epoch)) {
            return Ok(());
        }
        let mut clusters = Vec::new();
        for (_, reply) in self.scatter(self.all_shards(|| ShardQuery::Export))? {
            let ShardReply::Export(list) = reply else {
                return Err(ServeError::Protocol("expected shard Export"));
            };
            clusters.extend(list);
        }
        clusters.sort_by_key(|c| c.key);
        let snap = RouterSnapshot {
            format: CHECKPOINT_FORMAT,
            epoch: self.epoch,
            total_claims: self.total_claims,
            requests_served: self.requests_served,
            clusters,
        };
        match &mut self.durable {
            Some(d) => d.write_snapshot(self.epoch, &snap, false, &self.obs),
            None => Ok(()),
        }
    }

    /// Restores whatever a previous service left under the data
    /// directory, in three phases: (1) dry-replay the WAL up to the
    /// checkpoint to rebuild the cluster tracker and the per-cluster
    /// histories in memory (membership is a pure function of the batch
    /// sequence — neither the union-find nor a history is ever
    /// serialized); (2) install the checkpoint — router counters, the
    /// recorded-cluster map, and a `Restore` fan-out shipping each
    /// cluster's state to whichever shard the rendezvous hash picks
    /// *now*, so restarting with a different shard count is just a
    /// cluster move; (3) replay the WAL tail through the normal ingest
    /// path. Phases (1) and (2) run only when there is a checkpoint
    /// (without one, no record is covered) and are timed together on
    /// `serve.recovery.restore.seconds`.
    fn recover(&mut self, pcfg: &PersistConfig) -> Result<(), ServeError> {
        let _timer = self.obs.timer("serve.recovery.seconds");
        let (log, recovered) = DurableLog::open::<RouterSnapshot>(pcfg, &self.obs, true)?;
        let since = recovered.snapshot.as_ref().map_or(0, |(seq, _)| *seq);
        let mut covered = recovered.records;
        let tail = covered.split_off(covered.partition_point(|r| r.seq <= since));
        if let Some((_, snap)) = recovered.snapshot {
            let restore = self.obs.timer("serve.recovery.restore.seconds");
            for record in &covered {
                let update = self.tracker.ingest(&record.claims)?;
                self.epoch = record.seq;
                self.advance_history(record.seq, &record.claims, &update.removed)?;
            }
            if snap.epoch != self.epoch {
                return Err(ServeError::Persist(format!(
                    "WAL ends at batch {} but the snapshot covers {}",
                    self.epoch, snap.epoch
                )));
            }
            self.total_claims = snap.total_claims;
            self.requests_served = snap.requests_served;
            let mut ops: BTreeMap<usize, Vec<ClusterOp>> = BTreeMap::new();
            for cluster in snap.clusters {
                let shard = rendezvous_shard(cluster.key, self.shard_tx.len());
                self.recorded.insert(
                    cluster.key,
                    RecordedCluster {
                        shard,
                        n_sources: cluster.sources.len(),
                        n_assertions: cluster.assertions.len(),
                    },
                );
                ops.entry(shard)
                    .or_default()
                    .push(ClusterOp::Restore(Box::new(cluster)));
            }
            if let Some(e) = first_error(self.dispatch_ops(ops)?)? {
                return Err(ServeError::Sense(e));
            }
            restore.stop();
        }
        for record in tail {
            // Refit errors during replay mirror the live path: the
            // original run surfaced them to the client and kept the
            // claims ingested. Anything else is fatal.
            match self.ingest(record.claims, false) {
                Ok(_) | Err(ServeError::Sense(_)) => {}
                Err(e) => return Err(e),
            }
        }
        self.durable = Some(log);
        Ok(())
    }

    /// Sends each `(shard, query)` pair and collects the replies sorted
    /// by shard index, verifying no fan-out mixes epochs.
    fn scatter(
        &self,
        targets: Vec<(usize, ShardQuery)>,
    ) -> Result<Vec<(usize, ShardReply)>, ServeError> {
        let (tx, rx) = mpsc::channel();
        let expected = targets.len();
        for (shard, query) in targets {
            self.shard_depth[shard].fetch_add(1, Ordering::Relaxed);
            self.shard_tx[shard]
                .send(ShardMsg::Query {
                    epoch: self.epoch,
                    query,
                    reply: tx.clone(),
                })
                .map_err(|_| ServeError::Closed)?;
        }
        drop(tx);
        let mut returns: Vec<ShardReturn<ShardReply>> = Vec::with_capacity(expected);
        for _ in 0..expected {
            returns.push(rx.recv().map_err(|_| ServeError::Closed)?);
        }
        returns.sort_by_key(|r| r.shard);
        let mut out = Vec::with_capacity(returns.len());
        for ret in returns {
            if ret.epoch != self.epoch {
                return Err(ServeError::Protocol("fan-out reply from a different epoch"));
            }
            out.push((ret.shard, ret.payload?));
        }
        Ok(out)
    }

    fn all_shards(&self, query: impl Fn() -> ShardQuery) -> Vec<(usize, ShardQuery)> {
        (0..self.shard_tx.len()).map(|i| (i, query())).collect()
    }

    fn posterior(&mut self, j: u32) -> Result<Response, ServeError> {
        let m = self.tracker.assertion_count();
        check_assertions(&[j], m, "query assertion id vs m")?;
        let Some(key) = self.tracker.cluster_key_of(j) else {
            // Never claimed: no cluster owns it, the posterior is the
            // neutral prior.
            return Ok(Response::Posterior(NEUTRAL_PRIOR));
        };
        let shard = self.owning_shard(key)?;
        let replies = self.scatter(vec![(shard, ShardQuery::Posterior { key, assertion: j })])?;
        match replies.into_iter().next() {
            Some((_, ShardReply::Posterior(p))) => Ok(Response::Posterior(p)),
            _ => Err(ServeError::Protocol("expected shard Posterior")),
        }
    }

    fn posteriors(&mut self) -> Result<Response, ServeError> {
        let m = self.tracker.assertion_count() as usize;
        let mut out = vec![NEUTRAL_PRIOR; m];
        for (_, reply) in self.scatter(self.all_shards(|| ShardQuery::Posteriors))? {
            let ShardReply::Posteriors(list) = reply else {
                return Err(ServeError::Protocol("expected shard Posteriors"));
            };
            for (j, p) in list {
                out[j as usize] = p;
            }
        }
        Ok(Response::Posteriors(out))
    }

    fn top_sources(&mut self, k: usize) -> Result<Response, ServeError> {
        let n = self.tracker.source_count();
        let mut entries = Vec::with_capacity(n as usize);
        for (_, reply) in self.scatter(self.all_shards(|| ShardQuery::TopSources))? {
            let ShardReply::TopSources(list) = reply else {
                return Err(ServeError::Protocol("expected shard TopSources"));
            };
            entries.extend(list);
        }
        // Sources in no cluster rank with neutral behaviour parameters
        // under a neutral prior.
        for i in 0..n {
            if !self.tracker.is_active_source(i) {
                entries.push((i, NEUTRAL_SOURCE, NEUTRAL_PRIOR));
            }
        }
        Ok(Response::TopSources(rank_sources(entries, k)))
    }

    fn bound(
        &mut self,
        assertions: Vec<u32>,
        method: Option<socsense_core::BoundMethod>,
    ) -> Result<Response, ServeError> {
        let m = self.tracker.assertion_count();
        let assertions: Vec<u32> = if assertions.is_empty() {
            (0..m).collect()
        } else {
            assertions
        };
        check_assertions(&assertions, m, "bound assertion id vs m")?;
        let method = method.unwrap_or_default();
        let mut groups: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
        let mut unowned = 0usize;
        for &j in &assertions {
            match self.tracker.cluster_key_of(j) {
                Some(key) => groups.entry(key).or_default().push(j),
                None => unowned += 1,
            }
        }
        // Single-group fast path: return the shard's result verbatim,
        // avoiding even the `(mean·k)/k` rounding of the merge below.
        if unowned == 0 {
            if let Some((&key, js)) = (groups.len() == 1).then(|| groups.iter().next()).flatten() {
                let shard = self.owning_shard(key)?;
                let replies = self.scatter(vec![(
                    shard,
                    ShardQuery::Bound {
                        groups: vec![(key, js.clone())],
                        method,
                    },
                )])?;
                return match replies.into_iter().next() {
                    Some((_, ShardReply::Bound(mut list))) if list.len() == 1 => match list.pop() {
                        Some((_, result, _)) => Ok(Response::Bound(result)),
                        None => Err(ServeError::Protocol("expected one shard Bound group")),
                    },
                    _ => Err(ServeError::Protocol("expected one shard Bound group")),
                };
            }
        }
        let mut per_shard: BTreeMap<usize, Vec<(u32, Vec<u32>)>> = BTreeMap::new();
        for (key, js) in groups {
            per_shard
                .entry(self.owning_shard(key)?)
                .or_default()
                .push((key, js));
        }
        let targets: Vec<(usize, ShardQuery)> = per_shard
            .into_iter()
            .map(|(shard, groups)| {
                (
                    shard,
                    ShardQuery::Bound {
                        groups,
                        method: method.clone(),
                    },
                )
            })
            .collect();
        let mut parts: BTreeMap<u32, (BoundResult, usize)> = BTreeMap::new();
        for (_, reply) in self.scatter(targets)? {
            let ShardReply::Bound(list) = reply else {
                return Err(ServeError::Protocol("expected shard Bound"));
            };
            for (key, bound, count) in list {
                parts.insert(key, (bound, count));
            }
        }
        // Fixed-order weighted merge: ascending cluster key, then the
        // never-claimed block. The fold order is shard-count-invariant.
        let mut error = 0.0;
        let mut false_positive = 0.0;
        let mut false_negative = 0.0;
        let mut total = 0usize;
        for (bound, count) in parts.into_values() {
            error += bound.error * count as f64;
            false_positive += bound.false_positive * count as f64;
            false_negative += bound.false_negative * count as f64;
            total += count;
        }
        if unowned > 0 {
            let neutral = neutral_bound();
            error += neutral.error * unowned as f64;
            false_positive += neutral.false_positive * unowned as f64;
            false_negative += neutral.false_negative * unowned as f64;
            total += unowned;
        }
        Ok(Response::Bound(BoundResult {
            error: error / total as f64,
            false_positive: false_positive / total as f64,
            false_negative: false_negative / total as f64,
        }))
    }

    fn stats_snapshot(&mut self) -> Result<ServeStats, ServeError> {
        let mut stats = SlotStats::default();
        for (_, reply) in self.scatter(self.all_shards(|| ShardQuery::Stats))? {
            let ShardReply::Stats(shard) = reply else {
                return Err(ServeError::Protocol("expected shard Stats"));
            };
            stats.merge(shard);
        }
        Ok(stats.serve_stats(self.total_claims, self.requests_served))
    }

    fn topology(&self) -> ShardTopology {
        ShardTopology {
            shards: self.shard_tx.len(),
            epoch: self.epoch,
            clusters: self
                .recorded
                .iter()
                .map(|(&key, rc)| ClusterAssignment {
                    key,
                    shard: rc.shard,
                    sources: rc.n_sources,
                    assertions: rc.n_assertions,
                })
                .collect(),
        }
    }

    fn owning_shard(&self, key: u32) -> Result<usize, ServeError> {
        self.recorded
            .get(&key)
            .map(|rc| rc.shard)
            .ok_or(ServeError::Protocol("tracked cluster is not recorded"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendezvous_is_deterministic_and_balanced_enough() {
        for key in 0..64u32 {
            assert_eq!(rendezvous_shard(key, 1), 0, "one shard owns everything");
            let s4 = rendezvous_shard(key, 4);
            assert!(s4 < 4);
            assert_eq!(
                s4,
                rendezvous_shard(key, 4),
                "assignment is a pure function"
            );
        }
        // Sanity: with 256 keys over 4 shards, no shard is starved.
        let mut counts = [0usize; 4];
        for key in 0..256u32 {
            counts[rendezvous_shard(key, 4)] += 1;
        }
        assert!(
            counts.iter().all(|&c| c > 16),
            "gross imbalance: {counts:?}"
        );
    }

    #[test]
    fn history_batches_preserve_epoch_boundaries() {
        let c = |t: u64| TimedClaim::new(0, 0, t);
        let history = vec![(1, 0, c(1)), (1, 1, c(2)), (3, 0, c(3)), (7, 2, c(4))];
        let batches = history_batches(&history);
        assert_eq!(batches.len(), 3);
        assert_eq!(batches[0].len(), 2);
        assert_eq!(batches[1].len(), 1);
        assert_eq!(batches[2].len(), 1);
    }

    #[test]
    fn merged_history_keeps_epoch_position_order() {
        let entries = |epoch: u64, count: u32| -> Vec<HistoryEntry> {
            (0..count)
                .map(|p| {
                    (
                        epoch,
                        p,
                        TimedClaim::new(p % 3, p % 2, epoch * 100 + u64::from(p)),
                    )
                })
                .collect()
        };
        let mut history: BTreeMap<u32, Vec<HistoryEntry>> = BTreeMap::new();
        history.entry(1).or_default().extend(entries(1, 3));
        history.entry(2).or_default().extend(entries(2, 2));
        history.entry(1).or_default().extend(entries(3, 1));
        // Cluster 2 merges away into cluster 1.
        let absorbed = history.remove(&2).unwrap();
        merge_history(history.entry(1).or_default(), absorbed);
        assert!(!history.contains_key(&2), "the absorbed key reads empty");
        let keys: Vec<(u64, u32)> = history[&1].iter().map(|&(e, p, _)| (e, p)).collect();
        assert_eq!(keys, [(1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (3, 0)]);
    }

    #[test]
    fn router_panic_surfaces_from_shutdown() {
        let svc =
            ShardedService::spawn(2, 2, FollowerGraph::new(2), ServeConfig::default(), 2).unwrap();
        let client = svc.handle();
        let rx = client.raw_send(Request::InjectPanic);
        // The router died mid-request: the reply channel just closes.
        assert!(rx.recv().is_err());
        match svc.shutdown() {
            Err(ServeError::WorkerPanicked(what)) => {
                assert!(what.contains("injected router panic"), "payload: {what}");
            }
            other => panic!("expected WorkerPanicked, got {other:?}"),
        }
    }

    #[test]
    fn wedged_router_writes_no_shutdown_checkpoint() {
        let dir =
            std::env::temp_dir().join(format!("socsense-router-wedge-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = ServeConfig {
            persist: Some(PersistConfig {
                data_dir: dir.clone(),
                fsync_every: 1,
                snapshot_every: 4,
            }),
            ..ServeConfig::default()
        };
        let batch = |k: u32| vec![TimedClaim::new(k % 3, k % 2, u64::from(k) + 1)];
        let svc = ShardedService::spawn(3, 2, FollowerGraph::new(3), cfg.clone(), 2).unwrap();
        let client = svc.handle();
        for k in 0..5 {
            client.ingest(batch(k)).unwrap();
        }
        assert!(client
            .raw_send(Request::FailNextAppend)
            .recv()
            .unwrap()
            .is_ok());
        assert!(matches!(
            client.ingest(batch(5)),
            Err(ServeError::Persist(_))
        ));
        assert!(matches!(client.stats(), Err(ServeError::Wedged(_))));
        svc.shutdown().unwrap();
        let snaps = socsense_persist::SnapshotStore::open(&dir.join("snapshots")).unwrap();
        assert_eq!(
            snaps.sequences().unwrap(),
            vec![4],
            "a wedged router writes no shutdown checkpoint"
        );

        // The WAL ends at batch 5: a restart replays it after checkpoint 4.
        let restarted = ShardedService::spawn(3, 2, FollowerGraph::new(3), cfg, 2).unwrap();
        let metrics = restarted.handle().metrics().unwrap();
        assert_eq!(metrics.counter("serve.wal.recovered_batches_total"), 1);
        assert_eq!(restarted.handle().topology().unwrap().epoch, 5);
        restarted.shutdown().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sharded_tier_sheds_over_limit_requests() {
        let svc = ShardedService::spawn(
            2,
            2,
            FollowerGraph::new(2),
            ServeConfig {
                max_queue_depth: 1,
                ..ServeConfig::default()
            },
            2,
        )
        .unwrap();
        let client = svc.handle();
        let (ack_tx, ack_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let parked = client.raw_send(Request::Park {
            ack: ack_tx,
            release: release_rx,
        });
        ack_rx.recv().unwrap();
        let held = client.raw_send(Request::Stats);
        assert!(matches!(client.stats(), Err(ServeError::Overloaded)));
        release_tx.send(()).unwrap();
        assert!(held.recv().unwrap().is_ok());
        assert!(parked.recv().unwrap().is_ok());
        svc.shutdown().unwrap();
    }
}
