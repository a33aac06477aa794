//! One worker shard of the sharded serving tier: a FIFO of cluster
//! operations and queries over per-cluster serving slots.
//!
//! A shard owns the clusters the router's rendezvous hash assigned to
//! it, each as an independent compacted sub-problem
//! ([`ClusterWorld`]) served by its own [`Slot`] — the same slot the
//! serial worker runs over the global world, with the same chain fit,
//! counters, refit policy, and checkpoint. The shard adds only the
//! global-to-local id remap. So a cluster's answers are a pure
//! function of its membership and its batch history, never of which
//! shard hosts it or when it was (re)built.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;

use socsense_core::{BoundMethod, BoundResult, ClusterWorld, SenseError, SourceParams};
use socsense_graph::{FollowerGraph, TimedClaim};
use socsense_obs::Obs;

use crate::api::{ServeConfig, ServeError};
use crate::durable::ClusterSnapshot;
use crate::slot::{Slot, SlotStats};

/// A message from the router to one shard. FIFO delivery per shard is
/// the consistency mechanism: an epoch marker or ingest enqueued before
/// a query is always applied before it.
// detlint: protocol
pub(crate) enum ShardMsg {
    /// Epoch advance with no work for this shard.
    Epoch(u64),
    /// Apply cluster operations for one ingest batch, then ack with the
    /// first error hit applying them (a failed refit leaves the claims
    /// ingested).
    Ingest {
        epoch: u64,
        ops: Vec<ClusterOp>,
        reply: Sender<ShardReturn<Option<SenseError>>>,
    },
    /// Answer a query at the given expected epoch.
    Query {
        epoch: u64,
        query: ShardQuery,
        reply: Sender<ShardReturn<ShardReply>>,
    },
    /// Exit the worker loop.
    Shutdown,
}

/// A shard's reply, stamped with its identity and current epoch.
pub(crate) struct ShardReturn<T> {
    pub shard: usize,
    pub epoch: u64,
    pub payload: Result<T, ServeError>,
}

/// One cluster operation within an ingest batch.
// detlint: protocol
pub(crate) enum ClusterOp {
    /// Create — or rebuild after membership growth / a merge — the
    /// cluster's full state by replaying its batch history (global-id
    /// claims; the final batch is the one just ingested).
    Build {
        key: u32,
        sources: Vec<u32>,
        assertions: Vec<u32>,
        batches: Vec<Vec<TimedClaim>>,
    },
    /// Append one sub-batch to an existing cluster whose membership did
    /// not change.
    Append { key: u32, claims: Vec<TimedClaim> },
    /// Remove a cluster merged away to another key.
    Drop { key: u32 },
    /// Install a cluster from a checkpoint (recovery): rebuild the
    /// compacted world and restore its slot bit-identically — no
    /// history replay.
    Restore(Box<ClusterSnapshot>),
}

/// A query forwarded to one shard.
// detlint: protocol
pub(crate) enum ShardQuery {
    /// Posterior of one global assertion owned by cluster `key`.
    Posterior { key: u32, assertion: u32 },
    /// Posteriors of every assertion owned by this shard.
    Posteriors,
    /// Fitted parameters of every source owned by this shard.
    TopSources,
    /// Per-cluster bounds: `(key, global assertion ids)` groups.
    Bound {
        groups: Vec<(u32, Vec<u32>)>,
        method: BoundMethod,
    },
    /// Counter partials of every cluster on this shard.
    Stats,
    /// Checkpoint export: every hosted cluster's full state.
    Export,
}

/// A shard's answer to one [`ShardQuery`].
pub(crate) enum ShardReply {
    Posterior(f64),
    /// `(global assertion, posterior)` pairs for owned assertions.
    Posteriors(Vec<(u32, f64)>),
    /// `(global source, fitted params, cluster prior z)` per owned
    /// source, unranked; the router ranks.
    TopSources(Vec<(u32, SourceParams, f64)>),
    /// `(key, bound, assertion count)` per requested group.
    Bound(Vec<(u32, BoundResult, usize)>),
    Stats(SlotStats),
    /// Checkpoint slices of every hosted cluster, ascending by key.
    Export(Vec<ClusterSnapshot>),
}

/// One hosted cluster: its compacted world and serving slot.
struct ClusterSlot {
    world: ClusterWorld,
    slot: Slot,
}

impl ClusterSlot {
    /// Remaps a global-id sub-batch to local ids, ingests it, and
    /// refits the cluster; a failed refit leaves the claims ingested.
    fn ingest(&mut self, claims: &[TimedClaim], epoch: u64, key: u32) -> Result<(), SenseError> {
        let local = self.world.localize_batch(claims)?;
        self.slot.ingest(&local)?;
        self.slot.refit(epoch, key)
    }
}

/// The single-threaded owner of one shard's clusters.
pub(crate) struct ShardWorker {
    idx: usize,
    cfg: ServeConfig,
    /// The full follow relation; cluster worlds induce their subgraphs
    /// from it.
    graph: FollowerGraph,
    clusters: BTreeMap<u32, ClusterSlot>,
    epoch: u64,
    obs: Obs,
    /// Messages sent but not yet picked up (router increments).
    depth: Arc<AtomicUsize>,
    /// `serve.shard.<idx>.queue.depth`, named once.
    depth_gauge: String,
    /// `serve.shard.<idx>.requests_total`, named once.
    requests_counter: String,
}

impl ShardWorker {
    pub(crate) fn new(
        idx: usize,
        cfg: ServeConfig,
        graph: FollowerGraph,
        obs: Obs,
        depth: Arc<AtomicUsize>,
    ) -> Self {
        Self {
            idx,
            cfg,
            graph,
            clusters: BTreeMap::new(),
            epoch: 0,
            obs,
            depth,
            depth_gauge: format!("serve.shard.{idx}.queue.depth"),
            requests_counter: format!("serve.shard.{idx}.requests_total"),
        }
    }

    pub(crate) fn run(mut self, rx: Receiver<ShardMsg>) {
        while let Ok(msg) = rx.recv() {
            let waiting = self.depth.fetch_sub(1, Ordering::Relaxed) - 1;
            self.obs.gauge(&self.depth_gauge, waiting as f64);
            match msg {
                ShardMsg::Epoch(e) => self.epoch = e,
                ShardMsg::Ingest { epoch, ops, reply } => {
                    self.epoch = epoch;
                    self.obs.counter(&self.requests_counter, 1);
                    let error = self.apply_ops(ops);
                    let _ = reply.send(ShardReturn {
                        shard: self.idx,
                        epoch: self.epoch,
                        payload: Ok(error),
                    });
                }
                ShardMsg::Query {
                    epoch,
                    query,
                    reply,
                } => {
                    self.obs.counter(&self.requests_counter, 1);
                    let payload = if epoch == self.epoch {
                        self.answer(query)
                    } else {
                        // FIFO delivery makes this unreachable: every
                        // epoch advance is enqueued before any query
                        // stamped with it.
                        Err(ServeError::Protocol("shard epoch behind query epoch"))
                    };
                    let _ = reply.send(ShardReturn {
                        shard: self.idx,
                        epoch: self.epoch,
                        payload,
                    });
                }
                ShardMsg::Shutdown => return,
            }
        }
    }

    /// Applies every operation in order; returns the first error.
    fn apply_ops(&mut self, ops: Vec<ClusterOp>) -> Option<SenseError> {
        let mut first = None;
        for op in ops {
            let applied = match op {
                ClusterOp::Drop { key } => {
                    self.clusters.remove(&key);
                    Ok(())
                }
                ClusterOp::Append { key, claims } => self.append(key, &claims),
                ClusterOp::Build {
                    key,
                    sources,
                    assertions,
                    batches,
                } => self.build(key, &sources, &assertions, &batches),
                ClusterOp::Restore(snap) => self.restore(*snap),
            };
            first = first.or(applied.err());
        }
        first
    }

    /// A fresh cluster over the given global members.
    fn new_cluster(&self, sources: &[u32], assertions: &[u32]) -> Result<ClusterSlot, SenseError> {
        let world = ClusterWorld::new(sources, assertions, &self.graph)?;
        let slot = Slot::new(
            world.source_count(),
            world.assertion_count(),
            world.graph().clone(),
            &self.cfg,
            self.obs.clone(),
        )?;
        Ok(ClusterSlot { world, slot })
    }

    /// Installs a cluster from its checkpoint slice: same construction
    /// path as [`build`](Self::build), but the slot state comes
    /// bit-exact from the snapshot instead of a history replay.
    fn restore(&mut self, snap: ClusterSnapshot) -> Result<(), SenseError> {
        let mut cluster = self.new_cluster(&snap.sources, &snap.assertions)?;
        cluster.slot.restore(&snap.slot)?;
        self.clusters.insert(snap.key, cluster);
        Ok(())
    }

    /// Creates or rebuilds a cluster by replaying its batch history
    /// under the live refit policy, making the resulting state — chain
    /// fit, warm-start chain, and counters — a pure function of
    /// `(membership, batch history)` regardless of when the cluster
    /// landed on this shard.
    fn build(
        &mut self,
        key: u32,
        sources: &[u32],
        assertions: &[u32],
        batches: &[Vec<TimedClaim>],
    ) -> Result<(), SenseError> {
        self.clusters.remove(&key);
        let mut cluster = self.new_cluster(sources, assertions)?;
        let mut replayed = Ok(());
        for batch in batches {
            // Every batch replays; the first error is kept.
            let refit = cluster.ingest(batch, self.epoch, key);
            replayed = replayed.and(refit);
        }
        self.clusters.insert(key, cluster);
        replayed
    }

    fn append(&mut self, key: u32, claims: &[TimedClaim]) -> Result<(), SenseError> {
        let epoch = self.epoch;
        let cluster = self.clusters.get_mut(&key).ok_or(SenseError::EmptyData)?;
        cluster.ingest(claims, epoch, key)
    }

    fn cluster(&mut self, key: u32) -> Result<&mut ClusterSlot, ServeError> {
        self.clusters
            .get_mut(&key)
            .ok_or(ServeError::Protocol("cluster not hosted on this shard"))
    }

    fn answer(&mut self, query: ShardQuery) -> Result<ShardReply, ServeError> {
        match query {
            ShardQuery::Posterior { key, assertion } => {
                let cluster = self.cluster(key)?;
                let local = cluster
                    .world
                    .local_assertion(assertion)
                    .ok_or(ServeError::Protocol("assertion not in routed cluster"))?;
                Ok(ShardReply::Posterior(
                    cluster.slot.posteriors()[local as usize],
                ))
            }
            ShardQuery::Posteriors => {
                let mut out = Vec::new();
                for cluster in self.clusters.values() {
                    for (local, p) in cluster.slot.posteriors().iter().enumerate() {
                        out.push((cluster.world.global_assertion(local as u32), *p));
                    }
                }
                Ok(ShardReply::Posteriors(out))
            }
            ShardQuery::TopSources => {
                let mut out = Vec::new();
                for cluster in self.clusters.values() {
                    let (z, params) = cluster.slot.sources();
                    let ids = cluster.world.global_sources();
                    out.extend(ids.iter().zip(params.iter()).map(|(&i, s)| (i, *s, z)));
                }
                Ok(ShardReply::TopSources(out))
            }
            ShardQuery::Bound { groups, method } => {
                let mut out = Vec::with_capacity(groups.len());
                for (key, assertions) in groups {
                    let cluster = self.cluster(key)?;
                    let locals: Vec<u32> = assertions
                        .iter()
                        .map(|&j| {
                            cluster
                                .world
                                .local_assertion(j)
                                .ok_or(ServeError::Protocol("assertion not in routed cluster"))
                        })
                        .collect::<Result<_, _>>()?;
                    let bound = cluster.slot.bound(&locals, &method)?;
                    out.push((key, bound, locals.len()));
                }
                Ok(ShardReply::Bound(out))
            }
            ShardQuery::Stats => {
                let mut stats = SlotStats::default();
                for cluster in self.clusters.values() {
                    stats.merge(cluster.slot.stats());
                }
                Ok(ShardReply::Stats(stats))
            }
            ShardQuery::Export => Ok(ShardReply::Export(
                self.clusters
                    .iter()
                    .map(|(&key, cluster)| ClusterSnapshot {
                        key,
                        sources: cluster.world.global_sources().to_vec(),
                        assertions: cluster.world.global_assertions().to_vec(),
                        slot: cluster.slot.checkpoint(),
                    })
                    .collect(),
            )),
        }
    }
}
