//! One serving slot: a warm-started EM-Ext refit chain over one world,
//! shared by both tiers. The serial worker owns one slot over the
//! global world; each shard owns one per hosted cluster, over the
//! cluster's compacted (local-id) world.
//!
//! A slot holds the [`StreamingEstimator`], the fit of the last chain
//! refit, the query-driven probe fit and its cache, the refit counters,
//! and the ingest-time refit policy (see the crate docs for chain vs.
//! probe refits), plus one checkpoint type covering all of it. Whatever
//! a slot serves is a pure function of its constructor arguments and
//! the batches it ingested.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use socsense_core::{
    bound_for_assertions_traced, BoundMethod, BoundResult, EmFit, EmFitBits, RefitOutcome,
    RefitStats, SenseError, SourceParams, StreamingEstimator, StreamingState,
};
use socsense_graph::{FollowerGraph, TimedClaim};
use socsense_matrix::Parallelism;
use socsense_obs::Obs;

use crate::api::{ServeConfig, ServeStats, SourceRank};

/// The most recent successful refit of a slot, ordered by
/// `(epoch, key)` — within one ingest epoch clusters refit in key
/// order, so across slots the lexicographic maximum is "most recent".
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub(crate) struct LastRefit {
    epoch: u64,
    key: u32,
    iterations: usize,
    touched_assertions: usize,
    touched_sources: usize,
    /// Whether the refit reported an exact log-likelihood. Last field
    /// so the `(epoch, key)`-first lexicographic order is untouched.
    ll_exact: bool,
}

/// Refit counters of one slot. A cluster rebuild resets the
/// replay-scoped half (replaying history reconstructs it, keeping every
/// counter a pure function of the cluster's batch history) and keeps
/// the query-scoped half (probe refits and cache hits), because queries
/// are not replayed.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub(crate) struct SlotCounters {
    chain_refits: u64,
    warm_refits: u64,
    delta_refits: u64,
    fallback_refits: u64,
    failed_refits: u64,
    probe_refits: u64,
    probe_cache_hits: u64,
}

/// Summable statistics of one or more slots: pending claims and
/// counters add, the most recent refit wins. Both tiers build their
/// [`ServeStats`] from this.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SlotStats {
    pending: usize,
    counters: SlotCounters,
    last_refit: Option<LastRefit>,
}

impl SlotStats {
    /// Folds another slot's statistics into these.
    pub fn merge(&mut self, other: SlotStats) {
        let (c, o) = (&mut self.counters, other.counters);
        c.chain_refits += o.chain_refits;
        c.warm_refits += o.warm_refits;
        c.delta_refits += o.delta_refits;
        c.fallback_refits += o.fallback_refits;
        c.failed_refits += o.failed_refits;
        c.probe_refits += o.probe_refits;
        c.probe_cache_hits += o.probe_cache_hits;
        self.pending += other.pending;
        self.last_refit = self.last_refit.max(other.last_refit);
    }

    /// The service's operating statistics, given the counts the slots
    /// do not keep.
    pub fn serve_stats(self, total_claims: usize, requests_served: u64) -> ServeStats {
        let c = self.counters;
        let last = self.last_refit;
        ServeStats {
            total_claims,
            pending_claims: self.pending,
            requests_served,
            chain_refits: c.chain_refits,
            probe_refits: c.probe_refits,
            probe_cache_hits: c.probe_cache_hits,
            failed_refits: c.failed_refits,
            warm_refits: c.warm_refits,
            delta_refits: c.delta_refits,
            fallback_refits: c.fallback_refits,
            last_refit_iterations: last.map(|l| l.iterations),
            last_touched_assertions: last.map(|l| l.touched_assertions),
            last_touched_sources: last.map(|l| l.touched_sources),
            last_ll_exact: last.map(|l| l.ll_exact),
        }
    }
}

/// A slot's checkpoint: the estimator's full streaming state, the
/// cached chain fit, and the counters — everything the slot needs to
/// answer bit-identically after a restart. The probe cache is not
/// saved; it refills on the next query. Chain-refit counters are
/// advanced exactly by tail replay; query-driven counters resume from
/// their checkpoint values and are not replayed.
#[derive(Serialize, Deserialize)]
pub(crate) struct SlotCheckpoint {
    stream: StreamingState,
    /// The chain fit without its `θ`: every chain refit makes that `θ`
    /// the stream's warm start, so `stream.last_theta` holds it.
    chain_fit: Option<EmFitBits>,
    counters: SlotCounters,
    last_refit: Option<LastRefit>,
}

/// One warm-started refit chain with its cached fits and counters.
pub(crate) struct Slot {
    est: StreamingEstimator,
    /// Fit of the last warm-start-chain refit (covers the log up to the
    /// last chain advance; exactly current while nothing is pending).
    chain_fit: Option<Arc<EmFit>>,
    /// Query-driven probe fit, keyed on the claim count it covered.
    probe_fit: Option<(usize, Arc<EmFit>)>,
    counters: SlotCounters,
    last_refit: Option<LastRefit>,
    /// [`ServeConfig::refit_pending_claims`], counted over this slot's
    /// pending claims only.
    refit_pending_claims: usize,
    /// [`ServeConfig::parallelism`], for bound evaluation.
    parallelism: Parallelism,
    obs: Obs,
}

impl Slot {
    /// The serving tiers' one estimator constructor: a slot over `n`
    /// sources and `m` assertions with the follow relation `graph`,
    /// configured from `cfg`. Spawn-time validation builds one too, so
    /// both tiers reject the same shapes and configurations.
    ///
    /// # Errors
    ///
    /// [`SenseError`] for an invalid shape or refit mode.
    pub fn new(
        n: u32,
        m: u32,
        graph: FollowerGraph,
        cfg: &ServeConfig,
        obs: Obs,
    ) -> Result<Self, SenseError> {
        let mut est = StreamingEstimator::new(n, m, graph, cfg.em)?;
        est.set_refit_mode(cfg.refit_mode)?;
        est.set_obs(obs.clone());
        Ok(Self {
            est,
            chain_fit: None,
            probe_fit: None,
            counters: SlotCounters::default(),
            last_refit: None,
            refit_pending_claims: cfg.refit_pending_claims,
            parallelism: cfg.parallelism,
            obs,
        })
    }

    /// Installs a checkpoint: estimator state, chain fit, counters, and
    /// last refit come back bit-exact.
    pub fn restore(&mut self, ckpt: &SlotCheckpoint) -> Result<(), SenseError> {
        self.est.restore_state(&ckpt.stream)?;
        self.chain_fit = match (&ckpt.chain_fit, self.est.last_theta()) {
            (Some(bits), Some(theta)) => Some(Arc::new(bits.to_fit(theta.clone()))),
            (Some(_), None) => {
                return Err(SenseError::BadConfig {
                    what: "checkpoint holds a chain fit but no warm start",
                })
            }
            (None, _) => None,
        };
        self.counters = ckpt.counters;
        self.last_refit = ckpt.last_refit;
        Ok(())
    }

    /// This slot's checkpoint.
    pub fn checkpoint(&self) -> SlotCheckpoint {
        debug_assert!(
            self.chain_fit.as_ref().map(|fit| &fit.theta) == self.est.last_theta(),
            "a chain refit makes its θ the warm start"
        );
        SlotCheckpoint {
            stream: self.est.export_state(),
            chain_fit: self.chain_fit.as_deref().map(EmFitBits::from_fit),
            counters: self.counters,
            last_refit: self.last_refit,
        }
    }

    /// Carries the query-scoped counters of `old`, the slot this one
    /// rebuilds, over (see [`SlotCounters`]).
    pub fn inherit_query_counters(&mut self, old: &Slot) {
        self.counters.probe_refits = old.counters.probe_refits;
        self.counters.probe_cache_hits = old.counters.probe_cache_hits;
    }

    pub fn assertion_count(&self) -> u32 {
        self.est.assertion_count()
    }

    pub fn claim_count(&self) -> usize {
        self.est.claim_count()
    }

    /// Claims not yet covered by a chain refit.
    pub fn pending(&self) -> usize {
        self.est.pending()
    }

    pub fn stats(&self) -> SlotStats {
        SlotStats {
            pending: self.est.pending(),
            counters: self.counters,
            last_refit: self.last_refit,
        }
    }

    /// Appends a batch (slot-local ids) to the log. A batch with an
    /// out-of-range claim is rejected atomically.
    pub fn ingest(&mut self, claims: &[TimedClaim]) -> Result<(), SenseError> {
        self.est.ingest(claims)?;
        // The log changed: any cached probe is stale.
        self.probe_fit = None;
        Ok(())
    }

    /// The ingest-time refit policy: advances the warm-start chain — a
    /// full refit whose `θ̂` seeds the next one — once at least
    /// `refit_pending_claims` claims are pending, and reports whether it
    /// did. Only ingest processing calls this, so the chain, and with it
    /// every served number, is a pure function of the ingest sequence,
    /// never of query timing. A failed refit leaves the claims ingested
    /// and the warm-start state intact.
    pub fn refit_if_due(&mut self, epoch: u64, key: u32) -> Result<bool, SenseError> {
        if self.refit_pending_claims == 0 || self.est.pending() < self.refit_pending_claims {
            return Ok(false);
        }
        let refit = self.est.estimate_with_stats();
        self.chain_fit = Some(self.book(refit, true, epoch, key)?);
        Ok(true)
    }

    /// The fit covering the full current log: the chain fit when nothing
    /// is pending, else a cached *probe* refit — fresh, but leaving the
    /// warm-start chain untouched (see
    /// [`StreamingEstimator::peek_estimate`]).
    pub fn fresh_fit(&mut self, epoch: u64, key: u32) -> Result<Arc<EmFit>, SenseError> {
        if self.est.pending() == 0 {
            if let Some(fit) = &self.chain_fit {
                return Ok(Arc::clone(fit));
            }
        }
        let claims = self.est.claim_count();
        if let Some((at, fit)) = &self.probe_fit {
            if *at == claims {
                self.counters.probe_cache_hits += 1;
                self.obs.counter("serve.cache.probe_hits_total", 1);
                return Ok(Arc::clone(fit));
            }
        }
        let refit = self.est.peek_estimate();
        let fit = self.book(refit, false, epoch, key)?;
        self.probe_fit = Some((claims, Arc::clone(&fit)));
        Ok(fit)
    }

    /// Mean Bayes-risk bound over `assertions` (slot-local ids) under
    /// the fresh fit.
    pub fn bound(
        &mut self,
        assertions: &[u32],
        method: &BoundMethod,
        epoch: u64,
        key: u32,
    ) -> Result<BoundResult, SenseError> {
        let fit = self.fresh_fit(epoch, key)?;
        let data = self.est.snapshot();
        bound_for_assertions_traced(
            &data,
            &fit.theta,
            method,
            assertions,
            self.parallelism,
            &self.obs,
        )
    }

    /// Per-refit bookkeeping of chain and probe refits alike: the
    /// refit-kind, warm, and delta-mode counters plus the last refit's
    /// shape, stamped `(epoch, key)`; a failure counts as a failed
    /// refit.
    fn book(
        &mut self,
        refit: Result<(EmFit, RefitStats), SenseError>,
        chain: bool,
        epoch: u64,
        key: u32,
    ) -> Result<Arc<EmFit>, SenseError> {
        let (fit, stats) = match refit {
            Ok(done) => done,
            Err(e) => {
                self.counters.failed_refits += 1;
                self.obs.counter("serve.refit.failed_total", 1);
                return Err(e);
            }
        };
        if chain {
            self.counters.chain_refits += 1;
            self.obs.counter("serve.refit.chain_total", 1);
        } else {
            self.counters.probe_refits += 1;
            self.obs.counter("serve.refit.probe_total", 1);
        }
        if stats.warm {
            self.counters.warm_refits += 1;
            self.obs.counter("serve.refit.warm_total", 1);
        }
        match stats.mode {
            RefitOutcome::Full => {}
            RefitOutcome::Delta => {
                self.counters.delta_refits += 1;
                self.obs.counter("serve.refit.delta_total", 1);
            }
            RefitOutcome::Fallback => {
                self.counters.fallback_refits += 1;
                self.obs.counter("serve.refit.fallback_total", 1);
            }
        }
        self.last_refit = Some(LastRefit {
            epoch,
            key,
            iterations: stats.iterations,
            touched_assertions: stats.touched_assertions,
            touched_sources: stats.touched_sources,
            ll_exact: stats.ll_exact,
        });
        Ok(Arc::new(fit))
    }
}

/// Ranks sources by independent-claim precision
/// `z·a / (z·a + (1−z)·b)`, best first with ties toward the lower
/// source id, and keeps the top `k`. Each entry is `(source id, fitted
/// parameters, the fit's prior z)`, so one call ranks sources drawn
/// from any number of fits; both tiers rank here.
pub(crate) fn rank_sources(
    entries: impl IntoIterator<Item = (u32, SourceParams, f64)>,
    k: usize,
) -> Vec<SourceRank> {
    let mut ranks: Vec<SourceRank> = entries
        .into_iter()
        .map(|(source, s, z)| SourceRank {
            source,
            precision: z * s.a / (z * s.a + (1.0 - z) * s.b),
            params: s,
        })
        .collect();
    ranks.sort_by(|x, y| {
        y.precision
            .partial_cmp(&x.precision)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(x.source.cmp(&y.source))
    });
    ranks.truncate(k);
    ranks
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn top_sources_ranks_by_precision_and_clamps_k() {
        let p = |a: f64, b: f64| SourceParams {
            a,
            b,
            f: 0.5,
            g: 0.5,
        };
        let neutral = p(0.5, 0.5);
        let entries = [
            (0, p(0.9, 0.1), 0.5),
            (1, neutral, 0.5),
            (2, p(0.8, 0.1), 0.5),
        ];
        let ranks = rank_sources(entries, 10);
        assert_eq!(ranks.len(), 3, "k larger than n is clamped");
        assert_eq!(ranks[0].source, 0);
        assert_eq!(ranks[1].source, 2);
        assert!(ranks[0].precision > ranks[1].precision);
        assert_eq!(ranks[2].precision, 0.5, "neutral parameters rank at 0.5");
        assert_eq!(rank_sources(entries, 2).len(), 2);
    }
}
