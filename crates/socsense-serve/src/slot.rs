//! One serving slot: a warm-started EM-Ext refit chain over one world,
//! shared by both tiers. The serial worker owns one slot over the
//! global world; each shard owns one per hosted cluster, over the
//! cluster's compacted (local-id) world.
//!
//! A slot holds the [`StreamingEstimator`], the fit of its last chain
//! refit, and the refit counters, plus one checkpoint type covering all
//! of it. Every ingest refits; a read answers from the chain fit and
//! never runs EM. Before the first refit a slot answers the neutral
//! values below, which the router also answers for whatever no cluster
//! owns. Whatever a slot serves is a pure function of its constructor
//! arguments and the batches it ingested.

use std::borrow::Cow;

use serde::{Deserialize, Serialize};

use socsense_core::{
    bound_for_assertions_traced, exact_bound, BoundMethod, BoundResult, EmFit, EmFitBits,
    RefitOutcome, RefitStats, SenseError, SourceParams, StreamingEstimator, StreamingState,
};
use socsense_graph::{FollowerGraph, TimedClaim};
use socsense_matrix::Parallelism;
use socsense_obs::Obs;

use crate::api::{ServeConfig, ServeStats, SourceRank};

/// The prior `z` of a world no fit covers, and so the posterior of each
/// of its assertions: with nothing to condition on, a coin flip.
pub(crate) const NEUTRAL_PRIOR: f64 = 0.5;

/// The behaviour parameters of a source no fit covers, ranked under
/// [`NEUTRAL_PRIOR`]: the prior a fit has nothing to move away from.
pub(crate) const NEUTRAL_SOURCE: SourceParams = SourceParams {
    a: 0.5,
    b: 0.5,
    f: 0.5,
    g: 0.5,
};

/// The Bayes-risk contribution of an assertion no fit covers: with no
/// claim pattern to condition on, the optimal decision is the prior
/// coin flip.
pub(crate) fn neutral_bound() -> BoundResult {
    exact_bound(&[], NEUTRAL_PRIOR).unwrap_or(BoundResult {
        error: 0.5,
        false_positive: 0.5,
        false_negative: 0.0,
    })
}

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

/// Refit counters of one slot. A cluster rebuild resets them and
/// replaying the cluster's history counts them again, so every counter
/// is a pure function of the batch history.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub(crate) struct SlotCounters {
    chain_refits: u64,
    warm_refits: u64,
    delta_refits: u64,
    fallback_refits: u64,
    failed_refits: u64,
}

/// Summable statistics of one or more slots: counters add, the most
/// recent refit wins. Both tiers build their [`ServeStats`] from this.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SlotStats {
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
        self.last_refit = self.last_refit.max(other.last_refit);
    }

    /// The service's operating statistics, given the counts the slots
    /// do not keep.
    pub fn serve_stats(self, total_claims: usize, requests_served: u64) -> ServeStats {
        let c = self.counters;
        let last = self.last_refit;
        ServeStats {
            total_claims,
            requests_served,
            chain_refits: c.chain_refits,
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
/// chain fit, and the counters — everything the slot needs to answer
/// bit-identically after a restart. Tail replay advances the counters
/// exactly as the live path did.
#[derive(Serialize, Deserialize)]
pub(crate) struct SlotCheckpoint {
    stream: StreamingState,
    /// The chain fit without its `θ`: every chain refit makes that `θ`
    /// the stream's warm start, so `stream.last_theta` holds it.
    chain_fit: Option<EmFitBits>,
    counters: SlotCounters,
    last_refit: Option<LastRefit>,
}

/// One warm-started refit chain with its chain fit and counters.
pub(crate) struct Slot {
    est: StreamingEstimator,
    /// Fit of the last successful chain refit: current unless that
    /// batch's refit failed, `None` before the first.
    chain_fit: Option<EmFit>,
    counters: SlotCounters,
    last_refit: Option<LastRefit>,
    /// [`ServeConfig::parallelism`], for bound evaluation.
    parallelism: Parallelism,
    obs: Obs,
    /// Test hook: the next [`refit`](Self::refit) fails before it
    /// reaches the estimator.
    #[cfg(test)]
    pub fail_next_refit: bool,
}

impl Slot {
    /// The serving tiers' one estimator constructor: a slot over `n`
    /// sources and `m` assertions with the follow relation `graph`,
    /// configured from `cfg`. Spawn-time validation builds one too, so
    /// both tiers reject the same shapes and configurations.
    ///
    /// # Errors
    ///
    /// [`SenseError`] for an invalid shape, EM configuration or refit
    /// mode.
    pub fn new(
        n: u32,
        m: u32,
        graph: FollowerGraph,
        cfg: &ServeConfig,
        obs: Obs,
    ) -> Result<Self, SenseError> {
        cfg.em.validate()?;
        let mut est = StreamingEstimator::new(n, m, graph, cfg.em)?;
        est.set_refit_mode(cfg.refit_mode)?;
        est.set_obs(obs.clone());
        Ok(Self {
            est,
            chain_fit: None,
            counters: SlotCounters::default(),
            last_refit: None,
            parallelism: cfg.parallelism,
            obs,
            #[cfg(test)]
            fail_next_refit: false,
        })
    }

    /// Installs a checkpoint: estimator state, chain fit, counters, and
    /// last refit come back bit-exact.
    pub fn restore(&mut self, ckpt: &SlotCheckpoint) -> Result<(), SenseError> {
        self.est.restore_state(&ckpt.stream)?;
        self.chain_fit = match (&ckpt.chain_fit, self.est.last_theta()) {
            (Some(bits), Some(theta)) => Some(bits.to_fit(theta.clone())),
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
            chain_fit: self.chain_fit.as_ref().map(EmFitBits::from_fit),
            counters: self.counters,
            last_refit: self.last_refit,
        }
    }

    pub fn assertion_count(&self) -> u32 {
        self.est.assertion_count()
    }

    pub fn claim_count(&self) -> usize {
        self.est.claim_count()
    }

    pub fn stats(&self) -> SlotStats {
        SlotStats {
            counters: self.counters,
            last_refit: self.last_refit,
        }
    }

    /// Appends a batch (slot-local ids) to the log. A batch with an
    /// out-of-range claim is rejected atomically.
    pub fn ingest(&mut self, claims: &[TimedClaim]) -> Result<(), SenseError> {
        self.est.ingest(claims)
    }

    /// Advances the warm-start chain — a full refit whose `θ̂` seeds the
    /// next one — when claims are pending. Only ingest processing calls
    /// this, so the chain, and with it every served number, is a pure
    /// function of the ingest sequence, never of query timing. A failed
    /// refit leaves the claims ingested (pending for the next refit),
    /// the warm-start state intact, and reads on the last good fit.
    pub fn refit(&mut self, epoch: u64, key: u32) -> Result<(), SenseError> {
        if self.est.pending() == 0 {
            return Ok(());
        }
        #[cfg(test)]
        if std::mem::take(&mut self.fail_next_refit) {
            let injected = Err(SenseError::BadConfig {
                what: "injected refit failure",
            });
            return self.book(injected, epoch, key).map(drop);
        }
        let refit = self.est.estimate_with_stats();
        self.chain_fit = Some(self.book(refit, epoch, key)?);
        Ok(())
    }

    /// Every assertion's posterior, in slot-local order.
    pub fn posteriors(&self) -> Cow<'_, [f64]> {
        match &self.chain_fit {
            Some(fit) => Cow::Borrowed(&fit.posterior),
            None => Cow::Owned(vec![NEUTRAL_PRIOR; self.assertion_count() as usize]),
        }
    }

    /// The fitted prior `z` and every source's parameters, in slot-local
    /// order.
    pub fn sources(&self) -> (f64, Cow<'_, [SourceParams]>) {
        match &self.chain_fit {
            Some(fit) => (fit.theta.z(), Cow::Borrowed(fit.theta.sources())),
            None => {
                let n = self.est.source_count() as usize;
                (NEUTRAL_PRIOR, Cow::Owned(vec![NEUTRAL_SOURCE; n]))
            }
        }
    }

    /// Mean Bayes-risk bound over `assertions` (slot-local, in range).
    pub fn bound(
        &mut self,
        assertions: &[u32],
        method: &BoundMethod,
    ) -> Result<BoundResult, SenseError> {
        let Some(fit) = &self.chain_fit else {
            return Ok(neutral_bound());
        };
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

    /// Per-refit bookkeeping: the refit-kind, warm, and delta-mode
    /// counters plus the last refit's shape, stamped `(epoch, key)`; a
    /// failure counts as a failed refit.
    fn book(
        &mut self,
        refit: Result<(EmFit, RefitStats), SenseError>,
        epoch: u64,
        key: u32,
    ) -> Result<EmFit, SenseError> {
        let (fit, stats) = match refit {
            Ok(done) => done,
            Err(e) => {
                self.counters.failed_refits += 1;
                self.obs.counter("serve.refit.failed_total", 1);
                return Err(e);
            }
        };
        self.counters.chain_refits += 1;
        self.obs.counter("serve.refit.chain_total", 1);
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
        Ok(fit)
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

    #[test]
    fn neutral_bound_is_the_prior_coin_flip() {
        let b = neutral_bound();
        assert!((b.error - 0.5).abs() < 1e-12);
    }
}
