//! Streaming (recursive) truth estimation over a growing claim log.
//!
//! The paper's related work points to recursive estimators for social
//! *data streams* (Yao et al., IPSN 2016): during a live event claims
//! arrive continuously, and refitting EM from scratch on every batch
//! wastes work because the parameter estimate moves slowly once enough
//! data has accumulated. [`StreamingEstimator`] keeps the claim log, the
//! follow relation, and the last `θ̂`; each [`estimate`] call rebuilds the
//! (cheap, sparse) `SC`/`D` matrices and **warm-starts** EM from the
//! previous parameters via [`EmExt::fit_warm`]. A warm run steps in
//! safeguarded SQUAREM cycles (two EM maps, then one extrapolation that
//! is kept only if the shrinkage objective does not drop), so it
//! converges in a fraction of a cold start's maps; the served fit is
//! still a plain map's output.
//!
//! [`estimate`]: StreamingEstimator::estimate

use std::collections::BTreeSet;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use socsense_graph::{CellChange, ClaimLogIndex, FollowerGraph, TimedClaim};
use socsense_obs::Obs;

use crate::data::ClaimData;
use crate::delta::{DeltaConfig, DeltaEngine, RefitMode, RefitOutcome};
use crate::em::{EmConfig, EmExt, EmFit};
use crate::error::SenseError;
use crate::model::Theta;
use crate::state::{StreamingState, ThetaBits};

/// How strongly a warm refit leans on the previous `θ̂`: its start is the
/// convex blend `WARM_BLEND · θ̂_prev + (1 − WARM_BLEND) · anchor`, where
/// the anchor is the data-driven initialisation on the *current* log
/// ([`EmExt::data_driven_start`]). A pure warm start (1.0) locks in the
/// basin a thin early prefix seeds (streams often deliver biased
/// prefixes, roots first), plateauing about 0.07 lower in accuracy on
/// `repro streaming` despite a higher final likelihood; 0.5 keeps most of
/// the iteration saving while the anchor pulls the fit back.
const WARM_BLEND: f64 = 0.5;

/// Incremental fact-finder over a growing claim stream.
///
/// # Example
///
/// ```
/// use socsense_core::{EmConfig, StreamingEstimator};
/// use socsense_graph::{FollowerGraph, TimedClaim};
///
/// let mut g = FollowerGraph::new(3);
/// g.add_follow(2, 0);
/// let mut est = StreamingEstimator::new(3, 2, g, EmConfig::default())?;
///
/// est.ingest(&[TimedClaim::new(0, 0, 1), TimedClaim::new(1, 0, 2)])?;
/// let first = est.estimate()?;
///
/// est.ingest(&[TimedClaim::new(2, 0, 3)])?; // a dependent repeat arrives
/// let second = est.estimate()?;
/// assert_eq!(second.posterior.len(), 2);
/// # let _ = first;
/// # Ok::<(), socsense_core::SenseError>(())
/// ```
#[derive(Debug, Clone)]
pub struct StreamingEstimator {
    n: u32,
    m: u32,
    graph: FollowerGraph,
    config: EmConfig,
    mode: RefitMode,
    claims: Vec<TimedClaim>,
    /// Incrementally maintained earliest-claim index: rebuilds the
    /// `SC`/`D` pair in `O(nnz)` (never re-walking the claim log) and,
    /// while a delta engine is live, reports which cells each batch
    /// changed.
    log_index: ClaimLogIndex,
    last_theta: Option<Theta>,
    /// Claims ingested since the last [`estimate`](Self::estimate).
    pending: usize,
    /// `SC`/`D` built from the current log, keyed on the claim count it
    /// was built at (`None` until the first [`snapshot`](Self::snapshot)
    /// after an ingest). Long-lived readers issuing many queries between
    /// batches share one build.
    snapshot_cache: Option<(usize, Arc<ClaimData>)>,
    /// The delta refit engine, present in [`RefitMode::Delta`] once the
    /// first (full) refit has seeded it.
    engine: Option<DeltaEngine>,
    /// Cell-membership changes since the last committed refit, not yet
    /// folded into the engine.
    pending_changes: Vec<CellChange>,
    /// Sources that claimed since the last committed refit.
    pending_sources: BTreeSet<u32>,
    obs: Obs,
}

/// Statistics about one incremental refit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RefitStats {
    /// EM iterations this refit used.
    pub iterations: usize,
    /// Whether the refit was warm-started from a previous `θ̂`.
    pub warm: bool,
    /// Total claims in the log after the refit.
    pub total_claims: usize,
    /// Which code path served the refit: a full EM, a scoped delta
    /// refit, or a delta chain falling back to the full path.
    pub mode: RefitOutcome,
    /// Assertions whose posterior this refit re-evaluated (`m` for the
    /// full paths).
    pub touched_assertions: usize,
    /// Sources whose statistics this refit touched (`n` for the full
    /// paths).
    pub touched_sources: usize,
    /// Whether the fit's `log_likelihood` is the exact observed-data
    /// value. Always `true` for the full paths (including fallbacks); a
    /// scoped delta refit serves a bounded-stale sum unless
    /// [`DeltaConfig::exact_ll`] requests the amortised exact refresh.
    #[serde(default)]
    pub ll_exact: bool,
}

impl StreamingEstimator {
    /// Creates an estimator over `n` sources and `m` assertions with the
    /// given follow relation.
    ///
    /// # Errors
    ///
    /// Returns [`SenseError::EmptyData`] when `n == 0` or `m == 0`, and
    /// [`SenseError::DimensionMismatch`] when the graph covers a
    /// different number of sources.
    pub fn new(n: u32, m: u32, graph: FollowerGraph, config: EmConfig) -> Result<Self, SenseError> {
        if n == 0 || m == 0 {
            return Err(SenseError::EmptyData);
        }
        if graph.node_count() != n {
            return Err(SenseError::DimensionMismatch {
                what: "follower graph node count vs n",
                expected: n as usize,
                actual: graph.node_count() as usize,
            });
        }
        Ok(Self {
            n,
            m,
            graph,
            config,
            mode: RefitMode::Full,
            claims: Vec::new(),
            log_index: ClaimLogIndex::new(n, m),
            last_theta: None,
            pending: 0,
            snapshot_cache: None,
            engine: None,
            pending_changes: Vec::new(),
            pending_sources: BTreeSet::new(),
            obs: Obs::none(),
        })
    }

    /// Selects how subsequent refits run (see [`RefitMode`]).
    ///
    /// Switching modes — including replacing one [`DeltaConfig`] with
    /// another — discards any delta engine state, so the next refit runs
    /// the full path (and, in delta mode, re-seeds the engine from it).
    /// The claim log and warm-start state are kept.
    ///
    /// # Errors
    ///
    /// Returns [`SenseError::BadConfig`] when a [`DeltaConfig`]
    /// threshold is negative or not finite.
    pub fn set_refit_mode(&mut self, mode: RefitMode) -> Result<(), SenseError> {
        if let RefitMode::Delta(cfg) = &mode {
            cfg.validate()?;
        }
        self.mode = mode;
        self.engine = None;
        self.pending_changes.clear();
        self.pending_sources.clear();
        Ok(())
    }

    /// The active refit mode.
    pub fn refit_mode(&self) -> RefitMode {
        self.mode
    }

    /// Attaches a metrics handle; refits then report `stream.*` metrics
    /// (warm/cold refit counts, iteration histograms, wall time) and
    /// forward the handle into the inner [`EmExt`] so its `em.*`
    /// convergence metrics land in the same sink. Observation-only:
    /// fits are bit-identical with or without a sink.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// Number of sources this estimator covers.
    pub fn source_count(&self) -> u32 {
        self.n
    }

    /// Number of assertions this estimator covers.
    pub fn assertion_count(&self) -> u32 {
        self.m
    }

    /// Replaces the EM configuration used by subsequent refits.
    ///
    /// The claim log, warm-start state, and cached snapshot are all kept;
    /// configuration errors surface from the next refit (exactly as they
    /// would from [`EmExt::fit`]), and — unlike on older revisions — a
    /// refit that fails on a bad configuration leaves the warm-start
    /// state intact.
    pub fn set_config(&mut self, config: EmConfig) {
        self.config = config;
    }

    /// The warm-start parameters from the last successful refit, if any.
    pub fn last_theta(&self) -> Option<&Theta> {
        self.last_theta.as_ref()
    }

    /// Appends a batch of claims to the log.
    ///
    /// # Errors
    ///
    /// Returns [`SenseError::DimensionMismatch`] if a claim references an
    /// out-of-range source or assertion; the batch is then rejected
    /// atomically.
    pub fn ingest(&mut self, batch: &[TimedClaim]) -> Result<(), SenseError> {
        for c in batch {
            if c.source >= self.n {
                return Err(SenseError::DimensionMismatch {
                    what: "claim source id vs n",
                    expected: self.n as usize,
                    actual: c.source as usize,
                });
            }
            if c.assertion >= self.m {
                return Err(SenseError::DimensionMismatch {
                    what: "claim assertion id vs m",
                    expected: self.m as usize,
                    actual: c.assertion as usize,
                });
            }
        }
        self.claims.extend_from_slice(batch);
        // The index shares build_matrices' bounds contract; the loop
        // above already guaranteed it cannot panic here. A live delta
        // engine is the only reader of cell changes, so every other
        // ingest (full mode, and `restore_state`, which installs the
        // engine only afterwards) merges without tracking them.
        if matches!(self.mode, RefitMode::Delta(_)) && self.engine.is_some() {
            let changes = self.log_index.ingest(&self.graph, batch);
            self.pending_changes.extend(changes);
            self.pending_sources.extend(batch.iter().map(|c| c.source));
        } else {
            self.log_index.merge(&self.graph, batch);
        }
        self.pending += batch.len();
        self.obs
            .counter("stream.ingest.claims_total", batch.len() as u64);
        Ok(())
    }

    /// Number of claims ingested so far.
    pub fn claim_count(&self) -> usize {
        self.claims.len()
    }

    /// Claims ingested since the last [`estimate`](Self::estimate).
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// The current `SC`/`D` snapshot.
    ///
    /// The snapshot is cached keyed on the claim count and invalidated by
    /// [`ingest`](Self::ingest): between batches, repeated calls (every
    /// query of a serving layer goes through here) return the same `Arc`.
    /// A rebuild after an ingest materialises the matrices from the
    /// incrementally maintained claim-log index — `O(nnz)`, never
    /// re-walking the whole log — and is structurally identical to a
    /// fresh [`ClaimData::from_claims`] build (regression-tested).
    pub fn snapshot(&mut self) -> Arc<ClaimData> {
        match &self.snapshot_cache {
            Some((at, data)) if *at == self.claims.len() => Arc::clone(data),
            _ => {
                let (sc, d) = self.log_index.build();
                let data = Arc::new(ClaimData::from_parts(sc, d));
                self.snapshot_cache = Some((self.claims.len(), Arc::clone(&data)));
                data
            }
        }
    }

    /// Refits on everything ingested so far, warm-starting from the
    /// previous estimate when one exists.
    ///
    /// # Errors
    ///
    /// Propagates estimator errors.
    pub fn estimate(&mut self) -> Result<EmFit, SenseError> {
        let (fit, _) = self.estimate_with_stats()?;
        Ok(fit)
    }

    /// As [`estimate`](Self::estimate), also reporting refit statistics.
    ///
    /// # Errors
    ///
    /// Propagates estimator errors.
    pub fn estimate_with_stats(&mut self) -> Result<(EmFit, RefitStats), SenseError> {
        // The refit is fallible (a bad configuration, for instance), so
        // the warm-start state and pending counter mutate only *after* it
        // succeeds: a failed refit must not demote later refits to cold.
        let (fit, stats) = self.refit_once()?;
        self.last_theta = Some(fit.theta.clone());
        self.pending = 0;
        self.pending_changes.clear();
        self.pending_sources.clear();
        Ok((fit, stats))
    }

    /// One refit, dispatched by [`RefitMode`]. Advances the delta engine
    /// (when one is active) but never the warm-start state or pending
    /// buffers — those commit in
    /// [`estimate_with_stats`](Self::estimate_with_stats) only.
    fn refit_once(&mut self) -> Result<(EmFit, RefitStats), SenseError> {
        let RefitMode::Delta(dcfg) = self.mode else {
            return self.refit_full(RefitOutcome::Full);
        };
        // Validate before touching any incremental state: a failed refit
        // must leave the warm-start state *and* the engine intact.
        self.config.validate()?;
        match self.engine.take() {
            // First refit of the chain: run full to seed the engine.
            None => self.full_and_seed(dcfg, RefitOutcome::Full),
            Some(engine) if engine.pre_trigger(self.pending) => {
                self.full_and_seed(dcfg, RefitOutcome::Fallback)
            }
            Some(mut engine) => {
                let timer = self.obs.timer("stream.refit.seconds");
                let changed = engine.apply_structure_changes(&self.pending_changes);
                let mut sources: BTreeSet<u32> = self.pending_sources.clone();
                sources.extend(self.pending_changes.iter().map(|c| c.source));
                let sources: Vec<u32> = sources.into_iter().collect();
                let touched = engine.touched_set(&changed, &sources);
                let report = engine.refit(&self.config, &touched, &sources, self.pending)?;
                if report.divergence_bound > dcfg.max_divergence {
                    // Post-hoc trigger: the staleness bound crossed the
                    // cap, so discard the scoped work (the taken engine
                    // drops here) and serve the full warm path instead.
                    return self.full_and_seed(dcfg, RefitOutcome::Fallback);
                }
                let fit = engine.fit(&report);
                let stats = RefitStats {
                    iterations: report.iterations,
                    warm: true,
                    total_claims: self.claims.len(),
                    mode: RefitOutcome::Delta,
                    touched_assertions: touched.len(),
                    touched_sources: sources.len(),
                    ll_exact: dcfg.exact_ll,
                };
                if self.obs.enabled() {
                    self.obs.counter("stream.refits_total", 1);
                    self.obs.counter("stream.refit.delta_total", 1);
                    self.obs
                        .observe("stream.refit.iterations", report.iterations as f64);
                    self.obs
                        .observe("stream.delta.touched_assertions", touched.len() as f64);
                    self.obs
                        .observe("stream.delta.touched_sources", sources.len() as f64);
                    self.obs.observe("stream.delta.drift", report.drift);
                    self.obs
                        .gauge("stream.delta.divergence_bound", report.divergence_bound);
                    self.obs
                        .gauge("stream.delta.accumulated_drift", engine.accumulated_drift());
                    self.obs.gauge("stream.claims", self.claims.len() as f64);
                    timer.stop();
                }
                self.engine = Some(engine);
                Ok((fit, stats))
            }
        }
    }

    /// Runs the full path and (re)seeds the delta engine from its fit.
    fn full_and_seed(
        &mut self,
        dcfg: DeltaConfig,
        outcome: RefitOutcome,
    ) -> Result<(EmFit, RefitStats), SenseError> {
        let (fit, stats) = self.refit_full(outcome)?;
        let data = self.snapshot();
        self.engine = Some(DeltaEngine::init(dcfg, &data, &fit, self.claims.len()));
        if outcome == RefitOutcome::Fallback {
            self.obs.counter("stream.delta.fallbacks_total", 1);
        }
        Ok((fit, stats))
    }

    /// One full refit over the current log: warm-started from the
    /// blended previous `θ̂` when one exists, cold otherwise. Touches no
    /// state beyond the snapshot cache. This is the code path every
    /// delta fallback re-enters, which is what makes fallback fits
    /// bit-identical to [`RefitMode::Full`] fits.
    fn refit_full(&mut self, outcome: RefitOutcome) -> Result<(EmFit, RefitStats), SenseError> {
        let timer = self.obs.timer("stream.refit.seconds");
        let data = self.snapshot();
        let em = EmExt::new(self.config).with_obs(self.obs.clone());
        let (fit, warm) = match self.last_theta.as_ref() {
            Some(prev) => {
                let anchor = em.data_driven_start(&data);
                let start = blend_theta(prev, &anchor);
                (em.fit_warm(&data, start)?, true)
            }
            None => (em.fit(&data)?, false),
        };
        let stats = RefitStats {
            iterations: fit.iterations,
            warm,
            total_claims: self.claims.len(),
            mode: outcome,
            touched_assertions: self.m as usize,
            touched_sources: self.n as usize,
            ll_exact: true,
        };
        if self.obs.enabled() {
            self.obs.counter("stream.refits_total", 1);
            let kind = if warm {
                "stream.refit.warm_total"
            } else {
                "stream.refit.cold_total"
            };
            self.obs.counter(kind, 1);
            self.obs
                .observe("stream.refit.iterations", fit.iterations as f64);
            self.obs.gauge("stream.claims", self.claims.len() as f64);
            timer.stop();
        }
        Ok((fit, stats))
    }

    /// Serializes the complete estimator state for a durability snapshot
    /// (see [`StreamingState`]): the full claim log, the warm-start
    /// chain, any delta engine, and the pending buffers — everything
    /// [`restore_state`](Self::restore_state) needs to reproduce this
    /// estimator bit for bit.
    pub fn export_state(&self) -> StreamingState {
        StreamingState {
            n: self.n,
            m: self.m,
            claims: self.claims.clone(),
            last_theta: self.last_theta.as_ref().map(ThetaBits::from_theta),
            pending: self.pending,
            engine: self.engine.as_ref().map(DeltaEngine::export_state),
            pending_changes: self.pending_changes.clone(),
            pending_sources: self.pending_sources.iter().copied().collect(),
        }
    }

    /// Restores a snapshot onto this estimator, which must be freshly
    /// constructed (no claims ingested) over the same `n`, `m`, graph,
    /// and configuration as the estimator the snapshot was exported
    /// from.
    ///
    /// The claim log replays through the normal ingest path (rebuilding
    /// the claim-log index), and every float of the warm-start chain and
    /// delta engine is installed verbatim from its bits — so the
    /// restored estimator's subsequent refits and queries are
    /// `f64::to_bits`-identical to the uninterrupted estimator's.
    ///
    /// # Errors
    ///
    /// [`SenseError::BadConfig`] when this estimator already holds
    /// claims, the shapes disagree, or the snapshot carries a delta
    /// engine while this estimator is not in delta mode (a configuration
    /// mismatch that would silently change served numbers);
    /// [`SenseError::DimensionMismatch`] when a snapshot claim is out of
    /// range.
    pub fn restore_state(&mut self, state: &StreamingState) -> Result<(), SenseError> {
        if !self.claims.is_empty() || self.pending != 0 {
            return Err(SenseError::BadConfig {
                what: "restore_state requires a freshly constructed estimator",
            });
        }
        if state.n != self.n || state.m != self.m {
            return Err(SenseError::BadConfig {
                what: "streaming state shape does not match this estimator",
            });
        }
        if state.engine.is_some() && !matches!(self.mode, RefitMode::Delta(_)) {
            return Err(SenseError::BadConfig {
                what: "snapshot carries a delta engine but the estimator is not in delta mode",
            });
        }
        let engine = state
            .engine
            .as_ref()
            .map(|e| DeltaEngine::from_state(e, self.n as usize, self.m as usize))
            .transpose()?;
        let last_theta = state
            .last_theta
            .as_ref()
            .map(ThetaBits::to_theta)
            .transpose()?;
        // Replay the whole log as one batch: the claim-log index is
        // batching-invariant, and with no engine installed yet the
        // replay only merges, tracking no cell changes (the snapshot's
        // own pending buffers are installed verbatim below).
        self.ingest(&state.claims)?;
        self.last_theta = last_theta;
        self.engine = engine;
        self.pending = state.pending;
        self.pending_changes = state.pending_changes.clone();
        self.pending_sources = state.pending_sources.iter().copied().collect();
        self.snapshot_cache = None;
        Ok(())
    }
}

/// Per-parameter convex combination `w·prev + (1-w)·anchor` at
/// `w = WARM_BLEND`.
fn blend_theta(prev: &Theta, anchor: &Theta) -> Theta {
    let w = WARM_BLEND;
    let mut out = anchor.clone();
    let mix = |a: f64, b: f64| w * a + (1.0 - w) * b;
    for i in 0..prev.source_count() {
        let p = prev.source(i);
        let q = anchor.source(i);
        out.set_source(
            i,
            crate::model::SourceParams {
                a: mix(p.a, q.a),
                b: mix(p.b, q.b),
                f: mix(p.f, q.f),
                g: mix(p.g, q.g),
            },
        );
    }
    out.set_z(mix(prev.z(), anchor.z()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A reliable/unreliable two-camp world streamed in batches.
    fn stream_batches(
        batches: usize,
        per_batch: usize,
    ) -> (FollowerGraph, Vec<Vec<TimedClaim>>, Vec<bool>) {
        let n = 10u32;
        let m = 20u32;
        let truth: Vec<bool> = (0..m).map(|j| j < 12).collect();
        let mut rng = StdRng::seed_from_u64(31);
        let graph = FollowerGraph::new(n);
        let mut t = 0u64;
        let out = (0..batches)
            .map(|_| {
                (0..per_batch)
                    .map(|_| {
                        let s = rng.gen_range(0..n);
                        // Sources 0..7 honest, 8..9 liars.
                        let honest = s < 8;
                        let j = loop {
                            let j = rng.gen_range(0..m);
                            if truth[j as usize] == honest {
                                break j;
                            }
                        };
                        t += 1;
                        TimedClaim::new(s, j, t)
                    })
                    .collect()
            })
            .collect();
        (graph, out, truth)
    }

    #[test]
    #[cfg_attr(miri, ignore = "refit chain is too slow under Miri")]
    fn warm_start_converges_faster_than_cold() {
        let (graph, batches, _) = stream_batches(4, 40);
        let mut est = StreamingEstimator::new(10, 20, graph.clone(), EmConfig::default()).unwrap();
        let mut warm_iters = Vec::new();
        let mut all: Vec<TimedClaim> = Vec::new();
        let mut cold_iters = Vec::new();
        for batch in &batches {
            est.ingest(batch).unwrap();
            let (_, stats) = est.estimate_with_stats().unwrap();
            warm_iters.push(stats.iterations);
            // Cold baseline on the same prefix.
            all.extend_from_slice(batch);
            let data = ClaimData::from_claims(10, 20, &all, &graph);
            let cold = EmExt::new(EmConfig::default()).fit(&data).unwrap();
            cold_iters.push(cold.iterations);
        }
        // After the first batch, warm refits use (weakly) fewer iterations.
        let warm_total: usize = warm_iters[1..].iter().sum();
        let cold_total: usize = cold_iters[1..].iter().sum();
        assert!(
            warm_total <= cold_total,
            "warm {warm_iters:?} vs cold {cold_iters:?}"
        );
    }

    #[test]
    #[cfg_attr(miri, ignore = "refit chain is too slow under Miri")]
    fn streaming_matches_batch_posterior_at_the_end() {
        let (graph, batches, truth) = stream_batches(3, 60);
        let mut est = StreamingEstimator::new(10, 20, graph.clone(), EmConfig::default()).unwrap();
        let mut all = Vec::new();
        for batch in &batches {
            est.ingest(batch).unwrap();
            all.extend_from_slice(batch);
        }
        let streamed = est.estimate().unwrap();
        let data = ClaimData::from_claims(10, 20, &all, &graph);
        let batch_fit = EmExt::new(EmConfig::default()).fit(&data).unwrap();
        // Same data, both converged: labels agree with ground truth and
        // with each other.
        let lab_s: Vec<bool> = streamed.posterior.iter().map(|&p| p > 0.5).collect();
        let lab_b: Vec<bool> = batch_fit.posterior.iter().map(|&p| p > 0.5).collect();
        assert_eq!(lab_s, lab_b);
        assert_eq!(lab_s, truth);
    }

    #[test]
    fn ingest_validates_ids_atomically() {
        let mut est =
            StreamingEstimator::new(3, 2, FollowerGraph::new(3), EmConfig::default()).unwrap();
        let bad = [TimedClaim::new(0, 0, 1), TimedClaim::new(9, 0, 2)];
        assert!(est.ingest(&bad).is_err());
        assert_eq!(est.claim_count(), 0, "batch must be rejected atomically");
        assert!(est.ingest(&[TimedClaim::new(0, 1, 1)]).is_ok());
        assert_eq!(est.pending(), 1);
    }

    #[test]
    fn construction_validates_shape() {
        assert!(matches!(
            StreamingEstimator::new(0, 5, FollowerGraph::new(0), EmConfig::default()),
            Err(SenseError::EmptyData)
        ));
        assert!(matches!(
            StreamingEstimator::new(3, 5, FollowerGraph::new(4), EmConfig::default()),
            Err(SenseError::DimensionMismatch { .. })
        ));
    }

    #[test]
    #[cfg_attr(miri, ignore = "refit chain is too slow under Miri")]
    fn failed_refit_preserves_warm_state() {
        let (graph, batches, _) = stream_batches(3, 30);
        let mut est = StreamingEstimator::new(10, 20, graph, EmConfig::default()).unwrap();
        est.ingest(&batches[0]).unwrap();
        let (_, s1) = est.estimate_with_stats().unwrap();
        assert!(!s1.warm);
        est.ingest(&batches[1]).unwrap();
        // Inject a refit failure: a zero iteration budget is rejected by
        // EM before any work happens.
        est.set_config(EmConfig {
            max_iters: 0,
            ..EmConfig::default()
        });
        assert!(matches!(
            est.estimate_with_stats(),
            Err(SenseError::BadConfig { .. })
        ));
        assert_eq!(
            est.pending(),
            batches[1].len(),
            "failed refit must not consume pending claims"
        );
        assert!(
            est.last_theta().is_some(),
            "failed refit must not drop the warm-start state"
        );
        est.set_config(EmConfig::default());
        let (_, s2) = est.estimate_with_stats().unwrap();
        assert!(s2.warm, "the next successful refit must still be warm");
    }

    #[test]
    #[cfg_attr(miri, ignore = "refit chain is too slow under Miri")]
    fn snapshot_is_cached_until_new_claims_arrive() {
        let (graph, batches, _) = stream_batches(2, 20);
        let mut est = StreamingEstimator::new(10, 20, graph.clone(), EmConfig::default()).unwrap();
        est.ingest(&batches[0]).unwrap();
        let a = est.snapshot();
        let b = est.snapshot();
        assert!(Arc::ptr_eq(&a, &b), "no ingest between calls: same build");
        est.ingest(&batches[1]).unwrap();
        let c = est.snapshot();
        assert!(!Arc::ptr_eq(&a, &c), "ingest must invalidate the cache");
        let mut all = batches[0].clone();
        all.extend_from_slice(&batches[1]);
        assert_eq!(*c, ClaimData::from_claims(10, 20, &all, &graph));
    }

    #[test]
    #[cfg_attr(miri, ignore = "refit chain is too slow under Miri")]
    fn metrics_record_warm_and_cold_refits_without_changing_fits() {
        let (graph, batches, _) = stream_batches(2, 30);
        let mut plain =
            StreamingEstimator::new(10, 20, graph.clone(), EmConfig::default()).unwrap();
        let mut traced = StreamingEstimator::new(10, 20, graph, EmConfig::default()).unwrap();
        let (obs, rec) = Obs::recorder();
        traced.set_obs(obs);

        let bits = |fit: &EmFit| {
            fit.posterior
                .iter()
                .map(|p| p.to_bits())
                .collect::<Vec<_>>()
        };
        for batch in &batches {
            plain.ingest(batch).unwrap();
            traced.ingest(batch).unwrap();
            let a = plain.estimate().unwrap();
            let b = traced.estimate().unwrap();
            assert_eq!(bits(&a), bits(&b), "recorder must not perturb the fit");
        }

        let snap = rec.snapshot();
        assert_eq!(snap.counter("stream.refits_total"), 2);
        assert_eq!(snap.counter("stream.refit.cold_total"), 1);
        assert_eq!(snap.counter("stream.refit.warm_total"), 1);
        assert_eq!(snap.counter("stream.ingest.claims_total"), 60);
        assert_eq!(snap.gauge("stream.claims"), Some(60.0));
        assert_eq!(snap.histogram("stream.refit.iterations").unwrap().count, 2);
        assert_eq!(snap.histogram("stream.refit.seconds").unwrap().count, 2);
        // The estimator forwards its handle into EM, so convergence
        // metrics land in the same sink.
        assert!(snap.counter("em.runs_total") >= 2);
        assert_eq!(snap.counter("em.warm_starts_total"), 1);
    }

    #[test]
    #[cfg_attr(miri, ignore = "refit chain is too slow under Miri")]
    fn delta_mode_seeds_full_then_refits_scoped() {
        let (graph, batches, _) = stream_batches(4, 30);
        let mut est = StreamingEstimator::new(10, 20, graph, EmConfig::default()).unwrap();
        est.set_refit_mode(RefitMode::Delta(DeltaConfig {
            // Thresholds far out of reach: every refit after the seed
            // must run scoped.
            max_drift: 1e9,
            max_batch_fraction: 1e9,
            max_divergence: 1e9,
            ..DeltaConfig::default()
        }))
        .unwrap();
        let mut modes = Vec::new();
        for batch in &batches {
            est.ingest(batch).unwrap();
            let (fit, stats) = est.estimate_with_stats().unwrap();
            assert_eq!(fit.posterior.len(), 20);
            modes.push(stats.mode);
            if stats.mode == RefitOutcome::Delta {
                assert!(stats.warm);
                assert!(stats.touched_assertions <= 20);
            } else {
                assert_eq!(stats.touched_assertions, 20);
                assert_eq!(stats.touched_sources, 10);
            }
        }
        assert_eq!(modes[0], RefitOutcome::Full, "first refit seeds the engine");
        assert!(
            modes[1..].iter().all(|&m| m == RefitOutcome::Delta),
            "unreachable thresholds must keep the chain scoped: {modes:?}"
        );
    }

    #[test]
    #[cfg_attr(miri, ignore = "refit chain is too slow under Miri")]
    fn delta_zero_batch_fraction_is_bit_identical_to_full() {
        // max_batch_fraction = 0 falls back on every batch, so the delta
        // chain re-enters the full warm path each refit and must
        // reproduce RefitMode::Full bit for bit — the fallback
        // bit-identity contract.
        let (graph, batches, _) = stream_batches(4, 25);
        let mut full = StreamingEstimator::new(10, 20, graph.clone(), EmConfig::default()).unwrap();
        let mut delta = StreamingEstimator::new(10, 20, graph, EmConfig::default()).unwrap();
        delta
            .set_refit_mode(RefitMode::Delta(DeltaConfig {
                max_batch_fraction: 0.0,
                ..DeltaConfig::default()
            }))
            .unwrap();
        let bits = |fit: &EmFit| {
            let mut v: Vec<u64> = fit.posterior.iter().map(|p| p.to_bits()).collect();
            for s in fit.theta.sources() {
                v.extend([s.a, s.b, s.f, s.g].map(f64::to_bits));
            }
            v
        };
        for (k, batch) in batches.iter().enumerate() {
            full.ingest(batch).unwrap();
            delta.ingest(batch).unwrap();
            let (fa, sa) = full.estimate_with_stats().unwrap();
            let (fb, sb) = delta.estimate_with_stats().unwrap();
            assert_eq!(bits(&fa), bits(&fb), "batch {k}");
            assert_eq!(fa.theta.z().to_bits(), fb.theta.z().to_bits());
            assert_eq!(sa.iterations, sb.iterations);
            let expected = if k == 0 {
                RefitOutcome::Full
            } else {
                RefitOutcome::Fallback
            };
            assert_eq!(sb.mode, expected, "batch {k}");
            assert_eq!(sa.mode, RefitOutcome::Full);
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "refit chain is too slow under Miri")]
    fn delta_failed_refit_preserves_engine_and_pending() {
        let (graph, batches, _) = stream_batches(3, 30);
        let mut est = StreamingEstimator::new(10, 20, graph, EmConfig::default()).unwrap();
        est.set_refit_mode(RefitMode::Delta(DeltaConfig::default()))
            .unwrap();
        est.ingest(&batches[0]).unwrap();
        est.estimate().unwrap();
        est.ingest(&batches[1]).unwrap();
        est.set_config(EmConfig {
            max_iters: 0,
            ..EmConfig::default()
        });
        assert!(matches!(
            est.estimate_with_stats(),
            Err(SenseError::BadConfig { .. })
        ));
        assert_eq!(est.pending(), batches[1].len());
        assert!(est.last_theta().is_some());
        est.set_config(EmConfig::default());
        let (_, stats) = est.estimate_with_stats().unwrap();
        assert!(
            stats.mode == RefitOutcome::Delta || stats.mode == RefitOutcome::Fallback,
            "the engine must survive the failed refit: {:?}",
            stats.mode
        );
    }

    #[test]
    fn delta_mode_validates_config() {
        let (graph, _, _) = stream_batches(1, 5);
        let mut est = StreamingEstimator::new(10, 20, graph, EmConfig::default()).unwrap();
        assert!(matches!(
            est.set_refit_mode(RefitMode::Delta(DeltaConfig {
                max_divergence: f64::NAN,
                ..DeltaConfig::default()
            })),
            Err(SenseError::BadConfig { .. })
        ));
        assert_eq!(est.refit_mode(), RefitMode::Full, "rejected mode not set");
    }

    #[test]
    #[cfg_attr(miri, ignore = "refit chain is too slow under Miri")]
    fn delta_metrics_record_scoped_refits_and_fallbacks() {
        let (graph, batches, _) = stream_batches(3, 30);
        let mut est = StreamingEstimator::new(10, 20, graph, EmConfig::default()).unwrap();
        let (obs, rec) = Obs::recorder();
        est.set_obs(obs);
        est.set_refit_mode(RefitMode::Delta(DeltaConfig {
            max_drift: 1e9,
            max_batch_fraction: 1e9,
            max_divergence: 1e9,
            ..DeltaConfig::default()
        }))
        .unwrap();
        for batch in &batches {
            est.ingest(batch).unwrap();
            est.estimate().unwrap();
        }
        // Force a fallback: unreachable thresholds replaced by an
        // always-trip fraction.
        est.set_refit_mode(RefitMode::Delta(DeltaConfig {
            max_batch_fraction: 0.0,
            ..DeltaConfig::default()
        }))
        .unwrap();
        est.estimate().unwrap(); // re-seed (full)
        est.ingest(&batches[0]).unwrap();
        est.estimate().unwrap(); // fallback
        let snap = rec.snapshot();
        assert_eq!(snap.counter("stream.refit.delta_total"), 2);
        assert_eq!(snap.counter("stream.delta.fallbacks_total"), 1);
        assert_eq!(
            snap.histogram("stream.delta.touched_assertions")
                .unwrap()
                .count,
            2
        );
        assert_eq!(snap.histogram("stream.delta.drift").unwrap().count, 2);
        assert!(snap.gauge("stream.delta.divergence_bound").is_some());
        assert_eq!(snap.counter("stream.refits_total"), 5);
    }

    #[test]
    #[cfg_attr(miri, ignore = "refit chain is too slow under Miri")]
    fn fallback_restores_exact_ll_and_stats_flag_it() {
        use crate::likelihood::data_log_likelihood_with;
        // Scoped refits serve a bounded-stale ℓℓ and must say so; a
        // fallback re-enters the full path and must restore the exact
        // value (bit-equal to a fresh full evaluation under its θ).
        let (graph, batches, _) = stream_batches(3, 30);
        let mut est = StreamingEstimator::new(10, 20, graph, EmConfig::default()).unwrap();
        est.set_refit_mode(RefitMode::Delta(DeltaConfig {
            max_drift: 1e9,
            max_batch_fraction: 1e9,
            max_divergence: 1e9,
            ..DeltaConfig::default()
        }))
        .unwrap();
        est.ingest(&batches[0]).unwrap();
        let (seed_fit, seed_stats) = est.estimate_with_stats().unwrap();
        assert_eq!(seed_stats.mode, RefitOutcome::Full);
        assert!(seed_stats.ll_exact, "a full refit's ℓℓ is exact");
        let exact = |est: &mut StreamingEstimator, theta: &Theta| {
            let data = est.snapshot();
            data_log_likelihood_with(&data, theta, EmConfig::default().parallelism).unwrap()
        };
        assert_eq!(
            seed_fit.log_likelihood.to_bits(),
            exact(&mut est, &seed_fit.theta).to_bits()
        );
        est.ingest(&batches[1]).unwrap();
        let (_, delta_stats) = est.estimate_with_stats().unwrap();
        assert_eq!(delta_stats.mode, RefitOutcome::Delta);
        assert!(
            !delta_stats.ll_exact,
            "a scoped refit without exact_ll serves the stale sum and must be flagged"
        );
        // Now force a fallback: the full path must restore exactness.
        est.set_refit_mode(RefitMode::Delta(DeltaConfig {
            max_batch_fraction: 0.0,
            ..DeltaConfig::default()
        }))
        .unwrap();
        est.estimate().unwrap(); // re-seed after the mode switch
        est.ingest(&batches[2]).unwrap();
        let (fb_fit, fb_stats) = est.estimate_with_stats().unwrap();
        assert_eq!(fb_stats.mode, RefitOutcome::Fallback);
        assert!(fb_stats.ll_exact, "a fallback restores the exact ℓℓ");
        assert_eq!(
            fb_fit.log_likelihood.to_bits(),
            exact(&mut est, &fb_fit.theta).to_bits()
        );
    }

    #[test]
    #[cfg_attr(miri, ignore = "refit chain is too slow under Miri")]
    fn exact_ll_mode_serves_exact_ll_from_scoped_refits() {
        use crate::likelihood::data_log_likelihood_with;
        let (graph, batches, _) = stream_batches(3, 30);
        let mut est = StreamingEstimator::new(10, 20, graph, EmConfig::default()).unwrap();
        est.set_refit_mode(RefitMode::Delta(DeltaConfig {
            max_drift: 1e9,
            max_batch_fraction: 1e9,
            max_divergence: 1e9,
            exact_ll: true,
        }))
        .unwrap();
        est.ingest(&batches[0]).unwrap();
        est.estimate().unwrap(); // seed
        est.ingest(&batches[1]).unwrap();
        let (fit, stats) = est.estimate_with_stats().unwrap();
        assert_eq!(stats.mode, RefitOutcome::Delta);
        assert!(stats.ll_exact);
        let data = est.snapshot();
        let exact =
            data_log_likelihood_with(&data, &fit.theta, EmConfig::default().parallelism).unwrap();
        assert_eq!(
            fit.log_likelihood.to_bits(),
            exact.to_bits(),
            "exact_ll scoped refit must match the full evaluation bit for bit"
        );
    }

    #[test]
    #[cfg_attr(miri, ignore = "refit chain is too slow under Miri")]
    fn export_restore_round_trip_is_bit_identical_full_mode() {
        let (graph, batches, _) = stream_batches(4, 30);
        let mut est = StreamingEstimator::new(10, 20, graph.clone(), EmConfig::default()).unwrap();
        est.ingest(&batches[0]).unwrap();
        est.estimate().unwrap();
        // Ingested but not refit: the export carries the batch as pending.
        est.ingest(&batches[1]).unwrap();
        let state = est.export_state();

        let mut restored = StreamingEstimator::new(10, 20, graph, EmConfig::default()).unwrap();
        restored.restore_state(&state).unwrap();
        assert_eq!(restored.claim_count(), est.claim_count());
        assert_eq!(restored.pending(), est.pending());

        let bits = |fit: &EmFit| {
            let mut v: Vec<u64> = fit.posterior.iter().map(|p| p.to_bits()).collect();
            for s in fit.theta.sources() {
                v.extend([s.a, s.b, s.f, s.g].map(f64::to_bits));
            }
            v.push(fit.log_likelihood.to_bits());
            v
        };
        for batch in &batches[2..] {
            est.ingest(batch).unwrap();
            restored.ingest(batch).unwrap();
            let (fa, sa) = est.estimate_with_stats().unwrap();
            let (fb, sb) = restored.estimate_with_stats().unwrap();
            assert_eq!(bits(&fa), bits(&fb));
            assert_eq!(sa, sb);
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "refit chain is too slow under Miri")]
    fn export_restore_round_trip_is_bit_identical_delta_mode() {
        let (graph, batches, _) = stream_batches(5, 25);
        let mode = RefitMode::Delta(DeltaConfig {
            max_drift: 1e9,
            max_batch_fraction: 1e9,
            max_divergence: 1e9,
            ..DeltaConfig::default()
        });
        let mut est = StreamingEstimator::new(10, 20, graph.clone(), EmConfig::default()).unwrap();
        est.set_refit_mode(mode).unwrap();
        est.ingest(&batches[0]).unwrap();
        est.estimate().unwrap(); // seed the engine
        est.ingest(&batches[1]).unwrap();
        est.estimate().unwrap(); // scoped refit advances Λ/stamps
        est.ingest(&batches[2]).unwrap(); // pending changes not yet folded
        let state = est.export_state();

        let mut restored = StreamingEstimator::new(10, 20, graph, EmConfig::default()).unwrap();
        restored.set_refit_mode(mode).unwrap();
        restored.restore_state(&state).unwrap();

        let bits = |fit: &EmFit| {
            fit.posterior
                .iter()
                .map(|p| p.to_bits())
                .collect::<Vec<_>>()
        };
        for batch in &batches[3..] {
            est.ingest(batch).unwrap();
            restored.ingest(batch).unwrap();
            let (fa, sa) = est.estimate_with_stats().unwrap();
            let (fb, sb) = restored.estimate_with_stats().unwrap();
            assert_eq!(sa.mode, RefitOutcome::Delta, "chain must stay scoped");
            assert_eq!(bits(&fa), bits(&fb));
            assert_eq!(fa.log_likelihood.to_bits(), fb.log_likelihood.to_bits());
            assert_eq!(sa, sb);
        }
    }

    #[test]
    fn restore_state_validates_preconditions() {
        let (graph, batches, _) = stream_batches(2, 10);
        let mut est = StreamingEstimator::new(10, 20, graph.clone(), EmConfig::default()).unwrap();
        est.ingest(&batches[0]).unwrap();
        let state = est.export_state();
        // Not fresh.
        let mut dirty =
            StreamingEstimator::new(10, 20, graph.clone(), EmConfig::default()).unwrap();
        dirty.ingest(&batches[1]).unwrap();
        assert!(matches!(
            dirty.restore_state(&state),
            Err(SenseError::BadConfig { .. })
        ));
        // Wrong shape.
        let mut small =
            StreamingEstimator::new(10, 19, FollowerGraph::new(10), EmConfig::default()).unwrap();
        assert!(matches!(
            small.restore_state(&state),
            Err(SenseError::BadConfig { .. })
        ));
        // A delta snapshot cannot restore onto a Full-mode estimator.
        let mut delta_est =
            StreamingEstimator::new(10, 20, graph.clone(), EmConfig::default()).unwrap();
        delta_est
            .set_refit_mode(RefitMode::Delta(DeltaConfig::default()))
            .unwrap();
        delta_est.ingest(&batches[0]).unwrap();
        delta_est.estimate().unwrap(); // seeds the engine
        let delta_state = delta_est.export_state();
        assert!(delta_state.engine.is_some());
        let mut full_mode = StreamingEstimator::new(10, 20, graph, EmConfig::default()).unwrap();
        assert!(matches!(
            full_mode.restore_state(&delta_state),
            Err(SenseError::BadConfig { .. })
        ));
    }

    #[test]
    #[cfg_attr(miri, ignore = "refit chain is too slow under Miri")]
    fn dependent_repeats_are_tracked_across_batches() {
        let mut g = FollowerGraph::new(2);
        g.add_follow(1, 0);
        let mut est = StreamingEstimator::new(2, 1, g, EmConfig::default()).unwrap();
        est.ingest(&[TimedClaim::new(0, 0, 1)]).unwrap();
        assert_eq!(est.snapshot().dependent_claim_count(), 0);
        est.ingest(&[TimedClaim::new(1, 0, 2)]).unwrap();
        let snap = est.snapshot();
        assert!(snap.dependent(1, 0), "cross-batch repeat must be dependent");
        assert_eq!(snap.dependent_claim_count(), 1);
    }
}
