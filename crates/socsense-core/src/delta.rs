//! Delta refits: `O(touched)` scoped EM for the streaming/serve path.
//!
//! A full warm refit re-evaluates every assertion posterior and resums
//! every M-step statistic on each batch — `O(history)` per ingest. Once
//! the log is large, a small batch perturbs only the columns it reaches:
//! the claim cells themselves plus the cells of the claimants' `SC`/`D`
//! rows. [`DeltaEngine`] exploits this by keeping, between refits,
//!
//! * the posterior cache `Z_j` (and log-odds / per-assertion
//!   log-likelihood terms) of the last refit,
//! * the M-step sufficient statistics of Eqs. 24–28 in incremental form
//!   (`Σ_j Z_j` plus per-source claim counts and dependent-cell sums,
//!   maintained by subtracting old and adding new contributions), and
//! * a mutable mirror of the `SC`/`D` adjacency,
//!
//! so one refit costs `O(touched columns + n + m)` per iteration instead
//! of `O(nnz(SC) + nnz(D) + n + m)`. Untouched assertions are served
//! from the cache under a *bounded staleness* contract: the engine
//! maintains a rigorous bound on how far any cached posterior can sit
//! from a fresh E-step under the current `θ` (see
//! [`divergence_bound`](DeltaEngine::divergence_bound)), and the
//! streaming layer falls back to the ordinary full warm refit — the
//! bit-identical code path of [`RefitMode::Full`] — whenever accumulated
//! drift, batch volume, or that bound crosses the [`DeltaConfig`]
//! thresholds. DESIGN.md §10 derives the sum maintenance and the bound.

use serde::{Deserialize, Serialize};

use socsense_matrix::logprob::{safe_ln, safe_ln_1m};
use socsense_matrix::parallel::{par_map_collect, par_map_reduce, Parallelism};

use crate::data::ClaimData;
use crate::em::{apply_m_step, EmConfig, EmFit, TOL};
use crate::error::SenseError;
use crate::likelihood::LikelihoodTables;
use crate::model::{SourceParams, Theta};

/// How a [`StreamingEstimator`](crate::StreamingEstimator) refits when
/// new claims arrive.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum RefitMode {
    /// Every refit is a full warm EM over the whole log (the historical
    /// behaviour).
    #[default]
    Full,
    /// Refits are scoped to the batch's touched set, falling back to a
    /// full warm refit when the configured thresholds trip.
    Delta(DeltaConfig),
}

/// Thresholds governing when a delta refit chain falls back to a full
/// warm refit. All three accumulate from the last full refit and reset
/// with it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DeltaConfig {
    /// Fallback when the summed per-refit parameter movement
    /// (`Σ max |Δθ|` across delta refits) exceeds this. Catches slow
    /// regime drift that no single refit reveals.
    pub max_drift: f64,
    /// Fallback when claims ingested since the last full refit exceed
    /// this fraction of the log size at that refit. `0.0` falls back on
    /// every batch — the configuration the bit-identity tests pin.
    pub max_batch_fraction: f64,
    /// Fallback when the proven staleness bound on any served cached
    /// posterior (the engine's per-column `¼·(Λ − stamp)` staleness
    /// bound — see `DeltaEngine::divergence_bound`) exceeds this.
    pub max_divergence: f64,
    /// Refresh the *exact* observed-data log-likelihood after every
    /// scoped refit (one `O(nnz)` pass, amortised against the scoped
    /// E-step savings) instead of serving the bounded-stale sum of
    /// per-assertion terms at their last evaluation. Off by default;
    /// posteriors are unaffected either way — this only changes the
    /// `log_likelihood` a delta fit reports, and
    /// [`RefitStats::ll_exact`](crate::RefitStats::ll_exact) records
    /// which form was served.
    #[serde(default)]
    pub exact_ll: bool,
}

impl Default for DeltaConfig {
    fn default() -> Self {
        Self {
            max_drift: 0.05,
            max_batch_fraction: 0.25,
            max_divergence: 0.05,
            exact_ll: false,
        }
    }
}

impl DeltaConfig {
    /// Validates the thresholds.
    ///
    /// # Errors
    ///
    /// Returns [`SenseError::BadConfig`] when any threshold is negative
    /// or not finite.
    pub fn validate(&self) -> Result<(), SenseError> {
        for v in [self.max_drift, self.max_batch_fraction, self.max_divergence] {
            if !v.is_finite() || v < 0.0 {
                return Err(SenseError::BadConfig {
                    what: "delta thresholds must be finite and non-negative",
                });
            }
        }
        Ok(())
    }
}

/// Which code path produced a refit (reported in
/// [`RefitStats`](crate::RefitStats)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RefitOutcome {
    /// A full EM over the whole log (cold, or the warm chain of
    /// [`RefitMode::Full`] — including the first refit of a delta chain,
    /// which always runs full to seed the engine).
    Full,
    /// A scoped delta refit served from the incremental engine.
    Delta,
    /// A delta chain that tripped a [`DeltaConfig`] threshold and ran
    /// the full warm path instead.
    Fallback,
}

/// Per-source sufficient statistics of the dependency-split M-step
/// (Eqs. 24–28), maintained incrementally.
///
/// With `Y_j = 1 − Z_j`, the M-step for source `i` needs
/// `num_a = Σ_{j: SC=1, D=0} Z_j`, `num_f = Σ_{j: SC=1, D=1} Z_j`,
/// `dep_z = Σ_{j: D=1} Z_j`, plus the claim/dependent cell counts; every
/// other numerator and denominator is derived (see `m_step`).
#[derive(Debug, Clone, Copy, Default)]
struct SourceSums {
    /// `|SC-row(i)|` — claims by `i`.
    sc_cells: usize,
    /// `|SC-row(i) ∩ D-row(i)|` — dependent claims by `i`.
    sc_dep: usize,
    /// `|D-row(i)|` — dependent cells of `i`.
    dep_cells: usize,
    /// `Σ_{j ∈ D-row(i)} Z_j`.
    dep_z: f64,
    /// `Σ_{j ∈ SC-row(i), D=0} Z_j`.
    num_a: f64,
    /// `Σ_{j ∈ SC-row(i), D=1} Z_j`.
    num_f: f64,
}

/// Result of one scoped refit, reported back to the streaming layer.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DeltaRefitReport {
    /// EM iterations the scoped loop used.
    pub iterations: usize,
    /// Whether `max |Δθ| < tol` was reached.
    pub converged: bool,
    /// `max |Δθ|` from the refit's starting `θ` to its final `θ`.
    pub drift: f64,
    /// Worst-case staleness bound over every cached posterior, after
    /// this refit.
    pub divergence_bound: f64,
}

/// The incremental engine behind [`RefitMode::Delta`].
///
/// Owned by [`StreamingEstimator`](crate::StreamingEstimator); rebuilt
/// from scratch at every full refit and advanced in place by every
/// scoped one.
#[derive(Debug, Clone)]
pub(crate) struct DeltaEngine {
    cfg: DeltaConfig,
    theta: Theta,
    /// Posterior cache: `Z_j` as of assertion `j`'s last evaluation.
    posterior: Vec<f64>,
    /// Log-odds cache, same staleness as `posterior`.
    log_odds: Vec<f64>,
    /// Per-assertion observed-data log-likelihood terms (Eq. 7 summands),
    /// same staleness as `posterior`.
    ll_terms: Vec<f64>,
    /// Mutable adjacency mirror of the `SC`/`D` matrices (sorted ids).
    sc_rows: Vec<Vec<u32>>,
    sc_cols: Vec<Vec<u32>>,
    d_rows: Vec<Vec<u32>>,
    d_cols: Vec<Vec<u32>>,
    /// Incremental M-step statistics.
    sums: Vec<SourceSums>,
    sum_z: f64,
    /// `|SC-col(j) ∪ D-col(j)|` per column, kept exact across structure
    /// changes.
    col_entries: Vec<usize>,
    /// `max(col_entries)`, kept exact: max-updated on insertions and
    /// recomputed (compacted) whenever a column at the maximum shrinks,
    /// so removals tighten the staleness bound instead of leaving a
    /// stale upper bound behind.
    max_col_entries: usize,
    /// Total logit-shift accumulator `Λ`: every refit adds an upper
    /// bound on how far an *untouched* assertion's posterior log-odds
    /// can move under its `θ` update (see `refit_shift`).
    lambda: f64,
    /// `Λ` at each assertion's last evaluation; the staleness bound for
    /// `j` is `¼ · (Λ − stamp[j])`.
    stamp: Vec<f64>,
    /// `Σ` per-refit drift since the last full refit.
    acc_drift: f64,
    /// Claims ingested since the last full refit.
    claims_since_full: usize,
    /// Log size at the last full refit (the batch-fraction denominator).
    claims_at_full: usize,
    /// Exact log-likelihood computed at the end of the last scoped refit
    /// when [`DeltaConfig::exact_ll`] is on; `None` otherwise. Never
    /// persisted — every `fit()` call follows a `refit()` in the same
    /// dispatch, which recomputes it.
    last_exact_ll: Option<f64>,
}

impl DeltaEngine {
    /// Seeds an engine from a completed full fit over `data`.
    pub(crate) fn init(
        cfg: DeltaConfig,
        data: &ClaimData,
        fit: &EmFit,
        total_claims: usize,
    ) -> Self {
        let n = data.source_count();
        let m = data.assertion_count();
        let tables = LikelihoodTables::for_data(&fit.theta, data);
        let ll_terms: Vec<f64> = (0..m)
            .map(|j| {
                tables
                    .column(data.sc().col(j as u32), data.d().col(j as u32))
                    .log_marginal
            })
            .collect();
        let sc_rows: Vec<Vec<u32>> = (0..n).map(|i| data.sc().row(i as u32).to_vec()).collect();
        let sc_cols: Vec<Vec<u32>> = (0..m).map(|j| data.sc().col(j as u32).to_vec()).collect();
        let d_rows: Vec<Vec<u32>> = (0..n).map(|i| data.d().row(i as u32).to_vec()).collect();
        let d_cols: Vec<Vec<u32>> = (0..m).map(|j| data.d().col(j as u32).to_vec()).collect();

        let mut sums = vec![SourceSums::default(); n];
        for (i, s) in sums.iter_mut().enumerate() {
            s.sc_cells = sc_rows[i].len();
            s.dep_cells = d_rows[i].len();
            for &j in &d_rows[i] {
                s.dep_z += fit.posterior[j as usize];
            }
            let mut dep_iter = d_rows[i].iter().peekable();
            for &j in &sc_rows[i] {
                while dep_iter.peek().is_some_and(|&&dj| dj < j) {
                    dep_iter.next();
                }
                let zj = fit.posterior[j as usize];
                if dep_iter.peek() == Some(&&j) {
                    s.sc_dep += 1;
                    s.num_f += zj;
                } else {
                    s.num_a += zj;
                }
            }
        }
        let sum_z: f64 = fit.posterior.iter().sum();
        let col_entries: Vec<usize> = (0..m).map(|j| union_len(&sc_cols[j], &d_cols[j])).collect();
        let max_col_entries = col_entries.iter().copied().max().unwrap_or(0);

        Self {
            cfg,
            theta: fit.theta.clone(),
            posterior: fit.posterior.clone(),
            log_odds: fit.log_odds.clone(),
            ll_terms,
            sc_rows,
            sc_cols,
            d_rows,
            d_cols,
            sums,
            sum_z,
            col_entries,
            max_col_entries,
            lambda: 0.0,
            stamp: vec![0.0; m],
            acc_drift: 0.0,
            claims_since_full: 0,
            claims_at_full: total_claims.max(1),
            last_exact_ll: None,
        }
    }

    /// Whether the chain must fall back to a full refit *before*
    /// attempting a scoped one, given `new_claims` arriving now.
    pub(crate) fn pre_trigger(&self, new_claims: usize) -> bool {
        let claims = self.claims_since_full + new_claims;
        self.acc_drift > self.cfg.max_drift
            || claims as f64 > self.cfg.max_batch_fraction * self.claims_at_full as f64
    }

    /// Worst-case bound on `|Z_j^cached − Z_j^fresh(θ_now)|` over every
    /// assertion, where `fresh` is a full E-step under the engine's
    /// current `θ` with the current `SC`/`D` structure.
    ///
    /// Derivation (DESIGN.md §10): the posterior is `σ(ℓ_j)` of the
    /// log-odds `ℓ_j`, and `|σ(x) − σ(y)| ≤ ¼ |x − y|`. Each refit's `θ`
    /// update moves any untouched `ℓ_j` by at most the refit's *shift*
    /// (see `refit_shift`), independent of `j`; shifts add along the
    /// chain, so `|ℓ_j(θ_now) − ℓ_j(θ_stamp(j))| ≤ Λ_now − Λ_stamp(j)`
    /// for every `j` whose structure is unchanged since its stamp —
    /// guaranteed, because structure changes force a column into the
    /// touched set.
    pub(crate) fn divergence_bound(&self) -> f64 {
        let min_stamp = self.stamp.iter().fold(f64::INFINITY, |acc, &s| acc.min(s));
        if min_stamp.is_finite() {
            0.25 * (self.lambda - min_stamp)
        } else {
            0.0
        }
    }

    /// Claims ingested since the engine was last seeded.
    #[cfg(test)]
    pub(crate) fn claims_since_full(&self) -> usize {
        self.claims_since_full
    }

    /// Accumulated per-refit drift since the engine was last seeded.
    pub(crate) fn accumulated_drift(&self) -> f64 {
        self.acc_drift
    }

    /// Folds a batch's cell-membership changes into the adjacency mirror
    /// and the incremental sums, using each changed cell's cached `Z_j`.
    /// Returns the sorted set of columns whose structure changed — the
    /// seed of the touched set.
    pub(crate) fn apply_structure_changes(
        &mut self,
        changes: &[socsense_graph::CellChange],
    ) -> Vec<u32> {
        let mut cols: Vec<u32> = Vec::with_capacity(changes.len());
        for ch in changes {
            let (i, j) = (ch.source as usize, ch.assertion as usize);
            let z = self.posterior[j];
            // Subtract the old membership's contributions...
            let s = &mut self.sums[i];
            if ch.before.claimed {
                s.sc_cells -= 1;
                if ch.before.dependent {
                    s.sc_dep -= 1;
                    s.num_f -= z;
                } else {
                    s.num_a -= z;
                }
            }
            if ch.before.dependent {
                s.dep_cells -= 1;
                s.dep_z -= z;
            }
            // ...and add the new membership's.
            if ch.after.claimed {
                s.sc_cells += 1;
                if ch.after.dependent {
                    s.sc_dep += 1;
                    s.num_f += z;
                } else {
                    s.num_a += z;
                }
            }
            if ch.after.dependent {
                s.dep_cells += 1;
                s.dep_z += z;
            }
            if ch.before.claimed != ch.after.claimed {
                toggle(&mut self.sc_rows[i], ch.assertion, ch.after.claimed);
                toggle(&mut self.sc_cols[j], ch.source, ch.after.claimed);
            }
            if ch.before.dependent != ch.after.dependent {
                toggle(&mut self.d_rows[i], ch.assertion, ch.after.dependent);
                toggle(&mut self.d_cols[j], ch.source, ch.after.dependent);
            }
            let entries = union_len(&self.sc_cols[j], &self.d_cols[j]);
            let before = self.col_entries[j];
            self.col_entries[j] = entries;
            if entries > self.max_col_entries {
                self.max_col_entries = entries;
            } else if entries < before && before == self.max_col_entries {
                // A column at the maximum shrank: compact instead of
                // carrying the stale upper bound into every future
                // `refit_shift` (ties at the old maximum survive the
                // rescan unchanged).
                self.max_col_entries = self.col_entries.iter().copied().max().unwrap_or(0);
            }
            cols.push(ch.assertion);
        }
        cols.sort_unstable();
        cols.dedup();
        cols
    }

    /// The touched set for a batch: columns whose structure changed plus
    /// every assertion reachable through the batch sources' `SC` and `D`
    /// rows. Sorted and deduplicated, so the scoped E-step's evaluation
    /// order — and therefore its floating-point result — is independent
    /// of batch order and worker count.
    pub(crate) fn touched_set(&self, changed_cols: &[u32], batch_sources: &[u32]) -> Vec<u32> {
        let mut touched: Vec<u32> = changed_cols.to_vec();
        for &i in batch_sources {
            touched.extend_from_slice(&self.sc_rows[i as usize]);
            touched.extend_from_slice(&self.d_rows[i as usize]);
        }
        touched.sort_unstable();
        touched.dedup();
        touched
    }

    /// One scoped EM refit over `touched`, advancing `θ`, the caches,
    /// and the staleness accounting in place. `batch_sources` must be
    /// the sorted set of sources whose rows seeded `touched` — they are
    /// excluded from the staleness shift, because no column left
    /// untouched can contain one of their cells.
    ///
    /// Mirrors the plain (cold) EM loop of `run_em_with` — E-step,
    /// M-step with hierarchical shrinkage (the same `apply_m_step`),
    /// `max |Δθ| < tol` convergence, and a pass under the final `θ` —
    /// except that the E-step touches only `touched` and the M-step
    /// reads the incremental sums. It takes no SQUAREM cycles: a scoped
    /// refit runs a handful of maps, and its fallback re-enters the full
    /// warm path, which does.
    pub(crate) fn refit(
        &mut self,
        em: &EmConfig,
        touched: &[u32],
        batch_sources: &[u32],
        new_claims: usize,
    ) -> Result<DeltaRefitReport, SenseError> {
        let start = self.theta.clone();
        let mut next = self.theta.clone();
        let mut iterations = 0;
        let mut converged = false;
        for _ in 0..em.max_iters {
            iterations += 1;
            self.scoped_e_step(em.parallelism, touched);
            let delta = self.m_step(em, &mut next);
            std::mem::swap(&mut self.theta, &mut next);
            if delta < TOL {
                converged = true;
                break;
            }
        }
        // Final cache pass under the final θ (the full path's last pass
        // in its loop runs at that θ too).
        self.scoped_e_step(em.parallelism, touched);

        // Staleness accounting: the chain's logit-shift accumulator
        // grows by this refit's worst-case per-assertion shift, and the
        // assertions just re-evaluated stamp the new level.
        let drift = start.max_abs_diff(&self.theta)?;
        self.lambda += refit_shift(&start, &self.theta, batch_sources, self.max_col_entries);
        for &j in touched {
            self.stamp[j as usize] = self.lambda;
        }
        self.acc_drift += drift;
        self.claims_since_full += new_claims;

        // Optional amortised exact-ℓℓ refresh: one full pass under the
        // final θ, bit-identical to what the full path would report over
        // the same data (see `exact_log_likelihood`).
        self.last_exact_ll = if self.cfg.exact_ll {
            Some(self.exact_log_likelihood(em.parallelism))
        } else {
            None
        };

        Ok(DeltaRefitReport {
            iterations,
            converged,
            drift,
            divergence_bound: self.divergence_bound(),
        })
    }

    /// Assembles the fit served after a scoped refit.
    ///
    /// `posterior` / `log_odds` mix fresh (touched) and cached
    /// (bounded-stale) entries. Without [`DeltaConfig::exact_ll`],
    /// `log_likelihood` sums the per-assertion terms at each one's last
    /// evaluation, so it is approximate in the same bounded sense; with
    /// it, the refit's exact refresh is served instead. `ll_history`
    /// carries only that final value — a scoped refit never walks the
    /// whole log to reconstruct the trajectory.
    pub(crate) fn fit(&self, report: &DeltaRefitReport) -> EmFit {
        let log_likelihood: f64 = match self.last_exact_ll {
            Some(ll) => ll,
            None => self.ll_terms.iter().sum(),
        };
        EmFit {
            theta: self.theta.clone(),
            posterior: self.posterior.clone(),
            log_likelihood,
            iterations: report.iterations,
            converged: report.converged,
            ll_history: vec![log_likelihood],
            log_odds: self.log_odds.clone(),
        }
    }

    /// Serializes the complete engine state, floats as `to_bits` (see
    /// [`DeltaEngineState`](crate::state::DeltaEngineState)).
    pub(crate) fn export_state(&self) -> crate::state::DeltaEngineState {
        use crate::state::{bits_of, SourceSumsState, ThetaBits};
        crate::state::DeltaEngineState {
            cfg_max_drift: self.cfg.max_drift.to_bits(),
            cfg_max_batch_fraction: self.cfg.max_batch_fraction.to_bits(),
            cfg_max_divergence: self.cfg.max_divergence.to_bits(),
            cfg_exact_ll: self.cfg.exact_ll,
            theta: ThetaBits::from_theta(&self.theta),
            posterior: bits_of(&self.posterior),
            log_odds: bits_of(&self.log_odds),
            ll_terms: bits_of(&self.ll_terms),
            sc_rows: self.sc_rows.clone(),
            sc_cols: self.sc_cols.clone(),
            d_rows: self.d_rows.clone(),
            d_cols: self.d_cols.clone(),
            sums: self
                .sums
                .iter()
                .map(|s| SourceSumsState {
                    sc_cells: s.sc_cells,
                    sc_dep: s.sc_dep,
                    dep_cells: s.dep_cells,
                    dep_z: s.dep_z.to_bits(),
                    num_a: s.num_a.to_bits(),
                    num_f: s.num_f.to_bits(),
                })
                .collect(),
            sum_z: self.sum_z.to_bits(),
            col_entries: self.col_entries.clone(),
            max_col_entries: self.max_col_entries,
            lambda: self.lambda.to_bits(),
            stamp: bits_of(&self.stamp),
            acc_drift: self.acc_drift.to_bits(),
            claims_since_full: self.claims_since_full,
            claims_at_full: self.claims_at_full,
        }
    }

    /// Reconstructs an engine from serialized state, verbatim — every
    /// incrementally maintained float is restored from its bits rather
    /// than recomputed, so a restored engine's next refit is
    /// bit-identical to the uninterrupted one's.
    ///
    /// # Errors
    ///
    /// [`SenseError::BadConfig`] when the encoded `θ` or thresholds fail
    /// validation, or the vector shapes are inconsistent.
    pub(crate) fn from_state(
        state: &crate::state::DeltaEngineState,
        n: usize,
        m: usize,
    ) -> Result<Self, SenseError> {
        use crate::state::floats_of;
        let cfg = DeltaConfig {
            max_drift: f64::from_bits(state.cfg_max_drift),
            max_batch_fraction: f64::from_bits(state.cfg_max_batch_fraction),
            max_divergence: f64::from_bits(state.cfg_max_divergence),
            exact_ll: state.cfg_exact_ll,
        };
        cfg.validate()?;
        let theta = state.theta.to_theta()?;
        let shape_ok = theta.source_count() == n
            && state.posterior.len() == m
            && state.log_odds.len() == m
            && state.ll_terms.len() == m
            && state.sc_rows.len() == n
            && state.sc_cols.len() == m
            && state.d_rows.len() == n
            && state.d_cols.len() == m
            && state.sums.len() == n
            && state.col_entries.len() == m
            && state.stamp.len() == m;
        if !shape_ok {
            return Err(SenseError::BadConfig {
                what: "delta engine state: vector shapes inconsistent with n/m",
            });
        }
        Ok(Self {
            cfg,
            theta,
            posterior: floats_of(&state.posterior),
            log_odds: floats_of(&state.log_odds),
            ll_terms: floats_of(&state.ll_terms),
            sc_rows: state.sc_rows.clone(),
            sc_cols: state.sc_cols.clone(),
            d_rows: state.d_rows.clone(),
            d_cols: state.d_cols.clone(),
            sums: state
                .sums
                .iter()
                .map(|s| SourceSums {
                    sc_cells: s.sc_cells,
                    sc_dep: s.sc_dep,
                    dep_cells: s.dep_cells,
                    dep_z: f64::from_bits(s.dep_z),
                    num_a: f64::from_bits(s.num_a),
                    num_f: f64::from_bits(s.num_f),
                })
                .collect(),
            sum_z: f64::from_bits(state.sum_z),
            col_entries: state.col_entries.clone(),
            max_col_entries: state.max_col_entries,
            lambda: f64::from_bits(state.lambda),
            stamp: floats_of(&state.stamp),
            acc_drift: f64::from_bits(state.acc_drift),
            claims_since_full: state.claims_since_full,
            claims_at_full: state.claims_at_full,
            last_exact_ll: None,
        })
    }

    /// The exact observed-data log-likelihood (Eq. 7) of the engine's
    /// current adjacency mirror under its current `θ`.
    ///
    /// Replicates `data_log_likelihood_with` exactly — same kernel, same
    /// fixed-chunk `par_map_reduce` fold — so the result is bit-identical
    /// to what the full warm path would report over the same data, at
    /// every parallelism level.
    fn exact_log_likelihood(&self, par: Parallelism) -> f64 {
        let tables = self.tables();
        par_map_reduce(
            par,
            self.posterior.len(),
            0.0,
            |range| {
                let mut sum = 0.0;
                for j in range {
                    sum += tables
                        .column(&self.sc_cols[j], &self.d_cols[j])
                        .log_marginal;
                }
                sum
            },
            |a, b| a + b,
        )
    }

    /// Likelihood tables for the current `θ` over the adjacency mirror,
    /// holding only the terms its cells read.
    fn tables(&self) -> LikelihoodTables {
        LikelihoodTables::compact(
            &self.theta,
            |i| !self.sc_rows[i].is_empty(),
            |i| !self.d_rows[i].is_empty(),
        )
    }

    /// Re-evaluates `Z_j` (and the log-odds / log-likelihood caches) for
    /// every touched assertion under the current `θ`, flowing each `ΔZ_j`
    /// into the incremental sums.
    ///
    /// Evaluation parallelises over the sorted touched list with the
    /// fixed-chunk helpers, and the (order-sensitive) sum updates apply
    /// serially in that same order — `Serial` ≡ `Threads(n)` bit for bit.
    fn scoped_e_step(&mut self, par: Parallelism, touched: &[u32]) {
        let tables = self.tables();
        let evals = par_map_collect(par, touched.len(), |k| {
            let j = touched[k] as usize;
            tables.column(&self.sc_cols[j], &self.d_cols[j])
        });
        for (k, eval) in evals.into_iter().enumerate() {
            let j = touched[k] as usize;
            let z_new = eval.posterior;
            let z_old = self.posterior[j];
            let dz = z_new - z_old;
            if dz != 0.0 {
                self.sum_z += dz;
                for &i in &self.d_cols[j] {
                    self.sums[i as usize].dep_z += dz;
                }
                let mut dep_iter = self.d_cols[j].iter().peekable();
                for &i in &self.sc_cols[j] {
                    while dep_iter.peek().is_some_and(|&&di| di < i) {
                        dep_iter.next();
                    }
                    let s = &mut self.sums[i as usize];
                    if dep_iter.peek() == Some(&&i) {
                        s.num_f += dz;
                    } else {
                        s.num_a += dz;
                    }
                }
                self.posterior[j] = z_new;
            }
            self.log_odds[j] = eval.log_odds;
            self.ll_terms[j] = eval.log_marginal;
        }
    }

    /// The dependency-split M-step (Eqs. 24–28) from the incremental
    /// sums, written into `next` by the full path's own update
    /// ([`apply_m_step`]) at `O(n)`. Returns `max |Δθ|` from the
    /// engine's `θ` to `next`.
    fn m_step(&self, em: &EmConfig, next: &mut Theta) -> f64 {
        let m = self.posterior.len() as f64;
        let sum_y = m - self.sum_z;
        let counts: Vec<[f64; 8]> = self
            .sums
            .iter()
            .map(|s| {
                let dep_y = s.dep_cells as f64 - s.dep_z;
                let num_b = (s.sc_cells - s.sc_dep) as f64 - s.num_a;
                let num_g = s.sc_dep as f64 - s.num_f;
                [
                    s.num_a,
                    self.sum_z - s.dep_z,
                    num_b,
                    sum_y - dep_y,
                    s.num_f,
                    s.dep_z,
                    num_g,
                    dep_y,
                ]
            })
            .collect();
        apply_m_step(
            em,
            &self.theta,
            &counts,
            0..counts.len(),
            self.sum_z / m,
            next,
        )
        .0
    }
}

/// Inserts (`present`) or removes id `v` in a sorted id list.
fn toggle(list: &mut Vec<u32>, v: u32, present: bool) {
    match list.binary_search(&v) {
        Ok(pos) if !present => {
            list.remove(pos);
        }
        Err(pos) if present => {
            list.insert(pos, v);
        }
        _ => {}
    }
}

/// Number of distinct ids in the union of two sorted id lists.
fn union_len(a: &[u32], b: &[u32]) -> usize {
    let (mut x, mut y, mut count) = (0usize, 0usize, 0usize);
    while x < a.len() && y < b.len() {
        match a[x].cmp(&b[y]) {
            std::cmp::Ordering::Less => x += 1,
            std::cmp::Ordering::Greater => y += 1,
            std::cmp::Ordering::Equal => {
                x += 1;
                y += 1;
            }
        }
        count += 1;
    }
    count + (a.len() - x) + (b.len() - y)
}

/// The structure-independent part of every column's posterior log-odds:
/// `G(θ) = (ln z − ln(1−z)) + (base1 − base0)` with
/// `base1 = Σ_i ln(1−a_i)`, `base0 = Σ_i ln(1−b_i)` — exactly the
/// all-silent log-odds the sparse-correction kernel starts from.
fn global_log_odds(theta: &Theta) -> f64 {
    let mut g = safe_ln(theta.z()) - safe_ln_1m(theta.z());
    for s in theta.sources() {
        g += safe_ln_1m(s.a) - safe_ln_1m(s.b);
    }
    g
}

/// Worst movement of source `i`'s per-entry log-odds correction between
/// two `θ`s, over the three ways a cell can enter a column:
///
/// * dependent silent cell: `(ln(1−f) − ln(1−a)) − (ln(1−g) − ln(1−b))`
/// * independent claim:     `(ln a − ln(1−a)) − (ln b − ln(1−b))`
/// * dependent claim:       `(ln f − ln(1−a)) − (ln g − ln(1−b))`
fn entry_shift(p: &SourceParams, q: &SourceParams) -> f64 {
    let corr = |s: &SourceParams| {
        let (l1a, l1b) = (safe_ln_1m(s.a), safe_ln_1m(s.b));
        [
            (safe_ln_1m(s.f) - l1a) - (safe_ln_1m(s.g) - l1b),
            (safe_ln(s.a) - l1a) - (safe_ln(s.b) - l1b),
            (safe_ln(s.f) - l1a) - (safe_ln(s.g) - l1b),
        ]
    };
    let (cp, cq) = (corr(p), corr(q));
    (0..3).fold(0.0f64, |acc, k| acc.max((cq[k] - cp[k]).abs()))
}

/// Upper bound on `|ℓ_j(after) − ℓ_j(before)|` over every assertion `j`
/// left *untouched* by the refit whose `θ` update this is.
///
/// With the sparse-correction kernel,
/// `ℓ_j = G(θ) + Σ_{i ∈ entries(j)} corr_i(θ)` where `entries(j)` is the
/// union of `SC`/`D` column `j` and `corr_i` depends only on source `i`
/// and the (fixed, for untouched `j`) cell kind. So
///
/// `|Δℓ_j| ≤ |ΔG| + Σ_{i ∈ entries(j)} |Δcorr_i|
///         ≤ |ΔG| + max_col_entries · max_i |Δcorr_i|`,
///
/// with the max over sources that can appear in an untouched column —
/// every column holding a cell of a batch source is in the touched set,
/// so `excluded` (the sorted batch sources) drop out of the max. `ΔG` is
/// differenced exactly; summing worst cases over all `n` sources (the
/// naive bound) would grow with `n` and trip the fallback on every
/// refit.
fn refit_shift(before: &Theta, after: &Theta, excluded: &[u32], max_col_entries: usize) -> f64 {
    let global = (global_log_odds(after) - global_log_odds(before)).abs();
    let mut worst_entry = 0.0f64;
    for i in 0..before.source_count() {
        if excluded.binary_search(&(i as u32)).is_ok() {
            continue;
        }
        worst_entry = worst_entry.max(entry_shift(before.source(i), after.source(i)));
    }
    global + max_col_entries as f64 * worst_entry
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::em::EmExt;
    use crate::likelihood::assertion_posteriors;
    use socsense_graph::{ClaimLogIndex, FollowerGraph, TimedClaim};

    fn world() -> (FollowerGraph, Vec<TimedClaim>) {
        let mut g = FollowerGraph::new(6);
        g.add_follow(3, 0);
        g.add_follow(4, 1);
        let mut claims = Vec::new();
        let mut t = 0u64;
        for round in 0..8u64 {
            for i in 0..6u32 {
                let honest = i < 4;
                let j = ((round as u32 * 7 + i * 3) % 10 + if honest { 0 } else { 10 }) % 12;
                t += 1;
                claims.push(TimedClaim::new(i, j, t));
            }
        }
        (g, claims)
    }

    fn engine_for(claims: &[TimedClaim], graph: &FollowerGraph) -> (DeltaEngine, ClaimData) {
        let data = ClaimData::from_claims(6, 12, claims, graph);
        let fit = EmExt::new(EmConfig::default()).fit(&data).unwrap();
        let engine = DeltaEngine::init(DeltaConfig::default(), &data, &fit, claims.len());
        (engine, data)
    }

    /// The incremental sums after a chain of structure changes and
    /// E-steps must equal a fresh accumulation from the caches.
    fn assert_sums_consistent(e: &DeltaEngine) {
        let fresh_sum_z: f64 = e.posterior.iter().sum();
        assert!((e.sum_z - fresh_sum_z).abs() < 1e-9, "sum_z drifted");
        for (i, s) in e.sums.iter().enumerate() {
            assert_eq!(s.sc_cells, e.sc_rows[i].len());
            assert_eq!(s.dep_cells, e.d_rows[i].len());
            let dep_z: f64 = e.d_rows[i].iter().map(|&j| e.posterior[j as usize]).sum();
            assert!((s.dep_z - dep_z).abs() < 1e-9, "dep_z drifted at {i}");
            let mut num_a = 0.0;
            let mut num_f = 0.0;
            let mut sc_dep = 0usize;
            for &j in &e.sc_rows[i] {
                let z = e.posterior[j as usize];
                if e.d_rows[i].binary_search(&j).is_ok() {
                    sc_dep += 1;
                    num_f += z;
                } else {
                    num_a += z;
                }
            }
            assert_eq!(s.sc_dep, sc_dep);
            assert!((s.num_a - num_a).abs() < 1e-9, "num_a drifted at {i}");
            assert!((s.num_f - num_f).abs() < 1e-9, "num_f drifted at {i}");
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "scoped refit runs full EM setup, too slow under Miri")]
    fn init_sums_match_fresh_accumulation() {
        let (g, claims) = world();
        let (engine, _) = engine_for(&claims, &g);
        assert_sums_consistent(&engine);
        assert_eq!(engine.divergence_bound(), 0.0);
    }

    #[test]
    #[cfg_attr(miri, ignore = "scoped refit runs full EM setup, too slow under Miri")]
    fn structure_changes_keep_sums_and_adjacency_consistent() {
        let (g, claims) = world();
        let (mut engine, _) = engine_for(&claims, &g);
        let mut index = ClaimLogIndex::new(6, 12);
        index.ingest(&g, &claims);
        // New claims, including one creating a dependent cell.
        let batch = [
            TimedClaim::new(5, 6, 1000),
            TimedClaim::new(0, 11, 1001),
            TimedClaim::new(3, 11, 1002), // follower of 0: dependent repeat
        ];
        let changes = index.ingest(&g, &batch);
        assert!(!changes.is_empty());
        let cols = engine.apply_structure_changes(&changes);
        assert!(cols.contains(&6) && cols.contains(&11));
        assert_sums_consistent(&engine);
        // Adjacency mirror must agree with a fresh matrix build.
        let (sc, d) = index.build();
        for i in 0..6u32 {
            assert_eq!(engine.sc_rows[i as usize], sc.row(i), "sc row {i}");
            assert_eq!(engine.d_rows[i as usize], d.row(i), "d row {i}");
        }
        for j in 0..12u32 {
            assert_eq!(engine.sc_cols[j as usize], sc.col(j), "sc col {j}");
            assert_eq!(engine.d_cols[j as usize], d.col(j), "d col {j}");
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "scoped refit runs full EM setup, too slow under Miri")]
    fn scoped_refit_advances_and_reports_staleness() {
        let (g, claims) = world();
        let (mut engine, _) = engine_for(&claims, &g);
        let mut index = ClaimLogIndex::new(6, 12);
        index.ingest(&g, &claims);
        let batch = [TimedClaim::new(1, 3, 500), TimedClaim::new(2, 7, 501)];
        let changes = index.ingest(&g, &batch);
        let cols = engine.apply_structure_changes(&changes);
        let touched = engine.touched_set(&cols, &[1, 2]);
        assert!(!touched.is_empty());
        let report = engine
            .refit(&EmConfig::default(), &touched, &[1, 2], batch.len())
            .unwrap();
        assert!(report.iterations >= 1);
        assert!(report.divergence_bound >= 0.0);
        assert_eq!(engine.claims_since_full(), 2);
        assert!(engine.accumulated_drift() >= 0.0);
        assert_sums_consistent(&engine);
        // The cached posteriors of untouched assertions must sit within
        // the proven bound of a fresh E-step under the current θ.
        let data = {
            let (sc, d) = index.build();
            ClaimData::new(sc, d).unwrap()
        };
        let fresh = assertion_posteriors(&data, &engine.theta).unwrap();
        for (j, fresh_z) in fresh.iter().enumerate().take(12) {
            let bound = 0.25 * (engine.lambda - engine.stamp[j]) + 1e-12;
            assert!(
                (engine.posterior[j] - fresh_z).abs() <= bound,
                "assertion {j}: cached {} vs fresh {fresh_z} exceeds bound {bound}",
                engine.posterior[j],
            );
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "scoped refit runs full EM setup, too slow under Miri")]
    fn touched_posteriors_match_a_fresh_e_step_exactly() {
        // A touched assertion is evaluated under the final θ with the
        // same kernel the full E-step uses, so it must agree bit for bit
        // with a fresh evaluation under that θ.
        let (g, claims) = world();
        let (mut engine, _) = engine_for(&claims, &g);
        let mut index = ClaimLogIndex::new(6, 12);
        index.ingest(&g, &claims);
        let batch = [TimedClaim::new(0, 5, 700)];
        let changes = index.ingest(&g, &batch);
        let cols = engine.apply_structure_changes(&changes);
        let touched = engine.touched_set(&cols, &[0]);
        engine
            .refit(&EmConfig::default(), &touched, &[0], batch.len())
            .unwrap();
        let data = {
            let (sc, d) = index.build();
            ClaimData::new(sc, d).unwrap()
        };
        let fresh = assertion_posteriors(&data, &engine.theta).unwrap();
        for &j in &touched {
            assert_eq!(
                engine.posterior[j as usize].to_bits(),
                fresh[j as usize].to_bits(),
                "assertion {j}"
            );
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "scoped refit runs full EM setup, too slow under Miri")]
    fn scoped_refit_is_parallelism_invariant() {
        let (g, claims) = world();
        let run = |par: Parallelism| {
            let (mut engine, _) = engine_for(&claims, &g);
            let mut index = ClaimLogIndex::new(6, 12);
            index.ingest(&g, &claims);
            let batch = [TimedClaim::new(4, 1, 900), TimedClaim::new(5, 9, 901)];
            let changes = index.ingest(&g, &batch);
            let cols = engine.apply_structure_changes(&changes);
            let touched = engine.touched_set(&cols, &[4, 5]);
            let em = EmConfig {
                parallelism: par,
                ..EmConfig::default()
            };
            engine.refit(&em, &touched, &[4, 5], batch.len()).unwrap();
            engine
                .posterior
                .iter()
                .map(|p| p.to_bits())
                .collect::<Vec<_>>()
        };
        let serial = run(Parallelism::Serial);
        for par in [
            Parallelism::Threads(1),
            Parallelism::Threads(2),
            Parallelism::Threads(4),
        ] {
            assert_eq!(serial, run(par), "{par:?}");
        }
    }

    #[test]
    fn pre_trigger_tracks_thresholds() {
        let (g, claims) = world();
        let (mut engine, _) = engine_for(&claims, &g);
        engine.cfg = DeltaConfig {
            max_batch_fraction: 0.0,
            ..DeltaConfig::default()
        };
        assert!(engine.pre_trigger(1), "zero fraction trips on any batch");
        assert!(!engine.pre_trigger(0));
        engine.cfg = DeltaConfig::default();
        assert!(!engine.pre_trigger(1));
        engine.acc_drift = 1.0;
        assert!(engine.pre_trigger(0), "drift past the cap must trip");
    }

    #[test]
    fn refit_shift_is_zero_on_identical_thetas_and_positive_otherwise() {
        let t = Theta::neutral(4);
        assert_eq!(refit_shift(&t, &t, &[], 5), 0.0);
        let mut u = t.clone();
        u.set_source(2, SourceParams::new(0.7, 0.2, 0.6, 0.5).unwrap());
        assert!(refit_shift(&t, &u, &[], 5) > 0.0);
        assert_eq!(
            refit_shift(&t, &u, &[], 5).to_bits(),
            refit_shift(&u, &t, &[], 5).to_bits()
        );
        // Excluding the only moved source leaves just the (exact)
        // global part, which a single source's `1−a`/`1−b` change drives.
        let only_global = refit_shift(&t, &u, &[2], 5);
        assert!(only_global < refit_shift(&t, &u, &[], 5));
        // More possible entries per column can only widen the bound.
        assert!(refit_shift(&t, &u, &[], 10) >= refit_shift(&t, &u, &[], 5));
    }

    #[test]
    fn union_len_counts_distinct_ids() {
        assert_eq!(union_len(&[], &[]), 0);
        assert_eq!(union_len(&[1, 3, 5], &[]), 3);
        assert_eq!(union_len(&[1, 3, 5], &[3, 4]), 4);
        assert_eq!(union_len(&[2], &[2]), 1);
    }

    #[test]
    fn delta_config_validation() {
        assert!(DeltaConfig::default().validate().is_ok());
        for bad in [f64::NAN, f64::INFINITY, -0.1] {
            assert!(matches!(
                DeltaConfig {
                    max_drift: bad,
                    ..DeltaConfig::default()
                }
                .validate(),
                Err(SenseError::BadConfig { .. })
            ));
        }
    }

    /// Synthetic removal changes for every cell of one column, matching
    /// the engine's current state so the incremental sums stay exact.
    fn remove_column_cells(e: &DeltaEngine, j: u32) -> Vec<socsense_graph::CellChange> {
        let mut sources: Vec<u32> = e.sc_cols[j as usize].clone();
        sources.extend_from_slice(&e.d_cols[j as usize]);
        sources.sort_unstable();
        sources.dedup();
        sources
            .into_iter()
            .map(|i| socsense_graph::CellChange {
                source: i,
                assertion: j,
                before: socsense_graph::CellState {
                    claimed: e.sc_cols[j as usize].binary_search(&i).is_ok(),
                    dependent: e.d_cols[j as usize].binary_search(&i).is_ok(),
                },
                after: socsense_graph::CellState {
                    claimed: false,
                    dependent: false,
                },
            })
            .collect()
    }

    #[test]
    fn removals_compact_max_col_entries() {
        let (g, claims) = world();
        let (mut engine, _) = engine_for(&claims, &g);
        let exact_max = |e: &DeltaEngine| {
            (0..12)
                .map(|j| union_len(&e.sc_cols[j], &e.d_cols[j]))
                .max()
                .unwrap()
        };
        assert_eq!(engine.max_col_entries, exact_max(&engine), "exact at seed");
        // Empty out every column sitting at the maximum (they may tie):
        // the bound must compact to the true new maximum, not keep the
        // stale one.
        let before = engine.max_col_entries;
        let widest: Vec<u32> = (0..12u32)
            .filter(|&j| {
                union_len(&engine.sc_cols[j as usize], &engine.d_cols[j as usize]) == before
            })
            .collect();
        let mut changes = Vec::new();
        for &j in &widest {
            changes.extend(remove_column_cells(&engine, j));
        }
        assert!(!changes.is_empty());
        engine.apply_structure_changes(&changes);
        assert_sums_consistent(&engine);
        assert_eq!(engine.max_col_entries, exact_max(&engine), "compacted");
        assert!(
            engine.max_col_entries < before,
            "removing the widest column must tighten the bound \
             ({before} -> {})",
            engine.max_col_entries
        );
        // Re-inserting cells max-updates back up.
        let reinsert: Vec<socsense_graph::CellChange> = changes
            .iter()
            .map(|ch| socsense_graph::CellChange {
                before: ch.after,
                after: ch.before,
                ..*ch
            })
            .collect();
        engine.apply_structure_changes(&reinsert);
        assert_eq!(engine.max_col_entries, before);
        assert_sums_consistent(&engine);
    }

    #[test]
    #[cfg_attr(miri, ignore = "scoped refit runs full EM setup, too slow under Miri")]
    fn staleness_bound_still_holds_after_removal_compaction() {
        let (g, claims) = world();
        let (mut engine, _) = engine_for(&claims, &g);
        let widest = (0..12u32)
            .max_by_key(|&j| union_len(&engine.sc_cols[j as usize], &engine.d_cols[j as usize]))
            .unwrap();
        let removals = remove_column_cells(&engine, widest);
        let mut sources: Vec<u32> = removals.iter().map(|ch| ch.source).collect();
        sources.sort_unstable();
        sources.dedup();
        let cols = engine.apply_structure_changes(&removals);
        let touched = engine.touched_set(&cols, &sources);
        engine
            .refit(&EmConfig::default(), &touched, &sources, 0)
            .unwrap();
        assert_sums_consistent(&engine);
        // Rebuild the data the engine now mirrors and check every cached
        // posterior against the proven (now tighter) staleness bound.
        let entries = |rows: &[Vec<u32>]| -> Vec<(u32, u32)> {
            rows.iter()
                .enumerate()
                .flat_map(|(i, r)| r.iter().map(move |&j| (i as u32, j)))
                .collect()
        };
        let sc = socsense_matrix::SparseBinaryMatrix::from_entries(6, 12, entries(&engine.sc_rows));
        let d = socsense_matrix::SparseBinaryMatrix::from_entries(6, 12, entries(&engine.d_rows));
        let data = ClaimData::new(sc, d).unwrap();
        let fresh = assertion_posteriors(&data, &engine.theta).unwrap();
        for (j, fresh_z) in fresh.iter().enumerate() {
            let bound = 0.25 * (engine.lambda - engine.stamp[j]) + 1e-12;
            assert!(
                (engine.posterior[j] - fresh_z).abs() <= bound,
                "assertion {j}: cached {} vs fresh {fresh_z} exceeds bound {bound}",
                engine.posterior[j],
            );
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "scoped refit runs full EM setup, too slow under Miri")]
    fn exact_ll_refresh_matches_full_evaluation_bitwise() {
        // With `exact_ll` on, the ℓℓ a scoped refit serves must be
        // bit-identical to `data_log_likelihood_with` over the same data
        // under the final θ — the full path's exact value.
        let (g, claims) = world();
        let (mut engine, _) = engine_for(&claims, &g);
        engine.cfg.exact_ll = true;
        let mut index = ClaimLogIndex::new(6, 12);
        index.ingest(&g, &claims);
        let batch = [TimedClaim::new(1, 3, 500), TimedClaim::new(2, 7, 501)];
        let changes = index.ingest(&g, &batch);
        let cols = engine.apply_structure_changes(&changes);
        let touched = engine.touched_set(&cols, &[1, 2]);
        let em = EmConfig::default();
        let report = engine.refit(&em, &touched, &[1, 2], batch.len()).unwrap();
        let fit = engine.fit(&report);
        let data = {
            let (sc, d) = index.build();
            ClaimData::new(sc, d).unwrap()
        };
        let exact =
            crate::likelihood::data_log_likelihood_with(&data, &engine.theta, em.parallelism)
                .unwrap();
        assert_eq!(fit.log_likelihood.to_bits(), exact.to_bits());
        assert_eq!(fit.ll_history, vec![exact]);
    }

    #[test]
    #[cfg_attr(miri, ignore = "scoped refit runs full EM setup, too slow under Miri")]
    fn exact_ll_refresh_is_parallelism_invariant() {
        let (g, claims) = world();
        let run = |par: Parallelism| {
            let (mut engine, _) = engine_for(&claims, &g);
            engine.cfg.exact_ll = true;
            let mut index = ClaimLogIndex::new(6, 12);
            index.ingest(&g, &claims);
            let batch = [TimedClaim::new(0, 2, 800)];
            let changes = index.ingest(&g, &batch);
            let cols = engine.apply_structure_changes(&changes);
            let touched = engine.touched_set(&cols, &[0]);
            let em = EmConfig {
                parallelism: par,
                ..EmConfig::default()
            };
            let report = engine.refit(&em, &touched, &[0], batch.len()).unwrap();
            engine.fit(&report).log_likelihood.to_bits()
        };
        let serial = run(Parallelism::Serial);
        for par in [Parallelism::Threads(2), Parallelism::Threads(4)] {
            assert_eq!(serial, run(par), "{par:?}");
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "scoped refit runs full EM setup, too slow under Miri")]
    fn engine_state_round_trip_preserves_refit_bitwise() {
        // Export → (JSON) → restore must reproduce the next scoped refit
        // bit for bit: posteriors, served ℓℓ, and the staleness chain.
        let (g, claims) = world();
        let (engine, _) = engine_for(&claims, &g);
        let state = engine.export_state();
        let json = serde_json::to_string(&state).unwrap();
        let decoded: crate::state::DeltaEngineState = serde_json::from_str(&json).unwrap();
        assert_eq!(decoded, state, "JSON round trip must be lossless");
        let restored = DeltaEngine::from_state(&decoded, 6, 12).unwrap();
        let run = |mut e: DeltaEngine| {
            let mut index = ClaimLogIndex::new(6, 12);
            index.ingest(&g, &claims);
            let batch = [TimedClaim::new(4, 1, 900), TimedClaim::new(5, 9, 901)];
            let changes = index.ingest(&g, &batch);
            let cols = e.apply_structure_changes(&changes);
            let touched = e.touched_set(&cols, &[4, 5]);
            let report = e
                .refit(&EmConfig::default(), &touched, &[4, 5], batch.len())
                .unwrap();
            let fit = e.fit(&report);
            (
                fit.posterior
                    .iter()
                    .map(|p| p.to_bits())
                    .collect::<Vec<_>>(),
                fit.log_likelihood.to_bits(),
                e.lambda.to_bits(),
                e.stamp.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
            )
        };
        assert_eq!(run(engine), run(restored));
    }

    #[test]
    fn engine_state_rejects_inconsistent_shapes() {
        let (g, claims) = world();
        let (engine, _) = engine_for(&claims, &g);
        let state = engine.export_state();
        assert!(DeltaEngine::from_state(&state, 6, 11).is_err());
        assert!(DeltaEngine::from_state(&state, 5, 12).is_err());
        let mut bad = state.clone();
        bad.stamp.pop();
        assert!(DeltaEngine::from_state(&bad, 6, 12).is_err());
    }

    #[test]
    fn toggle_inserts_and_removes_sorted() {
        let mut v = vec![2, 5, 9];
        toggle(&mut v, 5, false);
        assert_eq!(v, vec![2, 9]);
        toggle(&mut v, 4, true);
        assert_eq!(v, vec![2, 4, 9]);
        // No-ops when already in the requested state.
        toggle(&mut v, 4, true);
        toggle(&mut v, 5, false);
        assert_eq!(v, vec![2, 4, 9]);
    }
}
