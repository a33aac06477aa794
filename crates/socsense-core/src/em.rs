//! EM-Ext: the dependency-aware maximum-likelihood estimator
//! (Algorithm 2; Eqs. 9–14 / Appendix Eqs. 24–28).
//!
//! The E-step evaluates the truth posterior `Z_j = P(C_j = 1 | SC_j; D, θ)`
//! for every assertion with the sparse kernel from [`crate::likelihood`].
//! The M-step re-estimates each source's `(a, b, f, g)` as posterior-
//! weighted claim frequencies, split by the dependency indicator:
//!
//! ```text
//! a_i = Σ_{j: SC=1, D=0} Z_j / Σ_{j: D=0} Z_j     f_i = Σ_{j: SC=1, D=1} Z_j / Σ_{j: D=1} Z_j
//! b_i = Σ_{j: SC=1, D=0} Y_j / Σ_{j: D=0} Y_j     g_i = Σ_{j: SC=1, D=1} Y_j / Σ_{j: D=1} Y_j
//! z   = Σ_j Z_j / m                               (Y_j = 1 - Z_j)
//! ```
//!
//! Denominators are computed sparsely: `Σ_{j: D=0} Z_j = Σ_j Z_j - Σ_{j ∈
//! D-row(i)} Z_j`, so one iteration costs `O(nnz(SC) + nnz(D) + n + m)`.
//!
//! A *map* is one M-step, and `iterations` counts maps. A *pass* is one
//! sweep over the assertions under a `θ`: it writes the posterior the
//! next M-step reads and the log-odds, and sums the observed-data
//! log-likelihood (Eq. 7) chunk by chunk like
//! [`data_log_likelihood_with`](crate::data_log_likelihood_with). The
//! pass at the final `θ` is the fit's answer, and nothing runs after the
//! loop.
//!
//! Each fit lays its data out once ([`ClaimLayout`]): a partition of the
//! sources and one of the columns into classes whose members EM cannot
//! tell apart, so that every member of a source class holds its class's
//! rates at every map and every member of a column class its class's
//! fit. A cold fit shares one layout across its starts, which are
//! functions of a source's claim count and so of its class; a warm fit
//! seeds the partition with its start. A run's `θ` holds one rate set
//! per source class. A pass rebuilds the tables in one buffer per run,
//! one row per source class, evaluates each column class once, and
//! copies each class's result out to its columns while it sums Eq. 7
//! over all of them in the fixed chunk order. The M-step counts each
//! source class once from its lists of column classes and updates its
//! rates once, into buffers allocated once per run.
//!
//! Every fold across elements still adds each element's term in element
//! order, reading its class's value: the base sums and the log-prior
//! over the sources, Eq. 7 over the columns, `Σ Z_j`, the population
//! counts over the sources, and SQUAREM's norms over `z` and then the
//! sources. So classes move only the work counters, never a served bit.
//! `max |Δθ|` runs over the classes, since a maximum is exact in any
//! order.
//!
//! Cold fits ([`EmExt::fit`]) take one map and one pass per iteration.
//! Warm fits ([`EmExt::fit_warm`]) step in SQUAREM cycles (Varadhan &
//! Roland, Scand. J. Stat. 2008): two maps `θ₀ → θ₁ → θ₂`, the second
//! without a pass, then one pass at the S3 extrapolation
//! `θₓ = θ₀ − 2αr + α²v` (`r = θ₁ − θ₀`, `v = θ₂ − 2θ₁ + θ₀`,
//! `α = −‖r‖/‖v‖ ≤ −1`). That pass is the safeguard: `θₓ` is kept, its
//! pass serving as the next map's E-step, only if it scores at least as
//! well as `θ₁` on the objective the shrinkage M-step ascends (Eq. 7 plus
//! the log-prior of [`ShrinkagePrior`], at the first map's population
//! rates; Eq. 7 itself at `smoothing` 0). Otherwise the cycle spends one
//! more pass and goes on from `θ₂`. A run only ever stops at a map's
//! output, so the served `θ` is never an extrapolated point.

use serde::{Deserialize, Serialize};

use socsense_matrix::parallel::{par_fill, par_fill_reduce, par_map_collect, Parallelism};
use socsense_obs::Obs;

use crate::data::ClaimData;
use crate::error::SenseError;
use crate::likelihood::{ClaimLayout, ColumnFit, LikelihoodTables, ShrinkagePrior};
use crate::model::{SourceParams, Theta};

/// Clamping margin keeping every probability in `[EPS, 1 − EPS]`.
const EPS: f64 = 1e-6;

/// Convergence threshold on `max |Δθ|` between maps, read by the EM loop
/// and the delta engine's scoped loop.
pub(crate) const TOL: f64 = 1e-6;

/// How the EM parameters are initialised.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum InitStrategy {
    /// Runs both deterministic initialisations
    /// ([`ClaimRateBiased`](Self::ClaimRateBiased) and
    /// [`DepBiased`](Self::DepBiased)) and keeps the fit with the higher
    /// observed-data log-likelihood. Whether repeated (dependent) content
    /// signals truth is exactly what varies between datasets — rumor-heavy
    /// social data wants the neutral start, generator-style data where
    /// dependent claims are informative wants the biased one — so the
    /// likelihood, not a fixed prior, makes the call. Default.
    Auto,
    /// Deterministic, data-driven: `a_i = min(0.95, 1.5·r_i)`,
    /// `b_i = 0.5·r_i`, and `f_i = g_i = r_i`, where `r_i` is source
    /// `i`'s claim rate. The `a > b` asymmetry breaks the label-swap
    /// symmetry of the likelihood in the direction the paper intends
    /// (independent claims lean toward true assertions); dependent claims
    /// start *neutral* (`f = g`) so repeated content carries no weight
    /// until the M-step learns that it should.
    ClaimRateBiased,
    /// As [`ClaimRateBiased`](Self::ClaimRateBiased) but with the same
    /// truth-lean applied to dependent claims (`f_i = 1.5·r_i`,
    /// `g_i = 0.5·r_i`).
    DepBiased,
}

/// Configuration for [`EmExt`].
///
/// Algorithm 2 loops "while θ not convergent": a run stops once a map
/// moves `θ` by `max |Δθ| < 10⁻⁶`, or at `max_iters`, and every
/// probability stays in `[10⁻⁶, 1 − 10⁻⁶]`. Both margins are constants.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EmConfig {
    /// Iteration cap.
    pub max_iters: usize,
    /// Parameter initialisation.
    pub init: InitStrategy,
    /// Hierarchical shrinkage pseudo-count `s`: each M-step rate becomes
    /// `(num + s·pop) / (den + s)` where `pop` is the population-level
    /// rate for the same parameter. `0.0` reproduces the paper's update
    /// exactly (Eqs. 24–28). At Twitter scale most sources contribute a
    /// handful of observations per parameter; shrinkage trades a little
    /// bias for a large variance cut, which matters most for the
    /// dependent-claim rates `f`/`g` (see DESIGN.md §4 and `repro
    /// ablations`).
    pub smoothing: f64,
    /// Worker threads for the E-step, M-step, and the `Auto` sweep over
    /// its two starts.
    ///
    /// Never changes the numbers: the parallel layer
    /// ([`socsense_matrix::parallel`]) uses fixed chunk boundaries and
    /// in-order merges, so every level returns bit-identical fits. Only
    /// wall-clock time varies.
    #[serde(default)]
    pub parallelism: Parallelism,
}

impl Default for EmConfig {
    fn default() -> Self {
        Self {
            max_iters: 200,
            init: InitStrategy::Auto,
            smoothing: 2.0,
            parallelism: Parallelism::Auto,
        }
    }
}

impl EmConfig {
    /// Validates the configuration without running anything: what
    /// [`EmExt::fit`] and [`EmExt::fit_warm`] check before they start.
    ///
    /// # Errors
    ///
    /// Returns [`SenseError::BadConfig`] for a zero iteration budget or a
    /// negative or non-finite smoothing.
    pub fn validate(&self) -> Result<(), SenseError> {
        if self.max_iters == 0 {
            return Err(SenseError::BadConfig {
                what: "max_iters must be positive",
            });
        }
        if !self.smoothing.is_finite() || self.smoothing < 0.0 {
            return Err(SenseError::BadConfig {
                what: "smoothing must be non-negative",
            });
        }
        Ok(())
    }
}

/// The EM-Ext estimator (Algorithm 2 of the paper).
///
/// # Example
///
/// ```
/// use socsense_core::{classify, ClaimData, EmConfig, EmExt};
/// use socsense_matrix::SparseBinaryMatrix;
///
/// // Two reliable sources claim assertion 0; nobody claims assertion 1.
/// let sc = SparseBinaryMatrix::from_entries(2, 2, [(0, 0), (1, 0)]);
/// let d = SparseBinaryMatrix::empty(2, 2);
/// let data = ClaimData::new(sc, d)?;
/// let fit = EmExt::new(EmConfig::default()).fit(&data)?;
/// let labels = classify(&fit.posterior);
/// assert!(labels[0] && !labels[1]);
/// # Ok::<(), socsense_core::SenseError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct EmExt {
    config: EmConfig,
    obs: Obs,
}

/// Result of one [`EmExt::fit`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EmFit {
    /// Estimated parameter set `θ̂`.
    pub theta: Theta,
    /// `P(C_j = 1 | SC_j; D, θ̂)` per assertion.
    pub posterior: Vec<f64>,
    /// Final observed-data log-likelihood `ln P(SC; θ̂)`.
    pub log_likelihood: f64,
    /// EM maps (M-steps) executed.
    pub iterations: usize,
    /// Whether a map moved `θ` by `max |Δθ| < tol` within `max_iters`.
    pub converged: bool,
    /// Observed-data log-likelihood after every map, at the point the
    /// loop went on from: the map's output, or, after the second map of
    /// a warm run's SQUAREM cycle, the accepted extrapolation. At
    /// `smoothing` 0 it is non-decreasing up to the clamping margin.
    pub ll_history: Vec<f64>,
    /// Posterior log-odds `ln P(C_j=1|·) − ln P(C_j=0|·)` per assertion:
    /// the saturation-free ranking key corresponding to `posterior`.
    pub log_odds: Vec<f64>,
}

impl EmExt {
    /// Creates an estimator with the given configuration.
    pub fn new(config: EmConfig) -> Self {
        Self {
            config,
            obs: Obs::none(),
        }
    }

    /// Attaches a metrics handle; every fit then reports `em.*`
    /// convergence metrics (run counts, iteration histograms, final
    /// deltas, log-likelihood improvements, wall time). Metrics are
    /// observation-only: the fit itself is bit-identical with or
    /// without a sink.
    #[must_use]
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// The active configuration.
    pub fn config(&self) -> &EmConfig {
        &self.config
    }

    /// Runs EM starting from an explicit parameter set (a *warm start*).
    ///
    /// Used by the streaming estimator: after new claims arrive, the
    /// previous `θ̂` is usually near the new optimum and convergence takes
    /// a fraction of a cold start's iterations. Warm runs step in
    /// safeguarded SQUAREM cycles (see the module docs); the fit is still
    /// a plain map's output.
    ///
    /// # Errors
    ///
    /// As [`fit`](Self::fit), plus [`SenseError::DimensionMismatch`] when
    /// `theta` covers a different number of sources than `data`.
    pub fn fit_warm(&self, data: &ClaimData, theta: Theta) -> Result<EmFit, SenseError> {
        self.config.validate()?;
        if theta.source_count() != data.source_count() {
            return Err(SenseError::DimensionMismatch {
                what: "warm-start theta source count vs data",
                expected: data.source_count(),
                actual: theta.source_count(),
            });
        }
        let layout = ClaimLayout::new(data, Some(&theta))?;
        self.obs.counter("em.warm_starts_total", 1);
        let start = layout.classes_of(&theta);
        self.run_em_with(&layout, start, self.config.parallelism, true)
    }

    /// Runs EM on `data` from the configured [`InitStrategy`]; `Auto`
    /// runs both deterministic starts and keeps the better fit.
    ///
    /// # Errors
    ///
    /// Returns [`SenseError::BadConfig`] for a configuration
    /// [`EmConfig::validate`] rejects, and propagates dimension errors.
    pub fn fit(&self, data: &ClaimData) -> Result<EmFit, SenseError> {
        self.config.validate()?;
        let timer = self.obs.timer("em.fit.seconds");
        // Both deterministic starts are functions of a source's claim
        // count, which its class fixes, so one unseeded layout serves
        // them.
        let layout = ClaimLayout::new(data, None)?;
        let inits = match self.config.init {
            InitStrategy::Auto => vec![InitStrategy::ClaimRateBiased, InitStrategy::DepBiased],
            other => vec![other],
        };
        // Each init fits independently, so the sweep parallelises across
        // inits; the inner EM loops then run serially to avoid nested
        // thread fan-out (bit-identical either way, see EmConfig docs).
        let inner = if inits.len() > 1 {
            Parallelism::Serial
        } else {
            self.config.parallelism
        };
        self.obs.counter("em.fit.inits_total", inits.len() as u64);
        let fits = par_map_collect(self.config.parallelism, inits.len(), |k| {
            let start = layout.classes_of(&initial_theta(data, inits[k]));
            self.run_em_with(&layout, start, inner, false)
        });
        // Keep-best folds in init order with a strict `>`, so the
        // *earliest* init wins exact log-likelihood ties — the same
        // winner the sequential sweep picked.
        let mut best: Option<EmFit> = None;
        for fit in fits {
            let fit = fit?;
            if best
                .as_ref()
                .is_none_or(|b| fit.log_likelihood > b.log_likelihood)
            {
                best = Some(fit);
            }
        }
        timer.stop();
        // detlint: allow(P1) -- the init-strategy list is a nonempty const, so the loop above always assigns `best`
        Ok(best.expect("at least one init always runs"))
    }

    /// The deterministic data-driven starting point
    /// ([`InitStrategy::ClaimRateBiased`]) for `data`.
    ///
    /// Exposed for warm-start blending: the streaming estimator mixes the
    /// previous `θ̂` with this anchor so that an unlucky early basin
    /// cannot lock in forever (see
    /// [`StreamingEstimator`](crate::StreamingEstimator)).
    pub fn data_driven_start(&self, data: &ClaimData) -> Theta {
        initial_theta(data, InitStrategy::ClaimRateBiased)
    }

    /// The EM loop proper over `layout`'s data, from a starting point
    /// with one rate set per source class: one map and one pass per
    /// iteration, or, when `accelerate` (warm runs only), safeguarded
    /// SQUAREM cycles (see the module docs).
    fn run_em_with(
        &self,
        layout: &ClaimLayout,
        start: Theta,
        par: Parallelism,
        accelerate: bool,
    ) -> Result<EmFit, SenseError> {
        // Runs may execute inside the `Auto` sweep's parallel region,
        // so only commutative emissions (counters, observations) are
        // made here — recorded totals stay deterministic.
        let _run_timer = self.obs.timer("em.run.seconds");
        let (max_iters, smoothing) = (self.config.max_iters, self.config.smoothing);
        let mut theta = start;
        // Buffers every iteration reuses: the passes' tables and
        // outputs, the M-step counts per source class, the next θ and, in
        // a SQUAREM cycle, the second map's output θ₂ and the squares of
        // the extrapolation's norms.
        let mut passes = Passes::new(layout, par);
        let mut counts = vec![[0.0f64; 8]; layout.source_classes()];
        let mut next = theta.clone();
        let mut second: Option<Theta> = None;
        let mut squares = Vec::new();
        let mut ll_history = Vec::new();
        let mut converged = false;
        let mut iterations = 0;
        let mut last_delta = f64::INFINITY;
        let (mut extrapolations, mut rejected) = (0u64, 0u64);

        // E-step (Eq. 9) at the starting θ; its log-likelihood is not
        // part of the history.
        passes.run(&theta, None);
        while iterations < max_iters {
            iterations += 1;
            let (delta, rates) = self.m_step(&passes, &theta, &mut counts, &mut next);
            std::mem::swap(&mut theta, &mut next);
            last_delta = delta;
            converged = delta < TOL;
            // A SQUAREM cycle goes on from here with θ₀ = `next` and
            // θ₁ = `theta`; its merit takes the prior at this map's
            // population rates.
            let cycle = accelerate && !converged && iterations < max_iters;
            let prior = (cycle && smoothing > 0.0).then_some(ShrinkagePrior { smoothing, rates });
            // The pass at the new θ: the next E-step and this
            // iteration's log-likelihood at once.
            let at_map = passes.run(&theta, prior.as_ref());
            ll_history.push(at_map.log_likelihood);
            if converged {
                break;
            }
            if !cycle {
                continue;
            }

            // The second map, θ₁ → θ₂, reads θ₁'s pass and skips its own.
            let second = second.get_or_insert_with(|| theta.clone());
            iterations += 1;
            let (delta, _) = self.m_step(&passes, &theta, &mut counts, second);
            last_delta = delta;
            converged = delta < TOL;
            if !converged
                && iterations < max_iters
                && extrapolate(
                    &mut next,
                    &theta,
                    second,
                    layout.source_class(),
                    &mut squares,
                )
            {
                extrapolations += 1;
                let trial = passes.run(&next, prior.as_ref());
                if trial.merit() >= at_map.merit() {
                    std::mem::swap(&mut theta, &mut next);
                    ll_history.push(trial.log_likelihood);
                    continue;
                }
                rejected += 1;
            }
            // The run goes on from (or stops at) θ₂, which needs its
            // own pass.
            std::mem::swap(&mut theta, second);
            ll_history.push(passes.run(&theta, None).log_likelihood);
            if converged {
                break;
            }
        }

        if self.obs.enabled() {
            self.obs.counter("em.runs_total", 1);
            self.obs.counter("em.iterations_total", iterations as u64);
            self.obs.counter("em.passes_total", passes.passes);
            self.obs
                .counter("em.column_evals_total", passes.column_evals);
            self.obs
                .counter("em.source_evals_total", passes.source_evals);
            self.obs.counter("em.logs_total", passes.logs);
            self.obs.counter("em.extrapolations_total", extrapolations);
            self.obs
                .counter("em.extrapolations_rejected_total", rejected);
            if converged {
                self.obs.counter("em.runs_converged_total", 1);
            }
            self.obs.observe("em.run.iterations", iterations as f64);
            self.obs.observe("em.run.final_delta", last_delta);
            if let (Some(&first), Some(&last)) = (ll_history.first(), ll_history.last()) {
                self.obs.observe("em.run.ll_improvement", last - first);
            }
        }

        // detlint: allow(P1) -- EM runs at least one iteration (max_iters >= 1 is config-validated), so the history is nonempty
        let log_likelihood = *ll_history.last().expect("at least one iteration ran");
        let log_odds = layout
            .column_class()
            .iter()
            .map(|&c| passes.fits[c as usize].log_odds)
            .collect();
        Ok(EmFit {
            theta: layout.sources_of(&theta),
            posterior: passes.posterior,
            log_likelihood,
            iterations,
            converged,
            ll_history,
            log_odds,
        })
    }

    /// M-step (Eqs. 24–28), sparse form: accumulates each source
    /// class's posterior-weighted claim counts and exposures into
    /// `counts` from the last pass's column-class fits, then writes
    /// `θₜ₊₁` into `next` via [`apply_m_step`], one rate set per class.
    /// Returns `max |Δθ|` from `theta` to `next` and the population rates.
    fn m_step(
        &self,
        passes: &Passes<'_>,
        theta: &Theta,
        counts: &mut [[f64; 8]],
        next: &mut Theta,
    ) -> (f64, [f64; 4]) {
        let (layout, fits) = (passes.layout, &passes.fits);
        let m = passes.posterior.len() as f64;
        let sum_z: f64 = passes.posterior.iter().sum();
        let sum_y = m - sum_z;
        let count = |c: usize| {
            let (dep_row, independent, dependent) = layout.source_cells(c);
            let mut dep_z = 0.0;
            for &k in dep_row {
                dep_z += fits[k as usize].posterior;
            }
            let dep_y = dep_row.len() as f64 - dep_z;
            let (mut num_a, mut num_b) = (0.0, 0.0);
            for &k in independent {
                let zj = fits[k as usize].posterior;
                num_a += zj;
                num_b += 1.0 - zj;
            }
            let (mut num_f, mut num_g) = (0.0, 0.0);
            for &k in dependent {
                let zj = fits[k as usize].posterior;
                num_f += zj;
                num_g += 1.0 - zj;
            }

            [
                num_a,
                sum_z - dep_z,
                num_b,
                sum_y - dep_y,
                num_f,
                dep_z,
                num_g,
                dep_y,
            ]
        };
        // Each class's counts read only its own lists, so the fill
        // parallelises over fixed chunks of classes.
        par_fill(passes.par, counts, count);
        let members = layout.source_class().iter().map(|&c| c as usize);
        apply_m_step(&self.config, theta, counts, members, sum_z / m, next)
    }
}

/// The deterministic data-driven start `init` names for `data`
/// (`DepBiased`, or else `ClaimRateBiased`).
fn initial_theta(data: &ClaimData, init: InitStrategy) -> Theta {
    let n = data.source_count();
    let m = data.assertion_count() as f64;
    let dep_biased = matches!(init, InitStrategy::DepBiased);
    let mut t = Theta::neutral(n);
    for i in 0..n {
        let r = data.sc().row_nnz(i as u32) as f64 / m;
        let hi = (1.5 * r).clamp(EPS, 0.95);
        let lo = (0.5 * r).clamp(EPS, 0.95);
        let mid = r.clamp(EPS, 0.95);
        let (f, g) = if dep_biased { (hi, lo) } else { (mid, mid) };
        t.set_source(i, SourceParams { a: hi, b: lo, f, g });
    }
    t.set_z(0.5);
    t
}

/// What a pass ([`Passes::run`]) sums besides the columns it writes.
#[derive(Debug, Clone, Copy)]
struct Pass {
    /// The observed-data log-likelihood (Eq. 7).
    log_likelihood: f64,
    /// The log-prior under the pass's [`ShrinkagePrior`], `0.0` without
    /// one.
    log_prior: f64,
}

impl Pass {
    /// The SQUAREM safeguard's merit: the objective the shrinkage M-step
    /// ascends.
    fn merit(&self) -> f64 {
        self.log_likelihood + self.log_prior
    }
}

/// One run's passes over the assertions: the fit's claim layout, and
/// the buffers every pass refills in place.
struct Passes<'a> {
    layout: &'a ClaimLayout,
    par: Parallelism,
    tables: LikelihoodTables,
    /// The last pass's fit of each column class, which the next M-step
    /// reads.
    fits: Vec<ColumnFit>,
    /// The last pass's posterior of each column.
    posterior: Vec<f64>,
    /// Passes run, column classes evaluated, source classes whose terms
    /// the table builds computed, and logarithms they took.
    passes: u64,
    column_evals: u64,
    source_evals: u64,
    logs: u64,
}

impl<'a> Passes<'a> {
    fn new(layout: &'a ClaimLayout, par: Parallelism) -> Self {
        Self {
            layout,
            par,
            tables: LikelihoodTables::empty(),
            fits: vec![ColumnFit::default(); layout.column_classes()],
            posterior: vec![0.0; layout.assertion_count()],
            passes: 0,
            column_evals: 0,
            source_evals: 0,
            logs: 0,
        }
    }

    /// One pass under `theta`, one rate set per source class: evaluates
    /// each column class once (Eq. 9 and Eq. 7's term), in fixed chunks
    /// over the classes, then copies each class's posterior out to its
    /// columns and sums the observed-data
    /// log-likelihood, plus the log-prior of `theta` when a `prior` is
    /// given. The Eq. 7 terms of all `m` columns are summed within the
    /// fixed chunks of `0..m` and the chunk sums folded in chunk order
    /// from `0.0`, the same sum as
    /// [`data_log_likelihood_with`](crate::data_log_likelihood_with).
    /// The copy-out is a light gather and runs inline, so a pass spawns
    /// workers once.
    fn run(&mut self, theta: &Theta, prior: Option<&ShrinkagePrior>) -> Pass {
        let layout = self.layout;
        self.tables.refill(theta, layout, prior);
        let tables = &self.tables;
        par_fill(self.par, &mut self.fits, |c| {
            tables.slots_column(layout.column_slots(c))
        });
        let (fits, column_class) = (&self.fits, layout.column_class());
        let log_likelihood = par_fill_reduce(
            Parallelism::Serial,
            &mut self.posterior,
            0.0,
            |range, out| {
                let mut sum = 0.0;
                for (z, j) in out.iter_mut().zip(range) {
                    let fit = &fits[column_class[j] as usize];
                    *z = fit.posterior;
                    sum += fit.log_marginal;
                }
                sum
            },
            |a, b| a + b,
        );
        self.passes += 1;
        self.column_evals += fits.len() as u64;
        self.source_evals += tables.source_count() as u64;
        self.logs += tables.logs();
        Pass {
            log_likelihood,
            log_prior: tables.log_prior(),
        }
    }
}

/// SQUAREM's S3 extrapolation from the two maps `θ₀ → θ₁ → θ₂`, each
/// with one rate set per source class: with `r = θ₁ − θ₀` and
/// `v = θ₂ − 2θ₁ + θ₀` (as `(θ₂ − θ₁) − r`), the step `α = −‖r‖/‖v‖` and
/// `θₓ = θ₀ − 2αr + α²v`, clamped into `[EPS, 1 − EPS]`. The norms run
/// over `z` and then every source's `a, b, f, g`, in source order, each
/// source adding its class's squares (`members` holds every source's
/// class; `squares` is a buffer for each class's squares). When `α < −1`
/// it overwrites `theta0` with `θₓ` and returns `true`; otherwise
/// (`α = −1` is the plain second map) it leaves `theta0` alone and
/// returns `false`.
fn extrapolate(
    theta0: &mut Theta,
    theta1: &Theta,
    theta2: &Theta,
    members: &[u32],
    squares: &mut Vec<[[f64; 2]; 4]>,
) -> bool {
    let rv = |x0: f64, x1: f64, x2: f64| {
        let r = x1 - x0;
        (r, (x2 - x1) - r)
    };
    let square = |x0: f64, x1: f64, x2: f64| {
        let (r, v) = rv(x0, x1, x2);
        [r * r, v * v]
    };
    let [mut rr, mut vv] = square(theta0.z(), theta1.z(), theta2.z());
    squares.clear();
    for ((p0, p1), p2) in theta0
        .sources()
        .iter()
        .zip(theta1.sources())
        .zip(theta2.sources())
    {
        squares.push([
            square(p0.a, p1.a, p2.a),
            square(p0.b, p1.b, p2.b),
            square(p0.f, p1.f, p2.f),
            square(p0.g, p1.g, p2.g),
        ]);
    }
    for &c in members {
        for [r2, v2] in squares[c as usize] {
            rr += r2;
            vv += v2;
        }
    }
    let alpha = -(rr.sqrt() / vv.sqrt());
    if !(alpha < -1.0 && alpha.is_finite()) {
        return false;
    }
    let step = |x0: f64, x1: f64, x2: f64| {
        let (r, v) = rv(x0, x1, x2);
        (x0 - 2.0 * alpha * r + alpha * alpha * v).clamp(EPS, 1.0 - EPS)
    };
    theta0.set_z(step(theta0.z(), theta1.z(), theta2.z()));
    for (i, (p1, p2)) in theta1.sources().iter().zip(theta2.sources()).enumerate() {
        let p0 = *theta0.source(i);
        theta0.set_source(
            i,
            SourceParams {
                a: step(p0.a, p1.a, p2.a),
                b: step(p0.b, p1.b, p2.b),
                f: step(p0.f, p1.f, p2.f),
                g: step(p0.g, p1.g, p2.g),
            },
        );
    }
    true
}

/// The M-step's update from sufficient statistics, shared by the full
/// loop and the delta engine.
///
/// Its rows are sources, or a claim layout's source classes: `theta`
/// holds one rate set per row, and `counts[r]` is `[num_a, den_a, num_b,
/// den_b, num_f, den_f, num_g, den_g]` for row `r`. `members` yields
/// every source's row, in source order. Each rate becomes
/// `(num + s·pop) / (den + s)` with the population rate `pop`
/// (numerator totals over denominator totals, each source adding its
/// row's counts in source order) and `s = config.smoothing`; a rate
/// whose `den + s` vanishes keeps its value from `theta`. The prior
/// becomes `z`. Every value is clamped into `[EPS, 1 − EPS]` and written
/// into `next`, which must cover as many rows as `theta`. Returns
/// `max |Δθ|` from `theta` to `next`, over `z` and every row, which is
/// the maximum over every source, and the population rates of `a`, `b`,
/// `f` and `g`.
pub(crate) fn apply_m_step(
    config: &EmConfig,
    theta: &Theta,
    counts: &[[f64; 8]],
    members: impl Iterator<Item = usize>,
    z: f64,
    next: &mut Theta,
) -> (f64, [f64; 4]) {
    let mut pop = [0.0f64; 8];
    for r in members {
        for (p, v) in pop.iter_mut().zip(&counts[r]) {
            *p += v;
        }
    }
    // Population rates per parameter (num totals over den totals).
    let pop_rate = |k: usize| {
        if pop[2 * k + 1] > 1e-12 {
            pop[2 * k] / pop[2 * k + 1]
        } else {
            0.5
        }
    };
    let pop_rates = [pop_rate(0), pop_rate(1), pop_rate(2), pop_rate(3)];
    let s = config.smoothing;
    let z = z.clamp(EPS, 1.0 - EPS);
    next.set_z(z);
    let mut delta = (theta.z() - z).abs();
    for (r, (c, prev)) in counts.iter().zip(theta.sources()).enumerate() {
        let fallback = [prev.a, prev.b, prev.f, prev.g];
        let mut vals = [0.0f64; 4];
        for k in 0..4 {
            let (num, den) = (c[2 * k], c[2 * k + 1]);
            vals[k] = if den + s > 1e-12 {
                (num + s * pop_rates[k]) / (den + s)
            } else {
                fallback[k]
            };
        }
        let p = SourceParams {
            a: vals[0],
            b: vals[1],
            f: vals[2],
            g: vals[3],
        }
        .clamped(EPS);
        delta = delta
            .max((prev.a - p.a).abs())
            .max((prev.b - p.b).abs())
            .max((prev.f - p.f).abs())
            .max((prev.g - p.g).abs());
        next.set_source(r, p);
    }
    (delta, pop_rates)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::likelihood::{
        column_log_likelihood_naive, column_log_likelihood_reference, naive_partition, MAX_ROUNDS,
    };
    use crate::model::classify;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use socsense_matrix::logprob::{log_sum_exp2, normalize_log_pair, safe_ln, safe_ln_1m};
    use socsense_matrix::parallel::par_map_reduce;
    use socsense_matrix::SparseBinaryMatrix;

    /// The three-pass EM loop over the reference kernel, which the fused
    /// loop must match bit for bit: per map an E-step, the M-step, and a
    /// separate log-likelihood pass at the new θ; after the loop, one
    /// posterior pass and one log-odds pass at the final θ. With `warm`
    /// it runs the SQUAREM cycle: the second map of a cycle skips its
    /// log-likelihood, and the extrapolation and its merit are computed
    /// on the spot over a flat parameter vector.
    fn reference_run(em: &EmExt, data: &ClaimData, start: Theta, warm: bool) -> EmFit {
        let cfg = em.config();
        let par = Parallelism::Serial;
        let n = data.source_count();
        let m = data.assertion_count();
        let weights = |theta: &Theta, j: usize| {
            let (ln1, ln0) = column_log_likelihood_reference(
                theta,
                data.sc().col(j as u32),
                data.d().col(j as u32),
            );
            (ln1 + safe_ln(theta.z()), ln0 + safe_ln_1m(theta.z()))
        };
        let posteriors = |theta: &Theta| {
            par_map_collect(par, m, |j| {
                let (w1, w0) = weights(theta, j);
                normalize_log_pair(w1, w0).0
            })
        };
        let log_likelihood = |theta: &Theta| {
            par_map_reduce(
                par,
                m,
                0.0,
                |range| {
                    let mut sum = 0.0;
                    for j in range {
                        let (w1, w0) = weights(theta, j);
                        sum += log_sum_exp2(w1, w0);
                    }
                    sum
                },
                |a, b| a + b,
            )
        };

        // One EM map from θ: the E-step, then Eqs. 24–28 with shrinkage.
        let map = |theta: &Theta| {
            let posterior = posteriors(theta);
            let sum_z: f64 = posterior.iter().sum();
            let sum_y = m as f64 - sum_z;
            let mut next = theta.clone();
            let counts: Vec<[f64; 8]> = par_map_collect(par, n, |iu| {
                let i = iu as u32;
                let mut dep_z = 0.0;
                let mut dep_cells = 0usize;
                for &j in data.d().row(i) {
                    dep_z += posterior[j as usize];
                    dep_cells += 1;
                }
                let dep_y = dep_cells as f64 - dep_z;
                let (mut num_a, mut num_b, mut num_f, mut num_g) = (0.0, 0.0, 0.0, 0.0);
                for &j in data.sc().row(i) {
                    let zj = posterior[j as usize];
                    if data.dependent(i, j) {
                        num_f += zj;
                        num_g += 1.0 - zj;
                    } else {
                        num_a += zj;
                        num_b += 1.0 - zj;
                    }
                }
                [
                    num_a,
                    sum_z - dep_z,
                    num_b,
                    sum_y - dep_y,
                    num_f,
                    dep_z,
                    num_g,
                    dep_y,
                ]
            });
            let mut pop = [0.0f64; 8];
            for c in &counts {
                for (p, v) in pop.iter_mut().zip(c) {
                    *p += v;
                }
            }
            let pop_rate = |k: usize| {
                if pop[2 * k + 1] > 1e-12 {
                    pop[2 * k] / pop[2 * k + 1]
                } else {
                    0.5
                }
            };
            let s = cfg.smoothing;
            for (i, c) in counts.iter().enumerate() {
                let prev = *theta.source(i);
                let fallback = [prev.a, prev.b, prev.f, prev.g];
                let mut vals = [0.0f64; 4];
                for k in 0..4 {
                    let (num, den) = (c[2 * k], c[2 * k + 1]);
                    vals[k] = if den + s > 1e-12 {
                        (num + s * pop_rate(k)) / (den + s)
                    } else {
                        fallback[k]
                    };
                }
                let [a, b, f, g] = vals;
                next.set_source(i, SourceParams { a, b, f, g });
            }
            next.set_z(sum_z / m as f64);
            next.clamp_in_place(EPS);
            let delta = theta.max_abs_diff(&next).unwrap();
            (
                next,
                delta,
                [pop_rate(0), pop_rate(1), pop_rate(2), pop_rate(3)],
            )
        };
        // The log-prior the merit adds at smoothing s > 0: for every rate
        // x of every source, ln(1−x) + w·(ln x − ln(1−x)), summed in
        // source order and scaled by s.
        let log_prior = |theta: &Theta, rates: [f64; 4]| {
            let mut total = 0.0;
            for p in theta.sources() {
                let mut term = 0.0;
                for (x, w) in [p.a, p.b, p.f, p.g].into_iter().zip(rates) {
                    term += safe_ln_1m(x) + w * (safe_ln(x) - safe_ln_1m(x));
                }
                total += term;
            }
            cfg.smoothing * total
        };
        let flat = |theta: &Theta| {
            let mut v = vec![theta.z()];
            for p in theta.sources() {
                v.extend([p.a, p.b, p.f, p.g]);
            }
            v
        };
        // S3: α = −‖r‖/‖v‖, kept only when below −1.
        let squarem_point = |t0: &Theta, t1: &Theta, t2: &Theta| {
            let (x0, x1, x2) = (flat(t0), flat(t1), flat(t2));
            let r: Vec<f64> = x0.iter().zip(&x1).map(|(a, b)| b - a).collect();
            let v: Vec<f64> = (0..x0.len()).map(|k| (x2[k] - x1[k]) - r[k]).collect();
            let rr: f64 = r.iter().fold(0.0, |acc, r| acc + r * r);
            let vv: f64 = v.iter().fold(0.0, |acc, v| acc + v * v);
            let alpha = -(rr.sqrt() / vv.sqrt());
            if !(alpha < -1.0 && alpha.is_finite()) {
                return None;
            }
            let x: Vec<f64> = (0..x0.len())
                .map(|k| (x0[k] - 2.0 * alpha * r[k] + alpha * alpha * v[k]).clamp(EPS, 1.0 - EPS))
                .collect();
            let sources = x[1..]
                .chunks(4)
                .map(|c| SourceParams {
                    a: c[0],
                    b: c[1],
                    f: c[2],
                    g: c[3],
                })
                .collect();
            Some(Theta::new(sources, x[0]).unwrap())
        };

        let mut theta = start;
        let mut ll_history = Vec::new();
        let mut converged = false;
        let mut iterations = 0;
        while iterations < cfg.max_iters {
            iterations += 1;
            let (theta1, delta, rates) = map(&theta);
            let theta0 = std::mem::replace(&mut theta, theta1);
            converged = delta < TOL;
            let ll1 = log_likelihood(&theta);
            ll_history.push(ll1);
            if converged {
                break;
            }
            if !warm || iterations == cfg.max_iters {
                continue;
            }
            let merit = |theta: &Theta, ll: f64| {
                if cfg.smoothing > 0.0 {
                    ll + log_prior(theta, rates)
                } else {
                    ll
                }
            };
            iterations += 1;
            let (theta2, delta, _) = map(&theta);
            converged = delta < TOL;
            if !converged && iterations < cfg.max_iters {
                if let Some(x) = squarem_point(&theta0, &theta, &theta2) {
                    let llx = log_likelihood(&x);
                    if merit(&x, llx) >= merit(&theta, ll1) {
                        theta = x;
                        ll_history.push(llx);
                        continue;
                    }
                }
            }
            theta = theta2;
            ll_history.push(log_likelihood(&theta));
            if converged {
                break;
            }
        }
        let posterior = posteriors(&theta);
        let log_odds = (0..m)
            .map(|j| {
                let (w1, w0) = weights(&theta, j);
                w1 - w0
            })
            .collect();
        EmFit {
            theta,
            posterior,
            log_likelihood: *ll_history.last().unwrap(),
            iterations,
            converged,
            ll_history,
            log_odds,
        }
    }

    /// [`EmExt::fit`] over [`reference_run`]: every init in order, the
    /// earliest best log-likelihood kept.
    fn reference_fit(em: &EmExt, data: &ClaimData) -> EmFit {
        let inits = match em.config().init {
            InitStrategy::Auto => vec![InitStrategy::ClaimRateBiased, InitStrategy::DepBiased],
            other => vec![other],
        };
        let mut best: Option<EmFit> = None;
        for init in inits {
            let fit = reference_run(em, data, initial_theta(data, init), false);
            if best
                .as_ref()
                .is_none_or(|b| fit.log_likelihood > b.log_likelihood)
            {
                best = Some(fit);
            }
        }
        best.unwrap()
    }

    /// Everything a fit serves, as bits.
    type FitBits = (Vec<u64>, Vec<u64>, Vec<u64>, Vec<u64>, u64, usize, bool);

    fn fit_bits(fit: &EmFit) -> FitBits {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let theta: Vec<f64> = fit
            .theta
            .sources()
            .iter()
            .flat_map(|s| [s.a, s.b, s.f, s.g])
            .chain([fit.theta.z()])
            .collect();
        (
            bits(&theta),
            bits(&fit.posterior),
            bits(&fit.log_odds),
            bits(&fit.ll_history),
            fit.log_likelihood.to_bits(),
            fit.iterations,
            fit.converged,
        )
    }

    /// A random world of `n` claiming sources, one that never claims
    /// (but may hold dependent cells) and a run of two or three that
    /// hold no cell at all, with `D` cells only when `with_d`. Up to 150
    /// assertions, so the log-likelihood chunks hold several terms each,
    /// then copies of up to 15 of them, so some columns are equal. Last
    /// come copies of up to two claiming sources, `D` cells included, so
    /// some sources share a class with an earlier one.
    fn random_world() -> impl Strategy<Value = ClaimData> {
        (1u32..8, 1u32..150, 0u32..2, 2u32..4, 0u32..16, 0u32..3).prop_flat_map(
            |(n, m, with_d, idle, copies, dups)| {
                let sc = proptest::collection::vec((0..n, 0..m), 1..150);
                let d = proptest::collection::vec((0..n + 1, 0..m), 0..(1 + 60 * with_d as usize));
                let shape = (n + 1 + idle, m, copies.min(m), dups.min(n));
                (Just(shape), sc, d).prop_map(|((rows, m, copies, dups), sc, d)| {
                    // Column m + k repeats column k's cells, then row
                    // rows + k repeats row k's.
                    let with_copies = |cells: Vec<(u32, u32)>| {
                        let columns: Vec<(u32, u32)> = cells
                            .iter()
                            .filter(|&&(_, j)| j < copies)
                            .map(|&(i, j)| (i, m + j))
                            .chain(cells.iter().copied())
                            .collect();
                        let rows: Vec<(u32, u32)> = columns
                            .iter()
                            .filter(|&&(i, _)| i < dups)
                            .map(|&(i, j)| (rows + i, j))
                            .collect();
                        columns.into_iter().chain(rows).collect::<Vec<_>>()
                    };
                    let (rows, cols) = (rows + dups, m + copies);
                    ClaimData::new(
                        SparseBinaryMatrix::from_entries(rows, cols, with_copies(sc)),
                        SparseBinaryMatrix::from_entries(rows, cols, with_copies(d)),
                    )
                    .expect("shapes match")
                })
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// One pass per θ serves the same bits as the three-pass loop:
        /// θ, posterior, log-odds, `ll_history`, log-likelihood,
        /// iteration count and convergence, at every parallelism level.
        /// Each world runs at smoothing 0 and 2 and at 1, 3 and 200
        /// iterations, cold from `Auto` or `DepBiased` or warm from a
        /// random θ.
        #[test]
        #[cfg_attr(miri, ignore = "EM sweep is too slow under Miri")]
        fn fused_loop_matches_the_three_pass_reference(
            data in random_world(),
            start in 0u32..3,
            seed in 0u64..1000,
        ) {
            let warm_start = (start == 2).then(|| {
                let mut rng = StdRng::seed_from_u64(seed);
                Theta::random(data.source_count(), &mut rng)
            });
            for smoothing in [0.0, 2.0] {
                for max_iters in [1, 3, 200] {
                    let config = EmConfig {
                        smoothing,
                        max_iters,
                        init: if start == 0 {
                            InitStrategy::Auto
                        } else {
                            InitStrategy::DepBiased
                        },
                        ..EmConfig::default()
                    };
                    let want = match &warm_start {
                        Some(theta) => reference_run(&EmExt::new(config), &data, theta.clone(), true),
                        None => reference_fit(&EmExt::new(config), &data),
                    };
                    prop_assert_eq!(want.ll_history.len(), want.iterations);
                    for par in [Parallelism::Serial, Parallelism::Threads(2), Parallelism::Threads(4)] {
                        let em = EmExt::new(EmConfig { parallelism: par, ..config });
                        let got = match &warm_start {
                            Some(theta) => em.fit_warm(&data, theta.clone()).unwrap(),
                            None => em.fit(&data).unwrap(),
                        };
                        prop_assert_eq!(
                            fit_bits(&got),
                            fit_bits(&want),
                            "{:?}, smoothing {}, max_iters {}",
                            par,
                            smoothing,
                            max_iters
                        );
                    }
                }
            }
        }
    }

    /// A [`random_world`] with its dependent claims removed, so every `D`
    /// cell is a silence (`SC ∩ D = ∅`): the `(SC∖D, D)` that EM-Social
    /// fits. The last source that holds no cell gets a `D` cell on
    /// assertion 0, so `D` is never empty.
    fn silent_dependence_world() -> impl Strategy<Value = ClaimData> {
        random_world().prop_map(|data| {
            let sc = data.sc();
            let (n, m) = (sc.nrows(), sc.ncols());
            let idle = (0..n)
                .rev()
                .find(|&i| sc.row_nnz(i) == 0 && data.d().row_nnz(i) == 0)
                .expect("every world has a run of sources without a cell");
            let independent = sc.entries().filter(|&(i, j)| !data.dependent(i, j));
            let dependent = data.d().entries().chain([(idle, 0)]);
            ClaimData::new(
                SparseBinaryMatrix::from_entries(n, m, independent),
                SparseBinaryMatrix::from_entries(n, m, dependent),
            )
            .unwrap()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// With every `D` cell silent, one map at the default smoothing
        /// sets each source's `f` and `g` to `ε`, since no dependent claim
        /// feeds their numerators. Under any `θ` with `f = g` the `D`
        /// cells then cancel: the posterior is the product over the other
        /// cells alone.
        #[test]
        #[cfg_attr(miri, ignore = "EM sweep is too slow under Miri")]
        fn silent_dependent_cells_cancel_once_f_equals_g(
            data in silent_dependence_world(),
            seed in 0u64..1000,
        ) {
            let config = EmConfig { max_iters: 1, ..EmConfig::default() };
            let fit = EmExt::new(config).fit(&data).unwrap();
            for s in fit.theta.sources() {
                prop_assert_eq!((s.f, s.g), (EPS, EPS));
            }

            let (n, m) = (data.source_count(), data.assertion_count());
            let mut theta = Theta::random(n, &mut StdRng::seed_from_u64(seed));
            for i in 0..n {
                let s = *theta.source(i);
                theta.set_source(i, SourceParams { g: s.f, ..s });
            }
            let (ln_z, ln_1z) = (safe_ln(theta.z()), safe_ln_1m(theta.z()));
            let served =
                crate::likelihood::assertion_posteriors_with(&data, &theta, Parallelism::Serial)
                    .unwrap();
            for j in 0..m as u32 {
                let (mut ln1, mut ln0) = (ln_z, ln_1z);
                for i in (0..n as u32).filter(|&i| !data.dependent(i, j)) {
                    let s = theta.source(i as usize);
                    ln1 += safe_ln(s.claim_prob(true, false, data.claimed(i, j)));
                    ln0 += safe_ln(s.claim_prob(false, false, data.claimed(i, j)));
                }
                let alone = normalize_log_pair(ln1, ln0).0;
                let every_cell = normalize_log_pair(
                    column_log_likelihood_naive(&data, &theta, j, true) + ln_z,
                    column_log_likelihood_naive(&data, &theta, j, false) + ln_1z,
                )
                .0;
                prop_assert!((every_cell - alone).abs() < 1e-10, "j={}: {}", j, every_cell);
                prop_assert!((served[j as usize] - alone).abs() < 1e-10, "j={}", j);
            }
        }
    }

    /// 6 sources: 0..3 reliable (claim true assertions 0..4),
    /// 4..5 liars (claim false assertions 5..9).
    fn separable_data() -> (ClaimData, Vec<bool>) {
        let mut entries = Vec::new();
        for i in 0..4u32 {
            for j in 0..5u32 {
                entries.push((i, j));
            }
        }
        for i in 4..6u32 {
            for j in 5..10u32 {
                entries.push((i, j));
            }
        }
        let sc = SparseBinaryMatrix::from_entries(6, 10, entries);
        let d = SparseBinaryMatrix::empty(6, 10);
        let truth = (0..10).map(|j| j < 5).collect();
        (ClaimData::new(sc, d).unwrap(), truth)
    }

    #[test]
    #[cfg_attr(miri, ignore = "EM sweep is too slow under Miri")]
    fn recovers_separable_truth() {
        let (data, truth) = separable_data();
        let fit = EmExt::new(EmConfig::default()).fit(&data).unwrap();
        assert!(fit.converged, "should converge on tiny data");
        assert_eq!(classify(&fit.posterior), truth);
        // Reliable majority sources end with high a.
        assert!(fit.theta.source(0).a > 0.8);
    }

    #[test]
    #[cfg_attr(miri, ignore = "EM sweep is too slow under Miri")]
    fn log_likelihood_is_monotone_nondecreasing_without_smoothing() {
        // Smoothing = 0 is the paper's exact EM, whose observed-data
        // log-likelihood is guaranteed non-decreasing; with shrinkage the
        // iteration maximises a penalised objective instead.
        let (data, _) = separable_data();
        let fit = EmExt::new(EmConfig {
            smoothing: 0.0,
            ..EmConfig::default()
        })
        .fit(&data)
        .unwrap();
        for w in fit.ll_history.windows(2) {
            assert!(
                w[1] >= w[0] - 1e-8,
                "EM log-likelihood decreased: {} -> {}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "EM sweep is too slow under Miri")]
    fn deterministic_given_config() {
        let (data, _) = separable_data();
        let em = EmExt::new(EmConfig::default());
        let f1 = em.fit(&data).unwrap();
        let f2 = em.fit(&data).unwrap();
        assert_eq!(f1.posterior, f2.posterior);
        assert_eq!(f1.theta, f2.theta);
    }

    #[test]
    #[cfg_attr(miri, ignore = "EM sweep is too slow under Miri")]
    fn auto_init_tie_keeps_the_earliest_init() {
        // With no dependent cells the f/g parameters are inert: the
        // ClaimRateBiased and DepBiased sweeps reach bit-identical
        // log-likelihoods while their f/g values differ (smoothing 0
        // preserves the init values through every M-step). The keep-best
        // fold must use a strict `>` so the FIRST init wins the tie; a
        // `>=` regression — easy to introduce when parallelising the
        // sweep — would silently return the second init's fit.
        let (data, _) = separable_data();
        let cfg = EmConfig {
            smoothing: 0.0,
            ..EmConfig::default()
        };
        let auto = EmExt::new(cfg).fit(&data).unwrap();
        let first = EmExt::new(EmConfig {
            init: InitStrategy::ClaimRateBiased,
            ..cfg
        })
        .fit(&data)
        .unwrap();
        let second = EmExt::new(EmConfig {
            init: InitStrategy::DepBiased,
            ..cfg
        })
        .fit(&data)
        .unwrap();
        assert_eq!(
            second.log_likelihood.to_bits(),
            first.log_likelihood.to_bits(),
            "premise: the two inits must tie exactly on this data"
        );
        assert_ne!(first.theta, second.theta, "premise: fits must differ");
        assert_eq!(auto.theta, first.theta, "earliest init must win the tie");
    }

    #[test]
    #[cfg_attr(miri, ignore = "EM sweep is too slow under Miri")]
    fn parallelism_levels_give_bit_identical_fits() {
        let (data, _) = separable_data();
        let fit_at = |par| {
            EmExt::new(EmConfig {
                parallelism: par,
                ..EmConfig::default()
            })
            .fit(&data)
            .unwrap()
        };
        let serial = fit_at(Parallelism::Serial);
        for par in [
            Parallelism::Auto,
            Parallelism::Threads(2),
            Parallelism::Threads(4),
        ] {
            let threaded = fit_at(par);
            assert_eq!(serial.theta, threaded.theta, "{par:?}");
            assert_eq!(serial.posterior, threaded.posterior, "{par:?}");
            assert_eq!(serial.ll_history, threaded.ll_history, "{par:?}");
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "EM sweep is too slow under Miri")]
    fn dependent_claims_are_discounted() {
        // Root source 0 claims assertions 0..6; sources 1..=4 echo it
        // (dependent). One independent contradicting source claims 7..9.
        let mut entries = vec![];
        let mut dep = vec![];
        for j in 0..6u32 {
            entries.push((0u32, j));
            for i in 1..5u32 {
                entries.push((i, j));
                dep.push((i, j));
            }
        }
        for j in 6..9u32 {
            entries.push((5u32, j));
        }
        let sc = SparseBinaryMatrix::from_entries(6, 9, entries.clone());
        let d_with = SparseBinaryMatrix::from_entries(6, 9, dep);
        let d_without = SparseBinaryMatrix::empty(6, 9);
        let with = EmExt::new(EmConfig::default())
            .fit(&ClaimData::new(sc.clone(), d_with).unwrap())
            .unwrap();
        let without = EmExt::new(EmConfig::default())
            .fit(&ClaimData::new(sc, d_without).unwrap())
            .unwrap();
        // Ignoring dependencies, the echoed assertions look much more
        // substantiated than the lone claims; the dependency-aware fit
        // narrows that gap.
        let gap_with = with.posterior[0] - with.posterior[7];
        let gap_without = without.posterior[0] - without.posterior[7];
        assert!(
            gap_with <= gap_without + 1e-9,
            "dependency-aware gap {gap_with} should not exceed naive gap {gap_without}"
        );
    }

    #[test]
    fn bad_config_rejected() {
        let (data, _) = separable_data();
        assert!(matches!(
            EmExt::new(EmConfig {
                max_iters: 0,
                ..EmConfig::default()
            })
            .fit(&data),
            Err(SenseError::BadConfig { .. })
        ));
    }

    #[test]
    #[cfg_attr(miri, ignore = "EM sweep is too slow under Miri")]
    fn recorder_observes_without_changing_the_fit() {
        let (data, _) = separable_data();
        let plain = EmExt::new(EmConfig::default()).fit(&data).unwrap();
        let (obs, rec) = Obs::recorder();
        let traced = EmExt::new(EmConfig::default())
            .with_obs(obs)
            .fit(&data)
            .unwrap();

        let bits = |p: &[f64]| p.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&plain.posterior), bits(&traced.posterior));
        assert_eq!(plain.theta, traced.theta);
        assert_eq!(plain.ll_history, traced.ll_history);

        let snap = rec.snapshot();
        // Auto init sweeps both deterministic starting points.
        assert_eq!(snap.counter("em.fit.inits_total"), 2);
        assert_eq!(snap.counter("em.runs_total"), 2);
        assert_eq!(snap.counter("em.runs_converged_total"), 2);
        assert_eq!(snap.histogram("em.run.iterations").unwrap().count, 2);
        assert_eq!(snap.histogram("em.fit.seconds").unwrap().count, 1);
        assert!(snap.histogram("em.run.final_delta").unwrap().max < 1e-6);
        assert!(snap.histogram("em.run.ll_improvement").unwrap().min >= 0.0);
        let iterations = snap.counter("em.iterations_total");
        assert!(iterations >= 2);
        // Cold runs take one pass per map plus one at the start.
        let passes = snap.counter("em.passes_total");
        assert_eq!(passes, 2 + iterations);
        assert_eq!(snap.counter("em.extrapolations_total"), 0);
        // Two column classes (0..5 and 5..10), one evaluation each per
        // pass. A build takes `ln z`, `ln(1−z)` and the first class's
        // four logarithms; both classes share their rates at the start,
        // so the other reuses them.
        assert_eq!(snap.counter("em.column_evals_total"), 2 * passes);
        // Sources 0..3 form one class and sources 4 and 5 another, so
        // each build computes the terms of two rows.
        assert_eq!(snap.counter("em.source_evals_total"), 2 * passes);
        let logs = snap.counter("em.logs_total");
        assert!(
            (6 * passes..(4 * 6 + 2) * passes).contains(&logs),
            "{logs} logarithms over {passes} passes"
        );

        // A warm fit from a random θ, traced the same way.
        let start = Theta::random(data.source_count(), &mut StdRng::seed_from_u64(3));
        let plain = EmExt::new(EmConfig::default())
            .fit_warm(&data, start.clone())
            .unwrap();
        let (obs, rec) = Obs::recorder();
        let traced = EmExt::new(EmConfig::default())
            .with_obs(obs)
            .fit_warm(&data, start)
            .unwrap();
        assert_eq!(fit_bits(&plain), fit_bits(&traced));
        let snap = rec.snapshot();
        assert_eq!(snap.counter("em.warm_starts_total"), 1);
        assert_eq!(snap.counter("em.runs_total"), 1);
        assert_eq!(snap.counter("em.runs_converged_total"), 1);
        assert_eq!(
            snap.counter("em.iterations_total"),
            traced.iterations as u64
        );
        let (tried, rejected) = (
            snap.counter("em.extrapolations_total"),
            snap.counter("em.extrapolations_rejected_total"),
        );
        assert!(
            tried >= 1 && rejected <= tried,
            "{tried} tried, {rejected} rejected"
        );
        // A rejected extrapolation costs one pass more than the map it
        // replaced; every other map costs one.
        let passes = snap.counter("em.passes_total");
        assert_eq!(passes, 1 + traced.iterations as u64 + rejected);
        assert_eq!(snap.counter("em.column_evals_total"), 2 * passes);
        // Merit passes fill all six logarithms of every source.
        let logs = snap.counter("em.logs_total");
        assert!(
            (6 * passes..(6 * 6 + 2) * passes).contains(&logs),
            "{logs} logarithms over {passes} passes"
        );
    }

    #[test]
    #[cfg_attr(miri, ignore = "EM sweep is too slow under Miri")]
    fn recorded_totals_are_parallelism_invariant() {
        let (data, _) = separable_data();
        let start = Theta::random(data.source_count(), &mut StdRng::seed_from_u64(3));
        let totals_at = |par| {
            let (obs, rec) = Obs::recorder();
            let em = EmExt::new(EmConfig {
                parallelism: par,
                ..EmConfig::default()
            })
            .with_obs(obs);
            em.fit(&data).unwrap();
            em.fit_warm(&data, start.clone()).unwrap();
            let snap = rec.snapshot();
            (
                [
                    "em.runs_total",
                    "em.iterations_total",
                    "em.passes_total",
                    "em.column_evals_total",
                    "em.source_evals_total",
                    "em.logs_total",
                    "em.extrapolations_total",
                    "em.extrapolations_rejected_total",
                ]
                .map(|name| snap.counter(name)),
                snap.histogram("em.run.iterations").unwrap().sum,
            )
        };
        assert_eq!(
            totals_at(Parallelism::Serial),
            totals_at(Parallelism::Threads(4))
        );
    }

    /// The EM test Miri runs: a warm fit small enough for the
    /// interpreter that still takes one accepted and one rejected
    /// extrapolation, so the SQUAREM cycle's buffer swaps run under it.
    #[test]
    fn tiny_warm_fit_accepts_and_rejects_extrapolations() {
        // Sources 0 and 1 claim assertions 0 and 1, source 1 copying on
        // assertion 1; source 0 alone claims 2 and source 2 alone 3 and 4.
        let sc = SparseBinaryMatrix::from_entries(
            3,
            5,
            [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 3), (2, 4)],
        );
        let d = SparseBinaryMatrix::from_entries(3, 5, [(1, 1)]);
        let data = ClaimData::new(sc, d).unwrap();
        let start = Theta::random(3, &mut StdRng::seed_from_u64(2));
        let (obs, rec) = Obs::recorder();
        let fit = EmExt::new(EmConfig {
            max_iters: 6,
            parallelism: Parallelism::Serial,
            ..EmConfig::default()
        })
        .with_obs(obs)
        .fit_warm(&data, start)
        .unwrap();
        let snap = rec.snapshot();
        assert_eq!(snap.counter("em.extrapolations_total"), 2);
        assert_eq!(snap.counter("em.extrapolations_rejected_total"), 1);
        assert_eq!((fit.iterations, fit.ll_history.len()), (6, 6));
        assert_eq!(snap.counter("em.passes_total"), 1 + 6 + 1);
        // The run stopped at a map's output, and its last pass is the
        // answer served for that θ.
        let served =
            crate::likelihood::assertion_posteriors_with(&data, &fit.theta, Parallelism::Serial)
                .unwrap();
        assert_eq!(served, fit.posterior);
    }

    /// The layout's test Miri runs: a warm fit over two equal columns
    /// and two sources without a cell, so the refinement, the copy-out
    /// and the logarithm reuse all run under the interpreter, against the
    /// three-pass reference.
    #[test]
    fn tiny_warm_fit_over_equal_columns_matches_the_reference() {
        // Sources 0 and 1 claim assertions 0 and 1 alike, source 1
        // copying; source 0 alone claims 2. Sources 2 and 3 hold nothing.
        let sc = SparseBinaryMatrix::from_entries(4, 3, [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1)]);
        let d = SparseBinaryMatrix::from_entries(4, 3, [(1, 0), (1, 1)]);
        let data = ClaimData::new(sc, d).unwrap();
        let start = Theta::random(4, &mut StdRng::seed_from_u64(5));
        let em = EmExt::new(EmConfig {
            max_iters: 6,
            parallelism: Parallelism::Serial,
            ..EmConfig::default()
        });
        let (obs, rec) = Obs::recorder();
        let fit = em
            .clone()
            .with_obs(obs)
            .fit_warm(&data, start.clone())
            .unwrap();
        let snap = rec.snapshot();
        assert_eq!(
            snap.counter("em.column_evals_total"),
            2 * snap.counter("em.passes_total"),
            "premise: assertions 0 and 1 are one class"
        );
        assert_eq!(
            fit_bits(&fit),
            fit_bits(&reference_run(&em, &data, start, true))
        );
    }

    /// Fits `data` cold, or warm from `start`, at `Serial`, `Threads(2)`
    /// and `Threads(4)`, asserts that each serves the three-pass
    /// reference's bits, and returns the passes, column-class evaluations
    /// and source-class evaluations counted, which every level repeats.
    fn fit_like_the_reference(
        config: EmConfig,
        data: &ClaimData,
        start: Option<&Theta>,
    ) -> [u64; 3] {
        let want = match start {
            Some(theta) => reference_run(&EmExt::new(config), data, theta.clone(), true),
            None => reference_fit(&EmExt::new(config), data),
        };
        let mut counts = Vec::new();
        for par in [
            Parallelism::Serial,
            Parallelism::Threads(2),
            Parallelism::Threads(4),
        ] {
            let (obs, rec) = Obs::recorder();
            let em = EmExt::new(EmConfig {
                parallelism: par,
                ..config
            })
            .with_obs(obs);
            let got = match start {
                Some(theta) => em.fit_warm(data, theta.clone()),
                None => em.fit(data),
            };
            assert_eq!(fit_bits(&got.unwrap()), fit_bits(&want), "{par:?}");
            let snap = rec.snapshot();
            let names = [
                "em.passes_total",
                "em.column_evals_total",
                "em.source_evals_total",
            ];
            counts.push(names.map(|name| snap.counter(name)));
        }
        assert!(counts.windows(2).all(|w| w[0] == w[1]), "{counts:?}");
        counts[0]
    }

    /// A warm start whose rates differ inside a structural class splits
    /// that class. Sources 0 and 1 claim assertion 0 and copy on
    /// assertion 1, and sources 3 and 4 hold nothing, so a cold fit's
    /// layout puts each pair in one class. A warm fit seeds the partition
    /// with its start: one that gives each pair one set of rates keeps 3
    /// source classes, and one that gives source 1 rates of its own and
    /// source 4 its own `f` and `g` (which, at smoothing 0, no cell ever
    /// informs) splits both pairs, into 5. Every level serves the
    /// three-pass reference's bits either way.
    #[test]
    fn tiny_warm_fit_over_copied_sources_matches_the_reference() {
        let sc = SparseBinaryMatrix::from_entries(5, 3, [(0, 0), (0, 1), (1, 0), (1, 1), (2, 2)]);
        let d = SparseBinaryMatrix::from_entries(5, 3, [(0, 1), (1, 1)]);
        let data = ClaimData::new(sc, d).unwrap();
        let layout = ClaimLayout::new(&data, None).unwrap();
        assert_eq!(layout.source_class(), [0, 0, 1, 2, 2]);
        let mut shared = Theta::random(5, &mut StdRng::seed_from_u64(7));
        shared.set_source(1, *shared.source(0));
        shared.set_source(4, *shared.source(3));
        let mut split = shared.clone();
        let own = *Theta::random(5, &mut StdRng::seed_from_u64(8)).source(1);
        split.set_source(1, own);
        let s3 = *shared.source(3);
        split.set_source(
            4,
            SourceParams {
                f: 0.3,
                g: 0.6,
                ..s3
            },
        );
        for smoothing in [0.0, 2.0] {
            let config = EmConfig {
                max_iters: 6,
                smoothing,
                ..EmConfig::default()
            };
            for (start, classes) in [(&shared, 3), (&split, 5)] {
                let [passes, _, evals] = fit_like_the_reference(config, &data, Some(start));
                assert_eq!(evals, classes * passes, "smoothing {smoothing}");
            }
        }
    }

    /// Sources and columns that EM cannot tell apart, though no two hold
    /// the same cells: sources 0 and 1 each claim a column of their own,
    /// which source 2 copies, and source 3 alone claims column 2. Sources
    /// 0 and 1 form one class and columns 0 and 1 another, so each pass
    /// evaluates 3 source classes and 2 column classes, where one per
    /// distinct row and column would be 4 and 3.
    #[test]
    fn tiny_fits_share_equivalent_sources_and_columns() {
        let sc = SparseBinaryMatrix::from_entries(4, 3, [(0, 0), (1, 1), (2, 0), (2, 1), (3, 2)]);
        let d = SparseBinaryMatrix::from_entries(4, 3, [(2, 0), (2, 1)]);
        let data = ClaimData::new(sc, d).unwrap();
        let layout = ClaimLayout::new(&data, None).unwrap();
        assert_eq!(layout.source_class(), [0, 0, 1, 2]);
        assert_eq!(layout.column_class(), [0, 0, 1]);
        // A warm start that gives sources 0 and 1 one set of rates keeps
        // their class.
        let mut start = Theta::random(4, &mut StdRng::seed_from_u64(11));
        start.set_source(1, *start.source(0));
        for smoothing in [0.0, 2.0] {
            let config = EmConfig {
                max_iters: 6,
                smoothing,
                ..EmConfig::default()
            };
            for start in [None, Some(&start)] {
                let [passes, columns, sources] = fit_like_the_reference(config, &data, start);
                assert_eq!((columns, sources), (2 * passes, 3 * passes));
            }
        }
    }

    /// Two 3-slot columns whose claimants' classes come in swapped order
    /// stay apart. Column 0's claimants are sources 0, 1 and 2, column
    /// 1's sources 3, 4 and 5; sources 0 and 4 also claim one column of
    /// their own, sources 1 and 3 two, and sources 2 and 5 none. After
    /// one round column 0 reads classes (A, B, C) and column 1 (B, A, C):
    /// one multiset, which plain colour refinement would keep in one
    /// class, in two orders, whose sums can differ in the last bit.
    #[test]
    fn tiny_fits_keep_columns_with_swapped_claimant_order_apart() {
        let own = [(0, 2), (4, 3), (1, 4), (1, 5), (3, 6), (3, 7)];
        let shared = [(0, 0), (1, 0), (2, 0), (3, 1), (4, 1), (5, 1)];
        let sc = SparseBinaryMatrix::from_entries(6, 8, shared.into_iter().chain(own));
        let data = ClaimData::new(sc, SparseBinaryMatrix::empty(6, 8)).unwrap();
        let layout = ClaimLayout::new(&data, None).unwrap();
        let class = layout.column_class();
        assert_ne!(class[0], class[1]);
        assert_eq!(
            class[4], class[5],
            "premise: a source's own columns look alike"
        );
        let config = EmConfig {
            max_iters: 6,
            ..EmConfig::default()
        };
        fit_like_the_reference(config, &data, None);
    }

    /// A world that needs more than [`MAX_ROUNDS`] rounds gets the
    /// discrete partition: a path in which source `i` claims columns `i`
    /// and `i + 1`, and three sources that hold nothing. Each round
    /// carries what tells the path's ends apart one step further in, so
    /// the naive refinement, which has no cap, splits the path fully and
    /// keeps the three idle sources in one class, while the layout stops
    /// at the cap with every source and column in a class of its own.
    #[test]
    fn tiny_fit_over_a_path_beyond_the_round_cap_matches_the_reference() {
        let len = 2 * MAX_ROUNDS as u32 + 8;
        let path = (0..len).flat_map(|i| [(i, i), (i, i + 1)]);
        let (n, m) = (len + 3, len + 1);
        let sc = SparseBinaryMatrix::from_entries(n, m, path);
        let data = ClaimData::new(sc, SparseBinaryMatrix::empty(n, m)).unwrap();
        let (sources, _) = naive_partition(&data, None);
        assert_eq!(
            sources.iter().max(),
            Some(&len),
            "premise: only the idle sources share a class"
        );
        let layout = ClaimLayout::new(&data, None).unwrap();
        assert_eq!(layout.source_classes(), n as usize);
        assert_eq!(layout.column_classes(), m as usize);
        let config = EmConfig {
            max_iters: 4,
            ..EmConfig::default()
        };
        let [passes, columns, evals] = fit_like_the_reference(config, &data, None);
        assert_eq!(
            (columns, evals),
            (u64::from(m) * passes, u64::from(n) * passes)
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// The layout's classes are the naive refinement's, and every
        /// member of a class holds its class's bits in the three-pass
        /// reference's fits, which the fused loop serves: the rates of a
        /// source class, the posterior and log-odds of a column class.
        /// Fits run cold from `Auto` and warm from a random start that
        /// gives each class one set of rates, which seeds the same
        /// partition.
        #[test]
        fn layout_classes_are_the_naive_refinement_and_share_every_bit(
            data in random_world(),
            seed in 0u64..1000,
        ) {
            let layout = ClaimLayout::new(&data, None).unwrap();
            let (sources, columns) = naive_partition(&data, None);
            prop_assert_eq!(layout.source_class(), &sources[..]);
            prop_assert_eq!(layout.column_class(), &columns[..]);
            let classes = Theta::random(layout.source_classes(), &mut StdRng::seed_from_u64(seed));
            let start = layout.sources_of(&classes);
            let seeded = ClaimLayout::new(&data, Some(&start)).unwrap();
            prop_assert_eq!(seeded.source_class(), layout.source_class());

            let em = EmExt::new(EmConfig { max_iters: 8, ..EmConfig::default() });
            let cold = reference_fit(&em, &data);
            let warm = reference_run(&em, &data, start.clone(), true);
            prop_assert_eq!(fit_bits(&em.fit(&data).unwrap()), fit_bits(&cold));
            prop_assert_eq!(fit_bits(&em.fit_warm(&data, start).unwrap()), fit_bits(&warm));
            // The first member of each class.
            let first = |classes: &[u32]| {
                let mut first = Vec::new();
                for (k, &c) in classes.iter().enumerate() {
                    if c as usize == first.len() {
                        first.push(k);
                    }
                }
                first
            };
            let (first_source, first_column) = (first(&sources), first(&columns));
            for fit in [&cold, &warm] {
                let rates = |i: usize| {
                    let p = fit.theta.source(i);
                    [p.a, p.b, p.f, p.g].map(f64::to_bits)
                };
                for (i, &c) in sources.iter().enumerate() {
                    prop_assert_eq!(rates(i), rates(first_source[c as usize]));
                }
                for (j, &c) in columns.iter().enumerate() {
                    let k = first_column[c as usize];
                    prop_assert_eq!(fit.posterior[j].to_bits(), fit.posterior[k].to_bits());
                    prop_assert_eq!(fit.log_odds[j].to_bits(), fit.log_odds[k].to_bits());
                }
            }
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "EM sweep is too slow under Miri")]
    fn estimated_z_tracks_truth_share() {
        let (data, truth) = separable_data();
        let fit = EmExt::new(EmConfig::default()).fit(&data).unwrap();
        let truth_share = truth.iter().filter(|&&t| t).count() as f64 / truth.len() as f64;
        assert!((fit.theta.z() - truth_share).abs() < 0.15);
    }
}
