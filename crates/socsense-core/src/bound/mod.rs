//! Fundamental error bounds on assertion misclassification (Sec. III).
//!
//! The bound is the Bayes risk of the *optimal* detector for one
//! assertion: knowing `θ` and the assertion's dependency column exactly,
//! no estimator can average a lower error than
//!
//! ```text
//! E^opt(error) = Σ_{sc ∈ {0,1}^n} min( z·P(sc|C=1),  (1-z)·P(sc|C=0) )     (Eq. 3)
//! ```
//!
//! [`exact_bound`] evaluates the sum exactly with a decision-pruned
//! depth-first enumeration; [`gibbs_bound`] approximates it by Gibbs
//! sampling (Algorithm 1). Both report the split into *false-positive*
//! mass (false assertions the optimal detector would label true) and
//! *false-negative* mass, which the paper plots in Figs. 3–5 and 7–10.

mod exact;
mod gibbs;
mod mismatch;

use serde::{Deserialize, Serialize};

use socsense_matrix::parallel::{par_map_collect, Parallelism};
use socsense_obs::Obs;

use exact::exact_bound_counted;
pub use exact::{exact_bound, exact_bound_from_table, MAX_EXACT_SOURCES};
pub use gibbs::{gibbs_bound, GibbsConfig, GibbsEstimator, GibbsOutcome};
pub use mismatch::mismatched_decision_error;

use crate::data::ClaimData;
use crate::error::SenseError;
use crate::model::Theta;

/// A Bayes-risk bound with its false-positive / false-negative split.
///
/// Invariant: `error = false_positive + false_negative` (up to floating
/// point rounding).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct BoundResult {
    /// Total expected misclassification probability.
    pub error: f64,
    /// Portion from labelling false assertions true.
    pub false_positive: f64,
    /// Portion from labelling true assertions false.
    pub false_negative: f64,
}

impl BoundResult {
    /// The paper's "Optimal" accuracy curve: `1 - error`.
    pub fn optimal_accuracy(&self) -> f64 {
        1.0 - self.error
    }

    fn mean_of(results: &[BoundResult]) -> BoundResult {
        let k = results.len().max(1) as f64;
        BoundResult {
            error: results.iter().map(|r| r.error).sum::<f64>() / k,
            false_positive: results.iter().map(|r| r.false_positive).sum::<f64>() / k,
            false_negative: results.iter().map(|r| r.false_negative).sum::<f64>() / k,
        }
    }
}

/// How [`bound_for_data`] evaluates each per-assertion bound.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum BoundMethod {
    /// Exact enumeration (Eq. 3); errors out beyond
    /// [`MAX_EXACT_SOURCES`] sources.
    Exact,
    /// Gibbs-sampling approximation (Algorithm 1).
    Gibbs(GibbsConfig),
    /// Exact up to `exact_max_sources`, Gibbs beyond.
    Auto {
        /// Largest `n` still enumerated exactly.
        exact_max_sources: usize,
        /// Sampler settings used past that point.
        gibbs: GibbsConfig,
    },
}

impl Default for BoundMethod {
    fn default() -> Self {
        BoundMethod::Auto {
            exact_max_sources: 20,
            gibbs: GibbsConfig::default(),
        }
    }
}

/// Per-source claim probabilities `(P(claim | C=1), P(claim | C=0))` for
/// assertion `j`: `(a_i, b_i)` on independent cells, `(f_i, g_i)` on
/// dependent ones.
pub(crate) fn assertion_probs(data: &ClaimData, theta: &Theta, j: u32) -> Vec<(f64, f64)> {
    let mut probs: Vec<(f64, f64)> = theta.sources().iter().map(|s| (s.a, s.b)).collect();
    for &i in data.d().col(j) {
        let s = theta.source(i as usize);
        probs[i as usize] = (s.f, s.g);
    }
    probs
}

/// Mean Bayes-risk bound over a chosen subset of assertions.
///
/// Each assertion has its own dependency column and therefore its own
/// bound; the paper reports the average. Use this to subsample large
/// datasets; [`bound_for_data`] covers every assertion.
///
/// # Errors
///
/// Propagates dimension mismatches and [`SenseError::TooManySources`]
/// from the exact path; returns [`SenseError::EmptyData`] when
/// `assertions` is empty.
pub fn bound_for_assertions(
    data: &ClaimData,
    theta: &Theta,
    method: &BoundMethod,
    assertions: &[u32],
) -> Result<BoundResult, SenseError> {
    bound_for_assertions_traced(
        data,
        theta,
        method,
        assertions,
        Parallelism::Auto,
        &Obs::none(),
    )
}

/// Derives the Gibbs seed for assertion `j` from the configured base
/// seed (a SplitMix64-style mix). Every assertion then runs its own
/// independent chain, and — because the derivation depends only on
/// `(seed, j)` — the chain is the same whichever worker evaluates it.
fn per_assertion_gibbs(cfg: &GibbsConfig, j: u32) -> GibbsConfig {
    let mut x = cfg
        .seed
        .wrapping_add((j as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    GibbsConfig {
        seed: x ^ (x >> 31),
        ..*cfg
    }
}

/// [`bound_for_assertions`] at an explicit [`Parallelism`] level,
/// reporting `bound.*` metrics to `obs` ([`Obs::none`] reports nothing).
///
/// Per-assertion bounds are evaluated in fixed index chunks and averaged
/// in assertion order, so every level returns bit-identical results.
/// Gibbs chains get per-assertion seeds derived from the configured seed
/// (see [`GibbsConfig::seed`]), keeping each chain independent of which
/// worker runs it.
///
/// The metrics are evaluation wall time, assertions per method (exact
/// vs. Gibbs), and the work each method did — nodes the pruned exact
/// walk visited (`bound.exact.nodes_total`) and Gibbs samples drawn
/// (`bound.gibbs.samples_total`). Per-assertion outcomes are collected
/// first and emitted serially in assertion order, so recorded totals are
/// deterministic at every [`Parallelism`] level — and the returned
/// bound is bit-identical to the untraced call.
///
/// # Errors
///
/// See [`bound_for_assertions`].
pub fn bound_for_assertions_traced(
    data: &ClaimData,
    theta: &Theta,
    method: &BoundMethod,
    assertions: &[u32],
    par: Parallelism,
    obs: &Obs,
) -> Result<BoundResult, SenseError> {
    if assertions.is_empty() {
        return Err(SenseError::EmptyData);
    }
    if data.source_count() != theta.source_count() {
        return Err(SenseError::DimensionMismatch {
            what: "theta source count vs data",
            expected: data.source_count(),
            actual: theta.source_count(),
        });
    }
    for &j in assertions {
        if j as usize >= data.assertion_count() {
            return Err(SenseError::DimensionMismatch {
                what: "assertion index vs data",
                expected: data.assertion_count(),
                actual: j as usize,
            });
        }
    }
    let n = data.source_count();
    let timer = obs.timer("bound.eval.seconds");
    // Each evaluation also reports how it ran and the work it did.
    enum Work {
        /// Exact enumeration: nodes the pruned walk visited.
        Exact(u64),
        /// Gibbs chain: samples drawn, and whether it converged.
        Gibbs(usize, bool),
    }
    let per: Vec<Result<(BoundResult, Work), SenseError>> =
        par_map_collect(par, assertions.len(), |k| {
            let j = assertions[k];
            let probs = assertion_probs(data, theta, j);
            let gibbs_at = |cfg: &GibbsConfig| {
                gibbs_bound(&probs, theta.z(), &per_assertion_gibbs(cfg, j))
                    .map(|o| (o.result, Work::Gibbs(o.samples, o.converged)))
            };
            let exact =
                || exact_bound_counted(&probs, theta.z()).map(|(r, nodes)| (r, Work::Exact(nodes)));
            match method {
                BoundMethod::Exact => exact(),
                BoundMethod::Gibbs(cfg) => gibbs_at(cfg),
                BoundMethod::Auto {
                    exact_max_sources,
                    gibbs,
                } => {
                    if n <= *exact_max_sources {
                        exact()
                    } else {
                        gibbs_at(gibbs)
                    }
                }
            }
        });
    // Errors surface in assertion order, matching a sequential sweep.
    let per = per.into_iter().collect::<Result<Vec<_>, _>>()?;
    if obs.enabled() {
        obs.counter("bound.assertions_total", per.len() as u64);
        for (_, work) in &per {
            match work {
                Work::Exact(nodes) => {
                    obs.counter("bound.exact_evals_total", 1);
                    obs.counter("bound.exact.nodes_total", *nodes);
                }
                Work::Gibbs(samples, converged) => {
                    obs.counter("bound.gibbs_evals_total", 1);
                    obs.counter("bound.gibbs.samples_total", *samples as u64);
                    obs.observe("bound.gibbs.samples", *samples as f64);
                    if *converged {
                        obs.counter("bound.gibbs.converged_total", 1);
                    }
                }
            }
        }
        timer.stop();
    }
    let per: Vec<BoundResult> = per.into_iter().map(|(r, _)| r).collect();
    Ok(BoundResult::mean_of(&per))
}

/// Mean Bayes-risk bound over *all* assertions in `data`.
///
/// # Errors
///
/// See [`bound_for_assertions`].
pub fn bound_for_data(
    data: &ClaimData,
    theta: &Theta,
    method: &BoundMethod,
) -> Result<BoundResult, SenseError> {
    let all: Vec<u32> = (0..data.assertion_count() as u32).collect();
    bound_for_assertions(data, theta, method, &all)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::SourceParams;
    use socsense_matrix::SparseBinaryMatrix;

    fn tiny() -> (ClaimData, Theta) {
        let sc = SparseBinaryMatrix::from_entries(3, 2, [(0, 0), (1, 0), (2, 1)]);
        let d = SparseBinaryMatrix::from_entries(3, 2, [(1, 0)]);
        let theta = Theta::new(
            vec![
                SourceParams::new(0.7, 0.2, 0.6, 0.3).unwrap(),
                SourceParams::new(0.6, 0.3, 0.8, 0.4).unwrap(),
                SourceParams::new(0.9, 0.1, 0.5, 0.5).unwrap(),
            ],
            0.6,
        )
        .unwrap();
        (ClaimData::new(sc, d).unwrap(), theta)
    }

    #[test]
    fn assertion_probs_respects_dependency_column() {
        let (data, theta) = tiny();
        let p0 = assertion_probs(&data, &theta, 0);
        // Source 1 is dependent on assertion 0 -> (f, g).
        assert_eq!(p0[1], (0.8, 0.4));
        assert_eq!(p0[0], (0.7, 0.2));
        let p1 = assertion_probs(&data, &theta, 1);
        assert_eq!(p1[1], (0.6, 0.3));
    }

    #[test]
    #[cfg_attr(miri, ignore = "sampling/enumeration sweep is too slow under Miri")]
    fn bound_for_data_averages_and_splits() {
        let (data, theta) = tiny();
        let r = bound_for_data(&data, &theta, &BoundMethod::Exact).unwrap();
        assert!(r.error > 0.0 && r.error < 0.5);
        assert!((r.false_positive + r.false_negative - r.error).abs() < 1e-12);
        assert!((r.optimal_accuracy() - (1.0 - r.error)).abs() < 1e-15);
    }

    #[test]
    #[cfg_attr(miri, ignore = "sampling/enumeration sweep is too slow under Miri")]
    fn auto_switches_to_gibbs_for_many_sources() {
        let (data, theta) = tiny();
        let method = BoundMethod::Auto {
            exact_max_sources: 1, // force Gibbs even here
            gibbs: GibbsConfig {
                seed: 7,
                ..GibbsConfig::default()
            },
        };
        let approx = bound_for_data(&data, &theta, &method).unwrap();
        let exact = bound_for_data(&data, &theta, &BoundMethod::Exact).unwrap();
        assert!(
            (approx.error - exact.error).abs() < 0.05,
            "gibbs {} vs exact {}",
            approx.error,
            exact.error
        );
    }

    #[test]
    #[cfg_attr(miri, ignore = "sampling/enumeration sweep is too slow under Miri")]
    fn traced_bound_matches_untraced_and_records() {
        let (data, theta) = tiny();
        let method = BoundMethod::Auto {
            exact_max_sources: 1, // force Gibbs so sample metrics flow
            gibbs: GibbsConfig::default(),
        };
        let plain = bound_for_data(&data, &theta, &method).unwrap();
        let (obs, rec) = Obs::recorder();
        let traced =
            bound_for_assertions_traced(&data, &theta, &method, &[0, 1], Parallelism::Auto, &obs)
                .unwrap();
        assert_eq!(plain.error.to_bits(), traced.error.to_bits());

        let snap = rec.snapshot();
        assert_eq!(snap.counter("bound.assertions_total"), 2);
        assert_eq!(snap.counter("bound.gibbs_evals_total"), 2);
        assert_eq!(snap.counter("bound.exact_evals_total"), 0);
        assert!(snap.counter("bound.gibbs.samples_total") > 0);
        assert_eq!(snap.histogram("bound.gibbs.samples").unwrap().count, 2);
        assert_eq!(snap.histogram("bound.eval.seconds").unwrap().count, 1);

        let (obs, rec) = Obs::recorder();
        bound_for_assertions_traced(
            &data,
            &theta,
            &BoundMethod::Exact,
            &[0],
            Parallelism::Serial,
            &obs,
        )
        .unwrap();
        assert_eq!(rec.counter_value("bound.exact_evals_total"), 1);
        assert_eq!(rec.counter_value("bound.gibbs_evals_total"), 0);
        let nodes = rec.counter_value("bound.exact.nodes_total");
        assert!(nodes > 0, "the exact walk reports its work");

        // Work counts are integers summed in assertion order: the same
        // at every parallelism.
        let (obs, rec) = Obs::recorder();
        bound_for_assertions_traced(
            &data,
            &theta,
            &BoundMethod::Exact,
            &[0],
            Parallelism::Auto,
            &obs,
        )
        .unwrap();
        assert_eq!(rec.counter_value("bound.exact.nodes_total"), nodes);
    }

    #[test]
    fn empty_assertion_list_rejected() {
        let (data, theta) = tiny();
        assert!(matches!(
            bound_for_assertions(&data, &theta, &BoundMethod::Exact, &[]),
            Err(SenseError::EmptyData)
        ));
    }

    #[test]
    fn out_of_range_assertion_rejected() {
        let (data, theta) = tiny();
        assert!(bound_for_assertions(&data, &theta, &BoundMethod::Exact, &[9]).is_err());
    }
}
