//! Log-likelihood kernels (Eqs. 4, 5, 7 and 9 of the paper).
//!
//! The naive evaluation of `P(SC_j | C_j; D, θ)` multiplies one Bernoulli
//! factor per source per assertion — `O(n·m)` per EM iteration, which is
//! prohibitive at Twitter scale. The kernels here instead precompute, for
//! each hypothesis `C_j ∈ {0, 1}`, the log-probability of the *all-silent,
//! all-independent* pattern and then apply sparse corrections:
//!
//! 1. for every dependent cell (column of `D`), switch the silent factor
//!    from `1 - a_i` to `1 - f_i` (resp. `1 - b_i` → `1 - g_i`);
//! 2. for every claim (column of `SC`), switch the silent factor to the
//!    claiming one (`a_i`, `f_i`, `b_i`, or `g_i` according to `D`).
//!
//! Total cost per pass is `O(nnz(SC) + nnz(D))`. [`LikelihoodTables`]
//! holds the six correction terms of each source in one row, and
//! [`LikelihoodTables::column`] turns a column's pair of log-likelihoods
//! into everything a pass over the assertions needs at once: the
//! posterior (Eq. 9), the log-odds, and the column's term of the
//! observed-data log-likelihood (Eq. 7). EM-Ext, the delta engine and the
//! functions below all evaluate columns through it. Built with a
//! [`ShrinkagePrior`], the tables also sum the log-prior that turns Eq. 7
//! into the objective the shrinkage M-step ascends, which EM-Ext's warm
//! runs use to safeguard their extrapolations.

use socsense_matrix::logprob::{log_sum_exp2, safe_ln, safe_ln_1m};
use socsense_matrix::parallel::{par_map_collect, par_map_reduce, Parallelism};

use crate::data::ClaimData;
use crate::error::SenseError;
use crate::model::Theta;

/// The corrections one source adds to the all-silent, all-independent
/// pattern, each as a `[C = 1, C = 0]` pair of log-probability
/// differences.
#[derive(Debug, Clone, Copy)]
struct SourceTerms {
    /// An independent claim: `ln a − ln(1−a)` and `ln b − ln(1−b)`.
    claim: [f64; 2],
    /// A dependent cell: `ln(1−f) − ln(1−a)` and `ln(1−g) − ln(1−b)`.
    dep: [f64; 2],
    /// A dependent claim: `ln f − ln(1−f)` and `ln g − ln(1−g)`.
    dep_claim: [f64; 2],
}

/// Precomputed per-source log-probability tables for one `θ`.
///
/// Rebuild after every M-step; construction is `O(n)`. Tables built by
/// [`for_data`](Self::for_data) leave out the terms no cell of that data
/// reads: a source with no claim never needs `ln a`, `ln b`, and one with
/// no dependent cell never needs its four `f`/`g` logarithms.
#[derive(Debug, Clone)]
pub struct LikelihoodTables {
    /// One row of correction terms per source. Terms that were left out
    /// hold NaN, so reading one poisons the result instead of passing
    /// unnoticed.
    terms: Vec<SourceTerms>,
    /// `Σ_i ln(1-a_i)` — all-silent all-independent pattern under `C = 1`.
    base1: f64,
    /// `Σ_i ln(1-b_i)` — same under `C = 0`.
    base0: f64,
    ln_z: f64,
    ln_1z: f64,
    /// The log-prior of `θ` under the tables' [`ShrinkagePrior`]; `0.0`
    /// when built without one.
    log_prior: f64,
}

/// The Beta prior behind the M-step's shrinkage: each rate update
/// `(num + s·w)/(den + s)` maximises the expected complete-data
/// log-likelihood plus `s·[w·ln x + (1−w)·ln(1−x)]` for the rate `x`, at
/// the population rate `w` of its kind. Summed over every rate of every
/// source, that term turns Eq. 7 into the objective the M-step ascends.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ShrinkagePrior {
    /// The pseudo-count `s` ([`EmConfig::smoothing`](crate::EmConfig::smoothing)).
    pub smoothing: f64,
    /// The population rates `w` of `a`, `b`, `f` and `g`.
    pub rates: [f64; 4],
}

impl ShrinkagePrior {
    /// One source's prior term before scaling by `s`: the sum over its
    /// rates `x` (in `a, b, f, g` order) of `ln(1−x) + w·(ln x − ln(1−x))`,
    /// from each rate's `ln(1−x)` and log-odds `ln x − ln(1−x)`.
    pub(crate) fn source_term(&self, ln_1m: [f64; 4], log_odds: [f64; 4]) -> f64 {
        let mut sum = 0.0;
        for ((ln_1m, w), log_odds) in ln_1m.into_iter().zip(self.rates).zip(log_odds) {
            sum += ln_1m + w * log_odds;
        }
        sum
    }
}

/// What one column contributes to a pass over the assertions under the
/// tables' `θ` (see [`LikelihoodTables::column`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ColumnFit {
    /// `P(C_j = 1 | SC_j; D, θ)` (Eq. 9); `0.5` when both joint weights
    /// are `−∞`.
    pub posterior: f64,
    /// `ln P(C_j=1|·) − ln P(C_j=0|·)`. Monotone in the posterior but
    /// never saturates, so it remains a usable *ranking* key when
    /// posteriors round to exactly 0.0 or 1.0 in `f64`.
    pub log_odds: f64,
    /// `ln( z·P(SC_j|C_j=1) + (1-z)·P(SC_j|C_j=0) )`, the column's term of
    /// the observed-data log-likelihood (Eq. 7).
    pub log_marginal: f64,
}

impl LikelihoodTables {
    /// Builds the tables for `theta`, every term of every source.
    pub fn new(theta: &Theta) -> Self {
        Self::compact(theta, |_| true, |_| true)
    }

    /// Builds the tables for evaluating the columns of `data` under
    /// `theta`, leaving out the terms no cell of `data` reads.
    ///
    /// Every column of `data` evaluates to the same bits as under
    /// [`new`](Self::new).
    pub fn for_data(theta: &Theta, data: &ClaimData) -> Self {
        Self::compact(
            theta,
            |i| data.sc().row_nnz(i as u32) > 0,
            |i| data.d().row_nnz(i as u32) > 0,
        )
    }

    /// [`for_data`](Self::for_data) plus the log-prior of `theta` under
    /// `prior`, read back by [`log_prior`](Self::log_prior). Every
    /// source's terms are filled, since the prior reads them all; columns
    /// evaluate to the same bits as under [`new`](Self::new).
    pub(crate) fn with_prior(theta: &Theta, data: &ClaimData, prior: &ShrinkagePrior) -> Self {
        Self::build(
            theta,
            |i| data.sc().row_nnz(i as u32) > 0,
            |i| data.d().row_nnz(i as u32) > 0,
            Some(prior),
        )
    }

    /// Builds the tables for `theta`, filling source `i`'s claim terms
    /// only when `has_claims(i)` and its dependent-cell and
    /// dependent-claim terms only when `has_deps(i)`. Each filled term is
    /// the same subtraction [`new`](Self::new) performs, so every column
    /// that reads only filled terms evaluates to the same bits.
    pub(crate) fn compact(
        theta: &Theta,
        has_claims: impl Fn(usize) -> bool,
        has_deps: impl Fn(usize) -> bool,
    ) -> Self {
        Self::build(theta, has_claims, has_deps, None)
    }

    /// [`compact`](Self::compact), also summing the log-prior when a
    /// `prior` is given: `s` times the per-source
    /// [`ShrinkagePrior::source_term`]s, folded in source order from
    /// `0.0`. The prior reuses the logarithms the terms take, so with one
    /// every term of every source is filled.
    fn build(
        theta: &Theta,
        has_claims: impl Fn(usize) -> bool,
        has_deps: impl Fn(usize) -> bool,
        prior: Option<&ShrinkagePrior>,
    ) -> Self {
        let mut base1 = 0.0;
        let mut base0 = 0.0;
        let mut prior_sum = 0.0;
        let terms = theta
            .sources()
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let ln_1a = safe_ln_1m(s.a);
                let ln_1b = safe_ln_1m(s.b);
                base1 += ln_1a;
                base0 += ln_1b;
                let mut t = SourceTerms {
                    claim: [f64::NAN; 2],
                    dep: [f64::NAN; 2],
                    dep_claim: [f64::NAN; 2],
                };
                if prior.is_some() || has_claims(i) {
                    t.claim = [safe_ln(s.a) - ln_1a, safe_ln(s.b) - ln_1b];
                }
                let mut ln_1fg = [f64::NAN; 2];
                if prior.is_some() || has_deps(i) {
                    ln_1fg = [safe_ln_1m(s.f), safe_ln_1m(s.g)];
                    t.dep = [ln_1fg[0] - ln_1a, ln_1fg[1] - ln_1b];
                    t.dep_claim = [safe_ln(s.f) - ln_1fg[0], safe_ln(s.g) - ln_1fg[1]];
                }
                if let Some(p) = prior {
                    prior_sum += p.source_term(
                        [ln_1a, ln_1b, ln_1fg[0], ln_1fg[1]],
                        [t.claim[0], t.claim[1], t.dep_claim[0], t.dep_claim[1]],
                    );
                }
                t
            })
            .collect();
        Self {
            terms,
            base1,
            base0,
            ln_z: safe_ln(theta.z()),
            ln_1z: safe_ln_1m(theta.z()),
            log_prior: prior.map_or(0.0, |p| p.smoothing * prior_sum),
        }
    }

    /// The log-prior of the tables' `θ` under the [`ShrinkagePrior`]
    /// they were built with ([`with_prior`](Self::with_prior)); `0.0`
    /// for tables built without one.
    pub(crate) fn log_prior(&self) -> f64 {
        self.log_prior
    }

    /// Number of sources the tables cover.
    pub fn source_count(&self) -> usize {
        self.terms.len()
    }

    /// `(ln P(SC_j | C_j = 1), ln P(SC_j | C_j = 0))` for column `j`,
    /// computed with the sparse-correction scheme.
    ///
    /// `claimants` must be the sorted rows of `SC[:, j]` and `dep_rows` the
    /// sorted rows of `D[:, j]`.
    pub fn column_log_likelihood(&self, claimants: &[u32], dep_rows: &[u32]) -> (f64, f64) {
        let mut ln1 = self.base1;
        let mut ln0 = self.base0;
        // Correction 1: dependent cells flip the silent factor.
        for &i in dep_rows {
            let [d1, d0] = self.terms[i as usize].dep;
            ln1 += d1;
            ln0 += d0;
        }
        // Correction 2: claims flip silent -> claiming, split by D via a
        // linear merge of the two sorted row lists.
        let mut dep_iter = dep_rows.iter().peekable();
        for &i in claimants {
            while dep_iter.peek().is_some_and(|&&d| d < i) {
                dep_iter.next();
            }
            let row = &self.terms[i as usize];
            let [c1, c0] = if dep_iter.peek() == Some(&&i) {
                row.dep_claim
            } else {
                row.claim
            };
            ln1 += c1;
            ln0 += c0;
        }
        (ln1, ln0)
    }

    /// Evaluates column `j` once for a pass over the assertions: its
    /// posterior (Eq. 9), log-odds, and Eq. 7 term, from the joint
    /// log-weights `w₁ = ln P(SC_j|C_j=1) + ln z` and
    /// `w₀ = ln P(SC_j|C_j=0) + ln(1−z)` and their log-sum-exp.
    ///
    /// Arguments as for [`column_log_likelihood`](Self::column_log_likelihood).
    pub fn column(&self, claimants: &[u32], dep_rows: &[u32]) -> ColumnFit {
        let (ln1, ln0) = self.column_log_likelihood(claimants, dep_rows);
        let (w1, w0) = (ln1 + self.ln_z, ln0 + self.ln_1z);
        let lse = log_sum_exp2(w1, w0);
        let posterior = if w1 == f64::NEG_INFINITY && w0 == f64::NEG_INFINITY {
            0.5
        } else {
            (w1 - lse).exp()
        };
        ColumnFit {
            posterior,
            log_odds: w1 - w0,
            log_marginal: lse,
        }
    }
}

fn check_dims(data: &ClaimData, theta: &Theta) -> Result<(), SenseError> {
    if data.source_count() != theta.source_count() {
        return Err(SenseError::DimensionMismatch {
            what: "theta source count vs data",
            expected: data.source_count(),
            actual: theta.source_count(),
        });
    }
    Ok(())
}

/// `(ln P(SC_j | C_j = 1), ln P(SC_j | C_j = 0))` for every assertion `j`
/// (Eqs. 4–5).
///
/// # Errors
///
/// Returns [`SenseError::DimensionMismatch`] if `theta` covers a different
/// number of sources than `data`.
pub fn assertion_log_likelihoods(
    data: &ClaimData,
    theta: &Theta,
) -> Result<Vec<(f64, f64)>, SenseError> {
    assertion_log_likelihoods_with(data, theta, Parallelism::Auto)
}

/// [`assertion_log_likelihoods`] with an explicit [`Parallelism`] level.
/// Results are bit-identical across levels.
///
/// # Errors
///
/// As [`assertion_log_likelihoods`].
pub fn assertion_log_likelihoods_with(
    data: &ClaimData,
    theta: &Theta,
    par: Parallelism,
) -> Result<Vec<(f64, f64)>, SenseError> {
    check_dims(data, theta)?;
    let tables = LikelihoodTables::for_data(theta, data);
    Ok(par_map_collect(par, data.assertion_count(), |j| {
        tables.column_log_likelihood(data.sc().col(j as u32), data.d().col(j as u32))
    }))
}

/// Posterior truth probabilities `P(C_j = 1 | SC_j; D, θ)` for all
/// assertions (Eq. 9).
///
/// # Errors
///
/// Returns [`SenseError::DimensionMismatch`] on inconsistent shapes.
pub fn assertion_posteriors(data: &ClaimData, theta: &Theta) -> Result<Vec<f64>, SenseError> {
    assertion_posteriors_with(data, theta, Parallelism::Auto)
}

/// [`assertion_posteriors`] with an explicit [`Parallelism`] level.
/// Results are bit-identical across levels; each posterior depends on one
/// column only, so the work splits into fixed index chunks.
///
/// # Errors
///
/// As [`assertion_posteriors`].
pub fn assertion_posteriors_with(
    data: &ClaimData,
    theta: &Theta,
    par: Parallelism,
) -> Result<Vec<f64>, SenseError> {
    check_dims(data, theta)?;
    let tables = LikelihoodTables::for_data(theta, data);
    Ok(par_map_collect(par, data.assertion_count(), |j| {
        tables
            .column(data.sc().col(j as u32), data.d().col(j as u32))
            .posterior
    }))
}

/// The observed-data log-likelihood `ln P(SC; D, θ)` (Eq. 7):
/// `Σ_j ln( z·P(SC_j|C_j=1) + (1-z)·P(SC_j|C_j=0) )`.
///
/// # Errors
///
/// Returns [`SenseError::DimensionMismatch`] on inconsistent shapes.
pub fn data_log_likelihood(data: &ClaimData, theta: &Theta) -> Result<f64, SenseError> {
    data_log_likelihood_with(data, theta, Parallelism::Auto)
}

/// [`data_log_likelihood`] with an explicit [`Parallelism`] level.
///
/// The per-assertion terms are summed within fixed index chunks and the
/// chunk sums folded in chunk order, so the (non-associative) floating-
/// point total is bit-identical across levels.
///
/// # Errors
///
/// As [`data_log_likelihood`].
pub fn data_log_likelihood_with(
    data: &ClaimData,
    theta: &Theta,
    par: Parallelism,
) -> Result<f64, SenseError> {
    check_dims(data, theta)?;
    let tables = LikelihoodTables::for_data(theta, data);
    Ok(par_map_reduce(
        par,
        data.assertion_count(),
        0.0,
        |range| {
            let mut sum = 0.0;
            for j in range {
                sum += tables
                    .column(data.sc().col(j as u32), data.d().col(j as u32))
                    .log_marginal;
            }
            sum
        },
        |a, b| a + b,
    ))
}

/// Reference `O(n)` per-column evaluation used to validate the sparse
/// kernel in tests.
#[cfg(test)]
pub(crate) fn column_log_likelihood_naive(data: &ClaimData, theta: &Theta, j: u32, c: bool) -> f64 {
    let mut ln = 0.0;
    for i in 0..data.source_count() as u32 {
        let p = theta
            .source(i as usize)
            .claim_prob(c, data.dependent(i, j), data.claimed(i, j));
        ln += safe_ln(p);
    }
    ln
}

/// The sparse kernel with every logarithm taken on the spot: the base
/// sums in source order from `0.0`, then `ln(1−f) − ln(1−a)` per
/// dependent cell and `ln x − ln(1−x)` per claim, each difference formed
/// before it is added. Tests hold the table kernel to it bit for bit.
#[cfg(test)]
pub(crate) fn column_log_likelihood_reference(
    theta: &Theta,
    claimants: &[u32],
    dep_rows: &[u32],
) -> (f64, f64) {
    let (mut ln1, mut ln0) = (0.0, 0.0);
    for s in theta.sources() {
        ln1 += safe_ln_1m(s.a);
        ln0 += safe_ln_1m(s.b);
    }
    for &i in dep_rows {
        let s = theta.source(i as usize);
        ln1 += safe_ln_1m(s.f) - safe_ln_1m(s.a);
        ln0 += safe_ln_1m(s.g) - safe_ln_1m(s.b);
    }
    let mut dep_iter = dep_rows.iter().peekable();
    for &i in claimants {
        while dep_iter.peek().is_some_and(|&&d| d < i) {
            dep_iter.next();
        }
        let s = theta.source(i as usize);
        if dep_iter.peek() == Some(&&i) {
            ln1 += safe_ln(s.f) - safe_ln_1m(s.f);
            ln0 += safe_ln(s.g) - safe_ln_1m(s.g);
        } else {
            ln1 += safe_ln(s.a) - safe_ln_1m(s.a);
            ln0 += safe_ln(s.b) - safe_ln_1m(s.b);
        }
    }
    (ln1, ln0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::SourceParams;
    use proptest::prelude::*;
    use socsense_matrix::logprob::normalize_log_pair;
    use socsense_matrix::SparseBinaryMatrix;

    /// A random world of `n` claiming sources plus one that never claims
    /// (but may hold dependent cells), with `D` cells only when
    /// `with_d`, and a random θ.
    fn random_world() -> impl Strategy<Value = (ClaimData, Theta)> {
        (1u32..8, 1u32..100, 0u32..2).prop_flat_map(|(n, m, with_d)| {
            let sc = vec((0..n, 0..m), 0..120);
            let d = vec((0..n + 1, 0..m), 0..(1 + 40 * with_d as usize));
            let params = vec(
                (0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0),
                n as usize + 1,
            );
            (Just(n + 1), Just(m), sc, d, params, 0.0f64..1.0).prop_map(
                |(rows, m, sc, d, params, z)| {
                    let sc = SparseBinaryMatrix::from_entries(rows, m, sc);
                    let d = SparseBinaryMatrix::from_entries(rows, m, d);
                    let sources = params
                        .into_iter()
                        .map(|(a, b, f, g)| SourceParams { a, b, f, g })
                        .collect();
                    let theta = Theta::new(sources, z).expect("rates drawn in [0, 1)");
                    (ClaimData::new(sc, d).expect("shapes match"), theta)
                },
            )
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Compact tables read only filled terms: every column gives the
        /// same bits as under full tables and as the on-the-spot
        /// reference kernel, and `column` derives its three outputs from
        /// them exactly as Eqs. 7 and 9 are written.
        #[test]
        fn compact_tables_match_full_tables_bit_for_bit((data, theta) in random_world()) {
            let full = LikelihoodTables::new(&theta);
            let compact = LikelihoodTables::for_data(&theta, &data);
            let bits = |(a, b): (f64, f64)| (a.to_bits(), b.to_bits());
            for j in 0..data.assertion_count() as u32 {
                let (sc, d) = (data.sc().col(j), data.d().col(j));
                let want = column_log_likelihood_reference(&theta, sc, d);
                prop_assert_eq!(bits(compact.column_log_likelihood(sc, d)), bits(want));
                prop_assert_eq!(bits(full.column_log_likelihood(sc, d)), bits(want));

                let (w1, w0) = (want.0 + safe_ln(theta.z()), want.1 + safe_ln_1m(theta.z()));
                let fit = compact.column(sc, d);
                prop_assert_eq!(fit.posterior.to_bits(), normalize_log_pair(w1, w0).0.to_bits());
                prop_assert_eq!(fit.log_odds.to_bits(), (w1 - w0).to_bits());
                prop_assert_eq!(fit.log_marginal.to_bits(), log_sum_exp2(w1, w0).to_bits());
            }
        }
    }

    #[test]
    fn compact_tables_poison_what_they_leave_out() {
        // Source 0 claims but has no dependent cell, so tables compacted
        // for this data leave out its dependent terms; a column that
        // reads them anyway comes out NaN instead of plausibly wrong.
        let data = ClaimData::new(
            SparseBinaryMatrix::from_entries(2, 1, [(0, 0)]),
            SparseBinaryMatrix::from_entries(2, 1, [(1, 0)]),
        )
        .unwrap();
        let theta = Theta::neutral(2);
        let compact = LikelihoodTables::for_data(&theta, &data);
        let (ln1, ln0) = compact.column_log_likelihood(&[0], &[1]);
        assert!(ln1.is_finite() && ln0.is_finite());
        let (ln1, ln0) = compact.column_log_likelihood(&[0], &[0]);
        assert!(ln1.is_nan() && ln0.is_nan());
        assert!(LikelihoodTables::new(&theta)
            .column_log_likelihood(&[0], &[0])
            .0
            .is_finite());
    }

    fn small_data() -> ClaimData {
        // 4 sources, 3 assertions.
        let sc = SparseBinaryMatrix::from_entries(4, 3, [(0, 0), (1, 0), (2, 1), (3, 2), (0, 2)]);
        let d = SparseBinaryMatrix::from_entries(4, 3, [(1, 0), (3, 2), (2, 2)]);
        ClaimData::new(sc, d).unwrap()
    }

    fn theta4() -> Theta {
        Theta::new(
            vec![
                SourceParams::new(0.7, 0.2, 0.6, 0.5).unwrap(),
                SourceParams::new(0.5, 0.4, 0.9, 0.1).unwrap(),
                SourceParams::new(0.3, 0.3, 0.2, 0.8).unwrap(),
                SourceParams::new(0.8, 0.1, 0.7, 0.6).unwrap(),
            ],
            0.6,
        )
        .unwrap()
    }

    #[test]
    fn sparse_kernel_matches_naive_product() {
        let data = small_data();
        let theta = theta4();
        let fast = assertion_log_likelihoods(&data, &theta).unwrap();
        for j in 0..3u32 {
            let naive1 = column_log_likelihood_naive(&data, &theta, j, true);
            let naive0 = column_log_likelihood_naive(&data, &theta, j, false);
            assert!(
                (fast[j as usize].0 - naive1).abs() < 1e-10,
                "j={j}: {} vs {naive1}",
                fast[j as usize].0
            );
            assert!((fast[j as usize].1 - naive0).abs() < 1e-10);
        }
    }

    #[test]
    fn posteriors_are_probabilities_and_match_bayes() {
        let data = small_data();
        let theta = theta4();
        let post = assertion_posteriors(&data, &theta).unwrap();
        for (j, &p) in post.iter().enumerate() {
            assert!((0.0..=1.0).contains(&p));
            let ln1 = column_log_likelihood_naive(&data, &theta, j as u32, true);
            let ln0 = column_log_likelihood_naive(&data, &theta, j as u32, false);
            let expected = (ln1.exp() * 0.6) / (ln1.exp() * 0.6 + ln0.exp() * 0.4);
            assert!((p - expected).abs() < 1e-10, "j={j}");
        }
    }

    #[test]
    fn log_likelihood_is_sum_of_marginals() {
        let data = small_data();
        let theta = theta4();
        let ll = data_log_likelihood(&data, &theta).unwrap();
        let mut expected = 0.0;
        for j in 0..3u32 {
            let p1 = column_log_likelihood_naive(&data, &theta, j, true).exp();
            let p0 = column_log_likelihood_naive(&data, &theta, j, false).exp();
            expected += (0.6 * p1 + 0.4 * p0).ln();
        }
        assert!((ll - expected).abs() < 1e-10);
    }

    #[test]
    fn dimension_mismatch_is_reported() {
        let data = small_data();
        let theta = Theta::neutral(7);
        assert!(matches!(
            assertion_posteriors(&data, &theta),
            Err(SenseError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn neutral_theta_gives_prior_posterior() {
        let data = small_data();
        let theta = Theta::neutral(4);
        let post = assertion_posteriors(&data, &theta).unwrap();
        for &p in &post {
            assert!((p - 0.5).abs() < 1e-12);
        }
    }

    #[test]
    fn many_sources_do_not_underflow() {
        // 2000 silent unreliable sources would underflow linear space.
        let n = 2000u32;
        let sc = SparseBinaryMatrix::from_entries(n, 1, [(0u32, 0u32)]);
        let d = SparseBinaryMatrix::empty(n, 1);
        let data = ClaimData::new(sc, d).unwrap();
        let theta = Theta::new(
            vec![SourceParams::new(0.4, 0.35, 0.5, 0.5).unwrap(); n as usize],
            0.5,
        )
        .unwrap();
        let ll = data_log_likelihood(&data, &theta).unwrap();
        assert!(ll.is_finite());
        let post = assertion_posteriors(&data, &theta).unwrap();
        assert!(post[0].is_finite() && (0.0..=1.0).contains(&post[0]));
    }
}
