//! Baseline fact-finders evaluated against EM-Ext in the paper (Sec. V).
//!
//! All algorithms consume the same [`ClaimData`] (`SC`/`D` pair) and
//! expose a uniform interface, [`FactFinder`]: a per-assertion *score*,
//! higher meaning more credible. The EM-family scores are genuine
//! posterior probabilities `P(C_j = 1 | ·)`; the heuristic scores are
//! normalised credences suitable for ranking (the paper evaluates the
//! heuristics by their top-100 lists, not by thresholding).
//!
//! | implementation | paper's name | provenance |
//! |---|---|---|
//! | [`EmExtFinder`] | EM-Ext | this paper (Algorithm 2) |
//! | [`EmIndependent`] | EM | Wang et al., IPSN 2012 — all claims treated independent |
//! | [`EmSocial`] | EM-Social | Wang et al., IPSN 2014 — dependent claims discarded |
//! | [`Voting`] | Voting | claim counting |
//! | [`Sums`] | Sums | Kleinberg hubs/authorities, per Pasternack & Roth 2010 |
//! | [`AverageLog`] | Average.Log | Pasternack & Roth 2010 |
//! | [`TruthFinder`] | Truth-Finder | Yin et al., TKDE 2008 |
//!
//! # Example
//!
//! ```
//! use socsense_baselines::{FactFinder, Voting};
//! use socsense_core::ClaimData;
//! use socsense_matrix::SparseBinaryMatrix;
//!
//! let sc = SparseBinaryMatrix::from_entries(3, 2, [(0, 0), (1, 0), (2, 1)]);
//! let d = SparseBinaryMatrix::empty(3, 2);
//! let data = ClaimData::new(sc, d)?;
//! let scores = Voting::default().scores(&data)?;
//! assert!(scores[0] > scores[1]); // assertion 0 has more support
//! # Ok::<(), socsense_core::SenseError>(())
//! ```

// detlint: contract = deterministic
#![warn(missing_docs)]

mod avglog;
mod em_variants;
mod sums;
mod truthfinder;
mod util;
mod voting;

pub use avglog::AverageLog;
pub use em_variants::{DropMode, EmExtFinder, EmIndependent, EmSocial};
pub use sums::Sums;
pub use truthfinder::TruthFinder;
pub use voting::Voting;

use socsense_core::{ClaimData, SenseError};

/// A truth-discovery algorithm producing per-assertion credence scores.
///
/// Higher scores mean "more likely true". EM-family implementations
/// return posterior probabilities; heuristics return normalised scores in
/// `[0, 1]`.
pub trait FactFinder {
    /// Short display name matching the paper's legends (e.g. `"EM-Ext"`).
    fn name(&self) -> &'static str;

    /// Scores every assertion in `data`.
    ///
    /// # Errors
    ///
    /// Implementations surface configuration and dimension errors as
    /// [`SenseError`].
    fn scores(&self, data: &ClaimData) -> Result<Vec<f64>, SenseError>;

    /// Hard true/false labels: score strictly above `0.5`.
    ///
    /// Meaningful for the EM family (posterior thresholding, as the paper
    /// does in Figs. 7–10); for ranking heuristics prefer
    /// [`top_k`](FactFinder::top_k).
    ///
    /// # Errors
    ///
    /// Propagates errors from [`scores`](FactFinder::scores).
    fn classify(&self, data: &ClaimData) -> Result<Vec<bool>, SenseError> {
        Ok(self.scores(data)?.into_iter().map(|s| s > 0.5).collect())
    }

    /// Scores used for *ranking*. Defaults to [`scores`](FactFinder::scores);
    /// the EM family overrides this with posterior **log-odds**, which
    /// order identically but never saturate — at Twitter scale many
    /// posteriors round to exactly `1.0` in `f64`, and ranking ties would
    /// otherwise be broken arbitrarily.
    ///
    /// # Errors
    ///
    /// Same as [`scores`](FactFinder::scores).
    fn ranking_scores(&self, data: &ClaimData) -> Result<Vec<f64>, SenseError> {
        self.scores(data)
    }

    /// Indices of the `k` highest-scoring assertions (by
    /// [`ranking_scores`](FactFinder::ranking_scores)), best first; ties
    /// break toward the lower assertion id so rankings are deterministic.
    ///
    /// This is the paper's Fig. 11 protocol (top-100 per algorithm).
    ///
    /// # Errors
    ///
    /// Propagates errors from [`scores`](FactFinder::scores).
    fn top_k(&self, data: &ClaimData, k: usize) -> Result<Vec<u32>, SenseError> {
        let mut idx = best_first(&self.ranking_scores(data)?);
        idx.truncate(k);
        Ok(idx)
    }
}

/// The indices of `scores`, best first: score descending, with ties (and
/// NaN scores, which compare equal to anything) broken toward the lower
/// index. [`FactFinder::top_k`] and Apollo's rankings order by it.
pub fn best_first(scores: &[f64]) -> Vec<u32> {
    let mut idx: Vec<u32> = (0..scores.len() as u32).collect();
    idx.sort_by(|&a, &b| {
        scores[b as usize]
            .partial_cmp(&scores[a as usize])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    idx
}

/// Constructs one boxed instance of each of the paper's seven algorithms,
/// in the order of Fig. 11's legend.
pub fn all_finders() -> Vec<Box<dyn FactFinder>> {
    vec![
        Box::new(EmExtFinder::default()),
        Box::new(EmSocial::default()),
        Box::new(EmIndependent::default()),
        Box::new(Voting::default()),
        Box::new(Sums::default()),
        Box::new(AverageLog::default()),
        Box::new(TruthFinder::default()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use socsense_matrix::SparseBinaryMatrix;

    fn data() -> ClaimData {
        let sc = SparseBinaryMatrix::from_entries(
            4,
            3,
            [(0, 0), (1, 0), (2, 0), (3, 1), (0, 2), (1, 2)],
        );
        let d = SparseBinaryMatrix::empty(4, 3);
        ClaimData::new(sc, d).unwrap()
    }

    #[test]
    fn all_finders_produce_full_score_vectors() {
        let data = data();
        for finder in all_finders() {
            let scores = finder.scores(&data).unwrap();
            assert_eq!(scores.len(), 3, "{}", finder.name());
            assert!(
                scores.iter().all(|s| s.is_finite()),
                "{} produced non-finite scores",
                finder.name()
            );
        }
    }

    #[test]
    fn top_k_is_sorted_and_deterministic() {
        let data = data();
        let v = Voting::default();
        let top = v.top_k(&data, 2).unwrap();
        assert_eq!(top, vec![0, 2]); // support 3, then 2, then 1
        let full = v.top_k(&data, 10).unwrap();
        assert_eq!(full, vec![0, 2, 1]);
    }

    #[test]
    fn names_are_unique() {
        let names: Vec<_> = all_finders().iter().map(|f| f.name()).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
    }
}
