//! A simulated Twitter substrate replacing the paper's proprietary
//! 2015 datasets (Table III / Fig. 11).
//!
//! The paper evaluates on five crawled Twitter datasets that are no longer
//! available (the Apollo download site is dead). Per the substitution rule
//! in `DESIGN.md` §5, this crate builds the closest synthetic equivalent
//! that exercises the same code paths:
//!
//! * a **follower graph** grown by preferential attachment (heavy-tailed,
//!   hub-dominated — the regime where retweet cascades create the
//!   correlated errors the paper's estimator targets);
//! * an **event model**: assertions are true events, false rumors, or
//!   opinions ([`TruthValue`]); witnesses tweet originals, followers
//!   retweet what they see, rumors spread with a configurable virality
//!   boost, and some users verify before retweeting;
//! * **noisy tweet text** per assertion so the Apollo pipeline's
//!   clustering stage has something real to do;
//! * five [`ScenarioConfig`] presets calibrated to Table III's scale
//!   (source counts, assertion counts, original-to-total claim ratios).
//!
//! The output, [`TwitterDataset`], converts directly into the estimator's
//! [`ClaimData`](socsense_core::ClaimData) and reports Table III-style
//! [`DatasetSummary`] rows.
//!
//! # Example
//!
//! ```
//! use socsense_twitter::{ScenarioConfig, TwitterDataset};
//!
//! let cfg = ScenarioConfig::ukraine().scaled(0.02); // 2% size for speed
//! let ds = TwitterDataset::simulate(&cfg, 7)?;
//! let summary = ds.summary();
//! assert!(summary.total_claims >= summary.original_claims);
//! let data = ds.claim_data();
//! assert_eq!(data.source_count() as u32, cfg.n_sources);
//! # Ok::<(), socsense_twitter::TwitterError>(())
//! ```

// detlint: contract = deterministic
#![warn(missing_docs)]

mod config;
mod dataset;
mod sim;
mod text;

pub use config::{ScenarioConfig, TwitterError};
pub use dataset::{DatasetSummary, Tweet, TwitterDataset};
pub use text::TextSynthesizer;

use serde::{Deserialize, Serialize};

/// Ground-truth label of an assertion, mirroring the paper's grading
/// rubric ("True", "False", "Opinion").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TruthValue {
    /// A verifiable assertion that is true in the simulated world.
    True,
    /// A verifiable assertion that is false (a rumor).
    False,
    /// A subjective statement; not an act of sensing. Counted in the
    /// denominator of the paper's accuracy metric but never "true".
    Opinion,
}

impl TruthValue {
    /// Whether the label counts as correct in the paper's metric
    /// `#True / (#True + #False + #Opinion)`.
    pub fn is_true(self) -> bool {
        matches!(self, TruthValue::True)
    }
}
