//! The packaged simulated dataset and its Table III-style summary.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

use socsense_core::ClaimData;
use socsense_graph::{FollowerGraph, TimedClaim};

use crate::config::{ScenarioConfig, TwitterError};
use crate::sim;
use crate::TruthValue;

/// One simulated tweet.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Tweet {
    /// Unique id, increasing with creation order.
    pub id: u64,
    /// Tweeting account.
    pub source: u32,
    /// The assertion the tweet expresses.
    pub assertion: u32,
    /// Simulation tick.
    pub time: u64,
    /// `Some(original)` when this tweet is a retweet in the cascade.
    pub retweet_of: Option<u64>,
    /// Synthesized tweet text (noisy rendering of the assertion).
    pub text: String,
}

/// A complete simulated collection campaign.
///
/// Serialisable: persist a campaign with any serde format (e.g.
/// `serde_json`) to re-grade algorithms on the identical crawl later.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TwitterDataset {
    /// Scenario label.
    pub name: String,
    /// All tweets in time order.
    pub tweets: Vec<Tweet>,
    /// The follower graph behind the cascades.
    pub graph: FollowerGraph,
    /// Ground-truth label per assertion id.
    pub truth: Vec<TruthValue>,
    n_sources: u32,
    n_assertions: u32,
}

/// One Table III row.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DatasetSummary {
    /// Scenario label.
    pub name: String,
    /// Distinct assertions actually tweeted.
    pub assertions: usize,
    /// Distinct accounts that tweeted.
    pub sources: usize,
    /// Distinct `(source, assertion)` claims.
    pub total_claims: usize,
    /// Claims whose earliest tweet was not a retweet.
    pub original_claims: usize,
}

impl TwitterDataset {
    /// Runs the cascade simulation for `cfg` with the given seed.
    ///
    /// # Errors
    ///
    /// Returns [`TwitterError`] if the configuration fails validation.
    pub fn simulate(cfg: &ScenarioConfig, seed: u64) -> Result<Self, TwitterError> {
        cfg.validate()?;
        let out = sim::run(cfg, seed);
        Ok(Self {
            name: cfg.name.clone(),
            tweets: out.tweets,
            graph: out.graph,
            truth: out.truth,
            n_sources: cfg.n_sources,
            n_assertions: cfg.n_assertions,
        })
    }

    /// Number of accounts in the simulated crawl (tweeting or not).
    pub fn source_count(&self) -> u32 {
        self.n_sources
    }

    /// Number of assertions in the simulated world (tweeted or not).
    pub fn assertion_count(&self) -> u32 {
        self.n_assertions
    }

    /// Ground-truth label of one assertion.
    ///
    /// # Panics
    ///
    /// Panics if `assertion` is out of range.
    pub fn truth_value(&self, assertion: u32) -> TruthValue {
        self.truth[assertion as usize]
    }

    /// The tweets as timestamped claims for
    /// [`socsense_graph::build_matrices`].
    pub fn timed_claims(&self) -> Vec<TimedClaim> {
        self.tweets
            .iter()
            .map(|t| TimedClaim::new(t.source, t.assertion, t.time))
            .collect()
    }

    /// Builds the estimator input (`SC`/`D`) from tweets + follow graph.
    ///
    /// Retweet cascades become dependent claims automatically: the
    /// retweeter follows the earlier tweeter, so the who-spoke-first rule
    /// marks the cell dependent.
    pub fn claim_data(&self) -> ClaimData {
        ClaimData::from_claims(
            self.n_sources,
            self.n_assertions,
            &self.timed_claims(),
            &self.graph,
        )
    }

    /// The follower-graph edges a claim-log-only method could possibly
    /// recover: `(follower, followee)` pairs that co-claimed at least
    /// `min_shared` distinct assertions. The simulated graph contains
    /// many follow edges never exercised by a cascade; dependency
    /// discovery is scored against this recoverable subset (clearly
    /// labelled as such in the eval tables).
    pub fn recoverable_edges(&self, min_shared: usize) -> Vec<(u32, u32)> {
        let mut claimed: Vec<std::collections::BTreeSet<u32>> =
            vec![std::collections::BTreeSet::new(); self.n_sources as usize];
        for t in &self.tweets {
            claimed[t.source as usize].insert(t.assertion);
        }
        self.graph
            .edges()
            .filter(|&(follower, followee)| {
                claimed[follower as usize]
                    .intersection(&claimed[followee as usize])
                    .count()
                    >= min_shared
            })
            .collect()
    }

    /// Table III-style statistics of the generated campaign.
    pub fn summary(&self) -> DatasetSummary {
        // Earliest tweet per (source, assertion) decides originality.
        // BTreeMap: the keys()/values() walks below must not depend on
        // hash-iteration order.
        let mut first: BTreeMap<(u32, u32), &Tweet> = BTreeMap::new();
        for t in &self.tweets {
            first
                .entry((t.source, t.assertion))
                .and_modify(|cur| {
                    if t.time < cur.time {
                        *cur = t;
                    }
                })
                .or_insert(t);
        }
        let mut sources: Vec<u32> = first.keys().map(|&(s, _)| s).collect();
        sources.sort_unstable();
        sources.dedup();
        let mut assertions: Vec<u32> = first.keys().map(|&(_, a)| a).collect();
        assertions.sort_unstable();
        assertions.dedup();
        let original_claims = first.values().filter(|t| t.retweet_of.is_none()).count();
        DatasetSummary {
            name: self.name.clone(),
            assertions: assertions.len(),
            sources: sources.len(),
            total_claims: first.len(),
            original_claims,
        }
    }
}

impl DatasetSummary {
    /// Fraction of claims that are original (non-retweet).
    pub fn original_ratio(&self) -> f64 {
        if self.total_claims == 0 {
            0.0
        } else {
            self.original_claims as f64 / self.total_claims as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> TwitterDataset {
        TwitterDataset::simulate(&ScenarioConfig::ukraine().scaled(0.03), 11).unwrap()
    }

    #[test]
    fn summary_counts_are_consistent() {
        let ds = small();
        let s = ds.summary();
        assert!(s.total_claims >= s.original_claims);
        assert!(s.original_claims > 0);
        assert!(s.sources <= ds.source_count() as usize);
        assert!(s.assertions <= ds.assertion_count() as usize);
        assert_eq!(s.total_claims, ds.claim_data().claim_count());
        assert!((0.0..=1.0).contains(&s.original_ratio()));
    }

    #[test]
    fn claim_data_marks_retweets_dependent() {
        let ds = small();
        let data = ds.claim_data();
        // Every retweet is a dependent claim of its source.
        let mut checked = 0;
        for t in &ds.tweets {
            if t.retweet_of.is_some() {
                // Dependent unless this source *also* tweeted the assertion
                // earlier as an original (dedup keeps the earliest tick).
                if ds
                    .tweets
                    .iter()
                    .filter(|u| u.source == t.source && u.assertion == t.assertion)
                    .count()
                    == 1
                {
                    assert!(
                        data.dependent(t.source, t.assertion),
                        "retweet ({}, {}) not dependent",
                        t.source,
                        t.assertion
                    );
                    checked += 1;
                }
            }
        }
        assert!(checked > 0, "scenario produced no retweets to check");
    }

    #[test]
    fn rumors_cascade_more_than_facts() {
        // With rumor_boost > 1 and moderate verification, the average
        // false assertion should collect at least as many dependent claims
        // as the average true one.
        let mut cfg = ScenarioConfig::ukraine().scaled(0.05);
        cfg.rumor_boost = 3.0;
        cfg.verify_prob = 0.1;
        cfg.retweet_prob = 0.2;
        // Rumors have fewer originators but spread harder, so compare
        // retweets *per original tweet*. Follower counts are heavy-tailed,
        // so average over several seeds to wash out hub placement luck.
        let (mut rt_false, mut orig_false, mut rt_true, mut orig_true) =
            (0usize, 0usize, 0usize, 0usize);
        for seed in 0..6u64 {
            let ds = TwitterDataset::simulate(&cfg, seed).unwrap();
            for t in &ds.tweets {
                let is_rt = t.retweet_of.is_some();
                match ds.truth_value(t.assertion) {
                    TruthValue::False => {
                        if is_rt {
                            rt_false += 1;
                        } else {
                            orig_false += 1;
                        }
                    }
                    TruthValue::True => {
                        if is_rt {
                            rt_true += 1;
                        } else {
                            orig_true += 1;
                        }
                    }
                    TruthValue::Opinion => {}
                }
            }
        }
        let per_false = rt_false as f64 / orig_false.max(1) as f64;
        let per_true = rt_true as f64 / orig_true.max(1) as f64;
        assert!(
            per_false > per_true,
            "rumors {per_false:.2} vs facts {per_true:.2} retweets/original"
        );
    }

    #[test]
    fn paris_preset_is_mostly_original() {
        let ds = TwitterDataset::simulate(&ScenarioConfig::paris_attack().scaled(0.01), 3).unwrap();
        let s = ds.summary();
        assert!(
            s.original_ratio() > 0.8,
            "paris should be original-heavy, got {:.2}",
            s.original_ratio()
        );
    }

    #[test]
    fn ukraine_preset_ratio_matches_table_iii_shape() {
        // Paper: 4242 / 7192 ≈ 0.59 original. Accept a generous band.
        let ds = TwitterDataset::simulate(&ScenarioConfig::ukraine().scaled(0.1), 19).unwrap();
        let r = ds.summary().original_ratio();
        assert!((0.4..=0.8).contains(&r), "original ratio {r:.2}");
    }

    /// FNV-1a over every field of every tweet, in order.
    fn tweets_fingerprint(tweets: &[Tweet]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        };
        for t in tweets {
            eat(&t.id.to_le_bytes());
            eat(&t.source.to_le_bytes());
            eat(&t.assertion.to_le_bytes());
            eat(&t.time.to_le_bytes());
            eat(&t.retweet_of.map_or([0xff; 8], u64::to_le_bytes));
            eat(&u64::from(t.retweet_of.is_some()).to_le_bytes());
            eat(&(t.text.len() as u64).to_le_bytes());
            eat(t.text.as_bytes());
        }
        h
    }

    /// The simulator's output is pinned: every RNG draw and every tweet
    /// stays what it was, whatever bookkeeping the cascade uses.
    #[test]
    fn simulation_fingerprint_is_pinned() {
        let ds = TwitterDataset::simulate(&ScenarioConfig::ukraine().scaled(0.05), 11).unwrap();
        assert_eq!(
            (ds.tweets.len(), tweets_fingerprint(&ds.tweets)),
            (379, 9_040_945_097_917_273_148)
        );
    }
}

#[cfg(test)]
mod serde_tests {
    use super::*;

    #[test]
    fn dataset_round_trips_through_json() {
        let ds = TwitterDataset::simulate(&ScenarioConfig::kirkuk().scaled(0.01), 4).unwrap();
        let json = serde_json::to_string(&ds).unwrap();
        let back: TwitterDataset = serde_json::from_str(&json).unwrap();
        assert_eq!(ds, back);
        assert_eq!(back.claim_data(), ds.claim_data());
    }
}
