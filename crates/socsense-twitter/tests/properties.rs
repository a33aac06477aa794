//! Property-based tests for the cascade simulator's invariants.

#![allow(clippy::disallowed_types)]

use proptest::prelude::*;
use socsense_twitter::{ScenarioConfig, TwitterDataset};
use std::collections::{HashMap, HashSet};

fn arbitrary_scenario() -> impl Strategy<Value = ScenarioConfig> {
    (
        10u32..120,   // sources
        5u32..60,     // assertions
        0.2f64..0.9,  // true_frac
        0.0f64..0.4,  // opinion_frac
        1.0f64..3.0,  // witness_mean
        0.0f64..0.5,  // retweet_prob
        0.5f64..2.5,  // rumor_boost
        0.05f64..0.8, // verify_prob
        1u32..5,      // max_cascade_depth
    )
        .prop_map(|(n, m, tf, of, wm, rp, rb, vp, depth)| {
            let mut c = ScenarioConfig::ukraine();
            c.name = "prop".into();
            c.n_sources = n;
            c.n_assertions = m;
            c.true_frac = tf;
            c.opinion_frac = of;
            c.witness_mean = wm;
            c.retweet_prob = rp;
            c.rumor_boost = rb;
            c.verify_prob = vp;
            c.max_cascade_depth = depth;
            c
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The simulated tweet log is internally consistent for any valid
    /// scenario: unique (source, assertion) pairs, valid retweet
    /// references (same assertion, earlier time, follow edge), in-range
    /// ids, and summary counts that add up.
    #[test]
    fn simulation_invariants_hold(cfg in arbitrary_scenario(), seed in 0u64..200) {
        let ds = TwitterDataset::simulate(&cfg, seed).unwrap();
        let mut ids = HashSet::new();
        let mut pairs = HashSet::new();
        let by_id: HashMap<u64, _> = ds.tweets.iter().map(|t| (t.id, t)).collect();
        for t in &ds.tweets {
            prop_assert!(ids.insert(t.id), "duplicate tweet id");
            prop_assert!(pairs.insert((t.source, t.assertion)), "duplicate claim");
            prop_assert!(t.source < cfg.n_sources);
            prop_assert!(t.assertion < cfg.n_assertions);
            prop_assert!(!t.text.is_empty());
            if let Some(orig) = t.retweet_of {
                let o = by_id.get(&orig).expect("retweet target exists");
                prop_assert_eq!(o.assertion, t.assertion);
                prop_assert!(o.time < t.time);
                prop_assert!(ds.graph.follows(t.source, o.source));
            }
        }
        // Summary consistency.
        let s = ds.summary();
        prop_assert_eq!(s.total_claims, pairs.len());
        prop_assert!(s.original_claims <= s.total_claims);
        prop_assert!(s.sources <= cfg.n_sources as usize);
        prop_assert!(s.assertions <= cfg.n_assertions as usize);
        // Claim matrix mirrors the tweet log.
        let data = ds.claim_data();
        prop_assert_eq!(data.claim_count(), pairs.len());
    }

    /// Zero retweet probability means no cascades: every tweet is an
    /// original. Dependent claims can still occur — a witness may
    /// independently repeat what a followee already said, and the
    /// who-spoke-first rule rightly marks that dependent — but each such
    /// cell must trace back to an earlier followee original.
    #[test]
    fn no_retweets_without_retweet_probability(seed in 0u64..100) {
        let mut cfg = ScenarioConfig::kirkuk().scaled(0.02);
        cfg.retweet_prob = 0.0;
        let ds = TwitterDataset::simulate(&cfg, seed).unwrap();
        prop_assert!(ds.tweets.iter().all(|t| t.retweet_of.is_none()));
        prop_assert_eq!(ds.summary().original_ratio(), 1.0);
        let data = ds.claim_data();
        for (i, j) in data.sc().entries() {
            if data.dependent(i, j) {
                let own = ds
                    .tweets
                    .iter()
                    .find(|t| t.source == i && t.assertion == j)
                    .expect("claim has a tweet");
                let earlier_followee = ds.tweets.iter().any(|t| {
                    t.assertion == j && t.time < own.time && ds.graph.follows(i, t.source)
                });
                prop_assert!(earlier_followee, "dependent claim without followee origin");
            }
        }
    }
}

/// Regression for the `summary()` hash-map walk (detlint D1): the
/// earliest-tweet table is now a `BTreeMap`, so repeated calls — and
/// calls against a log whose tweets arrive in a different order —
/// produce identical Table III rows. Time ties between tweets of the
/// same claim resolve by log position, which both orders exercise.
#[test]
fn summary_is_identical_across_calls_and_log_orderings() {
    let ds = TwitterDataset::simulate(&ScenarioConfig::ukraine().scaled(0.02), 11).unwrap();
    let s = ds.summary();
    assert_eq!(s, ds.summary(), "repeated calls must agree exactly");

    let mut rev = ds.clone();
    rev.tweets.reverse();
    let sr = rev.summary();
    assert_eq!(s.assertions, sr.assertions);
    assert_eq!(s.sources, sr.sources);
    assert_eq!(s.total_claims, sr.total_claims);
    assert_eq!(s.original_claims, sr.original_claims);
}
