//! The event-driven cascade simulation.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

use socsense_graph::{preferential_attachment, FollowerGraph};

use crate::config::ScenarioConfig;
use crate::dataset::Tweet;
use crate::text::TextSynthesizer;
use crate::TruthValue;

/// Raw simulation output before packaging into a `TwitterDataset`.
pub(crate) struct SimOutput {
    pub graph: FollowerGraph,
    pub truth: Vec<TruthValue>,
    pub tweets: Vec<Tweet>,
}

/// Knuth's Poisson sampler; fine for the small means used here.
fn poisson<R: Rng + ?Sized>(lambda: f64, rng: &mut R) -> u32 {
    if lambda <= 0.0 {
        return 0;
    }
    let limit = (-lambda).exp();
    let mut k = 0u32;
    let mut p = 1.0;
    loop {
        p *= rng.gen::<f64>();
        if p <= limit {
            return k;
        }
        k += 1;
        if k > 10_000 {
            return k; // pathological lambda guard
        }
    }
}

pub(crate) fn run(cfg: &ScenarioConfig, seed: u64) -> SimOutput {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = cfg.n_sources;
    let m = cfg.n_assertions;

    // Follower topology.
    let graph = preferential_attachment(n, cfg.attach_k, &mut rng);

    // Ground truth: opinions first, then true/false split of the rest.
    let n_opinion = (cfg.opinion_frac * m as f64).round() as u32;
    let n_true = (cfg.true_frac * (m - n_opinion) as f64).round() as u32;
    let mut truth: Vec<TruthValue> = Vec::with_capacity(m as usize);
    for j in 0..m {
        truth.push(if j < n_opinion {
            TruthValue::Opinion
        } else if j < n_opinion + n_true {
            TruthValue::True
        } else {
            TruthValue::False
        });
    }
    truth.shuffle(&mut rng);

    // Heavy-tailed witnessing propensity, per-source honesty (the stable
    // reliability trait the estimators recover as a_i / b_i), and
    // gullibility (how readily a source passes things on unverified).
    let activity: Vec<f64> = (0..n)
        .map(|_| -(1.0 - rng.gen::<f64>()).ln()) // Exp(1)
        .collect();
    let total_activity: f64 = activity.iter().sum();
    let honesty: Vec<f64> = (0..n).map(|_| rng.gen_range(0.25..0.95)).collect();
    let gullibility: Vec<f64> = (0..n).map(|_| rng.gen_range(0.3..1.0)).collect();
    // Verification is a stable per-source *trait*, not a coin flipped per
    // exposure: a minority of habitual fact-checkers (v = 0.9) among
    // mostly non-verifiers (v = 0.05), mixed to preserve the configured
    // mean. This is what gives dependent claims per-source
    // informativeness (a verifier's retweet almost certifies truth) — the
    // signal EM-Ext's f/g parameters exist to capture.
    let verifier_frac = ((cfg.verify_prob - 0.05) / 0.85).clamp(0.0, 1.0);
    let verify_trait: Vec<f64> = (0..n)
        .map(|_| {
            if rng.gen_bool(verifier_frac) {
                0.9
            } else {
                0.05
            }
        })
        .collect();
    // Retweeting propensity is concentrated, as on real Twitter: ~20% of
    // accounts do the vast majority of the retweeting (mean multiplier
    // 1.0, so the calibrated original/total claim ratios are preserved).
    // Concentration is what makes a retweeter's dependent behaviour
    // (f_i, g_i) statistically identifiable from its several retweets.
    let retweet_activity: Vec<f64> = (0..n)
        .map(|_| if rng.gen_bool(0.2) { 4.0 } else { 0.25 })
        .collect();

    // Cumulative distribution for witness sampling.
    let mut cdf = Vec::with_capacity(n as usize);
    let mut acc = 0.0;
    for &a in &activity {
        acc += a / total_activity;
        cdf.push(acc);
    }
    let sample_source = |rng: &mut StdRng| -> u32 {
        let u: f64 = rng.gen();
        match cdf.binary_search_by(|p| p.total_cmp(&u)) {
            Ok(i) | Err(i) => (i as u32).min(n - 1),
        }
    };

    let text = TextSynthesizer::new(&cfg.name, seed ^ 0x5eed);
    let mut tweets: Vec<Tweet> = Vec::new();
    // The assertion each source last tweeted. Assertions are simulated
    // in order, so source `s` has said the current `j` iff `said[s] == j`
    // (`u32::MAX`, above every assertion id, before its first tweet).
    let mut said: Vec<u32> = vec![u32::MAX; n as usize];
    let mut next_id = 0u64;
    let horizon = (m as u64) * 10;

    for j in 0..m {
        let label = truth[j as usize];
        let witness_lambda = match label {
            TruthValue::True => cfg.witness_mean * cfg.true_witness_boost,
            TruthValue::False => cfg.witness_mean * cfg.rumor_witness_damp,
            TruthValue::Opinion => cfg.witness_mean,
        };
        let witnesses = 1 + poisson((witness_lambda - 1.0).max(0.0), &mut rng);
        let t0 = rng.gen_range(0..horizon);
        // Original tweets. Witnesses are drawn by activity, then accepted
        // by honesty: honest sources originate true reports, dishonest
        // ones originate rumors. Opinions are honesty-neutral.
        let mut frontier: VecDeque<(u64, u32, u64, u32)> = VecDeque::new(); // (tweet id, source, time, depth)
        for w in 0..witnesses {
            let mut s = sample_source(&mut rng);
            for _ in 0..8 {
                let accept = match label {
                    TruthValue::True => honesty[s as usize],
                    TruthValue::False => 1.0 - honesty[s as usize],
                    TruthValue::Opinion => 1.0,
                };
                if rng.gen_bool(accept) {
                    break;
                }
                s = sample_source(&mut rng);
            }
            if said[s as usize] == j {
                continue;
            }
            said[s as usize] = j;
            let t = t0 + w as u64;
            let tw = Tweet {
                id: next_id,
                source: s,
                assertion: j,
                time: t,
                retweet_of: None,
                text: text.render(j, false, &mut rng),
            };
            frontier.push_back((tw.id, s, t, 0));
            tweets.push(tw);
            next_id += 1;
        }
        // Cascade through followers.
        while let Some((orig_id, tweeter, t, depth)) = frontier.pop_front() {
            if depth >= cfg.max_cascade_depth {
                continue;
            }
            for &f in graph.followers(tweeter) {
                if said[f as usize] == j {
                    continue;
                }
                let activity = retweet_activity[f as usize];
                let passes = if rng.gen_bool(verify_trait[f as usize]) {
                    // Verifier: passes on truths with the base rate,
                    // never passes on rumors; opinions are unverifiable
                    // and travel at the base rate.
                    match label {
                        TruthValue::False => false,
                        TruthValue::True | TruthValue::Opinion => {
                            rng.gen_bool((cfg.retweet_prob * activity).min(1.0))
                        }
                    }
                } else {
                    // Unverified pass-along; rumors spread faster, and
                    // less honest sources amplify them harder.
                    let boost = if label == TruthValue::False {
                        cfg.rumor_boost * (1.5 - honesty[f as usize])
                    } else {
                        1.0
                    };
                    let p =
                        (cfg.retweet_prob * gullibility[f as usize] * boost * activity).min(1.0);
                    rng.gen_bool(p)
                };
                if !passes {
                    continue;
                }
                said[f as usize] = j;
                let t_new = t + 1 + rng.gen_range(0..5);
                let tw = Tweet {
                    id: next_id,
                    source: f,
                    assertion: j,
                    time: t_new,
                    retweet_of: Some(orig_id),
                    text: text.render(j, true, &mut rng),
                };
                frontier.push_back((tw.id, f, t_new, depth + 1));
                tweets.push(tw);
                next_id += 1;
            }
        }
    }

    tweets.sort_by_key(|t| (t.time, t.id));
    SimOutput {
        graph,
        truth,
        tweets,
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_types)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn poisson_mean_is_roughly_lambda() {
        let mut rng = StdRng::seed_from_u64(1);
        let lambda = 2.5;
        let k = 5000;
        let sum: u64 = (0..k).map(|_| poisson(lambda, &mut rng) as u64).sum();
        let mean = sum as f64 / k as f64;
        assert!((mean - lambda).abs() < 0.15, "mean {mean}");
        assert_eq!(poisson(0.0, &mut rng), 0);
    }

    #[test]
    fn every_assertion_gets_at_least_one_witness_attempt() {
        let cfg = ScenarioConfig::kirkuk().scaled(0.02);
        let out = run(&cfg, 3);
        // Each assertion draws >= 1 witness; collisions can drop a few,
        // but the vast majority must be present.
        let covered: HashSet<u32> = out.tweets.iter().map(|t| t.assertion).collect();
        assert!(
            covered.len() as f64 > 0.9 * cfg.n_assertions as f64,
            "covered {}/{}",
            covered.len(),
            cfg.n_assertions
        );
    }

    #[test]
    fn retweets_reference_existing_earlier_tweets() {
        let cfg = ScenarioConfig::ukraine().scaled(0.05);
        let out = run(&cfg, 9);
        let by_id: std::collections::HashMap<u64, &Tweet> =
            out.tweets.iter().map(|t| (t.id, t)).collect();
        for t in &out.tweets {
            if let Some(orig) = t.retweet_of {
                let o = by_id.get(&orig).expect("retweet target exists");
                assert_eq!(o.assertion, t.assertion);
                assert!(o.time < t.time, "retweet precedes original");
                // The retweeter transitively follows someone in the
                // cascade; immediate parent is a followee.
                assert!(out.graph.follows(t.source, o.source));
            }
        }
    }

    #[test]
    fn no_source_repeats_an_assertion() {
        let cfg = ScenarioConfig::superbug().scaled(0.02);
        let out = run(&cfg, 17);
        let mut seen = HashSet::new();
        for t in &out.tweets {
            assert!(seen.insert((t.source, t.assertion)), "duplicate claim");
        }
    }

    #[test]
    fn truth_partition_matches_fractions() {
        let cfg = ScenarioConfig::ukraine().scaled(0.1);
        let out = run(&cfg, 5);
        let m = cfg.n_assertions as f64;
        let opinions = out
            .truth
            .iter()
            .filter(|t| **t == TruthValue::Opinion)
            .count() as f64;
        let trues = out.truth.iter().filter(|t| **t == TruthValue::True).count() as f64;
        assert!((opinions / m - cfg.opinion_frac).abs() < 0.02);
        assert!((trues / (m - opinions) - cfg.true_frac).abs() < 0.02);
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = ScenarioConfig::la_marathon().scaled(0.02);
        let a = run(&cfg, 42);
        let b = run(&cfg, 42);
        assert_eq!(a.tweets.len(), b.tweets.len());
        assert_eq!(a.truth, b.truth);
        for (x, y) in a.tweets.iter().zip(&b.tweets) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.text, y.text);
        }
    }
}
