//! Property-based tests for the clustering stage and pipeline output.

#![allow(clippy::disallowed_types)]

use proptest::collection::vec;
use proptest::prelude::*;
use socsense_apollo::{
    cluster_texts, cluster_texts_naive, cluster_texts_par, parse_tweets_jsonl,
    parse_tweets_jsonl_with, Apollo, ApolloConfig, ClusterConfig, Clustering, IngestConfig,
};
use socsense_baselines::Voting;
use socsense_matrix::Parallelism;
use socsense_twitter::{ScenarioConfig, TwitterDataset};

/// Random lowercase word.
fn word() -> impl Strategy<Value = String> {
    "[a-e]{2,5}"
}

fn texts() -> impl Strategy<Value = Vec<String>> {
    vec(vec(word(), 1..7).prop_map(|ws| ws.join(" ")), 0..40)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Clustering always yields a dense, total assignment.
    #[test]
    fn clustering_is_a_total_dense_partition(texts in texts(), threshold in 0.1f64..1.0) {
        let cfg = ClusterConfig {
            jaccard_threshold: threshold,
            ..ClusterConfig::default()
        };
        let c = cluster_texts(&texts, &cfg);
        prop_assert_eq!(c.assignment.len(), texts.len());
        // Cluster ids are dense: every id below cluster_count occurs.
        let mut seen = vec![false; c.cluster_count as usize];
        for &a in &c.assignment {
            prop_assert!(a < c.cluster_count);
            seen[a as usize] = true;
        }
        prop_assert!(seen.iter().all(|&s| s));
        // Members partition the input.
        let total: usize = c.members().iter().map(|m| m.len()).sum();
        prop_assert_eq!(total, texts.len());
    }

    /// Identical texts always share a cluster (Jaccard 1 >= any threshold).
    #[test]
    fn identical_texts_always_merge(base in vec(word(), 2..6), threshold in 0.1f64..1.0) {
        let text = base.join(" ");
        let texts = vec![text.clone(), text.clone(), "zzz yyy xxx www".to_string()];
        let cfg = ClusterConfig {
            jaccard_threshold: threshold,
            ..ClusterConfig::default()
        };
        let c = cluster_texts(&texts, &cfg);
        prop_assert_eq!(c.assignment[0], c.assignment[1]);
    }

    /// Raising the threshold never produces coarser clusterings.
    #[test]
    fn higher_threshold_is_finer(texts in texts()) {
        let count_at = |t: f64| {
            cluster_texts(
                &texts,
                &ClusterConfig {
                    jaccard_threshold: t,
                    ..ClusterConfig::default()
                },
            )
            .cluster_count
        };
        prop_assert!(count_at(0.3) <= count_at(0.9));
    }

    /// Purity is 1.0 when labels equal the clustering itself and never
    /// exceeds 1.0 for arbitrary labels.
    #[test]
    fn purity_bounds(texts in texts(), labels_seed in 0u32..10) {
        let c = cluster_texts(&texts, &ClusterConfig::default());
        if !texts.is_empty() {
            prop_assert!((c.purity(&c.assignment) - 1.0).abs() < 1e-12);
            let labels: Vec<u32> = (0..texts.len() as u32).map(|i| (i + labels_seed) % 3).collect();
            let p = c.purity(&labels);
            prop_assert!((0.0..=1.0).contains(&p));
        }
    }
}

/// Relabels cluster ids by first occurrence, so two clusterings of the
/// same items compare as partitions regardless of id numbering.
fn canonical(labels: &[u32]) -> Vec<u32> {
    let mut map = std::collections::HashMap::new();
    labels
        .iter()
        .map(|&l| {
            let next = map.len() as u32;
            *map.entry(l).or_insert(next)
        })
        .collect()
}

/// A deterministic permutation of `0..n` (Fisher–Yates over a
/// SplitMix64 stream seeded by `seed`).
fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        perm.swap(i, j);
    }
    perm
}

/// A JSONL corpus where a chosen subset of lines is corrupted.
fn jsonl_with_bad_lines() -> impl Strategy<Value = String> {
    (1usize..400, vec(0usize..400, 0..4), 0u32..2).prop_map(|(n, bad, blank_tail)| {
        let bad: Vec<usize> = bad.iter().map(|&b| b % n).collect();
        let mut out = String::new();
        for i in 0..n {
            if bad.contains(&i) {
                out.push_str("{ not json\n");
            } else {
                out.push_str(&format!(
                    "{{\"id\":{i},\"user\":\"u{}\",\"time\":{i},\"text\":\"word{} word{}\"}}\n",
                    i % 13,
                    i % 7,
                    i % 5
                ));
            }
        }
        if blank_tail == 1 {
            out.push_str("\n   \n");
        }
        out
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The inverted-index fast path and the naive all-pairs oracle emit
    /// byte-identical clusterings.
    #[test]
    fn indexed_path_matches_naive_scan(
        texts in texts(),
        threshold in 0.1f64..1.0,
        max_df in 2usize..12,
    ) {
        let cfg = ClusterConfig {
            jaccard_threshold: threshold,
            max_token_df: max_df,
        };
        prop_assert_eq!(cluster_texts(&texts, &cfg), cluster_texts_naive(&texts, &cfg));
    }

    /// Every worker count emits byte-identical assignments.
    #[test]
    fn clustering_is_identical_across_parallelism(texts in texts(), threshold in 0.1f64..1.0) {
        let cfg = ClusterConfig {
            jaccard_threshold: threshold,
            ..ClusterConfig::default()
        };
        let serial = cluster_texts_par(&texts, &cfg, Parallelism::Serial);
        for par in [Parallelism::Threads(1), Parallelism::Threads(2), Parallelism::Threads(4)] {
            prop_assert_eq!(&serial, &cluster_texts_par(&texts, &cfg, par), "{:?}", par);
        }
    }

    /// Reordering the tweets permutes the clustering but never changes
    /// the partition itself.
    #[test]
    fn clustering_is_invariant_under_reordering(
        texts in texts(),
        perm_seed in 0u64..u64::MAX,
        threshold in 0.1f64..1.0,
    ) {
        let cfg = ClusterConfig {
            jaccard_threshold: threshold,
            ..ClusterConfig::default()
        };
        let base: Clustering = cluster_texts(&texts, &cfg);
        let perm = permutation(texts.len(), perm_seed);
        let permuted: Vec<String> = perm.iter().map(|&i| texts[i].clone()).collect();
        let shuffled = cluster_texts(&permuted, &cfg);
        prop_assert_eq!(base.cluster_count, shuffled.cluster_count);
        // Map the shuffled assignment back onto original positions.
        let mut unshuffled = vec![0u32; texts.len()];
        for (pos, &orig) in perm.iter().enumerate() {
            unshuffled[orig] = shuffled.assignment[pos];
        }
        prop_assert_eq!(canonical(&base.assignment), canonical(&unshuffled));
    }

    /// Chunked JSONL parsing matches the serial parser exactly — same
    /// tweets on success, same first error (line number and message)
    /// wherever the bad lines land.
    #[test]
    fn parallel_jsonl_parse_matches_serial(input in jsonl_with_bad_lines()) {
        let serial = parse_tweets_jsonl(&input);
        for par in [Parallelism::Threads(2), Parallelism::Threads(4), Parallelism::Auto] {
            let got = parse_tweets_jsonl_with(&input, &IngestConfig { parallelism: par });
            prop_assert_eq!(&serial, &got, "{:?}", par);
        }
    }
}

#[test]
fn pipeline_top_k_never_exceeds_cluster_count() {
    let ds = TwitterDataset::simulate(&ScenarioConfig::ukraine().scaled(0.01), 2).unwrap();
    for top_k in [1usize, 5, 10_000] {
        let out = Apollo::new(ApolloConfig {
            top_k,
            ..ApolloConfig::default()
        })
        .run(&ds, &Voting::default())
        .unwrap();
        assert!(out.ranked.len() <= top_k.min(out.assertion_count as usize));
    }
}
