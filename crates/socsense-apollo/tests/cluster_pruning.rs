//! Candidate pruning in the indexed clustering fast path, as a work
//! count: on a 10k-tweet near-duplicate corpus the inverted index must
//! cut the exact-Jaccard evaluations of the naive all-pairs scan by a
//! wide algorithmic margin. The count is what makes indexed clustering
//! fast, and unlike wall-clock it is the same on every host.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use socsense_apollo::{cluster_texts_with_stats, parse_tweets_jsonl, ClusterConfig};
use socsense_matrix::Parallelism;

/// A synthetic tweet-text corpus shaped like the Apollo ingest input:
/// `n` tweets over `n/12` assertions, each assertion a 6–9-token
/// template emitting near-duplicate variants (token dropout, inserted
/// noise, `RT` prefixes) plus an everywhere hashtag that candidate
/// generation must learn to ignore. Deterministic in `(n, seed)`.
fn tweet_corpus(n: usize, seed: u64) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let assertions = (n / 12).max(1);
    let vocab: Vec<String> = (0..600).map(|i| format!("w{i:03}")).collect();
    let templates: Vec<Vec<String>> = (0..assertions)
        .map(|a| {
            let len = rng.gen_range(6..10);
            let mut t: Vec<String> = (0..len)
                .map(|_| vocab[rng.gen_range(0..vocab.len())].clone())
                .collect();
            // A unique entity token anchors within-assertion similarity.
            t.push(format!("e{a:05}"));
            t
        })
        .collect();
    (0..n)
        .map(|_| {
            let template = &templates[rng.gen_range(0..assertions)];
            let mut tokens: Vec<String> = template.clone();
            if tokens.len() > 4 && rng.gen_bool(0.3) {
                let drop = rng.gen_range(0..tokens.len());
                tokens.remove(drop);
            }
            if rng.gen_bool(0.2) {
                tokens.push(vocab[rng.gen_range(0..vocab.len())].clone());
            }
            if rng.gen_bool(0.25) {
                tokens.insert(0, "RT".to_string());
            }
            tokens.push("#ev".to_string());
            tokens.join(" ")
        })
        .collect()
}

#[test]
fn tweet_corpus_is_deterministic_and_parses() {
    let a = tweet_corpus(120, 7);
    assert_eq!(a.len(), 120);
    assert_eq!(a, tweet_corpus(120, 7));
    let jsonl: String = a
        .iter()
        .enumerate()
        .map(|(i, text)| {
            let value = serde_json::json!({
                "id": i as u64,
                "user": format!("u{:05}", i % 12),
                "time": i as u64,
                "text": text,
            });
            serde_json::to_string(&value).expect("fixture serializes") + "\n"
        })
        .collect();
    let parsed = parse_tweets_jsonl(&jsonl).expect("fixture parses");
    assert_eq!(parsed.len(), 120);
    assert_eq!(parsed[5].text, a[5]);
}

#[test]
fn inverted_index_prunes_exact_jaccard_work_at_least_fourfold() {
    let texts = tweet_corpus(10_000, 42);
    let (_, stats) =
        cluster_texts_with_stats(&texts, &ClusterConfig::default(), Parallelism::Serial);
    eprintln!(
        "{} texts: {} naive pairs, {} candidates, {} exact-Jaccard comparisons",
        stats.texts, stats.naive_comparisons, stats.candidate_pairs, stats.jaccard_comparisons
    );
    assert_eq!(stats.naive_comparisons, 10_000 * 9_999 / 2);
    // Measured: 49,995,000 / 4,177,792 = 11.97.
    assert!(
        stats.naive_comparisons >= 4 * stats.jaccard_comparisons,
        "pruning factor {:.2} below 4",
        stats.naive_comparisons as f64 / stats.jaccard_comparisons as f64
    );
}
