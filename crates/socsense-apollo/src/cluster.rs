//! Token-shingle clustering of tweets into assertions.
//!
//! Apollo's first stage must decide which tweets "say the same thing".
//! The merge rule is symmetric and local: two tweets belong to the same
//! assertion when (a) they share at least one *indexable* token — one
//! whose document frequency lies in `[2, max_token_df]`, since a token
//! appearing everywhere (a scenario hashtag) carries no grouping signal
//! — and (b) their token-set Jaccard similarity clears a threshold.
//! Clusters are the connected components of that relation, so the
//! partition is independent of tweet order and of the order in which
//! matching pairs are discovered.
//!
//! Evaluating the rule naively costs `n(n-1)/2` Jaccard comparisons
//! ([`cluster_texts_naive`], kept as the testing oracle). The fast path
//! interns tokens once, builds an inverted index `token id → tweet ids`,
//! and evaluates exact Jaccard only on pairs the index nominates —
//! pairs sharing at least one indexable token — after a size-ratio
//! prefilter (`J(a,b) ≤ min(|a|,|b|)/max(|a|,|b|)`, so a pair whose
//! length ratio is below the threshold cannot match). Matches merge
//! through a union-find; candidate generation shards over
//! `socsense_matrix::parallel` chunks keyed purely by tweet index, and
//! shard-local union-finds merge in shard order, so every
//! [`Parallelism`] level emits byte-identical assignments (see
//! [`socsense_matrix::UnionFind`] for the determinism argument).

use std::collections::BTreeMap;

use socsense_matrix::{parallel, Parallelism, UnionFind};
use socsense_obs::Obs;

/// Configuration for [`cluster_texts`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterConfig {
    /// Minimum token-set Jaccard similarity to merge two tweets.
    pub jaccard_threshold: f64,
    /// Tokens occurring in more than this many tweets are ignored for
    /// candidate generation (they still count toward similarity).
    pub max_token_df: usize,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self {
            jaccard_threshold: 0.5,
            max_token_df: 200,
        }
    }
}

/// Result of [`cluster_texts`]: a dense cluster id per input text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Clustering {
    /// `assignment[i]` = cluster id of text `i`, in `0..cluster_count`.
    pub assignment: Vec<u32>,
    /// Number of distinct clusters.
    pub cluster_count: u32,
}

impl Clustering {
    /// Members of each cluster, indexed by cluster id.
    pub fn members(&self) -> Vec<Vec<u32>> {
        let mut out = vec![Vec::new(); self.cluster_count as usize];
        for (i, &c) in self.assignment.iter().enumerate() {
            out[c as usize].push(i as u32);
        }
        out
    }

    /// Purity against reference labels: the fraction of texts whose
    /// cluster's majority reference label matches their own.
    ///
    /// # Panics
    ///
    /// Panics if `labels.len() != assignment.len()`.
    pub fn purity(&self, labels: &[u32]) -> f64 {
        assert_eq!(labels.len(), self.assignment.len(), "label count mismatch");
        if labels.is_empty() {
            return 1.0;
        }
        let mut correct = 0usize;
        for members in self.members() {
            let mut counts: BTreeMap<u32, usize> = BTreeMap::new();
            for &i in &members {
                *counts.entry(labels[i as usize]).or_default() += 1;
            }
            correct += counts.values().copied().max().unwrap_or(0);
        }
        correct as f64 / labels.len() as f64
    }
}

/// Work counters from one [`cluster_texts_with_stats`] run, recording
/// how much of the quadratic pair space the inverted index pruned away.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClusterStats {
    /// Number of input texts.
    pub texts: usize,
    /// Distinct pairs the inverted index nominated (shared ≥ 1
    /// indexable token), before the size-ratio prefilter.
    pub candidate_pairs: u64,
    /// Exact Jaccard evaluations performed (candidates surviving the
    /// size-ratio prefilter).
    pub jaccard_comparisons: u64,
    /// Jaccard evaluations the naive all-pairs scan performs for the
    /// same input: `n(n-1)/2`.
    pub naive_comparisons: u64,
}

fn tokenize(text: &str) -> Vec<&str> {
    text.split_whitespace()
        .filter(|t| !t.eq_ignore_ascii_case("rt"))
        .collect()
}

/// Jaccard similarity of two sorted, deduplicated id slices.
fn jaccard_sorted(a: &[u32], b: &[u32]) -> f64 {
    let (mut i, mut j, mut inter) = (0usize, 0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                inter += 1;
                i += 1;
                j += 1;
            }
        }
    }
    let union = a.len() + b.len() - inter;
    if union == 0 {
        1.0
    } else {
        inter as f64 / union as f64
    }
}

/// Tweets tokenized into interned shingle ids, plus the inverted index.
struct TokenizedCorpus {
    /// Per tweet: sorted, deduplicated token ids.
    ids: Vec<Vec<u32>>,
    /// Posting list per token id, tweet ids ascending. Only *indexable*
    /// tokens (document frequency in `[2, max_token_df]`) keep their
    /// postings; the rest are emptied.
    postings: Vec<Vec<u32>>,
    /// Whether each token id is indexable.
    indexable: Vec<bool>,
}

/// Tokenizes in parallel chunks, then interns serially in tweet order so
/// token ids are a pure function of the input (not of the worker count).
// The interner is the crate's one hash collection: a keyed lookup per
// token, never iterated (detlint's D1 rejects any iteration over one). An
// ordered map costs `crawl-batch` about 17% of its pass time.
#[allow(clippy::disallowed_types)]
fn tokenize_corpus(texts: &[String], max_token_df: usize, par: Parallelism) -> TokenizedCorpus {
    use std::collections::HashMap;

    let words: Vec<Vec<&str>> =
        parallel::par_map_collect(par, texts.len(), |i| tokenize(&texts[i]));
    let mut intern: HashMap<&str, u32> = HashMap::new();
    let mut ids: Vec<Vec<u32>> = Vec::with_capacity(texts.len());
    for ws in &words {
        let mut v = Vec::with_capacity(ws.len());
        for &w in ws {
            let next = intern.len() as u32;
            v.push(*intern.entry(w).or_insert(next));
        }
        v.sort_unstable();
        v.dedup();
        ids.push(v);
    }
    let mut postings: Vec<Vec<u32>> = vec![Vec::new(); intern.len()];
    for (i, v) in ids.iter().enumerate() {
        for &t in v {
            postings[t as usize].push(i as u32);
        }
    }
    let mut indexable = vec![false; intern.len()];
    for (t, p) in postings.iter_mut().enumerate() {
        if p.len() >= 2 && p.len() <= max_token_df {
            indexable[t] = true;
        } else {
            p.clear();
        }
    }
    TokenizedCorpus {
        ids,
        postings,
        indexable,
    }
}

fn pair_count(n: usize) -> u64 {
    (n as u64) * (n as u64).saturating_sub(1) / 2
}

/// Clusters texts by token-set similarity (serial fast path).
///
/// Equivalent to [`cluster_texts_par`] with [`Parallelism::Serial`]; see
/// the module docs for the merge rule and the candidate-pruning scheme.
///
/// # Panics
///
/// Panics if `config.jaccard_threshold` is outside `[0, 1]`.
pub fn cluster_texts(texts: &[String], config: &ClusterConfig) -> Clustering {
    cluster_texts_par(texts, config, Parallelism::Serial)
}

/// Clusters texts with the inverted-index fast path, sharding candidate
/// generation over `par` workers. Assignments are byte-identical at
/// every parallelism level and equal to [`cluster_texts_naive`].
///
/// # Panics
///
/// Panics if `config.jaccard_threshold` is outside `[0, 1]`.
pub fn cluster_texts_par(texts: &[String], config: &ClusterConfig, par: Parallelism) -> Clustering {
    cluster_texts_with_stats(texts, config, par).0
}

/// [`cluster_texts_par`] plus the [`ClusterStats`] work counters.
///
/// # Panics
///
/// Panics if `config.jaccard_threshold` is outside `[0, 1]`.
pub fn cluster_texts_with_stats(
    texts: &[String],
    config: &ClusterConfig,
    par: Parallelism,
) -> (Clustering, ClusterStats) {
    cluster_texts_traced(texts, config, par, &Obs::none())
}

/// [`cluster_texts_with_stats`] reporting `ingest.cluster.*` metrics to
/// `obs`: wall time, text/candidate/comparison totals, and the cluster
/// count. Observation-only — assignments are byte-identical to the
/// untraced call.
///
/// # Panics
///
/// Panics if `config.jaccard_threshold` is outside `[0, 1]`.
pub fn cluster_texts_traced(
    texts: &[String],
    config: &ClusterConfig,
    par: Parallelism,
    obs: &Obs,
) -> (Clustering, ClusterStats) {
    let timer = obs.timer("ingest.cluster.seconds");
    assert!(
        (0.0..=1.0).contains(&config.jaccard_threshold),
        "jaccard_threshold must be in [0, 1]"
    );
    let n = texts.len();
    let threshold = config.jaccard_threshold;
    let corpus = tokenize_corpus(texts, config.max_token_df, par);

    // Shard candidate generation + exact Jaccard by tweet index. Each
    // shard records its merges in a local union-find; shards are merged
    // below in shard-index order (the partition is order-free anyway —
    // connected components don't depend on edge order).
    let shards: Vec<(UnionFind, u64, u64)> = parallel::par_chunks(par, n, |range| {
        let mut uf = UnionFind::new(n);
        let mut seen: Vec<u32> = vec![u32::MAX; n];
        let mut cands: Vec<u32> = Vec::new();
        let (mut candidate_pairs, mut comparisons) = (0u64, 0u64);
        for i in range {
            let iu = i as u32;
            cands.clear();
            for &tok in &corpus.ids[i] {
                for &j in &corpus.postings[tok as usize] {
                    if j >= iu {
                        break; // postings are ascending; rest is ≥ i
                    }
                    if seen[j as usize] != iu {
                        seen[j as usize] = iu;
                        cands.push(j);
                    }
                }
            }
            candidate_pairs += cands.len() as u64;
            let a = &corpus.ids[i];
            for &j in &cands {
                let b = &corpus.ids[j as usize];
                let (lo, hi) = (a.len().min(b.len()), a.len().max(b.len()));
                // J(a,b) ≤ lo/hi, and f64 division is monotone, so a
                // pair failing this test cannot clear the threshold.
                if (lo as f64) / (hi as f64) < threshold {
                    continue;
                }
                comparisons += 1;
                if jaccard_sorted(a, b) >= threshold {
                    uf.union(iu, j);
                }
            }
        }
        (uf, candidate_pairs, comparisons)
    });

    let mut uf = UnionFind::new(n);
    let mut stats = ClusterStats {
        texts: n,
        naive_comparisons: pair_count(n),
        ..ClusterStats::default()
    };
    for (shard, candidates, comparisons) in &shards {
        uf.merge_from(shard);
        stats.candidate_pairs += candidates;
        stats.jaccard_comparisons += comparisons;
    }
    let (assignment, cluster_count) = uf.dense_labels();
    if obs.enabled() {
        obs.counter("ingest.cluster.texts_total", n as u64);
        obs.counter(
            "ingest.cluster.candidate_pairs_total",
            stats.candidate_pairs,
        );
        obs.counter(
            "ingest.cluster.jaccard_comparisons_total",
            stats.jaccard_comparisons,
        );
        obs.gauge("ingest.cluster.clusters", cluster_count as f64);
        timer.stop();
    }
    (
        Clustering {
            assignment,
            cluster_count,
        },
        stats,
    )
}

/// Reference implementation: the all-pairs scan the inverted index
/// replaces. Evaluates every one of the `n(n-1)/2` pairs and applies
/// the identical merge rule, so its output is the oracle the fast path
/// is property-tested against.
///
/// # Panics
///
/// Panics if `config.jaccard_threshold` is outside `[0, 1]`.
pub fn cluster_texts_naive(texts: &[String], config: &ClusterConfig) -> Clustering {
    assert!(
        (0.0..=1.0).contains(&config.jaccard_threshold),
        "jaccard_threshold must be in [0, 1]"
    );
    let n = texts.len();
    let corpus = tokenize_corpus(texts, config.max_token_df, Parallelism::Serial);
    let mut uf = UnionFind::new(n);
    for i in 0..n {
        let a = &corpus.ids[i];
        for j in 0..i {
            let b = &corpus.ids[j];
            // One merged walk computes the intersection and checks for
            // a shared indexable token.
            let (mut x, mut y, mut inter) = (0usize, 0usize, 0usize);
            let mut shares_indexable = false;
            while x < a.len() && y < b.len() {
                match a[x].cmp(&b[y]) {
                    std::cmp::Ordering::Less => x += 1,
                    std::cmp::Ordering::Greater => y += 1,
                    std::cmp::Ordering::Equal => {
                        inter += 1;
                        shares_indexable |= corpus.indexable[a[x] as usize];
                        x += 1;
                        y += 1;
                    }
                }
            }
            let union = a.len() + b.len() - inter;
            let jac = if union == 0 {
                1.0
            } else {
                inter as f64 / union as f64
            };
            if shares_indexable && jac >= config.jaccard_threshold {
                uf.union(i as u32, j as u32);
            }
        }
    }
    let (assignment, cluster_count) = uf.dense_labels();
    Clustering {
        assignment,
        cluster_count,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn near_duplicates_cluster_together() {
        let texts = s(&[
            "breaking police confirm explosion near bridge a00001 #x",
            "RT police confirm explosion near bridge a00001 #x",
            "crowd observes rescue near stadium a00002 #x",
        ]);
        let c = cluster_texts(&texts, &ClusterConfig::default());
        assert_eq!(c.assignment[0], c.assignment[1]);
        assert_ne!(c.assignment[0], c.assignment[2]);
        assert_eq!(c.cluster_count, 2);
    }

    #[test]
    fn common_tokens_do_not_glue_everything() {
        // "#x" appears everywhere; with max_token_df small it is ignored
        // for candidate generation, so dissimilar tweets stay apart.
        let texts = s(&[
            "alpha beta gamma #x",
            "delta epsilon zeta #x",
            "eta theta iota #x",
        ]);
        let cfg = ClusterConfig {
            jaccard_threshold: 0.5,
            max_token_df: 2,
        };
        let c = cluster_texts(&texts, &cfg);
        assert_eq!(c.cluster_count, 3);
    }

    #[test]
    fn purity_measures_against_reference() {
        let texts = s(&["a b c", "a b c d", "x y z", "x y w"]);
        let c = cluster_texts(&texts, &ClusterConfig::default());
        let labels = vec![0, 0, 1, 1];
        assert!(c.purity(&labels) > 0.99);
    }

    #[test]
    fn empty_input_is_fine() {
        let c = cluster_texts(&[], &ClusterConfig::default());
        assert_eq!(c.cluster_count, 0);
        assert!(c.assignment.is_empty());
        assert_eq!(c.purity(&[]), 1.0);
    }

    #[test]
    fn threshold_one_only_merges_identical() {
        let texts = s(&["a b c", "a b c", "a b d"]);
        let cfg = ClusterConfig {
            jaccard_threshold: 1.0,
            ..ClusterConfig::default()
        };
        let c = cluster_texts(&texts, &cfg);
        assert_eq!(c.assignment[0], c.assignment[1]);
        assert_ne!(c.assignment[0], c.assignment[2]);
    }

    #[test]
    fn union_find_handles_chains() {
        // a~b via shared tokens, b~c likewise -> all one cluster.
        let texts = s(&["p q r s", "q r s t", "r s t u"]);
        let c = cluster_texts(
            &texts,
            &ClusterConfig {
                jaccard_threshold: 0.6,
                max_token_df: 10,
            },
        );
        assert_eq!(c.cluster_count, 1);
    }

    #[test]
    fn indexed_path_matches_naive_oracle() {
        let texts = s(&[
            "breaking police confirm explosion near bridge a00001 #x",
            "RT police confirm explosion near bridge a00001 #x",
            "crowd observes rescue near stadium a00002 #x",
            "police confirm explosion a00001 #x",
            "a b c",
            "a b c",
            "",
        ]);
        for threshold in [0.2, 0.5, 0.8, 1.0] {
            let cfg = ClusterConfig {
                jaccard_threshold: threshold,
                ..ClusterConfig::default()
            };
            assert_eq!(
                cluster_texts(&texts, &cfg),
                cluster_texts_naive(&texts, &cfg)
            );
        }
    }

    #[test]
    fn stats_count_pruned_comparisons() {
        let texts = s(&["a b c", "a b c d", "x y z", "x y w", "lone tweet words"]);
        let (c, stats) =
            cluster_texts_with_stats(&texts, &ClusterConfig::default(), Parallelism::Serial);
        assert_eq!(c.assignment.len(), texts.len());
        assert_eq!(stats.texts, 5);
        assert_eq!(stats.naive_comparisons, 10);
        // Only the two similar pairs share indexable tokens.
        assert_eq!(stats.candidate_pairs, 2);
        assert!(stats.jaccard_comparisons <= stats.candidate_pairs);
        assert!(stats.candidate_pairs < stats.naive_comparisons);
    }

    #[test]
    fn parallel_levels_are_byte_identical() {
        let texts: Vec<String> = (0..200)
            .map(|i| format!("event {} token{} shared word{}", i % 13, i % 7, i % 3))
            .collect();
        let cfg = ClusterConfig::default();
        let serial = cluster_texts_par(&texts, &cfg, Parallelism::Serial);
        for par in [
            Parallelism::Auto,
            Parallelism::Threads(1),
            Parallelism::Threads(2),
            Parallelism::Threads(4),
        ] {
            assert_eq!(serial, cluster_texts_par(&texts, &cfg, par), "{par:?}");
        }
    }

    #[test]
    fn clusters_simulated_tweets_close_to_truth() {
        use socsense_twitter::{ScenarioConfig, TwitterDataset};
        let ds = TwitterDataset::simulate(&ScenarioConfig::kirkuk().scaled(0.02), 9).unwrap();
        let texts: Vec<String> = ds.tweets.iter().map(|t| t.text.clone()).collect();
        let labels: Vec<u32> = ds.tweets.iter().map(|t| t.assertion).collect();
        let c = cluster_texts(&texts, &ClusterConfig::default());
        let p = c.purity(&labels);
        assert!(p > 0.9, "clustering purity {p:.3}");
    }
}
