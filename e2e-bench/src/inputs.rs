//! Workload inputs, generated in-process from the `socsense-twitter`
//! Table III presets. The program under test only ever sees what these
//! functions hand it: tweet JSONL, or the claim batches Apollo's
//! clustering derives from that JSONL.

use socsense_apollo::{
    assemble_corpus, cluster_texts_par, parse_tweets_jsonl_with, ClusterConfig, IngestConfig,
};
use socsense_graph::{FollowerGraph, TimedClaim};
use socsense_matrix::Parallelism;
use socsense_twitter::{ScenarioConfig, TwitterDataset};

/// At most two generator threads: the reference host has two vCPUs.
pub const GEN_THREADS: Parallelism = Parallelism::Threads(2);

/// Simulation seed of the crawl `firehose` and its traced phases replay.
/// Their cost follows how fast warm EM converges on the crawl and how the
/// router's clusters merge, which differ by 10–40% between crawls of one
/// preset and even between batchings of one crawl. So they replay one
/// canonical crawl in even batches (Table III's crawls are fixed datasets
/// too), and the run seed picks only what leaves the cost alone: the
/// assertion a restarted client asks about first, and the query-mix read
/// sequence.
/// `crawl-batch` simulates a fresh crawl per seed, because EM-Ext runs
/// to its iteration cap on Paris Attack whatever the crawl.
pub const CRAWL_SEED: u64 = 2015;

/// A simulated crawl rendered as the JSONL an Apollo crawler writes:
/// one tweet per line with `id`, `user`, `time`, `text`, and
/// `retweet_of` on retweets.
pub fn crawl_jsonl(preset: &ScenarioConfig, scale: f64, seed: u64) -> String {
    let ds = TwitterDataset::simulate(&preset.scaled(scale), seed).expect("presets validate");
    let mut out = String::with_capacity(ds.tweets.len() * 128);
    for t in &ds.tweets {
        let mut line = serde_json::Map::new();
        line.insert("id".into(), serde_json::json!(t.id));
        line.insert(
            "user".into(),
            serde_json::json!(format!("u{:06}", t.source)),
        );
        line.insert("time".into(), serde_json::json!(t.time));
        line.insert("text".into(), serde_json::json!(t.text));
        if let Some(orig) = t.retweet_of {
            line.insert("retweet_of".into(), serde_json::json!(orig));
        }
        let line = serde_json::Value::Object(line);
        out.push_str(&serde_json::to_string(&line).expect("a tweet serializes"));
        out.push('\n');
    }
    out
}

/// A crawl after Apollo's ingest and clustering: the claim stream a
/// serving tier receives, in arrival order.
#[derive(PartialEq)]
pub struct ClaimStream {
    /// Interned sources.
    pub sources: u32,
    /// Assertion clusters.
    pub assertions: u32,
    /// Follow edges, explicit and retweet-derived.
    pub graph: FollowerGraph,
    /// Timestamped `(source, cluster)` claims, time-ordered.
    pub claims: Vec<TimedClaim>,
}

impl ClaimStream {
    /// Parses, assembles, and clusters `jsonl` exactly as
    /// `apollo serve --input` does before its replay.
    pub fn from_jsonl(jsonl: &str) -> Self {
        let tweets = parse_tweets_jsonl_with(
            jsonl,
            &IngestConfig {
                parallelism: GEN_THREADS,
            },
        )
        .expect("generated JSONL parses");
        let corpus = assemble_corpus(tweets, &[]).expect("generated corpus assembles");
        let texts: Vec<String> = corpus.tweets.iter().map(|t| t.text.clone()).collect();
        let clustering = cluster_texts_par(&texts, &ClusterConfig::default(), GEN_THREADS);
        let claims = corpus
            .tweets
            .iter()
            .zip(&clustering.assignment)
            .map(|(t, &c)| TimedClaim::new(t.source, c, t.time))
            .collect();
        Self {
            sources: corpus.source_count(),
            assertions: clustering.cluster_count.max(1),
            graph: corpus.graph,
            claims,
        }
    }
}

/// Splits `claims` into `count` time-ordered batches of equal size (the
/// last may be shorter), as `apollo serve --batches` does.
pub fn batches(claims: &[TimedClaim], count: usize) -> Vec<Vec<TimedClaim>> {
    let chunk = claims.len().div_ceil(count.max(1)).max(1);
    claims.chunks(chunk).map(<[TimedClaim]>::to_vec).collect()
}
