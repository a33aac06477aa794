//! An Apollo-style fact-finding pipeline.
//!
//! The paper integrates its estimator into *Apollo*, a tool that ingests
//! raw tweets, groups them into assertions, and ranks the assertions by
//! estimated credibility. This crate reproduces that pipeline over the
//! simulated Twitter substrate:
//!
//! 1. **Ingest** a [`TwitterDataset`](socsense_twitter::TwitterDataset)
//!    (tweets + follower graph);
//! 2. **Cluster** tweets into assertions by token-shingle Jaccard
//!    similarity with a union-find ([`cluster_texts`]), pruned by an
//!    inverted shingle index and sharded deterministically over worker
//!    threads — or trust the simulator's assertion ids when configured,
//!    which isolates estimator quality from clustering quality;
//! 3. **Build** the `SC` / `D` matrices from the clustered claims and the
//!    follow relation (dependency = retweet-style repeats, via
//!    who-spoke-first);
//! 4. **Estimate** with any [`FactFinder`](socsense_baselines::FactFinder)
//!    (EM-Ext by default);
//! 5. **Rank** assertions and report the top-k with representative
//!    tweets, as Apollo surfaces its top-100.
//!
//! # Example
//!
//! ```
//! use socsense_apollo::{Apollo, ApolloConfig};
//! use socsense_baselines::EmExtFinder;
//! use socsense_twitter::{ScenarioConfig, TwitterDataset};
//!
//! let ds = TwitterDataset::simulate(&ScenarioConfig::ukraine().scaled(0.01), 5)?;
//! let out = Apollo::new(ApolloConfig::default())
//!     .run(&ds, &EmExtFinder::default())
//!     .expect("pipeline runs");
//! assert!(!out.ranked.is_empty());
//! # Ok::<(), socsense_twitter::TwitterError>(())
//! ```

// detlint: contract = deterministic
#![warn(missing_docs)]

mod cluster;
pub mod ingest;
mod pipeline;
mod report;
pub mod serve;

pub use cluster::{
    cluster_texts, cluster_texts_naive, cluster_texts_par, cluster_texts_traced,
    cluster_texts_with_stats, ClusterConfig, ClusterStats, Clustering,
};
pub use ingest::{
    assemble_corpus, parse_follows_csv, parse_tweets_jsonl, parse_tweets_jsonl_traced,
    parse_tweets_jsonl_with, Corpus, IngestConfig, IngestError,
};
pub use pipeline::{
    Apollo, ApolloConfig, ApolloOutput, CorpusOutput, CorpusRanked, RankedAssertion,
};
pub use report::render_report;
pub use serve::{ReplaySummary, ServeOptions, ServeSession};
