//! The end-to-end Apollo pipeline.

use serde::{Deserialize, Serialize};

use socsense_baselines::{best_first, FactFinder};
use socsense_core::{ClaimData, Obs, Parallelism, SenseError};
use socsense_discover::{discover_dependencies_traced, DiscoverConfig};
use socsense_graph::{FollowerGraph, TimedClaim};
use socsense_twitter::{TruthValue, TwitterDataset};

use crate::cluster::{cluster_texts_traced, ClusterConfig, Clustering};

/// Pipeline configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ApolloConfig {
    /// When `true`, tweets are grouped by text clustering; when `false`
    /// (default) the simulator's assertion ids are trusted, isolating the
    /// estimator from clustering noise (the configuration the Fig. 11
    /// harness uses).
    pub cluster_text: bool,
    /// Clustering parameters (used only when `cluster_text` is on).
    pub cluster: ClusterConfig,
    /// How many ranked assertions to keep in the report (Apollo's
    /// top-100 by default).
    pub top_k: usize,
    /// Worker threads for the ingest *and* estimation stages. The
    /// pipeline shards text clustering over this many workers, and the
    /// CLI forwards it to the EM-family fact-finders it constructs
    /// (`--threads`); embedders configuring their own [`FactFinder`]
    /// should thread it through `EmConfig::parallelism` the same way.
    /// Never changes results — clustering merges shard-local union-finds
    /// in index order — only wall-clock time (see
    /// `socsense_matrix::parallel`).
    pub parallelism: Parallelism,
    /// When set, the dependency graph is *discovered* from the claim log
    /// (`socsense-discover`) instead of taken from the dataset's follower
    /// graph — the "unknown graph" deployment mode behind
    /// `apollo run --discover-deps`. Discovery runs after clustering, on
    /// the same claims the matrices are built from.
    pub discover: Option<DiscoverConfig>,
}

impl Default for ApolloConfig {
    fn default() -> Self {
        Self {
            cluster_text: false,
            cluster: ClusterConfig::default(),
            top_k: 100,
            parallelism: Parallelism::Auto,
            discover: None,
        }
    }
}

/// One ranked assertion in the pipeline output.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RankedAssertion {
    /// Assertion (cluster) id in the pipeline's claim matrix.
    pub assertion: u32,
    /// Credence score from the configured fact-finder.
    pub score: f64,
    /// Number of distinct sources asserting it.
    pub support: usize,
    /// A representative tweet text.
    pub sample_text: String,
    /// Ground-truth label (majority of member tweets' assertions), kept
    /// for evaluation; a deployed Apollo would not have this column.
    pub truth: TruthValue,
}

/// Full pipeline output.
#[derive(Debug, Clone)]
pub struct ApolloOutput {
    /// Dataset name.
    pub dataset: String,
    /// Algorithm name.
    pub algorithm: &'static str,
    /// Top-k assertions, best first.
    pub ranked: Vec<RankedAssertion>,
    /// Number of assertions the pipeline operated on (clusters or ids).
    pub assertion_count: u32,
    /// Clustering purity against simulator ids (1.0 when clustering is
    /// bypassed).
    pub cluster_purity: f64,
    /// The claim matrices handed to the estimator.
    pub claim_data: ClaimData,
}

impl ApolloOutput {
    /// The paper's Fig. 11 metric over the top `k` of this ranking:
    /// `#True / (#True + #False + #Opinion)`.
    pub fn top_k_accuracy(&self, k: usize) -> f64 {
        let take = self.ranked.iter().take(k);
        let (mut true_n, mut total) = (0usize, 0usize);
        for r in take {
            total += 1;
            if r.truth.is_true() {
                true_n += 1;
            }
        }
        if total == 0 {
            0.0
        } else {
            true_n as f64 / total as f64
        }
    }
}

/// One ranked assertion from an external corpus (no ground truth column).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CorpusRanked {
    /// Cluster id in the pipeline's claim matrix.
    pub assertion: u32,
    /// Credence score from the configured fact-finder.
    pub score: f64,
    /// Number of distinct sources asserting it.
    pub support: usize,
    /// A representative tweet text.
    pub sample_text: String,
}

/// Pipeline output for an external corpus.
#[derive(Debug, Clone)]
pub struct CorpusOutput {
    /// Algorithm name.
    pub algorithm: &'static str,
    /// Top-k assertions, best first.
    pub ranked: Vec<CorpusRanked>,
    /// Number of text clusters found.
    pub assertion_count: u32,
    /// The claim matrices handed to the estimator.
    pub claim_data: ClaimData,
}

/// The pipeline runner.
#[derive(Debug, Clone, Default)]
pub struct Apollo {
    config: ApolloConfig,
    obs: Obs,
}

impl Apollo {
    /// Creates a runner with the given configuration.
    pub fn new(config: ApolloConfig) -> Self {
        Self {
            config,
            obs: Obs::none(),
        }
    }

    /// Attaches a metrics handle; runs then report `pipeline.*` stage
    /// timings plus the `ingest.cluster.*` metrics of the clustering
    /// stage. To also capture `em.*` metrics, build the fact-finder
    /// with the same handle (the EM-family finders take one via
    /// `with_obs`). Observation-only: rankings are bit-identical with
    /// or without a sink.
    #[must_use]
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Resolves the dependency graph for matrix construction: `None`
    /// means "use the dataset's follower graph"; `Some` carries the
    /// graph discovered from the claim log when
    /// [`ApolloConfig::discover`] is set.
    fn dependency_graph(
        &self,
        n: u32,
        m: u32,
        claims: &[TimedClaim],
    ) -> Result<Option<FollowerGraph>, SenseError> {
        let Some(discover) = &self.config.discover else {
            return Ok(None);
        };
        let stage_timer = self.obs.timer("pipeline.discover.seconds");
        let discovery = discover_dependencies_traced(
            n,
            m,
            claims,
            discover,
            self.config.parallelism,
            &self.obs,
        )
        .map_err(|e| match e {
            socsense_discover::DiscoverError::BadConfig { what } => SenseError::BadConfig { what },
            // Claims are built in-pipeline from dataset tweets, so this
            // is unreachable in practice; surface it as a shape error.
            socsense_discover::DiscoverError::ClaimOutOfBounds { n, .. } => {
                SenseError::DimensionMismatch {
                    what: "discovery claim source id",
                    expected: n as usize,
                    actual: n as usize,
                }
            }
            _ => SenseError::BadConfig {
                what: "dependency discovery failed",
            },
        })?;
        stage_timer.stop();
        self.obs
            .counter("pipeline.discovered_edges", discovery.edges.len() as u64);
        Ok(Some(discovery.graph))
    }

    /// The stages both runs share once each tweet `(source, time, text)`
    /// has its cluster in `cluster_of`: the claims, the dependency graph
    /// (discovered, or else `graph`), `SC`/`D`, the finder's ranking
    /// scores, and the top-k clusters by [`best_first`], each with its
    /// first tweet's text. Ranking scores (log-odds for the EM family)
    /// avoid posterior saturation ties in the top-k.
    fn rank<'t>(
        &self,
        n: u32,
        tweets: impl Iterator<Item = (u32, u64, &'t str)> + Clone,
        cluster_of: &[u32],
        cluster_count: u32,
        graph: &FollowerGraph,
        finder: &dyn FactFinder,
    ) -> Result<(Vec<CorpusRanked>, ClaimData), SenseError> {
        let m = cluster_count.max(1);
        let claims: Vec<TimedClaim> = tweets
            .clone()
            .zip(cluster_of)
            .map(|((source, time, _), &c)| TimedClaim::new(source, c, time))
            .collect();
        let discovered = self.dependency_graph(n, m, &claims)?;
        let data = ClaimData::from_claims(n, m, &claims, discovered.as_ref().unwrap_or(graph));

        let fit_timer = self.obs.timer("pipeline.estimate.seconds");
        let scores = finder.ranking_scores(&data)?;
        fit_timer.stop();

        let mut sample_text: Vec<Option<&str>> = vec![None; cluster_count as usize];
        for ((_, _, text), &c) in tweets.zip(cluster_of) {
            sample_text[c as usize].get_or_insert(text);
        }
        let ranked = best_first(&scores[..cluster_count as usize])
            .into_iter()
            .take(self.config.top_k)
            .map(|c| CorpusRanked {
                assertion: c,
                score: scores[c as usize],
                support: data.sc().col_nnz(c),
                sample_text: sample_text[c as usize].unwrap_or_default().to_owned(),
            })
            .collect();
        Ok((ranked, data))
    }

    /// Runs ingest → cluster → matrix construction → estimation → ranking.
    ///
    /// # Errors
    ///
    /// Propagates estimator failures as [`SenseError`].
    pub fn run(
        &self,
        dataset: &TwitterDataset,
        finder: &dyn FactFinder,
    ) -> Result<ApolloOutput, SenseError> {
        if dataset.tweets.is_empty() {
            return Err(SenseError::EmptyData);
        }
        let _run_timer = self.obs.timer("pipeline.run.seconds");
        self.obs
            .counter("pipeline.tweets_total", dataset.tweets.len() as u64);

        // Stage 2: assertion identity per tweet.
        let (tweet_cluster, cluster_count, purity) = if self.config.cluster_text {
            let texts: Vec<String> = dataset.tweets.iter().map(|t| t.text.clone()).collect();
            let clustering: Clustering = cluster_texts_traced(
                &texts,
                &self.config.cluster,
                self.config.parallelism,
                &self.obs,
            )
            .0;
            let labels: Vec<u32> = dataset.tweets.iter().map(|t| t.assertion).collect();
            let purity = clustering.purity(&labels);
            (clustering.assignment, clustering.cluster_count, purity)
        } else {
            let ids: Vec<u32> = dataset.tweets.iter().map(|t| t.assertion).collect();
            (ids, dataset.assertion_count(), 1.0)
        };

        // Stages 3–5: SC / D from the clustered claims and the follow
        // graph (given or discovered), estimation, ranking.
        let tweets = dataset
            .tweets
            .iter()
            .map(|t| (t.source, t.time, t.text.as_str()));
        let (ranked, data) = self.rank(
            dataset.source_count(),
            tweets,
            &tweet_cluster,
            cluster_count,
            &dataset.graph,
            finder,
        )?;

        // Ground truth: the majority of each cluster's member tweets'
        // assertions. BTreeMap, not HashMap: a count tie must resolve by
        // assertion id, not by hash-iteration order, or the reported
        // truth label flips between runs.
        let mut majority: Vec<std::collections::BTreeMap<u32, usize>> =
            vec![std::collections::BTreeMap::new(); cluster_count as usize];
        for (t, &c) in dataset.tweets.iter().zip(&tweet_cluster) {
            *majority[c as usize].entry(t.assertion).or_default() += 1;
        }
        let ranked = ranked
            .into_iter()
            .map(|r| {
                let truth = majority[r.assertion as usize]
                    .iter()
                    .max_by_key(|(&a, &n)| (n, std::cmp::Reverse(a)))
                    .map_or(TruthValue::Opinion, |(&a, _)| dataset.truth_value(a));
                RankedAssertion {
                    assertion: r.assertion,
                    score: r.score,
                    support: r.support,
                    sample_text: r.sample_text,
                    truth,
                }
            })
            .collect();

        Ok(ApolloOutput {
            dataset: dataset.name.clone(),
            algorithm: finder.name(),
            ranked,
            assertion_count: cluster_count,
            cluster_purity: purity,
            claim_data: data,
        })
    }
}

impl Apollo {
    /// Runs the pipeline on an externally ingested corpus (see
    /// [`crate::ingest`]). Text clustering always runs — external data
    /// carries no assertion ids — and the output has no ground-truth
    /// column.
    ///
    /// # Errors
    ///
    /// Propagates estimator failures; [`SenseError::EmptyData`] if the
    /// corpus holds no tweets.
    pub fn run_corpus(
        &self,
        corpus: &crate::ingest::Corpus,
        finder: &dyn FactFinder,
    ) -> Result<CorpusOutput, SenseError> {
        if corpus.tweets.is_empty() {
            return Err(SenseError::EmptyData);
        }
        let _run_timer = self.obs.timer("pipeline.run.seconds");
        self.obs
            .counter("pipeline.tweets_total", corpus.tweets.len() as u64);
        let texts: Vec<String> = corpus.tweets.iter().map(|t| t.text.clone()).collect();
        let clustering = cluster_texts_traced(
            &texts,
            &self.config.cluster,
            self.config.parallelism,
            &self.obs,
        )
        .0;
        let tweets = corpus
            .tweets
            .iter()
            .map(|t| (t.source, t.time, t.text.as_str()));
        let (ranked, data) = self.rank(
            corpus.source_count(),
            tweets,
            &clustering.assignment,
            clustering.cluster_count,
            &corpus.graph,
            finder,
        )?;
        Ok(CorpusOutput {
            algorithm: finder.name(),
            ranked,
            assertion_count: clustering.cluster_count,
            claim_data: data,
        })
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_types)]
mod tests {
    use super::*;
    use socsense_baselines::{EmExtFinder, Voting};
    use socsense_twitter::ScenarioConfig;

    fn dataset() -> TwitterDataset {
        TwitterDataset::simulate(&ScenarioConfig::ukraine().scaled(0.02), 21).unwrap()
    }

    #[test]
    fn pipeline_with_known_ids_ranks_all_assertions() {
        let ds = dataset();
        let out = Apollo::new(ApolloConfig::default())
            .run(&ds, &Voting::default())
            .unwrap();
        assert_eq!(out.assertion_count, ds.assertion_count());
        assert_eq!(out.cluster_purity, 1.0);
        assert!(out.ranked.len() <= 100);
        // Ranking is by non-increasing score.
        for w in out.ranked.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }

    #[test]
    fn pipeline_with_text_clustering_stays_faithful() {
        let ds = dataset();
        let cfg = ApolloConfig {
            cluster_text: true,
            ..ApolloConfig::default()
        };
        let out = Apollo::new(cfg).run(&ds, &Voting::default()).unwrap();
        assert!(out.cluster_purity > 0.9, "purity {:.3}", out.cluster_purity);
        // Cluster count lands near the number of *tweeted* assertions.
        let tweeted: std::collections::HashSet<u32> =
            ds.tweets.iter().map(|t| t.assertion).collect();
        let ratio = out.assertion_count as f64 / tweeted.len() as f64;
        assert!(
            (0.7..=1.4).contains(&ratio),
            "cluster/assertion ratio {ratio:.2}"
        );
    }

    #[test]
    fn top_k_accuracy_is_a_fraction() {
        let ds = dataset();
        let out = Apollo::new(ApolloConfig::default())
            .run(&ds, &EmExtFinder::default())
            .unwrap();
        let acc = out.top_k_accuracy(50);
        assert!((0.0..=1.0).contains(&acc));
    }

    #[test]
    fn em_ext_beats_chance_on_simulated_data() {
        let ds = TwitterDataset::simulate(&ScenarioConfig::ukraine().scaled(0.05), 21).unwrap();
        let out = Apollo::new(ApolloConfig::default())
            .run(&ds, &EmExtFinder::default())
            .unwrap();
        // Base rate: share of True among all assertions ≈ 0.51.
        let base = ds.truth.iter().filter(|t| t.is_true()).count() as f64 / ds.truth.len() as f64;
        let acc = out.top_k_accuracy(30);
        assert!(
            acc > base + 0.1,
            "top-30 accuracy {acc:.2} vs base rate {base:.2}"
        );
    }

    #[test]
    fn empty_dataset_is_rejected() {
        let mut ds = dataset();
        ds.tweets.clear();
        assert!(matches!(
            Apollo::new(ApolloConfig::default()).run(&ds, &Voting::default()),
            Err(SenseError::EmptyData)
        ));
    }

    #[test]
    fn external_corpus_runs_end_to_end() {
        let jsonl = r#"
            {"id":1,"user":"sally","time":10,"text":"breaking explosion near bridge a1 #x"}
            {"id":2,"user":"bob","time":11,"text":"breaking explosion near bridge a1 #x"}
            {"id":3,"user":"john","time":12,"text":"breaking explosion near bridge a1 #x","retweet_of":1}
            {"id":4,"user":"mia","time":13,"text":"crowd gathers at stadium a2 #x"}
        "#;
        let tweets = crate::ingest::parse_tweets_jsonl(jsonl).unwrap();
        let corpus = crate::ingest::assemble_corpus(tweets, &[]).unwrap();
        let out = Apollo::new(ApolloConfig::default())
            .run_corpus(&corpus, &Voting::default())
            .unwrap();
        assert_eq!(out.assertion_count, 2);
        assert_eq!(out.ranked.len(), 2);
        // The explosion cluster has 3 supporters and ranks first.
        assert_eq!(out.ranked[0].support, 3);
        assert!(out.ranked[0].sample_text.contains("explosion"));
        // John's repeat arrived after Sally's original via a retweet edge,
        // so his cell is dependent.
        let john = corpus.source_id("john").unwrap();
        let cluster = out.ranked[0].assertion;
        assert!(out.claim_data.dependent(john, cluster));
    }
}
