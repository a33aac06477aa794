//! `apollo serve`: replay an ingested corpus through a live
//! [`QueryService`] and answer interactive queries.
//!
//! The session clusters the corpus into assertions once (external
//! corpora carry no assertion ids), replays the resulting timestamped
//! claims through the service in batches — the way a deployed Apollo
//! would poll the firehose — and then answers line-oriented queries:
//!
//! ```text
//! posterior <assertion-id>
//! top-sources <k>
//! bound [<assertion-id> ...]
//! stats
//! metrics
//! help
//! ```
//!
//! The command layer lives in the library (rather than the binary) so
//! the end-to-end path is testable without a subprocess.

use std::path::PathBuf;

use socsense_core::{EmConfig, Obs, Parallelism, RefitMode};
use socsense_graph::TimedClaim;
use socsense_serve::{
    PersistConfig, QueryService, ServeConfig, ServeError, ServeHandle, ServeStats, ShardedHandle,
    ShardedService,
};

use crate::cluster::{cluster_texts_traced, ClusterConfig};
use crate::ingest::Corpus;

/// Options for [`ServeSession::start`].
#[derive(Debug, Clone, PartialEq)]
pub struct ServeOptions {
    /// How many ingest batches the replay splits the corpus into.
    pub batches: usize,
    /// Worker threads for clustering, the EM refits and bound
    /// evaluation.
    pub parallelism: Parallelism,
    /// Forwarded to [`ServeConfig::refit_mode`]: full warm refits per
    /// batch, or delta-scoped E-steps with threshold-guarded fallback.
    pub refit_mode: RefitMode,
    /// Serving backend: `0` runs the single-worker [`QueryService`];
    /// `N ≥ 1` runs the horizontally sharded tier ([`ShardedService`])
    /// with `N` worker shards. Answers are bit-identical either way on
    /// fully connected corpora, and bit-identical across shard counts
    /// always.
    pub shards: usize,
    /// Durable serve state: when set, the session write-ahead-logs every
    /// ingested batch and checkpoints under this directory, and a
    /// restart over the same directory recovers bit-identical state
    /// (see [`PersistConfig`]).
    pub data_dir: Option<PathBuf>,
    /// Text-clustering parameters.
    pub cluster: ClusterConfig,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            batches: 6,
            parallelism: Parallelism::Auto,
            refit_mode: RefitMode::Full,
            shards: 0,
            data_dir: None,
            cluster: ClusterConfig::default(),
        }
    }
}

/// What the replay ingested, for the startup banner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplaySummary {
    /// Interned sources.
    pub sources: u32,
    /// Assertion clusters found in the corpus.
    pub assertions: u32,
    /// Claims replayed (`0` when a durable session recovered already
    /// ingested state instead of replaying).
    pub claims: usize,
    /// Ingest batches used.
    pub batches: usize,
}

/// The backend a session runs on (see [`ServeOptions::shards`]).
#[derive(Debug)]
enum Backend {
    Single(QueryService),
    Sharded(ShardedService),
}

/// A live query session over a replayed corpus.
#[derive(Debug)]
pub struct ServeSession {
    backend: Backend,
    client: ServeHandle,
    /// Present only on the sharded backend; serves `topology` queries.
    sharded_client: Option<ShardedHandle>,
    usernames: Vec<String>,
    sample_text: Vec<String>,
    assertion_count: u32,
}

impl ServeSession {
    /// Clusters `corpus`, spawns the query service, and replays every
    /// claim through it in [`ServeOptions::batches`] batches.
    ///
    /// # Errors
    ///
    /// Propagates service errors ([`ServeError`]); an empty corpus
    /// surfaces as the underlying estimator's shape error.
    pub fn start(
        corpus: &Corpus,
        opts: &ServeOptions,
    ) -> Result<(Self, ReplaySummary), ServeError> {
        Self::start_with_obs(corpus, opts, Obs::none())
    }

    /// As [`start`](Self::start), additionally teeing the session's
    /// metrics (clustering, ingest, and everything the service worker
    /// emits) into `extra` — e.g. a JSON-lines exporter. The `metrics`
    /// query command works either way: the service worker always keeps
    /// its own in-memory recorder.
    ///
    /// # Errors
    ///
    /// See [`start`](Self::start).
    pub fn start_with_obs(
        corpus: &Corpus,
        opts: &ServeOptions,
        extra: Obs,
    ) -> Result<(Self, ReplaySummary), ServeError> {
        let texts: Vec<String> = corpus.tweets.iter().map(|t| t.text.clone()).collect();
        let (clustering, _) = cluster_texts_traced(&texts, &opts.cluster, opts.parallelism, &extra);
        let m = clustering.cluster_count.max(1);

        let mut sample_text = vec![String::new(); m as usize];
        for (t, &c) in corpus.tweets.iter().zip(&clustering.assignment) {
            if sample_text[c as usize].is_empty() {
                sample_text[c as usize] = t.text.clone();
            }
        }
        let claims: Vec<TimedClaim> = corpus
            .tweets
            .iter()
            .zip(&clustering.assignment)
            .map(|(t, &c)| TimedClaim::new(t.source, c, t.time))
            .collect();

        let config = serve_config(opts);
        let (backend, client, sharded_client) = if opts.shards == 0 {
            let service = QueryService::spawn_with_obs(
                corpus.source_count(),
                m,
                corpus.graph.clone(),
                config,
                extra,
            )?;
            let client = service.handle();
            (Backend::Single(service), client, None)
        } else {
            let service = ShardedService::spawn_with_obs(
                corpus.source_count(),
                m,
                corpus.graph.clone(),
                config,
                opts.shards,
                extra,
            )?;
            let sharded = service.handle();
            let client = (*sharded).clone();
            (Backend::Sharded(service), client, Some(sharded))
        };

        let batches = opts.batches.max(1);
        // A recovered data directory already holds the replayed stream:
        // re-ingesting the corpus would double every claim. Replay only
        // into a fresh service.
        let recovered = client.stats()?.total_claims;
        // Corpus tweets are time-ordered, so index chunks replay the
        // stream in arrival order.
        let chunk = claims.len().div_ceil(batches).max(1);
        let mut used = 0usize;
        let mut replayed = 0usize;
        if recovered == 0 {
            for batch in claims.chunks(chunk) {
                client.ingest(batch.to_vec())?;
                used += 1;
            }
            replayed = claims.len();
        }
        let summary = ReplaySummary {
            sources: corpus.source_count(),
            assertions: m,
            claims: replayed,
            batches: used,
        };
        Ok((
            Self {
                backend,
                client,
                sharded_client,
                usernames: corpus.usernames.clone(),
                sample_text,
                assertion_count: m,
            },
            summary,
        ))
    }

    /// A handle for issuing typed requests directly (e.g. from extra
    /// client threads).
    pub fn client(&self) -> ServeHandle {
        self.client.clone()
    }

    /// Number of assertion clusters the session serves.
    pub fn assertion_count(&self) -> u32 {
        self.assertion_count
    }

    /// Answers one query line; `Err` carries a user-facing message for
    /// unparseable or unknown commands (the session stays usable).
    ///
    /// # Errors
    ///
    /// `Err(String)` is a user error (bad command, bad id, or a service
    /// error rendered as text) — print it and keep reading.
    pub fn answer(&self, line: &str) -> Result<String, String> {
        let mut words = line.split_whitespace();
        let command = words.next().ok_or("empty command; try `help`")?;
        match command {
            "posterior" => {
                let j: u32 = parse_arg(words.next(), "posterior <assertion-id>")?;
                words_done(words)?;
                let p = self.client.posterior(j).map_err(|e| e.to_string())?;
                let text = self
                    .sample_text
                    .get(j as usize)
                    .map(String::as_str)
                    .unwrap_or("");
                Ok(format!("posterior {j} = {p:.6}  # {text}"))
            }
            "top-sources" => {
                let k: usize = parse_arg(words.next(), "top-sources <k>")?;
                words_done(words)?;
                let ranks = self.client.top_sources(k).map_err(|e| e.to_string())?;
                let mut out = format!("top {} of {} sources:", ranks.len(), self.usernames.len());
                for (rank, r) in ranks.iter().enumerate() {
                    let user = self
                        .usernames
                        .get(r.source as usize)
                        .map(String::as_str)
                        .unwrap_or("?");
                    out.push_str(&format!(
                        "\n{:>3}. {user}  precision={:.4}  a={:.3} b={:.3}",
                        rank + 1,
                        r.precision,
                        r.params.a,
                        r.params.b
                    ));
                }
                Ok(out)
            }
            "bound" => {
                let assertions: Vec<u32> = words
                    .map(|w| w.parse().map_err(|_| format!("bad assertion id `{w}`")))
                    .collect::<Result<_, _>>()?;
                let over = if assertions.is_empty() {
                    self.assertion_count as usize
                } else {
                    assertions.len()
                };
                let b = self
                    .client
                    .bound(assertions, None)
                    .map_err(|e| e.to_string())?;
                Ok(format!(
                    "bound over {over} assertions: error={:.6} fp={:.6} fn={:.6}",
                    b.error, b.false_positive, b.false_negative
                ))
            }
            "stats" => {
                words_done(words)?;
                let s = self.client.stats().map_err(|e| e.to_string())?;
                let opt = |v: Option<usize>| v.map(|i| i.to_string()).unwrap_or_else(|| "-".into());
                let exact = match s.last_ll_exact {
                    None => "-",
                    Some(true) => "exact",
                    Some(false) => "approx",
                };
                Ok(format!(
                    "claims={} requests={} chain_refits={} warm={} delta={} fallbacks={} \
                     last_iters={} last_touched={}/{} last_ll={exact}",
                    s.total_claims,
                    s.requests_served,
                    s.chain_refits,
                    s.warm_refits,
                    s.delta_refits,
                    s.fallback_refits,
                    opt(s.last_refit_iterations),
                    opt(s.last_touched_assertions),
                    opt(s.last_touched_sources),
                ))
            }
            "metrics" => {
                words_done(words)?;
                let m = self.client.metrics().map_err(|e| e.to_string())?;
                let text = m.to_jsonl();
                if text.is_empty() {
                    Ok("no metrics recorded".into())
                } else {
                    Ok(text)
                }
            }
            "topology" => {
                words_done(words)?;
                let client = self
                    .sharded_client
                    .as_ref()
                    .ok_or("topology needs the sharded backend; restart with --shards N")?;
                let t = client.topology().map_err(|e| e.to_string())?;
                let mut out = format!(
                    "{} shards, epoch {}, {} clusters:",
                    t.shards,
                    t.epoch,
                    t.clusters.len()
                );
                for c in &t.clusters {
                    out.push_str(&format!(
                        "\n  cluster {} -> shard {}  ({} sources, {} assertions)",
                        c.key, c.shard, c.sources, c.assertions
                    ));
                }
                Ok(out)
            }
            "help" => Ok("commands: posterior <assertion-id> | top-sources <k> | \
                          bound [<assertion-id> ...] | stats | metrics | topology | quit"
                .into()),
            other => Err(format!("unknown command `{other}`; try `help`")),
        }
    }

    /// Shuts the service down and returns its final statistics.
    ///
    /// # Errors
    ///
    /// Propagates [`ServeError::Closed`] when the worker already died.
    pub fn finish(self) -> Result<ServeStats, ServeError> {
        match self.backend {
            Backend::Single(service) => service.shutdown(),
            Backend::Sharded(service) => service.shutdown(),
        }
    }
}

/// The service configuration a session runs: `opts`' parallelism
/// reaches the EM refits as well as bound evaluation.
fn serve_config(opts: &ServeOptions) -> ServeConfig {
    ServeConfig {
        em: EmConfig {
            parallelism: opts.parallelism,
            ..EmConfig::default()
        },
        parallelism: opts.parallelism,
        refit_mode: opts.refit_mode,
        persist: opts.data_dir.as_deref().map(PersistConfig::at),
        ..ServeConfig::default()
    }
}

fn parse_arg<T: std::str::FromStr>(word: Option<&str>, usage: &str) -> Result<T, String> {
    word.ok_or_else(|| format!("usage: {usage}"))?
        .parse()
        .map_err(|_| format!("usage: {usage}"))
}

fn words_done<'a>(mut words: impl Iterator<Item = &'a str>) -> Result<(), String> {
    match words.next() {
        None => Ok(()),
        Some(extra) => Err(format!("unexpected argument `{extra}`; try `help`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::{assemble_corpus, parse_tweets_jsonl};

    fn corpus() -> Corpus {
        let jsonl = r#"
            {"id":1,"user":"sally","time":10,"text":"breaking explosion near bridge a1 #x"}
            {"id":2,"user":"bob","time":11,"text":"breaking explosion near bridge a1 #x"}
            {"id":3,"user":"john","time":12,"text":"breaking explosion near bridge a1 #x","retweet_of":1}
            {"id":4,"user":"mia","time":13,"text":"crowd gathers at stadium a2 #x"}
            {"id":5,"user":"sally","time":14,"text":"crowd gathers at stadium a2 #x"}
        "#;
        assemble_corpus(parse_tweets_jsonl(jsonl).unwrap(), &[]).unwrap()
    }

    #[test]
    fn session_replays_and_answers_queries() {
        let (session, summary) = ServeSession::start(&corpus(), &ServeOptions::default()).unwrap();
        assert_eq!(summary.sources, 4);
        assert_eq!(summary.assertions, 2);
        assert_eq!(summary.claims, 5);
        assert!(summary.batches >= 1);

        let ans = session.answer("posterior 0").unwrap();
        assert!(ans.starts_with("posterior 0 = "), "{ans}");
        let p: f64 = ans["posterior 0 = ".len()..]
            .split_whitespace()
            .next()
            .unwrap()
            .parse()
            .unwrap();
        assert!((0.0..=1.0).contains(&p), "{ans}");
        let ans = session.answer("top-sources 3").unwrap();
        assert!(ans.contains("precision="), "{ans}");
        assert_eq!(ans.lines().count(), 4, "header + 3 ranked sources");
        let ans = session.answer("bound").unwrap();
        assert!(ans.contains("over 2 assertions"), "{ans}");
        let ans = session.answer("bound 0").unwrap();
        assert!(ans.contains("over 1 assertions"), "{ans}");
        let ans = session.answer("stats").unwrap();
        assert!(ans.contains("claims=5"), "{ans}");
        let ans = session.answer("metrics").unwrap();
        assert!(ans.contains("serve.requests_total"), "{ans}");
        assert!(ans.contains("serve.refit.chain_total"), "{ans}");
        assert!(ans.contains("em.runs_total"), "{ans}");

        assert!(session.answer("posterior").is_err());
        assert!(session.answer("posterior nope").is_err());
        assert!(session.answer("frobnicate").is_err());
        let err = session.answer("posterior 99").unwrap_err();
        assert!(err.contains("expected"), "{err}");

        let stats = session.finish().unwrap();
        assert_eq!(stats.total_claims, 5);
    }

    #[test]
    fn session_parallelism_reaches_the_em_refits() {
        let opts = ServeOptions {
            parallelism: Parallelism::Threads(3),
            ..ServeOptions::default()
        };
        let config = serve_config(&opts);
        assert_eq!(config.em.parallelism, Parallelism::Threads(3));
        assert_eq!(config.parallelism, Parallelism::Threads(3));
        assert_eq!(
            serve_config(&ServeOptions::default()).em,
            EmConfig::default(),
            "the default options keep the default EM"
        );
    }

    #[test]
    fn session_with_obs_captures_ingest_and_serve_families() {
        let (extra, rec) = Obs::recorder();
        let (session, _) =
            ServeSession::start_with_obs(&corpus(), &ServeOptions::default(), extra).unwrap();
        session.answer("posterior 0").unwrap();
        session.answer("bound").unwrap();
        session.finish().unwrap();
        let snap = rec.snapshot();
        // One exported stream spans clustering, streaming-EM, bound,
        // and serve latency families.
        assert_eq!(snap.counter("ingest.cluster.texts_total"), 5);
        assert!(snap.counter("em.runs_total") >= 1);
        assert!(snap.counter("bound.assertions_total") >= 1);
        assert!(snap.histogram("serve.request.posterior.seconds").is_some());
        assert!(snap.counter("serve.requests_total") >= 2);
    }

    #[test]
    fn delta_mode_session_serves_and_reports_mode_fields() {
        use socsense_core::DeltaConfig;
        let opts = ServeOptions {
            refit_mode: RefitMode::Delta(DeltaConfig::default()),
            ..ServeOptions::default()
        };
        let (session, _) = ServeSession::start(&corpus(), &opts).unwrap();
        let ans = session.answer("stats").unwrap();
        assert!(ans.contains("delta="), "{ans}");
        assert!(ans.contains("fallbacks="), "{ans}");
        assert!(ans.contains("last_touched="), "{ans}");
        assert!(ans.contains("last_ll="), "{ans}");
        // Delta-mode answers match a Full-mode session: the default
        // thresholds only ever swap in fallbacks, which are
        // bit-identical to full warm refits.
        let (full, _) = ServeSession::start(&corpus(), &ServeOptions::default()).unwrap();
        assert_eq!(
            session.answer("posterior 0").unwrap(),
            full.answer("posterior 0").unwrap()
        );
        session.finish().unwrap();
        full.finish().unwrap();
    }

    #[test]
    fn sharded_session_matches_single_worker_session() {
        // This corpus is one connected cluster (sally claims both
        // assertions), so the sharded tier must reproduce the
        // single-worker answers exactly — at any shard count.
        let (single, _) = ServeSession::start(&corpus(), &ServeOptions::default()).unwrap();
        for shards in [1usize, 2, 4] {
            let opts = ServeOptions {
                shards,
                ..ServeOptions::default()
            };
            let (session, summary) = ServeSession::start(&corpus(), &opts).unwrap();
            assert_eq!(summary.claims, 5);
            assert_eq!(
                single.answer("posterior 0").unwrap(),
                session.answer("posterior 0").unwrap(),
                "shards={shards}"
            );
            assert_eq!(
                single.answer("posterior 1").unwrap(),
                session.answer("posterior 1").unwrap()
            );
            assert_eq!(
                single.answer("bound").unwrap(),
                session.answer("bound").unwrap()
            );
            assert_eq!(
                single.answer("top-sources 4").unwrap(),
                session.answer("top-sources 4").unwrap()
            );
            let topo = session.answer("topology").unwrap();
            assert!(topo.contains(&format!("{shards} shards")), "{topo}");
            assert!(topo.contains("1 clusters"), "{topo}");
            session.finish().unwrap();
        }
        let err = single.answer("topology").unwrap_err();
        assert!(err.contains("--shards"), "{err}");
        single.finish().unwrap();
    }

    #[test]
    fn durable_session_recovers_without_replaying_the_corpus() {
        let dir = std::env::temp_dir().join(format!("apollo-serve-durable-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = ServeOptions {
            data_dir: Some(dir.clone()),
            ..ServeOptions::default()
        };
        let (a, summary) = ServeSession::start(&corpus(), &opts).unwrap();
        assert_eq!(summary.claims, 5);
        let want_posterior = a.answer("posterior 0").unwrap();
        let want_bound = a.answer("bound").unwrap();
        a.finish().unwrap();

        let (b, summary) = ServeSession::start(&corpus(), &opts).unwrap();
        assert_eq!(summary.claims, 0, "recovered state is not re-replayed");
        assert_eq!(b.answer("posterior 0").unwrap(), want_posterior);
        assert_eq!(b.answer("bound").unwrap(), want_bound);
        let stats = b.finish().unwrap();
        assert_eq!(stats.total_claims, 5);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn answers_are_stable_across_sessions() {
        let opts = ServeOptions::default();
        let (a, _) = ServeSession::start(&corpus(), &opts).unwrap();
        let (b, _) = ServeSession::start(&corpus(), &opts).unwrap();
        assert_eq!(
            a.answer("posterior 0").unwrap(),
            b.answer("posterior 0").unwrap()
        );
        assert_eq!(a.answer("bound").unwrap(), b.answer("bound").unwrap());
    }
}
