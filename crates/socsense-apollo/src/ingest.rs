//! External-data ingestion: run the pipeline on a real tweet corpus.
//!
//! The paper's Apollo consumed crawled tweets and "used retweet behaviors
//! and other indicators to empirically construct a dependency network".
//! This module reproduces that input path so the tool works beyond the
//! simulator:
//!
//! * tweets arrive as JSON Lines — one object per line with `user`,
//!   `time`, `text`, and optionally `id` and `retweet_of` (the id of the
//!   reposted tweet);
//! * an optional `follower,followee` CSV supplies explicit follow edges;
//! * every observed retweet additionally induces a follow edge from the
//!   retweeter to the original author — the paper's retweet-derived
//!   dependency indicator.
//!
//! Usernames are interned to dense source ids (sorted, so ingestion is
//! deterministic regardless of input order).

use serde::Deserialize;
use std::error::Error;
use std::fmt;

use socsense_graph::FollowerGraph;
use socsense_matrix::{parallel, Parallelism};
use socsense_obs::Obs;

/// Configuration for the ingest stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IngestConfig {
    /// Worker threads for chunked JSONL parsing
    /// ([`parse_tweets_jsonl_with`]). Chunk boundaries are a pure
    /// function of the line count, chunk results merge in line order,
    /// and the first error in that order wins — so outputs *and* error
    /// line numbers are identical at every setting; only wall-clock
    /// time changes.
    pub parallelism: Parallelism,
}

/// One tweet as parsed from a JSONL line.
#[derive(Debug, Clone, PartialEq, Eq, Deserialize)]
pub struct RawTweet {
    /// Optional unique tweet id; required for tweets that others retweet.
    #[serde(default)]
    pub id: Option<u64>,
    /// Author handle.
    pub user: String,
    /// Timestamp (any monotone integer unit).
    pub time: u64,
    /// Tweet text.
    pub text: String,
    /// Id of the original tweet when this is a retweet.
    #[serde(default)]
    pub retweet_of: Option<u64>,
}

/// A corpus ready for [`crate::Apollo::run_corpus`].
#[derive(Debug, Clone)]
pub struct Corpus {
    /// Interned handles, index = source id.
    pub usernames: Vec<String>,
    /// `(source id, time, text)` per tweet, time-ordered.
    pub tweets: Vec<CorpusTweet>,
    /// Explicit follows plus retweet-derived edges.
    pub graph: FollowerGraph,
}

/// One ingested tweet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorpusTweet {
    /// Dense source id (index into [`Corpus::usernames`]).
    pub source: u32,
    /// Timestamp.
    pub time: u64,
    /// Text, as supplied.
    pub text: String,
}

impl Corpus {
    /// Number of interned sources.
    pub fn source_count(&self) -> u32 {
        self.usernames.len() as u32
    }

    /// Looks up a source id by handle.
    pub fn source_id(&self, user: &str) -> Option<u32> {
        self.usernames
            .binary_search_by(|u| u.as_str().cmp(user))
            .ok()
            .map(|i| i as u32)
    }
}

/// Errors from parsing or assembling external data.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum IngestError {
    /// A JSONL line failed to parse.
    BadJson {
        /// 1-based line number.
        line: usize,
        /// Parser message.
        message: String,
    },
    /// A CSV line did not have exactly two fields.
    BadCsv {
        /// 1-based line number.
        line: usize,
    },
    /// A `retweet_of` referenced an id no tweet carries.
    UnknownRetweetTarget {
        /// The dangling id.
        id: u64,
    },
    /// No tweets were supplied.
    Empty,
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestError::BadJson { line, message } => {
                write!(f, "line {line}: invalid tweet JSON: {message}")
            }
            IngestError::BadCsv { line } => {
                write!(f, "line {line}: expected `follower,followee`")
            }
            IngestError::UnknownRetweetTarget { id } => {
                write!(f, "retweet_of references unknown tweet id {id}")
            }
            IngestError::Empty => write!(f, "no tweets in input"),
        }
    }
}

impl Error for IngestError {}

/// Parses a JSON-Lines tweet dump. Blank lines are skipped.
///
/// Serial convenience wrapper around [`parse_tweets_jsonl_with`].
///
/// # Errors
///
/// Returns [`IngestError::BadJson`] with the offending line number.
pub fn parse_tweets_jsonl(input: &str) -> Result<Vec<RawTweet>, IngestError> {
    parse_tweets_jsonl_with(
        input,
        &IngestConfig {
            parallelism: Parallelism::Serial,
        },
    )
}

/// Parses a JSON-Lines tweet dump over `config.parallelism` workers.
/// Blank lines are skipped.
///
/// Lines are split into fixed chunks by line index; each chunk parses
/// independently and stops at its first bad line. Chunk results are
/// merged in line order and the first error in that order is returned,
/// so both the parsed output and the reported error (line number and
/// message) are byte-identical to the serial parser at every
/// parallelism level.
///
/// # Errors
///
/// Returns [`IngestError::BadJson`] with the offending 1-based line
/// number — the same line the serial parser would report.
pub fn parse_tweets_jsonl_with(
    input: &str,
    config: &IngestConfig,
) -> Result<Vec<RawTweet>, IngestError> {
    parse_tweets_jsonl_traced(input, config, &Obs::none())
}

/// [`parse_tweets_jsonl_with`] reporting `ingest.parse.*` metrics to
/// `obs`: wall time, line/tweet totals, and throughput. Observation-only
/// — output and error line numbers are identical to the untraced call.
///
/// # Errors
///
/// See [`parse_tweets_jsonl`].
pub fn parse_tweets_jsonl_traced(
    input: &str,
    config: &IngestConfig,
    obs: &Obs,
) -> Result<Vec<RawTweet>, IngestError> {
    let timer = obs.timer("ingest.parse.seconds");
    let lines: Vec<&str> = input.lines().collect();
    let chunks: Vec<Result<Vec<RawTweet>, IngestError>> =
        parallel::par_chunks(config.parallelism, lines.len(), |range| {
            let mut out = Vec::new();
            for idx in range {
                let line = lines[idx].trim();
                if line.is_empty() {
                    continue;
                }
                match serde_json::from_str::<RawTweet>(line) {
                    Ok(tweet) => out.push(tweet),
                    Err(e) => {
                        return Err(IngestError::BadJson {
                            line: idx + 1,
                            message: e.to_string(),
                        })
                    }
                }
            }
            Ok(out)
        });
    let mut out = Vec::new();
    for chunk in chunks {
        out.extend(chunk?);
    }
    if obs.enabled() {
        obs.counter("ingest.parse.lines_total", lines.len() as u64);
        obs.counter("ingest.parse.tweets_total", out.len() as u64);
        let secs = timer.stop();
        if secs > 0.0 {
            obs.gauge("ingest.parse.tweets_per_sec", out.len() as f64 / secs);
        }
    }
    Ok(out)
}

/// Parses a `follower,followee` CSV (no header). Blank lines are skipped;
/// whitespace around handles is trimmed.
///
/// # Errors
///
/// Returns [`IngestError::BadCsv`] with the offending line number.
pub fn parse_follows_csv(input: &str) -> Result<Vec<(String, String)>, IngestError> {
    let mut out = Vec::new();
    for (idx, line) in input.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split(',');
        match (parts.next(), parts.next(), parts.next()) {
            (Some(a), Some(b), None) if !a.trim().is_empty() && !b.trim().is_empty() => {
                out.push((a.trim().to_owned(), b.trim().to_owned()));
            }
            _ => return Err(IngestError::BadCsv { line: idx + 1 }),
        }
    }
    Ok(out)
}

/// Assembles a corpus: interns users, wires explicit follow edges, and
/// derives one follow edge per observed retweet (retweeter → original
/// author), the paper's retweet-based dependency indicator.
///
/// # Errors
///
/// * [`IngestError::Empty`] — no tweets.
/// * [`IngestError::UnknownRetweetTarget`] — a `retweet_of` id matches no
///   tweet with an `id`.
pub fn assemble_corpus(
    tweets: Vec<RawTweet>,
    follows: &[(String, String)],
) -> Result<Corpus, IngestError> {
    if tweets.is_empty() {
        return Err(IngestError::Empty);
    }
    // Deterministic interning: sorted unique handles from both inputs.
    // Every occurrence (each tweet's author, then both ends of each
    // follow) is sorted once, so numbering the distinct handles in that
    // order also gives each occurrence its id, with no lookup.
    let mut occurrences: Vec<(&str, usize)> = tweets
        .iter()
        .map(|t| t.user.as_str())
        .chain(follows.iter().flat_map(|(a, b)| [a.as_str(), b.as_str()]))
        .enumerate()
        .map(|(k, user)| (user, k))
        .collect();
    occurrences.sort_unstable();
    let mut usernames: Vec<String> = Vec::new();
    let mut id_of = vec![0u32; occurrences.len()];
    for &(user, k) in &occurrences {
        if usernames.last().map(String::as_str) != Some(user) {
            usernames.push(user.to_owned());
        }
        id_of[k] = usernames.len() as u32 - 1;
    }
    let (author, follow_ends) = id_of.split_at(tweets.len());

    let mut graph = FollowerGraph::new(usernames.len() as u32);
    for ends in follow_ends.chunks_exact(2) {
        if ends[0] != ends[1] {
            graph.add_follow(ends[0], ends[1]);
        }
    }
    // Retweet-derived edges. Tweet ids with their authors, sorted by id;
    // the sort is stable, so the last tweet with a repeated id is its
    // author.
    let mut author_of: Vec<(u64, u32)> = tweets
        .iter()
        .zip(author)
        .filter_map(|(t, &a)| t.id.map(|id| (id, a)))
        .collect();
    author_of.sort_by_key(|&(id, _)| id);
    for (t, &a) in tweets.iter().zip(author) {
        if let Some(orig) = t.retweet_of {
            let last = author_of.partition_point(|&(id, _)| id <= orig);
            let b = match last.checked_sub(1).map(|k| author_of[k]) {
                Some((id, b)) if id == orig => b,
                _ => return Err(IngestError::UnknownRetweetTarget { id: orig }),
            };
            if a != b {
                graph.add_follow(a, b);
            }
        }
    }

    let mut out: Vec<CorpusTweet> = tweets
        .into_iter()
        .zip(author)
        .map(|(t, &source)| CorpusTweet {
            source,
            time: t.time,
            text: t.text,
        })
        .collect();
    out.sort_by_key(|t| (t.time, t.source));
    Ok(Corpus {
        usernames,
        tweets: out,
        graph,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
        {"id": 1, "user": "sally", "time": 10, "text": "main street congested"}
        {"id": 2, "user": "heather", "time": 11, "text": "university ave congested"}
        {"id": 3, "user": "john", "time": 12, "text": "main street congested", "retweet_of": 1}
        {"user": "john", "time": 13, "text": "university ave congested"}
    "#;

    #[test]
    fn jsonl_parses_with_optional_fields() {
        let tweets = parse_tweets_jsonl(SAMPLE).unwrap();
        assert_eq!(tweets.len(), 4);
        assert_eq!(tweets[0].id, Some(1));
        assert_eq!(tweets[3].id, None);
        assert_eq!(tweets[2].retweet_of, Some(1));
    }

    #[test]
    fn jsonl_reports_bad_lines() {
        let err = parse_tweets_jsonl("{\"user\": \"x\"}\n").unwrap_err();
        assert!(matches!(err, IngestError::BadJson { line: 1, .. }));
        let err =
            parse_tweets_jsonl("{\"user\":\"x\",\"time\":1,\"text\":\"t\"}\nnot json").unwrap_err();
        assert!(matches!(err, IngestError::BadJson { line: 2, .. }));
    }

    #[test]
    fn csv_parses_and_validates() {
        let ok = parse_follows_csv("john, sally\n\nheather,sally\n").unwrap();
        assert_eq!(ok.len(), 2);
        assert_eq!(ok[0], ("john".into(), "sally".into()));
        assert!(matches!(
            parse_follows_csv("justonefield"),
            Err(IngestError::BadCsv { line: 1 })
        ));
        assert!(matches!(
            parse_follows_csv("a,b,c"),
            Err(IngestError::BadCsv { line: 1 })
        ));
    }

    #[test]
    fn corpus_interns_users_and_derives_retweet_edges() {
        let tweets = parse_tweets_jsonl(SAMPLE).unwrap();
        let corpus = assemble_corpus(tweets, &[("heather".into(), "sally".into())]).unwrap();
        assert_eq!(corpus.source_count(), 3);
        // Sorted interning: heather < john < sally.
        assert_eq!(corpus.usernames, vec!["heather", "john", "sally"]);
        let john = corpus.source_id("john").unwrap();
        let sally = corpus.source_id("sally").unwrap();
        let heather = corpus.source_id("heather").unwrap();
        // Explicit edge.
        assert!(corpus.graph.follows(heather, sally));
        // Retweet-derived edge: john retweeted sally's tweet 1.
        assert!(corpus.graph.follows(john, sally));
        // Tweets are time-ordered.
        for w in corpus.tweets.windows(2) {
            assert!(w[0].time <= w[1].time);
        }
    }

    #[test]
    fn a_repeated_tweet_id_resolves_to_its_last_tweet() {
        let jsonl = r#"
            {"id": 7, "user": "ann", "time": 1, "text": "a"}
            {"id": 7, "user": "bea", "time": 2, "text": "b"}
            {"id": 3, "user": "cat", "time": 3, "text": "c"}
            {"user": "dan", "time": 4, "text": "b", "retweet_of": 7}
        "#;
        let corpus = assemble_corpus(parse_tweets_jsonl(jsonl).unwrap(), &[]).unwrap();
        let id = |user| corpus.source_id(user).unwrap();
        assert!(corpus.graph.follows(id("dan"), id("bea")));
        assert!(!corpus.graph.follows(id("dan"), id("ann")));
    }

    #[test]
    fn dangling_retweet_is_an_error() {
        let tweets =
            parse_tweets_jsonl(r#"{"user":"a","time":1,"text":"x","retweet_of":99}"#).unwrap();
        assert!(matches!(
            assemble_corpus(tweets, &[]),
            Err(IngestError::UnknownRetweetTarget { id: 99 })
        ));
    }

    #[test]
    fn empty_corpus_is_an_error() {
        assert!(matches!(
            assemble_corpus(vec![], &[]),
            Err(IngestError::Empty)
        ));
    }

    /// Worker-count ladder used by the parallel-parsing tests.
    const LEVELS: [Parallelism; 4] = [
        Parallelism::Serial,
        Parallelism::Threads(1),
        Parallelism::Threads(2),
        Parallelism::Threads(4),
    ];

    #[test]
    fn parallel_parse_matches_serial_output() {
        // Enough lines for several of the fixed chunks.
        let jsonl: String = (0..500)
            .map(|i| {
                format!(
                    "{{\"id\":{i},\"user\":\"u{}\",\"time\":{i},\"text\":\"tweet {i}\"}}\n",
                    i % 17
                )
            })
            .collect();
        let serial = parse_tweets_jsonl(&jsonl).unwrap();
        assert_eq!(serial.len(), 500);
        for par in LEVELS {
            let got = parse_tweets_jsonl_with(&jsonl, &IngestConfig { parallelism: par }).unwrap();
            assert_eq!(serial, got, "{par:?}");
        }
    }

    #[test]
    fn parallel_parse_reports_serial_error_lines() {
        // Bad lines land in different fixed chunks (chunk size is
        // len/64, so for 500 lines chunks span 8 lines each); every
        // parallelism level must surface the earliest one, exactly as
        // the serial parser does.
        for &(bad_a, bad_b) in &[(3usize, 400usize), (120, 121), (0, 499), (499, 499)] {
            let jsonl: String = (0..500)
                .map(|i| {
                    if i == bad_a || i == bad_b {
                        "definitely not json\n".to_string()
                    } else {
                        format!("{{\"user\":\"u\",\"time\":{i},\"text\":\"t\"}}\n")
                    }
                })
                .collect();
            let serial_err = parse_tweets_jsonl(&jsonl).unwrap_err();
            assert!(
                matches!(serial_err, IngestError::BadJson { line, .. } if line == bad_a.min(bad_b) + 1)
            );
            for par in LEVELS {
                let err = parse_tweets_jsonl_with(&jsonl, &IngestConfig { parallelism: par })
                    .unwrap_err();
                assert_eq!(serial_err, err, "{par:?}");
            }
        }
    }

    #[test]
    fn ingestion_is_deterministic_under_reordering() {
        let mut tweets = parse_tweets_jsonl(SAMPLE).unwrap();
        let a = assemble_corpus(tweets.clone(), &[]).unwrap();
        tweets.reverse();
        let b = assemble_corpus(tweets, &[]).unwrap();
        assert_eq!(a.usernames, b.usernames);
        assert_eq!(a.tweets, b.tweets);
        assert_eq!(a.graph, b.graph);
    }
}
