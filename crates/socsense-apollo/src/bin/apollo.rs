//! Apollo command-line tool: simulate a scenario, run a fact-finder,
//! print the ranked feed.
//!
//! ```text
//! # simulated scenario:
//! apollo [--scenario ukraine|kirkuk|superbug|la-marathon|paris-attack]
//!        [--scale F] [--seed N] [--algorithm em-ext|em-social|em|voting|sums|avg-log|truth-finder]
//!        [--top K] [--cluster-text] [--discover-deps] [--threads N] [--json PATH] [--metrics PATH]
//!
//! # external corpus (tweets as JSON Lines, optional follower CSV):
//! apollo --input tweets.jsonl [--follows follows.csv]
//!        [--algorithm NAME] [--top K] [--discover-deps] [--threads N] [--json PATH] [--metrics PATH]
//!
//! # live query service: replay a JSONL trace, answer queries on stdin
//! apollo serve --input tweets.jsonl [--follows follows.csv]
//!        [--batches N] [--threads N] [--delta] [--shards N]
//!        [--data-dir DIR] [--metrics PATH]
//! ```
//!
//! `--metrics PATH` attaches an in-memory metrics recorder to the whole
//! run (parsing, clustering, EM, bounds, serving) and dumps its snapshot
//! as JSON Lines on exit. Metrics are observation-only: every ranked
//! score and served posterior is bit-identical with or without the flag.
//!
//! `--threads N` pins the worker count for the whole run — JSONL
//! parsing, text clustering, and the estimator, including the serving
//! tier's EM refits and bounds (`0` = one per core, the default). The
//! ranking, the clustering, and even parse-error line numbers are
//! bit-identical at every setting; the flag only trades wall-clock
//! time.
//!
//! `--discover-deps` ignores any supplied follower graph and infers the
//! dependency matrix from the claim log itself (`socsense-discover` at
//! its default configuration) — the "unknown graph" deployment mode.

use std::io::BufRead;
use std::process::ExitCode;

use socsense_apollo::{render_report, Apollo, ApolloConfig, ServeOptions, ServeSession};
use socsense_baselines::{
    AverageLog, EmExtFinder, EmIndependent, EmSocial, FactFinder, Sums, TruthFinder, Voting,
};
use socsense_core::{EmConfig, Obs, Parallelism};
use socsense_twitter::{ScenarioConfig, TwitterDataset};

struct Args {
    scenario: String,
    scale: f64,
    seed: u64,
    algorithm: String,
    top: usize,
    cluster_text: bool,
    discover_deps: bool,
    threads: Parallelism,
    json: Option<String>,
    metrics: Option<String>,
    input: Option<String>,
    follows: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        scenario: "ukraine".into(),
        scale: 0.05,
        seed: 0,
        algorithm: "em-ext".into(),
        top: 25,
        cluster_text: false,
        discover_deps: false,
        threads: Parallelism::Auto,
        json: None,
        metrics: None,
        input: None,
        follows: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        match flag.as_str() {
            "--scenario" => args.scenario = value("--scenario")?,
            "--scale" => {
                args.scale = value("--scale")?
                    .parse()
                    .map_err(|e| format!("bad --scale: {e}"))?
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?
            }
            "--algorithm" => args.algorithm = value("--algorithm")?,
            "--top" => {
                args.top = value("--top")?
                    .parse()
                    .map_err(|e| format!("bad --top: {e}"))?
            }
            "--cluster-text" => args.cluster_text = true,
            "--discover-deps" => args.discover_deps = true,
            "--threads" => {
                let n: usize = value("--threads")?
                    .parse()
                    .map_err(|e| format!("bad --threads: {e}"))?;
                args.threads = if n == 0 {
                    Parallelism::Auto
                } else {
                    Parallelism::Threads(n)
                };
            }
            "--json" => args.json = Some(value("--json")?),
            "--metrics" => args.metrics = Some(value("--metrics")?),
            "--input" => args.input = Some(value("--input")?),
            "--follows" => args.follows = Some(value("--follows")?),
            "--help" | "-h" => {
                return Err("usage: apollo [--scenario NAME] [--scale F] [--seed N] \
                     [--algorithm NAME] [--top K] [--cluster-text] [--discover-deps] \
                     [--threads N] [--json PATH] [--metrics PATH] \
                     | apollo --input tweets.jsonl [--follows follows.csv] \
                     | apollo serve --input tweets.jsonl [--batches N]"
                    .into())
            }
            other => return Err(format!("unknown flag {other}; try --help")),
        }
    }
    Ok(args)
}

fn scenario(name: &str) -> Result<ScenarioConfig, String> {
    Ok(match name {
        "ukraine" => ScenarioConfig::ukraine(),
        "kirkuk" => ScenarioConfig::kirkuk(),
        "superbug" => ScenarioConfig::superbug(),
        "la-marathon" => ScenarioConfig::la_marathon(),
        "paris-attack" => ScenarioConfig::paris_attack(),
        other => return Err(format!("unknown scenario {other}")),
    })
}

fn finder(name: &str, par: Parallelism, obs: &Obs) -> Result<Box<dyn FactFinder>, String> {
    // The EM family takes the worker-count knob and the metrics handle;
    // the counting heuristics have no hot loop worth instrumenting.
    let em = EmConfig {
        parallelism: par,
        ..EmConfig::default()
    };
    Ok(match name {
        "em-ext" => Box::new(EmExtFinder::new(em).with_obs(obs.clone())),
        "em-social" => Box::new(
            EmSocial {
                config: em,
                ..EmSocial::default()
            }
            .with_obs(obs.clone()),
        ),
        "em" => Box::new(EmIndependent::new(em).with_obs(obs.clone())),
        "voting" => Box::new(Voting::default()),
        "sums" => Box::new(Sums::default()),
        "avg-log" => Box::new(AverageLog::default()),
        "truth-finder" => Box::new(TruthFinder::default()),
        other => return Err(format!("unknown algorithm {other}")),
    })
}

fn run_external(args: &Args, input: &str) -> Result<(), String> {
    let (obs, rec) = metrics_obs(args.metrics.as_deref());
    let algo = finder(&args.algorithm, args.threads, &obs)?;
    let raw = std::fs::read_to_string(input).map_err(|e| format!("reading {input}: {e}"))?;
    let ingest = socsense_apollo::IngestConfig {
        parallelism: args.threads,
    };
    let tweets = socsense_apollo::parse_tweets_jsonl_traced(&raw, &ingest, &obs)
        .map_err(|e| e.to_string())?;
    let follows = match &args.follows {
        Some(path) => {
            let raw = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
            socsense_apollo::parse_follows_csv(&raw).map_err(|e| e.to_string())?
        }
        None => Vec::new(),
    };
    let corpus = socsense_apollo::assemble_corpus(tweets, &follows).map_err(|e| e.to_string())?;
    eprintln!(
        "{}: {} tweets from {} users, {} follow edges",
        input,
        corpus.tweets.len(),
        corpus.source_count(),
        corpus.graph.edge_count()
    );
    let out = Apollo::new(ApolloConfig {
        top_k: args.top.max(1),
        parallelism: args.threads,
        discover: args
            .discover_deps
            .then(socsense_discover::DiscoverConfig::default),
        ..ApolloConfig::default()
    })
    .with_obs(obs)
    .run_corpus(&corpus, algo.as_ref())
    .map_err(|e| e.to_string())?;
    println!(
        "== Apollo report: {input} via {} ({} assertion clusters) ==",
        out.algorithm, out.assertion_count
    );
    println!("{:>5}  {:>10}  {:>7}  text", "rank", "score", "support");
    for (rank, r) in out.ranked.iter().enumerate() {
        println!(
            "{:>5}  {:>10.4}  {:>7}  {}",
            rank + 1,
            r.score,
            r.support,
            r.sample_text
        );
    }
    if let Some(path) = &args.json {
        let payload = serde_json::json!({
            "input": input,
            "algorithm": out.algorithm,
            "assertion_count": out.assertion_count,
            "ranked": out.ranked,
        });
        std::fs::write(
            path,
            serde_json::to_string_pretty(&payload).map_err(|e| e.to_string())?,
        )
        .map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    dump_metrics(args.metrics.as_deref(), rec.as_deref())?;
    Ok(())
}

/// A recorder-backed handle when `--metrics` was given, else disabled.
fn metrics_obs(path: Option<&str>) -> (Obs, Option<std::sync::Arc<socsense_obs::Recorder>>) {
    match path {
        Some(_) => {
            let (obs, rec) = Obs::recorder();
            (obs, Some(rec))
        }
        None => (Obs::none(), None),
    }
}

/// Writes the recorder snapshot as JSON Lines to the `--metrics` path.
fn dump_metrics(path: Option<&str>, rec: Option<&socsense_obs::Recorder>) -> Result<(), String> {
    let (Some(path), Some(rec)) = (path, rec) else {
        return Ok(());
    };
    let mut text = rec.snapshot().to_jsonl();
    if !text.is_empty() {
        text.push('\n');
    }
    std::fs::write(path, text).map_err(|e| format!("writing {path}: {e}"))?;
    eprintln!("wrote metrics to {path}");
    Ok(())
}

struct ServeArgs {
    input: String,
    follows: Option<String>,
    batches: usize,
    threads: Parallelism,
    metrics: Option<String>,
    delta: bool,
    shards: usize,
    data_dir: Option<String>,
}

fn parse_serve_args(it: impl Iterator<Item = String>) -> Result<ServeArgs, String> {
    let mut args = ServeArgs {
        input: String::new(),
        follows: None,
        batches: 6,
        threads: Parallelism::Auto,
        metrics: None,
        delta: false,
        shards: 0,
        data_dir: None,
    };
    let mut it = it;
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        match flag.as_str() {
            "--input" => args.input = value("--input")?,
            "--follows" => args.follows = Some(value("--follows")?),
            "--metrics" => args.metrics = Some(value("--metrics")?),
            "--batches" => {
                args.batches = value("--batches")?
                    .parse()
                    .map_err(|e| format!("bad --batches: {e}"))?
            }
            "--threads" => {
                let n: usize = value("--threads")?
                    .parse()
                    .map_err(|e| format!("bad --threads: {e}"))?;
                args.threads = if n == 0 {
                    Parallelism::Auto
                } else {
                    Parallelism::Threads(n)
                };
            }
            "--delta" => args.delta = true,
            "--data-dir" => args.data_dir = Some(value("--data-dir")?),
            "--shards" => {
                args.shards = value("--shards")?
                    .parse()
                    .map_err(|e| format!("bad --shards: {e}"))?;
                if args.shards == 0 {
                    return Err("bad --shards: need at least 1 shard (omit the flag for \
                                the single-worker service)"
                        .into());
                }
            }
            "--help" | "-h" => {
                return Err(
                    "usage: apollo serve --input tweets.jsonl [--follows follows.csv] \
                     [--batches N] [--threads N] [--delta] \
                     [--shards N] [--data-dir DIR] [--metrics PATH]"
                        .into(),
                )
            }
            other => return Err(format!("unknown serve flag {other}; try --help")),
        }
    }
    if args.input.is_empty() {
        return Err("apollo serve requires --input tweets.jsonl".into());
    }
    Ok(args)
}

/// `apollo serve`: replay a JSONL trace through a live query service and
/// answer `posterior` / `top-sources` / `bound` / `stats` queries from
/// stdin. Answers go to stdout; banners and the final stats to stderr.
fn run_serve(it: impl Iterator<Item = String>) -> Result<(), String> {
    let args = parse_serve_args(it)?;
    let raw =
        std::fs::read_to_string(&args.input).map_err(|e| format!("reading {}: {e}", args.input))?;
    let ingest = socsense_apollo::IngestConfig {
        parallelism: args.threads,
    };
    let tweets =
        socsense_apollo::parse_tweets_jsonl_with(&raw, &ingest).map_err(|e| e.to_string())?;
    let follows = match &args.follows {
        Some(path) => {
            let raw = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
            socsense_apollo::parse_follows_csv(&raw).map_err(|e| e.to_string())?
        }
        None => Vec::new(),
    };
    let corpus = socsense_apollo::assemble_corpus(tweets, &follows).map_err(|e| e.to_string())?;
    let opts = ServeOptions {
        batches: args.batches,
        parallelism: args.threads,
        refit_mode: if args.delta {
            socsense_core::RefitMode::Delta(socsense_core::DeltaConfig::default())
        } else {
            socsense_core::RefitMode::Full
        },
        shards: args.shards,
        data_dir: args.data_dir.as_ref().map(std::path::PathBuf::from),
        ..ServeOptions::default()
    };
    let (obs, rec) = metrics_obs(args.metrics.as_deref());
    let (session, summary) =
        ServeSession::start_with_obs(&corpus, &opts, obs).map_err(|e| e.to_string())?;
    let backend = match args.shards {
        0 => "single worker".to_string(),
        1 => "1 shard".to_string(),
        n => format!("{n} shards"),
    };
    eprintln!(
        "serving {}: {} sources, {} assertion clusters, {} claims replayed in {} batches \
         ({backend})",
        args.input, summary.sources, summary.assertions, summary.claims, summary.batches
    );
    eprintln!(
        "ready; commands: posterior <id> | top-sources <k> | bound [<id> ...] | stats | \
         metrics | topology | quit"
    );
    for line in std::io::stdin().lock().lines() {
        let line = line.map_err(|e| format!("reading stdin: {e}"))?;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if line == "quit" || line == "exit" {
            break;
        }
        match session.answer(line) {
            Ok(answer) => println!("{answer}"),
            Err(message) => println!("error: {message}"),
        }
    }
    let stats = session.finish().map_err(|e| e.to_string())?;
    eprintln!(
        "shutdown: {} requests served, {} chain refits ({} delta, {} fallback)",
        stats.requests_served, stats.chain_refits, stats.delta_refits, stats.fallback_refits
    );
    dump_metrics(args.metrics.as_deref(), rec.as_deref())?;
    Ok(())
}

fn run() -> Result<(), String> {
    let mut raw = std::env::args().skip(1).peekable();
    if raw.peek().map(String::as_str) == Some("serve") {
        raw.next();
        return run_serve(raw);
    }
    let args = parse_args()?;
    if let Some(input) = args.input.clone() {
        return run_external(&args, &input);
    }
    let cfg = scenario(&args.scenario)?.scaled(args.scale);
    let (obs, rec) = metrics_obs(args.metrics.as_deref());
    let algo = finder(&args.algorithm, args.threads, &obs)?;
    eprintln!(
        "simulating {} at scale {} (seed {}) ...",
        cfg.name, args.scale, args.seed
    );
    let dataset = TwitterDataset::simulate(&cfg, args.seed).map_err(|e| e.to_string())?;
    let summary = dataset.summary();
    eprintln!(
        "{}: {} sources, {} assertions, {} claims ({} original)",
        summary.name,
        summary.sources,
        summary.assertions,
        summary.total_claims,
        summary.original_claims
    );
    let out = Apollo::new(ApolloConfig {
        cluster_text: args.cluster_text,
        top_k: args.top.max(1),
        parallelism: args.threads,
        discover: args
            .discover_deps
            .then(socsense_discover::DiscoverConfig::default),
        ..ApolloConfig::default()
    })
    .with_obs(obs)
    .run(&dataset, algo.as_ref())
    .map_err(|e| e.to_string())?;
    print!("{}", render_report(&out, args.top));
    if let Some(path) = args.json {
        let payload = serde_json::json!({
            "dataset": out.dataset,
            "algorithm": out.algorithm,
            "assertion_count": out.assertion_count,
            "cluster_purity": out.cluster_purity,
            "ranked": out.ranked,
            "summary": summary,
        });
        std::fs::write(
            &path,
            serde_json::to_string_pretty(&payload).map_err(|e| e.to_string())?,
        )
        .map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    dump_metrics(args.metrics.as_deref(), rec.as_deref())?;
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
