//! `crawl-batch`: the paper's Table III / Fig. 11 path at its largest
//! crawl. One caller runs whole passes back to back: tweet JSONL held
//! in memory → parse → assemble → `Apollo::run_corpus` with EM-Ext →
//! top-100, at default parallelism.

use std::time::Instant;

use socsense_apollo::{
    assemble_corpus, parse_tweets_jsonl_traced, Apollo, ApolloConfig, CorpusOutput, IngestConfig,
};
use socsense_baselines::EmExtFinder;
use socsense_core::EmConfig;
use socsense_matrix::Parallelism;
use socsense_obs::Obs;
use socsense_twitter::ScenarioConfig;

use crate::inputs::crawl_jsonl;
use crate::measure::{median, secs, tracer, Window};
use crate::{Outcome, Scale};

/// Sizes of one run.
#[derive(PartialEq)]
pub struct Size {
    /// Fraction of the Paris Attack preset.
    scale: f64,
    /// Timed passes at default parallelism.
    passes: usize,
}

impl Size {
    pub fn new(scale: Scale, seconds: u64) -> Self {
        match scale {
            // A pass takes about 1.8 s on two vCPUs.
            Scale::Full => Self {
                scale: 1.0,
                passes: (seconds as usize / 2).max(5),
            },
            Scale::Smoke => Self {
                scale: 0.01,
                passes: 3,
            },
        }
    }
}

/// The generated crawl.
#[derive(PartialEq)]
pub struct Input {
    jsonl: String,
    tweets: usize,
}

pub fn setup(size: &Size, seed: u64) -> Input {
    let jsonl = crawl_jsonl(&ScenarioConfig::paris_attack(), size.scale, seed);
    let tweets = jsonl.lines().count();
    Input { jsonl, tweets }
}

/// Top-100 ids and score bits: what every pass must reproduce.
fn fingerprint(out: &CorpusOutput) -> Vec<(u32, u64)> {
    out.ranked
        .iter()
        .map(|r| (r.assertion, r.score.to_bits()))
        .collect()
}

/// Busy seconds of the calls a pass makes, summed over passes.
#[derive(Default)]
struct PassTimes {
    parse: f64,
    assemble: f64,
}

/// One pass at `par` in every stage, reporting to `obs` and timing parse
/// and assembly into `times` (the pipeline times itself through `obs`).
fn pass(
    input: &Input,
    par: Parallelism,
    obs: &Obs,
    times: &mut PassTimes,
) -> Result<CorpusOutput, String> {
    let t = Instant::now();
    let tweets = parse_tweets_jsonl_traced(&input.jsonl, &IngestConfig { parallelism: par }, obs)
        .map_err(|e| e.to_string())?;
    times.parse += secs(t);
    let t = Instant::now();
    let corpus = assemble_corpus(tweets, &[]).map_err(|e| e.to_string())?;
    times.assemble += secs(t);
    let apollo = Apollo::new(ApolloConfig {
        parallelism: par,
        ..ApolloConfig::default()
    })
    .with_obs(obs.clone());
    let finder = EmExtFinder::new(EmConfig {
        parallelism: par,
        ..EmConfig::default()
    })
    .with_obs(obs.clone());
    apollo
        .run_corpus(&corpus, &finder)
        .map_err(|e| e.to_string())
}

pub fn measure(size: &Size, input: &Input, traced: bool) -> Outcome {
    let (obs, rec) = tracer(traced);
    let mut times = PassTimes::default();
    let mut out = Outcome::default();
    let mut pass_s = Vec::with_capacity(size.passes);
    let mut prints = Vec::with_capacity(size.passes);
    for _ in 0..size.passes {
        out.attempted += 1;
        let t = Instant::now();
        match pass(input, Parallelism::Auto, &obs, &mut times) {
            Ok(ranked) => {
                pass_s.push(secs(t));
                prints.push(fingerprint(&ranked));
            }
            Err(e) => {
                out.failed += 1;
                out.notes.push(format!("pass failed: {e}"));
            }
        }
    }
    let phase = rec.snapshot();

    // The single-threaded reference pass: every timed pass must match it
    // bit for bit (thread count never changes an answer).
    out.attempted += 1;
    let t = Instant::now();
    let serial = pass(
        input,
        Parallelism::Serial,
        &Obs::none(),
        &mut PassTimes::default(),
    );
    let serial_pass_s = secs(t);
    match serial {
        Ok(reference) => {
            let reference = fingerprint(&reference);
            out.checks += 1;
            out.correct = !reference.is_empty()
                && prints.len() == size.passes
                && prints.iter().all(|p| *p == reference);
        }
        Err(e) => {
            out.failed += 1;
            out.notes.push(format!("serial pass failed: {e}"));
        }
    }
    if pass_s.is_empty() {
        return out;
    }

    out.p50_s = median(&pass_s);
    out.throughput_per_s = input.tweets as f64 / out.p50_s;
    // Apollo keeps no durable state: a restart answers its first query
    // only after a whole pass.
    out.recovery_s = out.p50_s;
    out.notes.push(format!(
        "{} tweets: makespan_s {:.3} s (median of {} passes); serial pass {serial_pass_s:.3} s",
        input.tweets,
        out.p50_s,
        pass_s.len(),
    ));
    if traced {
        let empty = Default::default();
        let w = Window::new(&empty, &phase);
        let run = w.sum("pipeline.run.seconds");
        let cluster = w.sum("ingest.cluster.seconds");
        let estimate = w.sum("pipeline.estimate.seconds");
        let e2e: f64 = pass_s.iter().sum();
        let layers = &mut out.layers;
        layers.insert("apollo.ingest.parse.busy_s", times.parse);
        layers.insert("apollo.ingest.assemble.busy_s", times.assemble);
        layers.insert("apollo.cluster.busy_s", cluster);
        layers.insert(
            "apollo.cluster.candidate_pairs",
            w.count("ingest.cluster.candidate_pairs_total"),
        );
        layers.insert(
            "apollo.cluster.jaccard_comparisons",
            w.count("ingest.cluster.jaccard_comparisons_total"),
        );
        layers.insert("apollo.pipeline.other_s", run - cluster - estimate);
        layers.insert("core.em.busy_s", estimate);
        layers.insert("core.em.runs", w.count("em.runs_total"));
        layers.insert("core.em.iterations", w.count("em.iterations_total"));
        layers.insert("crawl-batch.serial_pass_s", serial_pass_s);
        layers.insert("ledger.e2e_s", e2e);
        layers.insert(
            "ledger.unattributed_s",
            e2e - times.parse - times.assemble - run,
        );
    }
    out
}
