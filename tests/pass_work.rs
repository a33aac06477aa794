//! What each EM-Ext pass skips, pinned as deterministic work counts on
//! the stream of `tests/warm_refits.rs`: a pass evaluates one column per
//! column class and a table build computes the terms of one source per
//! source class, the classes being those of the fit's claim layout
//! (sources and columns that EM cannot tell apart), and a build reuses
//! the previous class's logarithms when its rate has the same bits.
//! `em.source_evals_total` counts the source classes whose terms a build
//! computed.

use socsense::core::{EmConfig, Obs, StreamingEstimator};
use socsense::graph::TimedClaim;
use socsense::matrix::Parallelism;
use socsense::twitter::{ScenarioConfig, TwitterDataset};

/// The stream's 12 refits run 650 passes over 185 assertions: 120,250
/// column evaluations at one per column, 52,126 at one per group of
/// columns with equal slot lists, 48,406 at one per column class.
const COLUMN_EVAL_CAP: u64 = 49_000;
const COLUMN_EVALS_PER_GROUP: u64 = 52_126;

/// The 650 passes over 270 sources visit 175,500 sources; one build per
/// pass over the classes of sources with equal cells and equal rates
/// computes the terms of 87,046, and one over the source classes 83,557.
const SOURCE_EVAL_CAP: u64 = 84_500;
const SOURCE_EVALS_PER_EQUAL_ROWS: u64 = 87_046;

/// Without reuse or sharing the table builds take 1,144,882 logarithms,
/// every one the compact tables read; with reuse, 959,530; with sources
/// of equal cells and rates sharing their terms as well, 630,805; with
/// one row per source class, 610,602.
const LOG_CAP: u64 = 615_000;
const LOGS_PER_EQUAL_ROWS: u64 = 630_805;

// Each cap sits below the count of the rule before the classes.
const _: () = assert!(COLUMN_EVAL_CAP < COLUMN_EVALS_PER_GROUP);
const _: () = assert!(SOURCE_EVAL_CAP < SOURCE_EVALS_PER_EQUAL_ROWS);
const _: () = assert!(LOG_CAP < LOGS_PER_EQUAL_ROWS);

#[test]
fn passes_evaluate_each_distinct_column_and_rate_once() {
    let ds = TwitterDataset::simulate(&ScenarioConfig::ukraine().scaled(0.05), 2015).unwrap();
    let mut est = StreamingEstimator::new(
        ds.source_count(),
        ds.assertion_count(),
        ds.graph.clone(),
        EmConfig {
            parallelism: Parallelism::Serial,
            ..EmConfig::default()
        },
    )
    .unwrap();
    let (obs, rec) = Obs::recorder();
    est.set_obs(obs);
    let claims: Vec<TimedClaim> = ds.timed_claims();
    for batch in claims.chunks(claims.len().div_ceil(12)) {
        est.ingest(batch).unwrap();
        est.estimate_with_stats().unwrap();
    }
    let snap = rec.snapshot();
    let passes = snap.counter("em.passes_total");
    let evals = snap.counter("em.column_evals_total");
    let sources = snap.counter("em.source_evals_total");
    let logs = snap.counter("em.logs_total");
    let every_column = passes * ds.assertion_count() as u64;
    assert!(
        COLUMN_EVAL_CAP < every_column,
        "premise: the cap sits below one evaluation per column ({every_column})"
    );
    assert!(
        evals <= COLUMN_EVAL_CAP,
        "{evals} column evaluations over {passes} passes, above {COLUMN_EVAL_CAP}"
    );
    let every_source = passes * ds.source_count() as u64;
    assert!(
        SOURCE_EVAL_CAP < every_source,
        "premise: the cap sits below one evaluation per source ({every_source})"
    );
    assert!(
        sources <= SOURCE_EVAL_CAP,
        "{sources} source evaluations over {passes} passes, above {SOURCE_EVAL_CAP}"
    );
    assert!(
        logs <= LOG_CAP,
        "{logs} logarithms over {passes} passes, above {LOG_CAP}"
    );
}
