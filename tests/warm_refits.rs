//! What SQUAREM buys the streaming estimator's warm refits, pinned as a
//! deterministic work count: a Table III-shaped stream replayed in
//! time-ordered batches must converge on every warm refit, in well under
//! the EM maps the plain loop needed.

use socsense::core::{EmConfig, StreamingEstimator};
use socsense::graph::TimedClaim;
use socsense::matrix::Parallelism;
use socsense::twitter::{ScenarioConfig, TwitterDataset};

/// The plain warm loop spends 832 maps on these 11 refits and the
/// accelerated one 409; the cap is 60% of the plain count.
const WARM_MAP_CAP: usize = 499;

#[test]
fn warm_refits_converge_in_a_fraction_of_the_plain_maps() {
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
    let claims: Vec<TimedClaim> = ds.timed_claims();
    let mut warm = Vec::new();
    for batch in claims.chunks(claims.len().div_ceil(12)) {
        est.ingest(batch).unwrap();
        let (fit, stats) = est.estimate_with_stats().unwrap();
        if stats.warm {
            assert!(fit.converged, "warm refit {} hit the cap", warm.len() + 1);
            warm.push(stats.iterations);
        }
    }
    assert_eq!(warm.len(), 11, "one cold refit, then warm ones");
    let maps: usize = warm.iter().sum();
    assert!(
        maps <= WARM_MAP_CAP,
        "warm refits spent {maps} maps ({warm:?}), above {WARM_MAP_CAP}"
    );
}
