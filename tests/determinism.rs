//! Every stochastic component must be exactly reproducible per seed:
//! generators, simulators, samplers, estimators, and the experiment
//! harness. Reproducibility is what makes EXPERIMENTS.md auditable.

use socsense::baselines::all_finders;
use socsense::core::{gibbs_bound, GibbsConfig};
use socsense::eval::run_repeated;
use socsense::synth::{GeneratorConfig, SyntheticDataset};
use socsense::twitter::{ScenarioConfig, TwitterDataset};

#[test]
fn synthetic_generation_is_bit_identical_per_seed() {
    let cfg = GeneratorConfig::paper_defaults();
    let a = SyntheticDataset::generate(&cfg, 99).unwrap();
    let b = SyntheticDataset::generate(&cfg, 99).unwrap();
    assert_eq!(a.claims, b.claims);
    assert_eq!(a.truth, b.truth);
    assert_eq!(a.data, b.data);
    assert_eq!(a.profiles, b.profiles);
}

#[test]
fn twitter_simulation_is_bit_identical_per_seed() {
    let cfg = ScenarioConfig::superbug().scaled(0.02);
    let a = TwitterDataset::simulate(&cfg, 7).unwrap();
    let b = TwitterDataset::simulate(&cfg, 7).unwrap();
    assert_eq!(a.tweets, b.tweets);
    assert_eq!(a.truth, b.truth);
    assert_eq!(a.graph, b.graph);
}

#[test]
fn all_fact_finders_are_deterministic() {
    let ds = SyntheticDataset::generate(&GeneratorConfig::paper_defaults(), 3).unwrap();
    for finder in all_finders() {
        let s1 = finder.scores(&ds.data).unwrap();
        let s2 = finder.scores(&ds.data).unwrap();
        assert_eq!(s1, s2, "{} is nondeterministic", finder.name());
        let r1 = finder.ranking_scores(&ds.data).unwrap();
        let r2 = finder.ranking_scores(&ds.data).unwrap();
        assert_eq!(r1, r2, "{} ranking is nondeterministic", finder.name());
    }
}

#[test]
fn gibbs_chain_is_seed_stable_and_seed_sensitive() {
    let probs: Vec<(f64, f64)> = (0..40)
        .map(|i| (0.3 + 0.01 * (i % 20) as f64, 0.25 + 0.005 * (i % 10) as f64))
        .collect();
    let cfg = GibbsConfig {
        seed: 21,
        ..GibbsConfig::default()
    };
    let a = gibbs_bound(&probs, 0.5, &cfg).unwrap();
    let b = gibbs_bound(&probs, 0.5, &cfg).unwrap();
    assert_eq!(a.result, b.result);
    let other = gibbs_bound(
        &probs,
        0.5,
        &GibbsConfig {
            seed: 22,
            ..GibbsConfig::default()
        },
    )
    .unwrap();
    assert_ne!(a.result, other.result, "different seeds should differ");
}

#[test]
fn parallel_runner_matches_sequential_semantics() {
    // The runner hands seed base + r to repetition r regardless of thread
    // interleaving, so a pure function of the seed gives identical output.
    let f = |seed: u64| {
        let ds = SyntheticDataset::generate(&GeneratorConfig::paper_defaults(), seed).unwrap();
        ds.claims.len()
    };
    let par = run_repeated(6, 40, f);
    let seq: Vec<usize> = (0..6).map(|r| f(40 + r as u64)).collect();
    assert_eq!(par, seq);
}
