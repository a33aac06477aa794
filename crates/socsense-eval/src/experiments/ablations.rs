//! Accuracy-side ablations for the design choices DESIGN.md documents.
//!
//! These measure what each choice *buys* in accuracy; what decision
//! pruning in the exact bound buys in work is pinned by the node-count
//! tests in `socsense_core::bound::exact`:
//!
//! * **M-step shrinkage** — synthetic accuracy across pseudo-counts;
//! * **Initialisation** — the neutral-vs-dep-biased basin question on
//!   both substrates (the evidence behind DESIGN.md §4's discussion);
//! * **Gibbs estimator variant** — the literal Eq. 6 ratio vs the
//!   consistent self-normalised estimator, as error against the exact
//!   bound;
//! * **EM-Social drop mode** — excluding dependent cells vs deleting
//!   dependent claims as silence.

use socsense_baselines::{DropMode, EmExtFinder, EmSocial, FactFinder};
use socsense_core::{
    bound_for_assertions, BoundMethod, EmConfig, GibbsConfig, GibbsEstimator, InitStrategy,
};
use socsense_synth::{empirical_theta, GeneratorConfig, SyntheticDataset};
use socsense_twitter::{ScenarioConfig, TwitterDataset};

use crate::experiments::{strided_assertions, Budget};
use crate::figure::FigureResult;
use crate::metrics::{Confusion, MeanStd};
use crate::runner::run_repeated;

/// Synthetic classification accuracy of EM-Ext across shrinkage
/// pseudo-counts (0 = the paper's exact M-step).
pub fn smoothing_ablation(budget: &Budget) -> FigureResult {
    let pseudo_counts = [0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 50.0];
    let cfg = GeneratorConfig::estimator_defaults();
    let mut fig = FigureResult::new(
        "ablation-smoothing",
        "EM-Ext accuracy vs M-step shrinkage pseudo-count (synthetic defaults)",
        "pseudo-count",
        pseudo_counts.to_vec(),
    );
    let mut ys = Vec::new();
    for (pi, &s) in pseudo_counts.iter().enumerate() {
        let accs = run_repeated(
            budget.estimator_reps,
            budget.seed_for("abl-smooth", pi),
            |seed| {
                let ds = SyntheticDataset::generate(&cfg, seed).expect("validates");
                let finder = EmExtFinder::new(EmConfig {
                    smoothing: s,
                    init: InitStrategy::DepBiased,
                    ..EmConfig::default()
                });
                let labels = finder.classify(&ds.data).expect("fits");
                Confusion::from_labels(&labels, &ds.truth).accuracy()
            },
        );
        let mut m = MeanStd::new();
        m.extend(accs);
        ys.push(m.mean());
    }
    fig.push_series("EM-Ext accuracy", ys);
    fig
}

/// Initialisation-basin comparison on both substrates: mean EM-Ext
/// quality per `InitStrategy` (accuracy on synthetic, top-10 precision on
/// a Twitter scenario).
pub fn init_ablation(budget: &Budget) -> FigureResult {
    let strategies = [
        ("Auto", InitStrategy::Auto),
        ("ClaimRateBiased", InitStrategy::ClaimRateBiased),
        ("DepBiased", InitStrategy::DepBiased),
    ];
    let mut fig = FigureResult::new(
        "ablation-init",
        "EM-Ext quality per initialisation strategy",
        "strategy",
        (1..=strategies.len()).map(|i| i as f64).collect(),
    );
    fig.set_xticks(strategies.iter().map(|(n, _)| n.to_string()).collect());

    let synth_cfg = GeneratorConfig::estimator_defaults();
    let mut synth_y = Vec::new();
    let mut twitter_y = Vec::new();
    for (pi, &(_, init)) in strategies.iter().enumerate() {
        let em_cfg = EmConfig {
            init,
            ..EmConfig::default()
        };
        let accs = run_repeated(
            budget.estimator_reps,
            budget.seed_for("abl-init-synth", pi),
            |seed| {
                let ds = SyntheticDataset::generate(&synth_cfg, seed).expect("validates");
                let labels = EmExtFinder::new(em_cfg).classify(&ds.data).expect("fits");
                Confusion::from_labels(&labels, &ds.truth).accuracy()
            },
        );
        let mut m = MeanStd::new();
        m.extend(accs);
        synth_y.push(m.mean());

        let scenario = ScenarioConfig::ukraine().scaled(budget.twitter_scale);
        let tops = run_repeated(4, budget.seed_for("abl-init-tw", pi), |seed| {
            let ds = TwitterDataset::simulate(&scenario, seed).expect("validates");
            let data = ds.claim_data();
            let finder = EmExtFinder::new(em_cfg);
            let top = finder.top_k(&data, 10).expect("ranks");
            let hits = top
                .iter()
                .filter(|&&j| ds.truth_value(j) == socsense_twitter::TruthValue::True)
                .count();
            hits as f64 / top.len().max(1) as f64
        });
        let mut m = MeanStd::new();
        m.extend(tops);
        twitter_y.push(m.mean());
    }
    fig.push_series("synthetic accuracy", synth_y);
    fig.push_series("twitter top-10 precision", twitter_y);
    fig
}

/// Bias of the Gibbs estimator variants against the exact bound, as mean
/// absolute error over synthetic datasets.
pub fn gibbs_estimator_ablation(budget: &Budget) -> FigureResult {
    let cfg = GeneratorConfig::paper_defaults(); // n = 20: exact is cheap
    let variants = [
        ("SelfNormalized", GibbsEstimator::SelfNormalized),
        ("PaperRatio", GibbsEstimator::PaperRatio),
    ];
    let mut fig = FigureResult::new(
        "ablation-gibbs",
        "mean |approx - exact| bound error per Gibbs estimator variant",
        "variant",
        (1..=variants.len()).map(|i| i as f64).collect(),
    );
    fig.set_xticks(variants.iter().map(|(n, _)| n.to_string()).collect());
    let mut ys = Vec::new();
    for (pi, &(_, estimator)) in variants.iter().enumerate() {
        let budget = *budget;
        let cfg = cfg.clone();
        let errs = run_repeated(
            budget.bound_reps,
            budget.seed_for("abl-gibbs", pi),
            move |seed| {
                let ds = SyntheticDataset::generate(&cfg, seed).expect("validates");
                let theta = empirical_theta(&ds);
                let cols = strided_assertions(ds.assertion_count(), budget.bound_assertions);
                let exact = bound_for_assertions(&ds.data, &theta, &BoundMethod::Exact, &cols)
                    .expect("n = 20 in range");
                let gibbs_cfg = GibbsConfig {
                    estimator,
                    seed: seed ^ 0xabcd,
                    ..budget.gibbs
                };
                let approx =
                    bound_for_assertions(&ds.data, &theta, &BoundMethod::Gibbs(gibbs_cfg), &cols)
                        .expect("gibbs runs");
                (approx.error - exact.error).abs()
            },
        );
        let mut m = MeanStd::new();
        m.extend(errs);
        ys.push(m.mean());
    }
    fig.push_series("mean abs deviation", ys);
    fig
}

/// EM-Social's two readings of "discard dependent claims": exclude the
/// cells from the likelihood vs delete the claims (count them as
/// silence).
pub fn drop_mode_ablation(budget: &Budget) -> FigureResult {
    let cfg = GeneratorConfig::estimator_defaults();
    let modes = [
        ("ExcludeCells", DropMode::ExcludeCells),
        ("AsSilence", DropMode::AsSilence),
    ];
    let mut fig = FigureResult::new(
        "ablation-dropmode",
        "EM-Social accuracy per dependent-claim drop mode (synthetic defaults)",
        "mode",
        (1..=modes.len()).map(|i| i as f64).collect(),
    );
    fig.set_xticks(modes.iter().map(|(n, _)| n.to_string()).collect());
    let mut ys = Vec::new();
    for (pi, &(_, mode)) in modes.iter().enumerate() {
        let accs = run_repeated(
            budget.estimator_reps,
            budget.seed_for("abl-drop", pi),
            |seed| {
                let ds = SyntheticDataset::generate(&cfg, seed).expect("validates");
                let finder = EmSocial::new(EmConfig::default(), mode);
                let labels = finder.classify(&ds.data).expect("fits");
                Confusion::from_labels(&labels, &ds.truth).accuracy()
            },
        );
        let mut m = MeanStd::new();
        m.extend(accs);
        ys.push(m.mean());
    }
    fig.push_series("EM-Social accuracy", ys);
    fig
}

/// Runs all four accuracy ablations.
pub fn run_all(budget: &Budget) -> Vec<FigureResult> {
    vec![
        smoothing_ablation(budget),
        init_ablation(budget),
        gibbs_estimator_ablation(budget),
        drop_mode_ablation(budget),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Budget {
        let mut b = Budget::fast();
        b.estimator_reps = 4;
        b.bound_reps = 3;
        b.bound_assertions = 6;
        b.twitter_scale = 0.02;
        b.gibbs.min_samples = 150;
        b.gibbs.max_samples = 300;
        b
    }

    #[test]
    fn all_ablations_produce_well_formed_figures() {
        for fig in run_all(&tiny()) {
            assert!(!fig.series.is_empty(), "{}", fig.id);
            for s in &fig.series {
                assert_eq!(s.y.len(), fig.x.len());
                assert!(
                    s.y.iter().all(|v| v.is_finite() && *v >= 0.0),
                    "{}/{}: {:?}",
                    fig.id,
                    s.label,
                    s.y
                );
            }
        }
    }

    #[test]
    fn gibbs_deviation_is_small_for_both_variants() {
        let fig = gibbs_estimator_ablation(&tiny());
        let y = &fig.series("mean abs deviation").unwrap().y;
        // Both estimators stay within a few points of exact on average;
        // the consistent one should not be worse than the literal ratio.
        for &v in y {
            assert!(v < 0.08, "deviation {v}");
        }
    }
}
