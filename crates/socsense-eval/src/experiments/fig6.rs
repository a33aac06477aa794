//! Fig. 6 — bound computation time, exact vs Gibbs.
//!
//! The exact enumeration is exponential in `n` (pruning delays but does
//! not remove the blow-up); the Gibbs approximation stays flat. We time
//! the mean per-assertion bound on one generated dataset per `n` and
//! report milliseconds, next to the work behind them: nodes the pruned
//! exact walk visited and Gibbs samples drawn. The work counts are
//! integers, identical on every host and at every parallelism.

use std::time::Instant;

use socsense_core::{bound_for_assertions_traced, BoundMethod, Obs, Parallelism, Theta};
use socsense_synth::{empirical_theta, GeneratorConfig, SyntheticDataset};

use crate::experiments::{strided_assertions, Budget};
use crate::figure::FigureResult;

/// Largest `n` the exact timing column attempts (past ~25 a single point
/// dominates the whole harness runtime).
pub const EXACT_TIME_LIMIT: u32 = 25;

/// Runs the timing sweep over `n ∈ {5, 10, 15, 20, 25}`.
pub fn fig6(budget: &Budget) -> FigureResult {
    let xs: Vec<f64> = (1..=5).map(|k| (5 * k) as f64).collect();
    let mut fig = FigureResult::new(
        "fig6",
        "bound computation time (ms) and work, exact vs Gibbs",
        "n",
        xs.clone(),
    );
    let mut exact_ms = Vec::with_capacity(xs.len());
    let mut gibbs_ms = Vec::with_capacity(xs.len());
    let mut exact_nodes = Vec::with_capacity(xs.len());
    let mut gibbs_samples = Vec::with_capacity(xs.len());
    for (pi, &x) in xs.iter().enumerate() {
        let n = x as u32;
        let cfg = GeneratorConfig {
            n,
            ..GeneratorConfig::paper_defaults()
        };
        let ds = SyntheticDataset::generate(&cfg, budget.seed_for("fig6", pi))
            .expect("validated config");
        let theta = empirical_theta(&ds);
        let cols = strided_assertions(ds.assertion_count(), budget.bound_assertions);

        let (ms, nodes) = if n <= EXACT_TIME_LIMIT {
            let counter = "bound.exact.nodes_total";
            timed_work(&ds, &theta, &BoundMethod::Exact, &cols, counter)
        } else {
            (f64::NAN, f64::NAN)
        };
        exact_ms.push(ms);
        exact_nodes.push(nodes);

        let mut gibbs = budget.gibbs;
        gibbs.seed = budget.seed_for("fig6-gibbs", pi);
        let method = BoundMethod::Gibbs(gibbs);
        let (ms, samples) = timed_work(&ds, &theta, &method, &cols, "bound.gibbs.samples_total");
        gibbs_ms.push(ms);
        gibbs_samples.push(samples);
    }
    fig.push_series("exact (ms)", exact_ms);
    fig.push_series("gibbs (ms)", gibbs_ms);
    fig.push_series("exact (nodes)", exact_nodes);
    fig.push_series("gibbs (samples)", gibbs_samples);
    fig
}

/// One timed, traced bound evaluation: its milliseconds and the total
/// of the work `counter` it emitted.
fn timed_work(
    ds: &SyntheticDataset,
    theta: &Theta,
    method: &BoundMethod,
    cols: &[u32],
    counter: &str,
) -> (f64, f64) {
    let (obs, rec) = Obs::recorder();
    let t0 = Instant::now();
    bound_for_assertions_traced(&ds.data, theta, method, cols, Parallelism::Auto, &obs)
        .expect("bound in range");
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    (ms, rec.counter_value(counter) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_sweep_completes_with_positive_times() {
        let mut b = Budget::fast();
        b.bound_assertions = 4;
        b.gibbs.min_samples = 100;
        b.gibbs.max_samples = 200;
        let fig = fig6(&b);
        assert_eq!(fig.x.len(), 5);
        let exact = &fig.series("exact (ms)").unwrap().y;
        let gibbs = &fig.series("gibbs (ms)").unwrap().y;
        assert!(exact.iter().all(|t| t.is_nan() || *t >= 0.0));
        assert!(gibbs.iter().all(|t| *t >= 0.0));
        let nodes = &fig.series("exact (nodes)").unwrap().y;
        let samples = &fig.series("gibbs (samples)").unwrap().y;
        assert!(nodes.iter().all(|c| c.is_nan() || *c >= 1.0));
        assert!(samples.iter().all(|c| *c >= 1.0));
    }
}
