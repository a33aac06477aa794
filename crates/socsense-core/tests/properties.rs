//! Property-based tests for the core model, estimator, and bounds.

use proptest::collection::vec;
use proptest::prelude::*;
use socsense_core::{
    assertion_posteriors, assertion_posteriors_with, bound_for_assertions_traced, bound_for_data,
    data_log_likelihood_with, exact_bound, gibbs_bound, BoundMethod, ClaimData, EmConfig, EmExt,
    GibbsConfig, Obs, Parallelism, SourceParams, Theta,
};
use socsense_matrix::SparseBinaryMatrix;

/// The levels every deterministic-parallelism property compares against
/// [`Parallelism::Serial`].
const LEVELS: [Parallelism; 3] = [
    Parallelism::Threads(1),
    Parallelism::Threads(2),
    Parallelism::Threads(4),
];

/// Random (SC, D) pair plus a random θ of matching size.
fn random_problem() -> impl Strategy<Value = (ClaimData, Theta)> {
    (2u32..10, 2u32..12).prop_flat_map(|(n, m)| {
        let sc_entries = vec((0..n, 0..m), 1..40);
        let d_entries = vec((0..n, 0..m), 0..30);
        let params = vec(
            (0.05f64..0.95, 0.05f64..0.95, 0.05f64..0.95, 0.05f64..0.95),
            n as usize,
        );
        let z = 0.1f64..0.9;
        (Just(n), Just(m), sc_entries, d_entries, params, z).prop_map(
            |(n, m, sc_e, d_e, params, z)| {
                let sc = SparseBinaryMatrix::from_entries(n, m, sc_e);
                let d = SparseBinaryMatrix::from_entries(n, m, d_e);
                let theta = Theta::new(
                    params
                        .into_iter()
                        .map(|(a, b, f, g)| SourceParams::new(a, b, f, g).expect("in range"))
                        .collect(),
                    z,
                )
                .expect("valid theta");
                (ClaimData::new(sc, d).expect("shapes match"), theta)
            },
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Posteriors are probabilities and the data log-likelihood is finite
    /// for arbitrary (SC, D, θ).
    #[test]
    fn posteriors_are_well_formed((data, theta) in random_problem()) {
        let post = assertion_posteriors(&data, &theta).unwrap();
        prop_assert_eq!(post.len(), data.assertion_count());
        for &p in &post {
            prop_assert!((0.0..=1.0).contains(&p), "posterior {p}");
        }
        let ll = data_log_likelihood_with(&data, &theta, Parallelism::Auto).unwrap();
        prop_assert!(ll.is_finite() && ll <= 0.0);
    }

    /// The exact bound is a Bayes risk: within [0, min(z, 1-z)], and its
    /// FP/FN parts add up.
    #[test]
    fn exact_bound_is_a_bayes_risk(
        probs in vec((0.02f64..0.98, 0.02f64..0.98), 1..12),
        z in 0.05f64..0.95,
    ) {
        let b = exact_bound(&probs, z).unwrap();
        prop_assert!(b.error >= -1e-12);
        prop_assert!(b.error <= z.min(1.0 - z) + 1e-9, "err {} prior {}", b.error, z.min(1.0 - z));
        prop_assert!((b.false_positive + b.false_negative - b.error).abs() < 1e-9);
    }

    /// Adding an informative source can only tighten (or keep) the bound —
    /// data processing inequality for the optimal detector.
    #[test]
    fn extra_source_never_loosens_bound(
        probs in vec((0.02f64..0.98, 0.02f64..0.98), 1..10),
        extra in (0.02f64..0.98, 0.02f64..0.98),
        z in 0.1f64..0.9,
    ) {
        let base = exact_bound(&probs, z).unwrap();
        let mut bigger = probs.clone();
        bigger.push(extra);
        let grown = exact_bound(&bigger, z).unwrap();
        prop_assert!(grown.error <= base.error + 1e-9,
            "bound grew from {} to {}", base.error, grown.error);
    }

    /// Gibbs stays within a loose band of exact on small instances.
    #[test]
    fn gibbs_is_near_exact(
        probs in vec((0.1f64..0.9, 0.1f64..0.9), 2..7),
        z in 0.2f64..0.8,
        seed in 0u64..1000,
    ) {
        let exact = exact_bound(&probs, z).unwrap();
        let cfg = GibbsConfig {
            min_samples: 1500,
            max_samples: 6000,
            seed,
            ..GibbsConfig::default()
        };
        let approx = gibbs_bound(&probs, z, &cfg).unwrap();
        prop_assert!(
            (approx.result.error - exact.error).abs() < 0.06,
            "gibbs {} vs exact {}",
            approx.result.error,
            exact.error
        );
    }

    /// EM always terminates with a valid θ, posteriors in range, and a
    /// non-decreasing likelihood trace.
    #[test]
    fn em_is_stable_on_arbitrary_data((data, theta) in random_problem()) {
        // smoothing = 0 is the paper's exact EM, for which the monotone
        // log-likelihood guarantee below holds; the warm fit from the
        // drawn θ checks that SQUAREM's safeguard keeps it.
        let em = EmExt::new(EmConfig { max_iters: 60, smoothing: 0.0, ..EmConfig::default() });
        for fit in [em.fit(&data).unwrap(), em.fit_warm(&data, theta).unwrap()] {
            prop_assert!((0.0..=1.0).contains(&fit.theta.z()));
            for s in fit.theta.sources() {
                prop_assert!((0.0..=1.0).contains(&s.a) && (0.0..=1.0).contains(&s.b));
                prop_assert!((0.0..=1.0).contains(&s.f) && (0.0..=1.0).contains(&s.g));
            }
            for &p in &fit.posterior {
                prop_assert!((0.0..=1.0).contains(&p));
            }
            for w in fit.ll_history.windows(2) {
                prop_assert!(w[1] >= w[0] - 1e-6, "LL decreased {} -> {}", w[0], w[1]);
            }
        }
    }

    /// The mean per-assertion bound is itself a probability-like quantity
    /// and respects the FP/FN identity.
    #[test]
    fn data_bound_is_well_formed((data, theta) in random_problem()) {
        let b = bound_for_data(&data, &theta, &BoundMethod::Exact).unwrap();
        prop_assert!((0.0..=0.5 + 1e-9).contains(&b.error));
        prop_assert!((b.false_positive + b.false_negative - b.error).abs() < 1e-9);
    }

    /// Posteriors and the data log-likelihood are bit-identical at every
    /// parallelism level (the determinism contract of
    /// `socsense_matrix::parallel`, observed through the likelihood API).
    #[test]
    fn posteriors_are_bit_identical_across_parallelism((data, theta) in random_problem()) {
        let serial = assertion_posteriors_with(&data, &theta, Parallelism::Serial).unwrap();
        let ll_serial = data_log_likelihood_with(&data, &theta, Parallelism::Serial).unwrap();
        for par in LEVELS {
            let threaded = assertion_posteriors_with(&data, &theta, par).unwrap();
            for (j, (&s, &t)) in serial.iter().zip(&threaded).enumerate() {
                prop_assert_eq!(s.to_bits(), t.to_bits(), "{:?} posterior j={}", par, j);
            }
            let ll = data_log_likelihood_with(&data, &theta, par).unwrap();
            prop_assert_eq!(ll_serial.to_bits(), ll.to_bits(), "{:?} log-likelihood", par);
        }
    }

    /// A full EM fit — θ, posteriors, and the likelihood trace — is
    /// bit-identical at every parallelism level, including the `Auto`
    /// sweep over two starts, whose keep-best tie-breaking must not
    /// depend on scheduling.
    #[test]
    fn em_fit_is_bit_identical_across_parallelism((data, _) in random_problem()) {
        let fit_at = |par| {
            EmExt::new(EmConfig {
                max_iters: 40,
                parallelism: par,
                ..EmConfig::default()
            })
            .fit(&data)
            .unwrap()
        };
        let serial = fit_at(Parallelism::Serial);
        for par in LEVELS {
            let threaded = fit_at(par);
            prop_assert_eq!(&serial.theta, &threaded.theta, "{:?} theta", par);
            for (j, (&s, &t)) in serial.posterior.iter().zip(&threaded.posterior).enumerate() {
                prop_assert_eq!(s.to_bits(), t.to_bits(), "{:?} posterior j={}", par, j);
            }
            for (k, (&s, &t)) in serial.ll_history.iter().zip(&threaded.ll_history).enumerate() {
                prop_assert_eq!(s.to_bits(), t.to_bits(), "{:?} ll[{}]", par, k);
            }
            prop_assert_eq!(serial.iterations, threaded.iterations);
        }
    }

    /// Gibbs-sampled bounds are bit-identical at every parallelism level:
    /// chains are seeded per assertion from `(seed, j)` alone, so the
    /// worker that happens to run a chain cannot change its draw.
    #[test]
    fn gibbs_bounds_are_bit_identical_across_parallelism(
        (data, theta) in random_problem(),
        seed in 0u64..1000,
    ) {
        let method = BoundMethod::Gibbs(GibbsConfig {
            min_samples: 100,
            max_samples: 400,
            seed,
            ..GibbsConfig::default()
        });
        let all: Vec<u32> = (0..data.assertion_count() as u32).collect();
        let at = |par| {
            bound_for_assertions_traced(&data, &theta, &method, &all, par, &Obs::none()).unwrap()
        };
        let serial = at(Parallelism::Serial);
        for par in LEVELS {
            let threaded = at(par);
            prop_assert_eq!(serial.error.to_bits(), threaded.error.to_bits(), "{:?}", par);
            prop_assert_eq!(
                serial.false_positive.to_bits(),
                threaded.false_positive.to_bits()
            );
            prop_assert_eq!(
                serial.false_negative.to_bits(),
                threaded.false_negative.to_bits()
            );
        }
    }
}
