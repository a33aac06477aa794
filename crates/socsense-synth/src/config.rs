//! Generator configuration: the parameter intervals of Sec. V-A.

use rand::Rng;
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;

/// A closed interval `[lo, hi]` sampled uniformly; `lo == hi` pins the
/// value (used by the figure sweeps that fix one knob).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Interval {
    /// Lower endpoint.
    pub lo: f64,
    /// Upper endpoint.
    pub hi: f64,
}

impl Interval {
    /// Creates `[lo, hi]`.
    ///
    /// # Errors
    ///
    /// Returns [`SynthError::BadInterval`] when `lo > hi` or either
    /// endpoint is not finite.
    pub fn new(lo: f64, hi: f64) -> Result<Self, SynthError> {
        if !lo.is_finite() || !hi.is_finite() || lo > hi {
            return Err(SynthError::BadInterval { lo, hi });
        }
        Ok(Self { lo, hi })
    }

    /// A degenerate interval pinning the value.
    pub fn fixed(v: f64) -> Self {
        Self { lo: v, hi: v }
    }

    /// Uniform sample from the interval.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        if self.lo == self.hi {
            self.lo
        } else {
            rng.gen_range(self.lo..=self.hi)
        }
    }

    /// Whether the whole interval lies within `[0, 1]`.
    pub fn is_probability(&self) -> bool {
        (0.0..=1.0).contains(&self.lo) && (0.0..=1.0).contains(&self.hi)
    }
}

/// An inclusive integer interval, used for the tree count `τ`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct IntInterval {
    /// Lower endpoint.
    pub lo: u32,
    /// Upper endpoint.
    pub hi: u32,
}

impl IntInterval {
    /// Creates `[lo, hi]`.
    ///
    /// # Errors
    ///
    /// Returns [`SynthError::BadIntInterval`] when `lo > hi`.
    pub fn new(lo: u32, hi: u32) -> Result<Self, SynthError> {
        if lo > hi {
            return Err(SynthError::BadIntInterval { lo, hi });
        }
        Ok(Self { lo, hi })
    }

    /// A degenerate interval pinning the value.
    pub fn fixed(v: u32) -> Self {
        Self { lo: v, hi: v }
    }

    /// Uniform sample from the interval.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u32 {
        if self.lo == self.hi {
            self.lo
        } else {
            rng.gen_range(self.lo..=self.hi)
        }
    }
}

/// Full generator configuration (defaults = the paper's Sec. V-A values).
///
/// Per run, `d` and `τ` are drawn once; the four behavioural
/// probabilities are drawn once **per source**.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GeneratorConfig {
    /// Number of sources `n`.
    pub n: u32,
    /// Number of assertions `m`.
    pub m: u32,
    /// Dependency-tree count `τ` (clamped to `[1, n]` after sampling).
    pub tau: IntInterval,
    /// Ratio of true assertions `d`.
    pub d: Interval,
    /// Participation probability `p_on` per source.
    pub p_on: Interval,
    /// Probability a leaf's claim opportunity goes to the dependent
    /// candidate set, `p_dep`.
    pub p_dep: Interval,
    /// Probability an independent claim is about a true assertion,
    /// `p_indepT`.
    pub p_indep_t: Interval,
    /// Probability a dependent claim is about a true assertion, `p_depT`.
    pub p_dep_t: Interval,
    /// Claim opportunities per source (the paper does not fix this; we
    /// default to `m`, i.e. one potential claim per assertion slot).
    pub opportunities: u32,
}

impl GeneratorConfig {
    /// The paper's default parameterisation for the bound simulations:
    /// `n = 20`, `m = 50`, `p_on ∈ [0.5, 0.7]`, `τ ∈ [8, 10]`,
    /// `p_dep ∈ [0.4, 0.6]`, `d ∈ [0.55, 0.75]`,
    /// `p_indepT ∈ [7/12, 3/4]`, `p_depT ∈ [0.4, 0.6]`.
    pub fn paper_defaults() -> Self {
        Self {
            n: 20,
            m: 50,
            tau: IntInterval { lo: 8, hi: 10 },
            d: Interval { lo: 0.55, hi: 0.75 },
            p_on: Interval { lo: 0.5, hi: 0.7 },
            p_dep: Interval { lo: 0.4, hi: 0.6 },
            p_indep_t: Interval {
                lo: 7.0 / 12.0,
                hi: 3.0 / 4.0,
            },
            p_dep_t: Interval { lo: 0.4, hi: 0.6 },
            opportunities: 50,
        }
    }

    /// The estimator-simulation defaults (Sec. V-B): as
    /// [`paper_defaults`](Self::paper_defaults) but `n = 50`.
    pub fn estimator_defaults() -> Self {
        Self {
            n: 50,
            ..Self::paper_defaults()
        }
    }

    /// Validates interval sanity and probability ranges.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint as a [`SynthError`].
    pub fn validate(&self) -> Result<(), SynthError> {
        if self.n == 0 || self.m == 0 {
            return Err(SynthError::EmptyShape {
                n: self.n,
                m: self.m,
            });
        }
        if self.opportunities == 0 {
            return Err(SynthError::NoOpportunities);
        }
        for (name, iv) in [
            ("d", &self.d),
            ("p_on", &self.p_on),
            ("p_dep", &self.p_dep),
            ("p_indep_t", &self.p_indep_t),
            ("p_dep_t", &self.p_dep_t),
        ] {
            if iv.lo > iv.hi || !iv.is_probability() {
                return Err(SynthError::BadProbabilityInterval {
                    name,
                    lo: iv.lo,
                    hi: iv.hi,
                });
            }
        }
        if self.tau.lo > self.tau.hi || self.tau.lo == 0 {
            return Err(SynthError::BadIntInterval {
                lo: self.tau.lo,
                hi: self.tau.hi,
            });
        }
        Ok(())
    }
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        Self::paper_defaults()
    }
}

/// Errors from configuring or running the synthetic generator.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SynthError {
    /// `lo > hi` or non-finite endpoints.
    BadInterval {
        /// Lower endpoint.
        lo: f64,
        /// Upper endpoint.
        hi: f64,
    },
    /// `lo > hi` (or zero lower bound for τ).
    BadIntInterval {
        /// Lower endpoint.
        lo: u32,
        /// Upper endpoint.
        hi: u32,
    },
    /// A probability interval escapes `[0, 1]`.
    BadProbabilityInterval {
        /// Parameter name.
        name: &'static str,
        /// Lower endpoint.
        lo: f64,
        /// Upper endpoint.
        hi: f64,
    },
    /// `n == 0` or `m == 0`.
    EmptyShape {
        /// Sources.
        n: u32,
        /// Assertions.
        m: u32,
    },
    /// `opportunities == 0` — no source could ever claim.
    NoOpportunities,
    /// A planted-copy-world constraint is violated.
    BadPlantedConfig {
        /// Which constraint was violated.
        what: &'static str,
    },
}

impl fmt::Display for SynthError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SynthError::BadInterval { lo, hi } => write!(f, "invalid interval [{lo}, {hi}]"),
            SynthError::BadIntInterval { lo, hi } => {
                write!(f, "invalid integer interval [{lo}, {hi}]")
            }
            SynthError::BadProbabilityInterval { name, lo, hi } => {
                write!(f, "{name} interval [{lo}, {hi}] is not within [0, 1]")
            }
            SynthError::EmptyShape { n, m } => {
                write!(
                    f,
                    "need at least one source and assertion, got n={n}, m={m}"
                )
            }
            SynthError::NoOpportunities => write!(f, "opportunities must be positive"),
            SynthError::BadPlantedConfig { what } => {
                write!(f, "bad planted-world config: {what}")
            }
        }
    }
}

impl Error for SynthError {}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn interval_sampling_stays_inside() {
        let iv = Interval::new(0.2, 0.4).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            let v = iv.sample(&mut rng);
            assert!((0.2..=0.4).contains(&v));
        }
        assert_eq!(Interval::fixed(0.3).sample(&mut rng), 0.3);
    }

    #[test]
    fn interval_rejects_inverted() {
        assert!(Interval::new(0.5, 0.4).is_err());
        assert!(Interval::new(f64::NAN, 0.4).is_err());
        assert!(IntInterval::new(5, 4).is_err());
    }

    #[test]
    fn paper_defaults_validate() {
        GeneratorConfig::paper_defaults().validate().unwrap();
        GeneratorConfig::estimator_defaults().validate().unwrap();
        assert_eq!(GeneratorConfig::estimator_defaults().n, 50);
    }

    #[test]
    fn validation_catches_bad_configs() {
        let mut c = GeneratorConfig::paper_defaults();
        c.n = 0;
        assert!(matches!(c.validate(), Err(SynthError::EmptyShape { .. })));

        let mut c = GeneratorConfig::paper_defaults();
        c.p_on = Interval { lo: 0.5, hi: 1.5 };
        assert!(matches!(
            c.validate(),
            Err(SynthError::BadProbabilityInterval { name: "p_on", .. })
        ));

        let mut c = GeneratorConfig::paper_defaults();
        c.tau = IntInterval { lo: 0, hi: 3 };
        assert!(c.validate().is_err());

        let mut c = GeneratorConfig::paper_defaults();
        c.opportunities = 0;
        assert!(matches!(c.validate(), Err(SynthError::NoOpportunities)));
    }
}
