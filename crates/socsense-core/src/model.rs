//! The source behaviour model `θ` (Sec. II-B of the paper).

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::error::SenseError;

/// The four behavioural probabilities of one source (the paper's `θ_i`).
///
/// | field | paper | meaning |
/// |---|---|---|
/// | `a` | `a_i` | `P(S_iC_j = 1 \| C_j = 1, D_ij = 0)` — independent claim on a true assertion |
/// | `b` | `b_i` | `P(S_iC_j = 1 \| C_j = 0, D_ij = 0)` — independent claim on a false assertion |
/// | `f` | `f_i` | `P(S_iC_j = 1 \| C_j = 1, D_ij = 1)` — dependent claim on a true assertion |
/// | `g` | `g_i` | `P(S_iC_j = 1 \| C_j = 0, D_ij = 1)` — dependent claim on a false assertion |
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SourceParams {
    /// `P(claim | true, independent)`.
    pub a: f64,
    /// `P(claim | false, independent)`.
    pub b: f64,
    /// `P(claim | true, dependent)`.
    pub f: f64,
    /// `P(claim | false, dependent)`.
    pub g: f64,
}

impl SourceParams {
    /// Creates validated parameters.
    ///
    /// # Errors
    ///
    /// Returns [`SenseError::InvalidProbability`] if any value falls
    /// outside `[0, 1]` or is not finite.
    pub fn new(a: f64, b: f64, f: f64, g: f64) -> Result<Self, SenseError> {
        for (name, v) in [("a", a), ("b", b), ("f", f), ("g", g)] {
            check_prob(name, v)?;
        }
        Ok(Self { a, b, f, g })
    }

    /// A neutral source: every rate `0.5` (claims carry no information).
    pub fn neutral() -> Self {
        Self {
            a: 0.5,
            b: 0.5,
            f: 0.5,
            g: 0.5,
        }
    }

    /// `P(S_iC_j = sc | C_j = c, D_ij = dep)` — Table II of the paper.
    ///
    /// # Example
    ///
    /// ```
    /// use socsense_core::SourceParams;
    /// let p = SourceParams::new(0.8, 0.2, 0.6, 0.4)?;
    /// assert_eq!(p.claim_prob(true, false, true), 0.8);       // a
    /// assert_eq!(p.claim_prob(true, true, false), 1.0 - 0.6); // 1 - f
    /// # Ok::<(), socsense_core::SenseError>(())
    /// ```
    #[inline]
    pub fn claim_prob(&self, c: bool, dep: bool, sc: bool) -> f64 {
        let on = match (c, dep) {
            (true, false) => self.a,
            (false, false) => self.b,
            (true, true) => self.f,
            (false, true) => self.g,
        };
        if sc {
            on
        } else {
            1.0 - on
        }
    }

    /// Clamps every rate into `[eps, 1 - eps]`.
    pub fn clamped(self, eps: f64) -> Self {
        Self {
            a: self.a.clamp(eps, 1.0 - eps),
            b: self.b.clamp(eps, 1.0 - eps),
            f: self.f.clamp(eps, 1.0 - eps),
            g: self.g.clamp(eps, 1.0 - eps),
        }
    }
}

impl Default for SourceParams {
    fn default() -> Self {
        Self::neutral()
    }
}

/// The full parameter set `θ`: one [`SourceParams`] per source plus the
/// assertion prior `z = P(C = 1)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Theta {
    sources: Vec<SourceParams>,
    z: f64,
}

impl Theta {
    /// Creates a validated parameter set.
    ///
    /// # Errors
    ///
    /// Returns [`SenseError::InvalidProbability`] when `z ∉ [0, 1]` and
    /// [`SenseError::EmptyData`] when `sources` is empty.
    pub fn new(sources: Vec<SourceParams>, z: f64) -> Result<Self, SenseError> {
        if sources.is_empty() {
            return Err(SenseError::EmptyData);
        }
        check_prob("z", z)?;
        Ok(Self { sources, z })
    }

    /// A set of `n` [neutral](SourceParams::neutral) sources with prior `z = 0.5`.
    pub fn neutral(n: usize) -> Self {
        Self {
            sources: vec![SourceParams::neutral(); n],
            z: 0.5,
        }
    }

    /// Draws every rate uniformly from `(0.05, 0.95)`: an arbitrary warm
    /// start for tests of the EM loop.
    pub fn random<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Self {
        let sources = (0..n)
            .map(|_| SourceParams {
                a: rng.gen_range(0.05..0.95),
                b: rng.gen_range(0.05..0.95),
                f: rng.gen_range(0.05..0.95),
                g: rng.gen_range(0.05..0.95),
            })
            .collect();
        Self {
            sources,
            z: rng.gen_range(0.2..0.8),
        }
    }

    /// Number of sources.
    pub fn source_count(&self) -> usize {
        self.sources.len()
    }

    /// Parameters of source `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn source(&self, i: usize) -> &SourceParams {
        &self.sources[i]
    }

    /// All per-source parameters.
    pub fn sources(&self) -> &[SourceParams] {
        &self.sources
    }

    /// The assertion prior `z = P(C = 1)`.
    pub fn z(&self) -> f64 {
        self.z
    }

    /// Largest absolute difference across all parameters (used as the EM
    /// convergence criterion).
    ///
    /// # Errors
    ///
    /// Returns [`SenseError::DimensionMismatch`] if the source counts
    /// differ.
    pub fn max_abs_diff(&self, other: &Theta) -> Result<f64, SenseError> {
        if self.sources.len() != other.sources.len() {
            return Err(SenseError::DimensionMismatch {
                what: "theta source count",
                expected: self.sources.len(),
                actual: other.sources.len(),
            });
        }
        let mut d: f64 = (self.z - other.z).abs();
        for (s, o) in self.sources.iter().zip(&other.sources) {
            d = d
                .max((s.a - o.a).abs())
                .max((s.b - o.b).abs())
                .max((s.f - o.f).abs())
                .max((s.g - o.g).abs());
        }
        Ok(d)
    }

    /// Clamps every parameter (including `z`) into `[eps, 1 - eps]`.
    pub fn clamp_in_place(&mut self, eps: f64) {
        for s in &mut self.sources {
            *s = s.clamped(eps);
        }
        self.z = self.z.clamp(eps, 1.0 - eps);
    }

    /// Overwrites source `i`'s parameters. The caller is responsible for
    /// keeping them in `[0, 1]` (use [`SourceParams::new`] or
    /// [`Theta::clamp_in_place`]).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn set_source(&mut self, i: usize, p: SourceParams) {
        self.sources[i] = p;
    }

    /// Overwrites the assertion prior. The caller is responsible for
    /// keeping it in `[0, 1]`.
    pub fn set_z(&mut self, z: f64) {
        self.z = z;
    }
}

fn check_prob(name: &'static str, v: f64) -> Result<(), SenseError> {
    if !v.is_finite() || !(0.0..=1.0).contains(&v) {
        return Err(SenseError::InvalidProbability { name, value: v });
    }
    Ok(())
}

/// Thresholds posteriors into hard true/false labels.
///
/// A posterior of exactly `0.5` is labelled *false*, matching the paper's
/// convention of treating partially-supported assertions conservatively.
///
/// # Example
///
/// ```
/// use socsense_core::classify;
/// assert_eq!(classify(&[0.9, 0.5, 0.2]), vec![true, false, false]);
/// ```
pub fn classify(posteriors: &[f64]) -> Vec<bool> {
    posteriors.iter().map(|&p| p > 0.5).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn source_params_validate_ranges() {
        assert!(SourceParams::new(0.5, 0.5, 0.5, 0.5).is_ok());
        assert!(matches!(
            SourceParams::new(1.5, 0.5, 0.5, 0.5),
            Err(SenseError::InvalidProbability { name: "a", .. })
        ));
        assert!(SourceParams::new(0.5, f64::NAN, 0.5, 0.5).is_err());
    }

    #[test]
    fn claim_prob_covers_table_ii() {
        let p = SourceParams::new(0.8, 0.2, 0.6, 0.4).unwrap();
        // Each row of Table II.
        assert_eq!(p.claim_prob(true, false, true), 0.8);
        assert!((p.claim_prob(true, false, false) - 0.2).abs() < 1e-15);
        assert_eq!(p.claim_prob(false, false, true), 0.2);
        assert_eq!(p.claim_prob(false, false, false), 0.8);
        assert_eq!(p.claim_prob(true, true, true), 0.6);
        assert!((p.claim_prob(true, true, false) - 0.4).abs() < 1e-15);
        assert_eq!(p.claim_prob(false, true, true), 0.4);
        assert_eq!(p.claim_prob(false, true, false), 0.6);
    }

    #[test]
    fn clamped_stays_inside_margin() {
        let p = SourceParams::new(0.0, 1.0, 0.5, 0.5).unwrap().clamped(1e-6);
        assert!(p.a >= 1e-6 && p.b <= 1.0 - 1e-6);
    }

    #[test]
    fn theta_rejects_empty_and_bad_z() {
        assert!(matches!(
            Theta::new(vec![], 0.5),
            Err(SenseError::EmptyData)
        ));
        assert!(Theta::new(vec![SourceParams::neutral()], 1.5).is_err());
    }

    #[test]
    fn theta_max_abs_diff() {
        let a = Theta::neutral(2);
        let mut b = a.clone();
        b.set_z(0.7);
        assert!((a.max_abs_diff(&b).unwrap() - 0.2).abs() < 1e-12);
        let c = Theta::neutral(3);
        assert!(a.max_abs_diff(&c).is_err());
    }

    #[test]
    fn random_theta_is_valid_and_seeded() {
        let t1 = Theta::random(5, &mut StdRng::seed_from_u64(1));
        let t2 = Theta::random(5, &mut StdRng::seed_from_u64(1));
        assert_eq!(t1, t2);
        for s in t1.sources() {
            assert!(SourceParams::new(s.a, s.b, s.f, s.g).is_ok());
        }
    }

    #[test]
    fn classify_threshold_is_strict() {
        assert_eq!(
            classify(&[0.5000001, 0.5, 0.4999999]),
            vec![true, false, false]
        );
    }
}
