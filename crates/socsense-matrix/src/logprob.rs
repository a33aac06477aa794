//! Log-space probability arithmetic.
//!
//! The likelihood of one assertion's claim pattern is a product of up to
//! tens of thousands of Bernoulli factors (Eqs. 4–5 of the paper); in
//! linear space that underflows `f64` long before Twitter scale. Every
//! kernel in `socsense-core` therefore works with natural-log
//! probabilities and the helpers below.

/// Smallest probability admitted before taking a logarithm.
///
/// Model parameters are clamped into `[EPS, 1 - EPS]` so `ln` never sees 0
/// and EM updates can always move away from a degenerate corner.
pub const EPS: f64 = 1e-12;

/// Natural log of a probability, with the argument clamped to `[EPS, 1]`.
///
/// # Example
///
/// ```
/// use socsense_matrix::logprob::safe_ln;
/// assert!(safe_ln(0.0).is_finite());
/// assert_eq!(safe_ln(1.0), 0.0);
/// ```
#[inline]
pub fn safe_ln(p: f64) -> f64 {
    p.clamp(EPS, 1.0).ln()
}

/// `ln(1 - p)` with the complement clamped to `[EPS, 1]`.
#[inline]
pub fn safe_ln_1m(p: f64) -> f64 {
    (1.0 - p).clamp(EPS, 1.0).ln()
}

/// `ln(exp(a) + exp(b))` computed without overflow or catastrophic loss.
///
/// Handles `-inf` inputs correctly (identity element).
///
/// # Example
///
/// ```
/// use socsense_matrix::logprob::log_sum_exp2;
/// let lse = log_sum_exp2(0.0_f64.ln(), 1.0_f64.ln());
/// assert!((lse - 1.0_f64.ln()).abs() < 1e-12);
/// ```
#[inline]
pub fn log_sum_exp2(a: f64, b: f64) -> f64 {
    if a == f64::NEG_INFINITY {
        return b;
    }
    if b == f64::NEG_INFINITY {
        return a;
    }
    let (hi, lo) = if a >= b { (a, b) } else { (b, a) };
    hi + (lo - hi).exp().ln_1p()
}

/// Normalizes a pair of log-weights into linear probabilities summing to 1.
///
/// Given `ln w1` and `ln w0`, returns `(w1, w0) / (w1 + w0)`. This is the
/// posterior computation of Eq. 9 once the two joint log-likelihoods are
/// known. If both weights are `-inf` the split defaults to `(0.5, 0.5)`.
#[inline]
pub fn normalize_log_pair(ln_w1: f64, ln_w0: f64) -> (f64, f64) {
    if ln_w1 == f64::NEG_INFINITY && ln_w0 == f64::NEG_INFINITY {
        return (0.5, 0.5);
    }
    let lse = log_sum_exp2(ln_w1, ln_w0);
    ((ln_w1 - lse).exp(), (ln_w0 - lse).exp())
}

/// Converts odds `p/(1-p)` to the probability `p`.
///
/// The paper's Figs. 5 and 10 sweep reliability as odds ratios; the
/// generator needs them back as probabilities.
///
/// # Panics
///
/// Panics if `odds` is negative or non-finite.
#[inline]
pub fn odds_to_prob(odds: f64) -> f64 {
    assert!(
        odds.is_finite() && odds >= 0.0,
        "odds must be finite and >= 0, got {odds}"
    );
    odds / (1.0 + odds)
}

/// Converts a probability `p` to its odds `p/(1-p)`; `inf` when `p == 1`.
///
/// # Panics
///
/// Panics if `p` is outside `[0, 1]`.
#[inline]
pub fn prob_to_odds(p: f64) -> f64 {
    assert!(
        (0.0..=1.0).contains(&p),
        "probability must be in [0,1], got {p}"
    );
    if p == 1.0 {
        f64::INFINITY
    } else {
        p / (1.0 - p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn safe_ln_clamps() {
        assert!(safe_ln(0.0).is_finite());
        assert!(safe_ln(-1.0).is_finite());
        assert_eq!(safe_ln(1.0), 0.0);
        assert!((safe_ln(0.5) - 0.5_f64.ln()).abs() < 1e-15);
    }

    #[test]
    fn safe_ln_1m_clamps() {
        assert!(safe_ln_1m(1.0).is_finite());
        assert_eq!(safe_ln_1m(0.0), 0.0);
    }

    #[test]
    fn log_sum_exp2_matches_direct() {
        let (a, b) = (0.3_f64.ln(), 0.2_f64.ln());
        assert!((log_sum_exp2(a, b) - 0.5_f64.ln()).abs() < 1e-12);
        assert_eq!(log_sum_exp2(f64::NEG_INFINITY, b), b);
        assert_eq!(log_sum_exp2(a, f64::NEG_INFINITY), a);
    }

    #[test]
    fn log_sum_exp2_handles_extreme_magnitudes() {
        let big = -1000.0;
        let small = -2000.0;
        let lse = log_sum_exp2(big, small);
        assert!((lse - big).abs() < 1e-9);
        assert!(lse >= big);
    }

    #[test]
    fn normalize_log_pair_sums_to_one() {
        let (p1, p0) = normalize_log_pair(0.08_f64.ln(), 0.02_f64.ln());
        assert!((p1 - 0.8).abs() < 1e-12);
        assert!((p0 - 0.2).abs() < 1e-12);
        let (q1, q0) = normalize_log_pair(f64::NEG_INFINITY, f64::NEG_INFINITY);
        assert_eq!((q1, q0), (0.5, 0.5));
    }

    #[test]
    fn odds_round_trip() {
        for &p in &[0.0, 0.1, 0.5, 2.0 / 3.0, 0.99] {
            let back = odds_to_prob(prob_to_odds(p));
            assert!((back - p).abs() < 1e-12, "p={p} back={back}");
        }
        assert_eq!(prob_to_odds(1.0), f64::INFINITY);
        // The paper's knob: odds of 2 means p = 2/3.
        assert!((odds_to_prob(2.0) - 2.0 / 3.0).abs() < 1e-15);
    }
}
