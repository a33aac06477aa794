//! Bit-exact serializable state for durable streaming (WAL snapshots).
//!
//! The serve layer's durability contract (DESIGN.md §12) is that a
//! worker restored from a snapshot answers every query
//! `f64::to_bits`-identically to the uninterrupted worker. JSON float
//! round-trips cannot guarantee that (and the vendored `serde_json`
//! maps non-finite floats to `null`), so every `f64` in these types is
//! encoded as its [`f64::to_bits`] `u64` — lossless by construction,
//! non-finite-safe, and stable across platforms.
//!
//! The types mirror, field for field, the in-memory state they persist:
//! a snapshot is *self-contained* — restoring onto a freshly constructed
//! [`StreamingEstimator`](crate::StreamingEstimator) (same `n`, `m`,
//! graph, and config) reproduces the exact warm-start chain, delta
//! engine, and pending-buffer state, including every incrementally
//! maintained float sum verbatim (recomputing those would differ in the
//! last bits and break the determinism proof).

use serde::{Deserialize, Serialize};
use socsense_graph::{CellChange, TimedClaim};

use crate::error::SenseError;
use crate::model::{SourceParams, Theta};
use crate::EmFit;

/// A [`Theta`] with every float as `to_bits`: the truth prior `z` plus
/// `4n` per-source values in row-major `a, b, f, g` order.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ThetaBits {
    /// `z.to_bits()`.
    pub z: u64,
    /// `a, b, f, g` bits per source, concatenated.
    pub sources: Vec<u64>,
}

impl ThetaBits {
    /// Encodes a parameter vector.
    pub fn from_theta(theta: &Theta) -> Self {
        let mut sources = Vec::with_capacity(4 * theta.source_count());
        for s in theta.sources() {
            sources.extend_from_slice(&[
                s.a.to_bits(),
                s.b.to_bits(),
                s.f.to_bits(),
                s.g.to_bits(),
            ]);
        }
        Self {
            z: theta.z().to_bits(),
            sources,
        }
    }

    /// Decodes back into a validated [`Theta`].
    ///
    /// # Errors
    ///
    /// [`SenseError::BadConfig`] when the source vector length is not a
    /// multiple of four, plus whatever [`Theta::new`] rejects (empty,
    /// out-of-range probabilities — e.g. corrupted bits).
    pub fn to_theta(&self) -> Result<Theta, SenseError> {
        if !self.sources.len().is_multiple_of(4) {
            return Err(SenseError::BadConfig {
                what: "theta bits: source vector length must be a multiple of 4",
            });
        }
        let sources: Vec<SourceParams> = self
            .sources
            .chunks_exact(4)
            .map(|c| {
                SourceParams::new(
                    f64::from_bits(c[0]),
                    f64::from_bits(c[1]),
                    f64::from_bits(c[2]),
                    f64::from_bits(c[3]),
                )
            })
            .collect::<Result<_, _>>()?;
        Theta::new(sources, f64::from_bits(self.z))
    }
}

/// An [`EmFit`] without its `θ`, every float as `to_bits`. The caller
/// stores `θ` once and supplies it on decode: a serving slot's chain
/// fit shares its `θ` with the stream's warm start
/// ([`StreamingState::last_theta`]), so a checkpoint would otherwise
/// hold it twice.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EmFitBits {
    /// Per-assertion posterior bits.
    pub posterior: Vec<u64>,
    /// `log_likelihood.to_bits()`.
    pub log_likelihood: u64,
    /// EM iterations used.
    pub iterations: usize,
    /// Whether the tolerance was reached.
    pub converged: bool,
    /// Log-likelihood trajectory bits.
    pub ll_history: Vec<u64>,
    /// Per-assertion posterior log-odds bits.
    pub log_odds: Vec<u64>,
}

impl EmFitBits {
    /// Encodes every field of `fit` except `θ`.
    pub fn from_fit(fit: &EmFit) -> Self {
        Self {
            posterior: bits_of(&fit.posterior),
            log_likelihood: fit.log_likelihood.to_bits(),
            iterations: fit.iterations,
            converged: fit.converged,
            ll_history: bits_of(&fit.ll_history),
            log_odds: bits_of(&fit.log_odds),
        }
    }

    /// Decodes back into an [`EmFit`] with parameters `theta`.
    pub fn to_fit(&self, theta: Theta) -> EmFit {
        EmFit {
            theta,
            posterior: floats_of(&self.posterior),
            log_likelihood: f64::from_bits(self.log_likelihood),
            iterations: self.iterations,
            converged: self.converged,
            ll_history: floats_of(&self.ll_history),
            log_odds: floats_of(&self.log_odds),
        }
    }
}

/// One source's incremental M-step sufficient statistics
/// (`DeltaEngine`'s `SourceSums`), floats as bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SourceSumsState {
    /// `|SC-row(i)|`.
    pub(crate) sc_cells: usize,
    /// `|SC-row(i) ∩ D-row(i)|`.
    pub(crate) sc_dep: usize,
    /// `|D-row(i)|`.
    pub(crate) dep_cells: usize,
    /// `Σ_{j ∈ D-row(i)} Z_j`, as bits.
    pub(crate) dep_z: u64,
    /// `Σ_{j ∈ SC-row(i), D=0} Z_j`, as bits.
    pub(crate) num_a: u64,
    /// `Σ_{j ∈ SC-row(i), D=1} Z_j`, as bits.
    pub(crate) num_f: u64,
}

/// The complete delta-engine state (`DeltaEngine`), floats as bits.
///
/// Everything is persisted verbatim — including the incrementally
/// maintained sums, the staleness accumulator `Λ`, and the per-column
/// stamps — because those values depend on the exact refit history and
/// cannot be recomputed bit-identically from the claim log alone.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeltaEngineState {
    /// `DeltaConfig::max_drift` bits.
    pub(crate) cfg_max_drift: u64,
    /// `DeltaConfig::max_batch_fraction` bits.
    pub(crate) cfg_max_batch_fraction: u64,
    /// `DeltaConfig::max_divergence` bits.
    pub(crate) cfg_max_divergence: u64,
    /// `DeltaConfig::exact_ll`.
    pub(crate) cfg_exact_ll: bool,
    /// Current `θ`.
    pub(crate) theta: ThetaBits,
    /// Posterior cache bits.
    pub(crate) posterior: Vec<u64>,
    /// Log-odds cache bits.
    pub(crate) log_odds: Vec<u64>,
    /// Per-assertion log-likelihood term bits.
    pub(crate) ll_terms: Vec<u64>,
    /// `SC` adjacency mirror, rows.
    pub(crate) sc_rows: Vec<Vec<u32>>,
    /// `SC` adjacency mirror, columns.
    pub(crate) sc_cols: Vec<Vec<u32>>,
    /// `D` adjacency mirror, rows.
    pub(crate) d_rows: Vec<Vec<u32>>,
    /// `D` adjacency mirror, columns.
    pub(crate) d_cols: Vec<Vec<u32>>,
    /// Incremental M-step statistics.
    pub(crate) sums: Vec<SourceSumsState>,
    /// `Σ_j Z_j` bits.
    pub(crate) sum_z: u64,
    /// `|SC-col ∪ D-col|` per column.
    pub(crate) col_entries: Vec<usize>,
    /// `max(col_entries)`.
    pub(crate) max_col_entries: usize,
    /// Staleness accumulator `Λ` bits.
    pub(crate) lambda: u64,
    /// Per-column `Λ` stamp bits.
    pub(crate) stamp: Vec<u64>,
    /// Accumulated drift bits.
    pub(crate) acc_drift: u64,
    /// Claims since the last full refit.
    pub(crate) claims_since_full: usize,
    /// Log size at the last full refit.
    pub(crate) claims_at_full: usize,
}

/// The complete [`StreamingEstimator`](crate::StreamingEstimator) state
/// for one snapshot: the full claim log plus the warm-start chain and
/// pending buffers.
///
/// Self-contained by design: the claim log is carried whole, so a
/// snapshot alone (no WAL prefix) reconstructs the estimator; the WAL
/// tail then replays only batches *after* the snapshot.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StreamingState {
    /// Source count the estimator was built over.
    pub n: u32,
    /// Assertion count the estimator was built over.
    pub m: u32,
    /// The full claim log, in ingest order.
    pub claims: Vec<TimedClaim>,
    /// Warm-start seed bits (`None` before the first successful refit).
    pub last_theta: Option<ThetaBits>,
    /// Claims ingested since the warm chain last advanced.
    pub pending: usize,
    /// Delta engine, when the estimator runs in delta mode and has been
    /// seeded.
    pub engine: Option<DeltaEngineState>,
    /// Cell-membership changes not yet folded into the engine.
    pub pending_changes: Vec<CellChange>,
    /// Batch sources not yet folded into the engine (sorted set).
    pub pending_sources: Vec<u32>,
}

/// `to_bits` of a float slice.
pub(crate) fn bits_of(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// `from_bits` of a bits slice.
pub(crate) fn floats_of(v: &[u64]) -> Vec<f64> {
    v.iter().map(|&b| f64::from_bits(b)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn theta_bits_round_trip_is_exact() {
        let mut theta = Theta::neutral(3);
        theta.set_z(0.1 + 0.2); // deliberately not representable "nicely"
        theta.set_source(1, SourceParams::new(0.7, 0.2, 0.6, 0.5).unwrap());
        let bits = ThetaBits::from_theta(&theta);
        let back = bits.to_theta().unwrap();
        assert_eq!(back.z().to_bits(), theta.z().to_bits());
        for i in 0..3 {
            let (a, b) = (theta.source(i), back.source(i));
            assert_eq!(a.a.to_bits(), b.a.to_bits());
            assert_eq!(a.b.to_bits(), b.b.to_bits());
            assert_eq!(a.f.to_bits(), b.f.to_bits());
            assert_eq!(a.g.to_bits(), b.g.to_bits());
        }
    }

    #[test]
    fn theta_bits_reject_ragged_sources() {
        let bits = ThetaBits {
            z: 0.5f64.to_bits(),
            sources: vec![0, 0, 0],
        };
        assert!(matches!(bits.to_theta(), Err(SenseError::BadConfig { .. })));
    }

    #[test]
    fn theta_bits_reject_corrupted_probability() {
        let mut bits = ThetaBits::from_theta(&Theta::neutral(2));
        bits.sources[0] = 2.5f64.to_bits();
        assert!(bits.to_theta().is_err());
    }

    #[test]
    fn em_fit_bits_round_trip_preserves_non_finite() {
        let fit = EmFit {
            theta: Theta::neutral(2),
            posterior: vec![0.25, 1.0],
            log_likelihood: f64::NEG_INFINITY,
            iterations: 7,
            converged: false,
            ll_history: vec![-3.0, f64::NEG_INFINITY],
            log_odds: vec![f64::INFINITY, -0.5],
        };
        let back = EmFitBits::from_fit(&fit).to_fit(fit.theta.clone());
        assert_eq!(
            back.log_likelihood.to_bits(),
            fit.log_likelihood.to_bits(),
            "JSON-null-unsafe value must survive the bits encoding"
        );
        assert_eq!(bits_of(&back.log_odds), bits_of(&fit.log_odds));
        assert_eq!(bits_of(&back.ll_history), bits_of(&fit.ll_history));
        assert_eq!(back.iterations, 7);
        assert!(!back.converged);
    }

    #[test]
    fn state_json_round_trip_via_serde() {
        // The serve layer ships these types through serde_json; pin that
        // the derive round-trips bit-exactly end to end.
        let fit = EmFit {
            theta: Theta::neutral(2),
            posterior: vec![0.1 + 0.2],
            log_likelihood: -1.5,
            iterations: 1,
            converged: true,
            ll_history: vec![-1.5],
            log_odds: vec![0.0],
        };
        let bits = EmFitBits::from_fit(&fit);
        let json = serde_json::to_string(&bits).unwrap();
        let back: EmFitBits = serde_json::from_str(&json).unwrap();
        assert_eq!(back, bits);
    }
}
