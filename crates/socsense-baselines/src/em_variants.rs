//! The EM-family algorithms: EM-Ext (this paper), EM (IPSN 2012), and
//! EM-Social (IPSN 2014).
//!
//! EM-Ext generalises the other two, so each finder is one
//! [`EmExt::fit`] with the caller's configuration, on transformed data:
//!
//! | finder | EM-Ext on |
//! |---|---|
//! | [`EmExtFinder`] | `(SC, D)` |
//! | [`EmIndependent`] | `(SC, ∅)` ([`ClaimData::assuming_independence`]) |
//! | [`EmSocial`], [`DropMode::ExcludeCells`] | `(SC∖D, D)` |
//! | [`EmSocial`], [`DropMode::AsSilence`] | `(SC∖D, ∅)` |
//!
//! With `D` empty the `f`/`g` rates are inert and EM-Ext is the IPSN'12
//! estimator. On `(SC∖D, D)` every `D` cell is a silence, so the M-step
//! sets each source's `f` and `g` to `ε` (at any positive smoothing), and
//! the silent factors `1 − f` and `1 − g` then cancel from every
//! posterior: the dependent cells weigh nothing, as IPSN'14 reads a
//! repeated claim.

use socsense_core::{ClaimData, EmConfig, EmExt, EmFit, Obs, SenseError};
use socsense_matrix::SparseBinaryMatrix;

use crate::FactFinder;

/// Adapter exposing the paper's EM-Ext estimator
/// ([`socsense_core::EmExt`]) through the [`FactFinder`] interface.
#[derive(Debug, Clone, Default)]
pub struct EmExtFinder {
    /// Underlying EM configuration.
    pub config: EmConfig,
    /// Metrics handle forwarded into every fit (disabled by default).
    pub obs: Obs,
}

impl EmExtFinder {
    /// Creates an adapter with the given EM configuration.
    pub fn new(config: EmConfig) -> Self {
        Self {
            config,
            obs: Obs::none(),
        }
    }

    /// Attaches a metrics handle; fits then report `em.*` convergence
    /// metrics. Observation-only: scores are bit-identical either way.
    #[must_use]
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    fn fit(&self, data: &ClaimData) -> Result<EmFit, SenseError> {
        EmExt::new(self.config).with_obs(self.obs.clone()).fit(data)
    }
}

impl FactFinder for EmExtFinder {
    fn name(&self) -> &'static str {
        "EM-Ext"
    }

    fn scores(&self, data: &ClaimData) -> Result<Vec<f64>, SenseError> {
        Ok(self.fit(data)?.posterior)
    }

    fn ranking_scores(&self, data: &ClaimData) -> Result<Vec<f64>, SenseError> {
        Ok(self.fit(data)?.log_odds)
    }
}

/// EM (IPSN 2012): jointly estimates source reliability and truth values
/// **assuming every claim is independent** — the dependency matrix is
/// discarded before fitting.
///
/// This is the estimator whose false-positive rate the paper shows
/// growing with the source count (Fig. 7-b): repeated rumors look like
/// independent corroboration.
#[derive(Debug, Clone, Default)]
pub struct EmIndependent {
    /// Underlying EM configuration.
    pub config: EmConfig,
    /// Metrics handle forwarded into every fit (disabled by default).
    pub obs: Obs,
}

impl EmIndependent {
    /// Creates the estimator with the given EM configuration.
    pub fn new(config: EmConfig) -> Self {
        Self {
            config,
            obs: Obs::none(),
        }
    }

    /// Attaches a metrics handle (see [`EmExtFinder::with_obs`]).
    #[must_use]
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    fn fit(&self, data: &ClaimData) -> Result<EmFit, SenseError> {
        EmExt::new(self.config)
            .with_obs(self.obs.clone())
            .fit(&data.assuming_independence())
    }
}

impl FactFinder for EmIndependent {
    fn name(&self) -> &'static str {
        "EM"
    }

    fn scores(&self, data: &ClaimData) -> Result<Vec<f64>, SenseError> {
        Ok(self.fit(data)?.posterior)
    }

    fn ranking_scores(&self, data: &ClaimData) -> Result<Vec<f64>, SenseError> {
        Ok(self.fit(data)?.log_odds)
    }
}

/// How [`EmSocial`] removes dependent claims.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DropMode {
    /// Dependent **cells** weigh nothing in the likelihood: neither a
    /// repeated claim nor a dependent silence is counted, matching
    /// IPSN'14's reasoning that a repeated claim "offers no information".
    /// EM-Ext runs on `(SC∖D, D)`, where the first map sets every `f` and
    /// `g` to `ε` and the `D` cells cancel from every posterior after it.
    /// Default.
    #[default]
    ExcludeCells,
    /// Dependent **claims** are deleted and the cells then treated as
    /// ordinary silence: EM-Ext on `(SC∖D, ∅)`. A harsher cleaning that
    /// actively counts each removed retweet as evidence *against* the
    /// assertion; kept as an ablation.
    AsSilence,
}

/// EM-Social (IPSN 2014): EM over independent claims only; dependent
/// claims are discarded as a data-cleaning step.
#[derive(Debug, Clone, Default)]
pub struct EmSocial {
    /// Underlying EM configuration.
    pub config: EmConfig,
    /// How dependent claims are removed.
    pub drop_mode: DropMode,
    /// Metrics handle forwarded into every fit (disabled by default).
    pub obs: Obs,
}

impl EmSocial {
    /// Creates the estimator with the given configuration and drop mode.
    pub fn new(config: EmConfig, drop_mode: DropMode) -> Self {
        Self {
            config,
            drop_mode,
            obs: Obs::none(),
        }
    }

    /// Attaches a metrics handle (see [`EmExtFinder::with_obs`]).
    #[must_use]
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// EM-Ext on the independent claims `SC∖D`, with `D` kept for
    /// [`DropMode::ExcludeCells`] and emptied for
    /// [`DropMode::AsSilence`].
    fn fit(&self, data: &ClaimData) -> Result<EmFit, SenseError> {
        let sc = data.sc();
        let (n, m) = (sc.nrows(), sc.ncols());
        let independent = sc.entries().filter(|&(i, j)| !data.dependent(i, j));
        let d = match self.drop_mode {
            DropMode::ExcludeCells => data.d().clone(),
            DropMode::AsSilence => SparseBinaryMatrix::empty(n, m),
        };
        let cleaned = ClaimData::new(SparseBinaryMatrix::from_entries(n, m, independent), d)?;
        EmExt::new(self.config)
            .with_obs(self.obs.clone())
            .fit(&cleaned)
    }
}

impl FactFinder for EmSocial {
    fn name(&self) -> &'static str {
        "EM-Social"
    }

    fn scores(&self, data: &ClaimData) -> Result<Vec<f64>, SenseError> {
        Ok(self.fit(data)?.posterior)
    }

    fn ranking_scores(&self, data: &ClaimData) -> Result<Vec<f64>, SenseError> {
        Ok(self.fit(data)?.log_odds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use socsense_core::{classify, InitStrategy};

    fn separable() -> ClaimData {
        let mut entries = Vec::new();
        for i in 0..4u32 {
            for j in 0..5u32 {
                entries.push((i, j));
            }
        }
        for i in 4..6u32 {
            for j in 5..10u32 {
                entries.push((i, j));
            }
        }
        let sc = SparseBinaryMatrix::from_entries(6, 10, entries);
        ClaimData::new(sc, SparseBinaryMatrix::empty(6, 10)).unwrap()
    }

    /// A finder's scores and ranking scores on `data`, as bits.
    fn served(finder: &dyn FactFinder, data: &ClaimData) -> (Vec<u64>, Vec<u64>) {
        let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect();
        (
            bits(finder.scores(data).unwrap()),
            bits(finder.ranking_scores(data).unwrap()),
        )
    }

    #[test]
    fn all_em_variants_agree_without_dependencies() {
        // With an empty D, EM, EM-Social in both modes and EM-Ext fit the
        // same data, so they serve the same bits.
        let data = separable();
        let ext = EmExtFinder::default();
        let variants: [(&str, &dyn FactFinder); 3] = [
            ("EM", &EmIndependent::default()),
            ("EM-Social", &EmSocial::default()),
            (
                "AsSilence",
                &EmSocial::new(EmConfig::default(), DropMode::AsSilence),
            ),
        ];
        for (name, finder) in variants {
            assert_eq!(served(finder, &data), served(&ext, &data), "{name}");
        }
        let truth: Vec<bool> = (0..10).map(|j| j < 5).collect();
        assert_eq!(classify(&ext.scores(&data).unwrap()), truth);
    }

    /// A rumor scenario: a single unreliable root claims false assertions
    /// and an echo chamber repeats them; honest independents support the
    /// true ones.
    fn rumor_data() -> (ClaimData, Vec<bool>) {
        let mut entries = Vec::new();
        let mut dep = Vec::new();
        // Sources 0..3: honest, claim true assertions 0..4 (sparsely).
        for i in 0..4u32 {
            for j in 0..5u32 {
                if (i + j) % 2 == 0 {
                    entries.push((i, j));
                }
            }
        }
        // Source 4: rumor root claiming false assertions 5..9.
        for j in 5..10u32 {
            entries.push((4, j));
        }
        // Sources 5..9: echoes of source 4 (dependent claims).
        for i in 5..10u32 {
            for j in 5..10u32 {
                entries.push((i, j));
                dep.push((i, j));
            }
        }
        let sc = SparseBinaryMatrix::from_entries(10, 10, entries);
        let d = SparseBinaryMatrix::from_entries(10, 10, dep);
        let truth = (0..10).map(|j| j < 5).collect();
        (ClaimData::new(sc, d).unwrap(), truth)
    }

    #[test]
    fn dependency_aware_variants_resist_the_echo_chamber() {
        let (data, truth) = rumor_data();
        let ext = EmExtFinder::default().scores(&data).unwrap();
        let indep = EmIndependent::default().scores(&data).unwrap();
        let acc = |scores: &[f64]| {
            classify(scores)
                .iter()
                .zip(&truth)
                .filter(|(p, t)| p == t)
                .count()
        };
        assert!(
            acc(&ext) >= acc(&indep),
            "EM-Ext {} should be at least as accurate as EM {}",
            acc(&ext),
            acc(&indep)
        );
        // EM, blind to dependencies, believes the echoed rumors more than
        // EM-Ext does on average.
        let rumor_belief = |s: &[f64]| s[5..].iter().sum::<f64>() / 5.0;
        assert!(
            rumor_belief(&ext) <= rumor_belief(&indep) + 1e-9,
            "ext {} vs indep {}",
            rumor_belief(&ext),
            rumor_belief(&indep)
        );
    }

    /// `rumor_data` plus source 10, which follows the rumor root but
    /// repeats only two of its claims: its other three `D` cells are
    /// dependent silences.
    fn partial_echo_data() -> ClaimData {
        let (data, _) = rumor_data();
        let grow = |cells: &SparseBinaryMatrix, extra: &[(u32, u32)]| {
            SparseBinaryMatrix::from_entries(11, 10, cells.entries().chain(extra.iter().copied()))
        };
        let echo: Vec<(u32, u32)> = (5..10).map(|j| (10, j)).collect();
        ClaimData::new(grow(data.sc(), &echo[..2]), grow(data.d(), &echo)).unwrap()
    }

    #[test]
    fn em_social_is_em_ext_on_the_independent_claims() {
        let data = partial_echo_data();
        let independent = SparseBinaryMatrix::from_entries(
            11,
            10,
            data.sc().entries().filter(|&(i, j)| !data.dependent(i, j)),
        );
        let cleaned = ClaimData::new(independent.clone(), data.d().clone()).unwrap();
        let silenced = cleaned.assuming_independence();
        let configs = [
            EmConfig::default(),
            EmConfig {
                init: InitStrategy::DepBiased,
                ..EmConfig::default()
            },
            EmConfig {
                smoothing: 0.0,
                ..EmConfig::default()
            },
        ];
        for config in configs {
            for (mode, on) in [
                (DropMode::ExcludeCells, &cleaned),
                (DropMode::AsSilence, &silenced),
            ] {
                let fit = EmExt::new(config).fit(on).unwrap();
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect();
                let want = (bits(&fit.posterior), bits(&fit.log_odds));
                // Removing the dependent claims beforehand changes nothing.
                for input in [&data, &cleaned] {
                    let got = served(&EmSocial::new(config, mode), input);
                    assert_eq!(got, want, "{mode:?}, {config:?}");
                }
            }
        }
    }

    #[test]
    fn em_social_discards_dependent_information() {
        let (data, _) = rumor_data();
        let social = EmSocial::default().scores(&data).unwrap();
        assert_eq!(social.len(), 10);
        for &p in &social {
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn bad_config_surfaces() {
        let (data, _) = rumor_data();
        let bad = EmSocial::new(
            EmConfig {
                max_iters: 0,
                ..EmConfig::default()
            },
            DropMode::ExcludeCells,
        );
        assert!(bad.scores(&data).is_err());
    }
}
