//! Synthetic claim generation — the paper's Sec. V-A evaluation substrate.
//!
//! The generator produces "fictional events": `m` assertions split into a
//! true and a false pool (ratio `d`), sensed by `n` sources arranged in a
//! forest of `τ` two-level dependency trees. Each source is personalised
//! by four probabilities drawn from configured intervals:
//!
//! * `p_on` — participation: whether a claim opportunity is used;
//! * `p_dep` — for leaf sources, whether the claim repeats something the
//!   root already asserted (a *dependent* claim);
//! * `p_indepT` / `p_depT` — whether an independent / dependent claim
//!   lands in the true pool.
//!
//! Roots claim first, leaves afterwards, so the who-spoke-first rule of
//! `socsense-graph` reproduces the intended dependency labels exactly.
//!
//! Besides the dataset itself ([`SyntheticDataset`]), the crate maps
//! generator parameters to the model's `θ`: [`empirical_theta`] measures
//! it from the generated data and ground truth (what an oracle would
//! observe — used by the figure harnesses to feed the error bound), and
//! [`analytic_theta`] derives a closed-form approximation from the
//! configuration (documented assumptions in [`theta`]).
//!
//! # Example
//!
//! ```
//! use socsense_synth::{GeneratorConfig, SyntheticDataset};
//!
//! let config = GeneratorConfig::paper_defaults();
//! let ds = SyntheticDataset::generate(&config, 42)?;
//! assert_eq!(ds.data.source_count(), 20);
//! assert_eq!(ds.truth.len(), 50);
//! # Ok::<(), socsense_synth::SynthError>(())
//! ```

// detlint: contract = deterministic
#![warn(missing_docs)]

mod config;
mod generate;
pub mod planted;
pub mod theta;

pub use config::{GeneratorConfig, IntInterval, Interval, SynthError};
pub use generate::{SourceProfile, SyntheticDataset};
pub use planted::{PlantedConfig, PlantedDataset};
pub use theta::{analytic_theta, empirical_theta};
