//! Evaluation harness: metrics, repeated-experiment runner, and one
//! regenerator per table / figure of the paper's evaluation section.
//!
//! The `repro` binary exposes every experiment as a subcommand
//! (`repro fig3`, `repro table1`, ...); each prints the same rows/series
//! the paper plots, plus an optional JSON dump for archival in
//! `EXPERIMENTS.md`.
//!
//! | experiment | module | paper content |
//! |---|---|---|
//! | Table I | [`experiments::table1`] | exact-bound walk-through, Err = 0.26980433 |
//! | Figs. 3–5 | [`experiments::bound_figures`] | exact vs Gibbs bound vs `n`, `τ`, `p_depT` odds |
//! | Fig. 6 | [`experiments::fig6`] | bound computation time |
//! | Figs. 7–10 | [`experiments::estimator_figures`] | EM-Ext vs EM vs EM-Social vs Optimal |
//! | Table III | [`experiments::table3`] | simulated dataset summaries |
//! | Fig. 11 | [`experiments::fig11`] | 7 algorithms × 5 Twitter scenarios |

// detlint: contract = tooling
// Fig. 6 times its runs; no clock reading feeds an estimate.
#![allow(clippy::disallowed_methods)]
#![warn(missing_docs)]

pub mod experiments;
mod figure;
mod metrics;
mod runner;

pub use figure::{FigureResult, Series};
pub use metrics::{CalibrationBin, CalibrationCurve, Confusion, MeanStd};
pub use runner::{run_repeated, run_repeated_with};
