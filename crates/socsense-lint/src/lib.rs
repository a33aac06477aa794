//! `socsense-lint` — the `detlint` static-analysis pass.
//!
//! Every estimate this workspace ships is contractually bit-identical
//! across worker counts, warm/cold refits, and recorder on/off — and
//! the serving tier must not wedge on a panic or drift out of protocol
//! with its shards. The runtime `f64::to_bits` tests check the first
//! contract *after the fact*; `detlint` promotes both to
//! machine-checked properties of the source. The analyzer is
//! dependency-free (no `syn` — the workspace vendors none) and layers:
//!
//! * [`lexer`] — comments and literals stripped; every token carries
//!   its line and byte offset (fuzz-pinned span soundness);
//! * [`tree`] — a brace-tree pass recovering `fn` items, `enum`
//!   variants, `match` arms, and `#[cfg(test)]` ranges;
//! * [`rules`] — the per-file token-shape rules: hash-order iteration
//!   (`D1`), pointer-as-value casts (`D2`) and NaN-poisoned comparators
//!   (`D4`);
//! * [`flow`] — the workspace-aware families over a whole-crate model
//!   with a crate-local call graph: panic paths reachable from the
//!   serve/persist seed set (`P1`), protocol-enum exhaustiveness and
//!   erosion (`C2`), spawn-join and reply-channel discipline (`C3`),
//!   and float reductions over parallel results (`F1`).
//!
//! detlint holds only what the compiler and clippy cannot state: the
//! workspace `clippy.toml` bans clock and environment reads and the
//! hash and `SystemTime` types, and `[workspace.lints.rust]` forbids
//! `unsafe_code` in every member.
//!
//! Each crate declares its contract in its root file:
//!
//! ```text
//! # detlint: contract = deterministic   (written with `//`)
//! ```
//!
//! protocol message enums are marked `// detlint: protocol`, and
//! individual findings are silenced, one line at a time, with a
//! justified suppression:
//!
//! ```text
//! # detlint: allow(P1) -- construction-time: no client exists yet
//! ```
//!
//! An empty justification is itself an error. See `DESIGN.md` §9 for
//! the rule catalogue and the relation to the runtime bit-identity
//! tests and to the Miri/loom CI lanes, and [`rules`]/[`flow`] for
//! the per-rule details.
//!
//! The `detlint` binary exits nonzero on any unsuppressed finding:
//!
//! ```text
//! cargo run -p socsense-lint --bin detlint -- --workspace
//! cargo run -p socsense-lint --bin detlint -- --workspace --format json
//! ```

// detlint: contract = tooling

#![warn(missing_docs)]

pub mod flow;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod scan;
pub mod tree;

pub use rules::{check_file, declared_contract, Contract, FileInput, Finding};
pub use scan::{scan_workspace, Report};

use std::path::PathBuf;

/// Absolute path of the workspace root: the directory `detlint
/// --workspace` scans and the lint tests resolve repo-relative paths
/// against, so both agree when invoked from a crate subdirectory
/// instead of the root.
///
/// Resolution order:
///
/// 1. the nearest ancestor of the current directory whose `Cargo.toml`
///    declares `[workspace]` — so running a tool from
///    `crates/socsense-core/` finds the same root as running it from
///    the checkout top;
/// 2. otherwise the workspace this crate was compiled from
///    (`CARGO_MANIFEST_DIR/../..`), which covers invocations from
///    outside any checkout (e.g. an absolute-path binary run from `/`).
pub fn workspace_root() -> PathBuf {
    if let Ok(cwd) = std::env::current_dir() {
        for dir in cwd.ancestors() {
            let manifest = dir.join("Cargo.toml");
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if text.lines().any(|l| l.trim() == "[workspace]") {
                    return dir.to_path_buf();
                }
            }
        }
    }
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crate manifest dir has a workspace two levels up")
        .to_path_buf()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workspace_root_agrees_from_subdirectories() {
        // The test process runs somewhere inside the checkout, so the
        // ancestor walk must find the directory that declares the
        // workspace and contains this crate.
        let root = workspace_root();
        assert!(root.join("Cargo.toml").exists(), "{root:?}");
        assert!(
            root.join("crates/socsense-lint/Cargo.toml").exists(),
            "{root:?} is not the workspace root"
        );
    }
}
