//! Workspace discovery and the scan driver.
//!
//! A scan walks the root package plus every directory under `crates/`,
//! reads each crate's contract from its `src/lib.rs`, and runs
//! [`crate::rules::check_file`] over every `.rs` file in `src/` and
//! `tests/`. Files are visited in sorted path order so reports are
//! byte-stable. The `vendor/` stand-in crates are outside the contract
//! (they mimic external APIs verbatim) and are not scanned; paths with
//! a `fixtures` component are skipped so a test corpus of deliberately
//! bad snippets can live on disk without failing the live tree.

use std::path::{Path, PathBuf};

use crate::flow::{self, CrateModel, FileModel, GraphSummary};
use crate::rules::{check_file, declared_contract, Contract, FileInput, Finding};

/// The outcome of one workspace scan.
#[derive(Debug, Default)]
pub struct Report {
    /// Root that was scanned.
    pub root: String,
    /// Number of `.rs` files visited.
    pub files_scanned: usize,
    /// Crates visited, in scan order, with their declared contracts.
    pub crates: Vec<(String, &'static str)>,
    /// Per-crate call-graph statistics from the workspace-aware pass.
    pub graph: Vec<GraphSummary>,
    /// All findings, suppressed ones included.
    pub findings: Vec<Finding>,
}

impl Report {
    /// Findings not covered by a justified suppression — the exit-code
    /// driver.
    pub fn unsuppressed(&self) -> usize {
        self.findings.iter().filter(|f| !f.suppressed).count()
    }
}

fn contract_name(c: Contract) -> &'static str {
    match c {
        Contract::Deterministic => "deterministic",
        Contract::Tooling => "tooling",
    }
}

/// Recursively collects `.rs` files under `dir`, sorted.
fn rs_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return out;
    };
    let mut entries: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if name == "fixtures" {
            continue;
        }
        if path.is_dir() {
            out.extend(rs_files(&path));
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    out
}

fn rel(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Scans one crate directory (its `src/` and `tests/` trees).
fn scan_crate(root: &Path, crate_dir: &Path, crate_name: &str, report: &mut Report) {
    let lib_rs = crate_dir.join("src/lib.rs");
    let lib_rel = rel(root, &lib_rs);
    let lib_src = std::fs::read_to_string(&lib_rs).unwrap_or_default();
    let (contract, contract_findings) = declared_contract(crate_name, &lib_rel, &lib_src);
    report.findings.extend(contract_findings);
    report
        .crates
        .push((crate_name.to_string(), contract_name(contract)));

    let mut files = rs_files(&crate_dir.join("src"));
    files.extend(rs_files(&crate_dir.join("tests")));
    let mut models: Vec<FileModel> = Vec::new();
    for path in files {
        let rel_path = rel(root, &path);
        let Ok(source) = std::fs::read_to_string(&path) else {
            continue;
        };
        report.files_scanned += 1;
        report.findings.extend(check_file(&FileInput {
            crate_name,
            rel_path: &rel_path,
            contract,
            source: &source,
        }));
        models.push(FileModel::new(&rel_path, &source));
    }

    // Workspace-aware pass: P/C2/C3/F over the whole-crate model.
    let model = CrateModel {
        name: crate_name.to_string(),
        contract,
        files: models,
    };
    let (crate_findings, summary) = flow::check_crate(&model);
    report.findings.extend(crate_findings);
    report.graph.push(summary);
}

/// Scans the whole workspace rooted at `root`.
///
/// # Errors
///
/// Returns a message when `root` has neither a root `src/` nor a
/// `crates/` directory — a wrong `--root` must not report a clean tree.
pub fn scan_workspace(root: &Path) -> Result<Report, String> {
    let mut report = Report {
        root: root.display().to_string(),
        ..Report::default()
    };

    let root_src = root.join("src");
    let crates_dir = root.join("crates");
    if !root_src.is_dir() && !crates_dir.is_dir() {
        return Err(format!(
            "{} has no src/ or crates/ directory; not a workspace root",
            root.display()
        ));
    }

    // The facade package at the workspace root.
    if root_src.is_dir() {
        scan_crate(root, root, "socsense", &mut report);
    }

    if crates_dir.is_dir() {
        let mut dirs: Vec<PathBuf> = std::fs::read_dir(&crates_dir)
            .map_err(|e| format!("reading {}: {e}", crates_dir.display()))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.is_dir())
            .collect();
        dirs.sort();
        for dir in dirs {
            let name = dir
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or_default()
                .to_string();
            scan_crate(root, &dir, &name, &mut report);
        }
    }

    report
        .findings
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(report)
}
