//! `detlint` — workspace determinism & numeric-safety lint.
//!
//! ```text
//! detlint [--workspace] [--root PATH] [--format text|json]
//! ```
//!
//! Scans the workspace (root resolved via
//! [`socsense_lint::workspace_root`], so the binary scans the same tree
//! when invoked from a crate subdirectory), prints
//! findings as `file:line: rule(id): message` (or one JSON object with
//! `--format json`), and exits `1` on any unsuppressed finding, `2` on
//! usage or I/O errors.

use std::process::ExitCode;

use socsense_lint::report::{render_json, render_text};
use socsense_lint::{scan_workspace, workspace_root};

fn run() -> Result<bool, String> {
    let mut root: Option<std::path::PathBuf> = None;
    let mut format = "text".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            // --workspace is the (only) mode; accepted for clarity.
            "--workspace" => {}
            "--root" => {
                let v = args.next().ok_or("--root needs a path")?;
                root = Some(v.into());
            }
            "--format" => {
                format = args.next().ok_or("--format needs text|json")?;
                if format != "text" && format != "json" {
                    return Err(format!("unknown format `{format}` (expected text|json)"));
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let root = root.unwrap_or_else(workspace_root);
    let report = scan_workspace(&root)?;
    if format == "json" {
        print!("{}", render_json(&report));
        // Keep the human summary visible when stdout is redirected.
        eprint!("{}", render_text(&report));
    } else {
        print!("{}", render_text(&report));
    }
    Ok(report.unsuppressed() == 0)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
    }
}
