//! Live-workspace meta-test plus an end-to-end exercise of the
//! `detlint` binary against a throwaway fake workspace.
//!
//! The meta-test is the teeth of the determinism contract: the real
//! source tree must lint clean (zero *unsuppressed* findings, every
//! suppression justified). The binary test is the negative control CI
//! cannot express directly — it plants a known-bad file, asserts exit 1
//! and a JSON finding at the right line, fixes the file, and asserts
//! exit 0. The manifest test checks that rustc forbids unsafe code in
//! every workspace member, which no crate root restates.

use std::path::{Path, PathBuf};
use std::process::Command;

use serde_json::Value;
use socsense_lint::scan_workspace;

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    v.as_object()
        .unwrap_or_else(|| panic!("expected object with key {key}, got {v:?}"))
        .get(key)
        .unwrap_or_else(|| panic!("missing key {key} in {v:?}"))
}

fn as_bool(v: &Value) -> bool {
    match v {
        Value::Bool(b) => *b,
        other => panic!("expected bool, got {other:?}"),
    }
}

#[test]
fn live_workspace_has_zero_unsuppressed_findings() {
    let root = socsense_lint::workspace_root();
    let report = scan_workspace(&root).expect("scanning the live workspace");
    assert!(
        report.files_scanned > 50,
        "scan looks truncated: {} files",
        report.files_scanned
    );

    let loose: Vec<_> = report.findings.iter().filter(|f| !f.suppressed).collect();
    assert!(
        loose.is_empty(),
        "live workspace has unsuppressed detlint findings:\n{:#?}",
        loose
    );
    for f in report.findings.iter().filter(|f| f.suppressed) {
        let why = f.justification.as_deref().unwrap_or("");
        assert!(
            !why.trim().is_empty(),
            "suppression at {}:{} has an empty justification",
            f.file,
            f.line
        );
    }
}

/// The `key = value` lines of the TOML table `[header]` in `text`.
fn toml_table<'a>(text: &'a str, header: &str) -> Vec<(&'a str, &'a str)> {
    let mut inside = false;
    let mut out = Vec::new();
    for line in text.lines().map(str::trim) {
        if line.starts_with('[') {
            inside = line == format!("[{header}]");
        } else if let Some((key, value)) = line.split_once('=').filter(|_| inside) {
            out.push((key.trim(), value.trim()));
        }
    }
    out
}

#[test]
fn every_member_inherits_the_workspace_lints() {
    let root = socsense_lint::workspace_root();
    let read = |path: &Path| {
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
    };
    let root_manifest = root.join("Cargo.toml");
    assert!(
        toml_table(&read(&root_manifest), "workspace.lints.rust")
            .contains(&("unsafe_code", "\"forbid\"")),
        "the root's [workspace.lints.rust] must forbid unsafe_code"
    );

    // The root package plus every `crates/*` and `vendor/*` member.
    let mut members = vec![root_manifest];
    for dir in ["crates", "vendor"] {
        let mut found: Vec<PathBuf> = std::fs::read_dir(root.join(dir))
            .unwrap_or_else(|e| panic!("reading {dir}/: {e}"))
            .filter_map(|e| e.ok().map(|e| e.path().join("Cargo.toml")))
            .filter(|p| p.exists())
            .collect();
        assert!(!found.is_empty(), "no member manifests under {dir}/");
        found.sort();
        members.extend(found);
    }
    let loose: Vec<_> = members
        .iter()
        .filter(|p| !toml_table(&read(p), "lints").contains(&("workspace", "true")))
        .collect();
    assert!(
        loose.is_empty(),
        "member manifests without `[lints] workspace = true`: {loose:?}"
    );
}

#[test]
fn live_workspace_declares_every_expected_crate_deterministic() {
    let root = socsense_lint::workspace_root();
    let report = scan_workspace(&root).expect("scanning the live workspace");
    for name in socsense_lint::rules::EXPECT_DETERMINISTIC {
        let found = report
            .crates
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("crate {name} missing from scan"));
        assert_eq!(
            found.1, "deterministic",
            "crate {name} lost its deterministic contract"
        );
    }
}

/// Builds a minimal fake workspace under a unique temp dir and returns
/// its root. Layout: `Cargo.toml` with `[workspace]`, one crate
/// `crates/socsense-core` with the given `src/lib.rs` contents.
fn fake_workspace(tag: &str, lib_rs: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("detlint-e2e-{tag}-{}", std::process::id()));
    let src = root.join("crates/socsense-core/src");
    std::fs::create_dir_all(&src).unwrap();
    std::fs::write(root.join("Cargo.toml"), "[workspace]\n").unwrap();
    std::fs::write(src.join("lib.rs"), lib_rs).unwrap();
    root
}

fn detlint(root: &Path, format: &str) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_detlint"))
        .args(["--root", &root.display().to_string(), "--format", format])
        .output()
        .expect("running detlint")
}

#[test]
fn binary_flags_planted_violation_then_passes_after_fix() {
    let bad = concat!(
        "// detlint: contract = deterministic\n",
        "#![warn(missing_docs)]\n",
        "use std::collections::HashMap;\n",
        "pub fn f() {\n",
        "    let m: HashMap<u32, u32> = HashMap::new();\n",
        "    for (k, v) in &m {\n",
        "        let _ = (k, v);\n",
        "    }\n",
        "}\n"
    );
    let root = fake_workspace("bad", bad);

    let out = detlint(&root, "json");
    assert_eq!(
        out.status.code(),
        Some(1),
        "planted D1 violation must fail the run; stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let json: Value =
        serde_json::from_str(&stdout).expect("detlint --format json emits valid JSON");
    assert_eq!(field(&json, "unsuppressed").as_f64(), Some(1.0));
    let finding = &field(&json, "findings").as_array().unwrap()[0];
    assert_eq!(field(finding, "rule").as_str(), Some("D1"));
    assert_eq!(
        field(finding, "file").as_str(),
        Some("crates/socsense-core/src/lib.rs")
    );
    assert_eq!(
        field(finding, "line").as_f64(),
        Some(6.0),
        "fires on the `for` line"
    );
    assert!(!as_bool(field(finding, "suppressed")));

    // Fix: keyed lookup over a BTreeMap — the same shape the real
    // apollo/twitter fixes took.
    let good = concat!(
        "// detlint: contract = deterministic\n",
        "#![warn(missing_docs)]\n",
        "use std::collections::BTreeMap;\n",
        "pub fn f() {\n",
        "    let m: BTreeMap<u32, u32> = BTreeMap::new();\n",
        "    for (k, v) in &m {\n",
        "        let _ = (k, v);\n",
        "    }\n",
        "}\n"
    );
    std::fs::write(root.join("crates/socsense-core/src/lib.rs"), good).unwrap();

    let out = detlint(&root, "text");
    assert_eq!(
        out.status.code(),
        Some(0),
        "fixed tree must pass; stdout: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("(0 unsuppressed)"),
        "summary line reports clean: {text}"
    );

    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn binary_flags_stale_match_when_protocol_enum_gains_a_variant() {
    // The v2 acceptance scenario end-to-end: a protocol enum grows a
    // `Drain` variant, the worker's match does not, and the binary
    // fails with a C2 finding at the match line. Teaching the worker
    // about the new variant turns the run green again.
    let stale = concat!(
        "// detlint: contract = deterministic\n",
        "#![warn(missing_docs)]\n",
        "// detlint: protocol\n",
        "pub enum Msg {\n",
        "    Go(u32),\n",
        "    Stop,\n",
        "    Drain,\n",
        "}\n",
        "pub fn run(m: Msg) -> u32 {\n",
        "    match m {\n",
        "        Msg::Go(n) => n,\n",
        "        Msg::Stop => 0,\n",
        "    }\n",
        "}\n"
    );
    let root = std::env::temp_dir().join(format!("detlint-e2e-c2-{}", std::process::id()));
    let src = root.join("crates/socsense-serve/src");
    std::fs::create_dir_all(&src).unwrap();
    std::fs::write(root.join("Cargo.toml"), "[workspace]\n").unwrap();
    std::fs::write(src.join("lib.rs"), stale).unwrap();

    let out = detlint(&root, "json");
    assert_eq!(
        out.status.code(),
        Some(1),
        "stale protocol match must fail the run; stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json: Value =
        serde_json::from_str(&String::from_utf8_lossy(&out.stdout)).expect("valid JSON");
    let findings = field(&json, "findings").as_array().unwrap().clone();
    let c2: Vec<&Value> = findings
        .iter()
        .filter(|f| field(f, "rule").as_str() == Some("C2") && !as_bool(field(f, "suppressed")))
        .collect();
    assert_eq!(c2.len(), 1, "exactly one C2 finding: {findings:#?}");
    assert_eq!(
        field(c2[0], "file").as_str(),
        Some("crates/socsense-serve/src/lib.rs")
    );
    assert_eq!(
        field(c2[0], "line").as_f64(),
        Some(10.0),
        "fires on the `match` line"
    );
    assert!(
        field(c2[0], "message")
            .as_str()
            .unwrap()
            .contains("Msg::Drain"),
        "message names the missing variant"
    );

    let fixed = stale.replace(
        "        Msg::Stop => 0,\n",
        "        Msg::Stop => 0,\n        Msg::Drain => 0,\n",
    );
    std::fs::write(src.join("lib.rs"), fixed).unwrap();
    let out = detlint(&root, "text");
    assert_eq!(
        out.status.code(),
        Some(0),
        "covering the new variant passes; stdout: {}",
        String::from_utf8_lossy(&out.stdout)
    );

    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn binary_accepts_justified_suppression_but_rejects_empty_one() {
    let justified = concat!(
        "// detlint: contract = deterministic\n",
        "#![warn(missing_docs)]\n",
        "pub fn f(x: &u32) -> usize {\n",
        "    // detlint: allow(D2) -- test fixture address, used as a label only\n",
        "    x as *const u32 as usize\n",
        "}\n"
    );
    let root = fake_workspace("sup", justified);
    let out = detlint(&root, "text");
    assert_eq!(
        out.status.code(),
        Some(0),
        "justified suppression passes; stdout: {}",
        String::from_utf8_lossy(&out.stdout)
    );

    let empty = justified.replace(" -- test fixture address, used as a label only", "");
    std::fs::write(root.join("crates/socsense-core/src/lib.rs"), empty).unwrap();
    let out = detlint(&root, "json");
    assert_eq!(
        out.status.code(),
        Some(1),
        "empty justification fails the run"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let json: Value = serde_json::from_str(&stdout).unwrap();
    let rules: Vec<&str> = field(&json, "findings")
        .as_array()
        .unwrap()
        .iter()
        .filter(|f| !as_bool(field(f, "suppressed")))
        .map(|f| field(f, "rule").as_str().unwrap())
        .collect();
    assert!(rules.contains(&"S1"), "S1 fires: {rules:?}");

    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn sharded_tier_modules_stay_under_the_deterministic_contract() {
    let root = socsense_lint::workspace_root();
    let report = scan_workspace(&root).expect("scanning the live workspace");

    // The sharded serving tier lives in socsense-serve; its contract
    // must not quietly loosen to `tooling` now that router/shard
    // modules carry thread spawns and channel plumbing.
    let serve = report
        .crates
        .iter()
        .find(|(n, _)| n == "socsense-serve")
        .expect("socsense-serve missing from scan");
    assert_eq!(
        serve.1, "deterministic",
        "socsense-serve lost its deterministic contract"
    );

    // The tier's construction-time `.expect()`s — the shard spawns in
    // the router and the service-thread spawn in the front end both
    // tiers share — are justified suppressions; their presence in the
    // report proves both modules are actually scanned under the strict
    // rule set rather than skipped. (A rule change that stops flagging
    // them at all would also trip this, which is the point: coverage
    // must be explicit.)
    for module in ["router.rs", "service.rs"] {
        let suppressed = report
            .findings
            .iter()
            .filter(|f| {
                f.file.ends_with(&format!("socsense-serve/src/{module}"))
                    && f.suppressed
                    && f.rule == "P1"
            })
            .count();
        assert!(
            suppressed >= 1,
            "expected the {module} spawn suppression in the scan, found {suppressed}"
        );
    }

    // And neither new module may carry an unsuppressed finding.
    let loose: Vec<_> = report
        .findings
        .iter()
        .filter(|f| {
            !f.suppressed
                && (f.file.ends_with("socsense-serve/src/router.rs")
                    || f.file.ends_with("socsense-serve/src/shard.rs"))
        })
        .collect();
    assert!(
        loose.is_empty(),
        "sharded-tier modules have unsuppressed detlint findings:\n{loose:#?}"
    );
}

#[test]
fn discovery_crate_stays_under_the_deterministic_contract() {
    let root = socsense_lint::workspace_root();
    let report = scan_workspace(&root).expect("scanning the live workspace");

    // Dependency discovery feeds D-hat straight into the pipeline, so it
    // rides the same bit-identical contract as the estimators. A PR that
    // drops the crate from EXPECT_DETERMINISTIC, or removes its header,
    // must fail here rather than silently shrink lint coverage.
    assert!(
        socsense_lint::rules::EXPECT_DETERMINISTIC.contains(&"socsense-discover"),
        "socsense-discover dropped from EXPECT_DETERMINISTIC"
    );
    let discover = report
        .crates
        .iter()
        .find(|(n, _)| n == "socsense-discover")
        .expect("socsense-discover missing from scan");
    assert_eq!(
        discover.1, "deterministic",
        "socsense-discover lost its deterministic contract"
    );
    let loose: Vec<_> = report
        .findings
        .iter()
        .filter(|f| !f.suppressed && f.file.contains("socsense-discover/"))
        .collect();
    assert!(
        loose.is_empty(),
        "socsense-discover has unsuppressed detlint findings:\n{loose:#?}"
    );

    // Negative control: loosening the declaration is a C1 finding.
    let (_, findings) = socsense_lint::rules::declared_contract(
        "socsense-discover",
        "crates/socsense-discover/src/lib.rs",
        "// detlint: contract = tooling\npub fn f() {}\n",
    );
    assert!(
        findings.iter().any(|f| f.rule == "C1"),
        "loosening socsense-discover's contract must be a C1 finding, got {findings:#?}"
    );
}
