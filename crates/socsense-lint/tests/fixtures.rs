//! Rule-level fixture corpus for detlint.
//!
//! Each rule gets at least one known-bad snippet that must fire at an
//! exact `file:line`, and a known-good sibling that must stay silent.
//! The snippets live in raw strings — detlint's lexer strips string
//! literals, so scanning this test file never trips over its own
//! fixtures. Suppression round-trips (justified, empty, wrong-rule)
//! and contract declaration errors are covered here too.

use socsense_lint::flow::{check_crate, CrateModel, FileModel};
use socsense_lint::{check_file, declared_contract, Contract, FileInput, Finding};

fn check(contract: Contract, rel_path: &str, source: &str) -> Vec<Finding> {
    let crate_name = rel_path
        .strip_prefix("crates/")
        .and_then(|r| r.split('/').next())
        .unwrap_or("socsense-core");
    check_file(&FileInput {
        crate_name,
        rel_path,
        contract,
        source,
    })
}

fn det(source: &str) -> Vec<Finding> {
    check(
        Contract::Deterministic,
        "crates/socsense-core/src/x.rs",
        source,
    )
}

fn fired(findings: &[Finding], rule: &str) -> Vec<u32> {
    findings
        .iter()
        .filter(|f| f.rule == rule && !f.suppressed)
        .map(|f| f.line)
        .collect()
}

// ---------------------------------------------------------------- D1

#[test]
fn d1_fires_on_hashmap_for_loop_at_exact_line() {
    let src = r#"use std::collections::HashMap;
fn f() {
    let m: HashMap<u32, u32> = HashMap::new();
    for (k, v) in &m {
        let _ = (k, v);
    }
}
"#;
    assert_eq!(fired(&det(src), "D1"), vec![4]);
}

#[test]
fn d1_fires_on_keys_values_iter_drain() {
    let src = r#"use std::collections::{HashMap, HashSet};
fn f() {
    let mut m = HashMap::<u32, u32>::new();
    let s: HashSet<u32> = HashSet::new();
    let _ = m.keys().count();
    let _ = m.values().max();
    let _ = s.iter().sum::<u32>();
    for x in m.drain() {
        let _ = x;
    }
}
"#;
    assert_eq!(fired(&det(src), "D1"), vec![5, 6, 7, 8]);
}

#[test]
fn d1_fires_through_index_chains() {
    let src = r#"use std::collections::HashMap;
fn f(cu: usize) {
    let tables: Vec<HashMap<u32, usize>> = vec![HashMap::new()];
    let _ = tables[cu].iter().max_by_key(|(_, &n)| n);
}
"#;
    assert_eq!(fired(&det(src), "D1"), vec![4]);
}

#[test]
fn d1_fires_on_hashset_set_ops() {
    let src = r#"fn f(a: &str, b: &str) -> usize {
    let sa: std::collections::HashSet<&str> = a.split_whitespace().collect();
    let sb: std::collections::HashSet<&str> = b.split_whitespace().collect();
    sa.intersection(&sb).count()
}
"#;
    assert_eq!(fired(&det(src), "D1"), vec![4]);
}

#[test]
fn d1_silent_on_keyed_lookup_and_btreemap() {
    let src = r#"use std::collections::{BTreeMap, HashMap};
fn f() {
    let mut m: HashMap<&str, u32> = HashMap::new();
    m.insert("k", 1);
    let _ = m.get("k");
    let _ = m["k"];
    let _ = m.len();
    let _ = m.entry("x").or_insert(2);
    let b: BTreeMap<u32, u32> = BTreeMap::new();
    for (k, v) in &b {
        let _ = (k, v);
    }
    let _ = b.keys().count();
    let plain = vec![1, 2, 3];
    let _ = plain.iter().sum::<i32>();
}
"#;
    assert_eq!(det(src).len(), 0, "{:?}", det(src));
}

#[test]
fn d1_silent_in_tooling_crates() {
    let src = r#"use std::collections::HashMap;
fn f() {
    let m: HashMap<u32, u32> = HashMap::new();
    for (k, v) in &m {
        let _ = (k, v);
    }
}
"#;
    let f = check(Contract::Tooling, "crates/socsense-eval/src/x.rs", src);
    assert!(f.is_empty(), "{f:?}");
}

// ---------------------------------------------------------------- D2

#[test]
fn d2_fires_on_pointer_cast() {
    let src = r#"fn f(x: &u32) -> usize {
    let p = x as *const u32;
    p as usize
}
"#;
    assert_eq!(fired(&det(src), "D2"), vec![2]);
}

#[test]
fn d2_silent_on_seeded_rng_and_env_args() {
    let src = r#"fn f() {
    let rng = StdRng::seed_from_u64(42);
    let arg = std::env::args().nth(1);
    let _ = (rng, arg);
}
"#;
    assert_eq!(det(src).len(), 0);
}

// ---------------------------------------------------------------- D3

// D3's one-statement float reductions are now caught by the crate-level
// F1 rule (its firing fixtures live in `flow_fixtures.rs`); its silent
// cases stay here and are checked against both the per-file rules and F1.

/// Unsuppressed F1 lines for `source` as the only file of `crate_name`.
fn f1_fired(crate_name: &str, rel_path: &str, source: &str) -> Vec<u32> {
    let model = CrateModel {
        name: crate_name.to_string(),
        contract: Contract::Deterministic,
        files: vec![FileModel::new(rel_path, source)],
    };
    fired(&check_crate(&model).0, "F1")
}

#[test]
fn d3_silent_on_serial_reductions_and_blessed_file() {
    let serial = r#"fn f(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>()
}
"#;
    assert_eq!(det(serial).len(), 0);
    assert_eq!(
        f1_fired("socsense-core", "crates/socsense-core/src/x.rs", serial),
        Vec::<u32>::new(),
        "no parallel call, no rule"
    );

    let merge = r#"fn merge(shards: Vec<f64>, par: Parallelism, n: usize) -> f64 {
    parallel::par_chunks(par, n, eval).iter().sum::<f64>()
}
"#;
    let blessed_path = "crates/socsense-matrix/src/parallel.rs";
    let blessed = check(Contract::Deterministic, blessed_path, merge);
    assert!(blessed.is_empty(), "blessed merge helpers are exempt");
    assert_eq!(
        f1_fired("socsense-matrix", blessed_path, merge),
        Vec::<u32>::new(),
        "blessed merge helpers are exempt"
    );
    // The same statement outside the blessed file does fire.
    assert_eq!(
        f1_fired("socsense-core", "crates/socsense-core/src/x.rs", merge),
        vec![2]
    );
}

// ---------------------------------------------------------------- D4

#[test]
fn d4_fires_on_partial_cmp_unwrap_at_exact_line() {
    let src = r#"fn f(scores: &mut Vec<f64>) {
    scores.sort_by(|a, b| a.partial_cmp(b).unwrap());
    scores.sort_by(|a, b| b.partial_cmp(a).expect("finite"));
}
"#;
    assert_eq!(fired(&det(src), "D4"), vec![2, 3]);
}

#[test]
fn d4_silent_on_total_cmp_and_guarded_fallback() {
    let src = r#"fn f(scores: &mut Vec<f64>, idx: &mut Vec<u32>) {
    scores.sort_by(f64::total_cmp);
    idx.sort_by(|&a, &b| {
        scores[b as usize]
            .partial_cmp(&scores[a as usize])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
}
"#;
    assert_eq!(det(src).len(), 0, "{:?}", det(src));
}

// The rules that need a whole-crate model (P1, C2, C3, F1) have their
// fixtures in `flow_fixtures.rs`.

// ------------------------------------------------------ suppressions

#[test]
fn suppression_with_justification_silences_same_and_next_line() {
    let trailing = r#"fn f(x: &u32) {
    let p = x as *const u32; // detlint: allow(D2) -- debug label only
    let _ = p;
}
"#;
    let f = det(trailing);
    assert_eq!(fired(&f, "D2"), Vec::<u32>::new(), "{f:?}");
    assert!(f
        .iter()
        .any(|x| x.suppressed && x.justification.as_deref() == Some("debug label only")));

    let preceding = r#"fn f(x: &u32) {
    // detlint: allow(D2) -- debug label only
    let p = x as *const u32;
    let _ = p;
}
"#;
    assert_eq!(fired(&det(preceding), "D2"), Vec::<u32>::new());
}

#[test]
fn suppression_with_empty_justification_is_an_error() {
    let src = r#"fn f(x: &u32) {
    // detlint: allow(D2)
    let p = x as *const u32;
    let _ = p;
}
"#;
    let f = det(src);
    assert_eq!(fired(&f, "S1"), vec![2], "empty justification errors");
    let bare = r#"fn f(x: &u32) {
    // detlint: allow(D2) --
    let p = x as *const u32;
    let _ = p;
}
"#;
    assert_eq!(fired(&det(bare), "S1"), vec![2], "bare `--` errors too");
}

#[test]
fn suppression_for_the_wrong_rule_does_not_silence() {
    let src = r#"fn f(x: &u32) {
    // detlint: allow(D1) -- not the rule that fires here
    let p = x as *const u32;
    let _ = p;
}
"#;
    assert_eq!(fired(&det(src), "D2"), vec![3]);
}

#[test]
fn suppression_does_not_leak_past_the_next_line() {
    let src = r#"fn f(x: &u32) {
    // detlint: allow(D2) -- covers only the next line
    let a = x as *const u32;
    let b = x as *const u32;
    let _ = (a, b);
}
"#;
    assert_eq!(fired(&det(src), "D2"), vec![4]);
}

#[test]
fn malformed_directive_is_an_error() {
    let src = "// detlint: allow D2 -- missing parens\nfn f() {}\n";
    assert_eq!(fired(&det(src), "S1"), vec![1]);
}

// --------------------------------------------------------- contracts

#[test]
fn contract_declarations_parse_and_default() {
    let (c, f) = declared_contract(
        "socsense-core",
        "crates/socsense-core/src/lib.rs",
        "// detlint: contract = deterministic\n#![warn(missing_docs)]\n",
    );
    assert_eq!(c, Contract::Deterministic);
    assert!(f.is_empty());

    let (c, f) = declared_contract(
        "socsense-eval",
        "crates/socsense-eval/src/lib.rs",
        "// detlint: contract = tooling\n",
    );
    assert_eq!(c, Contract::Tooling);
    assert!(f.is_empty());
}

#[test]
fn missing_contract_is_an_error_but_still_lints_strict() {
    let (c, f) = declared_contract(
        "socsense-core",
        "crates/socsense-core/src/lib.rs",
        "#![warn(missing_docs)]\n",
    );
    assert_eq!(c, Contract::Deterministic, "named crates stay strict");
    assert_eq!(f.len(), 1);
    assert_eq!(f[0].rule, "C1");
}

#[test]
fn serving_path_crates_cannot_loosen_to_tooling() {
    let (c, f) = declared_contract(
        "socsense-serve",
        "crates/socsense-serve/src/lib.rs",
        "// detlint: contract = tooling\n",
    );
    assert_eq!(c, Contract::Tooling, "declaration honoured…");
    assert_eq!(f.len(), 1, "…but reported");
    assert_eq!(f[0].rule, "C1");
    assert!(f[0].message.contains("cannot loosen"));
}
