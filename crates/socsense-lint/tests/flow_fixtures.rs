//! Fixture corpus for the workspace-aware rule families (P1, C2, C3,
//! F1) in `socsense_lint::flow`.
//!
//! Same contract as `fixtures.rs`: every rule gets a known-bad snippet
//! that must fire at an exact `file:line` and a known-good sibling that
//! must stay silent. The snippets live in raw strings so detlint's own
//! scan of this file never trips over them. Because these rules need a
//! whole-crate model, each fixture assembles one explicitly from
//! `(path, source)` pairs.

use socsense_lint::flow::{check_crate, CrateModel, FileModel};
use socsense_lint::rules::{Contract, Finding};

fn crate_model(name: &str, files: &[(&str, &str)]) -> CrateModel {
    CrateModel {
        name: name.to_string(),
        contract: Contract::Deterministic,
        files: files
            .iter()
            .map(|(path, src)| FileModel::new(path, src))
            .collect(),
    }
}

fn check(name: &str, files: &[(&str, &str)]) -> Vec<Finding> {
    check_crate(&crate_model(name, files)).0
}

/// `(file, line)` pairs where `rule` fired unsuppressed.
fn fired<'a>(findings: &'a [Finding], rule: &str) -> Vec<(&'a str, u32)> {
    findings
        .iter()
        .filter(|f| f.rule == rule && !f.suppressed)
        .map(|f| (f.file.as_str(), f.line))
        .collect()
}

// ---------------------------------------------------------------- P1

#[test]
fn p1_fires_on_unwrap_in_serve_non_test_code_only() {
    let src = r#"pub fn f(x: Option<u32>) -> u32 {
    x.unwrap()
}
pub fn g(x: Result<u32, ()>) -> u32 {
    x.expect("present")
}
#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        let y: Option<u32> = Some(1);
        y.unwrap();
    }
}
"#;
    let findings = check(
        "socsense-serve",
        &[("crates/socsense-serve/src/worker.rs", src)],
    );
    assert_eq!(
        fired(&findings, "P1"),
        vec![
            ("crates/socsense-serve/src/worker.rs", 2),
            ("crates/socsense-serve/src/worker.rs", 5)
        ],
        "test mod exempt"
    );

    // The same code in a crate off the serve/persist path is fine.
    let elsewhere = check(
        "socsense-twitter",
        &[("crates/socsense-twitter/src/x.rs", src)],
    );
    assert!(elsewhere.is_empty(), "{elsewhere:?}");

    // core's streaming.rs seeds the walk.
    let streaming = check(
        "socsense-core",
        &[("crates/socsense-core/src/streaming.rs", src)],
    );
    assert_eq!(fired(&streaming, "P1").len(), 2);
}

#[test]
fn p1_propagates_through_local_helpers_across_files() {
    let entry = r#"pub fn dispatch(x: Option<u32>) -> u32 {
    crate::util::helper(x)
}
"#;
    let util = r#"pub fn helper(x: Option<u32>) -> u32 {
    second(x)
}
fn second(x: Option<u32>) -> u32 {
    x.unwrap()
}
fn never_called(x: Option<u32>) -> u32 {
    x.unwrap()
}
"#;
    // `util.rs` lives outside the seed-file set (a non-seed helper
    // module would too), but `second` is reachable from the serve
    // entry point through `helper`, so its unwrap fires; the
    // unreachable sibling stays silent in a crate where only seed
    // files matter... except socsense-serve seeds *every* src file, so
    // model it in socsense-core where only streaming.rs seeds.
    let findings = check(
        "socsense-core",
        &[
            ("crates/socsense-core/src/streaming.rs", entry),
            ("crates/socsense-core/src/util.rs", util),
        ],
    );
    assert_eq!(
        fired(&findings, "P1"),
        vec![("crates/socsense-core/src/util.rs", 5)],
        "reachable helper fires, unreachable sibling does not: {findings:#?}"
    );
}

#[test]
fn p1_exempts_cfg_test_match_arms_and_suppressions() {
    let src = r#"pub enum Req { Go, Boom }
pub fn dispatch(r: Req) -> u32 {
    match r {
        Req::Go => 1,
        #[cfg(test)]
        Req::Boom => panic!("injected"),
        Req::Boom => 0,
    }
}
pub fn spawn_worker() {
    // detlint: allow(P1) -- construction-time: fixture justification
    std::thread::Builder::new().spawn(|| {}).expect("spawn");
}
"#;
    let findings = check("socsense-serve", &[("crates/socsense-serve/src/w.rs", src)]);
    assert_eq!(fired(&findings, "P1"), vec![], "{findings:#?}");
}

// ---------------------------------------------------------------- C2

const PROTO_ENUM: &str = r#"// detlint: protocol
pub enum Msg {
    Go(u32),
    Stop,
    Query { q: u32, reply: Sender<u32> },
}
"#;

#[test]
fn c2_fires_on_wildcard_arm_over_protocol_enum() {
    let worker = r#"pub fn run(m: Msg) -> u32 {
    match m {
        Msg::Go(n) => n,
        _ => 0,
    }
}
"#;
    let findings = check(
        "socsense-serve",
        &[
            ("crates/socsense-serve/src/msg.rs", PROTO_ENUM),
            ("crates/socsense-serve/src/worker.rs", worker),
        ],
    );
    assert_eq!(
        fired(&findings, "C2"),
        vec![("crates/socsense-serve/src/worker.rs", 4)],
        "{findings:#?}"
    );
}

#[test]
fn c2_fires_when_enum_gains_a_variant_the_worker_match_misses() {
    // The acceptance scenario: `Msg` gains `Drain`, the worker match
    // does not. The finding lands on the match line.
    let grown = r#"// detlint: protocol
pub enum Msg {
    Go(u32),
    Stop,
    Query { q: u32, reply: Sender<u32> },
    Drain,
}
"#;
    let worker = r#"pub fn run(m: Msg) -> u32 {
    match m {
        Msg::Go(n) => n,
        Msg::Stop => 0,
        Msg::Query { q, reply } => { reply.send(q).ok(); q }
    }
}
"#;
    let findings = check(
        "socsense-serve",
        &[
            ("crates/socsense-serve/src/msg.rs", grown),
            ("crates/socsense-serve/src/worker.rs", worker),
        ],
    );
    assert_eq!(
        fired(&findings, "C2"),
        vec![("crates/socsense-serve/src/worker.rs", 2)],
        "{findings:#?}"
    );
    let msg = &findings
        .iter()
        .find(|f| f.rule == "C2" && !f.suppressed)
        .unwrap()
        .message;
    assert!(
        msg.contains("Msg::Drain"),
        "names the missing variant: {msg}"
    );

    // Teaching the worker about `Drain` clears the finding.
    let fixed = r#"pub fn run(m: Msg) -> u32 {
    match m {
        Msg::Go(n) => n,
        Msg::Stop => 0,
        Msg::Query { q, reply } => { reply.send(q).ok(); q }
        Msg::Drain => 0,
    }
}
"#;
    let findings = check(
        "socsense-serve",
        &[
            ("crates/socsense-serve/src/msg.rs", grown),
            ("crates/socsense-serve/src/worker.rs", fixed),
        ],
    );
    assert_eq!(fired(&findings, "C2"), vec![], "{findings:#?}");
}

#[test]
fn c2_fires_when_a_baked_protocol_enum_loses_its_marker() {
    // socsense-serve's `Request` without `// detlint: protocol` is a
    // finding even though no match goes wrong: coverage cannot erode.
    let unmarked = r#"pub enum Request {
    Ingest(u32),
    Stats,
}
"#;
    let findings = check(
        "socsense-serve",
        &[("crates/socsense-serve/src/service.rs", unmarked)],
    );
    assert_eq!(
        fired(&findings, "C2"),
        vec![("crates/socsense-serve/src/service.rs", 1)],
        "{findings:#?}"
    );
}

#[test]
fn c2_allows_cfg_test_variants_matched_by_cfg_test_arms() {
    let with_test_variant = r#"// detlint: protocol
pub enum Msg {
    Go(u32),
    #[cfg(test)]
    InjectPanic,
}
"#;
    let worker = r#"pub fn run(m: Msg) -> u32 {
    match m {
        Msg::Go(n) => n,
        #[cfg(test)]
        Msg::InjectPanic => panic!("injected"),
    }
}
"#;
    let findings = check(
        "socsense-serve",
        &[
            ("crates/socsense-serve/src/msg.rs", with_test_variant),
            ("crates/socsense-serve/src/worker.rs", worker),
        ],
    );
    assert_eq!(fired(&findings, "C2"), vec![], "{findings:#?}");
    assert_eq!(fired(&findings, "P1"), vec![], "cfg(test) arm exempt");
}

// ---------------------------------------------------------------- C3

#[test]
fn c3_fires_on_spawn_without_any_join() {
    let src = r#"pub fn start() {
    std::thread::spawn(|| {});
}
"#;
    let findings = check("socsense-serve", &[("crates/socsense-serve/src/w.rs", src)]);
    assert_eq!(
        fired(&findings, "C3"),
        vec![("crates/socsense-serve/src/w.rs", 2)],
        "{findings:#?}"
    );

    // A join anywhere in the crate clears it; so does thread::scope.
    let joined = r#"pub fn start() -> std::thread::JoinHandle<()> {
    std::thread::spawn(|| {})
}
pub fn stop(h: std::thread::JoinHandle<()>) {
    h.join().ok();
}
"#;
    let findings = check(
        "socsense-serve",
        &[("crates/socsense-serve/src/w.rs", joined)],
    );
    assert_eq!(fired(&findings, "C3"), vec![], "{findings:#?}");

    let scoped = r#"pub fn run_all() {
    std::thread::scope(|s| {
        s.spawn(|| {});
    });
}
"#;
    let findings = check(
        "socsense-matrix",
        &[("crates/socsense-matrix/src/p.rs", scoped)],
    );
    assert_eq!(fired(&findings, "C3"), vec![], "scoped threads self-join");
}

#[test]
fn c3_fires_on_discarded_spawn_handle() {
    let src = r#"pub fn start() {
    let _ = std::thread::spawn(|| {});
    ()
}
pub fn stop(h: std::thread::JoinHandle<()>) {
    h.join().ok();
}
"#;
    let findings = check("socsense-serve", &[("crates/socsense-serve/src/w.rs", src)]);
    assert_eq!(
        fired(&findings, "C3"),
        vec![("crates/socsense-serve/src/w.rs", 2)],
        "{findings:#?}"
    );
}

#[test]
fn c3_fires_when_a_reply_channel_is_bound_but_never_answered() {
    let worker = r#"pub fn run(m: Msg) -> u32 {
    match m {
        Msg::Go(n) => n,
        Msg::Stop => 0,
        Msg::Query { q, reply } => q,
    }
}
"#;
    let findings = check(
        "socsense-serve",
        &[
            ("crates/socsense-serve/src/msg.rs", PROTO_ENUM),
            ("crates/socsense-serve/src/worker.rs", worker),
        ],
    );
    assert_eq!(
        fired(&findings, "C3"),
        vec![("crates/socsense-serve/src/worker.rs", 5)],
        "{findings:#?}"
    );

    // Forwarding the reply (not just `.send`ing it) counts.
    let forwards = r#"pub fn run(m: Msg) -> u32 {
    match m {
        Msg::Go(n) => n,
        Msg::Stop => 0,
        Msg::Query { q, reply } => answer(q, reply),
    }
}
"#;
    let findings = check(
        "socsense-serve",
        &[
            ("crates/socsense-serve/src/msg.rs", PROTO_ENUM),
            ("crates/socsense-serve/src/worker.rs", forwards),
        ],
    );
    assert_eq!(fired(&findings, "C3"), vec![], "{findings:#?}");
}

#[test]
fn c3_fires_when_a_rest_pattern_drops_the_reply_channel() {
    let worker = r#"pub fn run(m: Msg) -> u32 {
    match m {
        Msg::Go(n) => n,
        Msg::Stop => 0,
        Msg::Query { q, .. } => q,
    }
}
"#;
    let findings = check(
        "socsense-serve",
        &[
            ("crates/socsense-serve/src/msg.rs", PROTO_ENUM),
            ("crates/socsense-serve/src/worker.rs", worker),
        ],
    );
    assert_eq!(
        fired(&findings, "C3"),
        vec![("crates/socsense-serve/src/worker.rs", 5)],
        "{findings:#?}"
    );
}

// ---------------------------------------------------------------- F1

#[test]
fn f1_fires_on_cross_statement_reduction_of_parallel_partials() {
    let src = r#"pub fn total(par: Parallelism, xs: &[f64]) -> f64 {
    let partials = par_map_collect(par, xs, |x| x * 2.0);
    let mut acc = 0.0;
    for p in &partials {
        acc += p;
    }
    acc
}
"#;
    let findings = check("socsense-core", &[("crates/socsense-core/src/em.rs", src)]);
    assert_eq!(
        fired(&findings, "F1"),
        vec![("crates/socsense-core/src/em.rs", 5)],
        "{findings:#?}"
    );

    let sum = r#"pub fn total(par: Parallelism, xs: &[f64]) -> f64 {
    let partials = par_map_collect(par, xs, |x| x * 2.0);
    let t = partials.iter().sum::<f64>();
    t
}
"#;
    let findings = check("socsense-core", &[("crates/socsense-core/src/em.rs", sum)]);
    assert_eq!(
        fired(&findings, "F1"),
        vec![("crates/socsense-core/src/em.rs", 3)],
        "{findings:#?}"
    );

    // The blessed route: reduce inside par_map_reduce or keep the
    // partials unreduced.
    let blessed = r#"pub fn total(par: Parallelism, xs: &[f64]) -> f64 {
    let partials = par_map_collect(par, xs, |x| x * 2.0);
    let shipped = partials.len();
    shipped as f64
}
"#;
    let findings = check(
        "socsense-core",
        &[("crates/socsense-core/src/em.rs", blessed)],
    );
    assert_eq!(fired(&findings, "F1"), vec![], "{findings:#?}");
}

#[test]
fn f1_fires_on_float_reduction_over_parallel_results() {
    // The reduction sits in the parallel call's own statement.
    let src = r#"fn f(par: Parallelism, n: usize, xs: &[f64]) -> f64 {
    let total = parallel::par_chunks(par, n, |r| chunk(xs, r))
        .iter()
        .map(|c| c.local_sum)
        .sum::<f64>();
    total
}
"#;
    let findings = check("socsense-core", &[("crates/socsense-core/src/x.rs", src)]);
    assert_eq!(
        fired(&findings, "F1"),
        vec![("crates/socsense-core/src/x.rs", 5)],
        "{findings:#?}"
    );
}

#[test]
fn f1_fires_on_fold_merge_of_shards() {
    let src = r#"fn f(par: Parallelism, n: usize) -> f64 {
    parallel::par_map_collect(par, n, eval).into_iter().fold(0.0, |a, b| a + b)
}
"#;
    let findings = check("socsense-core", &[("crates/socsense-core/src/x.rs", src)]);
    assert_eq!(
        fired(&findings, "F1"),
        vec![("crates/socsense-core/src/x.rs", 2)],
        "{findings:#?}"
    );
}

#[test]
fn f1_taints_through_local_parallel_helpers() {
    let helper = r#"pub fn partials_of(par: Parallelism, xs: &[f64]) -> Vec<f64> {
    par_map_collect(par, xs, |x| x * 2.0)
}
"#;
    let caller = r#"pub fn total(par: Parallelism, xs: &[f64]) -> f64 {
    let parts = partials_of(par, xs);
    parts.iter().sum::<f64>()
}
"#;
    let findings = check(
        "socsense-core",
        &[
            ("crates/socsense-core/src/helper.rs", helper),
            ("crates/socsense-core/src/em.rs", caller),
        ],
    );
    // The caller binds the helper's parallel output and reduces it two
    // statements later — wait, it reduces in the tail expression, which
    // is a separate statement window from the `let`.
    assert_eq!(
        fired(&findings, "F1"),
        vec![("crates/socsense-core/src/em.rs", 3)],
        "{findings:#?}"
    );
}

#[test]
fn f1_is_silent_in_the_blessed_merge_file_and_for_serial_reductions() {
    let src = r#"pub fn total(par: Parallelism, xs: &[f64]) -> f64 {
    let partials = par_map_collect(par, xs, |x| x * 2.0);
    partials.iter().sum::<f64>()
}
"#;
    let findings = check(
        "socsense-matrix",
        &[("crates/socsense-matrix/src/parallel.rs", src)],
    );
    assert_eq!(fired(&findings, "F1"), vec![], "blessed file exempt");

    let serial = r#"pub fn total(xs: &[f64]) -> f64 {
    let doubled: Vec<f64> = xs.iter().map(|x| x * 2.0).collect();
    doubled.iter().sum::<f64>()
}
"#;
    let findings = check(
        "socsense-core",
        &[("crates/socsense-core/src/em.rs", serial)],
    );
    assert_eq!(fired(&findings, "F1"), vec![], "no parallel taint, no rule");
}

// ----------------------------------------------------- suppressions

#[test]
fn flow_findings_respect_justified_suppressions() {
    let src = r#"pub fn f(x: Option<u32>) -> u32 {
    // detlint: allow(P1) -- fixture: invariant argued here
    x.unwrap()
}
"#;
    let findings = check("socsense-serve", &[("crates/socsense-serve/src/w.rs", src)]);
    assert_eq!(fired(&findings, "P1"), vec![], "{findings:#?}");
    let suppressed: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == "P1" && f.suppressed)
        .collect();
    assert_eq!(suppressed.len(), 1);
    assert_eq!(
        suppressed[0].justification.as_deref(),
        Some("fixture: invariant argued here")
    );
}
