//! The workspace-aware rule families (v2): panic-path audit (P1),
//! protocol exhaustiveness and channel discipline (C2/C3), and float
//! reductions over parallel results (F1).
//!
//! Unlike the per-file D-rules in [`crate::rules`], these operate on a
//! whole-crate model built from every file's [`crate::tree::FileTree`]:
//! a call graph keyed by function name (no type resolution — a name
//! collision merges conservatively), the set of `// detlint: protocol`
//! enums, and every `match` site. The model is what lets a rule say
//! "this `unwrap` is *reachable from* the serve loop through two local
//! helpers" instead of only "this file contains an `unwrap`".
//!
//! | rule | what it rejects |
//! |------|-----------------|
//! | P1 | `unwrap`/`expect`/`panic!`-family calls in non-test code reachable (via the crate-local call graph) from serve/persist entry files |
//! | C2 | protocol enums without a `// detlint: protocol` marker; wildcard arms or missing variants in non-test matches over protocol enums |
//! | C3 | spawned workers never joined, discarded spawn handles, and reply-carrying protocol variants matched without answering/forwarding `reply` |
//! | F1 | a float reduction over `par_*` results outside the blessed merge file: `.sum::<f64>()`/`.fold(` in the parallel call's own statement, or `.sum::<f64>()`/`.fold(`/`+=` in a *later* statement over a local bound to them |
//!
//! All four are suppressed the usual way (`// detlint: allow(P1) --
//! why`), and every suppression still demands a justification.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::{Directive, Lexed, Tok, TokKind};
use crate::rules::{Contract, Finding};
use crate::tree::{self, EnumDef, FileTree, MatchArm};

/// The parsed model of one file, shared by every crate-level rule.
#[derive(Debug)]
pub struct FileModel {
    /// Workspace-relative path with forward slashes.
    pub rel_path: String,
    /// Lexer output (tokens + directives).
    pub lexed: Lexed,
    /// Item tree parsed from the tokens.
    pub tree: FileTree,
    /// Length of the source text in bytes (throughput accounting).
    pub source_bytes: usize,
}

impl FileModel {
    /// Builds the model for one file.
    pub fn new(rel_path: &str, source: &str) -> Self {
        let lexed = crate::lexer::lex(source);
        let tree = tree::parse(&lexed.tokens);
        FileModel {
            rel_path: rel_path.to_string(),
            lexed,
            tree,
            source_bytes: source.len(),
        }
    }

    fn is_test_file(&self) -> bool {
        self.rel_path.contains("/tests/")
    }
}

/// One crate's worth of parsed files.
#[derive(Debug)]
pub struct CrateModel {
    /// Crate name (directory name).
    pub name: String,
    /// The crate's declared contract.
    pub contract: Contract,
    /// Parsed files in scan order.
    pub files: Vec<FileModel>,
}

/// Per-crate call-graph statistics, surfaced in the JSON report so CI
/// artifacts show what the workspace pass actually resolved.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GraphSummary {
    /// Crate name.
    pub crate_name: String,
    /// Number of `fn` items parsed.
    pub fns: usize,
    /// Number of resolved crate-local call edges.
    pub edges: usize,
    /// Number of `// detlint: protocol` enums.
    pub protocol_enums: usize,
    /// Number of `match` sites parsed.
    pub match_sites: usize,
    /// Total bytes of source the crate model was built from.
    pub source_bytes: usize,
}

/// Enums that must carry the `// detlint: protocol` marker, per crate:
/// the serve tier's request/shard message types. Deleting the marker
/// (and with it the exhaustiveness audit) is itself a C2 finding, so
/// protocol coverage cannot erode silently — the same trick
/// [`crate::rules::EXPECT_DETERMINISTIC`] plays for contracts.
pub const EXPECT_PROTOCOL: &[(&str, &str)] = &[
    ("socsense-serve", "Request"),
    ("socsense-serve", "ShardMsg"),
    ("socsense-serve", "ShardQuery"),
    ("socsense-serve", "ClusterOp"),
];

/// Files whose non-test fns seed the P1 panic-path reachability walk:
/// a panic in (or reachable from) these wedges a serve worker or
/// corrupts a durable-state recovery.
fn p1_seed_file(crate_name: &str, rel_path: &str) -> bool {
    match crate_name {
        "socsense-serve" | "socsense-persist" => !rel_path.contains("/tests/"),
        "socsense-core" => rel_path.ends_with("/streaming.rs") || rel_path.ends_with("/delta.rs"),
        _ => false,
    }
}

const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

const PAR_PRIMITIVES: &[&str] = &[
    "par_chunks",
    "par_map_collect",
    "par_map_reduce",
    "par_fill",
    "par_fill_reduce",
];

/// The one module allowed to reduce floats over parallel results.
const BLESSED_MERGE_FILE: &str = "crates/socsense-matrix/src/parallel.rs";

/// Runs every crate-level rule over `model`, applies per-file
/// suppressions, and returns the findings plus the call-graph summary.
pub fn check_crate(model: &CrateModel) -> (Vec<Finding>, GraphSummary) {
    let graph = CallGraph::build(model);
    let mut findings = Vec::new();

    if model.contract == Contract::Deterministic {
        rule_p1(model, &graph, &mut findings);
        rule_c2(model, &mut findings);
        rule_c3(model, &mut findings);
        rule_f1(model, &graph, &mut findings);
    }

    // Suppression pass, file by file (same line / line-above contract
    // as the per-file rules; S1 for empty justifications is emitted by
    // `rules::check_file`, not duplicated here).
    for file in &model.files {
        for d in &file.lexed.directives {
            if let Directive::Allow {
                line,
                rules,
                justification,
            } = d
            {
                for f in findings.iter_mut() {
                    if f.file == file.rel_path
                        && !f.suppressed
                        && (f.line == *line || f.line == line + 1)
                        && rules.iter().any(|r| r == f.rule)
                    {
                        f.suppressed = true;
                        f.justification = Some(justification.clone());
                    }
                }
            }
        }
    }

    let summary = GraphSummary {
        crate_name: model.name.clone(),
        fns: model.files.iter().map(|f| f.tree.fns.len()).sum(),
        edges: graph.edge_count,
        protocol_enums: protocol_enums(model).len(),
        match_sites: model.files.iter().map(|f| f.tree.matches.len()).sum(),
        source_bytes: model.files.iter().map(|f| f.source_bytes).sum(),
    };
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    (findings, summary)
}

fn finding(file: &str, line: u32, rule: &'static str, message: String) -> Finding {
    Finding {
        file: file.to_string(),
        line,
        rule,
        message,
        suppressed: false,
        justification: None,
    }
}

// ---------------------------------------------------------------------
// Call graph
// ---------------------------------------------------------------------

/// A crate-local call graph over `(file index, fn index)` nodes,
/// resolved by bare function name.
struct CallGraph {
    /// `name -> node ids` for every fn in the crate.
    by_name: BTreeMap<String, Vec<(usize, usize)>>,
    /// Outgoing call edges per node.
    calls: BTreeMap<(usize, usize), Vec<(usize, usize)>>,
    /// Total resolved edges.
    edge_count: usize,
}

impl CallGraph {
    fn build(model: &CrateModel) -> Self {
        let mut by_name: BTreeMap<String, Vec<(usize, usize)>> = BTreeMap::new();
        for (fi, file) in model.files.iter().enumerate() {
            for (gi, f) in file.tree.fns.iter().enumerate() {
                by_name.entry(f.name.clone()).or_default().push((fi, gi));
            }
        }
        let mut calls: BTreeMap<(usize, usize), Vec<(usize, usize)>> = BTreeMap::new();
        let mut edge_count = 0usize;
        for (fi, file) in model.files.iter().enumerate() {
            let toks = &file.lexed.tokens;
            for (gi, f) in file.tree.fns.iter().enumerate() {
                let mut seen: BTreeSet<(usize, usize)> = BTreeSet::new();
                let (open, close) = f.body;
                let mut i = open + 1;
                while i < close {
                    // `name(` that is not a definition (`fn name(`) and
                    // not a macro (`name!(`) is a candidate call; the
                    // receiver shape (`.helper(`, `Self::helper(`) falls
                    // out of the same pattern.
                    if toks[i].kind == TokKind::Ident
                        && toks.get(i + 1).is_some_and(|t| t.is_punct('('))
                        && !toks
                            .get(i.wrapping_sub(1))
                            .is_some_and(|t| t.is_ident("fn"))
                    {
                        if let Some(targets) = by_name.get(&toks[i].text) {
                            for &t in targets {
                                if t != (fi, gi) && seen.insert(t) {
                                    calls.entry((fi, gi)).or_default().push(t);
                                    edge_count += 1;
                                }
                            }
                        }
                    }
                    i += 1;
                }
            }
        }
        CallGraph {
            by_name,
            calls,
            edge_count,
        }
    }

    /// Nodes reachable from `seeds` (seeds included).
    fn reachable(&self, seeds: &[(usize, usize)]) -> BTreeSet<(usize, usize)> {
        let mut seen: BTreeSet<(usize, usize)> = seeds.iter().copied().collect();
        let mut stack: Vec<(usize, usize)> = seeds.to_vec();
        while let Some(n) = stack.pop() {
            if let Some(next) = self.calls.get(&n) {
                for &m in next {
                    if seen.insert(m) {
                        stack.push(m);
                    }
                }
            }
        }
        seen
    }
}

/// Innermost fn whose body contains token index `idx`.
fn enclosing_fn(tree: &FileTree, idx: usize) -> Option<usize> {
    tree.fns
        .iter()
        .enumerate()
        .filter(|(_, f)| f.body.0 <= idx && idx <= f.body.1)
        .min_by_key(|(_, f)| f.body.1 - f.body.0)
        .map(|(i, _)| i)
}

// ---------------------------------------------------------------------
// P1: panic-path audit
// ---------------------------------------------------------------------

/// Panic sites in `file`: `(token index, line, description)`.
fn panic_sites(file: &FileModel) -> Vec<(usize, u32, String)> {
    let toks = &file.lexed.tokens;
    let mut out = Vec::new();
    for i in 0..toks.len() {
        let t = &toks[i];
        if (t.is_ident("unwrap") || t.is_ident("expect"))
            && i > 0
            && toks[i - 1].is_punct('.')
            && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
        {
            out.push((i, t.line, format!("`.{}()`", t.text)));
        }
        if t.kind == TokKind::Ident
            && PANIC_MACROS.contains(&t.text.as_str())
            && toks.get(i + 1).is_some_and(|n| n.is_punct('!'))
        {
            out.push((i, t.line, format!("`{}!`", t.text)));
        }
    }
    out
}

fn rule_p1(model: &CrateModel, graph: &CallGraph, findings: &mut Vec<Finding>) {
    // Seeds: every non-test fn defined in a seed file.
    let mut seeds: Vec<(usize, usize)> = Vec::new();
    let mut any_seed_file = false;
    for (fi, file) in model.files.iter().enumerate() {
        if !p1_seed_file(&model.name, &file.rel_path) || file.is_test_file() {
            continue;
        }
        any_seed_file = true;
        for (gi, f) in file.tree.fns.iter().enumerate() {
            if !f.is_test && !file.tree.in_test(f.body.0) {
                seeds.push((fi, gi));
            }
        }
    }
    if !any_seed_file {
        return;
    }
    let reachable = graph.reachable(&seeds);

    for (fi, file) in model.files.iter().enumerate() {
        if file.is_test_file() {
            continue;
        }
        let seed_file = p1_seed_file(&model.name, &file.rel_path);
        for (idx, line, what) in panic_sites(file) {
            if file.tree.in_test(idx) {
                continue;
            }
            let hit = match enclosing_fn(&file.tree, idx) {
                Some(gi) => {
                    let node = (fi, gi);
                    if reachable.contains(&node) {
                        let via = if seeds.contains(&node) {
                            String::new()
                        } else {
                            format!(
                                " (reachable from the serve/persist path via `{}`)",
                                file.tree.fns[gi].name
                            )
                        };
                        Some(via)
                    } else {
                        None
                    }
                }
                // Top-level code outside any fn (consts, statics) in a
                // seed file is on the path by definition.
                None if seed_file => Some(String::new()),
                None => None,
            };
            if let Some(via) = hit {
                findings.push(finding(
                    &file.rel_path,
                    line,
                    "P1",
                    format!(
                        "{what} on the serve/persist panic path{via}: a panicking worker \
                         wedges every client; propagate the error or justify with \
                         `allow(P1)`"
                    ),
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------
// C2: protocol exhaustiveness
// ---------------------------------------------------------------------

/// Enums marked `// detlint: protocol`, with their defining file index.
fn protocol_enums(model: &CrateModel) -> Vec<(usize, &EnumDef)> {
    let mut out = Vec::new();
    for (fi, file) in model.files.iter().enumerate() {
        let marks: Vec<u32> = file
            .lexed
            .directives
            .iter()
            .filter_map(|d| match d {
                Directive::Protocol { line } => Some(*line),
                _ => None,
            })
            .collect();
        for e in &file.tree.enums {
            // The marker sits directly above the declaration (below any
            // derive attributes), so a small window suffices.
            if marks
                .iter()
                .any(|&m| e.line > m && e.line <= m.saturating_add(3))
            {
                out.push((fi, e));
            }
        }
    }
    out
}

/// Effective pattern of an arm with guard and leading binding modes
/// stripped: `[start, end)` token range.
fn effective_pat(toks: &[Tok], arm: &MatchArm) -> (usize, usize) {
    let (mut s, mut e) = arm.pat;
    // Cut the guard: `if` at group depth 0.
    let mut depth = 0i32;
    for (k, t) in toks.iter().enumerate().take(e).skip(s) {
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth -= 1;
        } else if depth == 0 && t.is_ident("if") {
            e = k;
            break;
        }
    }
    while s < e && (toks[s].is_punct('&') || toks[s].is_ident("ref") || toks[s].is_ident("mut")) {
        s += 1;
    }
    (s, e)
}

/// Whether the arm is a catch-all: `_`, or a bare binding identifier.
fn is_wildcard_arm(toks: &[Tok], arm: &MatchArm) -> bool {
    let (s, e) = effective_pat(toks, arm);
    e == s + 1
        && toks[s].kind == TokKind::Ident
        && toks[s].text != "true"
        && toks[s].text != "false"
}

/// Whether the token range mentions the qualified variant `Enum::V`.
fn pat_mentions(toks: &[Tok], range: (usize, usize), enum_name: &str, variant: &str) -> bool {
    let (s, e) = range;
    (s..e).any(|k| {
        toks[k].is_ident(enum_name)
            && toks.get(k + 1).is_some_and(|t| t.is_punct(':'))
            && toks.get(k + 2).is_some_and(|t| t.is_punct(':'))
            && toks.get(k + 3).is_some_and(|t| t.is_ident(variant))
            && k + 3 < e
    })
}

fn rule_c2(model: &CrateModel, findings: &mut Vec<Finding>) {
    let protos = protocol_enums(model);

    // Erosion guard: baked protocol enums must carry the marker.
    for &(crate_name, enum_name) in EXPECT_PROTOCOL {
        if crate_name != model.name {
            continue;
        }
        for file in &model.files {
            if file.is_test_file() {
                continue;
            }
            for e in &file.tree.enums {
                let is_marked = protos
                    .iter()
                    .any(|(_, pe)| pe.name == e.name && pe.line == e.line);
                if e.name == enum_name && !is_marked && !file.tree.in_test(0) {
                    findings.push(finding(
                        &file.rel_path,
                        e.line,
                        "C2",
                        format!(
                            "enum `{}` is a serve-tier protocol type and must carry a \
                             `// detlint: protocol` marker so its matches stay exhaustive",
                            e.name
                        ),
                    ));
                }
            }
        }
    }

    // Exhaustiveness: every non-test match over a protocol enum.
    for file in &model.files {
        if file.is_test_file() {
            continue;
        }
        let toks = &file.lexed.tokens;
        for site in &file.tree.matches {
            if site.arms.is_empty() || file.tree.in_test(site.scrutinee.0) {
                continue;
            }
            for (_, e) in &protos {
                let involved = site.arms.iter().any(|a| {
                    e.variants
                        .iter()
                        .any(|v| pat_mentions(toks, a.pat, &e.name, &v.name))
                });
                if !involved {
                    continue;
                }
                let mut wildcarded = false;
                for arm in &site.arms {
                    if is_wildcard_arm(toks, arm) {
                        wildcarded = true;
                        findings.push(finding(
                            &file.rel_path,
                            arm.line,
                            "C2",
                            format!(
                                "wildcard arm in a `match` over protocol enum `{}`: a new \
                                 variant would be silently swallowed; list every variant",
                                e.name
                            ),
                        ));
                    }
                }
                if wildcarded {
                    continue;
                }
                for v in &e.variants {
                    let covered = site
                        .arms
                        .iter()
                        .any(|a| pat_mentions(toks, a.pat, &e.name, &v.name));
                    if !covered {
                        findings.push(finding(
                            &file.rel_path,
                            site.line,
                            "C2",
                            format!(
                                "`match` over protocol enum `{}` does not handle variant \
                                 `{}::{}`",
                                e.name, e.name, v.name
                            ),
                        ));
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// C3: worker join + reply discipline
// ---------------------------------------------------------------------

fn rule_c3(model: &CrateModel, findings: &mut Vec<Finding>) {
    // C3a: spawned workers must be joined somewhere in the crate, and a
    // spawn handle must not be discarded on the spot.
    let mut spawn_sites: Vec<(usize, u32, usize)> = Vec::new(); // (file, line, tok idx)
    let mut join_count = 0usize;
    for (fi, file) in model.files.iter().enumerate() {
        if file.is_test_file() {
            continue;
        }
        let toks = &file.lexed.tokens;
        for i in 0..toks.len() {
            if file.tree.in_test(i) {
                continue;
            }
            if toks[i].is_ident("spawn") && toks.get(i + 1).is_some_and(|t| t.is_punct('(')) {
                spawn_sites.push((fi, toks[i].line, i));
            }
            // `.join()` — or `thread::scope(…)`, which joins every
            // scoped worker (and re-raises panics) on scope exit.
            let explicit_join = toks[i].is_ident("join")
                && i > 0
                && toks[i - 1].is_punct('.')
                && toks.get(i + 1).is_some_and(|t| t.is_punct('('));
            let scoped = toks[i].is_ident("scope")
                && i >= 3
                && toks[i - 1].is_punct(':')
                && toks[i - 2].is_punct(':')
                && toks[i - 3].is_ident("thread")
                && toks.get(i + 1).is_some_and(|t| t.is_punct('('));
            if explicit_join || scoped {
                join_count += 1;
            }
        }
    }
    for &(fi, line, idx) in &spawn_sites {
        let toks = &model.files[fi].lexed.tokens;
        // Statement start: previous `;`/`{`/`}`.
        let start = (0..idx)
            .rev()
            .find(|&j| toks[j].is_punct(';') || toks[j].is_punct('{') || toks[j].is_punct('}'))
            .map(|j| j + 1)
            .unwrap_or(0);
        let discarded = toks.get(start).is_some_and(|t| t.is_ident("let"))
            && toks.get(start + 1).is_some_and(|t| t.is_ident("_"))
            && toks.get(start + 2).is_some_and(|t| t.is_punct('='));
        if discarded {
            findings.push(finding(
                &model.files[fi].rel_path,
                line,
                "C3",
                "spawn handle discarded with `let _ =`: the worker can never be joined, \
                 so its panic (and its drained state) is lost on shutdown"
                    .into(),
            ));
        }
    }
    if !spawn_sites.is_empty() && join_count == 0 {
        let (fi, line, _) = spawn_sites[0];
        findings.push(finding(
            &model.files[fi].rel_path,
            line,
            "C3",
            "crate spawns worker threads but never `.join()`s any: shutdown cannot \
             observe worker panics or drain in-flight state"
                .into(),
        ));
    }

    // C3b: a reply-carrying protocol variant, when matched, must answer
    // or forward its `reply` channel.
    let protos = protocol_enums(model);
    for file in &model.files {
        if file.is_test_file() {
            continue;
        }
        let toks = &file.lexed.tokens;
        for site in &file.tree.matches {
            if file.tree.in_test(site.scrutinee.0) {
                continue;
            }
            for arm in &site.arms {
                for (_, e) in &protos {
                    for v in e.variants.iter().filter(|v| v.has_reply) {
                        if !pat_mentions(toks, arm.pat, &e.name, &v.name) {
                            continue;
                        }
                        let (ps, pe) = arm.pat;
                        let rest_pattern = (ps..pe.saturating_sub(1))
                            .any(|k| toks[k].is_punct('.') && toks[k + 1].is_punct('.'));
                        let binds_reply = (ps..pe).any(|k| toks[k].is_ident("reply"));
                        let (bs, be) = arm.body;
                        let body_uses_reply = (bs..be).any(|k| toks[k].is_ident("reply"));
                        if rest_pattern && !binds_reply {
                            findings.push(finding(
                                &file.rel_path,
                                arm.line,
                                "C3",
                                format!(
                                    "`{}::{}` carries a reply channel but the `..` pattern \
                                     drops it: the caller would block forever; bind `reply` \
                                     and answer it",
                                    e.name, v.name
                                ),
                            ));
                        } else if binds_reply && !body_uses_reply {
                            findings.push(finding(
                                &file.rel_path,
                                arm.line,
                                "C3",
                                format!(
                                    "`{}::{}`'s `reply` channel is bound but never sent or \
                                     forwarded: the caller would block forever",
                                    e.name, v.name
                                ),
                            ));
                        }
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// F1: float reductions over parallel results
// ---------------------------------------------------------------------

/// fn nodes whose body calls a `par_*` primitive directly.
fn parallel_fns(model: &CrateModel) -> BTreeSet<(usize, usize)> {
    let mut out = BTreeSet::new();
    for (fi, file) in model.files.iter().enumerate() {
        let toks = &file.lexed.tokens;
        for (gi, f) in file.tree.fns.iter().enumerate() {
            let (open, close) = f.body;
            if (open..=close).any(|k| {
                toks[k].kind == TokKind::Ident
                    && PAR_PRIMITIVES.contains(&toks[k].text.as_str())
                    && toks.get(k + 1).is_some_and(|t| t.is_punct('('))
            }) {
                out.insert((fi, gi));
            }
        }
    }
    out
}

fn rule_f1(model: &CrateModel, graph: &CallGraph, findings: &mut Vec<Finding>) {
    let par_fns = parallel_fns(model);
    let par_fn_names: BTreeSet<&str> = graph
        .by_name
        .iter()
        .filter(|(_, nodes)| nodes.iter().any(|n| par_fns.contains(n)))
        .map(|(name, _)| name.as_str())
        .collect();

    for file in &model.files {
        if file.is_test_file() || file.rel_path.ends_with(BLESSED_MERGE_FILE) {
            continue;
        }
        let toks = &file.lexed.tokens;
        // `name(` calling a parallel primitive or a crate-local fn that
        // uses one.
        let is_par_call = |k: usize| {
            toks[k].kind == TokKind::Ident
                && toks.get(k + 1).is_some_and(|t| t.is_punct('('))
                && (PAR_PRIMITIVES.contains(&toks[k].text.as_str())
                    || par_fn_names.contains(toks[k].text.as_str()))
        };
        for f in &file.tree.fns {
            if f.is_test || file.tree.in_test(f.body.0) {
                continue;
            }
            let (open, close) = f.body;
            // Statement windows inside the body, split at `;`/`{`/`}`.
            let mut stmts: Vec<(usize, usize)> = Vec::new();
            let mut s = open + 1;
            for (k, t) in toks.iter().enumerate().take(close).skip(open + 1) {
                if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
                    if k > s {
                        stmts.push((s, k));
                    }
                    s = k + 1;
                }
            }
            if close > s {
                stmts.push((s, close));
            }

            // Pass 1: `let`-bound locals initialized from a parallel
            // call.
            let mut tainted: Vec<(String, usize)> = Vec::new(); // (name, stmt idx)
            for (si, &(a, b)) in stmts.iter().enumerate() {
                if !toks[a].is_ident("let") {
                    continue;
                }
                let mut n = a + 1;
                if n < b && toks[n].is_ident("mut") {
                    n += 1;
                }
                if n < b && toks[n].kind == TokKind::Ident && (a..b).any(is_par_call) {
                    tainted.push((toks[n].text.clone(), si));
                }
            }

            // Alias pass: a `for p in &partials` header taints the
            // loop variable too, so the classic accumulation loop
            // (`for p in &partials { acc += p; }`) is caught even
            // though the reduction statement never names the binding.
            for (si, &(a, b)) in stmts.iter().enumerate() {
                if !toks[a].is_ident("for") || a + 1 >= b || toks[a + 1].kind != TokKind::Ident {
                    continue;
                }
                let iterates_tainted = tainted
                    .iter()
                    .any(|(name, def_si)| si > *def_si && (a..b).any(|k| toks[k].is_ident(name)));
                if iterates_tainted {
                    tainted.push((toks[a + 1].text.clone(), si));
                }
            }

            // Pass 2: reductions in a parallel call's own statement, or
            // in a later statement naming a tainted local.
            for (si, &(a, b)) in stmts.iter().enumerate() {
                let mentions = |name: &str| (a..b).any(|k| toks[k].is_ident(name));
                let later = tainted
                    .iter()
                    .find(|(name, def_si)| si > *def_si && mentions(name));
                let own = (a..b).any(is_par_call);
                if later.is_none() && !own {
                    continue;
                }
                for k in a..b {
                    let is_float_sum = toks[k].is_ident("sum")
                        && k > a
                        && toks[k - 1].is_punct('.')
                        && toks
                            .get(k + 4)
                            .is_some_and(|t| t.is_ident("f32") || t.is_ident("f64"));
                    let is_fold = toks[k].is_ident("fold")
                        && k > a
                        && toks[k - 1].is_punct('.')
                        && toks.get(k + 1).is_some_and(|t| t.is_punct('('));
                    // In the call's own statement `+=` adds its result
                    // once; only a later `+=` can walk the partials.
                    let is_plus_eq = later.is_some()
                        && toks[k].is_punct('+')
                        && toks.get(k + 1).is_some_and(|t| t.is_punct('='));
                    if is_float_sum || is_fold || is_plus_eq {
                        let what = match later {
                            Some((name, _)) => {
                                format!("`{name}` holds per-chunk parallel results but is")
                            }
                            None => "a parallel call's per-chunk results are".to_string(),
                        };
                        findings.push(finding(
                            &file.rel_path,
                            toks[k].line,
                            "F1",
                            format!(
                                "{what} reduced here outside `socsense_matrix::parallel`'s \
                                 in-order merge helpers; use `par_map_reduce` or merge in \
                                 shard order"
                            ),
                        ));
                        break;
                    }
                }
            }
        }
    }
}
