//! The per-file detlint rules (D1, D2, D4) plus the contract and
//! suppression machinery.
//!
//! Rules operate on the stripped token stream from [`crate::lexer`] and
//! are deliberately *shape-based*: no type inference, no name
//! resolution. Where a rule needs to know a value's type (D1's "is this
//! a hash collection?"), it uses a per-file heuristic — `let` bindings
//! whose declaration statement mentions `HashMap`/`HashSet` are marked,
//! and iteration methods on marked names fire. The heuristic is tuned
//! to miss nothing the workspace actually writes; a false positive is
//! silenced with a justified `// detlint: allow(…) -- …` comment, which
//! is itself a reviewable diff.
//!
//! | rule | contract | what it rejects |
//! |------|----------|-----------------|
//! | D1 | deterministic | order-escaping iteration over `HashMap`/`HashSet` (`.iter()`, `.keys()`, `.values()`, `.drain()`, set ops, `for … in map`) |
//! | D2 | deterministic | pointer-as-value casts (`as *const _`, `as *mut _`) |
//! | D4 | deterministic | `partial_cmp(…).unwrap()/expect()` — NaN-poisoned comparator panics |
//!
//! Each rule lives with the one tool that can state it, and detlint
//! keeps what the compiler and clippy cannot express. The workspace
//! `clippy.toml` bans wall clocks, environment reads and the hash types
//! themselves; `[workspace.lints.rust]` forbids `unsafe_code` on every
//! target; the vendored `rand` has no `thread_rng` to call.
//!
//! `C1` (contract declaration problems) and `S1` (suppression
//! problems, including an empty justification) are meta-rules emitted
//! by this module; they cannot themselves be suppressed.
//!
//! The workspace-aware rule families (P1 panic-path audit, C2/C3
//! protocol discipline and F1 float reductions over parallel results)
//! live in [`crate::flow`]; they need the whole-crate model, not one
//! file.

use crate::lexer::{lex, Directive, Tok, TokKind};

/// The determinism contract a crate declares in its root file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Contract {
    /// Full contract: every D- and flow rule applies. Required for
    /// every crate on the serving path (`socsense-core` …
    /// `socsense-serve`).
    Deterministic,
    /// Tooling contract: no determinism rule applies, only the
    /// suppression checks (eval harnesses, observability, and detlint
    /// itself — code whose output never feeds a posterior).
    Tooling,
}

impl Contract {
    /// Parses a declared contract name.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "deterministic" => Some(Self::Deterministic),
            "tooling" => Some(Self::Tooling),
            _ => None,
        }
    }
}

/// Crates that must declare `contract = deterministic`; a declaration
/// loosening one of these to `tooling` is itself a finding, so the
/// contract cannot erode silently.
pub const EXPECT_DETERMINISTIC: &[&str] = &[
    "socsense",
    "socsense-core",
    "socsense-matrix",
    "socsense-graph",
    "socsense-baselines",
    "socsense-synth",
    "socsense-twitter",
    "socsense-apollo",
    "socsense-serve",
    "socsense-persist",
    "socsense-discover",
];

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path of the file.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule id: `D1`, `D2`, `D4`, `C1`, `S1`, or a [`crate::flow`] rule.
    pub rule: &'static str,
    /// Human-readable message.
    pub message: String,
    /// Whether a justified suppression covers this finding.
    pub suppressed: bool,
    /// The suppression's justification, when suppressed.
    pub justification: Option<String>,
}

/// Everything [`check_file`] needs to know about one source file.
#[derive(Debug, Clone, Copy)]
pub struct FileInput<'a> {
    /// Crate the file belongs to (directory name, e.g. `socsense-core`).
    pub crate_name: &'a str,
    /// Workspace-relative path with forward slashes.
    pub rel_path: &'a str,
    /// The crate's declared contract.
    pub contract: Contract,
    /// File contents.
    pub source: &'a str,
}

const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
    "retain",
    "intersection",
    "union",
    "difference",
    "symmetric_difference",
];

/// Runs every applicable rule over one file and applies suppressions.
pub fn check_file(input: &FileInput) -> Vec<Finding> {
    let lexed = lex(input.source);
    let toks = &lexed.tokens;
    let mut findings: Vec<Finding> = Vec::new();
    let push = |line: u32, rule: &'static str, message: String, findings: &mut Vec<Finding>| {
        findings.push(Finding {
            file: input.rel_path.to_string(),
            line,
            rule,
            message,
            suppressed: false,
            justification: None,
        });
    };

    if input.contract == Contract::Deterministic {
        rule_d1(toks, &mut findings, input);
        rule_d2(toks, &mut findings, input);
        rule_d4(toks, &mut findings, input);
    }

    // Suppression pass: a justified `allow` on the finding's line or the
    // line above silences it; an empty justification is itself an error.
    for d in &lexed.directives {
        match d {
            Directive::Allow {
                line,
                rules,
                justification,
            } => {
                if justification.is_empty() {
                    push(
                        *line,
                        "S1",
                        format!(
                            "suppression of {} has no justification; write `-- <why>`",
                            rules.join(", ")
                        ),
                        &mut findings,
                    );
                }
                for f in findings.iter_mut() {
                    let meta = f.rule == "S1" || f.rule == "C1";
                    if !meta
                        && !f.suppressed
                        && (f.line == *line || f.line == line + 1)
                        && rules.iter().any(|r| r == f.rule)
                    {
                        f.suppressed = true;
                        f.justification = Some(justification.clone());
                    }
                }
            }
            Directive::Malformed { line, message } => {
                push(*line, "S1", message.clone(), &mut findings);
            }
            Directive::Contract { .. } | Directive::Protocol { .. } => {}
        }
    }

    findings.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    findings
}

/// Extracts the contract declaration from a crate root file, reporting
/// `C1` findings for a missing/unknown declaration or for a named
/// deterministic crate trying to declare itself `tooling`.
pub fn declared_contract(
    crate_name: &str,
    rel_path: &str,
    source: &str,
) -> (Contract, Vec<Finding>) {
    let mut findings = Vec::new();
    let declared = lex(source).directives.iter().find_map(|d| match d {
        Directive::Contract { line, value } => Some((*line, value.clone())),
        _ => None,
    });
    let must_be_deterministic = EXPECT_DETERMINISTIC.contains(&crate_name);
    let contract = match declared {
        Some((line, value)) => match Contract::parse(&value) {
            Some(c) => {
                if must_be_deterministic && c != Contract::Deterministic {
                    findings.push(Finding {
                        file: rel_path.to_string(),
                        line,
                        rule: "C1",
                        message: format!(
                            "crate `{crate_name}` is on the deterministic serving path and \
                             cannot loosen its contract to `{value}`"
                        ),
                        suppressed: false,
                        justification: None,
                    });
                }
                c
            }
            None => {
                findings.push(Finding {
                    file: rel_path.to_string(),
                    line,
                    rule: "C1",
                    message: format!(
                        "unknown contract `{value}` (expected `deterministic` or `tooling`)"
                    ),
                    suppressed: false,
                    justification: None,
                });
                default_contract(must_be_deterministic)
            }
        },
        None => {
            findings.push(Finding {
                file: rel_path.to_string(),
                line: 1,
                rule: "C1",
                message: format!(
                    "crate `{crate_name}` declares no determinism contract; add \
                     `// detlint: contract = <deterministic|tooling>` to its root file"
                ),
                suppressed: false,
                justification: None,
            });
            default_contract(must_be_deterministic)
        }
    };
    (contract, findings)
}

fn default_contract(must_be_deterministic: bool) -> Contract {
    // A crate that fails to declare still gets linted under the
    // contract it should have had, so the C1 finding is not a bypass.
    if must_be_deterministic {
        Contract::Deterministic
    } else {
        Contract::Tooling
    }
}

// ---------------------------------------------------------------------
// D1: hash-order iteration
// ---------------------------------------------------------------------

/// Names of `let`-bound locals whose declaration statement mentions
/// `HashMap`/`HashSet` (type annotation or initializer).
fn hash_bound_names(toks: &[Tok]) -> Vec<String> {
    let mut names = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_ident("let") {
            let mut j = i + 1;
            if j < toks.len() && toks[j].is_ident("mut") {
                j += 1;
            }
            if j < toks.len() && toks[j].kind == TokKind::Ident {
                let name = toks[j].text.clone();
                // Statement window: up to the next `;` (close enough —
                // a nested `;` only shrinks the window).
                let end = toks[j..]
                    .iter()
                    .position(|t| t.is_punct(';'))
                    .map(|p| j + p)
                    .unwrap_or(toks.len());
                if toks[j..end]
                    .iter()
                    .any(|t| t.is_ident("HashMap") || t.is_ident("HashSet"))
                {
                    names.push(name);
                }
                i = j;
                continue;
            }
        }
        i += 1;
    }
    names.sort_unstable();
    names.dedup();
    names
}

/// Walks left from the `.` of a method call to the base identifier of
/// the receiver chain: `a.b[c].keys()` → `a`.
fn receiver_base(toks: &[Tok], dot_idx: usize) -> Option<&str> {
    let mut k = dot_idx.checked_sub(1)?;
    loop {
        // Skip one trailing index/call group.
        while toks[k].is_punct(']') || toks[k].is_punct(')') {
            let close = if toks[k].is_punct(']') {
                (']', '[')
            } else {
                (')', '(')
            };
            let mut depth = 0i32;
            loop {
                if toks[k].is_punct(close.0) {
                    depth += 1;
                } else if toks[k].is_punct(close.1) {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                k = k.checked_sub(1)?;
            }
            k = k.checked_sub(1)?;
        }
        if toks[k].kind != TokKind::Ident {
            return None;
        }
        match k.checked_sub(1) {
            Some(p) if toks[p].is_punct('.') => {
                k = p.checked_sub(1)?;
            }
            _ => return Some(&toks[k].text),
        }
    }
}

fn rule_d1(toks: &[Tok], findings: &mut Vec<Finding>, input: &FileInput) {
    let marked = hash_bound_names(toks);
    let is_marked = |name: &str| marked.binary_search(&name.to_string()).is_ok();

    for i in 1..toks.len() {
        // `<recv>.method(` where method escapes hash order.
        if toks[i].kind == TokKind::Ident
            && ITER_METHODS.contains(&toks[i].text.as_str())
            && toks[i - 1].is_punct('.')
            && toks.get(i + 1).is_some_and(|t| t.is_punct('('))
        {
            if let Some(base) = receiver_base(toks, i - 1) {
                if is_marked(base) {
                    findings.push(Finding {
                        file: input.rel_path.to_string(),
                        line: toks[i].line,
                        rule: "D1",
                        message: format!(
                            "`.{}()` on hash-ordered `{base}` escapes iteration order; \
                             use a BTreeMap/BTreeSet or an index-ordered traversal",
                            toks[i].text
                        ),
                        suppressed: false,
                        justification: None,
                    });
                }
            }
        }
        // `for … in [&[mut]] <marked> {` — by-value/by-ref loop over the
        // whole collection.
        if toks[i].is_ident("for") {
            let horizon = (i + 1..toks.len().min(i + 24)).find(|&j| toks[j].is_ident("in"));
            if let Some(mut j) = horizon {
                j += 1;
                while j < toks.len() && (toks[j].is_punct('&') || toks[j].is_ident("mut")) {
                    j += 1;
                }
                if j + 1 < toks.len()
                    && toks[j].kind == TokKind::Ident
                    && is_marked(&toks[j].text)
                    && toks[j + 1].is_punct('{')
                {
                    findings.push(Finding {
                        file: input.rel_path.to_string(),
                        line: toks[j].line,
                        rule: "D1",
                        message: format!(
                            "`for … in {}` iterates a hash-ordered collection; \
                             use a BTreeMap/BTreeSet or an index-ordered traversal",
                            toks[j].text
                        ),
                        suppressed: false,
                        justification: None,
                    });
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// D2: pointer-as-value casts
// ---------------------------------------------------------------------

fn rule_d2(toks: &[Tok], findings: &mut Vec<Finding>, input: &FileInput) {
    for i in 0..toks.len() {
        if toks[i].is_ident("as")
            && toks.get(i + 1).is_some_and(|t| t.is_punct('*'))
            && toks
                .get(i + 2)
                .is_some_and(|t| t.is_ident("const") || t.is_ident("mut"))
        {
            findings.push(Finding {
                file: input.rel_path.to_string(),
                line: toks[i].line,
                rule: "D2",
                message: "pointer cast in a deterministic crate (addresses are not stable keys)"
                    .into(),
                suppressed: false,
                justification: None,
            });
        }
    }
}

// ---------------------------------------------------------------------
// D4: NaN-poisoned comparators
// ---------------------------------------------------------------------

fn rule_d4(toks: &[Tok], findings: &mut Vec<Finding>, input: &FileInput) {
    for i in 1..toks.len() {
        if !(toks[i].is_ident("partial_cmp") && toks[i - 1].is_punct('.')) {
            continue;
        }
        // Skip the argument list, then look for `.unwrap(` / `.expect(`.
        let Some(open) = toks.get(i + 1).filter(|t| t.is_punct('(')).map(|_| i + 1) else {
            continue;
        };
        let mut depth = 0i32;
        let mut j = open;
        while j < toks.len() {
            if toks[j].is_punct('(') {
                depth += 1;
            } else if toks[j].is_punct(')') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            j += 1;
        }
        if toks.get(j + 1).is_some_and(|t| t.is_punct('.'))
            && toks
                .get(j + 2)
                .is_some_and(|t| t.is_ident("unwrap") || t.is_ident("expect"))
        {
            findings.push(Finding {
                file: input.rel_path.to_string(),
                line: toks[i].line,
                rule: "D4",
                message: "`partial_cmp(…).unwrap()` panics on NaN; use `f64::total_cmp` or an \
                          explicit `unwrap_or` with a deterministic tie-break"
                    .into(),
                suppressed: false,
                justification: None,
            });
        }
    }
}
