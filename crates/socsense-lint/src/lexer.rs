//! A minimal hand-rolled Rust lexer: enough structure for the detlint
//! rules, nothing more.
//!
//! The lexer strips comments, string literals (plain, raw, byte), and
//! character literals — so a rule pattern appearing inside a string or
//! a doc comment can never fire — and returns the remaining source as
//! a flat token stream with line numbers. It is deliberately not a
//! parser: rules match token shapes (`ident . ident (`), because the
//! workspace vendors no `syn`.
//!
//! Comments are not discarded entirely: `// detlint: …` directives
//! (contract declarations and scoped suppressions) are extracted into
//! [`Directive`]s as a side channel. Only *line* comments can carry
//! directives; a directive quoted inside a doc example (e.g.
//! `//! // detlint: …`) still starts with `//` after the comment
//! introducer is stripped and is therefore ignored.

/// What kind of token a [`Tok`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`let`, `HashMap`, `for`, …).
    Ident,
    /// Numeric literal (the whole literal is one token).
    Number,
    /// A single punctuation character (`.`, `:`, `(`, …). Multi-char
    /// operators appear as consecutive punct tokens.
    Punct,
}

/// One token of stripped source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tok {
    /// 1-based source line the token starts on.
    pub line: u32,
    /// Byte offset of the token's first character in the original
    /// source. For a lifetime, the offset of the name (past the `'`),
    /// so `src[offset..offset + text.len()] == text` holds for every
    /// token the lexer emits.
    pub offset: u32,
    /// Token class.
    pub kind: TokKind,
    /// Token text (single character for punctuation).
    pub text: String,
}

impl Tok {
    /// Whether this token is the identifier `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    /// Whether this token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct && self.text.len() == 1 && self.text.starts_with(c)
    }
}

/// A `// detlint: …` comment extracted during lexing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Directive {
    /// `// detlint: contract = <name>` — the per-crate contract
    /// declaration (meaningful only in a crate root file).
    Contract {
        /// 1-based line of the comment.
        line: u32,
        /// Declared contract name, e.g. `deterministic`.
        value: String,
    },
    /// `// detlint: protocol` — marks the enum declared on the next
    /// line(s) as a protocol message type whose matches the C2/C3
    /// rules audit for exhaustiveness and reply discipline.
    Protocol {
        /// 1-based line of the comment.
        line: u32,
    },
    /// `// detlint: allow(D1, …) -- justification` — suppresses the
    /// named rules on this line and the next.
    Allow {
        /// 1-based line of the comment.
        line: u32,
        /// Uppercased rule ids named in the parentheses.
        rules: Vec<String>,
        /// Text after `--`, trimmed; empty when omitted (an error the
        /// rules layer reports).
        justification: String,
    },
    /// A `detlint:` comment that parses as neither of the above.
    Malformed {
        /// 1-based line of the comment.
        line: u32,
        /// Why it did not parse.
        message: String,
    },
}

/// Lexer output: the stripped token stream plus extracted directives.
#[derive(Debug, Default)]
pub struct Lexed {
    /// Tokens in source order.
    pub tokens: Vec<Tok>,
    /// Directives in source order.
    pub directives: Vec<Directive>,
}

/// Lexes `src`, stripping comments/strings/chars and extracting
/// `detlint:` directives. Never fails: malformed input (unterminated
/// literals, stray bytes) degrades to fewer tokens, not an error, so a
/// half-edited file still lints.
pub fn lex(src: &str) -> Lexed {
    let mut chars: Vec<char> = Vec::with_capacity(src.len());
    // Byte offset of each char (plus a sentinel at the end), so token
    // spans can be reported in byte terms while the scanner itself
    // stays a simple char-index walk.
    let mut bytes: Vec<u32> = Vec::with_capacity(src.len() + 1);
    for (off, c) in src.char_indices() {
        bytes.push(off as u32);
        chars.push(c);
    }
    bytes.push(src.len() as u32);
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line = 1u32;

    while i < chars.len() {
        let c = chars[i];
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '/' if chars.get(i + 1) == Some(&'/') => {
                let start = i;
                while i < chars.len() && chars[i] != '\n' {
                    i += 1;
                }
                let text: String = chars[start..i].iter().collect();
                if let Some(d) = parse_directive(&text, line) {
                    out.directives.push(d);
                }
            }
            '/' if chars.get(i + 1) == Some(&'*') => {
                // Nested block comments, counting lines.
                let mut depth = 1usize;
                i += 2;
                while i < chars.len() && depth > 0 {
                    match (chars[i], chars.get(i + 1)) {
                        ('/', Some('*')) => {
                            depth += 1;
                            i += 2;
                        }
                        ('*', Some('/')) => {
                            depth -= 1;
                            i += 2;
                        }
                        ('\n', _) => {
                            line += 1;
                            i += 1;
                        }
                        _ => i += 1,
                    }
                }
            }
            '"' => i = skip_string(&chars, i, &mut line),
            '\'' => i = skip_char_or_lifetime(&chars, &bytes, i, &mut line, &mut out.tokens),
            c if c.is_alphabetic() || c == '_' => {
                let start = i;
                while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                let text: String = chars[start..i].iter().collect();
                // `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#`: the "identifier"
                // is a string prefix — consume the literal instead.
                let next = chars.get(i).copied();
                if matches!(text.as_str(), "r" | "b" | "br")
                    && (next == Some('"') || (text != "b" && next == Some('#')))
                {
                    i = skip_raw_or_plain_string(&chars, i, &mut line);
                    continue;
                }
                if text == "b" && next == Some('\'') {
                    // `i` already points at the opening quote; a byte
                    // char like `b'\n'` is never a lifetime.
                    i = skip_char_or_lifetime(&chars, &bytes, i, &mut line, &mut out.tokens);
                    continue;
                }
                out.tokens.push(Tok {
                    line,
                    offset: bytes[start],
                    kind: TokKind::Ident,
                    text,
                });
            }
            c if c.is_ascii_digit() => {
                let start = i;
                i += 1;
                while i < chars.len()
                    && (chars[i].is_alphanumeric() || chars[i] == '_' || chars[i] == '.')
                {
                    // `0..n`: a second dot ends the literal; `1.max(2)`:
                    // a dot followed by an identifier is a method call.
                    if chars[i] == '.' {
                        match chars.get(i + 1) {
                            Some(&d) if d.is_ascii_digit() => {}
                            _ => break,
                        }
                    }
                    i += 1;
                }
                out.tokens.push(Tok {
                    line,
                    offset: bytes[start],
                    kind: TokKind::Number,
                    text: chars[start..i].iter().collect(),
                });
            }
            _ => {
                out.tokens.push(Tok {
                    line,
                    offset: bytes[i],
                    kind: TokKind::Punct,
                    text: c.to_string(),
                });
                i += 1;
            }
        }
    }
    out
}

/// Skips a plain `"…"` string starting at the opening quote; returns
/// the index past the closing quote.
fn skip_string(chars: &[char], mut i: usize, line: &mut u32) -> usize {
    debug_assert_eq!(chars[i], '"');
    i += 1;
    while i < chars.len() {
        match chars[i] {
            // A line-continuation (`\` at end of line) swallows a real
            // newline; it still has to count toward the line number.
            '\\' => {
                if chars.get(i + 1) == Some(&'\n') {
                    *line += 1;
                }
                i += 2;
            }
            '\n' => {
                *line += 1;
                i += 1;
            }
            '"' => return i + 1,
            _ => i += 1,
        }
    }
    i
}

/// Skips a raw (`#`-fenced) or plain string whose prefix identifier was
/// already consumed; `i` points at `"` or the first `#`.
fn skip_raw_or_plain_string(chars: &[char], mut i: usize, line: &mut u32) -> usize {
    let mut hashes = 0usize;
    while chars.get(i) == Some(&'#') {
        hashes += 1;
        i += 1;
    }
    if chars.get(i) != Some(&'"') {
        return i; // not actually a string; resume normal lexing
    }
    if hashes == 0 {
        // `r"…"` has no escapes but also no fence; close on bare quote.
        i += 1;
        while i < chars.len() {
            match chars[i] {
                '\n' => {
                    *line += 1;
                    i += 1;
                }
                '"' => return i + 1,
                _ => i += 1,
            }
        }
        return i;
    }
    i += 1;
    // Close on `"` followed by `hashes` `#`s.
    while i < chars.len() {
        if chars[i] == '\n' {
            *line += 1;
            i += 1;
            continue;
        }
        if chars[i] == '"'
            && chars[i + 1..]
                .iter()
                .take(hashes)
                .filter(|&&c| c == '#')
                .count()
                == hashes
        {
            return i + 1 + hashes;
        }
        i += 1;
    }
    i
}

/// Distinguishes `'a'` / `'\n'` (char literal, skipped) from `'a`
/// (lifetime, whose name is emitted as a plain identifier token). `i`
/// points at the opening quote.
fn skip_char_or_lifetime(
    chars: &[char],
    bytes: &[u32],
    i: usize,
    line: &mut u32,
    tokens: &mut Vec<Tok>,
) -> usize {
    debug_assert_eq!(chars[i], '\'');
    match chars.get(i + 1) {
        // Escape: a char literal for sure. `'\''`, `'\n'`, `'\u{…}'`.
        // Malformed input can put real newlines before the closing
        // quote; they still count toward the line number.
        Some('\\') => {
            let mut j = i + 2;
            while j < chars.len() && chars[j] != '\'' {
                if chars[j] == '\n' {
                    *line += 1;
                }
                j += 1;
            }
            j + 1
        }
        // `'x'` where the char after x closes the quote: char literal.
        // Anything else (`'a`, `'static`, `'_`) is a lifetime.
        Some(&c) if c != '\'' => {
            if chars.get(i + 2) == Some(&'\'') {
                if c == '\n' {
                    *line += 1;
                }
                i + 3
            } else {
                let mut j = i + 1;
                while j < chars.len() && (chars[j].is_alphanumeric() || chars[j] == '_') {
                    j += 1;
                }
                if j > i + 1 {
                    tokens.push(Tok {
                        line: *line,
                        offset: bytes[i + 1],
                        kind: TokKind::Ident,
                        text: chars[i + 1..j].iter().collect(),
                    });
                }
                j
            }
        }
        _ => i + 1,
    }
}

/// Parses one line comment into a [`Directive`], if it is one.
///
/// `text` includes the leading `//`. Exactly the comment introducer is
/// stripped (`//`, then one optional doc marker `/` or `!`) — so a
/// directive *quoted* in a doc example keeps its inner `//` and does
/// not register.
fn parse_directive(text: &str, line: u32) -> Option<Directive> {
    let body = text.strip_prefix("//")?;
    let body = body
        .strip_prefix('/')
        .or_else(|| body.strip_prefix('!'))
        .unwrap_or(body);
    let body = body.trim_start();
    let rest = body.strip_prefix("detlint:")?.trim();

    if let Some(decl) = rest.strip_prefix("contract") {
        let decl = decl.trim_start();
        let Some(value) = decl.strip_prefix('=') else {
            return Some(Directive::Malformed {
                line,
                message: "contract declaration must be `contract = <name>`".into(),
            });
        };
        return Some(Directive::Contract {
            line,
            value: value.trim().to_string(),
        });
    }

    if rest == "protocol" {
        return Some(Directive::Protocol { line });
    }

    if let Some(after) = rest.strip_prefix("allow") {
        let after = after.trim_start();
        let Some(after) = after.strip_prefix('(') else {
            return Some(Directive::Malformed {
                line,
                message: "suppression must be `allow(<rules>) -- <justification>`".into(),
            });
        };
        let Some(close) = after.find(')') else {
            return Some(Directive::Malformed {
                line,
                message: "unclosed rule list in allow(…)".into(),
            });
        };
        let rules: Vec<String> = after[..close]
            .split(',')
            .map(|r| r.trim().to_ascii_uppercase())
            .filter(|r| !r.is_empty())
            .collect();
        if rules.is_empty() {
            return Some(Directive::Malformed {
                line,
                message: "allow(…) names no rules".into(),
            });
        }
        let tail = after[close + 1..].trim();
        let justification = tail.strip_prefix("--").map(str::trim).unwrap_or("");
        return Some(Directive::Allow {
            line,
            rules,
            justification: justification.to_string(),
        });
    }

    Some(Directive::Malformed {
        line,
        message: format!("unknown detlint directive `{rest}`"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn strings_and_comments_are_stripped() {
        let src = r##"
// HashMap in a comment
/* HashMap in /* a nested */ block */
let x = "HashMap::iter()";
let y = r#"SystemTime"#;
let z = 'H';
let l: &'static str = "thread_rng";
"##;
        let ids = idents(src);
        assert!(ids.iter().all(|t| !t.contains("HashMap")), "{ids:?}");
        assert!(ids.iter().all(|t| t != "SystemTime"), "{ids:?}");
        assert!(ids.iter().all(|t| t != "thread_rng"), "{ids:?}");
        assert!(ids.contains(&"static".to_string()), "lifetime name lexes");
    }

    #[test]
    fn line_numbers_survive_multiline_literals() {
        let src = "let a = \"x\ny\";\nlet b = 1;";
        let toks = lex(src).tokens;
        let b = toks.iter().find(|t| t.is_ident("b")).unwrap();
        assert_eq!(b.line, 3);
    }

    #[test]
    fn char_literal_with_escaped_quote() {
        let toks = lex(r"let q = '\''; let after = 1;").tokens;
        assert!(toks.iter().any(|t| t.is_ident("after")));
    }

    #[test]
    fn byte_char_literals_are_skipped() {
        // Regression: the `b'…'` path used to hand the lexer the char
        // *after* the opening quote, so an escaped byte like `b'\n'`
        // derailed it.
        let toks = lex(r"line.push(b'\n'); let sep = b' '; let after = 1;").tokens;
        assert!(toks.iter().any(|t| t.is_ident("after")));
        assert!(!toks.iter().any(|t| t.is_ident("n")), "{toks:?}");
    }

    #[test]
    fn numeric_range_does_not_eat_dots() {
        let toks = lex("for i in 0..n {}").tokens;
        assert!(toks.iter().any(|t| t.is_ident("n")));
        assert_eq!(toks.iter().filter(|t| t.is_punct('.')).count(), 2);
    }

    #[test]
    fn directives_parse() {
        let src = "\n// detlint: contract = deterministic\n// detlint: allow(D1, d2) -- keyed scan\n// detlint: allow(D4)\n//! // detlint: contract = tooling\n";
        let d = lex(src).directives;
        assert_eq!(d.len(), 3, "doc-quoted directive ignored: {d:?}");
        assert_eq!(
            d[0],
            Directive::Contract {
                line: 2,
                value: "deterministic".into()
            }
        );
        assert_eq!(
            d[1],
            Directive::Allow {
                line: 3,
                rules: vec!["D1".into(), "D2".into()],
                justification: "keyed scan".into()
            }
        );
        assert_eq!(
            d[2],
            Directive::Allow {
                line: 4,
                rules: vec!["D4".into()],
                justification: String::new()
            }
        );
    }

    #[test]
    fn malformed_directives_are_reported() {
        let d = lex("// detlint: allow D1\n// detlint: frobnicate\n").directives;
        assert!(matches!(d[0], Directive::Malformed { line: 1, .. }));
        assert!(matches!(d[1], Directive::Malformed { line: 2, .. }));
    }
}
