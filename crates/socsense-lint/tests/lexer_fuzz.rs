//! Span-soundness fuzz for the detlint lexer.
//!
//! Two corpora, one contract. Every token the lexer emits must satisfy:
//!
//! 1. `offset` lands on a char boundary and
//!    `src[offset..offset + text.len()] == text` — the span really is
//!    the token (this is the invariant the byte/char confusion bug of
//!    the checkpoint-log PR violated, so it gets its own regression
//!    corpus here);
//! 2. spans never overlap and come out in source order;
//! 3. `line` equals one plus the number of `\n` bytes before `offset`.
//!
//! Corpus A is the live workspace: every `.rs` file under `crates/`,
//! so any real construct the tree grows (raw strings, byte literals,
//! lifetimes, multibyte idents) is covered the day it lands. Corpus B
//! is proptest-generated adversarial soup biased toward lexer edge
//! fragments: unterminated literals, escapes, `b'\n'`, emoji, nested
//! comment openers.

use proptest::prelude::*;
use socsense_lint::lexer::lex;

/// Panics with a labelled message on the first invariant violation.
fn assert_spans_sound(label: &str, src: &str) {
    let lexed = lex(src);
    let mut prev_end = 0usize;
    let mut prev_line = 1u32;
    for (i, tok) in lexed.tokens.iter().enumerate() {
        let start = tok.offset as usize;
        let end = start + tok.text.len();
        assert!(
            end <= src.len(),
            "{label}: token {i} ({:?}) span {start}..{end} exceeds source len {}",
            tok.text,
            src.len()
        );
        let slice = src.get(start..end).unwrap_or_else(|| {
            panic!(
                "{label}: token {i} ({:?}) span {start}..{end} splits a char boundary",
                tok.text
            )
        });
        assert_eq!(
            slice, tok.text,
            "{label}: token {i} span text mismatch at offset {start}"
        );
        assert!(
            start >= prev_end,
            "{label}: token {i} ({:?}) at {start} overlaps the previous token ending at {prev_end}",
            tok.text
        );
        assert!(
            tok.line >= prev_line,
            "{label}: token {i} line {} went backwards from {prev_line}",
            tok.line
        );
        let newlines = src.as_bytes()[..start]
            .iter()
            .filter(|&&b| b == b'\n')
            .count();
        assert_eq!(
            tok.line as usize,
            newlines + 1,
            "{label}: token {i} ({:?}) at offset {start} claims line {}",
            tok.text,
            tok.line
        );
        prev_end = end;
        prev_line = tok.line;
    }
}

fn workspace_rs_files() -> Vec<std::path::PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![socsense_lint::workspace_root().join("crates")];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir).expect("reading workspace dir") {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    out
}

#[test]
fn every_workspace_source_file_lexes_with_sound_spans() {
    let files = workspace_rs_files();
    assert!(
        files.len() > 50,
        "workspace walk looks truncated: {} files",
        files.len()
    );
    for path in files {
        let src = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
        assert_spans_sound(&path.display().to_string(), &src);
    }
}

/// Hand-picked regressions for the byte/char offset class: multibyte
/// characters *before* a token must not shift its reported span, and a
/// newline smuggled inside a byte literal must not advance the line
/// counter twice.
#[test]
fn multibyte_prefixes_and_escaped_newlines_keep_spans_honest() {
    let cases: &[&str] = &[
        "// é commentaire\nlet x = 1;\n",
        "let s = \"🦀🦀🦀\"; let y = s;\n",
        "let b = b'\\n'; let after = 1;\n",
        "let c = '\\n'; let after = 2;\n",
        "let r = r#\"raw \" with quote\"#; next()\n",
        "fn f<'a>(x: &'a str) -> &'a str { x }\n",
        "let émoji = \"noël\"; émoji.len();\n",
        "/* block \n comment */ let z = 0x2a;\n",
        // Unterminated forms must degrade, not panic or mis-span.
        "let s = \"never closed\nlet t = 1;\n",
        "let r = r#\"still open\nlet u = 2;\n",
        "let c = 'x\nlet v = 3;\n",
    ];
    for src in cases {
        assert_spans_sound("regression case", src);
    }
}

/// Fragment pool biased toward every branch of the scanner: string and
/// raw-string openers, char/lifetime ambiguity, comment introducers,
/// directives, multibyte text, and bare structure. The last entries are
/// raw single characters so the soup also hits sequences no fragment
/// anticipates.
const FRAGMENTS: &[&str] = &[
    "\"",
    "'",
    "\\",
    "\n",
    "r#\"",
    "\"#",
    "b\"",
    "b'",
    "b'\\n'",
    "//",
    "/*",
    "*/",
    "// detlint: allow(D1) -- x",
    "// detlint: contract = deterministic",
    "// detlint: protocol",
    "'a",
    "'static",
    "🦀",
    "é",
    "\u{0}",
    "\t",
    "\r\n",
    "0x2a",
    "1_000.5e-3",
    "ident",
    "fn f() { }",
    "match m { _ => {} }",
    "#",
    "{",
    "}",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn adversarial_fragment_soup_lexes_with_sound_spans(
        idxs in vec(0usize..1000, 0..64)
    ) {
        let src: String = idxs
            .iter()
            .map(|&i| FRAGMENTS[i % FRAGMENTS.len()])
            .collect();
        assert_spans_sound("fragment soup", &src);
    }

    #[test]
    fn arbitrary_unicode_lexes_with_sound_spans(
        codes in vec(0u32..0x11_0000, 0..256)
    ) {
        // Surrogate code points do not survive `char::from_u32`; every
        // other scalar value — control bytes, astral plane, BOM — does.
        let src: String = codes.iter().filter_map(|&c| char::from_u32(c)).collect();
        assert_spans_sound("arbitrary unicode", &src);
    }
}
