//! A token-level Rust scanner: string-, comment-, and attribute-aware,
//! in the spirit of `isla_query`'s lexer (the build environment has no
//! registry access, so `syn` is not an option — and the lints only need
//! identifiers, punctuation, and line numbers, not a full AST).
//!
//! The scanner produces three things per file:
//!
//! * a flat token stream ([`Tok`]) with string/char/comment contents
//!   stripped, so lints can match identifiers without false positives
//!   from literals or doc text;
//! * **exempt spans**: token ranges belonging to `#[cfg(test)]` /
//!   `#[cfg(bench)]` / `#[test]` / `#[bench]` items, which the lints
//!   skip — test code may unwrap and reseed freely;
//! * **allow annotations**: `// isla-lint: allow(<lint>, reason = "…")`
//!   escape hatches, each bound to the line it annotates. A missing or
//!   empty reason is itself a finding — the hatch requires a
//!   justification, not just a switch.

/// What a token is. Literal contents are deliberately dropped: lints
/// must never match inside strings, chars, or numbers.
#[derive(Debug, Clone, PartialEq)]
pub enum TokKind {
    /// An identifier or keyword, with its text.
    Ident(String),
    /// A single punctuation character (braces, `.`, `!`, `#`, …).
    Punct(char),
    /// A string/char/number literal (contents stripped).
    Literal,
}

/// One token with its 1-based source line.
#[derive(Debug, Clone, PartialEq)]
pub struct Tok {
    /// The token's kind (and text, for identifiers).
    pub kind: TokKind,
    /// 1-based line the token starts on.
    pub line: u32,
}

impl Tok {
    /// The identifier text, if this token is an identifier.
    pub fn ident(&self) -> Option<&str> {
        match &self.kind {
            TokKind::Ident(name) => Some(name),
            _ => None,
        }
    }

    /// True if this token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct(c)
    }
}

/// An `// isla-lint: allow(<lint>, reason = "…")` annotation.
#[derive(Debug, Clone)]
pub struct Allow {
    /// The lint the annotation suppresses (e.g. `panic-freedom`).
    pub lint: String,
    /// The justification. [`None`] when absent — which is an error the
    /// lint pass reports.
    pub reason: Option<String>,
    /// 1-based line the annotation text sits on.
    pub line: u32,
    /// The line the annotation applies to: its own line for a trailing
    /// comment, the following line for a standalone one.
    pub applies_to: u32,
}

/// A line comment, kept so the unsafe-inventory lint can look for
/// `SAFETY:` justifications above `unsafe` blocks.
#[derive(Debug, Clone)]
pub struct Comment {
    /// 1-based line of the comment.
    pub line: u32,
    /// Text after the `//` (or inside the `/* */`).
    pub text: String,
}

/// A malformed `isla-lint:` annotation, reported as a finding.
#[derive(Debug, Clone)]
pub struct BadAnnotation {
    /// 1-based line of the annotation.
    pub line: u32,
    /// What is wrong with it.
    pub detail: String,
}

/// The scan result for one source file.
#[derive(Debug, Default)]
pub struct Scanned {
    /// The token stream, literals stripped.
    pub tokens: Vec<Tok>,
    /// Parsed allow annotations.
    pub allows: Vec<Allow>,
    /// Annotations that failed to parse.
    pub bad_annotations: Vec<BadAnnotation>,
    /// All comments (line and block), for justification lookups.
    pub comments: Vec<Comment>,
    /// Token index ranges `[start, end]` (inclusive) under a test/bench
    /// `cfg` gate, the gating attribute included.
    pub exempt: Vec<(usize, usize)>,
}

impl Scanned {
    /// True if token `idx` sits inside a test/bench-gated item.
    pub fn is_exempt(&self, idx: usize) -> bool {
        self.exempt.iter().any(|&(s, e)| idx >= s && idx <= e)
    }

    /// Lines holding code: at least one token outside the test/bench
    /// spans — so not blank, not comment-only, not test code.
    pub fn code_lines(&self) -> usize {
        let mut last = 0u32;
        let mut count = 0usize;
        for (idx, tok) in self.tokens.iter().enumerate() {
            if tok.line != last && !self.is_exempt(idx) {
                last = tok.line;
                count += 1;
            }
        }
        count
    }

    /// The allow annotation covering `line` for `lint`, if any.
    pub fn allow_for(&self, line: u32, lint: &str) -> Option<&Allow> {
        self.allows
            .iter()
            .find(|a| a.applies_to == line && a.lint == lint)
    }

    /// True if any comment within `span` lines above `line` contains
    /// `needle` (case-insensitive).
    pub fn comment_above_contains(&self, line: u32, span: u32, needle: &str) -> bool {
        let lo = line.saturating_sub(span);
        let needle = needle.to_ascii_lowercase();
        self.comments
            .iter()
            .any(|c| c.line >= lo && c.line < line && c.text.to_ascii_lowercase().contains(&needle))
    }
}

/// Scans `source`, producing tokens, annotations, and exempt spans.
pub fn scan(source: &str) -> Scanned {
    let chars: Vec<char> = source.chars().collect();
    let mut out = Scanned::default();
    let mut i = 0usize;
    let mut line = 1u32;
    // Tracks whether any token has been emitted on the current line, to
    // distinguish trailing annotations from standalone ones.
    let mut line_has_tokens = false;

    while let Some(&c) = chars.get(i) {
        if c == '\n' {
            line += 1;
            line_has_tokens = false;
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        // Comments.
        if c == '/' && chars.get(i + 1) == Some(&'/') {
            let start = i + 2;
            while chars.get(i).is_some_and(|&c| c != '\n') {
                i += 1;
            }
            let text: String = chars[start..i].iter().collect();
            record_comment(&mut out, &text, line, line_has_tokens);
            continue;
        }
        if c == '/' && chars.get(i + 1) == Some(&'*') {
            let start = i + 2;
            let mut depth = 1u32;
            i += 2;
            let comment_line = line;
            while depth > 0 {
                match (chars.get(i), chars.get(i + 1)) {
                    (Some('/'), Some('*')) => {
                        depth += 1;
                        i += 2;
                    }
                    (Some('*'), Some('/')) => {
                        depth -= 1;
                        i += 2;
                    }
                    (Some(&c), _) => {
                        if c == '\n' {
                            line += 1;
                        }
                        i += 1;
                    }
                    (None, _) => break,
                }
            }
            let end = i.saturating_sub(2).max(start);
            let text: String = chars[start..end].iter().collect();
            record_comment(&mut out, &text, comment_line, line_has_tokens);
            continue;
        }
        // String literals (plain, raw, byte; and byte chars).
        if c == '"' {
            let start_line = line;
            i = consume_string(&chars, i, &mut line);
            out.tokens.push(Tok {
                kind: TokKind::Literal,
                line: start_line,
            });
            line_has_tokens = true;
            continue;
        }
        if (c == 'r' || c == 'b') && is_raw_or_byte_literal(&chars, i) {
            let start_line = line;
            i = consume_prefixed_literal(&chars, i, &mut line);
            out.tokens.push(Tok {
                kind: TokKind::Literal,
                line: start_line,
            });
            line_has_tokens = true;
            continue;
        }
        // Lifetime vs char literal.
        if c == '\'' {
            if let Some(end) = lifetime_end(&chars, i) {
                // A lifetime carries no lint signal; skip it entirely.
                i = end;
                continue;
            }
            let start_line = line;
            i = consume_char_literal(&chars, i, &mut line);
            out.tokens.push(Tok {
                kind: TokKind::Literal,
                line: start_line,
            });
            line_has_tokens = true;
            continue;
        }
        // Numbers.
        if c.is_ascii_digit() {
            i = consume_number(&chars, i);
            out.tokens.push(Tok {
                kind: TokKind::Literal,
                line,
            });
            line_has_tokens = true;
            continue;
        }
        // Identifiers and keywords.
        if c.is_alphabetic() || c == '_' {
            let start = i;
            while chars
                .get(i)
                .is_some_and(|&c| c.is_alphanumeric() || c == '_')
            {
                i += 1;
            }
            let name: String = chars[start..i].iter().collect();
            out.tokens.push(Tok {
                kind: TokKind::Ident(name),
                line,
            });
            line_has_tokens = true;
            continue;
        }
        out.tokens.push(Tok {
            kind: TokKind::Punct(c),
            line,
        });
        line_has_tokens = true;
        i += 1;
    }

    out.exempt = exempt_spans(&out.tokens);
    out
}

/// Records a comment, parsing any `isla-lint:` annotation inside it.
fn record_comment(out: &mut Scanned, text: &str, line: u32, trailing: bool) {
    let trimmed = text
        .trim_start_matches('/')
        .trim_start_matches('!')
        .trim()
        .to_string();
    if let Some(rest) = trimmed.strip_prefix("isla-lint:") {
        match parse_annotation(rest.trim()) {
            Ok((lint, reason)) => out.allows.push(Allow {
                lint,
                reason,
                line,
                applies_to: if trailing { line } else { line + 1 },
            }),
            Err(detail) => out.bad_annotations.push(BadAnnotation { line, detail }),
        }
    }
    out.comments.push(Comment {
        line,
        text: trimmed,
    });
}

/// Parses the body of an annotation: `allow(<lint>[, reason = "…"])`.
fn parse_annotation(body: &str) -> Result<(String, Option<String>), String> {
    let inner = body
        .strip_prefix("allow(")
        .ok_or_else(|| format!("expected `allow(...)`, found {body:?}"))?;
    let inner = inner
        .strip_suffix(')')
        .ok_or_else(|| "missing closing `)`".to_string())?;
    let (lint, rest) = match inner.split_once(',') {
        Some((l, r)) => (l.trim(), Some(r.trim())),
        None => (inner.trim(), None),
    };
    if lint.is_empty() || !lint.chars().all(|c| c.is_ascii_lowercase() || c == '-') {
        return Err(format!("bad lint name {lint:?}"));
    }
    let reason = match rest {
        None => None,
        Some(r) => {
            let r = r
                .strip_prefix("reason")
                .map(str::trim_start)
                .and_then(|r| r.strip_prefix('='))
                .map(str::trim)
                .ok_or_else(|| "expected `reason = \"…\"`".to_string())?;
            let r = r
                .strip_prefix('"')
                .and_then(|r| r.strip_suffix('"'))
                .ok_or_else(|| "reason must be a quoted string".to_string())?;
            Some(r.to_string())
        }
    };
    Ok((lint.to_string(), reason.filter(|r| !r.trim().is_empty())))
}

/// Consumes a `"…"` string starting at the opening quote; returns the
/// index past the closing quote and advances the line counter.
fn consume_string(chars: &[char], mut i: usize, line: &mut u32) -> usize {
    i += 1;
    while let Some(&c) = chars.get(i) {
        match c {
            '\\' => i += 2,
            '"' => return i + 1,
            _ => {
                if c == '\n' {
                    *line += 1;
                }
                i += 1;
            }
        }
    }
    i
}

/// True if position `i` (at `r` or `b`) starts a raw/byte string or a
/// byte-char literal rather than a plain identifier.
fn is_raw_or_byte_literal(chars: &[char], i: usize) -> bool {
    let mut j = i;
    if chars.get(j) == Some(&'b') {
        j += 1;
        if chars.get(j) == Some(&'\'') {
            return true; // b'x'
        }
    }
    if chars.get(j) == Some(&'r') {
        j += 1;
        while chars.get(j) == Some(&'#') {
            j += 1;
        }
    }
    j > i && chars.get(j) == Some(&'"')
}

/// Consumes a raw string (`r#"…"#`), byte string (`b"…"`) or byte char
/// (`b'x'`) starting at its prefix.
fn consume_prefixed_literal(chars: &[char], mut i: usize, line: &mut u32) -> usize {
    let mut raw = false;
    if chars.get(i) == Some(&'b') {
        i += 1;
        if chars.get(i) == Some(&'\'') {
            return consume_char_literal(chars, i, line);
        }
    }
    if chars.get(i) == Some(&'r') {
        raw = true;
        i += 1;
    }
    let mut hashes = 0usize;
    while chars.get(i) == Some(&'#') {
        hashes += 1;
        i += 1;
    }
    if !raw {
        return consume_string(chars, i, line);
    }
    // Raw string: no escapes; ends at `"` followed by `hashes` hashes.
    i += 1; // opening quote
    while let Some(&c) = chars.get(i) {
        if c == '\n' {
            *line += 1;
        }
        if c == '"' && (0..hashes).all(|k| chars.get(i + 1 + k) == Some(&'#')) {
            return i + 1 + hashes;
        }
        i += 1;
    }
    i
}

/// If a `'` at `i` starts a lifetime (`'a`, `'static`), returns the
/// index past it; otherwise [`None`] (it is a char literal).
fn lifetime_end(chars: &[char], i: usize) -> Option<usize> {
    let first = *chars.get(i + 1)?;
    if !(first.is_alphabetic() || first == '_') {
        return None;
    }
    let mut j = i + 2;
    while chars
        .get(j)
        .is_some_and(|&c| c.is_alphanumeric() || c == '_')
    {
        j += 1;
    }
    // `'a'` closes with a quote: a char literal, not a lifetime.
    if chars.get(j) == Some(&'\'') {
        None
    } else {
        Some(j)
    }
}

/// Consumes a char literal starting at the opening `'`.
fn consume_char_literal(chars: &[char], mut i: usize, line: &mut u32) -> usize {
    i += 1;
    while let Some(&c) = chars.get(i) {
        match c {
            '\\' => i += 2,
            '\'' => return i + 1,
            _ => {
                if c == '\n' {
                    *line += 1;
                }
                i += 1;
            }
        }
    }
    i
}

/// Consumes a numeric literal: digits, `_`, type suffixes, and interior
/// dots followed by a digit (so `1.0.max(…)` leaves `.max` alone).
fn consume_number(chars: &[char], mut i: usize) -> usize {
    while let Some(&c) = chars.get(i) {
        if c.is_alphanumeric() || c == '_' {
            i += 1;
        } else if c == '.' && chars.get(i + 1).is_some_and(char::is_ascii_digit) {
            i += 2;
        } else {
            return i;
        }
    }
    i
}

/// Computes token ranges gated behind test/bench attributes:
/// `#[cfg(test)]`, `#[cfg(bench)]`, `#[test]`, `#[bench]`, and any
/// `cfg` combination naming `test` (e.g. `#[cfg(all(test, …))]`).
///
/// A gating attribute exempts itself and the item it gates, through
/// the item's body — the first `{` reached outside parentheses and its
/// matching `}`; a `;` first (e.g. `#[cfg(test)] mod tests;`) exempts
/// nothing.
fn exempt_spans(tokens: &[Tok]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].is_punct('#') && tokens.get(i + 1).is_some_and(|t| t.is_punct('[')) {
            // Collect the attribute's identifiers up to the matching `]`.
            let mut depth = 0i32;
            let mut idents: Vec<&str> = Vec::new();
            let mut j = i + 1;
            while let Some(t) = tokens.get(j) {
                if t.is_punct('[') {
                    depth += 1;
                } else if t.is_punct(']') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                } else if let Some(name) = t.ident() {
                    idents.push(name);
                }
                j += 1;
            }
            let gates_test = (idents.contains(&"cfg")
                && (idents.contains(&"test") || idents.contains(&"bench")))
                || (idents.len() == 1 && (idents[0] == "test" || idents[0] == "bench"));
            if gates_test {
                if let Some((_, close)) = item_body_after(tokens, j + 1) {
                    spans.push((i, close));
                    i = close + 1;
                    continue;
                }
            }
            i = j + 1;
            continue;
        }
        i += 1;
    }
    spans
}

/// Finds the body of the item starting at `from`: the first `{` outside
/// parentheses (skipping further attributes), through its matching `}`.
fn item_body_after(tokens: &[Tok], from: usize) -> Option<(usize, usize)> {
    let mut parens = 0i32;
    let mut j = from;
    let open = loop {
        let t = tokens.get(j)?;
        if t.is_punct('(') {
            parens += 1;
        } else if t.is_punct(')') {
            parens -= 1;
        } else if t.is_punct('{') && parens == 0 {
            break j;
        } else if t.is_punct(';') && parens == 0 {
            return None;
        }
        j += 1;
    };
    let mut depth = 0i32;
    let mut k = open;
    while let Some(t) = tokens.get(k) {
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return Some((open, k));
            }
        }
        k += 1;
    }
    // Unbalanced braces: exempt through end of file, conservatively.
    Some((open, tokens.len().saturating_sub(1)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(s: &Scanned) -> Vec<&str> {
        s.tokens.iter().filter_map(Tok::ident).collect()
    }

    #[test]
    fn strings_comments_and_chars_are_stripped() {
        let s = scan(
            r##"
            fn f() {
                let a = "unwrap() inside a string";
                let b = r#"panic! in a raw string"#;
                let c = 'x';
                let d = b"thread_rng";
                // unwrap in a comment
                /* nested /* block */ expect */
                g(a, b, c, d);
            }
            "##,
        );
        let ids = idents(&s);
        assert!(!ids.contains(&"unwrap"));
        assert!(!ids.contains(&"panic"));
        assert!(!ids.contains(&"thread_rng"));
        assert!(!ids.contains(&"expect"));
        assert!(ids.contains(&"g"));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let s = scan("fn f<'a>(x: &'a str) -> &'a str { x } const C: char = 'y';");
        let ids = idents(&s);
        assert!(ids.contains(&"str"));
        // The 'y' literal must not swallow the trailing semicolon.
        assert!(s.tokens.iter().any(|t| t.is_punct(';')));
    }

    #[test]
    fn numbers_keep_method_calls_separate() {
        let s = scan("let x = 1.0.max(2.5e-3);");
        let ids = idents(&s);
        assert!(ids.contains(&"max"));
    }

    #[test]
    fn line_numbers_are_one_based_and_advance() {
        let s = scan("a\nb\n\nc");
        let lines: Vec<u32> = s.tokens.iter().map(|t| t.line).collect();
        assert_eq!(lines, vec![1, 2, 4]);
    }

    #[test]
    fn code_lines_skip_blanks_comments_and_test_items() {
        let s = scan(
            "//! Module docs.\n\
             \n\
             /// Item docs.\n\
             pub fn lib() -> u32 {\n\
             \x20   // a comment-only line\n\
             \x20   1 + 1 // trailing comments keep the line\n\
             }\n\
             \n\
             #[cfg(test)]\n\
             mod tests {\n\
             \x20   fn helper() {}\n\
             }\n",
        );
        assert_eq!(s.code_lines(), 3, "signature, body, closing brace");
    }

    #[test]
    fn cfg_test_mod_is_exempt() {
        let s = scan(
            "fn live() { x.unwrap(); }\n\
             #[cfg(test)]\n\
             mod tests {\n\
                 fn t() { y.unwrap(); }\n\
             }\n",
        );
        let unwraps: Vec<usize> = s
            .tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| t.ident() == Some("unwrap"))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(unwraps.len(), 2);
        assert!(!s.is_exempt(unwraps[0]), "library unwrap is live");
        assert!(s.is_exempt(unwraps[1]), "test unwrap is exempt");
    }

    #[test]
    fn test_attribute_with_intervening_attrs_is_exempt() {
        let s = scan(
            "#[test]\n#[should_panic(expected = \"boom\")]\nfn t() { z.unwrap(); }\nfn live() { w.unwrap(); }\n",
        );
        let unwraps: Vec<usize> = s
            .tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| t.ident() == Some("unwrap"))
            .map(|(i, _)| i)
            .collect();
        assert!(s.is_exempt(unwraps[0]));
        assert!(!s.is_exempt(unwraps[1]));
    }

    #[test]
    fn cfg_test_path_declaration_exempts_nothing() {
        let s = scan("#[cfg(test)]\nmod tests;\nfn live() { v.unwrap(); }\n");
        let unwrap_idx = s
            .tokens
            .iter()
            .position(|t| t.ident() == Some("unwrap"))
            .expect("unwrap token");
        assert!(!s.is_exempt(unwrap_idx));
    }

    #[test]
    fn allow_annotations_parse_with_reason_and_placement() {
        let s = scan(
            "// isla-lint: allow(panic-freedom, reason = \"checked above\")\n\
             x.unwrap();\n\
             y.unwrap(); // isla-lint: allow(determinism, reason = \"derived seed\")\n",
        );
        assert_eq!(s.allows.len(), 2);
        assert_eq!(s.allows[0].lint, "panic-freedom");
        assert_eq!(s.allows[0].applies_to, 2, "standalone covers next line");
        assert_eq!(s.allows[0].reason.as_deref(), Some("checked above"));
        assert_eq!(s.allows[1].lint, "determinism");
        assert_eq!(s.allows[1].applies_to, 3, "trailing covers its own line");
    }

    #[test]
    fn allow_without_reason_is_recorded_as_reasonless() {
        let s = scan("// isla-lint: allow(panic-freedom)\nx.unwrap();\n");
        assert_eq!(s.allows.len(), 1);
        assert!(s.allows[0].reason.is_none());
        let s = scan("// isla-lint: allow(panic-freedom, reason = \"  \")\nx.unwrap();\n");
        assert!(s.allows[0].reason.is_none(), "blank reason is no reason");
    }

    #[test]
    fn malformed_annotations_are_reported() {
        let s = scan("// isla-lint: allow panic\nx.unwrap();\n");
        assert_eq!(s.bad_annotations.len(), 1);
        let s = scan("// isla-lint: allow(Panic!)\n");
        assert_eq!(s.bad_annotations.len(), 1);
    }

    #[test]
    fn comments_above_are_searchable() {
        let s = scan("// SAFETY: bounds checked by the loop above\nunsafe { go(); }\n");
        let unsafe_line = s
            .tokens
            .iter()
            .find(|t| t.ident() == Some("unsafe"))
            .map(|t| t.line)
            .expect("unsafe token");
        assert!(s.comment_above_contains(unsafe_line, 3, "safety"));
        assert!(!s.comment_above_contains(unsafe_line, 3, "audited"));
    }
}
