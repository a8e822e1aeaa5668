//! A hand-rolled Rust tokenizer: just enough lexical fidelity for
//! source-invariant analysis, with none of a real frontend's weight.
//!
//! The analyzer's rules reason about token *sequences* — `.lock()` calls,
//! `Ordering::Relaxed` arguments, `fail::set("name")` string literals —
//! so the lexer must get the hard cases right that naive regex scans
//! mangle: raw strings (`r#"..."#`), nested block comments, `'a` lifetime
//! vs `'a'` char literal, raw identifiers (`r#match`), and byte strings.
//! It must also never panic: it runs over arbitrary fixture snippets and
//! property-generated garbage, and a diagnostics tool that crashes on the
//! code it audits is worse than no tool.
//!
//! Guarantees:
//! - total: every input produces a token stream (unknown bytes become
//!   [`TokKind::Punct`] / are skipped, unterminated literals run to EOF);
//! - spans are strictly monotone in byte offset and non-decreasing in
//!   line, so diagnostics always point at or after the previous token.

/// One lexical token with its source position (1-based line/column).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// What the token is.
    pub kind: TokKind,
    /// 1-based line of the token's first character.
    pub line: u32,
    /// 1-based column of the token's first character.
    pub col: u32,
    /// Byte offset of the token's first character.
    pub byte: usize,
}

/// Token payloads. Only the shapes the rules consume are distinguished;
/// all operators and delimiters surface as single-character [`Punct`]s
/// (consumers check adjacency for `::`, `->`, etc.).
///
/// [`Punct`]: TokKind::Punct
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword; raw identifiers are normalized (`r#match`
    /// lexes as `Ident("match")`).
    Ident(String),
    /// `'a`, `'static` — distinguished from char literals.
    Lifetime(String),
    /// String literal of any flavor (cooked, raw, byte, raw byte) with
    /// the *content* (escapes resolved for `\"`, `\\`, `\n`, `\t`, `\r`,
    /// `\0`; other escapes kept verbatim — failpoint names never use
    /// them).
    Str(String),
    /// Char or byte-char literal; content is irrelevant to every rule.
    Char,
    /// Numeric literal (raw text, suffix included).
    Num(String),
    /// Any other single character.
    Punct(char),
}

/// Lexer output: the token stream plus the `// sast:` control comments,
/// which rules consult for suppressions and justifications.
#[derive(Debug, Default)]
pub struct Lexed {
    /// Every token, in source order.
    pub tokens: Vec<Token>,
    /// `(line, text)` for every comment of the form `// sast: <text>`,
    /// with `text` trimmed. A marker suppresses/justifies findings on its
    /// own line or the line directly below (annotation-above style).
    pub markers: Vec<(u32, String)>,
}

impl Lexed {
    /// The `sast:` marker visible from `line` (same line or the one
    /// above), if any.
    pub(crate) fn marker_at(&self, line: u32) -> Option<&str> {
        self.markers
            .iter()
            .find(|(l, _)| *l == line || *l + 1 == line)
            .map(|(_, t)| t.as_str())
    }
}

struct Cursor<'a> {
    chars: Vec<(usize, char)>,
    src_len: usize,
    i: usize,
    line: u32,
    col: u32,
    _src: &'a str,
}

impl<'a> Cursor<'a> {
    fn new(src: &'a str) -> Self {
        Cursor {
            chars: src.char_indices().collect(),
            src_len: src.len(),
            i: 0,
            line: 1,
            col: 1,
            _src: src,
        }
    }

    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.i + ahead).map(|&(_, c)| c)
    }

    fn byte(&self) -> usize {
        self.chars
            .get(self.i)
            .map(|&(b, _)| b)
            .unwrap_or(self.src_len)
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek(0)?;
        self.i += 1;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn done(&self) -> bool {
        self.i >= self.chars.len()
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Tokenizes `src`. Total and panic-free by construction: the main loop
/// always consumes at least one character per iteration.
pub fn lex(src: &str) -> Lexed {
    let mut cur = Cursor::new(src);
    let mut out = Lexed::default();
    while !cur.done() {
        let (line, col, byte) = (cur.line, cur.col, cur.byte());
        let c = match cur.peek(0) {
            Some(c) => c,
            None => break,
        };
        if c.is_whitespace() {
            cur.bump();
            continue;
        }
        if c == '/' && cur.peek(1) == Some('/') {
            line_comment(&mut cur, &mut out, line);
            continue;
        }
        if c == '/' && cur.peek(1) == Some('*') {
            block_comment(&mut cur);
            continue;
        }
        if c == '"' {
            cur.bump();
            let s = cooked_string(&mut cur);
            push(&mut out, TokKind::Str(s), line, col, byte);
            continue;
        }
        if c == '\'' {
            char_or_lifetime(&mut cur, &mut out, line, col, byte);
            continue;
        }
        if is_ident_start(c) {
            ident_or_prefixed_literal(&mut cur, &mut out, line, col, byte);
            continue;
        }
        if c.is_ascii_digit() {
            let n = number(&mut cur);
            push(&mut out, TokKind::Num(n), line, col, byte);
            continue;
        }
        cur.bump();
        push(&mut out, TokKind::Punct(c), line, col, byte);
    }
    out
}

fn push(out: &mut Lexed, kind: TokKind, line: u32, col: u32, byte: usize) {
    out.tokens.push(Token {
        kind,
        line,
        col,
        byte,
    });
}

fn line_comment(cur: &mut Cursor, out: &mut Lexed, line: u32) {
    let mut text = String::new();
    while let Some(c) = cur.peek(0) {
        if c == '\n' {
            break;
        }
        text.push(c);
        cur.bump();
    }
    // `// sast: relaxed-ok reason` / `// sast: allow QS0003 reason`
    let body = text.trim_start_matches('/').trim_start_matches('!').trim();
    if let Some(rest) = body.strip_prefix("sast:") {
        out.markers.push((line, rest.trim().to_string()));
    }
}

fn block_comment(cur: &mut Cursor) {
    cur.bump(); // '/'
    cur.bump(); // '*'
    let mut depth = 1usize;
    while depth > 0 {
        match (cur.peek(0), cur.peek(1)) {
            (Some('/'), Some('*')) => {
                cur.bump();
                cur.bump();
                depth += 1;
            }
            (Some('*'), Some('/')) => {
                cur.bump();
                cur.bump();
                depth -= 1;
            }
            (Some(_), _) => {
                cur.bump();
            }
            (None, _) => break, // unterminated: runs to EOF, no panic
        }
    }
}

/// Content of a cooked string whose opening `"` is already consumed.
fn cooked_string(cur: &mut Cursor) -> String {
    let mut s = String::new();
    while let Some(c) = cur.bump() {
        match c {
            '"' => break,
            '\\' => match cur.bump() {
                Some('n') => s.push('\n'),
                Some('t') => s.push('\t'),
                Some('r') => s.push('\r'),
                Some('0') => s.push('\0'),
                Some('"') => s.push('"'),
                Some('\\') => s.push('\\'),
                Some(other) => {
                    // Unknown escape: keep verbatim (rules never depend
                    // on exotic escapes; fidelity beats rejection).
                    s.push('\\');
                    s.push(other);
                }
                None => break,
            },
            _ => s.push(c),
        }
    }
    s
}

/// Raw string body after the `r`/`br` prefix: consumes `#…"` then scans
/// for `"` followed by the same number of `#`s.
fn raw_string(cur: &mut Cursor) -> String {
    let mut hashes = 0usize;
    while cur.peek(0) == Some('#') {
        cur.bump();
        hashes += 1;
    }
    if cur.peek(0) == Some('"') {
        cur.bump();
    }
    let mut s = String::new();
    'scan: while let Some(c) = cur.bump() {
        if c == '"' {
            let mut k = 0usize;
            while k < hashes {
                if cur.peek(k) != Some('#') {
                    // A quote with too few hashes is content.
                    s.push('"');
                    for _ in 0..k {
                        s.push('#');
                        cur.bump();
                    }
                    continue 'scan;
                }
                k += 1;
            }
            for _ in 0..hashes {
                cur.bump();
            }
            break;
        }
        s.push(c);
    }
    s
}

fn char_or_lifetime(cur: &mut Cursor, out: &mut Lexed, line: u32, col: u32, byte: usize) {
    cur.bump(); // the opening '
    match (cur.peek(0), cur.peek(1)) {
        // Escape ⇒ char literal: consume to the closing quote.
        (Some('\\'), _) => {
            cur.bump();
            cur.bump(); // the escaped char ('\'' included — handled here)
            while let Some(c) = cur.bump() {
                if c == '\'' {
                    break;
                }
            }
            push(out, TokKind::Char, line, col, byte);
        }
        // 'x' ⇒ char literal.
        (Some(_), Some('\'')) => {
            cur.bump();
            cur.bump();
            push(out, TokKind::Char, line, col, byte);
        }
        // 'ident ⇒ lifetime.
        (Some(c), _) if is_ident_start(c) => {
            let mut name = String::new();
            while let Some(c) = cur.peek(0) {
                if !is_ident_continue(c) {
                    break;
                }
                name.push(c);
                cur.bump();
            }
            push(out, TokKind::Lifetime(name), line, col, byte);
        }
        // Stray quote (e.g. inside macro garbage): emit as punct.
        _ => push(out, TokKind::Punct('\''), line, col, byte),
    }
}

fn ident_or_prefixed_literal(cur: &mut Cursor, out: &mut Lexed, line: u32, col: u32, byte: usize) {
    let c = cur.peek(0).unwrap_or('_');
    // Raw / byte string prefixes: r" r#" b" br" br#"  — and the raw
    // identifier prefix r#ident.
    if c == 'r' || c == 'b' {
        let mut j = 1usize;
        if c == 'b' && cur.peek(1) == Some('r') {
            j = 2;
        }
        let mut hashes = 0usize;
        while cur.peek(j + hashes) == Some('#') {
            hashes += 1;
        }
        let after = cur.peek(j + hashes);
        let is_raw_capable = c == 'r' || j == 2; // r… or br…
        if after == Some('"')
            && (hashes == 0 || is_raw_capable)
            && (c != 'b' || j == 2 || hashes == 0)
        {
            if c == 'b' && j == 1 && hashes == 0 {
                // b"..." — cooked byte string.
                cur.bump(); // b
                cur.bump(); // "
                let s = cooked_string(cur);
                push(out, TokKind::Str(s), line, col, byte);
                return;
            }
            if is_raw_capable {
                for _ in 0..j {
                    cur.bump();
                }
                let s = raw_string(cur);
                push(out, TokKind::Str(s), line, col, byte);
                return;
            }
        }
        if c == 'b' && j == 1 && cur.peek(1) == Some('\'') {
            // b'x' — byte char.
            cur.bump(); // b
            char_or_lifetime(cur, out, line, col, byte);
            // char_or_lifetime pushed Char (or Lifetime for b'a — which
            // is not valid Rust anyway); either way we consumed it.
            return;
        }
        if c == 'r' && hashes == 1 && after.map(is_ident_start).unwrap_or(false) {
            // r#ident — raw identifier, normalized to the bare name.
            cur.bump(); // r
            cur.bump(); // #
            let name = plain_ident(cur);
            push(out, TokKind::Ident(name), line, col, byte);
            return;
        }
    }
    let name = plain_ident(cur);
    push(out, TokKind::Ident(name), line, col, byte);
}

fn plain_ident(cur: &mut Cursor) -> String {
    let mut name = String::new();
    while let Some(c) = cur.peek(0) {
        if !is_ident_continue(c) {
            break;
        }
        name.push(c);
        cur.bump();
    }
    if name.is_empty() {
        // Defensive: caller guaranteed an ident-start char, but never
        // loop without consuming.
        if let Some(c) = cur.bump() {
            name.push(c);
        }
    }
    name
}

fn number(cur: &mut Cursor) -> String {
    let mut n = String::new();
    while let Some(c) = cur.peek(0) {
        if c.is_ascii_alphanumeric() || c == '_' {
            n.push(c);
            cur.bump();
        } else {
            break;
        }
    }
    // Fraction: only when `.` is followed by a digit (so `1..n` ranges
    // and `1.method()` stay untouched).
    if cur.peek(0) == Some('.') && cur.peek(1).map(|c| c.is_ascii_digit()).unwrap_or(false) {
        n.push('.');
        cur.bump();
        while let Some(c) = cur.peek(0) {
            if c.is_ascii_alphanumeric() || c == '_' {
                n.push(c);
                cur.bump();
            } else {
                break;
            }
        }
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter_map(|t| match t.kind {
                TokKind::Ident(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    fn strings(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter_map(|t| match t.kind {
                TokKind::Str(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn raw_strings_with_hashes_and_embedded_quotes() {
        assert_eq!(
            strings(r####"let x = r#"a "quoted" b"#;"####),
            vec![r#"a "quoted" b"#]
        );
        assert_eq!(strings("r\"plain\""), vec!["plain"]);
        assert_eq!(strings("br#\"bytes\"#"), vec!["bytes"]);
        // A quote with too few hashes is content, not a terminator.
        assert_eq!(strings("r##\"one \"# two\"##"), vec!["one \"# two"]);
    }

    #[test]
    fn raw_identifiers_normalize() {
        assert_eq!(
            idents("let r#match = r#type;"),
            vec!["let", "match", "type"]
        );
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let toks = lex("fn f<'a>(x: &'a str) { let c = 'x'; let e = '\\''; }").tokens;
        let lifetimes: Vec<_> = toks
            .iter()
            .filter(|t| matches!(t.kind, TokKind::Lifetime(_)))
            .collect();
        let chars: Vec<_> = toks.iter().filter(|t| t.kind == TokKind::Char).collect();
        assert_eq!(lifetimes.len(), 2);
        assert_eq!(chars.len(), 2);
    }

    #[test]
    fn nested_generics_lex_as_puncts() {
        let toks = lex("let v: Vec<Vec<(u8, &'static str)>> = Vec::new();").tokens;
        let lt = toks
            .iter()
            .filter(|t| t.kind == TokKind::Punct('<'))
            .count();
        let gt = toks
            .iter()
            .filter(|t| t.kind == TokKind::Punct('>'))
            .count();
        assert_eq!(lt, 2);
        assert_eq!(gt, 2);
    }

    #[test]
    fn nested_block_comments_and_sast_markers() {
        let l = lex("/* a /* b */ c */ x\n// sast: relaxed-ok snapshot read\ny");
        assert_eq!(
            l.tokens
                .iter()
                .filter(|t| matches!(t.kind, TokKind::Ident(_)))
                .count(),
            2
        );
        assert_eq!(l.markers, vec![(2, "relaxed-ok snapshot read".to_string())]);
        assert_eq!(l.marker_at(2), Some("relaxed-ok snapshot read"));
        assert_eq!(l.marker_at(3), Some("relaxed-ok snapshot read"));
        assert_eq!(l.marker_at(4), None);
    }

    #[test]
    fn escaped_quotes_in_cooked_strings() {
        assert_eq!(strings(r#""a \"b\" c\n""#), vec!["a \"b\" c\n"]);
    }

    #[test]
    fn numbers_do_not_eat_ranges_or_methods() {
        let toks = lex("for i in 0..10 { let x = 1.5e3; }").tokens;
        let nums: Vec<_> = toks
            .iter()
            .filter_map(|t| match &t.kind {
                TokKind::Num(n) => Some(n.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(nums, vec!["0", "10", "1.5e3"]);
    }

    #[test]
    fn spans_are_monotone() {
        let l = lex("fn main() {\n    let s = \"x\";\n}\n");
        let mut last = 0usize;
        let mut last_line = 0u32;
        for t in &l.tokens {
            assert!(t.byte >= last, "byte offsets must be monotone");
            assert!(t.line >= last_line, "lines must be non-decreasing");
            last = t.byte + 1;
            last_line = t.line;
        }
    }
}
