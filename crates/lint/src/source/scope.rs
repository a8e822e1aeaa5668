//! Token-stream navigation shared by the rules: bracket matching,
//! receiver-chain extraction, and small sequence probes.
//!
//! Everything here is index-based over the flat token vector from
//! [`crate::source::lexer::lex`] and total: out-of-range lookups return `None`
//! instead of panicking, so malformed snippets degrade to "no finding"
//! rather than a crash.

use crate::source::lexer::{TokKind, Token};

/// True when the token is the given punctuation character.
pub fn is_punct(toks: &[Token], i: usize, c: char) -> bool {
    matches!(toks.get(i), Some(t) if t.kind == TokKind::Punct(c))
}

/// The identifier text at `i`, if that token is an identifier.
pub fn ident(toks: &[Token], i: usize) -> Option<&str> {
    match toks.get(i).map(|t| &t.kind) {
        Some(TokKind::Ident(s)) => Some(s.as_str()),
        _ => None,
    }
}

/// Index of the delimiter closing the one at `open` (`(`/`[`/`{`).
/// Counts all three bracket kinds together, so mixed nesting is skipped
/// correctly. Returns `None` when unbalanced (runs off the end).
pub fn matching_close(toks: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0i64;
    let mut i = open;
    while i < toks.len() {
        match toks[i].kind {
            TokKind::Punct('(') | TokKind::Punct('[') | TokKind::Punct('{') => depth += 1,
            TokKind::Punct(')') | TokKind::Punct(']') | TokKind::Punct('}') => {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
                }
            }
            _ => {}
        }
        i += 1;
    }
    None
}

/// Index of the delimiter opening the one at `close`.
pub fn matching_open(toks: &[Token], close: usize) -> Option<usize> {
    let mut depth = 0i64;
    let mut i = close as i64;
    while i >= 0 {
        match toks[i as usize].kind {
            TokKind::Punct(')') | TokKind::Punct(']') | TokKind::Punct('}') => depth += 1,
            TokKind::Punct('(') | TokKind::Punct('[') | TokKind::Punct('{') => {
                depth -= 1;
                if depth == 0 {
                    return Some(i as usize);
                }
            }
            _ => {}
        }
        i -= 1;
    }
    None
}

/// The *receiver class* of the method call whose name token sits at
/// `method_idx`: the nearest field-like identifier of the receiver chain,
/// skipping index brackets (`work[i].lock()` → `work`), tuple fields
/// (`slot.0.lock()` → `slot`), and interposed method calls
/// (`REGISTRY.get_or_init(..).lock()` → `REGISTRY`).
///
/// Returns `None` when the receiver is not a name (e.g. a parenthesized
/// expression) — callers treat that as an anonymous, unrankable lock.
pub fn receiver_class(toks: &[Token], method_idx: usize) -> Option<String> {
    if method_idx == 0 || !is_punct(toks, method_idx - 1, '.') {
        return None;
    }
    let mut p = method_idx.checked_sub(2)?;
    loop {
        match &toks.get(p)?.kind {
            TokKind::Ident(name) => return Some(name.clone()),
            // Tuple field: `slot.0` — skip the digit and its dot.
            TokKind::Num(_) if p >= 2 && is_punct(toks, p - 1, '.') => p -= 2,
            TokKind::Num(_) => return None,
            // Index: `work[i]` — skip to before the `[`.
            TokKind::Punct(']') => {
                let open = matching_open(toks, p)?;
                p = open.checked_sub(1)?;
            }
            // Call: `recv.method(args)` — skip the arg list; if the name
            // before the `(` is a `.`-method, skip it too and keep
            // walking the chain. A free/associated call (`stdout()`)
            // terminates the chain at the function's own name.
            TokKind::Punct(')') => {
                let open = matching_open(toks, p)?;
                let callee = open.checked_sub(1)?;
                match &toks.get(callee)?.kind {
                    TokKind::Ident(name) => {
                        if callee >= 1 && is_punct(toks, callee - 1, '.') {
                            p = callee.checked_sub(2)?;
                        } else {
                            return Some(name.clone());
                        }
                    }
                    _ => return None,
                }
            }
            _ => return None,
        }
    }
}

/// True when `toks[i..]` starts with the given identifier sequence
/// separated by `::` (e.g. `seq_path(t, i, &["Ordering", "Relaxed"])`
/// matches `Ordering::Relaxed`).
pub fn seq_path(toks: &[Token], i: usize, names: &[&str]) -> bool {
    let mut j = i;
    for (k, name) in names.iter().enumerate() {
        if ident(toks, j) != Some(*name) {
            return false;
        }
        j += 1;
        if k + 1 < names.len() {
            if !(is_punct(toks, j, ':') && is_punct(toks, j + 1, ':')) {
                return false;
            }
            j += 2;
        }
    }
    true
}

/// First index of `Ident(a)` directly followed by `Ident(b)`.
pub fn find_adjacent(toks: &[Token], a: &str, b: &str) -> Option<usize> {
    (0..toks.len().saturating_sub(1))
        .find(|&i| ident(toks, i) == Some(a) && ident(toks, i + 1) == Some(b))
}

/// True when `Ident(qual)::Ident(name)` occurs anywhere in the stream.
pub fn contains_path(toks: &[Token], qual: &str, name: &str) -> bool {
    (0..toks.len()).any(|i| seq_path(toks, i, &[qual, name]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::lexer::lex;

    fn class_of(src: &str, method: &str) -> Option<String> {
        let toks = lex(src).tokens;
        let idx = (0..toks.len()).find(|&i| ident(&toks, i) == Some(method))?;
        receiver_class(&toks, idx)
    }

    #[test]
    fn receiver_chains() {
        assert_eq!(class_of("self.map.read()", "read").as_deref(), Some("map"));
        assert_eq!(class_of("work[i].lock()", "lock").as_deref(), Some("work"));
        assert_eq!(class_of("slot.0.lock()", "lock").as_deref(), Some("slot"));
        assert_eq!(
            class_of("REGISTRY.get_or_init(|| Mutex::new(0)).lock()", "lock").as_deref(),
            Some("REGISTRY")
        );
        assert_eq!(
            class_of("self.shards[shard].epoch.write()", "write").as_deref(),
            Some("epoch")
        );
        assert_eq!(
            class_of("io::stdout().lock()", "lock").as_deref(),
            Some("stdout")
        );
        assert_eq!(class_of("(a + b).lock()", "lock"), None);
    }

    #[test]
    fn bracket_matching_mixes_kinds() {
        let toks = lex("f(a[b(c)], {d})").tokens;
        let open = (0..toks.len()).find(|&i| is_punct(&toks, i, '(')).unwrap();
        let close = matching_close(&toks, open).unwrap();
        assert!(is_punct(&toks, close, ')'));
        assert_eq!(close, toks.len() - 1);
        assert_eq!(matching_open(&toks, close), Some(open));
    }

    #[test]
    fn path_sequences() {
        let toks = lex("x.store(1, Ordering::Relaxed)").tokens;
        assert!((0..toks.len()).any(|i| seq_path(&toks, i, &["Ordering", "Relaxed"])));
        assert!(contains_path(&toks, "Ordering", "Relaxed"));
        assert!(!contains_path(&toks, "Ordering", "SeqCst"));
    }
}
