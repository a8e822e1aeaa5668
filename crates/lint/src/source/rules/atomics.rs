//! QS0002 — atomic-ordering audit.
//!
//! Every cross-thread handshake (the serve and chaos-proxy shutdown
//! flags, the failpoint registry's generation) must use explicit
//! non-`Relaxed` orderings; `Relaxed` is reserved for monotonic metrics
//! counters where only the eventual total matters. This rule flags every
//! atomic operation that passes `Ordering::Relaxed` in library code
//! unless either
//! - the receiver field is on the metrics-counter allowlist below, or
//! - the line (or the line above) carries `// sast: relaxed-ok <reason>`.
//!
//! A `relaxed-ok` marker with no reason is itself a warning: the whole
//! point of the justification is that the next reader learns *why* the
//! relaxation is sound.

use crate::source::lexer::Lexed;
use crate::source::scope::{ident, is_punct, matching_close, receiver_class, seq_path};
use crate::source::{FileKind, SourceFile};
use crate::{Diagnostic, Location, RuleId, Severity};

/// Atomic methods that take ordering arguments.
const ATOMIC_METHODS: &[&str] = &[
    "load",
    "store",
    "swap",
    "compare_exchange",
    "compare_exchange_weak",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_update",
    "fetch_max",
    "fetch_min",
];

/// Monotonic metrics counters: `Relaxed` is the *correct* ordering here —
/// they are never used to publish other memory.
const COUNTER_ALLOWLIST: &[&str] = &[
    // serve shard + fleet counters
    "requests",
    "errors",
    "panics",
    "deadline_exceeded",
    // serve metrics registry
    "count",
    "total_us",
    "buckets",
    "connections",
    "panics_caught",
    "shed",
    "reloads",
    "reload_failures",
    // steady-state cache
    "hits",
    "misses",
    // chaos-proxy byte/event counters
    "chunks",
    "bytes_forward",
    "bytes_back",
    "delays",
    "truncated",
    "dropped",
];

pub fn check(file: &SourceFile, lexed: &Lexed, out: &mut Vec<Diagnostic>) {
    if file.kind != FileKind::Library {
        return;
    }
    let toks = &lexed.tokens;
    for i in 0..toks.len() {
        let Some(name) = ident(toks, i) else { continue };
        if !ATOMIC_METHODS.contains(&name) {
            continue;
        }
        if i == 0 || !is_punct(toks, i - 1, '.') || !is_punct(toks, i + 1, '(') {
            continue;
        }
        let Some(close) = matching_close(toks, i + 1) else {
            continue;
        };
        let relaxed = (i + 2..close).any(|j| seq_path(toks, j, &["Ordering", "Relaxed"]));
        if !relaxed {
            continue;
        }
        if let Some(class) = receiver_class(toks, i) {
            if COUNTER_ALLOWLIST.contains(&class.as_str()) {
                continue;
            }
        }
        let line = toks[i].line;
        match lexed
            .marker_at(line)
            .and_then(|m| m.strip_prefix("relaxed-ok"))
        {
            Some(reason) if !reason.trim().is_empty() => {}
            Some(_) => out.push(Diagnostic {
                rule: RuleId::AtomicOrdering,
                severity: Severity::Warn,
                message: format!(
                    "`{}` uses Ordering::Relaxed with a bare `sast: relaxed-ok` — \
                     state why the relaxation is sound",
                    name
                ),
                location: Location::Span {
                    file: file.path.clone(),
                    line,
                    col: toks[i].col,
                },
            }),
            None => out.push(Diagnostic {
                rule: RuleId::AtomicOrdering,
                severity: Severity::Error,
                message: format!(
                    "`{}` uses Ordering::Relaxed on a non-counter atomic — \
                     use an explicit stronger ordering or justify with \
                     `// sast: relaxed-ok <reason>`",
                    name
                ),
                location: Location::Span {
                    file: file.path.clone(),
                    line,
                    col: toks[i].col,
                },
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::lexer::lex;

    fn run(src: &str) -> Vec<Diagnostic> {
        let f = SourceFile {
            path: "t.rs".into(),
            kind: FileKind::Library,
            text: src.into(),
        };
        let mut out = Vec::new();
        check(&f, &lex(src), &mut out);
        out
    }

    #[test]
    fn state_machine_relaxed_fires() {
        let d = run("fn f(&self) { self.state.store(1, Ordering::Relaxed); }");
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].severity, Severity::Error);
    }

    #[test]
    fn counters_are_exempt() {
        let d = run("fn f(&self) { self.requests.fetch_add(1, Ordering::Relaxed); }");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn justified_relaxed_is_clean_but_bare_marker_warns() {
        let clean = run("fn f(&self) {\n\
                 // sast: relaxed-ok display-only snapshot\n\
                 self.state.load(Ordering::Relaxed);\n\
             }");
        assert!(clean.is_empty(), "{clean:?}");
        let bare = run("fn f(&self) {\n\
                 // sast: relaxed-ok\n\
                 self.state.load(Ordering::Relaxed);\n\
             }");
        assert_eq!(bare.len(), 1);
        assert_eq!(bare[0].severity, Severity::Warn);
    }

    #[test]
    fn strong_orderings_pass() {
        let d = run(
            "fn f(&self) { self.state.compare_exchange(0, 1, Ordering::AcqRel, Ordering::Acquire); }",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn non_library_files_are_out_of_scope() {
        let f = SourceFile {
            path: "t.rs".into(),
            kind: FileKind::Test,
            text: "fn f() { X.store(1, Ordering::Relaxed); }".into(),
        };
        let mut out = Vec::new();
        check(&f, &lex(&f.text), &mut out);
        assert!(out.is_empty());
    }
}
