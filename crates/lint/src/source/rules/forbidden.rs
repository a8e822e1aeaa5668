//! QS0005/QS0006/QS0007 — forbidden patterns, promoted from a grep
//! script to token-accurate findings with spans. The lexer makes these
//! checks strictly better than grep: text in comments, doc examples, and
//! string literals no longer counts, and `forbid(unsafe_code)` can never
//! collide with the `unsafe` keyword.
//!
//! - QS0005: `process::exit` in library code — libraries return errors;
//!   only `src/bin` frontends may terminate the process.
//! - QS0006: `println!` in library *crates* (`crates/*/src`) — stdout
//!   belongs to the binaries; library diagnostics go to stderr with
//!   `eprintln!`. The root `src/` facade keeps the historical exemption.
//! - QS0007: the `unsafe` keyword in library code — every library crate
//!   carries `#![forbid(unsafe_code)]`; this holds even if an attribute
//!   is dropped. (The bench counting allocator lives under `src/bin` and
//!   is exempt by classification.)

use crate::source::lexer::Lexed;
use crate::source::scope::{ident, is_punct, seq_path};
use crate::source::{FileKind, SourceFile};
use crate::{Diagnostic, Location, RuleId, Severity};

pub fn check(file: &SourceFile, lexed: &Lexed, out: &mut Vec<Diagnostic>) {
    if file.kind != FileKind::Library {
        return;
    }
    let toks = &lexed.tokens;
    let in_crates = file.path.starts_with("crates/") || file.path.contains("/crates/");
    for i in 0..toks.len() {
        if seq_path(toks, i, &["process", "exit"]) {
            out.push(Diagnostic {
                rule: RuleId::ProcessExit,
                severity: Severity::Error,
                message: "process::exit in library code — return an error; only src/bin \
                          frontends may terminate the process"
                    .into(),
                location: Location::Span {
                    file: file.path.clone(),
                    line: toks[i].line,
                    col: toks[i].col,
                },
            });
        }
        if in_crates && ident(toks, i) == Some("println") && is_punct(toks, i + 1, '!') {
            out.push(Diagnostic {
                rule: RuleId::PrintlnInLibrary,
                severity: Severity::Error,
                message: "println! in a library crate — stdout belongs to the binaries \
                          (use eprintln! for diagnostics or return the value)"
                    .into(),
                location: Location::Span {
                    file: file.path.clone(),
                    line: toks[i].line,
                    col: toks[i].col,
                },
            });
        }
        if ident(toks, i) == Some("unsafe") {
            out.push(Diagnostic {
                rule: RuleId::UnsafeCode,
                severity: Severity::Error,
                message: "`unsafe` in library code — the workspace forbids it outside the \
                          bench counting allocator"
                    .into(),
                location: Location::Span {
                    file: file.path.clone(),
                    line: toks[i].line,
                    col: toks[i].col,
                },
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::lexer::lex;

    fn run(path: &str, kind: FileKind, src: &str) -> Vec<Diagnostic> {
        let f = SourceFile {
            path: path.into(),
            kind,
            text: src.into(),
        };
        let mut out = Vec::new();
        check(&f, &lex(src), &mut out);
        out
    }

    #[test]
    fn process_exit_fires_in_library_not_binary() {
        let lib = run(
            "crates/x/src/lib.rs",
            FileKind::Library,
            "fn f() { std::process::exit(1); }",
        );
        assert_eq!(lib.len(), 1);
        assert_eq!(lib[0].rule, RuleId::ProcessExit);
        let bin = run(
            "src/bin/q.rs",
            FileKind::Binary,
            "fn f() { std::process::exit(1); }",
        );
        assert!(bin.is_empty());
    }

    #[test]
    fn println_fires_in_crates_only_and_eprintln_passes() {
        let d = run(
            "crates/x/src/lib.rs",
            FileKind::Library,
            "fn f() { println!(\"x\"); eprintln!(\"y\"); }",
        );
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, RuleId::PrintlnInLibrary);
        let root = run(
            "src/lib.rs",
            FileKind::Library,
            "fn f() { println!(\"x\"); }",
        );
        assert!(root.is_empty(), "root src keeps the historical exemption");
    }

    #[test]
    fn unsafe_keyword_fires_but_forbid_attribute_does_not() {
        let d = run(
            "crates/x/src/lib.rs",
            FileKind::Library,
            "#![forbid(unsafe_code)]\nfn f() { let p = unsafe { *x }; }",
        );
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(
            matches!(d[0].location, Location::Span { line: 2, .. }),
            "{d:?}"
        );
    }

    #[test]
    fn comments_and_strings_do_not_count() {
        let d = run(
            "crates/x/src/lib.rs",
            FileKind::Library,
            "// process::exit is banned; println! too; unsafe as well\n\
             fn f() { let s = \"process::exit println! unsafe\"; }",
        );
        assert!(d.is_empty(), "{d:?}");
    }
}
