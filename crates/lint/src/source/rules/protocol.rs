//! QS0004 — protocol exhaustiveness.
//!
//! The serve protocol is a closed loop: every `Request` variant must be
//! (a) handled by a dispatch match arm, (b) answerable — a same-named
//! `Response` variant exists *and* is actually rendered by the protocol
//! file's serializer — and (c) counted — `Request::kind()` maps it onto a
//! declared `RequestKind` metrics bucket. The compiler enforces match
//! exhaustiveness only inside one function; this rule enforces the
//! *cross-file* contract (handler ↔ reply ↔ counter), which is exactly
//! what silently breaks when a new variant lands in `protocol.rs` but not
//! in `metrics.rs` or the dispatch tier.
//!
//! All checks are lexical over the analyzed file set; when no `enum
//! Request` is present (e.g. a fixture set) the rule is silent.

use crate::source::lexer::Lexed;
use crate::source::scope::{
    contains_path, find_adjacent, ident, is_punct, matching_close, seq_path,
};
use crate::source::{FileKind, SourceFile};
use crate::{Diagnostic, Location, RuleId, Severity};

/// A variant with its declaration span.
#[derive(Debug, Clone)]
struct Variant {
    name: String,
    line: u32,
    col: u32,
}

/// Extracts the variant names of `enum <enum_name> { .. }` from a token
/// stream, or `None` when the enum is not declared there.
fn enum_variants(lexed: &Lexed, enum_name: &str) -> Option<(Vec<Variant>, usize, usize)> {
    let toks = &lexed.tokens;
    let at = (0..toks.len())
        .find(|&i| ident(toks, i) == Some("enum") && ident(toks, i + 1) == Some(enum_name))?;
    // Opening brace after the name (generics on these enums don't occur,
    // but scan forward defensively).
    let open = (at + 2..toks.len()).find(|&i| is_punct(toks, i, '{'))?;
    let close = matching_close(toks, open)?;
    let mut variants = Vec::new();
    let mut depth = 0i64;
    let mut i = open + 1;
    while i < close {
        match toks[i].kind {
            crate::source::lexer::TokKind::Punct('{')
            | crate::source::lexer::TokKind::Punct('(')
            | crate::source::lexer::TokKind::Punct('[') => depth += 1,
            crate::source::lexer::TokKind::Punct('}')
            | crate::source::lexer::TokKind::Punct(')')
            | crate::source::lexer::TokKind::Punct(']') => depth -= 1,
            crate::source::lexer::TokKind::Ident(ref name) if depth == 0 => {
                // A variant name starts uppercase; field names and type
                // tokens inside payloads sit at depth > 0 or after `:`.
                let starts_upper = name.chars().next().map(char::is_uppercase).unwrap_or(false);
                let is_field_type = i > open + 1 && is_punct(toks, i - 1, ':');
                if starts_upper && !is_field_type {
                    variants.push(Variant {
                        name: name.clone(),
                        line: toks[i].line,
                        col: toks[i].col,
                    });
                }
            }
            _ => {}
        }
        i += 1;
    }
    Some((variants, open, close))
}

/// The token range of `fn <name>`'s body within a stream, if defined.
fn fn_body(lexed: &Lexed, name: &str) -> Option<(usize, usize)> {
    let toks = &lexed.tokens;
    let at = find_adjacent(toks, "fn", name)?;
    let open = (at + 2..toks.len()).find(|&i| is_punct(toks, i, '{'))?;
    let close = matching_close(toks, open)?;
    Some((open, close))
}

/// `Qual::Name` occurrences within a token index range.
fn path_in_range(lexed: &Lexed, range: (usize, usize), qual: &str, name: &str) -> bool {
    (range.0..range.1).any(|i| seq_path(&lexed.tokens, i, &[qual, name]))
}

pub fn check(files: &[SourceFile], lexed: &[Lexed], out: &mut Vec<Diagnostic>) {
    // The protocol file: the library source declaring `enum Request`.
    let Some(proto_idx) = files
        .iter()
        .zip(lexed)
        .position(|(f, l)| f.kind == FileKind::Library && enum_variants(l, "Request").is_some())
    else {
        return;
    };
    let proto = &files[proto_idx];
    let proto_lex = &lexed[proto_idx];
    let Some((variants, _, _)) = enum_variants(proto_lex, "Request") else {
        return;
    };

    // Dispatch tier: every library file defining `fn dispatch`.
    let dispatchers: Vec<usize> = files
        .iter()
        .zip(lexed)
        .enumerate()
        .filter(|(_, (f, l))| {
            f.kind == FileKind::Library && find_adjacent(&l.tokens, "fn", "dispatch").is_some()
        })
        .map(|(i, _)| i)
        .collect();

    // Response enum + renderer references live in the protocol file (or
    // any library file, for layouts that split them).
    let response_variants: Vec<String> = files
        .iter()
        .zip(lexed)
        .filter(|(f, _)| f.kind == FileKind::Library)
        .filter_map(|(_, l)| enum_variants(l, "Response"))
        .flat_map(|(vs, _, _)| vs.into_iter().map(|v| v.name))
        .collect();
    let kind_body = fn_body(proto_lex, "kind");

    for v in &variants {
        let diag = |message: String| Diagnostic {
            rule: RuleId::ProtocolExhaustiveness,
            severity: Severity::Error,
            message,
            location: Location::Span {
                file: proto.path.clone(),
                line: v.line,
                col: v.col,
            },
        };

        // (a) a dispatch arm somewhere in the dispatch tier.
        let handled = dispatchers
            .iter()
            .any(|&i| contains_path(&lexed[i].tokens, "Request", &v.name));
        if !handled {
            out.push(diag(format!(
                "Request::{} has no match arm in any `fn dispatch` — the server cannot answer it",
                v.name
            )));
        }

        // (b) a same-named Response variant that the protocol file
        // actually renders (references outside the enum declaration).
        if !response_variants.iter().any(|r| r == &v.name) {
            out.push(diag(format!(
                "Request::{} has no same-named Response variant — no typed reply exists",
                v.name
            )));
        } else {
            let rendered = match enum_variants(proto_lex, "Response") {
                Some((_, open, close)) => (0..proto_lex.tokens.len()).any(|i| {
                    (i < open || i > close)
                        && seq_path(&proto_lex.tokens, i, &["Response", &v.name])
                }),
                // Response declared in another file: accept any reference
                // in that file.
                None => files.iter().zip(lexed).any(|(f, l)| {
                    f.kind == FileKind::Library && contains_path(&l.tokens, "Response", &v.name)
                }),
            };
            if !rendered {
                out.push(diag(format!(
                    "Response::{} is declared but never rendered by the protocol serializer",
                    v.name
                )));
            }
        }

        // (c) a metrics mapping in Request::kind().
        match kind_body {
            Some(range) => {
                if !path_in_range(proto_lex, range, "Request", &v.name) {
                    out.push(diag(format!(
                        "Request::{} is not mapped in Request::kind() — it would go uncounted",
                        v.name
                    )));
                }
            }
            None => out.push(diag(format!(
                "Request::{}: no `fn kind` found next to `enum Request` — metrics mapping missing",
                v.name
            ))),
        }
    }

    // Every RequestKind referenced by kind() must be a declared bucket.
    if let Some(range) = kind_body {
        let declared: Vec<String> = files
            .iter()
            .zip(lexed)
            .filter(|(f, _)| f.kind == FileKind::Library)
            .filter_map(|(_, l)| enum_variants(l, "RequestKind"))
            .flat_map(|(vs, _, _)| vs.into_iter().map(|v| v.name))
            .collect();
        if !declared.is_empty() {
            let toks = &proto_lex.tokens;
            for i in range.0..range.1 {
                if seq_path(toks, i, &["RequestKind"]) {
                    // `RequestKind::K`
                    if is_punct(toks, i + 1, ':') && is_punct(toks, i + 2, ':') {
                        if let Some(k) = ident(toks, i + 3) {
                            if !declared.iter().any(|d| d == k) {
                                out.push(Diagnostic {
                                    rule: RuleId::ProtocolExhaustiveness,
                                    severity: Severity::Error,
                                    message: format!(
                                        "RequestKind::{k} is referenced by Request::kind() but not \
                                         declared — the metrics bucket does not exist"
                                    ),
                                    location: Location::Span {
                                        file: proto.path.clone(),
                                        line: toks[i].line,
                                        col: toks[i].col,
                                    },
                                });
                            }
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::lexer::lex;

    fn file(path: &str, kind: FileKind, text: &str) -> SourceFile {
        SourceFile {
            path: path.into(),
            kind,
            text: text.into(),
        }
    }

    fn run(files: &[SourceFile]) -> Vec<Diagnostic> {
        let lexed: Vec<_> = files.iter().map(|f| lex(&f.text)).collect();
        let mut out = Vec::new();
        check(files, &lexed, &mut out);
        out
    }

    const GOOD_PROTO: &str = r#"
        pub enum Request { Ping, Stats { verbose: bool } }
        pub enum Response { Ping, Stats(StatsReply), Error(String) }
        impl Request {
            pub fn kind(&self) -> RequestKind {
                match self {
                    Request::Ping => RequestKind::Ping,
                    Request::Stats { .. } => RequestKind::Stats,
                }
            }
        }
        fn render(r: &Response) -> &str {
            match r {
                Response::Ping => "ping",
                Response::Stats(_) => "stats",
                Response::Error(_) => "error",
            }
        }
    "#;

    const METRICS: &str = "pub enum RequestKind { Ping, Stats, Error }";

    const DISPATCH: &str = r#"
        fn dispatch(req: &Request) -> Response {
            match req {
                Request::Ping => Response::Ping,
                Request::Stats { .. } => Response::Stats(reply()),
            }
        }
    "#;

    #[test]
    fn closed_loop_is_clean() {
        let d = run(&[
            file("protocol.rs", FileKind::Library, GOOD_PROTO),
            file("metrics.rs", FileKind::Library, METRICS),
            file("server.rs", FileKind::Library, DISPATCH),
        ]);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn unhandled_variant_fires() {
        let proto = GOOD_PROTO.replace(
            "pub enum Request { Ping, Stats { verbose: bool } }",
            "pub enum Request { Ping, Stats { verbose: bool }, Orphan }",
        );
        let d = run(&[
            file("protocol.rs", FileKind::Library, &proto),
            file("metrics.rs", FileKind::Library, METRICS),
            file("server.rs", FileKind::Library, DISPATCH),
        ]);
        // Orphan: no dispatch arm, no Response variant, no kind mapping.
        assert_eq!(d.len(), 3, "{d:?}");
        assert!(d.iter().all(|x| x.message.contains("Orphan")));
    }

    #[test]
    fn unknown_metrics_bucket_fires() {
        let proto = GOOD_PROTO.replace("RequestKind::Stats", "RequestKind::Stets");
        let d = run(&[
            file("protocol.rs", FileKind::Library, &proto),
            file("metrics.rs", FileKind::Library, METRICS),
            file("server.rs", FileKind::Library, DISPATCH),
        ]);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("Stets"));
    }

    #[test]
    fn silent_without_a_protocol() {
        let d = run(&[file("lib.rs", FileKind::Library, "fn f() {}")]);
        assert!(d.is_empty(), "{d:?}");
    }
}
