//! QS0003 — failpoint registry consistency.
//!
//! Failpoint names are stringly-typed: an inject site
//! (`fail::inject("serve.reload")`) and the tests that arm it
//! (`fail::set("serve.reload", ..)`) must agree on the name, and nothing
//! checks that at compile time. This rule extracts both sides from the
//! token streams and reconciles them globally:
//! - an armed/cleared name with no inject site is an error (a misspelled
//!   or stale test — the fault it believes it injects never happens);
//! - an inject site no test ever arms is an error (dead instrumentation
//!   — the failure path it guards is unexercised).
//!
//! Dynamic names built with `format!` ("serve.shard.panic.{id}") are
//! tracked as wildcard patterns: `{..}` segments become `*` and match any
//! text on the other side.

use crate::source::lexer::{Lexed, TokKind};
use crate::source::scope::{ident, is_punct};
use crate::source::SourceFile;
use crate::{Diagnostic, Location, RuleId, Severity};

/// A failpoint name occurrence: an inject site or an arming reference.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailName {
    /// The name with `format!` interpolations normalized to `*`.
    pub pattern: String,
    /// Workspace-relative path of the occurrence.
    pub file: String,
    /// 1-based line of the name's string literal.
    pub line: u32,
    /// 1-based column of the name's string literal.
    pub col: u32,
}

/// Extracts the inject-site names defined in a file: first string-literal
/// arguments of `inject(..)` / `inject_io(..)` calls. The registry
/// implementation itself (the file defining `fn inject` / `fn evaluate`)
/// is skipped — its self-tests arm synthetic names by design.
pub fn sites_in(file: &SourceFile, lexed: &Lexed) -> Vec<FailName> {
    if is_registry_impl(lexed) {
        return Vec::new();
    }
    extract(file, lexed, &["inject", "inject_io"], false)
}

/// Extracts the armed/cleared names referenced in a file:
/// `fail::set("..", ..)` and `fail::clear("..")`. When `armed_only`,
/// `clear` references are excluded (only `set` proves a site is
/// exercised).
pub fn refs_in(file: &SourceFile, lexed: &Lexed, armed_only: bool) -> Vec<FailName> {
    if is_registry_impl(lexed) {
        return Vec::new();
    }
    let methods: &[&str] = if armed_only {
        &["set"]
    } else {
        &["set", "clear"]
    };
    extract(file, lexed, methods, true)
}

/// True when the two patterns can name the same failpoint (`*` matches
/// any substring on either side).
pub fn patterns_overlap(a: &str, b: &str) -> bool {
    match (a.contains('*'), b.contains('*')) {
        (false, false) => a == b,
        (true, false) => glob_match(a, b),
        (false, true) => glob_match(b, a),
        (true, true) => {
            // Two dynamic names: compatible when the literal prefixes
            // agree up to the first wildcard.
            let ap = a.split('*').next().unwrap_or("");
            let bp = b.split('*').next().unwrap_or("");
            ap.starts_with(bp) || bp.starts_with(ap)
        }
    }
}

fn glob_match(pat: &str, name: &str) -> bool {
    // Simple backtracking glob: `*` matches any (possibly empty) run.
    fn rec(p: &[u8], n: &[u8]) -> bool {
        match p.first() {
            None => n.is_empty(),
            Some(b'*') => (0..=n.len()).any(|k| rec(&p[1..], &n[k..])),
            Some(&c) => n.first() == Some(&c) && rec(&p[1..], &n[1..]),
        }
    }
    rec(pat.as_bytes(), name.as_bytes())
}

fn is_registry_impl(lexed: &Lexed) -> bool {
    let toks = &lexed.tokens;
    let defines = |name: &str| {
        (0..toks.len().saturating_sub(1))
            .any(|i| ident(toks, i) == Some("fn") && ident(toks, i + 1) == Some(name))
    };
    defines("inject") && defines("evaluate")
}

/// `{interpolation}` segments become `*`.
fn normalize(name: &str) -> String {
    let mut out = String::new();
    let mut chars = name.chars();
    while let Some(c) = chars.next() {
        if c == '{' {
            for c2 in chars.by_ref() {
                if c2 == '}' {
                    break;
                }
            }
            out.push('*');
        } else {
            out.push(c);
        }
    }
    out
}

fn extract(
    file: &SourceFile,
    lexed: &Lexed,
    methods: &[&str],
    require_fail_path: bool,
) -> Vec<FailName> {
    let toks = &lexed.tokens;
    let mut out = Vec::new();
    for i in 0..toks.len() {
        let Some(name) = ident(toks, i) else { continue };
        if !methods.contains(&name) || !is_punct(toks, i + 1, '(') {
            continue;
        }
        // Skip the definition itself (`fn inject_io(..)`).
        if i > 0 && ident(toks, i - 1) == Some("fn") {
            continue;
        }
        // Arming references must come through the `fail::` path so a
        // generic `set(..)` method elsewhere is not miscounted.
        if require_fail_path {
            let qualified = i >= 3
                && is_punct(toks, i - 1, ':')
                && is_punct(toks, i - 2, ':')
                && ident(toks, i - 3) == Some("fail");
            if !qualified {
                continue;
            }
        }
        // First argument: `"lit"`, `&"lit"`, or `&format!("lit{..}")`.
        let mut j = i + 2;
        while is_punct(toks, j, '&') {
            j += 1;
        }
        if ident(toks, j) == Some("format")
            && is_punct(toks, j + 1, '!')
            && is_punct(toks, j + 2, '(')
        {
            j += 3;
            while is_punct(toks, j, '&') {
                j += 1;
            }
        }
        if let Some(TokKind::Str(s)) = toks.get(j).map(|t| &t.kind) {
            out.push(FailName {
                pattern: normalize(s),
                file: file.path.clone(),
                line: toks[i].line,
                col: toks[i].col,
            });
        }
    }
    out
}

/// Cross-file reconciliation over the whole analyzed set.
pub(crate) fn check(files: &[SourceFile], lexed: &[Lexed], out: &mut Vec<Diagnostic>) {
    let mut sites: Vec<FailName> = Vec::new();
    let mut armed: Vec<FailName> = Vec::new();
    let mut referenced: Vec<FailName> = Vec::new();
    for (f, l) in files.iter().zip(lexed) {
        sites.extend(sites_in(f, l));
        armed.extend(refs_in(f, l, true));
        referenced.extend(refs_in(f, l, false));
    }
    if sites.is_empty() && referenced.is_empty() {
        return;
    }
    for r in &referenced {
        if !sites
            .iter()
            .any(|s| patterns_overlap(&s.pattern, &r.pattern))
        {
            out.push(Diagnostic {
                rule: RuleId::FailpointRegistry,
                severity: Severity::Error,
                message: format!(
                    "failpoint `{}` is armed/cleared here but no inject site defines it — \
                     misspelled or stale name",
                    r.pattern
                ),
                location: Location::Span {
                    file: r.file.clone(),
                    line: r.line,
                    col: r.col,
                },
            });
        }
    }
    for s in &sites {
        if !armed
            .iter()
            .any(|r| patterns_overlap(&s.pattern, &r.pattern))
        {
            out.push(Diagnostic {
                rule: RuleId::FailpointRegistry,
                severity: Severity::Error,
                message: format!(
                    "failpoint site `{}` is never armed by any test or bench — \
                     dead instrumentation (arm it or remove the site)",
                    s.pattern
                ),
                location: Location::Span {
                    file: s.file.clone(),
                    line: s.line,
                    col: s.col,
                },
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::lexer::lex;
    use crate::source::FileKind;

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

    #[test]
    fn consistent_registry_is_clean() {
        let d = run(&[
            file(
                "lib.rs",
                FileKind::Library,
                r#"fn f() { if fail::inject("a.b") { return; } }"#,
            ),
            file(
                "t.rs",
                FileKind::Test,
                r#"fn t() { fail::set("a.b", "always:error"); fail::clear("a.b"); }"#,
            ),
        ]);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn misspelled_reference_fires() {
        let d = run(&[
            file(
                "lib.rs",
                FileKind::Library,
                r#"fn f() { fail::inject("a.b"); }"#,
            ),
            file(
                "t.rs",
                FileKind::Test,
                r#"fn t() { fail::set("a.b", "always:error"); fail::set("a.bb", "once:panic"); }"#,
            ),
        ]);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("a.bb"));
    }

    #[test]
    fn dead_site_fires() {
        let d = run(&[file(
            "lib.rs",
            FileKind::Library,
            r#"fn f() { fail::inject("dead.site"); }"#,
        )]);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("never armed"));
    }

    #[test]
    fn format_names_match_as_wildcards() {
        let d = run(&[
            file(
                "lib.rs",
                FileKind::Library,
                r#"fn f(id: usize) { fail::inject(&format!("s.panic.{id}")); }"#,
            ),
            file(
                "t.rs",
                FileKind::Test,
                r#"fn t(v: usize) { fail::set(&format!("s.panic.{v}"), "once:panic"); fail::set("s.panic.3", "off"); }"#,
            ),
        ]);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn clear_alone_does_not_arm() {
        let d = run(&[
            file(
                "lib.rs",
                FileKind::Library,
                r#"fn f() { fail::inject("x.y"); }"#,
            ),
            file("t.rs", FileKind::Test, r#"fn t() { fail::clear("x.y"); }"#),
        ]);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("never armed"));
    }

    #[test]
    fn registry_impl_self_tests_are_exempt() {
        let d = run(&[file(
            "fail.rs",
            FileKind::Library,
            r#"pub fn set(n: &str, s: &str) {} pub fn inject(n: &str) -> bool { false }
               pub fn evaluate(n: &str) {} fn t() { fail::set("t.synthetic", "once:error"); }"#,
        )]);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn overlap_rules() {
        assert!(patterns_overlap("a.b", "a.b"));
        assert!(!patterns_overlap("a.b", "a.c"));
        assert!(patterns_overlap("a.*", "a.b"));
        assert!(patterns_overlap("a.*", "a.*"));
        assert!(!patterns_overlap("a.*", "b.c"));
    }
}
