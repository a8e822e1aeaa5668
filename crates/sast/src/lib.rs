//! `quasar-sast` — source-level static analysis for the workspace's own
//! Rust code.
//!
//! Where [`quasar-lint`] audits trained *models*, this crate audits the
//! *sources* that produce and serve them: the concurrency and protocol
//! invariants that DESIGN.md documents but nothing previously checked.
//! A hand-rolled lexer ([`lexer`]) and token-stream helpers ([`scope`])
//! stand in for a real frontend — no `syn`, no new dependencies — which
//! is enough because every rule is lexical: lock acquisition order,
//! `Ordering::Relaxed` justifications, failpoint-name consistency,
//! request/response/metrics cross-references, and the forbidden patterns
//! the old grep script enforced, now with real spans.
//!
//! Rule catalogue (see DESIGN.md §16 for rationale and suppressions):
//!
//! | id     | name                     | severity |
//! |--------|--------------------------|----------|
//! | QS0001 | lock-order               | error    |
//! | QS0002 | atomic-ordering          | error (warn for an empty justification) |
//! | QS0003 | failpoint-registry       | error    |
//! | QS0004 | protocol-exhaustiveness  | error    |
//! | QS0005 | process-exit             | error    |
//! | QS0006 | println-in-library       | error    |
//! | QS0007 | unsafe-code              | error    |
//!
//! Suppression: a comment `// sast: allow QS000N <reason>` on the same
//! line or the line above silences that rule at that spot; the
//! atomic-ordering rule additionally honors its dedicated justification
//! form `// sast: relaxed-ok <reason>`.
//!
//! Entry points: [`collect_workspace`] gathers and classifies the
//! sources, [`analyze`] produces a [`SastReport`] with human
//! ([`SastReport::render_text`]) and JSON ([`SastReport::to_json`])
//! renderers. The CLI front door is `quasar sast [--json] [--deny
//! warn|error]` with the same 0/1/2 exit-code contract as `quasar lint`.
//!
//! [`quasar-lint`]: ../quasar_lint/index.html

pub mod lexer;
pub mod rules;
pub mod scope;

use std::collections::BTreeSet;
use std::fmt;
use std::io;
use std::path::Path;

/// Diagnostic weight, ordered `Info < Warn < Error`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    Info,
    Warn,
    Error,
}

impl Severity {
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Error => "error",
        }
    }

    /// Parses `info|warn|error` (CLI `--deny` values).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "info" => Some(Severity::Info),
            "warn" => Some(Severity::Warn),
            "error" => Some(Severity::Error),
            _ => None,
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Stable rule identifiers. Codes are append-only: a retired rule's code
/// is never reused, so CI logs and suppression comments stay meaningful
/// across versions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    /// Locks acquired while another guard is live must follow the
    /// declared ascending-shard order; undeclared nesting is an error.
    LockOrder,
    /// `Ordering::Relaxed` on a non-counter atomic needs a
    /// `// sast: relaxed-ok <reason>` justification.
    AtomicOrdering,
    /// Every failpoint name armed in tests exists at an inject site and
    /// every inject site is armed somewhere — no dead or misspelled
    /// sites.
    FailpointRegistry,
    /// Every serve `Request` variant has a dispatch arm, a same-named
    /// `Response` variant that is actually rendered, and a metrics kind.
    ProtocolExhaustiveness,
    /// `process::exit` outside `src/bin` trees.
    ProcessExit,
    /// `println!` in library crates (stdout belongs to binaries).
    PrintlnInLibrary,
    /// `unsafe` in library code (the bench counting allocator lives in a
    /// binary tree and is exempt by classification).
    UnsafeCode,
}

impl RuleId {
    pub const ALL: [RuleId; 7] = [
        RuleId::LockOrder,
        RuleId::AtomicOrdering,
        RuleId::FailpointRegistry,
        RuleId::ProtocolExhaustiveness,
        RuleId::ProcessExit,
        RuleId::PrintlnInLibrary,
        RuleId::UnsafeCode,
    ];

    pub fn code(self) -> &'static str {
        match self {
            RuleId::LockOrder => "QS0001",
            RuleId::AtomicOrdering => "QS0002",
            RuleId::FailpointRegistry => "QS0003",
            RuleId::ProtocolExhaustiveness => "QS0004",
            RuleId::ProcessExit => "QS0005",
            RuleId::PrintlnInLibrary => "QS0006",
            RuleId::UnsafeCode => "QS0007",
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            RuleId::LockOrder => "lock-order",
            RuleId::AtomicOrdering => "atomic-ordering",
            RuleId::FailpointRegistry => "failpoint-registry",
            RuleId::ProtocolExhaustiveness => "protocol-exhaustiveness",
            RuleId::ProcessExit => "process-exit",
            RuleId::PrintlnInLibrary => "println-in-library",
            RuleId::UnsafeCode => "unsafe-code",
        }
    }
}

/// What tree a source file belongs to — rules scope themselves by kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// `crates/*/src` and the root `src/`, minus `src/bin` trees and
    /// binary-only packages.
    Library,
    /// `src/bin` trees (CLI frontends, bench binaries) and every module
    /// of a package with `src/main.rs` but no `src/lib.rs`.
    Binary,
    /// `tests/` trees.
    Test,
    /// `benches/` trees.
    Bench,
}

/// One source file queued for analysis. `path` is workspace-relative and
/// `/`-separated (used verbatim in diagnostics).
#[derive(Debug, Clone)]
pub struct SourceFile {
    pub path: String,
    pub kind: FileKind,
    pub text: String,
}

/// One finding, anchored to a `file:line:col` span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    pub rule: RuleId,
    pub severity: Severity,
    pub message: String,
    pub file: String,
    pub line: u32,
    pub col: u32,
}

/// Analysis outcome: every diagnostic plus scan bookkeeping.
#[derive(Debug, Default)]
pub struct SastReport {
    pub diagnostics: Vec<Diagnostic>,
    pub files_scanned: usize,
}

impl SastReport {
    pub fn errors(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    pub fn warnings(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warn)
            .count()
    }

    /// True when any diagnostic is at or above the `deny` threshold —
    /// the CLI maps this to exit code 1.
    pub fn denies(&self, deny: Severity) -> bool {
        self.diagnostics.iter().any(|d| d.severity >= deny)
    }

    /// The distinct rule codes that fired — fixture tests assert on this.
    pub fn fired_codes(&self) -> BTreeSet<&'static str> {
        self.diagnostics.iter().map(|d| d.rule.code()).collect()
    }

    /// Human rendering: one line per finding, sorted by location, plus a
    /// summary footer.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&format!(
                "{}[{}] {}:{}:{}: {}\n",
                d.severity,
                d.rule.code(),
                d.file,
                d.line,
                d.col,
                d.message
            ));
        }
        out.push_str(&format!(
            "sast: {} file(s) scanned, {} error(s), {} warning(s)\n",
            self.files_scanned,
            self.errors(),
            self.warnings()
        ));
        out
    }

    /// One-line JSON rendering (hand-rolled: this crate takes no
    /// dependencies, serde included).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!(
            "\"files\":{},\"errors\":{},\"warnings\":{},\"diagnostics\":[",
            self.files_scanned,
            self.errors(),
            self.warnings()
        ));
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"rule\":\"{}\",\"name\":\"{}\",\"severity\":\"{}\",\"file\":\"{}\",\"line\":{},\"col\":{},\"message\":\"{}\"}}",
                d.rule.code(),
                d.rule.name(),
                d.severity,
                escape_json(&d.file),
                d.line,
                d.col,
                escape_json(&d.message)
            ));
        }
        out.push_str("]}");
        out
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Classifies a workspace-relative path, or `None` when the file is out
/// of scope (vendored code, build artifacts, analyzer fixtures).
/// `is_file` answers whether a workspace-relative path exists: a module
/// of a binary-only package (`src/main.rs` and no `src/lib.rs`) is
/// binary code, not library code.
pub fn classify(rel_path: &str, is_file: impl Fn(&str) -> bool) -> Option<FileKind> {
    let p = format!("/{}", rel_path.replace('\\', "/"));
    if !p.ends_with(".rs") {
        return None;
    }
    for skip in ["/vendor/", "/target/", "/.git/", "/fixtures/"] {
        if p.contains(skip) {
            return None;
        }
    }
    if p.contains("/src/bin/") {
        return Some(FileKind::Binary);
    }
    if p.contains("/tests/") {
        return Some(FileKind::Test);
    }
    if p.contains("/benches/") {
        return Some(FileKind::Bench);
    }
    if let Some(src) = p.find("/src/") {
        let package = &p[1..src + 1];
        let binary_only =
            is_file(&format!("{package}src/main.rs")) && !is_file(&format!("{package}src/lib.rs"));
        return Some(if binary_only {
            FileKind::Binary
        } else {
            FileKind::Library
        });
    }
    None
}

/// Walks the workspace at `root` and loads every in-scope source file,
/// sorted by path so diagnostics are deterministic.
pub fn collect_workspace(root: &Path) -> io::Result<Vec<SourceFile>> {
    let mut files = Vec::new();
    walk(root, root, &mut files)?;
    files.sort_by(|a, b| a.path.cmp(&b.path));
    Ok(files)
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<SourceFile>) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if matches!(
                name.as_ref(),
                "vendor" | "target" | ".git" | "fixtures" | "node_modules"
            ) {
                continue;
            }
            walk(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            if let Some(kind) = classify(&rel, |p| root.join(p).is_file()) {
                let text = std::fs::read_to_string(&path)?;
                out.push(SourceFile {
                    path: rel,
                    kind,
                    text,
                });
            }
        }
    }
    Ok(())
}

/// Runs every rule over `files` and returns the sorted report.
pub fn analyze(files: &[SourceFile]) -> SastReport {
    let lexed: Vec<lexer::Lexed> = files.iter().map(|f| lexer::lex(&f.text)).collect();
    let mut diags = Vec::new();
    for (f, l) in files.iter().zip(&lexed) {
        rules::lock_order::check(f, l, &mut diags);
        rules::atomics::check(f, l, &mut diags);
        rules::forbidden::check(f, l, &mut diags);
    }
    rules::failpoints::check(files, &lexed, &mut diags);
    rules::protocol::check(files, &lexed, &mut diags);
    // Apply `// sast: allow QS000N` suppressions at the finding's line.
    let mut kept = Vec::new();
    for d in diags {
        let idx = files.iter().position(|f| f.path == d.file);
        let suppressed = idx
            .and_then(|i| lexed[i].marker_at(d.line))
            .map(|m| {
                m.strip_prefix("allow")
                    .map(|rest| rest.trim_start().starts_with(d.rule.code()))
                    .unwrap_or(false)
            })
            .unwrap_or(false);
        if !suppressed {
            kept.push(d);
        }
    }
    kept.sort_by(|a, b| (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule)));
    SastReport {
        diagnostics: kept,
        files_scanned: files.len(),
    }
}

/// Convenience: analyze a whole workspace directory.
pub fn analyze_workspace(root: &Path) -> io::Result<SastReport> {
    Ok(analyze(&collect_workspace(root)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A workspace holding library packages (`src/lib.rs`, one also with
    /// `src/main.rs`) and a binary-only package `tool`.
    fn layout(p: &str) -> bool {
        [
            "src/lib.rs",
            "crates/serve/src/lib.rs",
            "crates/mixed/src/lib.rs",
            "crates/mixed/src/main.rs",
            "tool/src/main.rs",
        ]
        .contains(&p)
    }

    #[test]
    fn classification_scopes_trees() {
        let classify = |p| classify(p, layout);
        assert_eq!(
            classify("crates/serve/src/shard.rs"),
            Some(FileKind::Library)
        );
        assert_eq!(classify("src/lib.rs"), Some(FileKind::Library));
        assert_eq!(classify("src/bin/quasar.rs"), Some(FileKind::Binary));
        assert_eq!(
            classify("crates/bench/src/bin/repro.rs"),
            Some(FileKind::Binary)
        );
        assert_eq!(
            classify("crates/serve/tests/overload.rs"),
            Some(FileKind::Test)
        );
        assert_eq!(classify("crates/bench/benches/x.rs"), Some(FileKind::Bench));
        assert_eq!(classify("vendor/serde/src/lib.rs"), None);
        assert_eq!(classify("crates/sast/tests/fixtures/bad.rs"), None);
        assert_eq!(classify("README.md"), None);
    }

    #[test]
    fn modules_of_a_binary_only_package_are_binary_code() {
        let classify = |p| classify(p, layout);
        assert_eq!(classify("tool/src/main.rs"), Some(FileKind::Binary));
        assert_eq!(classify("tool/src/trace.rs"), Some(FileKind::Binary));
        assert_eq!(classify("tool/src/a/b.rs"), Some(FileKind::Binary));
        // A package with a library target keeps its modules in scope.
        assert_eq!(classify("crates/mixed/src/x.rs"), Some(FileKind::Library));
        assert_eq!(classify("src/model.rs"), Some(FileKind::Library));
    }

    #[test]
    fn unsafe_fires_in_library_modules_only() {
        let unsafe_module = |path: &str| SourceFile {
            path: path.to_string(),
            kind: classify(path, layout).expect("in scope"),
            text: "pub fn f(p: *const u8) -> u8 { unsafe { *p } }\n".to_string(),
        };
        let fired = |path: &str| {
            analyze(&[unsafe_module(path)])
                .diagnostics
                .iter()
                .any(|d| d.rule == RuleId::UnsafeCode)
        };
        assert!(fired("crates/serve/src/alloc.rs"));
        assert!(fired("crates/mixed/src/alloc.rs"));
        assert!(!fired("tool/src/alloc.rs"));
    }

    #[test]
    fn json_escapes_and_summarizes() {
        let report = SastReport {
            diagnostics: vec![Diagnostic {
                rule: RuleId::ProcessExit,
                severity: Severity::Error,
                message: "say \"no\"".into(),
                file: "a.rs".into(),
                line: 3,
                col: 7,
            }],
            files_scanned: 1,
        };
        let json = report.to_json();
        assert!(json.contains("\"rule\":\"QS0005\""));
        assert!(json.contains("say \\\"no\\\""));
        assert!(report.denies(Severity::Error));
        assert!(report.denies(Severity::Info));
        assert_eq!(report.errors(), 1);
    }
}
