//! The source rule set: static analysis of the workspace's own Rust
//! code.
//!
//! Where the model rules audit trained *models*, these rules audit the
//! *sources* that produce and serve them: the concurrency and protocol
//! invariants that DESIGN.md documents but nothing previously checked.
//! A hand-rolled lexer ([`lexer`]) and token-stream helpers stand in for
//! a real frontend — no `syn`, no new dependencies — which is enough
//! because every rule is lexical: lock acquisition order,
//! `Ordering::Relaxed` justifications, failpoint-name consistency,
//! request/response/metrics cross-references, and the forbidden patterns
//! the old grep script enforced, now with real spans. The catalogue
//! (QS0001–QS0007) is in the crate docs; DESIGN.md §11 has the rationale.
//!
//! Suppression: a comment `// sast: allow QS000N <reason>` on the same
//! line or the line above silences that rule at that spot; the
//! atomic-ordering rule additionally honors its dedicated justification
//! form `// sast: relaxed-ok <reason>`.
//!
//! Entry points: [`collect_workspace`] gathers and classifies the
//! sources, [`analyze`] produces a [`Report`]. The CLI front door is
//! `quasar sast [--root DIR] [--json] [--deny warn|error]` with the same
//! 0/1/2 exit-code contract as `quasar lint`.

pub mod lexer;
pub mod rules;
mod scope;

use crate::{Diagnostic, Location, Report, Scanned};
use std::io;
use std::path::Path;

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
    /// Workspace-relative path.
    pub path: String,
    /// The tree the file belongs to.
    pub kind: FileKind,
    /// The file's contents.
    pub text: String,
}

/// Classifies a workspace-relative path, or `None` when the file is out
/// of scope (vendored code, build artifacts, analyzer fixtures).
/// `is_file` answers whether a workspace-relative path exists: a module
/// of a binary-only package (`src/main.rs` and no `src/lib.rs`) is
/// binary code, not library code.
pub(crate) fn classify(rel_path: &str, is_file: impl Fn(&str) -> bool) -> Option<FileKind> {
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
pub fn analyze(files: &[SourceFile]) -> Report {
    let started = std::time::Instant::now();
    let lexed: Vec<lexer::Lexed> = files.iter().map(|f| lexer::lex(&f.text)).collect();
    let mut diags: Vec<Diagnostic> = Vec::new();
    for (f, l) in files.iter().zip(&lexed) {
        rules::lock_order::check(f, l, &mut diags);
        rules::atomics::check(f, l, &mut diags);
        rules::forbidden::check(f, l, &mut diags);
    }
    rules::failpoints::check(files, &lexed, &mut diags);
    rules::protocol::check(files, &lexed, &mut diags);
    // Apply `// sast: allow QS000N` suppressions at the finding's line.
    diags.retain(|d| {
        let Location::Span { file, line, .. } = &d.location else {
            return true;
        };
        let marker = files
            .iter()
            .position(|f| &f.path == file)
            .and_then(|i| lexed[i].marker_at(*line));
        !marker
            .and_then(|m| m.strip_prefix("allow"))
            .is_some_and(|rest| rest.trim_start().starts_with(d.rule.code()))
    });
    diags.sort_by(|a, b| (&a.location, a.rule).cmp(&(&b.location, b.rule)));
    Report {
        diagnostics: diags,
        scanned: Scanned::Source { files: files.len() },
        elapsed_micros: started.elapsed().as_micros() as u64,
    }
}

/// Convenience: analyze a whole workspace directory.
pub fn analyze_workspace(root: &Path) -> io::Result<Report> {
    Ok(analyze(&collect_workspace(root)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RuleId;

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
            classify("crates/serve/src/bin/loadgen.rs"),
            Some(FileKind::Binary)
        );
        assert_eq!(
            classify("crates/serve/tests/overload.rs"),
            Some(FileKind::Test)
        );
        assert_eq!(classify("crates/serve/benches/x.rs"), Some(FileKind::Bench));
        assert_eq!(classify("vendor/serde/src/lib.rs"), None);
        assert_eq!(classify("crates/lint/tests/fixtures/bad.rs"), None);
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
}
