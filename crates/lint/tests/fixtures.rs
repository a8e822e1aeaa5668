//! Fixture suite: every known-bad snippet under `tests/fixtures/` fires
//! exactly its rule id, the clean fixture fires nothing, and the
//! suppression markers behave as documented. The fixtures are plain
//! `.rs` files the workspace walker deliberately skips (`fixtures/`
//! directories are out of scope), so the self-clean gate and this suite
//! can never contaminate each other.

use quasar_lint::source::{analyze, FileKind, SourceFile};
use quasar_lint::{Diagnostic, Report, Severity};
use std::collections::BTreeSet;

fn errs(report: &Report) -> Vec<&Diagnostic> {
    report
        .diagnostics
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .collect()
}

/// Loads a fixture, presenting it to the analyzer under a synthetic
/// workspace path so classification-sensitive rules see the right tier.
fn fx(name: &str, path: &str, kind: FileKind) -> SourceFile {
    let disk = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    SourceFile {
        path: path.into(),
        kind,
        text: std::fs::read_to_string(&disk)
            .unwrap_or_else(|e| panic!("read fixture {}: {e}", disk.display())),
    }
}

fn lib(name: &str) -> SourceFile {
    fx(name, &format!("crates/fx/src/{name}"), FileKind::Library)
}

fn codes(files: &[SourceFile]) -> BTreeSet<&'static str> {
    analyze(files).fired_codes()
}

fn only(files: &[SourceFile], code: &str) {
    let report = analyze(files);
    let fired = report.fired_codes();
    assert_eq!(
        fired,
        BTreeSet::from([code]),
        "expected exactly {code}: {:#?}",
        report.diagnostics
    );
}

#[test]
fn lock_order_fixture_fires_qs0001_for_both_seeded_violations() {
    let report = analyze(&[lib("lock_order_bad.rs")]);
    assert_eq!(report.fired_codes(), BTreeSet::from(["QS0001"]));
    let messages: Vec<_> = errs(&report).iter().map(|d| d.message.clone()).collect();
    assert_eq!(messages.len(), 2, "{:#?}", report.diagnostics);
    assert!(
        messages
            .iter()
            .any(|m| m.contains("inner") && m.contains("map")),
        "the descending acquisition names both classes: {messages:?}"
    );
    assert!(
        messages.iter().any(|m| m.contains("mystery")),
        "the undeclared class is named: {messages:?}"
    );
}

#[test]
fn atomic_fixture_fires_qs0002() {
    only(&[lib("atomic_bad.rs")], "QS0002");
}

#[test]
fn failpoint_fixtures_fire_qs0003_in_both_directions() {
    let files = [
        lib("failpoint_dead.rs"),
        fx(
            "failpoint_misspelled.rs",
            "crates/fx/tests/failpoint_misspelled.rs",
            FileKind::Test,
        ),
    ];
    let report = analyze(&files);
    assert_eq!(report.fired_codes(), BTreeSet::from(["QS0003"]));
    let errors = errs(&report);
    assert_eq!(errors.len(), 2, "{:#?}", report.diagnostics);
    assert!(
        errors.iter().any(|d| d.message.contains("never armed")),
        "the dead site direction fires"
    );
    assert!(
        errors
            .iter()
            .any(|d| d.message.contains("fixture.oi") && d.message.contains("misspelled")),
        "the misspelled-reference direction fires"
    );
}

#[test]
fn protocol_fixture_fires_qs0004_for_every_broken_leg() {
    let report = analyze(&[lib("protocol_bad.rs")]);
    assert_eq!(report.fired_codes(), BTreeSet::from(["QS0004"]));
    // Pong is unhandled, unanswerable, and uncounted — three legs.
    let errors = errs(&report);
    assert_eq!(errors.len(), 3, "{:#?}", report.diagnostics);
    assert!(errors.iter().all(|d| d.message.contains("Pong")));
}

#[test]
fn forbidden_fixtures_fire_their_own_codes() {
    only(&[lib("forbidden_exit.rs")], "QS0005");
    only(&[lib("forbidden_println.rs")], "QS0006");
    only(&[lib("forbidden_unsafe.rs")], "QS0007");
}

#[test]
fn clean_fixture_is_silent() {
    let report = analyze(&[lib("clean.rs")]);
    assert!(report.diagnostics.is_empty(), "{:#?}", report.diagnostics);
}

#[test]
fn suppression_markers_silence_or_downgrade() {
    let report = analyze(&[lib("suppressed.rs")]);
    assert_eq!(
        report.errors(),
        0,
        "justified relaxed-ok and allow QS0005 suppress entirely: {:#?}",
        report.diagnostics
    );
    let warns: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.severity == Severity::Warn)
        .collect();
    assert_eq!(warns.len(), 1, "{:#?}", report.diagnostics);
    assert_eq!(warns[0].rule.code(), "QS0002");
    assert!(
        warns[0].message.contains("bare"),
        "the warning asks for a justification: {}",
        warns[0].message
    );
}

#[test]
fn fixture_corpus_is_outside_the_workspace_walk() {
    // The self-clean gate scans the real repo; seeded violations must
    // never leak into it.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let files = quasar_lint::source::collect_workspace(&root).expect("walk workspace");
    assert!(
        files.iter().all(|f| !f.path.contains("fixtures/")),
        "fixtures must be skipped by the walker"
    );
    // Sanity: the walk still sees the analyzer's own sources.
    assert!(files
        .iter()
        .any(|f| f.path.ends_with("crates/lint/src/source/mod.rs")));
}

#[test]
fn every_fixture_under_the_directory_is_exercised() {
    // Guards against a future fixture landing without a matching test:
    // the set on disk must equal the set this suite references.
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let on_disk: BTreeSet<String> = std::fs::read_dir(&dir)
        .expect("fixtures dir")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .collect();
    let referenced = BTreeSet::from(
        [
            "lock_order_bad.rs",
            "atomic_bad.rs",
            "failpoint_dead.rs",
            "failpoint_misspelled.rs",
            "protocol_bad.rs",
            "forbidden_exit.rs",
            "forbidden_println.rs",
            "forbidden_unsafe.rs",
            "clean.rs",
            "suppressed.rs",
        ]
        .map(String::from),
    );
    assert_eq!(on_disk, referenced);
}

#[test]
fn codes_helper_smoke() {
    // `codes` is the shape every assertion above builds on; pin it.
    let fired = codes(&[lib("atomic_bad.rs"), lib("forbidden_exit.rs")]);
    assert_eq!(fired, BTreeSet::from(["QS0002", "QS0005"]));
}
