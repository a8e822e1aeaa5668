//! The acceptance suite of the analyzer:
//!
//! * a freshly trained, converged netgen model is audit-clean at
//!   `Error` severity (property-tested across training seeds);
//! * every seeded defect class from the testkit injectors is caught by
//!   exactly its rule id — no cross-rule false positives;
//! * the audit is static: it finishes in well under a second on models
//!   whose simulation takes orders of magnitude longer;
//! * a byte-corrupted persisted model fails loading with a typed
//!   diagnostic instead of reaching the analyzer at all.

use proptest::prelude::*;
use quasar_core::persist::{load_model, save_model};
use quasar_lint::{audit, Scanned, Severity};
use quasar_testkit::defects::{flip_byte, DefectClass};
use quasar_testkit::workload::tiny_trained;
use std::collections::BTreeSet;
use std::path::PathBuf;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("quasar-lint-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[test]
fn trained_model_is_error_clean_and_audit_is_fast() {
    let model = tiny_trained(5).model;
    let report = audit(&model);
    assert_eq!(
        report.errors(),
        0,
        "trained model must be Error-clean:\n{}",
        report.render_text()
    );
    assert!(!report.denies(Severity::Error));
    assert!(
        report.elapsed_micros < 1_000_000,
        "static audit took {}us — is something simulating?",
        report.elapsed_micros
    );
    assert!(
        matches!(report.scanned, Scanned::Model { rules_scanned, .. } if rules_scanned > 0),
        "the trained model has policy rules"
    );
}

#[test]
fn each_defect_class_is_caught_by_exactly_its_rule() {
    let fixture = tiny_trained(9);
    let baseline: BTreeSet<&'static str> =
        audit(&fixture.model).fired_codes().into_iter().collect();
    for class in DefectClass::ALL {
        let mut broken = fixture.model.clone();
        let what = class
            .inject(&mut broken, 1234)
            .unwrap_or_else(|e| panic!("{class:?} failed to inject: {e}"));
        let report = audit(&broken);
        let fired: BTreeSet<&'static str> = report.fired_codes().into_iter().collect();
        let new: BTreeSet<&'static str> = fired.difference(&baseline).copied().collect();
        assert_eq!(
            new,
            BTreeSet::from([class.expected_rule()]),
            "{class:?} ({what}) must fire exactly {} — got new codes {new:?}\n{}",
            class.expected_rule(),
            report.render_text()
        );
    }
}

#[test]
fn defect_detection_is_seed_stable() {
    let fixture = tiny_trained(11);
    for seed in [1u64, 77, 4096] {
        for class in DefectClass::ALL {
            let mut broken = fixture.model.clone();
            class
                .inject(&mut broken, seed)
                .unwrap_or_else(|e| panic!("{class:?}/{seed} failed to inject: {e}"));
            let report = audit(&broken);
            assert!(
                report.fired_codes().contains(&class.expected_rule()),
                "{class:?} with seed {seed} missed {}:\n{}",
                class.expected_rule(),
                report.render_text()
            );
        }
    }
}

#[test]
fn error_level_defects_deny_and_render_everywhere() {
    let fixture = tiny_trained(13);
    let mut broken = fixture.model.clone();
    DefectClass::DuplicateMedRanking
        .inject(&mut broken, 5)
        .expect("inject duplicate ranking");
    let report = audit(&broken);
    assert!(report.denies(Severity::Error));
    let summary = report.error_summary();
    assert!(summary.contains("QL0006"), "summary: {summary}");
    let text = report.render_text();
    assert!(text.contains("QL0006"), "text: {text}");
    let json = report.to_json().expect("report serializes");
    assert!(json.contains("\"rule\":\"QL0006\""), "json: {json}");
}

#[test]
fn corrupt_artifact_fails_with_typed_diagnostic_before_audit() {
    let dir = scratch("corrupt");
    let model = tiny_trained(17).model;
    let path = dir.join("model.bin");
    save_model(&path, &model).expect("save model");
    flip_byte(&path, 99).expect("corrupt model file");
    let err = load_model(&path).expect_err("corrupted artifact must not load");
    assert!(
        err.is_corruption(),
        "want a corruption-class error, got: {err}"
    );
    assert!(err.hint().is_some(), "corruption errors carry a hint");
}

#[test]
fn structurally_damaged_json_is_rejected_by_validation() {
    // A checksum-valid frame whose *payload* contains an out-of-bounds
    // session index: caught by validate_structure inside from_json, not
    // by a panic in rebuild_indices.
    let model = tiny_trained(19).model;
    let json = model.to_json().expect("model serializes");
    let sessions = model.network().num_sessions();
    assert!(sessions > 0);
    // Session endpoints serialize as `"a":<idx>` — point one out of range.
    let damaged = json.replacen("\"a\":0", "\"a\":65535", 1);
    assert_ne!(damaged, json, "fixture must contain a session endpoint");
    let err = quasar_core::model::AsRoutingModel::from_json(&damaged)
        .expect_err("out-of-bounds session index must be rejected");
    let msg = err.to_string();
    assert!(
        msg.contains("model structure invalid"),
        "want a structural diagnostic, got: {msg}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// §4.6 refinement, whatever the seed, never produces an
    /// Error-level finding: one SetMed per (session, prefix), only
    /// routed prefixes referenced, no iBGP, no reflector marks.
    #[test]
    fn any_trained_netgen_model_is_error_clean(seed in 0u64..64) {
        let model = tiny_trained(seed).model;
        let report = audit(&model);
        prop_assert!(
            !report.denies(Severity::Error),
            "seed {} produced errors:\n{}",
            seed,
            report.render_text()
        );
    }
}
