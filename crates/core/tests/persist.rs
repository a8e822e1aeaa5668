//! Integration tests for the persist layer: framed round-trips, refusal
//! of headerless (bare-JSON) files, typed corruption errors with byte
//! offsets, and a fuzz property that no single-byte mutation or
//! truncation of an artifact can ever panic the loader — every damaged
//! file comes back as a typed [`PersistError`].

use proptest::prelude::*;
use quasar_core::persist::{
    self, load_artifact, load_model, save_artifact, save_model, PersistError, KIND_CHECKPOINT,
    KIND_MODEL,
};
use quasar_testkit::workload::toy_model;
use std::path::PathBuf;
use std::sync::OnceLock;

/// A fresh per-test scratch directory under the system temp dir.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("quasar-persist-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// The canonical framed model file, built once: the fuzz property mutates
/// copies of these bytes instead of re-serializing the model per case.
fn framed_fixture() -> &'static (Vec<u8>, String) {
    static FIXTURE: OnceLock<(Vec<u8>, String)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let dir = scratch("fixture");
        let path = dir.join("m.model");
        let model = toy_model();
        save_model(&path, &model).expect("save fixture");
        let bytes = std::fs::read(&path).expect("read fixture back");
        let json = model.to_json().expect("model serializes");
        (bytes, json)
    })
}

#[test]
fn framed_model_round_trips() {
    let dir = scratch("roundtrip");
    let path = dir.join("m.model");
    let model = toy_model();
    save_model(&path, &model).expect("save");

    let bytes = std::fs::read(&path).expect("read back");
    assert!(
        bytes.starts_with(b"QUASAR1 model2 "),
        "framed file must lead with the versioned header"
    );

    let loaded = load_model(&path).expect("load");
    assert_eq!(
        loaded.to_json().expect("loaded serializes"),
        model.to_json().expect("original serializes"),
        "round-trip must be byte-exact"
    );
}

#[test]
fn legacy_bare_json_is_a_bad_header() {
    let dir = scratch("legacy");
    let path = dir.join("legacy.json");
    let json = toy_model().to_json().expect("model serializes");
    std::fs::write(&path, &json).expect("write bare JSON");

    let err = load_model(&path).expect_err("an unframed model must not load unverified");
    assert!(
        matches!(err, PersistError::BadHeader { offset: 0, .. }),
        "want BadHeader at byte 0, got: {err}"
    );
}

#[test]
fn checksum_mismatch_is_typed_and_hinted() {
    let dir = scratch("checksum");
    let path = dir.join("m.model");
    save_model(&path, &toy_model()).expect("save");

    let mut bytes = std::fs::read(&path).expect("read");
    let last = bytes.len() - 1;
    bytes[last] ^= 0x01;
    std::fs::write(&path, &bytes).expect("rewrite corrupted");

    let err = load_model(&path).expect_err("corrupt payload must not load");
    assert!(
        matches!(err, PersistError::ChecksumMismatch { .. }),
        "want ChecksumMismatch, got: {err}"
    );
    assert!(err.is_corruption());
    let hint = err.hint().expect("corruption carries a recovery hint");
    assert!(
        hint.contains("--checkpoint-dir") && hint.contains("--resume"),
        "hint must point at checkpoint recovery: {hint}"
    );
}

#[test]
fn truncated_file_reports_byte_offset() {
    let dir = scratch("truncated");
    let path = dir.join("m.model");
    save_model(&path, &toy_model()).expect("save");

    let bytes = std::fs::read(&path).expect("read");
    std::fs::write(&path, &bytes[..bytes.len() / 2]).expect("truncate");

    let err = load_model(&path).expect_err("truncated payload must not load");
    assert!(
        matches!(err, PersistError::Truncated { .. }),
        "want Truncated, got: {err}"
    );
    assert!(
        err.to_string().contains("byte"),
        "the error must name the byte offset: {err}"
    );
}

#[test]
fn kind_mismatch_is_typed() {
    let dir = scratch("kind");
    let path = dir.join("x.qck");
    save_artifact(&path, KIND_CHECKPOINT, b"{}").expect("save checkpoint-kind artifact");

    let err = load_artifact(&path, KIND_MODEL).expect_err("wrong kind must be refused");
    assert!(
        matches!(err, PersistError::KindMismatch { .. }),
        "want KindMismatch, got: {err}"
    );
}

#[test]
fn headerless_garbage_is_a_bad_header_not_a_panic() {
    let dir = scratch("garbage");
    let path = dir.join("noise.json");
    std::fs::write(&path, b"not json at all").expect("write");
    let err = load_model(&path).expect_err("garbage must not load");
    assert!(
        matches!(err, PersistError::BadHeader { offset: 0, .. }),
        "want BadHeader, got: {err}"
    );
}

#[test]
fn atomic_write_replaces_and_leaves_no_temp_files() {
    let dir = scratch("atomic");
    let path = dir.join("out.bin");
    persist::atomic_write_bytes(&path, b"first").expect("first write");
    persist::atomic_write_bytes(&path, b"second").expect("overwrite");
    assert_eq!(std::fs::read(&path).expect("read"), b"second");
    let leftovers: Vec<_> = std::fs::read_dir(&dir)
        .expect("list dir")
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
        .collect();
    assert!(
        leftovers.is_empty(),
        "temp files left behind: {leftovers:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Any single-byte substitution anywhere in a framed model file —
    /// header, checksum, or payload — must surface as a typed error (the
    /// FNV-1a state after a changed byte never re-converges under
    /// multiply-by-odd-prime and XOR, so a one-byte change always flips
    /// the checksum), and must never panic or load successfully.
    #[test]
    fn any_byte_mutation_yields_typed_error(
        idx in 0usize..10_000,
        bit in 0u8..8,
    ) {
        let (bytes, _) = framed_fixture();
        let idx = idx % bytes.len();
        let mut mutated = bytes.clone();
        mutated[idx] ^= 1 << bit;

        let dir = scratch("fuzz-mut");
        let path = dir.join("m.model");
        std::fs::write(&path, &mutated).expect("write mutated");
        let err = load_model(&path).expect_err("a mutated artifact must never load");
        // Every failure is one of the typed variants; the message always
        // names the file, so operators can find the damaged artifact.
        prop_assert!(err.to_string().contains("m.model"), "untyped error: {err}");
    }

    /// Any truncation of a framed model file must surface as a typed
    /// error, never a panic.
    #[test]
    fn any_truncation_yields_typed_error(cut in 0usize..10_000) {
        let (bytes, _) = framed_fixture();
        let cut = cut % bytes.len(); // strictly shorter than the original
        let dir = scratch("fuzz-trunc");
        let path = dir.join("m.model");
        std::fs::write(&path, &bytes[..cut]).expect("write truncated");
        let err = load_model(&path).expect_err("a truncated artifact must never load");
        prop_assert!(err.to_string().contains("m.model"), "untyped error: {err}");
    }

    /// Arbitrary bytes presented as a model must come back as a typed
    /// error, never a panic.
    #[test]
    fn random_legacy_bytes_never_panic(noise in proptest::collection::vec(any::<u8>(), 0..256)) {
        let dir = scratch("fuzz-legacy");
        let path = dir.join("noise.json");
        std::fs::write(&path, &noise).expect("write noise");
        // Framed-looking noise (starting with the magic) may produce any
        // typed variant; everything else has no header. Either way: an
        // error, not a panic.
        match load_model(&path) {
            Err(PersistError::BadHeader { offset: 0, .. }) => {}
            Err(_) => prop_assert!(noise.starts_with(b"QUASAR1 ")),
            Ok(_) => prop_assert!(false, "noise loaded as a model"),
        }
    }
}
