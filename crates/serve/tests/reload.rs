//! The `reload` verb: a valid model file is validated off-thread and
//! atomically swapped in; a corrupt or truncated file is rejected with a
//! typed error — the current model keeps serving, and the failure is
//! counted. No failpoints needed: real files drive both paths.

use quasar_core::persist::save_model;
use quasar_serve::protocol::{Request, Response};
use quasar_serve::server::ServeConfig;
use quasar_serve::shard::ShardedState;
use quasar_testkit::workload::{tiny_trained, toy_model};
use std::path::PathBuf;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("quasar-reload-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn stats_of(state: &ShardedState) -> (usize, usize) {
    match state.dispatch(&Request::Stats) {
        Response::Stats(s) => (s.prefixes, s.quasi_routers),
        other => panic!("stats request failed: {other:?}"),
    }
}

#[test]
fn reload_swaps_in_a_fresh_model() {
    let dir = scratch("swap");
    let replacement = tiny_trained(11).model;
    let path = dir.join("next.model");
    save_model(&path, &replacement).expect("save replacement");

    let state = ShardedState::new(toy_model(), ServeConfig::default(), 1);
    let before = stats_of(&state);

    let resp = state.dispatch(&Request::Reload {
        path: path.to_str().unwrap().to_string(),
    });
    match resp {
        Response::Reload(r) => {
            assert!(r.swapped);
            assert_eq!(r.prefixes, replacement.prefixes().len());
        }
        other => panic!("want Reload reply, got {other:?}"),
    }

    let after = stats_of(&state);
    assert_eq!(after.0, replacement.prefixes().len());
    assert_ne!(before, after, "the served model must actually change");
    assert_eq!(state.metrics().reloads(), 1);
    assert_eq!(state.metrics().reload_failures(), 0);
}

#[test]
fn reload_rejects_a_legacy_bare_json_model() {
    let dir = scratch("legacy");
    let replacement = tiny_trained(12).model;
    let path = dir.join("legacy.json");
    std::fs::write(&path, replacement.to_json().expect("serializes")).expect("write bare JSON");

    let state = ShardedState::new(toy_model(), ServeConfig::default(), 1);
    let before = stats_of(&state);
    let resp = state.dispatch(&Request::Reload {
        path: path.to_str().unwrap().to_string(),
    });
    match resp {
        Response::Error(e) => assert!(
            e.message.contains("reload rejected; keeping current model")
                && e.message.contains("corrupt artifact header at byte 0"),
            "an unframed model must be refused: {}",
            e.message
        ),
        other => panic!("want a rejection, got {other:?}"),
    }
    assert_eq!(stats_of(&state), before, "the old model keeps serving");
    assert_eq!(state.metrics().reload_failures(), 1);
}

#[test]
fn corrupt_reload_is_rejected_and_the_old_model_keeps_serving() {
    let dir = scratch("corrupt");
    let replacement = tiny_trained(13).model;
    let path = dir.join("next.model");
    save_model(&path, &replacement).expect("save replacement");
    // Truncate the artifact mid-payload.
    let bytes = std::fs::read(&path).expect("read");
    std::fs::write(&path, &bytes[..bytes.len() / 2]).expect("truncate");

    let state = ShardedState::new(toy_model(), ServeConfig::default(), 1);
    let before = stats_of(&state);

    let resp = state.dispatch(&Request::Reload {
        path: path.to_str().unwrap().to_string(),
    });
    match resp {
        Response::Error(e) => {
            assert!(
                e.message.contains("reload rejected; keeping current model"),
                "the reply must say rollback happened: {}",
                e.message
            );
            assert!(
                e.message.contains("byte"),
                "the typed persist error must name the byte offset: {}",
                e.message
            );
        }
        other => panic!("want Error reply for corrupt reload, got {other:?}"),
    }

    assert_eq!(
        stats_of(&state),
        before,
        "a rejected reload must leave the serving model untouched"
    );
    assert_eq!(state.metrics().reloads(), 0);
    assert_eq!(state.metrics().reload_failures(), 1);

    // The same state still accepts a good artifact afterwards.
    save_model(&path, &replacement).expect("re-save intact");
    let resp = state.dispatch(&Request::Reload {
        path: path.to_str().unwrap().to_string(),
    });
    assert!(
        matches!(resp, Response::Reload(_)),
        "recovery reload: {resp:?}"
    );
    assert_eq!(state.metrics().reloads(), 1);
}

#[test]
fn reload_of_a_missing_file_is_rejected() {
    let dir = scratch("missing");
    let state = ShardedState::new(toy_model(), ServeConfig::default(), 1);
    let resp = state.dispatch(&Request::Reload {
        path: dir.join("nope.model").to_str().unwrap().to_string(),
    });
    assert!(
        matches!(resp, Response::Error(_)),
        "missing file must be rejected: {resp:?}"
    );
    assert_eq!(state.metrics().reload_failures(), 1);
}

#[test]
fn audit_error_vetoes_reload_and_the_old_epoch_keeps_serving() {
    use quasar_testkit::defects::DefectClass;

    let dir = scratch("audit-veto");
    // A model that loads and simulates fine but carries an Error-level
    // audit finding: a duplicated per-prefix MED ranking (QL0006).
    let mut tainted = tiny_trained(21).model;
    DefectClass::DuplicateMedRanking
        .inject(&mut tainted, 3)
        .expect("inject duplicate MED ranking");
    let path = dir.join("tainted.model");
    save_model(&path, &tainted).expect("save tainted model");

    let state = ShardedState::new(toy_model(), ServeConfig::default(), 1);
    let before = stats_of(&state);

    let resp = state.dispatch(&Request::Reload {
        path: path.to_str().unwrap().to_string(),
    });
    match resp {
        Response::Error(e) => {
            assert!(
                e.message.contains("reload rejected; keeping current model"),
                "the reply must say rollback happened: {}",
                e.message
            );
            assert!(
                e.message.contains("static audit") && e.message.contains("QL0006"),
                "the typed reply must name the audit rule: {}",
                e.message
            );
        }
        other => panic!("want Error reply for audit veto, got {other:?}"),
    }
    assert_eq!(
        stats_of(&state),
        before,
        "a vetoed reload must leave the serving model untouched"
    );
    assert_eq!(state.metrics().reloads(), 0);
    assert_eq!(state.metrics().reload_failures(), 1);

    // Warn-level findings do not veto: the fixture's own trained model
    // (possibly warn-carrying, never error-carrying) swaps in fine.
    let clean_path = dir.join("clean.model");
    save_model(&clean_path, &tiny_trained(21).model).expect("save clean model");
    let resp = state.dispatch(&Request::Reload {
        path: clean_path.to_str().unwrap().to_string(),
    });
    assert!(
        matches!(resp, Response::Reload(_)),
        "audit-clean model must swap in: {resp:?}"
    );
    assert_eq!(state.metrics().reloads(), 1);
}
