//! Arming coverage for the persistence-layer failpoints.
//!
//! `quasar sast`'s failpoint-registry rule (QS0003) requires every inject
//! site to be armed by at least one test — a site nothing arms is dead
//! instrumentation whose failure path is unexercised. These tests arm the
//! three write-path sites (`persist.write`, `persist.rename`,
//! `refine.checkpoint`) and assert each injected fault surfaces as the
//! typed error the production caller would see.
//!
//! Run with `cargo test -p quasar-core --features testkit`.

#![cfg(feature = "testkit")]

use quasar_bgpsim::fail;
use quasar_core::prelude::*;
use quasar_core::refine::{refine_checkpointed, RefineConfig, RefineError};
use quasar_testkit::workload::tiny_trained;
use std::path::PathBuf;
use std::sync::Mutex;

/// The failpoint registry is process-global; armed tests serialize.
static SERIAL: Mutex<()> = Mutex::new(());

fn scratch(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("quasar-failsites-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[test]
fn persist_write_fault_surfaces_as_io_error_and_leaves_no_file() {
    let _guard = SERIAL.lock().unwrap();
    fail::reset(11);
    let dir = scratch("write");
    let path = dir.join("model.json");
    let model = tiny_trained(3).model;

    fail::set("persist.write", "always:error");
    let err = save_model(&path, &model).expect_err("injected write fault must fail the save");
    assert!(
        err.to_string().contains("persist.write"),
        "error must name the injected failpoint: {err}"
    );
    assert!(
        !path.exists(),
        "a failed write must not leave a partial file behind"
    );

    fail::clear_all();
    save_model(&path, &model).expect("save succeeds once the fault is cleared");
    load_model(&path).expect("round-trip after recovery");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn persist_rename_fault_surfaces_and_keeps_the_destination_absent() {
    let _guard = SERIAL.lock().unwrap();
    fail::reset(12);
    let dir = scratch("rename");
    let path = dir.join("model.json");
    let model = tiny_trained(3).model;

    fail::set("persist.rename", "always:error");
    let err = save_model(&path, &model).expect_err("injected rename fault must fail the save");
    assert!(
        err.to_string().contains("persist.rename"),
        "error must name the injected failpoint: {err}"
    );
    assert!(
        !path.exists(),
        "the atomic-rename contract: the destination never holds partial data"
    );

    fail::clear_all();
    save_model(&path, &model).expect("save succeeds once the fault is cleared");
    let _ = std::fs::remove_dir_all(&dir);
}

/// At one thread the domains run inline; at two the pool's coordinator
/// takes the checkpoint error and stops the workers' claims.
#[test]
fn refine_checkpoint_fault_aborts_the_checkpointed_run() {
    let _guard = SERIAL.lock().unwrap();
    let fx = tiny_trained(5);
    assert!(fx.report.domains > 1, "two threads must share the domains");
    for threads in [1, 2] {
        fail::reset(13);
        let dir = scratch(&format!("ckpt-{threads}"));
        let cfg = RefineConfig {
            threads,
            ..RefineConfig::default()
        };

        fail::set("refine.checkpoint", "always:error");
        let mut model = fx.model.clone();
        let err = refine_checkpointed(&mut model, &fx.training, &cfg, Some(&dir))
            .expect_err("an always-failing checkpoint writer must abort the run");
        assert!(
            matches!(err, RefineError::Persist(_)),
            "threads {threads}: checkpoint faults surface as the typed persistence error: {err}"
        );

        fail::clear_all();
        let mut model = fx.model.clone();
        refine_checkpointed(&mut model, &fx.training, &cfg, Some(&dir))
            .expect("checkpointed run succeeds once the fault is cleared");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
