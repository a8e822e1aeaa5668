//! Fault injection against the streaming pipeline: an ingest fault must
//! end the stream gracefully (windows already processed stay served), a
//! panic mid-window must be resumable from the persisted trainer cache
//! with a byte-identical final epoch, and a rejected reload must leave
//! the old model serving while the pipeline carries on.
//!
//! Run with `cargo test -p quasar-testkit --features testkit`.

#![cfg(feature = "testkit")]

use quasar_core::persist::load_model;
use quasar_serve::server::{serve, ServeConfig};
use quasar_serve::shard::ShardedState;
use quasar_stream::prelude::*;
use quasar_testkit::diff::ask;
use quasar_testkit::fail;
use quasar_testkit::prelude::*;
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::thread;

/// The registry is process-global; every test serializes on this lock
/// and disarms on exit so arm/fire sequences cannot interleave.
static TEST_LOCK: Mutex<()> = Mutex::new(());

struct Armed<'a>(#[allow(dead_code)] std::sync::MutexGuard<'a, ()>);

fn armed(seed: u64) -> Armed<'static> {
    let guard = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    fail::reset(seed);
    Armed(guard)
}

impl Drop for Armed<'_> {
    fn drop(&mut self) {
        fail::clear_all();
    }
}

fn stream_cfg(updates: PathBuf, model_out: PathBuf) -> StreamConfig {
    StreamConfig {
        updates,
        model_out,
        window_secs: 1_800,
        threads: 1,
        ..StreamConfig::default()
    }
}

#[test]
fn ingest_fault_ends_the_stream_gracefully() {
    let _armed = armed(11);
    let scenario = transition_scenario(81, 4);
    let dir = scratch_dir("fp-ingest");
    let updates = dir.join("updates.mrt");
    write_archive(&updates, &scenario.records);

    fail::set("stream.ingest", "once:error");
    let mut pipeline =
        Pipeline::new(stream_cfg(updates.clone(), dir.join("model.quasar"))).expect("pipeline");
    let report = pipeline
        .run_file()
        .expect("graceful degradation, not an error");
    let err = report.source_error.expect("fault must be reported");
    assert!(err.contains("stream.ingest"), "{err}");
    assert_eq!(report.status.windows, 0, "fault fired before any read");

    // Disarmed, the same file replays fully.
    fail::clear("stream.ingest");
    let mut pipeline =
        Pipeline::new(stream_cfg(updates, dir.join("model2.quasar"))).expect("pipeline");
    let report = pipeline.run_file().expect("clean replay");
    assert!(report.source_error.is_none());
    assert!(report.status.windows >= 2);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn panic_mid_window_resumes_to_a_byte_identical_epoch() {
    let _armed = armed(12);
    let scenario = transition_scenario(82, 6);
    let dir = scratch_dir("fp-resume");
    let updates = dir.join("updates.mrt");
    write_archive(&updates, &scenario.records);
    let baseline = full_retrain_artifact(
        &dataset_of(&scenario.after),
        1,
        &dir.join("baseline.quasar"),
    );

    // First attempt: the second window's processing panics. Window 1 has
    // already trained and persisted its trainer cache to the state dir.
    fail::set("stream.window", "at2:panic");
    let model_out = dir.join("model.quasar");
    let state_dir = dir.join("state");
    let cfg = StreamConfig {
        state_dir: Some(state_dir.clone()),
        ..stream_cfg(updates.clone(), model_out.clone())
    };
    let crashed = std::panic::catch_unwind(AssertUnwindSafe(|| {
        let mut pipeline = Pipeline::new(cfg.clone()).expect("pipeline");
        pipeline.run_file().map(|r| r.status.windows)
    }));
    assert!(crashed.is_err(), "the armed panic must fire: {crashed:?}");

    // Resume: a fresh process (here, a fresh pipeline) picks the trainer
    // cache back up and replays the file to the exact same epoch.
    fail::clear("stream.window");
    let mut pipeline = Pipeline::new(cfg).expect("resumed pipeline");
    let report = pipeline.run_file().expect("resumed replay");
    assert!(report.source_error.is_none(), "{report:?}");
    // The first retrain after resume sees a dataset identical to the
    // cached one for the replayed dump window — proof the cache survived
    // the crash is that the trainer takes a reuse path, not `initial`.
    let first_trained = report
        .windows
        .iter()
        .find(|w| w.mode != "no_change")
        .expect("something trains on resume");
    assert!(
        first_trained.mode.starts_with("incremental"),
        "resume must reuse the persisted cache: {report:?}"
    );
    assert_eq!(
        std::fs::read(&model_out).expect("resumed artifact"),
        baseline,
        "crash + resume changed the epoch bytes"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn rejected_reloads_leave_the_old_model_serving() {
    let _armed = armed(13);
    let scenario = transition_scenario(83, 5);
    let dir = scratch_dir("fp-reject");
    let updates = dir.join("updates.mrt");
    write_archive(&updates, &scenario.records);

    // Live server on the before-set model.
    full_retrain_artifact(&dataset_of(&scenario.before), 1, &dir.join("before.quasar"));
    let before_model = load_model(dir.join("before.quasar")).expect("before model");
    let state = Arc::new(ShardedState::new(before_model, ServeConfig::default(), 1));
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let server = {
        let state = Arc::clone(&state);
        thread::spawn(move || serve(state, listener))
    };
    let probe_prefix = scenario.dirty[0];
    let observer = scenario.before[0].observer_as.0;
    let probe = format!(r#"{{"type":"predict","prefix":"{probe_prefix}","observer":{observer}}}"#);
    let before_reply = ask(addr, &probe).expect("pre-stream query");

    // Every swap is forced down the rejection path.
    fail::set("stream.reload", "always:error");
    let mut pipeline = Pipeline::new(StreamConfig {
        serve_addr: Some(addr.to_string()),
        ..stream_cfg(updates, dir.join("model.quasar"))
    })
    .expect("pipeline");
    let report = pipeline.run_file().expect("replay");

    assert!(report.source_error.is_none(), "{report:?}");
    assert_eq!(report.status.swaps, 0, "{report:?}");
    assert!(report.status.swaps_rejected >= 2, "{report:?}");

    // The server never saw a swapped epoch: identical answers, and its
    // reload counter never moved.
    let after_reply = ask(addr, &probe).expect("post-stream query");
    assert_eq!(before_reply, after_reply, "old model must keep serving");
    let metrics = ask(addr, r#"{"type":"metrics"}"#).expect("metrics");
    assert!(
        metrics_reload_count_is_zero(&metrics),
        "no reload request may reach the server: {metrics}"
    );
    // Progress reports still flowed despite every rejection.
    assert!(metrics.contains(r#""swaps_rejected""#), "{metrics}");

    let _ = ask(addr, r#"{"type":"shutdown"}"#);
    server
        .join()
        .expect("server thread")
        .expect("serve exits cleanly");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Parses the metrics snapshot and checks the `reload` bucket count is 0.
fn metrics_reload_count_is_zero(metrics: &str) -> bool {
    let Ok(resp) = serde_json::from_str::<quasar_serve::protocol::Response>(metrics.trim()) else {
        return false;
    };
    match resp {
        quasar_serve::protocol::Response::Metrics(m) => m
            .requests
            .iter()
            .find(|(kind, _)| kind == "reload")
            .map(|(_, lat)| lat.count == 0)
            .unwrap_or(true),
        _ => false,
    }
}
