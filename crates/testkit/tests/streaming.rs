//! Streaming-pipeline suites: the incremental-equals-full differential
//! (a replayed update stream must yield an epoch byte-identical to an
//! offline from-scratch retrain of the same path set, at every thread
//! count), zero-downtime serve swaps under live query load, and the
//! follow-mode soak tailing a file another thread is appending to.

use quasar_core::persist::load_model;
use quasar_serve::server::{serve, ServeConfig};
use quasar_serve::shard::ShardedState;
use quasar_stream::prelude::*;
use quasar_testkit::diff::{ask, reply_line};
use quasar_testkit::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

fn stream_cfg(updates: PathBuf, model_out: PathBuf, threads: usize) -> StreamConfig {
    StreamConfig {
        updates,
        model_out,
        // Half-hour record-time windows: the RIB dump lands in one
        // window, the updates spread over several more.
        window_secs: 1_800,
        threads,
        ..StreamConfig::default()
    }
}

#[test]
fn incremental_replay_is_byte_identical_to_full_retrain() {
    for seed in [71u64, 72] {
        let scenario = transition_scenario(seed, 6);
        assert!(!scenario.dirty.is_empty(), "seed {seed}: nothing perturbed");
        let dir = scratch_dir(&format!("differential-{seed}"));
        let updates = dir.join("updates.mrt");
        write_archive(&updates, &scenario.records);

        let baseline = full_retrain_artifact(
            &dataset_of(&scenario.after),
            1,
            &dir.join("baseline.quasar"),
        );

        let mut streamed_by_threads = Vec::new();
        for threads in [1usize, 4] {
            let model_out = dir.join(format!("model-t{threads}.quasar"));
            let mut pipeline =
                Pipeline::new(stream_cfg(updates.clone(), model_out.clone(), threads))
                    .expect("pipeline");
            let report = pipeline.run_file().expect("replay");
            assert!(report.source_error.is_none(), "{report:?}");
            assert!(
                report.status.windows >= 2,
                "seed {seed}: dump window + update windows, got {}",
                report.status.windows
            );
            assert!(
                report.status.incremental_windows >= 1,
                "seed {seed}: graph-preserving shifts must take the incremental path: {report:?}"
            );
            let bytes = std::fs::read(&model_out).expect("streamed artifact");
            assert_eq!(
                bytes, baseline,
                "seed {seed}, {threads} threads: streamed epoch differs from offline retrain"
            );
            streamed_by_threads.push(bytes);
        }
        assert_eq!(
            streamed_by_threads[0], streamed_by_threads[1],
            "seed {seed}: thread count changed the artifact"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn delta_detector_recovers_exactly_the_perturbed_prefixes() {
    let scenario = transition_scenario(75, 8);
    let mut state = PathState::new();
    // Apply the dump (peer table + before-RIB) first; its dirt is just
    // "everything is new" and not part of the transition ground truth.
    let dump: Vec<_> = scenario
        .records
        .iter()
        .filter(|r| r.timestamp <= scenario.stream_cfg.dump_time)
        .cloned()
        .collect();
    let updates: Vec<_> = scenario
        .records
        .iter()
        .filter(|r| r.timestamp > scenario.stream_cfg.dump_time)
        .cloned()
        .collect();
    state.apply(&dump);
    let applied = state.apply(&updates);
    let got: Vec<_> = applied.dirty.iter().copied().collect();
    assert_eq!(
        got, scenario.dirty,
        "dirty set must match the perturbation ground truth exactly"
    );
    // And the final state must be the after set.
    assert_eq!(
        state.dataset().routes(),
        dataset_of(&scenario.after).routes()
    );
}

#[test]
fn live_server_keeps_answering_through_streamed_swaps() {
    let scenario = transition_scenario(73, 6);
    let dir = scratch_dir("swap");
    let updates = dir.join("updates.mrt");
    write_archive(&updates, &scenario.records);

    // The server starts on the before-set model (what `quasar train`
    // would have produced from the dump).
    let before_artifact =
        full_retrain_artifact(&dataset_of(&scenario.before), 1, &dir.join("before.quasar"));
    drop(before_artifact);
    let before_model = load_model(dir.join("before.quasar")).expect("before model");
    let state = Arc::new(ShardedState::new(before_model, ServeConfig::default(), 1));
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let server = {
        let state = Arc::clone(&state);
        thread::spawn(move || serve(state, listener))
    };

    // Probe a perturbed prefix: its answer is allowed to change across
    // epochs, but every reply must be a well-formed prediction.
    let probe_prefix = scenario.dirty[0];
    let observer = scenario.before[0].observer_as.0;
    let probe = format!(r#"{{"type":"predict","prefix":"{probe_prefix}","observer":{observer}}}"#);
    let before_reply = ask(addr, &probe).expect("pre-stream query");
    assert!(
        before_reply.contains(r#""type":"predict""#),
        "{before_reply}"
    );

    // Hammer the probe from a side thread for the whole replay.
    let stop = Arc::new(AtomicBool::new(false));
    let querier = {
        let stop = Arc::clone(&stop);
        let probe = probe.clone();
        thread::spawn(move || {
            let mut replies = Vec::new();
            while !stop.load(Ordering::Relaxed) {
                replies.push(ask(addr, &probe).expect("query during swap"));
                thread::sleep(Duration::from_millis(2));
            }
            replies
        })
    };

    let model_out = dir.join("model.quasar");
    let mut pipeline = Pipeline::new(StreamConfig {
        serve_addr: Some(addr.to_string()),
        ..stream_cfg(updates, model_out.clone(), 1)
    })
    .expect("pipeline");
    let report = pipeline.run_file().expect("replay");
    stop.store(true, Ordering::Relaxed);
    let during = querier.join().expect("querier thread");

    assert!(report.source_error.is_none(), "{report:?}");
    assert!(report.status.swaps >= 1, "at least one epoch swapped in");
    assert_eq!(report.status.swaps_rejected, 0, "{report:?}");

    // Zero dropped, zero malformed answers while epochs swapped beneath
    // the clients.
    assert!(!during.is_empty());
    for reply in &during {
        assert!(
            reply.contains(r#""type":"predict""#),
            "mid-swap reply degraded: {reply}"
        );
    }

    // After the stream: the server must answer exactly like a fresh
    // server loaded with the final streamed epoch.
    let after_reply = ask(addr, &probe).expect("post-stream query");
    let final_model = load_model(&model_out).expect("final epoch loads");
    let oracle = ShardedState::new(final_model, ServeConfig::default(), 1);
    assert_eq!(after_reply.trim(), reply_line(&oracle, &probe));

    // The pipeline's status is served back through metrics.
    let metrics = ask(addr, r#"{"type":"metrics"}"#).expect("metrics");
    assert!(
        metrics.contains(r#""source_done":true"#),
        "stream status must ride in metrics: {metrics}"
    );

    let _ = ask(addr, r#"{"type":"shutdown"}"#);
    server
        .join()
        .expect("server thread")
        .expect("serve exits cleanly");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn follow_mode_tails_a_concurrently_appended_file() {
    let scenario = transition_scenario(74, 5);
    let dir = scratch_dir("follow");
    let updates = dir.join("updates.mrt");
    let bytes = archive_bytes(&scenario.records);
    let total_updates = scenario
        .records
        .iter()
        .filter(|r| matches!(r.body, quasar_mrt::record::MrtBody::Bgp4mp(_)))
        .count() as u64;
    assert!(total_updates > 0);

    // Chunk boundaries at arbitrary byte offsets — the middle cuts land
    // mid-record, which is exactly what a live tail looks like.
    let cuts = [bytes.len() / 3, bytes.len() / 3 + bytes.len() / 2];
    std::fs::write(&updates, &bytes[..cuts[0]]).expect("first chunk");

    let model_out = dir.join("model.quasar");
    let pipeline_thread = {
        let cfg = StreamConfig {
            follow: true,
            poll_ms: 10,
            idle_timeout_ms: 1_500,
            ..stream_cfg(updates.clone(), model_out.clone(), 1)
        };
        thread::spawn(move || {
            let mut pipeline = Pipeline::new(cfg).expect("pipeline");
            pipeline.run_file().expect("follow replay")
        })
    };

    // Append the rest while the pipeline is live.
    for window in [&bytes[cuts[0]..cuts[1]], &bytes[cuts[1]..]] {
        thread::sleep(Duration::from_millis(150));
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&updates)
            .expect("open for append");
        f.write_all(window).expect("append chunk");
    }

    let report = pipeline_thread.join().expect("pipeline thread");
    assert!(report.source_error.is_none(), "{report:?}");
    assert!(report.status.source_done);
    assert_eq!(
        report.status.updates_total, total_updates,
        "every appended update must be ingested: {report:?}"
    );

    // Tailing must converge to the same epoch as a one-shot replay.
    let baseline = full_retrain_artifact(
        &dataset_of(&scenario.after),
        1,
        &dir.join("baseline.quasar"),
    );
    assert_eq!(std::fs::read(&model_out).expect("artifact"), baseline);
    let _ = std::fs::remove_dir_all(&dir);
}
