//! Recovery drill for the serve tier (DESIGN.md §15): the server dies
//! mid-stream and comes back as a cold replica. The pipeline must count
//! exactly one outage, keep training and persisting through it, land a
//! catch-up swap on recovery, and leave the replica serving an epoch
//! byte-identical to an uninterrupted run (== the offline full
//! retrain), with `metrics` over the wire reporting the caught-up
//! generation and the outage history.
//!
//! The drill arms no failpoint: a graceful shutdown is the outage, so it
//! runs under a plain `cargo test -p quasar-testkit`.

use quasar_core::persist::load_model;
use quasar_serve::metrics::MetricsSnapshot;
use quasar_serve::protocol::Response;
use quasar_serve::server::{serve, ServeConfig};
use quasar_serve::shard::ShardedState;
use quasar_stream::prelude::*;
use quasar_testkit::diff::{ask, reply_line};
use quasar_testkit::prelude::*;
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("quasar-recovery-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// The metrics reply of a live server, over the wire.
fn metrics_over_wire(addr: SocketAddr) -> MetricsSnapshot {
    let line = ask(addr, r#"{"type":"metrics"}"#).expect("metrics round trip");
    match serde_json::from_str::<Response>(&line) {
        Ok(Response::Metrics(m)) => *m,
        other => panic!("want a metrics reply, got {other:?} from {line}"),
    }
}

/// Binds `addr`, retrying briefly: the previous listener's accepted
/// connections may hold the port in TIME_WAIT for a moment after a
/// graceful shutdown.
fn rebind(addr: SocketAddr) -> TcpListener {
    let t0 = Instant::now();
    loop {
        match TcpListener::bind(addr) {
            Ok(l) => return l,
            Err(e) if t0.elapsed() < Duration::from_secs(10) => {
                let _ = e;
                thread::sleep(Duration::from_millis(50));
            }
            Err(e) => panic!("cannot rebind {addr}: {e}"),
        }
    }
}

#[test]
fn serve_outage_mid_stream_recovers_with_a_byte_identical_catch_up_swap() {
    let scenario = transition_scenario(90, 6);
    let dir = scratch("outage");

    // Ground truth: the epoch an *uninterrupted* run would leave behind
    // is the offline full retrain of the after-set.
    let want = full_retrain_artifact(
        &dataset_of(&scenario.after),
        1,
        &dir.join("baseline.quasar"),
    );

    // Window the scenario by record time, exactly as run_file would.
    let mut windower = Windower::new(1_800, 10_000);
    let mut windows: Vec<UpdateWindow> = scenario
        .records
        .iter()
        .filter_map(|r| windower.push(r.clone()))
        .collect();
    windows.extend(windower.flush());
    assert!(
        windows.len() >= 3,
        "the drill needs pre-outage, outage and recovery windows ({} windows)",
        windows.len()
    );

    // Replica #1: a sharded fleet on the before-set model.
    full_retrain_artifact(&dataset_of(&scenario.before), 1, &dir.join("before.quasar"));
    let before_model = load_model(dir.join("before.quasar")).expect("before model");
    let state1 = Arc::new(ShardedState::new(
        before_model.clone(),
        ServeConfig::default(),
        2,
    ));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let server1 = {
        let state = Arc::clone(&state1);
        thread::spawn(move || serve(state, listener))
    };

    let mut pipeline = Pipeline::new(StreamConfig {
        updates: dir.join("unused.mrt"),
        model_out: dir.join("model.quasar"),
        window_secs: 1_800,
        threads: 1,
        serve_addr: Some(addr.to_string()),
        max_retries: 1,
        ..StreamConfig::default()
    })
    .expect("pipeline");

    // Phase 1: the first window swaps into the live replica normally.
    pipeline.process_window(&windows[0]).expect("window 0");
    assert_eq!(pipeline.status().swaps, 1, "first epoch must swap");
    assert_eq!(pipeline.status().serve_outages, 0);
    let m = metrics_over_wire(addr);
    assert_eq!(m.generation, 1);

    // Phase 2: the replica dies. Training and persistence continue;
    // the outage is counted once, however many windows it spans.
    let _ = ask(addr, r#"{"type":"shutdown"}"#);
    server1
        .join()
        .expect("server thread")
        .expect("serve exits cleanly");
    let last = windows.len() - 1;
    for w in &windows[1..last] {
        pipeline.process_window(w).expect("outage window");
    }
    assert_eq!(
        pipeline.status().serve_outages,
        1,
        "one outage, counted once: {:?}",
        pipeline.status()
    );
    assert_eq!(pipeline.status().swaps, 1, "no swap can land while down");
    assert!(
        dir.join("model.quasar").exists(),
        "epochs must persist through the outage"
    );

    // Phase 3: a cold replica comes back on the same address (fresh
    // state, stale model, generation 0) and the next window's half-open
    // probe lands the catch-up swap.
    let state2 = Arc::new(ShardedState::new(before_model, ServeConfig::default(), 2));
    let listener = rebind(addr);
    let server2 = {
        let state = Arc::clone(&state2);
        thread::spawn(move || serve(state, listener))
    };
    pipeline
        .process_window(&windows[last])
        .expect("recovery window");
    assert_eq!(
        pipeline.status().catch_up_swaps,
        1,
        "recovery must land as a catch-up swap: {:?}",
        pipeline.status()
    );
    assert_eq!(pipeline.generation(), 1, "cold replica's first swap");

    // The recovered replica serves an epoch byte-identical to the
    // uninterrupted run: artifact bytes match the offline retrain, and
    // live replies match a one-shot server loaded from that artifact.
    let got = std::fs::read(dir.join("model.quasar")).expect("streamed artifact");
    assert_eq!(
        got, want,
        "post-outage epoch must be byte-identical to the offline retrain"
    );
    let final_model = load_model(dir.join("model.quasar")).expect("final model");
    let oneshot = ShardedState::new(final_model, ServeConfig::default(), 1);
    for p in scenario.dirty.iter().take(3) {
        let observer = scenario.before[0].observer_as.0;
        let probe = format!(r#"{{"type":"predict","prefix":"{p}","observer":{observer}}}"#);
        let live = ask(addr, &probe).expect("post-recovery query");
        assert_eq!(
            live,
            reply_line(&oneshot, &probe),
            "post-recovery reply diverged for {probe}"
        );
    }

    // And the wire-visible metrics tell the whole story: the fleet at
    // the caught-up generation, with the stream status carrying the
    // outage history.
    let m = metrics_over_wire(addr);
    assert_eq!(m.generation, 1);
    let stream = m.stream.expect("the pipeline reported after catch-up");
    assert_eq!(stream.serve_outages, 1);
    assert_eq!(stream.catch_up_swaps, 1);

    let _ = ask(addr, r#"{"type":"shutdown"}"#);
    server2
        .join()
        .expect("server thread")
        .expect("serve exits cleanly");
    let _ = std::fs::remove_dir_all(&dir);
}
