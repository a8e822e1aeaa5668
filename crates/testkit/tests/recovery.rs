//! Recovery drills for the self-healing runtime (DESIGN.md §15):
//!
//! 1. **Serve-outage soak** — the server dies mid-stream and comes back
//!    as a cold replica. The pipeline must count exactly one outage,
//!    keep training and persisting through it, land a catch-up swap on
//!    recovery, and leave the replica serving an epoch byte-identical
//!    to an uninterrupted run (== the offline full retrain).
//! 2. **Quarantine → rebuild → reinstate** — repeated panics on one
//!    shard trip the quarantine threshold; the `health` verb must show
//!    every state the shard passes through (`quarantined`/`rebuilding`
//!    back to `healthy`), the victim's slice must answer typed
//!    `degraded` replies while down, and every other shard must answer
//!    byte-identically throughout.
//! 3. **Rebuild failure** — a rebuild that dies must leave the shard
//!    quarantined (never half-reinstated, never a torn fleet
//!    generation) until a coordinated reload reinstates everything.
//!
//! Run with `cargo test -p quasar-testkit --features testkit`.

#![cfg(feature = "testkit")]

use quasar_bgpsim::types::{Asn, Prefix};
use quasar_core::persist::{load_model, save_model};
use quasar_serve::protocol::{HealthReply, Request, Response};
use quasar_serve::server::{serve, ServeConfig};
use quasar_serve::shard::ShardedState;
use quasar_stream::prelude::*;
use quasar_testkit::diff::{ask, reply_line};
use quasar_testkit::fail;
use quasar_testkit::prelude::*;
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// The failpoint registry is process-global; every test serializes on
/// this lock and disarms on exit so arm/fire sequences cannot
/// interleave.
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

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("quasar-recovery-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Polls `cond` until it holds or the deadline passes.
fn wait_until(what: &str, deadline: Duration, mut cond: impl FnMut() -> bool) {
    let t0 = Instant::now();
    while !cond() {
        assert!(t0.elapsed() < deadline, "timed out waiting for {what}");
        thread::sleep(Duration::from_millis(5));
    }
}

/// The in-process health reply of a sharded fleet.
fn health_of(state: &ShardedState) -> HealthReply {
    match state.dispatch(&Request::Health) {
        Response::Health(h) => h,
        other => panic!("health request failed: {other:?}"),
    }
}

/// The health reply of a live server, over the wire.
fn health_over_wire(addr: SocketAddr) -> HealthReply {
    let line = ask(addr, r#"{"type":"health"}"#).expect("health round trip");
    match serde_json::from_str::<Response>(&line) {
        Ok(Response::Health(h)) => h,
        other => panic!("want a health reply, got {other:?} from {line}"),
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
    let _armed = armed(51);
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
    let before_model = load_model(&dir.join("before.quasar")).expect("before model");
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
    let h = health_over_wire(addr);
    assert_eq!(h.status, "healthy");
    assert_eq!(h.generation, 1);

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
    let final_model = load_model(&dir.join("model.quasar")).expect("final model");
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

    // And the wire-visible health tells the whole story: a healthy
    // fleet at the caught-up generation, with the stream heartbeat
    // carrying the outage history.
    let h = health_over_wire(addr);
    assert_eq!(h.status, "healthy");
    assert_eq!(h.generation, 1);
    let stream = h.stream.expect("the pipeline reported after catch-up");
    assert_eq!(stream.serve_outages, 1);
    assert_eq!(stream.catch_up_swaps, 1);

    let _ = ask(addr, r#"{"type":"shutdown"}"#);
    server2
        .join()
        .expect("server thread")
        .expect("serve exits cleanly");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn quarantine_rebuild_reinstate_is_visible_through_the_health_protocol() {
    let _armed = armed(52);
    let model = toy_model();
    let state = ShardedState::new(
        model.clone(),
        ServeConfig {
            quarantine_threshold: 2,
            ..ServeConfig::default()
        },
        4,
    );
    let p3 = Prefix::for_origin(Asn(3));
    let victim = state.owner_of(p3);

    // The request mix, split by which shard owns the prefix it routes
    // to, with fault-free baselines captured up front.
    let requests: Vec<String> = toy_observers()
        .iter()
        .flat_map(|o| {
            model
                .prefixes()
                .keys()
                .map(move |p| format!(r#"{{"type":"predict","prefix":"{p}","observer":{o}}}"#))
        })
        .collect();
    let on_victim: Vec<bool> = requests
        .iter()
        .map(|r| {
            model
                .prefixes()
                .keys()
                .any(|p| state.owner_of(*p) == victim && r.contains(&format!("\"{p}\"")))
        })
        .collect();
    assert!(on_victim.iter().any(|&v| v) && on_victim.iter().any(|&v| !v));
    let before: Vec<String> = requests.iter().map(|r| reply_line(&state, r)).collect();
    assert_eq!(health_of(&state).status, "healthy");

    // Strike the victim shard twice: threshold reached, quarantine
    // fires, and the rebuild is held visibly in-flight by the delay.
    fail::set("serve.shard.rebuild", "always:delay:500");
    fail::set(&format!("serve.shard.panic.{victim}"), "always:panic");
    let victim_req = requests
        .iter()
        .zip(&on_victim)
        .find(|(_, &v)| v)
        .map(|(r, _)| r.clone())
        .expect("a victim-slice request");
    for strike in 1..=2 {
        let reply = reply_line(&state, &victim_req);
        assert!(
            reply.contains("panicked handling this request"),
            "strike {strike} must be the typed containment error: {reply}"
        );
    }

    // The health verb tracks the shard through `rebuilding`...
    wait_until("the rebuild to start", Duration::from_secs(10), || {
        state.shard_state(victim) == "rebuilding"
    });
    let h = health_of(&state);
    assert_eq!(
        h.status, "degraded",
        "a rebuilding shard degrades the fleet"
    );
    assert_eq!(h.quarantines, 1);
    let shards = h.shards.expect("sharded health carries the shard table");
    assert_eq!(shards[victim].state, "rebuilding");

    // ...while the victim's slice answers typed `degraded` replies
    // without running dispatch work, and every other slice is
    // byte-exact.
    match state.handle_line(&victim_req) {
        Response::Degraded(d) => {
            assert_eq!(d.shard, victim);
            assert_eq!(d.state, "rebuilding");
            assert!(d.retry_after_ms > 0);
        }
        other => panic!("a quarantined slice must answer degraded, got {other:?}"),
    }
    for ((req, want), &v) in requests.iter().zip(&before).zip(&on_victim) {
        if !v {
            assert_eq!(
                &reply_line(&state, req),
                want,
                "healthy slice diverged: {req}"
            );
        }
    }

    // Disarm the crash and let the rebuild finish: the shard comes back
    // healthy at the fleet generation with its strikes cleared, and the
    // whole mix — victim slice included — answers the original bytes.
    fail::clear(&format!("serve.shard.panic.{victim}"));
    wait_until("the shard to reinstate", Duration::from_secs(10), || {
        state.shard_state(victim) == "healthy"
    });
    let h = health_of(&state);
    assert_eq!(h.status, "healthy");
    assert_eq!((h.quarantines, h.rebuilds, h.rebuild_failures), (1, 1, 0));
    let shards = h.shards.expect("shard table");
    assert_eq!(shards[victim].strikes, 0, "reinstatement clears strikes");
    assert_eq!(
        shards[victim].generation, 0,
        "reinstated at the fleet generation"
    );
    let after: Vec<String> = requests.iter().map(|r| reply_line(&state, r)).collect();
    assert_eq!(
        before, after,
        "a rebuilt shard must answer the exact old bytes"
    );
}

#[test]
fn failed_rebuild_keeps_the_shard_quarantined_until_a_fleet_reload() {
    let _armed = armed(53);
    let dir = scratch("rebuild-fail");
    let model = toy_model();
    let state = ShardedState::new(model.clone(), ServeConfig::default(), 4);
    let p3 = Prefix::for_origin(Asn(3));
    let victim = state.owner_of(p3);
    let requests = model_requests(&model, &toy_observers());
    let before: Vec<String> = requests.iter().map(|r| reply_line(&state, r)).collect();

    // Every rebuild dies. The drill hook quarantines the victim the way
    // the strike counter would.
    fail::set("serve.shard.rebuild", "always:error");
    assert!(state.quarantine_shard(victim), "first quarantine wins");
    wait_until("the rebuild to fail", Duration::from_secs(10), || {
        state.metrics().rebuild_failures() >= 1
    });
    assert_eq!(state.shard_state(victim), "quarantined");
    assert!(
        !state.quarantine_shard(victim),
        "a quarantined shard must not spawn a second rebuild"
    );

    // Health says exactly that; the fleet generation is not torn.
    let h = health_of(&state);
    assert_eq!(h.status, "degraded");
    assert_eq!((h.quarantines, h.rebuilds, h.rebuild_failures), (1, 0, 1));
    let shards = h.shards.expect("shard table");
    assert_eq!(shards[victim].state, "quarantined");
    for s in &shards {
        assert_eq!(s.generation, 0, "shard {}: torn generation", s.shard);
    }

    // The victim's slice degrades with a retry hint; every other
    // shard's replies are byte-identical to the fault-free run.
    let probe = format!(r#"{{"type":"predict","prefix":"{p3}","observer":1}}"#);
    match state.handle_line(&probe) {
        Response::Degraded(d) => {
            assert_eq!((d.shard, d.state.as_str()), (victim, "quarantined"));
            assert!(d.retry_after_ms > 0);
        }
        other => panic!("want degraded from the quarantined slice, got {other:?}"),
    }
    let mut degraded = 0usize;
    for (req, want) in requests.iter().zip(&before) {
        let got = reply_line(&state, req);
        if &got == want {
            continue;
        }
        match serde_json::from_str::<Response>(&got) {
            Ok(Response::Degraded(d)) => {
                assert_eq!(
                    (d.shard, d.state.as_str()),
                    (victim, "quarantined"),
                    "only the victim slice may degrade: {req}"
                );
                degraded += 1;
            }
            other => panic!("non-degraded divergence for {req}: {other:?}"),
        }
    }
    assert!(
        degraded > 0,
        "the quarantined slice must actually be exercised"
    );

    // A coordinated fleet reload is the recovery of last resort: it
    // swaps every shard at once and reinstates the quarantined one.
    let replacement = tiny_trained(13).model;
    let path = dir.join("next.model");
    save_model(&path, &replacement).expect("save replacement");
    match state.dispatch(&Request::Reload {
        path: path.to_str().expect("utf-8 path").to_string(),
    }) {
        Response::Reload(r) => {
            assert!(r.swapped);
            assert_eq!(r.generation, 1);
        }
        other => panic!("fleet reload must swap: {other:?}"),
    }
    let h = health_of(&state);
    assert_eq!(h.status, "healthy", "the reload reinstates every shard");
    assert_eq!(h.generation, 1);
    for s in &h.shards.expect("shard table") {
        assert_eq!((s.state.as_str(), s.strikes), ("healthy", 0));
    }
    let _ = std::fs::remove_dir_all(&dir);
}
