//! Chaos tests for the sharded serve tier's two coordinated-failure
//! surfaces:
//!
//! 1. **Coordinated epoch reload** — the two-phase swap must be
//!    all-or-nothing: a single shard failing validation or failing the
//!    swap itself (failpoints `serve.shard.validate` /
//!    `serve.shard.swap`) rolls the whole fleet back to the old epoch,
//!    metrics report ONE generation across every shard (no torn
//!    generation), and the streaming pipeline counts the refusal as a
//!    rejected swap.
//! 2. **Shard crash containment** — a worker panic injected into one
//!    shard (`serve.shard.panic.<id>`) mid-soak turns into a typed error
//!    for that shard's slice only, while every other shard keeps
//!    answering byte-identically under full chaos-proxy fire.
//!
//! Run with `cargo test -p quasar-testkit --features testkit`.

#![cfg(feature = "testkit")]

use quasar_bgpsim::types::{Asn, Prefix};
use quasar_core::persist::{load_model, save_model};
use quasar_serve::protocol::{Request, Response};
use quasar_serve::server::{serve, ServeConfig};
use quasar_serve::shard::{ShardMap, ShardedState};
use quasar_stream::prelude::*;
use quasar_testkit::diff::{ask, reply_line};
use quasar_testkit::fail;
use quasar_testkit::prelude::*;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::Duration;

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

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("quasar-shard-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// The fleet's metrics snapshot, with the per-shard table.
fn fleet_metrics(state: &ShardedState) -> quasar_serve::metrics::MetricsSnapshot {
    match state.dispatch(&Request::Metrics) {
        Response::Metrics(m) => *m,
        other => panic!("metrics request failed: {other:?}"),
    }
}

/// Asserts every shard of the fleet reports exactly `generation` — the
/// "no torn generation" invariant the two-phase swap exists to uphold.
fn assert_one_generation(state: &ShardedState, generation: u64, context: &str) {
    let m = fleet_metrics(state);
    assert_eq!(m.generation, generation, "{context}: fleet generation");
    assert_eq!(m.shards.len(), state.shards());
    for s in &m.shards {
        assert_eq!(
            s.generation, generation,
            "{context}: shard {} reports a torn generation (fleet at {generation})",
            s.shard
        );
    }
}

#[test]
fn validate_failure_on_one_shard_rejects_the_whole_fleet() {
    let _armed = armed(31);
    let dir = scratch("validate");
    let replacement = tiny_trained(11).model;
    let path = dir.join("next.model");
    save_model(&path, &replacement).expect("save replacement");
    let reload = Request::Reload {
        path: path.to_str().expect("utf-8 path").to_string(),
    };

    let state = ShardedState::new(toy_model(), ServeConfig::default(), 4);
    let requests = model_requests(&toy_model(), &toy_observers());
    let before: Vec<String> = requests.iter().map(|r| reply_line(&state, r)).collect();

    // Shard 2 (the third validate evaluation) fails its validation pass.
    fail::set("serve.shard.validate", "at3:error");
    match state.dispatch(&reload) {
        Response::Error(e) => {
            assert!(
                e.message
                    .contains("reload rejected; keeping current model: shard 2 failed validation"),
                "the refusal must name the failing shard: {}",
                e.message
            );
        }
        other => panic!("want Error reply for vetoed fleet reload, got {other:?}"),
    }

    // Nothing swapped anywhere: one generation, old answers intact.
    assert_one_generation(&state, 0, "after vetoed validate");
    assert_eq!(state.metrics().reloads(), 0);
    assert_eq!(state.metrics().reload_failures(), 1);
    let after: Vec<String> = requests.iter().map(|r| reply_line(&state, r)).collect();
    assert_eq!(before, after, "a vetoed reload must not change any reply");

    // Disarmed, the same artifact swaps in everywhere at once.
    fail::clear("serve.shard.validate");
    match state.dispatch(&reload) {
        Response::Reload(r) => {
            assert!(r.swapped);
            assert_eq!(r.generation, 1);
            assert_eq!(r.prefixes, replacement.prefixes().len());
        }
        other => panic!("recovery reload must swap: {other:?}"),
    }
    assert_one_generation(&state, 1, "after recovery reload");
    assert_eq!(state.metrics().reloads(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn swap_failure_mid_fleet_rolls_back_every_shard() {
    let _armed = armed(32);
    let dir = scratch("swap");
    let replacement = tiny_trained(12).model;
    let path = dir.join("next.model");
    save_model(&path, &replacement).expect("save replacement");
    let reload = Request::Reload {
        path: path.to_str().expect("utf-8 path").to_string(),
    };

    let state = ShardedState::new(toy_model(), ServeConfig::default(), 8);
    let requests = model_requests(&toy_model(), &toy_observers());
    let before: Vec<String> = requests.iter().map(|r| reply_line(&state, r)).collect();

    // Every shard validates fine; shard 4 fails *while the fleet is
    // already swapping* — the worst case the rollback exists for.
    fail::set("serve.shard.swap", "at5:error");
    match state.dispatch(&reload) {
        Response::Error(e) => {
            assert!(
                e.message
                    .contains("shard 4 failed to swap (all shards rolled back)"),
                "the refusal must name the failing shard and the rollback: {}",
                e.message
            );
        }
        other => panic!("want Error reply for failed fleet swap, got {other:?}"),
    }

    // Shards 0..4 had already swapped when shard 4 failed; the rollback
    // must have restored them before any lock dropped: one generation,
    // byte-identical answers, the failure counted.
    assert_one_generation(&state, 0, "after mid-fleet swap failure");
    assert_eq!(state.metrics().reloads(), 0);
    assert_eq!(state.metrics().reload_failures(), 1);
    let after: Vec<String> = requests.iter().map(|r| reply_line(&state, r)).collect();
    assert_eq!(
        before, after,
        "a rolled-back swap must not change any reply"
    );

    // The fleet recovers: a clean retry swaps all eight shards at once.
    fail::clear("serve.shard.swap");
    match state.dispatch(&reload) {
        Response::Reload(r) => {
            assert!(r.swapped);
            assert_eq!(r.generation, 1);
        }
        other => panic!("recovery reload must swap: {other:?}"),
    }
    assert_one_generation(&state, 1, "after recovery reload");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stream_pipeline_counts_a_refused_fleet_swap_as_rejected() {
    let _armed = armed(33);
    let scenario = transition_scenario(84, 5);
    let dir = scratch("stream");
    let updates = dir.join("updates.mrt");
    write_archive(&updates, &scenario.records);

    // A live *sharded* server on the before-set model.
    full_retrain_artifact(&dataset_of(&scenario.before), 1, &dir.join("before.quasar"));
    let before_model = load_model(dir.join("before.quasar")).expect("before model");
    let state = Arc::new(ShardedState::new(before_model, ServeConfig::default(), 2));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let server = {
        let state = Arc::clone(&state);
        thread::spawn(move || serve(state, listener))
    };
    let probe_prefix = scenario.dirty[0];
    let observer = scenario.before[0].observer_as.0;
    let probe = format!(r#"{{"type":"predict","prefix":"{probe_prefix}","observer":{observer}}}"#);
    let before_reply = ask(addr, &probe).expect("pre-stream query");

    // Every coordinated swap dies on its first shard, server-side.
    fail::set("serve.shard.swap", "always:error");
    let mut pipeline = Pipeline::new(StreamConfig {
        updates,
        model_out: dir.join("model.quasar"),
        window_secs: 1_800,
        threads: 1,
        serve_addr: Some(addr.to_string()),
        ..StreamConfig::default()
    })
    .expect("pipeline");
    let report = pipeline.run_file().expect("replay");

    // The pipeline observed every refusal as a *rejected swap* — a
    // normal outcome it records and continues past — and never recorded
    // a served generation.
    assert!(report.source_error.is_none(), "{report:?}");
    assert_eq!(report.status.swaps, 0, "{report:?}");
    assert!(report.status.swaps_rejected >= 2, "{report:?}");
    assert_eq!(pipeline.generation(), 0, "no swap may record a generation");

    // The fleet kept the old epoch serving at generation 0 throughout,
    // and counted each refusal.
    let after_reply = ask(addr, &probe).expect("post-stream query");
    assert_eq!(before_reply, after_reply, "old fleet must keep serving");
    assert_one_generation(&state, 0, "after refused stream swaps");
    assert!(
        state.metrics().reload_failures() >= 2,
        "each refused fleet swap must be counted: {}",
        state.metrics().reload_failures()
    );
    assert_eq!(state.metrics().reloads(), 0);

    let _ = ask(addr, r#"{"type":"shutdown"}"#);
    server
        .join()
        .expect("server thread")
        .expect("serve exits cleanly");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Shard-crash soak constants (smaller than the main chaos soak — the
/// point here is blast radius, not volume).
const SOAK_REQUESTS: usize = 320;
const CLIENTS: usize = 4;
const SHARDS: usize = 4;
const HANG_LIMIT: Duration = Duration::from_secs(20);

/// One request through the chaos proxy (same contract as the chaos
/// soak's helper): `Ok(Some)` is a complete reply, `Ok(None)` a
/// connection the chaos killed first, `Err` a hang.
fn chaos_round_trip(proxy: SocketAddr, request: &str) -> Result<Option<String>, String> {
    let mut stream = match TcpStream::connect(proxy) {
        Ok(s) => s,
        Err(_) => return Ok(None),
    };
    stream
        .set_read_timeout(Some(HANG_LIMIT))
        .map_err(|e| e.to_string())?;
    use std::io::{Read, Write};
    if stream.write_all(request.as_bytes()).is_err() || stream.write_all(b"\n").is_err() {
        return Ok(None);
    }
    let mut buf = Vec::new();
    let mut chunk = [0u8; 1024];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => {
                return Ok(buf
                    .iter()
                    .position(|&b| b == b'\n')
                    .map(|pos| String::from_utf8_lossy(&buf[..pos]).into_owned()));
            }
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                if let Some(pos) = buf.iter().position(|&b| b == b'\n') {
                    return Ok(Some(String::from_utf8_lossy(&buf[..pos]).into_owned()));
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                return Err(format!("request hung for {HANG_LIMIT:?}: {request}"));
            }
            Err(_) => return Ok(None),
        }
    }
}

#[test]
fn shard_panic_mid_soak_poisons_only_the_owning_slice() {
    let _armed = armed(34);

    // Pick the victim: the shard owning AS3's prefix on a 4-shard fleet.
    let p3 = Prefix::for_origin(Asn(3));
    let shard_map = ShardMap::build(&toy_model(), SHARDS);
    let victim = shard_map.shard_of(p3);

    let state = Arc::new(ShardedState::new(
        toy_model(),
        ServeConfig {
            workers: 4,
            ..ServeConfig::default()
        },
        SHARDS,
    ));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind server");
    let server_addr = listener.local_addr().expect("addr");
    let server = {
        let state = Arc::clone(&state);
        thread::spawn(move || serve(state, listener))
    };
    let proxy = Proxy::start(
        server_addr,
        ChaosConfig {
            seed: 20060811,
            ..ChaosConfig::default()
        },
    )
    .expect("start proxy");
    let proxy_addr = proxy.addr();

    // The mix: predicts and explains over both prefixes, plus stats.
    // Each request is classified by whether it routes to the victim
    // shard; stats never does (it is answered off the fleet snapshot).
    let model = toy_model();
    let requests: Vec<String> = {
        let mut reqs = Vec::new();
        for observer in toy_observers() {
            for p in model.prefixes().keys() {
                reqs.push(format!(
                    r#"{{"type":"predict","prefix":"{p}","observer":{observer}}}"#
                ));
            }
        }
        for p in model.prefixes().keys() {
            reqs.push(format!(
                r#"{{"type":"explain","prefix":"{p}","observer":1}}"#
            ));
        }
        reqs.push(r#"{"type":"stats"}"#.to_string());
        reqs
    };
    let victim_slice: Vec<bool> = requests
        .iter()
        .map(|r| {
            model
                .prefixes()
                .keys()
                .any(|p| shard_map.shard_of(*p) == victim && r.contains(&format!("\"{p}\"")))
        })
        .collect();
    assert!(
        victim_slice.iter().any(|&v| v) && victim_slice.iter().any(|&v| !v),
        "the mix must cover both the victim slice and healthy slices"
    );

    // Fault-free expectations from a fresh 1-shard dispatch.
    let oneshot = ShardedState::new(toy_model(), ServeConfig::default(), 1);
    let expected: Arc<Vec<String>> =
        Arc::new(requests.iter().map(|r| reply_line(&oneshot, r)).collect());
    let requests = Arc::new(requests);
    let victim_slice = Arc::new(victim_slice);

    // Mid-soak crashes: roughly one in four dispatches on the victim
    // shard panics. Other shards have no armed point at all.
    fail::set(&format!("serve.shard.panic.{victim}"), "1in4:panic");

    let mut clients = Vec::new();
    for c in 0..CLIENTS {
        let requests = Arc::clone(&requests);
        let expected = Arc::clone(&expected);
        let victim_slice = Arc::clone(&victim_slice);
        clients.push(thread::spawn(move || {
            let mut healthy = 0usize;
            let mut crashed = 0usize;
            let mut killed = 0usize;
            for i in (c..SOAK_REQUESTS).step_by(CLIENTS) {
                let idx = i % requests.len();
                match chaos_round_trip(proxy_addr, &requests[idx]) {
                    Ok(Some(reply)) => {
                        if reply == expected[idx] {
                            healthy += 1;
                        } else if victim_slice[idx]
                            && reply.contains("panicked handling this request")
                        {
                            // The victim's slice may fail this once —
                            // with the typed containment error, nothing
                            // else.
                            crashed += 1;
                        } else {
                            panic!(
                                "request #{i} outside the victim slice diverged: {} -> {reply}",
                                requests[idx]
                            );
                        }
                    }
                    Ok(None) => killed += 1,
                    Err(hang) => panic!("worker wedged: {hang}"),
                }
            }
            (healthy, crashed, killed)
        }));
    }
    let (mut healthy, mut crashed, mut killed) = (0usize, 0usize, 0usize);
    for c in clients {
        let (h, cr, k) = c.join().expect("client thread must not panic");
        healthy += h;
        crashed += cr;
        killed += k;
    }
    assert_eq!(healthy + crashed + killed, SOAK_REQUESTS);
    assert!(crashed > 0, "the armed shard panic never fired");
    assert!(
        healthy * 2 > SOAK_REQUESTS,
        "most requests must still answer healthily ({healthy}/{SOAK_REQUESTS})"
    );
    let stats = proxy.stop();
    assert!(stats.connections as usize == SOAK_REQUESTS);

    // Blast radius in the metrics: every caught panic is on the victim
    // shard; every other shard's panic counter is zero.
    let m = fleet_metrics(&state);
    assert!(m.panics_caught > 0, "panics must be caught, not fatal");
    for s in &m.shards {
        if s.shard == victim {
            assert_eq!(s.panics_caught, m.panics_caught, "all panics on the victim");
        } else {
            assert_eq!(s.panics_caught, 0, "shard {} must be untouched", s.shard);
        }
    }

    // Disarmed, the whole fleet — victim included — answers the exact
    // fault-free bytes directly.
    fail::clear(&format!("serve.shard.panic.{victim}"));
    for (req, want) in requests.iter().zip(expected.iter()) {
        let got = ask(server_addr, req).expect("direct request after the storm");
        assert_eq!(&got, want, "post-storm reply diverged for {req}");
    }

    // Graceful shutdown drains and joins within the hang limit.
    let _ = ask(server_addr, r#"{"type":"shutdown"}"#).expect("shutdown request");
    let (tx, rx) = mpsc::channel();
    thread::spawn(move || {
        let result = server.join();
        let _ = tx.send(result.is_ok());
    });
    match rx.recv_timeout(HANG_LIMIT) {
        Ok(true) => {}
        Ok(false) => panic!("a worker thread panicked during the soak"),
        Err(_) => panic!("server failed to drain and exit within {HANG_LIMIT:?}"),
    }
}
