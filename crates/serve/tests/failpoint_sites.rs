//! Arming coverage for the serve transport failpoints.
//!
//! `quasar sast`'s failpoint-registry rule (QS0003) requires every inject
//! site to be armed by at least one test. These drills arm the four
//! transport-layer sites — `serve.reload` (candidate validation),
//! `serve.accept` (acceptor stall), `serve.conn.read` / `serve.conn.write`
//! (peer reset mid-request / vanished client) — and assert the server
//! degrades exactly as designed: typed errors, dropped connections, and
//! full recovery once the fault clears.
//!
//! Run with `cargo test -p quasar-serve --features testkit`.

#![cfg(feature = "testkit")]

use quasar_bgpsim::fail;
use quasar_core::persist::save_model;
use quasar_serve::protocol::{Request, Response};
use quasar_serve::server::{serve, ServeConfig};
use quasar_serve::shard::ShardedState;
use quasar_testkit::diff::ask;
use quasar_testkit::workload::{tiny_trained, toy_model};
use std::net::SocketAddr;
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

/// The failpoint registry is process-global; armed tests serialize.
static SERIAL: Mutex<()> = Mutex::new(());

fn stats_of(state: &ShardedState) -> String {
    format!("{:?}", state.dispatch(&Request::Stats))
}

#[test]
fn reload_validation_fault_rejects_the_swap_and_keeps_serving() {
    let _guard = SERIAL.lock().unwrap();
    fail::reset(21);
    let dir = std::env::temp_dir().join(format!("quasar-servefp-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let path = dir.join("next.model");
    save_model(&path, &tiny_trained(9).model).expect("save replacement");

    let state = ShardedState::new(toy_model(), ServeConfig::default(), 1);
    let before = stats_of(&state);

    fail::set("serve.reload", "always:error");
    let resp = state.dispatch(&Request::Reload {
        path: path.to_str().unwrap().to_string(),
    });
    match resp {
        Response::Error(e) => assert!(
            e.message.contains("serve.reload"),
            "rejection must name the injected fault: {e:?}"
        ),
        other => panic!("a failed validation must produce a typed error: {other:?}"),
    }
    assert_eq!(
        stats_of(&state),
        before,
        "a rejected reload must leave the serving model untouched"
    );

    fail::clear_all();
    let resp = state.dispatch(&Request::Reload {
        path: path.to_str().unwrap().to_string(),
    });
    assert!(
        matches!(resp, Response::Reload(_)),
        "the same file must swap in once the fault clears: {resp:?}"
    );
    assert_ne!(stats_of(&state), before, "the replacement model serves");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Spawns a real TCP server on an ephemeral port.
fn start_server() -> (Arc<ShardedState>, SocketAddr, thread::JoinHandle<()>) {
    let state = Arc::new(ShardedState::new(toy_model(), ServeConfig::default(), 1));
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().unwrap();
    let server = {
        let state = Arc::clone(&state);
        thread::spawn(move || {
            let _ = serve(state, listener);
        })
    };
    (state, addr, server)
}

fn shutdown(addr: SocketAddr, server: thread::JoinHandle<()>) {
    let _ = ask(addr, r#"{"type":"shutdown"}"#);
    let (tx, rx) = std::sync::mpsc::channel();
    thread::spawn(move || {
        let _ = tx.send(server.join());
    });
    rx.recv_timeout(Duration::from_secs(20))
        .expect("serve must exit after shutdown")
        .expect("server thread");
}

#[test]
fn accept_stall_delays_but_never_drops_connections() {
    let _guard = SERIAL.lock().unwrap();
    fail::reset(22);
    // Every accept sleeps 30ms: queued connections must still be served.
    fail::set("serve.accept", "always:delay:30");
    let (_state, addr, server) = start_server();

    for _ in 0..3 {
        let reply = ask(addr, r#"{"type":"stats"}"#).expect("stalled acceptor still answers");
        assert!(
            reply.contains(r#""type":"stats""#),
            "stats reply expected: {reply}"
        );
    }

    fail::clear_all();
    shutdown(addr, server);
}

#[test]
fn connection_read_fault_drops_the_peer_and_recovers() {
    let _guard = SERIAL.lock().unwrap();
    fail::reset(23);
    let (state, addr, server) = start_server();

    fail::set("serve.conn.read", "once:error");
    // The injected peer-reset lands after the read; the connection dies
    // without a reply (an empty line counts — EOF before any response; a
    // connection error surfaced to the client is also fine).
    if let Ok(line) = ask(addr, r#"{"type":"stats"}"#) {
        assert!(
            line.is_empty(),
            "a reset connection must not produce a reply: {line}"
        );
    }

    fail::clear_all();
    let reply = ask(addr, r#"{"type":"stats"}"#).expect("server recovers after the fault");
    assert!(
        reply.contains(r#""type":"stats""#),
        "recovered reply: {reply}"
    );
    assert!(
        state.metrics().connections() >= 2,
        "both connections must have been accepted"
    );
    shutdown(addr, server);
}

#[test]
fn connection_write_fault_loses_the_reply_but_not_the_server() {
    let _guard = SERIAL.lock().unwrap();
    fail::reset(24);
    let (_state, addr, server) = start_server();

    fail::set("serve.conn.write", "once:error");
    if let Ok(line) = ask(addr, r#"{"type":"stats"}"#) {
        assert!(
            line.is_empty(),
            "a vanished-client write fault must not deliver a reply: {line}"
        );
    }

    fail::clear_all();
    let reply = ask(addr, r#"{"type":"stats"}"#).expect("server recovers after the fault");
    assert!(
        reply.contains(r#""type":"stats""#),
        "recovered reply: {reply}"
    );
    shutdown(addr, server);
}
