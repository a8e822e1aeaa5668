//! Overload hardening: a full pending-connection queue sheds new
//! connections with a typed `overloaded` reply (and counts them), and a
//! per-request compute deadline turns runaway requests into typed
//! `deadline_exceeded` replies instead of unbounded stalls.
//!
//! Run with `cargo test -p quasar-serve --features testkit`.

#![cfg(feature = "testkit")]

use quasar_bgpsim::fail;
use quasar_serve::protocol::Response;
use quasar_serve::server::{serve, ServeConfig};
use quasar_serve::shard::ShardedState;
use quasar_testkit::diff::ask;
use quasar_testkit::workload::toy_model;
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread;
use std::time::Duration;

/// The failpoint registry is process-global; armed tests serialize.
static SERIAL: Mutex<()> = Mutex::new(());

/// Takes [`SERIAL`], recovering it from a test that panicked while
/// holding it, so one failure does not fail the tests after it.
fn serial() -> MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[test]
fn full_queue_sheds_connections_with_typed_reply() {
    let _guard = serial();
    fail::reset(3);
    // Every dispatched request stalls 150ms, so one slow worker plus a
    // one-slot queue guarantees the burst below overflows the queue.
    fail::set("serve.handle_line", "always:delay:150");

    let state = Arc::new(ShardedState::new(
        toy_model(),
        ServeConfig {
            workers: 1,
            max_pending: 1,
            ..ServeConfig::default()
        },
        1,
    ));
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().unwrap();
    let server = {
        let state = Arc::clone(&state);
        thread::spawn(move || serve(state, listener))
    };

    // A burst of 8 concurrent one-shot clients: 1 is being served, 1 can
    // wait in the queue, the rest must be shed.
    let clients: Vec<_> = (0..8)
        .map(|_| thread::spawn(move || ask(addr, r#"{"type":"stats"}"#)))
        .collect();
    let replies: Vec<String> = clients
        .into_iter()
        .map(|c| c.join().expect("client thread").expect("one reply line"))
        .collect();

    let shed: Vec<&String> = replies
        .iter()
        .filter(|r| r.contains(r#""type":"overloaded""#))
        .collect();
    let served = replies
        .iter()
        .filter(|r| r.contains(r#""type":"stats""#))
        .count();
    assert!(
        !shed.is_empty(),
        "an 8-connection burst against a 1-slot queue must shed: {replies:?}"
    );
    assert!(
        served >= 1,
        "the queue must still serve someone: {replies:?}"
    );
    assert_eq!(
        state.metrics().sheds(),
        shed.len() as u64,
        "every shed connection must be counted"
    );
    // The typed reply parses and tells the client when to come back.
    for r in &shed {
        match serde_json::from_str::<Response>(r) {
            Ok(Response::Overloaded(o)) => assert!(o.retry_after_ms > 0),
            other => panic!("shed reply must parse as Overloaded: {other:?} from {r}"),
        }
    }

    fail::clear_all();
    let _ = ask(addr, r#"{"type":"shutdown"}"#).expect("shutdown answered");
    let (tx, rx) = std::sync::mpsc::channel();
    thread::spawn(move || {
        let _ = tx.send(server.join());
    });
    rx.recv_timeout(Duration::from_secs(20))
        .expect("serve must exit after shutdown")
        .expect("server thread")
        .expect("serve() exits cleanly");
}

#[test]
fn slow_request_draws_deadline_exceeded() {
    let _guard = serial();
    fail::reset(5);
    // The injected stall lands after the request clock starts but before
    // dispatch, so a 5ms budget is always blown.
    fail::set("serve.handle_line", "always:delay:30");

    let state = ShardedState::new(
        toy_model(),
        ServeConfig {
            deadline_ms: 5,
            ..ServeConfig::default()
        },
        1,
    );
    let reply = state.handle_line(r#"{"type":"stats"}"#);
    match reply {
        Response::DeadlineExceeded(d) => {
            assert_eq!(d.deadline_ms, 5);
            assert!(
                d.elapsed_ms >= d.deadline_ms,
                "reported elapsed {}ms must exceed the {}ms budget",
                d.elapsed_ms,
                d.deadline_ms
            );
        }
        other => panic!("want DeadlineExceeded, got {other:?}"),
    }
    assert_eq!(state.metrics().deadlines_exceeded(), 1);

    // With the stall disarmed the same request fits the budget again —
    // the deadline rejects slow requests, not the server.
    fail::clear_all();
    let reply = state.handle_line(r#"{"type":"stats"}"#);
    assert!(
        matches!(reply, Response::Stats(_)),
        "want Stats after disarming, got {reply:?}"
    );
    assert_eq!(state.metrics().deadlines_exceeded(), 1);
}

#[test]
fn deadline_disabled_by_default() {
    let _guard = serial();
    fail::reset(6);
    fail::set("serve.handle_line", "always:delay:20");
    // deadline_ms = 0 (the default) means no budget: slow but served.
    let state = ShardedState::new(toy_model(), ServeConfig::default(), 1);
    let reply = state.handle_line(r#"{"type":"stats"}"#);
    assert!(
        matches!(reply, Response::Stats(_)),
        "no deadline configured, got {reply:?}"
    );
    assert_eq!(state.metrics().deadlines_exceeded(), 0);
    fail::clear_all();
}
