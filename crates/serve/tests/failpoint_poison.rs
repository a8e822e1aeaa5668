//! Regression test for the `expect("connection queue poisoned")` family:
//! a worker that panics while holding the connection-queue lock used to
//! take the whole server down with it. Now the panic poisons the lock,
//! every other lock user recovers the inner data, and service continues.
//!
//! Run with `cargo test -p quasar-serve --features testkit`.

#![cfg(feature = "testkit")]

use quasar_bgpsim::fail;
use quasar_serve::server::{serve, ServeConfig};
use quasar_serve::shard::ShardedState;
use quasar_testkit::diff::{ask, reply_line};
use quasar_testkit::workload::{toy_model, toy_requests};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

#[test]
fn worker_panic_inside_queue_lock_does_not_stop_service() {
    fail::reset(9);
    // The point sits between `pop_front` and the guard drop, so the
    // panic poisons the queue mutex — the exact scenario the old
    // `.expect(...)` calls turned into a cascading abort.
    fail::set("serve.worker.panic", "once:panic");

    let state = Arc::new(ShardedState::new(
        toy_model(),
        ServeConfig {
            workers: 3,
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

    // The first connection triggers the armed panic; its request may or
    // may not be answered depending on which worker dequeues it first.
    let _ = ask(addr, r#"{"type":"stats"}"#);
    // Let the doomed worker die and poison the lock.
    thread::sleep(Duration::from_millis(100));
    assert_eq!(
        fail::fired("serve.worker.panic"),
        1,
        "the panic point must fire once"
    );

    // Every surviving worker must keep serving through the poisoned
    // lock, with byte-exact replies.
    let oneshot = ShardedState::new(toy_model(), ServeConfig::default(), 1);
    for round in 0..3 {
        for req in toy_requests() {
            let got = ask(addr, &req)
                .unwrap_or_else(|e| panic!("round {round}: pool dead after poison: {e}"));
            assert_eq!(
                got,
                reply_line(&oneshot, &req),
                "reply diverged after poison"
            );
        }
    }

    // Graceful shutdown still drains: the scope join tolerates the dead
    // worker instead of propagating its panic.
    let _ = ask(addr, r#"{"type":"shutdown"}"#).expect("shutdown answered");
    let (tx, rx) = std::sync::mpsc::channel();
    thread::spawn(move || {
        let _ = tx.send(server.join());
    });
    let joined = rx
        .recv_timeout(Duration::from_secs(20))
        .expect("serve must exit after shutdown despite a dead worker");
    let io_result = joined.expect("serve() itself must not panic");
    io_result.expect("serve() must exit cleanly");
    fail::clear_all();
}
