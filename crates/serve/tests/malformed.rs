//! Hostile-input tests against a live server: oversized request lines,
//! non-UTF-8 bytes, unknown request tags, and clients that vanish
//! mid-request. Every case must get an error reply (or a clean close) —
//! never a panic, never a wedged worker — and the pool must keep
//! answering normal traffic afterwards.

use quasar_serve::server::{serve, ServeConfig, MAX_REQUEST_LINE};
use quasar_serve::shard::ShardedState;
use quasar_testkit::diff::{ask, reply_line};
use quasar_testkit::workload::{toy_model, toy_requests};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

fn start_server() -> (
    SocketAddr,
    Arc<ShardedState>,
    thread::JoinHandle<std::io::Result<()>>,
) {
    let state = Arc::new(ShardedState::new(
        toy_model(),
        ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
        1,
    ));
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().unwrap();
    let handle = {
        let state = Arc::clone(&state);
        thread::spawn(move || serve(state, listener))
    };
    (addr, state, handle)
}

fn shutdown(addr: SocketAddr, handle: thread::JoinHandle<std::io::Result<()>>) {
    let _ = ask(addr, r#"{"type":"shutdown"}"#);
    handle
        .join()
        .expect("no worker panicked")
        .expect("serve exited cleanly");
}

/// Reads everything until EOF with a bounded timeout.
fn read_to_eof(stream: &mut TcpStream) -> Vec<u8> {
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(_) => break,
        }
    }
    buf
}

/// The pool still answers every canonical request with the exact
/// fault-free bytes.
fn assert_pool_healthy(addr: SocketAddr) {
    let oneshot = ShardedState::new(toy_model(), ServeConfig::default(), 1);
    for req in toy_requests() {
        let got = ask(addr, &req).expect("healthy pool answers");
        assert_eq!(
            got,
            reply_line(&oneshot, &req),
            "pool corrupted by hostile input"
        );
    }
}

#[test]
fn oversized_request_line_gets_one_error_then_close() {
    let (addr, _state, handle) = start_server();

    let mut stream = TcpStream::connect(addr).unwrap();
    // A megabyte-plus of newline-free garbage; the server must cap its
    // buffer, answer once, and hang up.
    let blob = vec![b'x'; MAX_REQUEST_LINE + 4096];
    // The server may close while we are still writing — that is the
    // correct behavior, not a test failure.
    let _ = stream.write_all(&blob);
    let _ = stream.flush();
    let reply = read_to_eof(&mut stream);
    let reply = String::from_utf8_lossy(&reply);
    assert!(
        reply.contains(r#""type":"error""#) && reply.contains("exceeds"),
        "oversized line must earn a bounded error reply, got: {reply:?}"
    );
    assert_eq!(
        reply.matches(r#""type":"error""#).count(),
        1,
        "exactly one error reply, then close"
    );

    assert_pool_healthy(addr);
    shutdown(addr, handle);
}

#[test]
fn non_utf8_bytes_get_an_error_reply_not_a_panic() {
    let (addr, _state, handle) = start_server();

    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .write_all(&[0xff, 0xfe, 0x80, b'{', 0xc3, 0x28, b'}', b'\n'])
        .unwrap();
    stream.flush().unwrap();
    // Half-close so the server sees EOF once it has answered; an error
    // reply on its own rightly keeps the connection open.
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let reply = read_to_eof(&mut stream);
    let reply = String::from_utf8_lossy(&reply);
    assert!(
        reply.contains(r#""type":"error""#),
        "binary garbage must be answered with an error reply, got: {reply:?}"
    );

    assert_pool_healthy(addr);
    shutdown(addr, handle);
}

#[test]
fn unknown_request_tag_is_rejected_with_context() {
    let (addr, _state, handle) = start_server();

    for bad in [
        r#"{"type":"prediict","prefix":"10.0.0.0/24","observer":1}"#,
        r#"{"type":42}"#,
        r#"{"no_type_at_all":true}"#,
        r#"[1,2,3]"#,
        r#""just a string""#,
    ] {
        let reply = ask(addr, bad).expect("server answers malformed requests");
        assert!(
            reply.contains(r#""type":"error""#),
            "unknown tag `{bad}` must be an error reply, got: {reply}"
        );
    }

    assert_pool_healthy(addr);
    shutdown(addr, handle);
}

#[test]
fn abrupt_disconnect_mid_request_leaves_the_pool_healthy() {
    let (addr, state, handle) = start_server();

    for _ in 0..8 {
        let mut stream = TcpStream::connect(addr).unwrap();
        // Half a request, no newline — then vanish.
        stream
            .write_all(br#"{"type":"predict","prefix":"10."#)
            .unwrap();
        stream.flush().unwrap();
        drop(stream);
    }
    // Give the pool a moment to reap the corpses, then demand service.
    thread::sleep(Duration::from_millis(100));
    assert_pool_healthy(addr);
    assert_eq!(state.metrics().panics_caught(), 0);
    shutdown(addr, handle);
}

#[test]
fn pipelined_and_empty_lines_are_handled_in_order() {
    let (addr, _state, handle) = start_server();
    let oneshot = ShardedState::new(toy_model(), ServeConfig::default(), 1);

    let reqs = toy_requests();
    // All requests with blank lines sprinkled in, delivered in one write
    // and then one byte per write (lines split across many reads).
    let mut payload = String::new();
    for r in &reqs {
        payload.push('\n');
        payload.push_str(r);
        payload.push('\n');
    }
    let want: Vec<String> = reqs.iter().map(|r| reply_line(&oneshot, r)).collect();
    for chunk in [payload.len(), 1] {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        let mut after_newline = false;
        for part in payload.as_bytes().chunks(chunk) {
            stream.write_all(part).unwrap();
            // Byte by byte, pause at every line boundary so one read ends
            // on a newline and the next line's first byte arrives alone.
            if chunk == 1 && (after_newline || part == b"\n") {
                thread::sleep(Duration::from_millis(2));
            }
            after_newline = part == b"\n";
        }
        stream.flush().unwrap();
        let _ = stream.shutdown(std::net::Shutdown::Write);
        let replies = read_to_eof(&mut stream);
        let replies = String::from_utf8_lossy(&replies);
        let got: Vec<&str> = replies.lines().collect();
        assert_eq!(got.len(), want.len(), "one reply per non-empty line");
        for (g, w) in got.iter().zip(want.iter()) {
            assert_eq!(
                g, w,
                "pipelined replies ({chunk}-byte writes) must match one-shot dispatch in order"
            );
        }
    }
    shutdown(addr, handle);
}

#[test]
fn deeply_nested_request_lines_get_an_error_not_a_stack_overflow() {
    let (addr, _state, handle) = start_server();

    // ~10-100 KB lines, far under MAX_REQUEST_LINE: recursing once per
    // bracket would overflow a worker's stack and abort the process.
    let deep_field = format!(
        r#"{{"type":"predict","prefix":"10.0.0.0/24","observer":1,"junk":{}"#,
        "[".repeat(100_000)
    );
    let deep_objects = r#"{"type":"#.repeat(10_000);
    let deep_changes = format!(r#"{{"type":"diff","changes":{}}}"#, "[".repeat(10_000));
    for (bad, nested) in [
        ("[".repeat(10_000), false),
        (deep_field, true),
        (deep_objects, true),
        (deep_changes, true),
    ] {
        let reply = ask(addr, &bad).expect("server answers deeply nested lines");
        assert!(
            reply.contains(r#""type":"error""#),
            "deep nesting must be an error reply, got: {reply}"
        );
        if nested {
            assert!(
                reply.contains("nesting deeper than"),
                "the reply must name the nesting limit, got: {reply}"
            );
        }
    }

    assert_pool_healthy(addr);
    shutdown(addr, handle);
}
