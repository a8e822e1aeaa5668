//! Chaos soak: hundreds of requests against a live `serve()` instance
//! through the seeded chaos proxy — split writes, per-chunk delays,
//! truncated streams, dropped connections — asserting that the server
//! never panics, never wedges a worker, and that every reply that
//! arrives complete is byte-identical to the fault-free run.

use quasar_serve::server::{serve, ServeConfig};
use quasar_serve::shard::ShardedState;
use quasar_testkit::diff::{ask, reply_line};
use quasar_testkit::prelude::*;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// Total fault-injected requests (the issue floor is 500).
const SOAK_REQUESTS: usize = 520;

/// Concurrent client threads driving the storm.
const CLIENTS: usize = 4;

/// A read that takes this long means a wedged worker — a hard failure,
/// not a tolerated fault.
const HANG_LIMIT: Duration = Duration::from_secs(20);

/// One request through the chaos proxy. `Ok(Some)` is a complete reply,
/// `Ok(None)` a connection the chaos killed first, `Err` a hang.
fn chaos_round_trip(proxy: SocketAddr, request: &str) -> Result<Option<String>, String> {
    let mut stream = match TcpStream::connect(proxy) {
        Ok(s) => s,
        Err(_) => return Ok(None), // proxy refused: treated as a killed connection
    };
    stream
        .set_read_timeout(Some(HANG_LIMIT))
        .map_err(|e| e.to_string())?;
    use std::io::{Read, Write};
    // One write; the proxy does the splitting and delaying.
    if stream.write_all(request.as_bytes()).is_err() || stream.write_all(b"\n").is_err() {
        return Ok(None);
    }
    let mut buf = Vec::new();
    let mut chunk = [0u8; 1024];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => {
                // EOF. A complete reply ends in a newline; anything else
                // means the chaos cut this connection short.
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
            Err(_) => return Ok(None), // reset by the chaos: tolerated
        }
    }
}

#[test]
fn soak_under_chaos_is_panic_free_and_byte_identical() {
    // The system under test: a real server with a real worker pool.
    let state = Arc::new(ShardedState::new(
        toy_model(),
        ServeConfig {
            workers: 4,
            ..ServeConfig::default()
        },
        1,
    ));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind server");
    let server_addr = listener.local_addr().unwrap();
    let server = {
        let state = Arc::clone(&state);
        thread::spawn(move || serve(state, listener))
    };

    // The chaos in front of it, seeded so the storm replays identically.
    let proxy = Proxy::start(
        server_addr,
        ChaosConfig {
            seed: 20051113,
            ..ChaosConfig::default()
        },
    )
    .expect("start proxy");
    let proxy_addr = proxy.addr();

    // Fault-free expectations: what a fresh state answers directly.
    let requests = Arc::new(toy_requests());
    let oneshot = ShardedState::new(toy_model(), ServeConfig::default(), 1);
    let expected: Arc<Vec<String>> =
        Arc::new(requests.iter().map(|r| reply_line(&oneshot, r)).collect());

    // The storm: CLIENTS threads, SOAK_REQUESTS total, round-robin mix.
    let mut clients = Vec::new();
    for c in 0..CLIENTS {
        let requests = Arc::clone(&requests);
        let expected = Arc::clone(&expected);
        clients.push(thread::spawn(move || {
            let mut complete = 0usize;
            let mut killed = 0usize;
            for i in (c..SOAK_REQUESTS).step_by(CLIENTS) {
                let idx = i % requests.len();
                match chaos_round_trip(proxy_addr, &requests[idx]) {
                    Ok(Some(reply)) => {
                        assert_eq!(
                            reply, expected[idx],
                            "request #{i} diverged from the fault-free run: {}",
                            requests[idx]
                        );
                        complete += 1;
                    }
                    Ok(None) => killed += 1,
                    Err(hang) => panic!("worker wedged: {hang}"),
                }
            }
            (complete, killed)
        }));
    }
    let mut complete = 0usize;
    let mut killed = 0usize;
    for c in clients {
        let (ok, ko) = c.join().expect("client thread must not panic");
        complete += ok;
        killed += ko;
    }
    assert_eq!(complete + killed, SOAK_REQUESTS);

    let stats = proxy.stop();
    // The chaos must have actually happened — a seed that injects
    // nothing would make this soak a plain smoke test.
    assert!(stats.truncated > 0, "no truncations injected: {stats:?}");
    assert!(stats.dropped > 0, "no drops injected: {stats:?}");
    assert!(stats.delays > 0, "no delays injected: {stats:?}");
    assert!(
        stats.chunks > stats.connections * 4,
        "writes were not split aggressively: {stats:?}"
    );
    assert_eq!(stats.connections as usize, SOAK_REQUESTS);
    // And most traffic must still get through.
    assert!(
        complete * 2 > SOAK_REQUESTS,
        "chaos killed more than half the requests ({killed}/{SOAK_REQUESTS})"
    );
    assert!(killed > 0, "the chaos never killed a connection: {stats:?}");

    // The pool is still healthy: every request kind answers directly
    // (no proxy) with the exact fault-free bytes.
    for (req, want) in requests.iter().zip(expected.iter()) {
        let got = ask(server_addr, req).expect("direct request after the storm");
        assert_eq!(&got, want, "post-storm reply diverged for {req}");
    }

    // Zero panics anywhere: the handler-panic counter is still zero.
    let metrics = ask(server_addr, r#"{"type":"metrics"}"#).expect("metrics after the storm");
    assert!(
        metrics.contains(r#""panics_caught":0"#),
        "server caught handler panics during the soak: {metrics}"
    );

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
