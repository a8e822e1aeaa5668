//! Serving round trip — run the query server in-process and talk to it
//! over real TCP, exactly like `quasar serve` + `quasar query` do.
//!
//! We refine a model against observed feeds, hand it to a
//! 1-shard [`quasar::serve::shard::ShardedState`], start the listener on an
//! ephemeral port, then send newline-delimited JSON requests: a `predict`
//! twice (the second answered from the per-prefix steady-state cache), a
//! what-if `diff`, the cache `metrics`, and finally a graceful `shutdown`.
//!
//! Run: `cargo run --release --example serve_roundtrip`

use quasar::model::prelude::*;
use quasar::netgen::prelude::*;
use quasar::serve::server::{serve, ServeConfig};
use quasar::serve::shard::ShardedState;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;

fn main() {
    // Train on everything — the server answers questions about the
    // present topology, not about held-out data.
    let internet = SyntheticInternet::generate(NetGenConfig::tiny(7));
    let dataset = quasar::dataset_from(&internet);
    let mut model = AsRoutingModel::initial(&dataset.as_graph(), &dataset.prefixes());
    refine(&mut model, &dataset, &RefineConfig::default()).expect("refinement converges");

    // Pick a (prefix, observer) pair straight from the feeds so the
    // queries below are answerable.
    let probe = &dataset.routes()[0];
    let prefix = probe.prefix.to_string();
    let observer = probe.observer_as.0;

    // The server: shared state behind an Arc, listener on an ephemeral
    // port, accept loop + worker pool on a background thread.
    let state = Arc::new(ShardedState::new(model, ServeConfig::default(), 1));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().expect("local addr");
    println!("serving on {addr}");
    let server = {
        let state = Arc::clone(&state);
        std::thread::spawn(move || serve(state, listener))
    };

    // One lockstep connection: a request line, then its reply line.
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);
    let requests = [
        format!(r#"{{"type":"predict","prefix":"{prefix}","observer":{observer}}}"#),
        // Same question again: this one is a cache hit.
        format!(r#"{{"type":"predict","prefix":"{prefix}","observer":{observer}}}"#),
        r#"{"type":"diff","changes":[{"action":"depeer","a":1,"b":2}]}"#.to_string(),
        r#"{"type":"metrics"}"#.to_string(),
        r#"{"type":"shutdown"}"#.to_string(),
    ];
    for req in &requests {
        writer
            .write_all(format!("{req}\n").as_bytes())
            .expect("send");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("receive");
        println!("> {req}");
        println!("< {}", reply.trim_end());
    }

    // The shutdown request drained the workers and released the port.
    server
        .join()
        .expect("server thread")
        .expect("server exits cleanly");
    println!("server drained, done");
}
