//! End-to-end serving test: train a tiny model through the real binary,
//! run `quasar serve` on an ephemeral port (once with the default single
//! shard, once with `--shards 2`), talk to it concurrently over TCP,
//! verify served answers are byte-identical to the one-shot CLI, check
//! the shard table and the steady-state cache's exact hit and miss
//! counts over cold and warm passes, and shut the server down gracefully.

use quasar::bgpsim::types::{Asn, Prefix};
use quasar::model::persist::load_model;
use quasar::serve::prelude::*;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

fn quasar_bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_quasar"))
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("quasar-serve-test-{}-{name}", std::process::id()));
    p
}

/// One lockstep request/response exchange on a fresh connection.
fn ask(addr: &str, line: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect to server");
    stream.write_all(line.as_bytes()).unwrap();
    stream.write_all(b"\n").unwrap();
    let mut reader = BufReader::new(stream);
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    assert!(reply.ends_with('\n'), "incomplete reply: {reply:?}");
    reply
}

/// The fleet-wide base-cache counters from a `metrics` request.
fn base_cache(addr: &str) -> CacheSnapshot {
    let Response::Metrics(m) = serde_json::from_str(&ask(addr, r#"{"type":"metrics"}"#)).unwrap()
    else {
        panic!("expected metrics reply")
    };
    m.base_cache
}

#[test]
fn serve_end_to_end() {
    let feeds = tmp("feeds.mrt");
    let model = tmp("model.json");

    // Fixture: tiny synthetic internet, trained through the CLI.
    let out = quasar_bin()
        .args([
            "generate",
            "--out",
            feeds.to_str().unwrap(),
            "--scale",
            "tiny",
            "--seed",
            "5",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = quasar_bin()
        .args([
            "train",
            feeds.to_str().unwrap(),
            "--out",
            model.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    serve_flow(&model, &[], 1);
    serve_flow(&model, &["--shards", "2"], 2);

    for f in [
        feeds.clone(),
        model,
        PathBuf::from(format!("{}.updates.mrt", feeds.display())),
    ] {
        let _ = std::fs::remove_file(f);
    }
}

/// Serves `model` with `extra` CLI flags and runs the whole client flow
/// against it, expecting a shard table of `shards` entries.
fn serve_flow(model: &Path, extra: &[&str], shards: usize) {
    // The tiny seed-5 internet has AS10 originating this prefix and a
    // feed from AS100 (same constants as the whatif step in cli.rs).
    let prefix = Prefix::for_origin(Asn(10)).to_string();
    let observer = 100u32;
    let predict_req = format!(r#"{{"type":"predict","prefix":"{prefix}","observer":{observer}}}"#);
    let explain_req = format!(r#"{{"type":"explain","prefix":"{prefix}","observer":{observer}}}"#);
    let diff_req = r#"{"type":"diff","changes":[{"action":"depeer","a":10,"b":101}]}"#;

    // Start the server on an ephemeral port; the address is the first
    // stdout line.
    let mut child = quasar_bin()
        .args(["serve", model.to_str().unwrap(), "--workers", "2"])
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let mut addr_line = String::new();
    BufReader::new(child.stdout.take().unwrap())
        .read_line(&mut addr_line)
        .unwrap();
    let addr = addr_line
        .trim()
        .strip_prefix("quasar-serve listening on ")
        .unwrap_or_else(|| panic!("unexpected address line: {addr_line:?}"))
        .to_string();

    // Warm over cold, in counted work: a cold pass predicting each of P
    // distinct model prefixes once simulates every one of them (P misses,
    // no hits); each warm pass answers all P from the base cache. This
    // runs before any `diff`, which would simulate every prefix.
    let prefixes: Vec<String> = load_model(model)
        .expect("model loads")
        .prefixes()
        .keys()
        .take(16)
        .map(Prefix::to_string)
        .collect();
    let p = prefixes.len() as u64;
    let pass = || {
        for prefix in &prefixes {
            let req = format!(r#"{{"type":"predict","prefix":"{prefix}","observer":{observer}}}"#);
            let reply = ask(&addr, &req);
            let parsed: Response = serde_json::from_str(&reply).expect("parsable reply");
            assert!(matches!(parsed, Response::Predict(_)), "{reply}");
        }
    };
    let start = base_cache(&addr);
    pass();
    let cold = base_cache(&addr);
    assert_eq!(
        (cold.misses - start.misses, cold.hits - start.hits),
        (p, 0),
        "cold pass over {p} prefixes with {extra:?}"
    );
    const WARM_PASSES: u64 = 3;
    for _ in 0..WARM_PASSES {
        pass();
    }
    let warm = base_cache(&addr);
    assert_eq!(
        (warm.misses - cold.misses, warm.hits - cold.hits),
        (0, WARM_PASSES * p),
        "{WARM_PASSES} warm passes over {p} prefixes with {extra:?}"
    );

    // Concurrent clients mixing predict / diff / explain.
    let handles: Vec<_> = (0..6)
        .map(|i| {
            let addr = addr.clone();
            let req = match i % 3 {
                0 => predict_req.clone(),
                1 => diff_req.to_string(),
                _ => explain_req.clone(),
            };
            std::thread::spawn(move || ask(&addr, &req))
        })
        .collect();
    for h in handles {
        let reply = h.join().unwrap();
        let parsed: Response = serde_json::from_str(&reply).expect("parsable reply");
        assert!(!matches!(parsed, Response::Error(_)), "{reply}");
    }

    // Served answers are byte-identical to the one-shot CLI.
    let served_predict = ask(&addr, &predict_req);
    let out = quasar_bin()
        .args([
            "predict",
            "--model",
            model.to_str().unwrap(),
            "--prefix",
            &prefix,
            "--observer",
            &observer.to_string(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        served_predict,
        String::from_utf8_lossy(&out.stdout),
        "served predict differs from one-shot CLI"
    );

    let served_diff = ask(&addr, diff_req);
    let out = quasar_bin()
        .args([
            "whatif",
            "--json",
            "--model",
            model.to_str().unwrap(),
            "--depeer",
            "10:101",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        served_diff,
        String::from_utf8_lossy(&out.stdout),
        "served diff differs from one-shot CLI"
    );

    let Response::Metrics(m) = serde_json::from_str(&ask(&addr, r#"{"type":"metrics"}"#)).unwrap()
    else {
        panic!("expected metrics reply")
    };
    assert_eq!(m.shards.len(), shards, "shard table for {extra:?}");
    assert_eq!(
        m.active_sessions, shards,
        "one what-if scenario resident per shard"
    );
    assert!(m.for_kind("predict").unwrap().count >= 3);

    // `quasar query` speaks the same protocol and prints each reply as
    // the server sent it.
    let out = quasar_bin()
        .args(["query", &addr, r#"{"type":"stats"}"#, &predict_req])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    let (stats, predict) = text.split_at(text.find('\n').map_or(0, |i| i + 1));
    assert!(stats.contains(r#""type":"stats""#), "{text}");
    assert_eq!(
        predict, served_predict,
        "query output differs from the raw reply"
    );

    // Graceful shutdown: the request is acknowledged and the process
    // exits cleanly (drained workers, released port).
    let Response::Shutdown(sd) =
        serde_json::from_str(&ask(&addr, r#"{"type":"shutdown"}"#)).unwrap()
    else {
        panic!("expected shutdown reply")
    };
    assert!(sd.draining);
    let status = child.wait().unwrap();
    assert!(status.success(), "server exited with {status:?}");
}
