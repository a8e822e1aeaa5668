//! Live update streaming — replay a BGP update archive through the
//! incremental pipeline while a server keeps answering queries.
//!
//! The setup mirrors a real deployment in miniature:
//!
//! 1. a synthetic internet is perturbed (graph-preserving path shifts)
//!    and the before→after transition is rendered as an MRT archive:
//!    PEER_INDEX_TABLE + before-RIB dump + timestamped BGP4MP updates;
//! 2. a `quasar serve` instance starts on the *before* model;
//! 3. `Pipeline::run_file` replays the archive: each window's updates
//!    are applied to the live path state, the exact dirty-prefix set is
//!    extracted, only those refinement domains are retrained, and the
//!    fresh epoch is swapped into the server atomically — queries never
//!    stall and never see a half-loaded model;
//! 4. the final streamed epoch is byte-identical to what `quasar train`
//!    would produce from scratch on the final path set: both come from the
//!    library's one training recipe, `quasar::model::train`.
//!
//! Run: `cargo run --release --example stream_replay`

use quasar::model::persist::{load_model, save_model};
use quasar::model::prelude::*;
use quasar::mrt::prelude::*;
use quasar::netgen::prelude::*;
use quasar::serve::server::{serve, ServeConfig};
use quasar::serve::shard::ShardedState;
use quasar::stream::prelude::*;
use std::sync::Arc;

fn main() {
    let dir = std::env::temp_dir().join(format!("quasar-stream-replay-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");

    // A before→after transition: six feeds switch to an alternative
    // path; the AS graph and every prefix's origin stay fixed.
    let net = SyntheticInternet::generate(NetGenConfig::tiny(11));
    let perturbation = perturb_observations(
        &net.observation_points,
        &net.observations,
        &PerturbationConfig::graph_preserving(6),
        0xD1CE,
    );
    println!(
        "perturbed {} prefixes out of {}",
        perturbation.dirty_prefixes.len(),
        quasar::dataset_from(&net).prefixes().len()
    );

    // Render it as an MRT archive, exactly what a route collector emits.
    let records = transition_stream(
        &net.observation_points,
        &net.observations,
        &perturbation.after,
        &UpdateStreamConfig::default(),
        0x5EED,
    );
    let updates = dir.join("updates.mrt");
    let mut w = MrtWriter::new(Vec::new());
    for r in &records {
        w.write_record(r).expect("encode record");
    }
    std::fs::write(&updates, w.finish().expect("finish archive")).expect("write archive");

    // A server on the before model (what `quasar train` on the dump
    // would have produced).
    let before = quasar::dataset_from(&net);
    let (model, _) = train(&before, &before, &TrainConfig::default()).expect("training runs");
    let state = Arc::new(ShardedState::new(model, ServeConfig::default(), 1));
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().expect("local addr");
    let server = {
        let state = Arc::clone(&state);
        std::thread::spawn(move || serve(state, listener))
    };
    println!("serving on {addr}");

    // Replay the archive: window by window, deltas → incremental retrain
    // → atomic swap into the live server.
    let model_out = dir.join("model.quasar");
    let mut pipeline = Pipeline::new(StreamConfig {
        updates,
        model_out: model_out.clone(),
        serve_addr: Some(addr.to_string()),
        window_secs: 1_800,
        ..StreamConfig::default()
    })
    .expect("pipeline");
    let report = pipeline.run_file().expect("replay");

    for w in &report.windows {
        println!(
            "window {}: {} updates, {} dirty prefixes, mode {}, refine {}ms, swap {}ms",
            w.seq, w.updates, w.dirty_prefixes, w.mode, w.refine_ms, w.swap_ms
        );
    }
    println!(
        "{} windows, {} swaps, {} incremental",
        report.status.windows, report.status.swaps, report.status.incremental_windows
    );
    assert!(report.source_error.is_none());
    assert!(report.status.swaps >= 1);

    // The streamed epoch is interchangeable with an offline retrain of
    // the final path set — byte for byte.
    let after = quasar::dataset_from_observations(&perturbation.after);
    let (offline, _) = train(&after, &after, &TrainConfig::default()).expect("offline retrain");
    let offline_path = dir.join("offline.quasar");
    save_model(&offline_path, &offline).expect("persist");
    assert_eq!(
        std::fs::read(&model_out).expect("streamed"),
        std::fs::read(&offline_path).expect("offline"),
        "streamed epoch must equal the from-scratch retrain"
    );
    println!("streamed epoch == offline retrain (byte-identical)");

    // The artifact the server is now serving loads standalone too.
    load_model(&model_out).expect("final epoch loads");
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    use std::io::Write as _;
    stream
        .write_all(b"{\"type\":\"shutdown\"}\n")
        .expect("shutdown");
    drop(stream);
    server
        .join()
        .expect("server thread")
        .expect("serve exits cleanly");
    let _ = std::fs::remove_dir_all(&dir);
}
