//! `bench_stream` — measures the live-update pipeline end to end and
//! records the result as JSON.
//!
//! Usage:
//!   `bench_stream [--scales tiny,small] [--seed N] [--out FILE]
//!                 [--window-secs N]`
//!
//! The default scale list matches what the 1-core reference container
//! affords (a small-scale run is two ~4-minute from-scratch retrains
//! plus the replay); pass `--scales small,medium` on real hardware for
//! the medium-scale datapoint. The ≥ 5x acceptance gate applies to the
//! largest scale in the list.
//!
//! Per scale the tool builds a synthetic internet, perturbs a contiguous
//! block of at most 10 % of its prefixes with graph-preserving path
//! shifts, renders the before→after transition as an MRT archive (peer
//! table + before-RIB + timestamped updates), and replays it through
//! [`quasar_stream::pipeline::Pipeline`] against a live in-process
//! `quasar-serve` instance. Three headline numbers per scale:
//!
//! * **sustained updates/sec** — BGP4MP updates absorbed per second of
//!   window processing (apply + retrain + persist + swap), over the
//!   incremental windows;
//! * **p99 window-to-swap latency** — worst-case `refine_ms + swap_ms`
//!   across every epoch-producing window;
//! * **incremental speedup** — a from-scratch retrain of the final path
//!   set divided by the mean incremental window retrain. The acceptance
//!   bar: ≥ 5x on the largest scale measured (windows dirty ≤ 10 % of
//!   prefixes, so an incremental retrain touching only those domains must
//!   decisively beat redoing everything).
//!
//! After the scale runs, a **recovery drill** replays the tiny scenario
//! window by window, kills the server after the first swap, restarts it
//! cold before the last window, and records what the outage cost: the
//! wall-clock ms the circuit breaker spent on failed swap attempts
//! (`retry_overhead_ms`), the outage/catch-up counters, and whether the
//! post-outage epoch is byte-identical to the offline retrain
//! (`post_outage_deterministic` — gated).
//!
//! The default output file is `BENCH_stream.json`.

use quasar_bench::{Context, EnvInfo, Scale};
use quasar_core::model::AsRoutingModel;
use quasar_core::observed::{Dataset, ObservedRoute};
use quasar_core::persist::{self, load_model};
use quasar_core::refine::{refine, RefineConfig};
use quasar_mrt::prelude::*;
use quasar_netgen::prelude::*;
use quasar_serve::server::{serve, ServeConfig};
use quasar_serve::shard::ShardedState;
use quasar_stream::ingest::{UpdateWindow, Windower};
use quasar_stream::pipeline::{Pipeline, StreamConfig};
use serde::Serialize;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// One scale's measurement.
#[derive(Debug, Serialize)]
struct Run {
    scale: String,
    prefixes: usize,
    routes: usize,
    /// Prefixes the transition actually dirties (≤ 10 % of `prefixes`).
    dirty_prefixes: usize,
    dirty_fraction: f64,
    updates_total: u64,
    windows: u64,
    incremental_windows: u64,
    swaps: u64,
    /// From-scratch retrain of the final path set, seconds.
    full_retrain_secs: f64,
    /// Mean retrain across the incremental windows, seconds.
    mean_incremental_secs: f64,
    /// Worst-case epoch publication latency across swapping windows, ms.
    p99_window_to_swap_ms: f64,
    sustained_updates_per_sec: f64,
    /// `full_retrain_secs / mean_incremental_secs`.
    speedup: f64,
}

/// The serve-outage drill's measurement (tiny scale).
#[derive(Debug, Serialize)]
struct RecoveryDrill {
    windows: u64,
    /// Closed→open breaker transitions observed (must be exactly 1).
    serve_outages: u64,
    /// Swaps that landed while the breaker was open (must be exactly 1).
    catch_up_swaps: u64,
    /// Wall ms spent on failed swap attempts and half-open probes
    /// across the outage windows — what riding out the outage cost on
    /// top of training.
    retry_overhead_ms: u64,
    /// The post-outage epoch is byte-identical to the offline
    /// from-scratch retrain of the same path set.
    post_outage_deterministic: bool,
}

/// The whole benchmark record.
#[derive(Debug, Serialize)]
struct Record {
    seed: u64,
    /// Host metadata: true core count, git commit, rustc version.
    env: EnvInfo,
    window_secs: u32,
    speedup_gate: f64,
    runs: Vec<Run>,
    /// Speedup on the largest scale measured — the gated headline.
    headline_speedup: f64,
    /// The serve-outage recovery drill.
    recovery: RecoveryDrill,
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

/// The cleaned dataset the training CLI would build from raw observations.
fn dataset_of(observations: &[RouteObservation]) -> Dataset {
    Dataset::new(observations.iter().map(|o| ObservedRoute {
        point: o.point,
        observer_as: o.observer_as,
        prefix: o.prefix,
        as_path: o.as_path.clone(),
    }))
}

/// Trains `dataset` from scratch and persists it with the `quasar train`
/// artifact recipe, returning the wall seconds for the whole epoch.
fn full_retrain(dataset: &Dataset, out: &Path) -> f64 {
    let cfg = RefineConfig {
        threads: 1,
        ..RefineConfig::default()
    };
    let t0 = Instant::now();
    let mut model = AsRoutingModel::initial(&dataset.as_graph(), &dataset.prefixes());
    refine(&mut model, dataset, &cfg).expect("from-scratch retrain");
    model.generalize_med_preferences();
    let json = model.to_json().expect("serialize model");
    persist::save_artifact(out, persist::KIND_MODEL, json.as_bytes()).expect("persist baseline");
    t0.elapsed().as_secs_f64()
}

/// One-shot request/reply against the bench server.
fn request(addr: std::net::SocketAddr, req: &str) -> String {
    let stream = TcpStream::connect(addr).expect("connect to bench server");
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);
    writer
        .write_all(format!("{req}\n").as_bytes())
        .expect("send request");
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("read reply");
    reply
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("quasar-bench-stream-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn bench_scale(scale: Scale, seed: u64, window_secs: u32, seed_model_json: &str) -> Run {
    let dir = scratch_dir(scale.name());
    eprintln!("# [{}] building context ...", scale.name());
    let ctx = Context::build(scale, seed);
    let points = &ctx.internet.observation_points;
    let before = &ctx.internet.observations;
    let n_prefixes = ctx.dataset.prefixes().len();

    // A contiguous block of at most 10 % of the prefix space takes the
    // graph-preserving path shifts; everything outside it stays clean.
    let block_len = (n_prefixes / 10).max(1);
    let block_start = n_prefixes / 3;
    let perturbation = perturb_observations_in_block(
        points,
        before,
        &PerturbationConfig::graph_preserving(block_len),
        seed ^ 0xB10C,
        (block_start, block_len),
    );
    let dirty_fraction = perturbation.dirty_prefixes.len() as f64 / n_prefixes.max(1) as f64;
    assert!(
        n_prefixes == 1 || dirty_fraction <= 0.10 + 1e-9,
        "perturbation dirtied {:.1}% of prefixes, bench requires ≤ 10%",
        dirty_fraction * 100.0
    );
    assert!(
        !perturbation.dirty_prefixes.is_empty(),
        "nothing perturbed at scale {}",
        scale.name()
    );

    let records = transition_stream(
        points,
        before,
        &perturbation.after,
        &UpdateStreamConfig::default(),
        seed ^ 0x57EA,
    );
    let updates = dir.join("updates.mrt");
    {
        let mut w = MrtWriter::new(Vec::new());
        for r in &records {
            w.write_record(r).expect("encode record");
        }
        std::fs::write(&updates, w.finish().expect("finish archive")).expect("write archive");
    }

    // Baseline: what keeping the model fresh costs *without* streaming —
    // a from-scratch retrain of the final path set.
    eprintln!(
        "# [{}] timing the from-scratch retrain baseline ...",
        scale.name()
    );
    let full_retrain_secs =
        full_retrain(&dataset_of(&perturbation.after), &dir.join("full.quasar"));
    eprintln!(
        "# [{}] full retrain: {:.2}s",
        scale.name(),
        full_retrain_secs
    );

    // Live server. It starts on a small pre-trained seed model — the
    // first streamed epoch swaps the real one in, exactly like attaching
    // a pipeline to an already-running server.
    let seed_artifact = dir.join("seed.quasar");
    persist::save_artifact(
        &seed_artifact,
        persist::KIND_MODEL,
        seed_model_json.as_bytes(),
    )
    .expect("persist seed model");
    let state = Arc::new(ShardedState::new(
        load_model(&seed_artifact).expect("seed model"),
        ServeConfig::default(),
        1,
    ));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().expect("local addr");
    let server = {
        let state = Arc::clone(&state);
        std::thread::spawn(move || serve(state, listener))
    };

    eprintln!("# [{}] replaying the update stream ...", scale.name());
    let model_out = dir.join("model.quasar");
    let mut pipeline = Pipeline::new(StreamConfig {
        updates,
        model_out: model_out.clone(),
        serve_addr: Some(addr.to_string()),
        window_secs,
        threads: 1,
        ..StreamConfig::default()
    })
    .expect("pipeline");
    let report = pipeline.run_file().expect("replay");
    request(addr, r#"{"type":"shutdown"}"#);
    server
        .join()
        .expect("server thread")
        .expect("server drained cleanly");

    assert!(report.source_error.is_none(), "{report:?}");
    assert_eq!(report.status.swaps_rejected, 0, "{report:?}");
    assert!(report.status.swaps >= 1, "{report:?}");
    assert!(
        report.status.incremental_windows >= 1,
        "graph-preserving shifts must take the incremental path: {report:?}"
    );
    // The streamed epoch and the offline baseline are the same bytes —
    // the speedup below compares two routes to an *identical* artifact.
    assert_eq!(
        std::fs::read(&model_out).expect("streamed artifact"),
        std::fs::read(dir.join("full.quasar")).expect("baseline artifact"),
        "streamed epoch diverged from the from-scratch retrain"
    );

    let incremental: Vec<_> = report
        .windows
        .iter()
        .filter(|w| w.mode.starts_with("incremental"))
        .collect();
    let mean_incremental_secs = incremental
        .iter()
        .map(|w| w.refine_ms as f64 / 1e3)
        .sum::<f64>()
        / incremental.len().max(1) as f64;
    let mut swap_latencies: Vec<f64> = report
        .windows
        .iter()
        .filter(|w| w.mode != "no_change")
        .map(|w| (w.refine_ms + w.swap_ms) as f64)
        .collect();
    swap_latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let (mut updates_seen, mut busy_secs) = (0u64, 0f64);
    for w in &incremental {
        if w.updates > 0 && w.updates_per_sec > 0.0 {
            updates_seen += w.updates;
            busy_secs += w.updates as f64 / w.updates_per_sec;
        }
    }
    let speedup = full_retrain_secs / mean_incremental_secs.max(1e-9);
    eprintln!(
        "# [{}] {} windows ({} incremental), mean incremental {:.3}s, p99 window-to-swap {:.0}ms, speedup {:.1}x",
        scale.name(),
        report.status.windows,
        incremental.len(),
        mean_incremental_secs,
        percentile(&swap_latencies, 0.99),
        speedup
    );

    let _ = std::fs::remove_dir_all(&dir);
    Run {
        scale: scale.name().into(),
        prefixes: n_prefixes,
        routes: ctx.dataset.routes().len(),
        dirty_prefixes: perturbation.dirty_prefixes.len(),
        dirty_fraction,
        updates_total: report.status.updates_total,
        windows: report.status.windows,
        incremental_windows: report.status.incremental_windows,
        swaps: report.status.swaps,
        full_retrain_secs,
        mean_incremental_secs,
        p99_window_to_swap_ms: percentile(&swap_latencies, 0.99),
        sustained_updates_per_sec: updates_seen as f64 / busy_secs.max(1e-9),
        speedup,
    }
}

/// Binds `addr`, retrying briefly: the killed server's connections may
/// hold the port in TIME_WAIT for a moment.
fn rebind(addr: std::net::SocketAddr) -> TcpListener {
    let t0 = Instant::now();
    loop {
        match TcpListener::bind(addr) {
            Ok(l) => return l,
            Err(e) if t0.elapsed().as_secs() < 10 => {
                let _ = e;
                std::thread::sleep(std::time::Duration::from_millis(50));
            }
            Err(e) => panic!("cannot rebind {addr}: {e}"),
        }
    }
}

/// The serve-outage drill: replay the tiny transition window by window,
/// kill the server after the first swap, restart it cold before the
/// last window, and measure what riding out the outage cost.
fn recovery_drill(seed: u64, seed_model_json: &str) -> RecoveryDrill {
    let dir = scratch_dir("recovery");
    let ctx = Context::build(Scale::Tiny, seed);
    let points = &ctx.internet.observation_points;
    let before = &ctx.internet.observations;
    let perturbation = perturb_observations(
        points,
        before,
        &PerturbationConfig::graph_preserving(5),
        seed ^ 0xFA11,
    );
    let records = transition_stream(
        points,
        before,
        &perturbation.after,
        &UpdateStreamConfig::default(),
        seed ^ 0x5EED,
    );
    // The uninterrupted ground truth: the offline retrain of the final
    // path set, byte for byte.
    let baseline = dir.join("full.quasar");
    full_retrain(&dataset_of(&perturbation.after), &baseline);
    let want = std::fs::read(&baseline).expect("baseline bytes");

    let mut windower = Windower::new(1_800, 10_000);
    let mut windows: Vec<UpdateWindow> = records
        .iter()
        .filter_map(|r| windower.push(r.clone()))
        .collect();
    windows.extend(windower.flush());
    assert!(
        windows.len() >= 3,
        "the drill needs pre-outage, outage and recovery windows ({} windows)",
        windows.len()
    );

    let seed_artifact = dir.join("seed.quasar");
    persist::save_artifact(
        &seed_artifact,
        persist::KIND_MODEL,
        seed_model_json.as_bytes(),
    )
    .expect("persist seed model");
    let boot = || {
        Arc::new(ShardedState::new(
            load_model(&seed_artifact).expect("seed model"),
            ServeConfig::default(),
            1,
        ))
    };
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().expect("local addr");
    let state = boot();
    let server = std::thread::spawn(move || serve(state, listener));

    let model_out = dir.join("model.quasar");
    let mut pipeline = Pipeline::new(StreamConfig {
        updates: dir.join("unused.mrt"),
        model_out: model_out.clone(),
        window_secs: 1_800,
        threads: 1,
        serve_addr: Some(addr.to_string()),
        ..StreamConfig::default()
    })
    .expect("pipeline");

    // First window swaps into the live server, then the server dies.
    pipeline.process_window(&windows[0]).expect("window 0");
    assert_eq!(pipeline.status().swaps, 1, "first epoch must swap");
    request(addr, r#"{"type":"shutdown"}"#);
    server
        .join()
        .expect("server thread")
        .expect("server drained cleanly");

    // Outage windows: training continues; swap_ms on persisted windows
    // is exactly the time burnt on the failed retry schedule and the
    // breaker's half-open probes.
    let last = windows.len() - 1;
    let mut retry_overhead_ms = 0u64;
    for w in &windows[1..last] {
        let r = pipeline.process_window(w).expect("outage window");
        retry_overhead_ms += r.swap_ms;
    }
    assert_eq!(
        pipeline.status().serve_outages,
        1,
        "one outage, counted once: {:?}",
        pipeline.status()
    );

    // Cold restart on the same address; the next window catches up.
    let listener = rebind(addr);
    let state = boot();
    let server = std::thread::spawn(move || serve(state, listener));
    pipeline
        .process_window(&windows[last])
        .expect("recovery window");
    assert_eq!(
        pipeline.status().catch_up_swaps,
        1,
        "recovery must land as a catch-up swap: {:?}",
        pipeline.status()
    );
    request(addr, r#"{"type":"shutdown"}"#);
    server
        .join()
        .expect("server thread")
        .expect("server drained cleanly");

    let post_outage_deterministic = std::fs::read(&model_out).expect("streamed artifact") == want;
    let drill = RecoveryDrill {
        windows: pipeline.status().windows,
        serve_outages: pipeline.status().serve_outages,
        catch_up_swaps: pipeline.status().catch_up_swaps,
        retry_overhead_ms,
        post_outage_deterministic,
    };
    eprintln!(
        "# recovery drill: {} windows, retry overhead {}ms, post-outage \
         deterministic: {}",
        drill.windows, drill.retry_overhead_ms, drill.post_outage_deterministic
    );
    let _ = std::fs::remove_dir_all(&dir);
    drill
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let scales_arg = flag("--scales").unwrap_or_else(|| "tiny,small".into());
    let scales: Vec<Scale> = scales_arg
        .split(',')
        .map(|s| {
            Scale::parse(s.trim()).unwrap_or_else(|| {
                eprintln!("bad scale {s} in --scales {scales_arg}");
                std::process::exit(2)
            })
        })
        .collect();
    let seed: u64 = flag("--seed").and_then(|s| s.parse().ok()).unwrap_or(7);
    let out = flag("--out").unwrap_or_else(|| "BENCH_stream.json".into());
    let window_secs: u32 = flag("--window-secs")
        .and_then(|s| s.parse().ok())
        .unwrap_or(300);
    const SPEEDUP_GATE: f64 = 5.0;

    // A tiny pre-trained model every scale's server boots from (the
    // pipeline's first swapped epoch replaces it immediately).
    let seed_model_json = {
        let ctx = Context::build(Scale::Tiny, seed ^ 0x0B00);
        let cfg = RefineConfig {
            threads: 1,
            ..RefineConfig::default()
        };
        let mut model = AsRoutingModel::initial(&ctx.dataset.as_graph(), &ctx.dataset.prefixes());
        refine(&mut model, &ctx.dataset, &cfg).expect("seed model trains");
        model.generalize_med_preferences();
        model.to_json().expect("seed model serializes")
    };

    let runs: Vec<Run> = scales
        .iter()
        .map(|&scale| bench_scale(scale, seed, window_secs, &seed_model_json))
        .collect();
    let headline_speedup = runs.last().map(|r| r.speedup).unwrap_or(0.0);

    eprintln!("# running the serve-outage recovery drill (tiny scale) ...");
    let recovery = recovery_drill(seed, &seed_model_json);

    let record = Record {
        seed,
        env: EnvInfo::probe(),
        window_secs,
        speedup_gate: SPEEDUP_GATE,
        runs,
        headline_speedup,
        recovery,
    };
    let json = serde_json::to_string_pretty(&record).expect("record serializes");
    quasar_core::persist::atomic_write_bytes(&out, json.as_bytes()).unwrap_or_else(|e| {
        eprintln!("cannot write {out}: {e}");
        std::process::exit(1)
    });
    println!("wrote {out} (incremental speedup {headline_speedup:.1}x)");
    if headline_speedup < SPEEDUP_GATE {
        eprintln!(
            "FAIL: incremental speedup {headline_speedup:.1}x below the {SPEEDUP_GATE:.0}x acceptance bar"
        );
        std::process::exit(1)
    }
    if !record.recovery.post_outage_deterministic {
        eprintln!("FAIL: the post-outage epoch diverged from the offline retrain");
        std::process::exit(1)
    }
}
