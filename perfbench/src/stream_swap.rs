//! `stream-swap`: a live server fed by `stream::Pipeline` replaying
//! BGP4MP archives of graph-preserving path shifts, while a low-rate
//! open-loop `predict` stream keeps reading.
//!
//! Archives are rendered as `bench_stream` renders them: the training
//! feeds of a point split, `perturb_observations` path shifts, and
//! `transition_stream` (peer table + before-RIB + timestamped updates).
//! Set-up renders [`ARCHIVES`] of them from different path shifts of the
//! same feeds and processes the first one's first window — the RIB dump
//! plus the updates of its first hour — as the initial full training; the
//! timed phase replays them in turn on the warm pipeline. Each replay's
//! first window re-syncs every feed to the shared starting state from the
//! RIB dump and applies that hour's updates; its later windows carry
//! updates only, which move the feeds on to the archive's "after" state.
//! Every window is delta-applied, incrementally retrained, persisted and
//! swapped into the server, flushing its caches, while reads go on. The
//! window latency counts the update-only windows, as a re-sync does other
//! work. Whether a window takes the repair-replay fast path depends on
//! its shifts; cycling through several archives keeps that mix alike from
//! seed to seed.

use crate::input::{self, predict_line, query_pairs};
use crate::net::{poisson_plan, run_open_loop, Conn, Done, Server};
use crate::probe;
use crate::report::Outcome;
use crate::trace::{peak_rss_mib, start_peak_rss, Tracer};
use crate::util::{at_ref_speed, calibrate, median, percentile, setup_medians, sorted, Rng, Zipf};
use crate::{Ctx, CHECK_THREADS, SETUPS, THREADS};
use quasar_core::model::AsRoutingModel;
use quasar_core::observed::Dataset;
use quasar_core::persist;
use quasar_core::predict::evaluate;
use quasar_core::refine::{refine, RefineConfig};
use quasar_mrt::io::MrtWriter;
use quasar_netgen::prelude::*;
use quasar_serve::metrics::StreamWindowReport;
use quasar_serve::server::ModelEpoch;
use quasar_serve::shard::ShardedState;
use quasar_stream::delta::PathState;
use quasar_stream::ingest::{TailDecoder, UpdateWindow, Windower};
use quasar_stream::pipeline::{Pipeline, StreamConfig};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Graph-preserving path shifts rendered into each archive.
const SHIFTS: usize = 24;
/// Archives per run, each from its own seeded path shifts.
const ARCHIVES: usize = 4;
/// Record-time window span: the updates spread over the five hours
/// between the RIB dump and the archive's stable hour, so each replay is
/// the RIB window plus about five update windows of ~5 shifts each.
const WINDOW_SECS: u32 = 3_600;
const MAX_WINDOW_UPDATES: usize = 10_000;
/// Offered read load (requests/s) while the epochs swap: a low rate, so
/// the reads see every swap without taking the cores the retraining
/// needs. It gives each epoch about 70 reads.
const READ_RATE: f64 = 100.0;
const MIN_REPLAYS: usize = 2;

struct Setup {
    server: Server,
    pipeline: Pipeline,
    /// Each archive's path and its final ("after") path set.
    archives: Vec<(PathBuf, Dataset)>,
    matched: usize,
    scored: usize,
    pairs: Vec<(String, u32)>,
}

struct WindowRun {
    report: StreamWindowReport,
    wall_s: f64,
    /// The host-speed calibration run just before the window.
    calib_s: f64,
}

struct Replay {
    decode_s: f64,
    replay_s: f64,
    /// `VmHWM` over the replay (MiB).
    peak_rss_mib: f64,
    windows: Vec<WindowRun>,
}

impl Replay {
    /// The windows that carry BGP updates only: all but the first, which
    /// also re-syncs every feed from the RIB dump.
    fn update_windows(&self) -> impl Iterator<Item = &WindowRun> {
        self.windows.iter().skip(1)
    }
}

/// Base-cache counters of every epoch that serves during the timed phase.
/// An epoch's counters start at 0 when it is swapped in and go with it,
/// so the tracker pins the serving epochs after every window and reads a
/// retired epoch one swap later, when no read can still be running on it.
struct EpochCaches {
    state: Arc<ShardedState>,
    serving: Vec<Arc<ModelEpoch>>,
    retired: Vec<Arc<ModelEpoch>>,
    /// (hits, misses) of each finished epoch, in swap order.
    finished: Vec<(u64, u64)>,
    /// The first epoch's counters when the phase began.
    start: (u64, u64),
}

impl EpochCaches {
    fn new(state: Arc<ShardedState>) -> EpochCaches {
        let serving = Self::pin(&state);
        let start = Self::counts(&serving);
        EpochCaches {
            state,
            serving,
            retired: Vec::new(),
            finished: Vec::new(),
            start,
        }
    }

    fn pin(state: &ShardedState) -> Vec<Arc<ModelEpoch>> {
        (0..state.shards()).map(|s| state.epoch_of(s)).collect()
    }

    fn counts(epochs: &[Arc<ModelEpoch>]) -> (u64, u64) {
        epochs.iter().fold((0, 0), |(h, m), e| {
            (h + e.base_cache.hits(), m + e.base_cache.misses())
        })
    }

    fn after_window(&mut self) {
        let now = Self::pin(&self.state);
        if now
            .iter()
            .zip(&self.serving)
            .all(|(a, b)| Arc::ptr_eq(a, b))
        {
            return;
        }
        self.finish_retired();
        self.retired = std::mem::replace(&mut self.serving, now);
    }

    fn finish_retired(&mut self) {
        if !self.retired.is_empty() {
            self.finished.push(Self::counts(&self.retired));
            self.retired.clear();
        }
    }

    /// Once the reads have stopped: the phase's (hits, misses), and the
    /// misses of each epoch a swap put in, from the swap to the next one.
    fn finish(mut self) -> ((u64, u64), Vec<f64>) {
        self.finish_retired();
        self.finished.push(Self::counts(&self.serving));
        self.finished[0].0 -= self.start.0;
        self.finished[0].1 -= self.start.1;
        let total = self
            .finished
            .iter()
            .fold((0, 0), |(h, m), c| (h + c.0, m + c.1));
        let per_swap = self.finished[1..].iter().map(|c| c.1 as f64).collect();
        (total, per_swap)
    }
}

fn decode_windows(archive: &Path) -> Vec<UpdateWindow> {
    let bytes = std::fs::read(archive).expect("read the archive");
    let mut decoder = TailDecoder::new();
    decoder.push(&bytes);
    let mut windower = Windower::new(WINDOW_SECS, MAX_WINDOW_UPDATES);
    let mut windows: Vec<UpdateWindow> = decoder
        .drain_records()
        .expect("archive decodes")
        .into_iter()
        .filter_map(|r| windower.push(r))
        .collect();
    windows.extend(windower.flush());
    windows
}

/// Archive open → every window processed (the last one swapped), less
/// the host-speed calibration run before each window. Each replay's
/// memory peak is its own: it starts with the freed heap handed
/// back to the OS and `VmHWM` reset, so allocator retention from earlier
/// replays, which varies by tens of MiB between runs of the same code,
/// stays out. When tracing, `caches` follows each swap.
fn replay(
    pipeline: &mut Pipeline,
    archive: &Path,
    tr: &Tracer,
    n: u64,
    caches: &mut Option<EpochCaches>,
) -> Replay {
    let mut windows = Vec::new();
    let mut decode_s = 0.0;
    start_peak_rss();
    let (_, replay_s) = tr.span("stream.replay", "stream", None, n, |root| {
        let (decoded, secs) = tr.span("mrt.decode", "mrt", root, n, |_| decode_windows(archive));
        decode_s = secs;
        for w in &decoded {
            let (calib_s, _) = tr.span("bench.calib", "bench", root, w.seq, |_| calibrate());
            let start = tr.now_ns();
            let (report, wall_s) = tr.span("stream.window", "stream", root, w.seq, |id| {
                let report = pipeline.process_window(w).expect("window processes");
                // The pipeline reports its own refine and swap times; they
                // become child spans so the window's self time is what is
                // left: delta apply, generalisation, persist, status push.
                let end = tr.now_ns();
                let refine_ns = report.refine_ms * 1_000_000;
                let swap_ns = report.swap_ms * 1_000_000;
                tr.record(
                    "core.refine",
                    "core.refine",
                    id,
                    w.seq,
                    start,
                    start + refine_ns,
                );
                tr.record(
                    "serve.swap",
                    "serve",
                    id,
                    w.seq,
                    end.saturating_sub(swap_ns),
                    end,
                );
                report
            });
            windows.push(WindowRun {
                report,
                wall_s,
                calib_s,
            });
            if let Some(c) = caches.as_mut() {
                c.after_window();
            }
        }
    });
    let calib_s: f64 = windows.iter().map(|w| w.calib_s).sum();
    Replay {
        decode_s,
        replay_s: replay_s - calib_s,
        peak_rss_mib: peak_rss_mib(),
        windows,
    }
}

/// The offline retrain of `after` with the `quasar train` recipe, scored
/// on `heldout` before generalisation: (artifact payload, matched,
/// scored).
fn offline_retrain(after: &Dataset, heldout: &Dataset) -> (String, usize, usize) {
    let mut model = AsRoutingModel::initial(&after.as_graph(), &after.prefixes());
    let cfg = RefineConfig {
        threads: CHECK_THREADS,
        ..RefineConfig::default()
    };
    refine(&mut model, after, &cfg).expect("offline retrain");
    let eval = evaluate(&model, heldout);
    model.generalize_med_preferences();
    (
        model.to_json().expect("model serializes"),
        eval.counts.rib_out + eval.counts.potential_rib_out,
        eval.counts.total,
    )
}

/// Set-up `i` streams the training feeds of point split `i`: the split
/// fixes the model's size, so it is the same for every `--seed`, which
/// drives the path shifts and the reads.
fn setup(ctx: &Ctx, i: u64) -> (Setup, f64, bool) {
    let t = Instant::now();
    let net = input::internet(ctx.scale);
    let ds = input::dataset(&net.observations);
    let train_points = input::training_points(&ds, i);
    // Training feeds only, renumbered densely: the pipeline names feeds
    // by their peer-table index, and the offline retrain it is compared
    // with must see the same numbers.
    let renumber: BTreeMap<u32, u32> = net
        .observation_points
        .iter()
        .filter(|p| train_points.contains(&p.id))
        .enumerate()
        .map(|(new, p)| (p.id, new as u32))
        .collect();
    let points: Vec<ObservationPoint> = net
        .observation_points
        .iter()
        .filter_map(|p| {
            renumber.get(&p.id).map(|&id| ObservationPoint {
                id,
                router: p.router,
            })
        })
        .collect();
    let before: Vec<RouteObservation> = net
        .observations
        .iter()
        .filter_map(|o| {
            renumber
                .get(&o.point)
                .map(|&point| RouteObservation { point, ..o.clone() })
        })
        .collect();
    let archives: Vec<(PathBuf, Dataset)> = (0..ARCHIVES as u64)
        .map(|a| {
            let seed = ctx.seed.wrapping_mul(131).wrapping_add(a);
            let perturbation = perturb_observations(
                &points,
                &before,
                &PerturbationConfig::graph_preserving(SHIFTS),
                seed,
            );
            let records = transition_stream(
                &points,
                &before,
                &perturbation.after,
                &UpdateStreamConfig::default(),
                seed ^ 0x57EA,
            );
            let path = ctx.work.join(format!("updates-{a}.mrt"));
            let mut w = MrtWriter::new(Vec::new());
            for r in &records {
                w.write_record(r).expect("encode record");
            }
            // A plain write, as for train-dump's dump: an input, not state.
            std::fs::write(&path, w.finish().expect("finish archive")).expect("write the archive");
            (path, input::dataset(&perturbation.after))
        })
        .collect();

    // The server boots on the untrained initial model; the pipeline's
    // first epoch replaces it, as when a pipeline attaches to a running
    // server.
    let before_ds = input::dataset(&before);
    let placeholder = AsRoutingModel::initial(&before_ds.as_graph(), &before_ds.prefixes());
    let server = Server::start(placeholder, false).expect("server starts");
    let mut pipeline = Pipeline::new(StreamConfig {
        updates: archives[0].0.clone(),
        model_out: ctx.work.join("stream-model.quasar"),
        serve_addr: Some(server.addr.to_string()),
        window_secs: WINDOW_SECS,
        max_window_updates: MAX_WINDOW_UPDATES,
        threads: THREADS,
        ..StreamConfig::default()
    })
    .expect("pipeline builds");
    // The archive's first window carries the RIB dump and the updates of
    // its first hour: the initial full training. The offline retrain
    // below is of the path set it leaves.
    let first = decode_windows(&archives[0].0).swap_remove(0);
    pipeline
        .process_window(&first)
        .expect("initial window processes");
    let secs = t.elapsed().as_secs_f64();

    // Untimed: the offline retrain of the streamed path set, scored on
    // the held-out feeds.
    let heldout = input::dataset(
        &net.observations
            .iter()
            .filter(|o| !train_points.contains(&o.point))
            .cloned()
            .collect::<Vec<_>>(),
    );
    let (json, matched, scored) = offline_retrain(&pipeline.state().dataset(), &heldout);
    let equal = streamed_json(ctx) == json;
    (
        Setup {
            server,
            pipeline,
            archives,
            matched,
            scored,
            pairs: query_pairs(&before_ds),
        },
        secs,
        equal,
    )
}

fn streamed_json(ctx: &Ctx) -> String {
    let (payload, _) =
        persist::load_artifact(ctx.work.join("stream-model.quasar"), persist::KIND_MODEL)
            .expect("streamed artifact loads");
    String::from_utf8(payload).expect("artifact payload is JSON text")
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let (mut matched, mut scored) = (0usize, 0usize);
    let mut current: Option<Setup> = None;
    for i in 0..SETUPS as u64 {
        if let Some(prev) = current.take() {
            if let Err(e) = prev.server.stop() {
                out.fail("server_stop", 1);
                eprintln!("stream-swap set-up {i}: {e}");
            }
        }
        let calib_s = calibrate();
        let (s, secs, equal) = setup(ctx, i);
        setups.push((secs, calib_s));
        out.check(
            &format!("setup{i}_epoch_equals_offline_retrain"),
            equal,
            "streamed artifact vs from-scratch retrain of the same path set".into(),
        );
        matched += s.matched;
        scored += s.scored;
        current = Some(s);
    }
    let Setup {
        server,
        mut pipeline,
        archives,
        pairs,
        ..
    } = current.expect("at least one set-up");

    let mut rng = Rng::new(ctx.seed ^ 0x5EAD);
    let mut shuffled = pairs;
    rng.shuffle(&mut shuffled);
    let zipf = Zipf::new(shuffled.len(), 1.0);
    let mut lines: Vec<String> = Vec::new();
    let plan = poisson_plan(&mut rng, READ_RATE, ctx.seconds, |rng| {
        let (p, o) = &shuffled[zipf.sample(rng)];
        lines.push(predict_line(p, *o));
        lines.len() - 1
    });

    let read_conn = Conn::ready(server.addr).expect("connect the reader");
    let before = server.metrics();
    let mut caches = ctx
        .tracer
        .enabled()
        .then(|| EpochCaches::new(Arc::clone(&server.state)));
    let phase = Instant::now();
    let mut replays: Vec<Replay> = Vec::new();
    let reads: Vec<Done> = std::thread::scope(|s| {
        let reader = s.spawn(|| {
            run_open_loop(
                server.addr,
                read_conn,
                &plan,
                &lines,
                phase,
                &ctx.tracer,
                "client.read",
            )
        });
        while replays.len() < MIN_REPLAYS || phase.elapsed().as_secs_f64() < ctx.seconds {
            let n = replays.len() + 1;
            let archive = &archives[n % ARCHIVES].0;
            replays.push(replay(
                &mut pipeline,
                archive,
                &ctx.tracer,
                n as u64,
                &mut caches,
            ));
        }
        reader.join().expect("read generator")
    });
    let wall_s = phase.elapsed().as_secs_f64();
    let after = server.metrics();
    let last_archive = &archives[replays.len() % ARCHIVES];
    if let Err(e) = server.stop() {
        out.fail("server_stop", 1);
        eprintln!("stream-swap: {e}");
    }

    let status = pipeline.status().clone();
    out.check(
        "final_epoch_equals_offline_retrain",
        streamed_json(ctx) == offline_retrain(&last_archive.1, &Dataset::default()).0,
        "last streamed artifact vs from-scratch retrain of the final path set".into(),
    );
    out.check(
        "no_swap_rejected",
        status.swaps_rejected == 0,
        format!("{} swaps, {} rejected", status.swaps, status.swaps_rejected),
    );
    let windows: Vec<&WindowRun> = replays.iter().flat_map(|r| &r.windows).collect();
    out.attempted += windows.len() as u64 + reads.len() as u64;
    out.fail("swap_rejected", status.swaps_rejected);
    for d in &reads {
        if d.outcome != "predict" {
            out.fail(&d.outcome, 1);
        }
    }
    let lag_p99 = probe::generator_check(&mut out, reads.iter());

    // BGP update → swapped epoch, over the update-only windows.
    let updates: Vec<&WindowRun> = replays.iter().flat_map(Replay::update_windows).collect();
    let window_s: Vec<f64> = updates.iter().map(|w| w.wall_s).collect();
    let window_ref_s: Vec<f64> = updates
        .iter()
        .map(|w| at_ref_speed(w.wall_s, w.calib_s))
        .collect();
    let read_ms = sorted(reads.iter().map(|d| d.latency_ns() as f64 / 1e6).collect());
    let replay_s = median(&replays.iter().map(|r| r.replay_s).collect::<Vec<_>>());
    let heldout_pct = 100.0 * matched as f64 / scored.max(1) as f64;
    let (setup_s, setup_measured_s) = setup_medians(&setups);
    out.e2e.insert("setup_s", setup_s);
    out.e2e
        .insert("change_to_answer_p50_ref_s", median(&window_ref_s));
    out.e2e.insert(
        "peak_rss_mib",
        median(&replays.iter().map(|r| r.peak_rss_mib).collect::<Vec<_>>()),
    );
    out.e2e.insert("heldout_tiebreak_pct", heldout_pct);
    out.named = vec![
        ("setup_measured_s", setup_measured_s, "s"),
        ("window_to_swap_p50_s", median(&window_s), "s"),
        ("replay_s", replay_s, "s"),
        ("query_p50_ms", percentile(&read_ms, 0.5), "ms"),
        ("query_p99_ms", percentile(&read_ms, 0.99), "ms"),
        ("offered_reads_per_s", READ_RATE, "1/s"),
    ];
    out.samples = vec![
        ("replays", replays.len()),
        ("windows", windows.len()),
        ("update_windows", updates.len()),
        ("reads", reads.len()),
    ];

    if ctx.tracer.enabled() {
        let by_mode = |mode: &str| -> f64 {
            median(
                &updates
                    .iter()
                    .filter(|w| w.report.mode == mode)
                    .map(|w| w.report.refine_ms as f64)
                    .collect::<Vec<_>>(),
            )
        };
        out.layer(
            "mrt.decode_s",
            median(&replays.iter().map(|r| r.decode_s).collect::<Vec<_>>()),
        );
        out.layer(
            "core.refine_s",
            median(
                &updates
                    .iter()
                    .map(|w| w.report.refine_ms as f64 / 1e3)
                    .collect::<Vec<_>>(),
            ),
        );
        out.layer("stream.train_ms.incremental", by_mode("incremental"));
        out.layer("stream.train_ms.replay", by_mode("incremental_replay"));
        out.layer(
            "stream.swap_ms",
            median(
                &updates
                    .iter()
                    .map(|w| w.report.swap_ms as f64)
                    .collect::<Vec<_>>(),
            ),
        );
        out.layer(
            "stream.persist_ms",
            median(
                &updates
                    .iter()
                    .map(|w| w.wall_s * 1e3 - (w.report.refine_ms + w.report.swap_ms) as f64)
                    .collect::<Vec<_>>(),
            ),
        );
        out.layer(
            "stream.dirty_prefixes",
            median(
                &replays
                    .iter()
                    .map(|r| {
                        r.windows
                            .iter()
                            .map(|w| w.report.dirty_prefixes as f64)
                            .sum()
                    })
                    .collect::<Vec<_>>(),
            ),
        );
        let replayed = updates
            .iter()
            .filter(|w| w.report.mode == "incremental_replay")
            .count();
        let incremental = updates
            .iter()
            .filter(|w| w.report.mode.starts_with("incremental"))
            .count();
        out.layer(
            "stream.replay_ratio",
            replayed as f64 / incremental.max(1) as f64,
        );
        out.layer("stream.delta_ms", delta_ms(&last_archive.0));

        let model = persist::load_model(ctx.work.join("stream-model.quasar"))
            .expect("streamed artifact loads");
        out.layer(
            "core.persist.mib",
            streamed_json(ctx).len() as f64 / 1_048_576.0,
        );
        let (sim_ms, messages) = probe::bgpsim(&model);
        out.layer("bgpsim.simulate_ms", sim_ms);
        out.layer("bgpsim.messages", messages);
        let reference = probe::reference(model, &lines, true);
        for (kind, us) in &reference.warm_us {
            if kind == "predict" {
                out.layer("serve.handle_us.predict", *us);
            }
        }
        // Every epoch starts with flushed caches: per swap, the misses
        // its readers took until the next swap.
        let (phase_cache, per_swap) = caches.expect("traced runs track the caches").finish();
        out.layer("serve.post_swap_misses", median(&per_swap));
        probe::serve_layers(&mut out, &before, &after, phase_cache, &reads);
        out.layer("gen.lag_ms", lag_p99);
        crate::report::fill_shares(&mut out, &ctx.tracer.self_time_by_layer(), wall_s);
        out.layer(
            "host.calib_ms",
            median(&windows.iter().map(|w| w.calib_s * 1e3).collect::<Vec<_>>()),
        );
        out.layer("trace.spans", ctx.tracer.span_count() as f64);
    }
    out
}

/// Median `PathState::apply` time (ms) per window, on a shadow state
/// that has already absorbed one replay — the state the live pipeline's
/// windows meet in the timed phase.
fn delta_ms(archive: &Path) -> f64 {
    let windows = decode_windows(archive);
    let mut state = PathState::new();
    for w in &windows {
        state.apply(&w.records);
    }
    let times: Vec<f64> = windows
        .iter()
        .map(|w| {
            let t = Instant::now();
            std::hint::black_box(state.apply(&w.records));
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&times)
}
