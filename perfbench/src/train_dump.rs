//! `train-dump`: the paper's pipeline from a table dump on disk to a
//! served answer, repeated on a fresh point split each cycle.
//!
//! One cycle: read + decode the TABLE_DUMP_V2 file (`mrt`) → `Dataset`
//! → point split → initial model → `refine` (`bgpsim` inside) → MED
//! generalisation → `persist` save → load → sharded server start → first
//! served reply. The held-out half is then scored the way `quasar
//! predict --split point` scores it (outside the timed stages), and a
//! burst of held-out reads hits the freshly loaded, cold-cache server.

use crate::input::{self, explain_line, predict_line, query_pairs};
use crate::net::{Conn, Server};
use crate::probe;
use crate::report::{fill_shares, Outcome};
use crate::trace::{alloc_totals, peak_rss_mib, start_peak_rss};
use crate::util::{
    at_ref_speed, calibrate, fnv, median, percentile, reply_type, setup_medians, sorted, Rng,
};
use crate::{Ctx, CHECK_THREADS, SETUPS, THREADS};
use quasar_core::model::AsRoutingModel;
use quasar_core::persist;
use quasar_core::predict::evaluate;
use quasar_core::refine::{refine, RefineConfig};
use quasar_netgen::prelude::{export_table_dump_v2, import_table_dump_v2};
use quasar_serve::metrics::MetricsSnapshot;
use std::path::Path;
use std::time::Instant;

/// Held-out reads sent to each freshly loaded server.
const READS_PER_CYCLE: usize = 200;
const MIN_CYCLES: u64 = 3;

#[derive(Default)]
struct Cycle {
    decode_s: f64,
    dataset_s: f64,
    refine_s: f64,
    generalize_s: f64,
    save_s: f64,
    load_s: f64,
    start_s: f64,
    answer_s: f64,
    /// The host-speed calibration run just before the cycle.
    calib_s: f64,
    converged: bool,
    domains: usize,
    repair_rounds: u64,
    iterations: usize,
    quasi_routers: usize,
    refine_allocs: u64,
    refine_alloc_bytes: u64,
    artifact_bytes: usize,
    /// `VmHWM` from the cycle's start to its server's stop (MiB).
    peak_rss_mib: f64,
    matched: usize,
    scored: usize,
    /// Client round trips of the reads: (µs, was a predict).
    reads: Vec<(f64, bool)>,
    /// Reply failures and mismatches against the in-process reference.
    failures: Vec<&'static str>,
    /// The cycle's server counters, read just before it stops.
    metrics: MetricsSnapshot,
    json: String,
    model: Option<AsRoutingModel>,
    lines: Vec<String>,
}

impl Cycle {
    fn train_s(&self) -> f64 {
        self.decode_s + self.dataset_s + self.refine_s + self.generalize_s + self.save_s
    }

    fn first_answer_s(&self) -> f64 {
        self.train_s() + self.load_s + self.start_s + self.answer_s
    }

    fn first_answer_ref_s(&self) -> f64 {
        at_ref_speed(self.first_answer_s(), self.calib_s)
    }
}

/// A reply's hash and its failure class (empty when it is an answer).
fn classify(reply: &str) -> (u64, &'static str) {
    let kind = match reply_type(reply) {
        "error" => "error_reply",
        "overloaded" => "overloaded",
        "deadline_exceeded" => "deadline_exceeded",
        _ => "",
    };
    (fnv(reply), kind)
}

fn refine_config(threads: usize) -> RefineConfig {
    RefineConfig {
        threads,
        ..RefineConfig::default()
    }
}

fn split_seed(seed: u64, cycle: u64) -> u64 {
    seed.wrapping_mul(1_000_003).wrapping_add(cycle)
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let dump = ctx.work.join("dump.mrt");
    let artifact = ctx.work.join("model.quasar");

    // Set-up: generate the internet and write its feeds as a dump. A plain
    // write: the dump is an input, and an fsync would time the disk.
    let mut setups = Vec::new();
    for _ in 0..SETUPS {
        let calib_s = calibrate();
        let t = Instant::now();
        let net = input::internet(ctx.scale);
        let bytes = export_table_dump_v2(&net.observation_points, &net.observations);
        std::fs::write(&dump, &bytes).expect("write the dump");
        setups.push((t.elapsed().as_secs_f64(), calib_s));
    }

    let phase = Instant::now();
    let mut cycles: Vec<Cycle> = Vec::new();
    let mut k = 0u64;
    while k < MIN_CYCLES || phase.elapsed().as_secs_f64() < ctx.seconds {
        let (calib_s, _) = ctx
            .tracer
            .span("bench.calib", "bench", None, k, |_| calibrate());
        let mut c = cycle(ctx, k, &dump, &artifact);
        c.calib_s = calib_s;
        // Only cycle 0's artifact is checked. Buffers are dropped, not
        // cleared, so no cycle's memory peak grows with the cycles before
        // it (and so with the host's speed).
        if k > 0 {
            c.json = String::new();
        }
        if let Some(prev) = cycles.last_mut() {
            prev.model = None;
            prev.lines = Vec::new();
        }
        cycles.push(c);
        k += 1;
    }
    let wall_s = phase.elapsed().as_secs_f64();
    let self_times = ctx.tracer.self_time_by_layer();

    // Correctness: the cycle-0 artifact against a train of the same dump
    // and split at another thread count.
    let want = {
        let bytes = std::fs::read(&dump).expect("read the dump");
        let (_, obs) = import_table_dump_v2(&bytes).expect("dump decodes");
        let ds = input::dataset(&obs);
        let (train, _) = ds.split_by_point(0.5, split_seed(ctx.seed, 0));
        let mut model = AsRoutingModel::initial(&ds.as_graph(), &ds.prefixes());
        refine(&mut model, &train, &refine_config(CHECK_THREADS)).expect("reference refinement");
        model.generalize_med_preferences();
        model.to_json().expect("model serializes")
    };
    out.check(
        "artifact_equals_two_thread_train",
        cycles[0].json == want,
        format!("{} vs {} bytes", cycles[0].json.len(), want.len()),
    );
    let unconverged = cycles.iter().filter(|c| !c.converged).count();
    out.check(
        "refinement_converged",
        unconverged == 0,
        format!("{unconverged} of {} cycles unconverged", cycles.len()),
    );
    out.attempted += cycles.len() as u64;
    for c in &cycles {
        out.attempted += 1 + c.reads.len() as u64;
        for f in &c.failures {
            out.fail(f, 1);
        }
        out.fail("shed", c.metrics.shed);
    }

    let col = |f: fn(&Cycle) -> f64| median(&cycles.iter().map(f).collect::<Vec<_>>());
    let reads_ms = sorted(
        cycles
            .iter()
            .flat_map(|c| c.reads.iter().map(|r| r.0 / 1e3))
            .collect(),
    );
    let matched: usize = cycles.iter().map(|c| c.matched).sum();
    let scored: usize = cycles.iter().map(|c| c.scored).sum();
    let heldout_pct = 100.0 * matched as f64 / scored.max(1) as f64;

    let (setup_s, setup_measured_s) = setup_medians(&setups);
    out.e2e.insert("setup_s", setup_s);
    out.e2e
        .insert("change_to_answer_p50_ref_s", col(Cycle::first_answer_ref_s));
    out.e2e.insert("peak_rss_mib", col(|c| c.peak_rss_mib));
    out.e2e.insert("heldout_tiebreak_pct", heldout_pct);
    out.named = vec![
        ("setup_measured_s", setup_measured_s, "s"),
        ("train_s", col(Cycle::train_s), "s"),
        ("first_answer_s", col(Cycle::first_answer_s), "s"),
        ("heldout_tiebreak_pct", heldout_pct, "%"),
        ("query_p50_ms", percentile(&reads_ms, 0.5), "ms"),
        ("query_p99_ms", percentile(&reads_ms, 0.99), "ms"),
    ];
    out.samples = vec![
        ("cycles", cycles.len()),
        ("reads", reads_ms.len()),
        ("heldout_routes", scored),
    ];

    if ctx.tracer.enabled() {
        let last = cycles.last().expect("at least one cycle");
        out.layer("mrt.decode_s", col(|c| c.decode_s));
        out.layer("core.dataset_s", col(|c| c.dataset_s));
        out.layer("core.refine_s", col(|c| c.refine_s));
        out.layer("core.refine.allocs", col(|c| c.refine_allocs as f64));
        out.layer(
            "core.refine.alloc_mib",
            col(|c| c.refine_alloc_bytes as f64 / 1_048_576.0),
        );
        out.layer("core.refine.domains", col(|c| c.domains as f64));
        out.layer("core.refine.repair_rounds", col(|c| c.repair_rounds as f64));
        out.layer("core.refine.iterations", col(|c| c.iterations as f64));
        out.layer("core.refine.quasi_routers", col(|c| c.quasi_routers as f64));
        out.layer("core.generalize_s", col(|c| c.generalize_s));
        out.layer("core.persist.save_s", col(|c| c.save_s));
        out.layer("core.persist.load_s", col(|c| c.load_s));
        out.layer(
            "core.persist.mib",
            col(|c| c.artifact_bytes as f64 / 1_048_576.0),
        );
        out.layer("serve.start_s", col(|c| c.start_s));
        let model = last.model.clone().expect("last cycle keeps its model");
        let (sim_ms, messages) = probe::bgpsim(&model);
        out.layer("bgpsim.simulate_ms", sim_ms);
        out.layer("bgpsim.messages", messages);
        let reference = probe::reference(model, &last.lines, true);
        for (kind, us) in &reference.warm_us {
            match kind.as_str() {
                "predict" => out.layer("serve.handle_us.predict", *us),
                "explain" => out.layer("serve.handle_us.explain", *us),
                _ => {}
            }
        }
        let client_predict_us = median(
            &cycles
                .iter()
                .flat_map(|c| c.reads.iter().filter(|r| r.1).map(|r| r.0))
                .collect::<Vec<_>>(),
        );
        // Every cycle starts a fresh server, so its counters are that
        // cycle's alone: the run's totals are their sums.
        let sum = |f: &dyn Fn(&MetricsSnapshot) -> u64| -> u64 {
            cycles.iter().map(|c| f(&c.metrics)).sum()
        };
        let count = |m: &MetricsSnapshot, k: &str| m.for_kind(k).map_or(0, |l| l.count);
        let server = (
            sum(&|m| count(m, "predict")),
            sum(&|m| m.for_kind("predict").map_or(0, |l| l.total_us)),
        );
        probe::server_split(&mut out, &last.metrics, client_predict_us, server);
        let hits = sum(&|m| m.base_cache.hits);
        let misses = sum(&|m| m.base_cache.misses);
        out.layer(
            "serve.cache_hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
        );
        out.layer("serve.cache_misses", misses as f64);
        out.layer("serve.errors", sum(&|m| count(m, "error")) as f64);
        out.layer("serve.shed", sum(&|m| m.shed) as f64);
        out.layer(
            "serve.deadline_exceeded",
            sum(&|m| m.deadline_exceeded) as f64,
        );
        out.layer("gen.query_p50_ms", percentile(&reads_ms, 0.5));
        out.layer("gen.query_p99_ms", percentile(&reads_ms, 0.99));
        fill_shares(&mut out, &self_times, wall_s);
        out.layer("host.calib_ms", col(|c| c.calib_s * 1e3));
        out.layer("trace.spans", ctx.tracer.span_count() as f64);
    }
    out
}

fn cycle(ctx: &Ctx, k: u64, dump: &Path, artifact: &Path) -> Cycle {
    let tr = &ctx.tracer;
    let mut c = Cycle::default();
    let split = split_seed(ctx.seed, k);
    // Each cycle stands for one `quasar train` run and a fresh server: its
    // memory peak is its own, not the previous cycle's freed heap.
    start_peak_rss();
    tr.span("train-dump.cycle", "bench", None, k, |root| {
        let (obs, decode_s) = tr.span("mrt.decode", "mrt", root, k, |_| {
            let bytes = std::fs::read(dump).expect("read the dump");
            import_table_dump_v2(&bytes).expect("dump decodes").1
        });
        c.decode_s = decode_s;
        let ((train, val, mut model), dataset_s) =
            tr.span("core.dataset", "core.dataset", root, k, |_| {
                let ds = input::dataset(&obs);
                let (train, val) = ds.split_by_point(0.5, split);
                let model = AsRoutingModel::initial(&ds.as_graph(), &ds.prefixes());
                (train, val, model)
            });
        c.dataset_s = dataset_s;
        let (calls0, bytes0) = alloc_totals();
        let (report, refine_s) = tr.span("core.refine", "core.refine", root, k, |_| {
            refine(&mut model, &train, &refine_config(THREADS)).expect("refinement runs")
        });
        let (calls1, bytes1) = alloc_totals();
        c.refine_s = refine_s;
        c.refine_allocs = calls1 - calls0;
        c.refine_alloc_bytes = bytes1 - bytes0;
        c.converged = report.converged();
        c.domains = report.domains;
        c.repair_rounds = report.repair_rounds;
        c.iterations = report.total_iterations();
        c.quasi_routers = model.stats().quasi_routers;

        // Scored as `quasar predict --split point` scores: the refined
        // model before generalisation, on the held-out feeds.
        let (eval, _) = tr.span("bench.score", "bench", root, k, |_| evaluate(&model, &val));
        c.matched = eval.counts.rib_out + eval.counts.potential_rib_out;
        c.scored = eval.counts.total;

        let (_, generalize_s) = tr.span("core.generalize", "core.generalize", root, k, |_| {
            model.generalize_med_preferences()
        });
        c.generalize_s = generalize_s;
        let (json, save_s) = tr.span("core.persist.save", "core.persist", root, k, |_| {
            let json = model.to_json().expect("model serializes");
            persist::save_artifact(artifact, persist::KIND_MODEL, json.as_bytes())
                .expect("artifact saves");
            json
        });
        c.save_s = save_s;
        c.artifact_bytes = json.len();
        let (loaded, load_s) = tr.span("core.persist.load", "core.persist", root, k, |_| {
            persist::load_model(artifact).expect("artifact loads")
        });
        c.load_s = load_s;
        let (server, start_s) = tr.span("serve.start", "serve", root, k, |_| {
            Server::start(loaded, false).expect("server starts")
        });
        c.start_s = start_s;

        let mut pairs = query_pairs(&val);
        let mut rng = Rng::new(split);
        rng.shuffle(&mut pairs);
        pairs.truncate(READS_PER_CYCLE + 1);
        c.lines = pairs
            .iter()
            .enumerate()
            .map(|(i, (p, o))| {
                if i > 0 && rng.unit() < 0.25 {
                    explain_line(p, *o)
                } else {
                    predict_line(p, *o)
                }
            })
            .collect();

        let ((mut conn, first), answer_s) = tr.span("serve.first_answer", "serve", root, k, |_| {
            let mut conn = Conn::connect(server.addr).expect("connect to the server");
            let reply = conn.call(&c.lines[0]).map(classify).ok();
            (conn, reply)
        });
        c.answer_s = answer_s;
        let mut served = vec![first];
        tr.span("client.reads", "client", root, k, |_| {
            for line in &c.lines[1..] {
                let t = Instant::now();
                let reply = conn.call(line).map(classify).ok();
                c.reads.push((
                    t.elapsed().as_secs_f64() * 1e6,
                    line.contains("\"predict\""),
                ));
                served.push(reply);
            }
        });
        drop(conn);
        c.metrics = server.metrics();
        tr.span("serve.stop", "serve", root, k, |_| {
            if let Err(e) = server.stop() {
                c.failures.push("server_stop");
                eprintln!("train-dump cycle {k}: {e}");
            }
        });
        c.peak_rss_mib = peak_rss_mib();

        // The oracle: the same lines answered in-process by the model
        // that was saved, before it went through the artifact. A traced
        // run keeps a copy for its single-layer probes.
        c.model = tr.enabled().then(|| model.clone());
        tr.span("bench.check", "bench", root, k, |_| {
            let want = probe::reference(model, &c.lines, false).fnv;
            for (got, want) in served.iter().zip(want) {
                match got {
                    None => c.failures.push("transport"),
                    Some((_, kind)) if !kind.is_empty() => c.failures.push(kind),
                    Some((h, _)) if *h != want => c.failures.push("reply_mismatch"),
                    Some(_) => {}
                }
            }
        });
        c.json = json;
    });
    c
}
