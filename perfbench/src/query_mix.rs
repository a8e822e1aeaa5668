//! `query-mix`: a model trained once in set-up, prewarmed and served over
//! TCP, under an open-loop, seeded Poisson schedule.
//!
//! One connection carries Zipf-popular `predict` (70 %) and `explain`
//! (30 %) reads over the dataset's (prefix, observer) pairs; the other
//! carries `diff` what-ifs, each a distinct de-peering restricted to a
//! few prefixes whose observed paths cross the removed link. Latency runs
//! from each request's scheduled send time. Every reply is checked
//! against the in-process `handle_line` reply for the same line on a
//! fresh state, computed after the timed phase.

use crate::input::{self, explain_line, predict_line, query_pairs};
use crate::net::{poisson_plan, run_open_loop, Conn, Planned, Server};
use crate::probe;
use crate::report::Outcome;
use crate::util::{at_ref_speed, calibrate, median, percentile, setup_medians, sorted, Rng, Zipf};
use crate::{Ctx, SETUPS, THREADS};
use quasar_bgpsim::types::{Asn, Prefix};
use quasar_core::model::AsRoutingModel;
use quasar_core::observed::Dataset;
use quasar_core::persist;
use quasar_core::predict::evaluate;
use quasar_core::refine::{refine, RefineConfig};
use quasar_core::whatif::{Change, Scenario};
use quasar_serve::metrics::MetricsSnapshot;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::time::{Duration, Instant};

/// Offered read load (requests/s) on the read connection: well below
/// the knee, so read latency is service plus socket time, not queueing.
/// On two vCPUs the read p99 stayed under 8 ms up to 7000 reads/s, was
/// 40 ms at 10000 and grew without bound at 20000 (see README.md).
const READ_RATE: f64 = 1_000.0;
/// Offered what-if load (requests/s) on the diff connection: under 1 % of
/// the requests, yet some 240 what-ifs behind each 30 s median. At 4–9 ms
/// each they keep one core less than 10 % busy.
const DIFF_RATE: f64 = 8.0;
/// Prefixes each what-if is restricted to: a what-if costs 4–9 ms instead
/// of the seconds a whole-model diff takes.
const DIFF_PREFIXES: usize = 6;
/// Popularity skew of the (prefix, observer) pairs. The server is
/// prewarmed, so the skew decides which lines repeat, not the hit ratio.
const ZIPF_S: f64 = 1.0;
/// Share of reads that are `predict`; the rest are `explain`, which
/// costs about twice as much to handle.
const PREDICT_SHARE: f64 = 0.7;
/// Seconds between the host-speed calibrations a third thread runs
/// through the timed phase (about 5 % of one core); the gated what-if
/// latency is scaled by their median. Calibrations run only before and
/// after the phase sampled the host's speed at the ends of the run, and
/// scaling by them widened the run-to-run spread instead of narrowing it.
const CALIB_EVERY_S: f64 = 1.0;

struct Served {
    server: Server,
    model: AsRoutingModel,
    dataset: Dataset,
    matched: usize,
    scored: usize,
}

/// Set-up `i`: point split `i` → train → generalise → save → load →
/// prewarmed server. The split fixes the served model, so it is the same
/// for every `--seed`, which drives the traffic. Returns the server and
/// the set-up seconds (the held-out scoring in between is not set-up work
/// and is not timed).
fn setup(ctx: &Ctx, i: u64) -> (Served, f64) {
    let t = Instant::now();
    let net = input::internet(ctx.scale);
    let ds = input::dataset(&net.observations);
    let (train, val) = ds.split_by_point(0.5, i);
    let mut model = AsRoutingModel::initial(&ds.as_graph(), &ds.prefixes());
    let cfg = RefineConfig {
        threads: THREADS,
        ..RefineConfig::default()
    };
    refine(&mut model, &train, &cfg).expect("refinement runs");
    let before_score = t.elapsed();
    let eval = evaluate(&model, &val);
    let t = Instant::now();
    model.generalize_med_preferences();
    let artifact = ctx.work.join("model.quasar");
    persist::save_model(&artifact, &model).expect("artifact saves");
    let loaded = persist::load_model(&artifact).expect("artifact loads");
    let server = Server::start(loaded, true).expect("server starts");
    let secs = (before_score + t.elapsed()).as_secs_f64();
    (
        Served {
            server,
            model,
            dataset: ds,
            matched: eval.counts.rib_out + eval.counts.potential_rib_out,
            scored: eval.counts.total,
        },
        secs,
    )
}

/// Interns request lines so each distinct line is answered once by the
/// reference.
#[derive(Default)]
struct Lines {
    text: Vec<String>,
    index: HashMap<String, usize>,
}

impl Lines {
    fn add(&mut self, line: String) -> usize {
        if let Some(&i) = self.index.get(&line) {
            return i;
        }
        self.text.push(line.clone());
        self.index.insert(line, self.text.len() - 1);
        self.text.len() - 1
    }
}

/// What-if scenarios: distinct de-peerings of links that observed paths
/// cross, each restricted to [`DIFF_PREFIXES`] of those prefixes.
fn scenarios(ds: &Dataset, rng: &mut Rng) -> Vec<((u32, u32), Vec<Prefix>)> {
    let mut by_link: BTreeMap<(u32, u32), BTreeSet<Prefix>> = BTreeMap::new();
    for r in ds.routes() {
        let hops: Vec<u32> = r.as_path.iter().map(|a| a.0).collect();
        for w in hops.windows(2) {
            let link = (w[0].min(w[1]), w[0].max(w[1]));
            if link.0 != link.1 {
                by_link.entry(link).or_default().insert(r.prefix);
            }
        }
    }
    // Only links with enough prefixes, so every what-if simulates the
    // same number of prefixes and the mix of sizes does not vary by seed.
    let mut out: Vec<((u32, u32), Vec<Prefix>)> = by_link
        .into_iter()
        .filter(|(_, prefixes)| prefixes.len() >= DIFF_PREFIXES)
        .map(|(link, prefixes)| {
            let mut p: Vec<Prefix> = prefixes.into_iter().collect();
            rng.shuffle(&mut p);
            p.truncate(DIFF_PREFIXES);
            (link, p)
        })
        .collect();
    assert!(
        !out.is_empty(),
        "no link carries {DIFF_PREFIXES} observed prefixes"
    );
    rng.shuffle(&mut out);
    out
}

fn diff_line(link: (u32, u32), prefixes: &[Prefix]) -> String {
    let list: Vec<String> = prefixes.iter().map(|p| format!("\"{p}\"")).collect();
    format!(
        r#"{{"type":"diff","changes":[{{"action":"depeer","a":{},"b":{}}}],"prefixes":[{}]}}"#,
        link.0,
        link.1,
        list.join(",")
    )
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let (mut matched, mut scored) = (0usize, 0usize);
    let mut served = None;
    for i in 0..SETUPS as u64 {
        if let Some(prev) = served.take() {
            let Served { server, .. } = prev;
            if let Err(e) = server.stop() {
                out.fail("server_stop", 1);
                eprintln!("query-mix set-up {i}: {e}");
            }
        }
        let calib_s = calibrate();
        let (s, secs) = setup(ctx, i);
        setups.push((secs, calib_s));
        matched += s.matched;
        scored += s.scored;
        served = Some(s);
    }
    let Served {
        server,
        model,
        dataset: ds,
        ..
    } = served.expect("at least one set-up");

    // The schedule, fixed before the phase starts.
    let mut rng = Rng::new(ctx.seed);
    let mut pairs = query_pairs(&ds);
    rng.shuffle(&mut pairs);
    let zipf = Zipf::new(pairs.len(), ZIPF_S);
    let mut lines = Lines::default();
    let read_plan = poisson_plan(&mut rng, READ_RATE, ctx.seconds, |rng| {
        let (p, o) = &pairs[zipf.sample(rng)];
        lines.add(if rng.unit() < PREDICT_SHARE {
            predict_line(p, *o)
        } else {
            explain_line(p, *o)
        })
    });
    let scenarios = scenarios(&ds, &mut rng);
    let mut scenario_of_line = HashMap::new();
    let mut next = 0usize;
    let diff_plan: Vec<Planned> = poisson_plan(&mut rng, DIFF_RATE, ctx.seconds, |_| {
        let i = next % scenarios.len();
        next += 1;
        let line = lines.add(diff_line(scenarios[i].0, &scenarios[i].1));
        scenario_of_line.insert(line, i);
        line
    });
    let lines = lines.text;

    let read_conn = Conn::ready(server.addr).expect("connect the reader");
    let diff_conn = Conn::ready(server.addr).expect("connect the what-if client");
    let before = server.metrics();
    crate::trace::start_peak_rss();
    let phase = Instant::now();
    let (reads, diffs, calibs) = std::thread::scope(|s| {
        let r = s.spawn(|| {
            run_open_loop(
                server.addr,
                read_conn,
                &read_plan,
                &lines,
                phase,
                &ctx.tracer,
                "client.read",
            )
        });
        let d = s.spawn(|| {
            run_open_loop(
                server.addr,
                diff_conn,
                &diff_plan,
                &lines,
                phase,
                &ctx.tracer,
                "client.diff",
            )
        });
        let calibs: Vec<f64> = (0..(ctx.seconds / CALIB_EVERY_S).ceil() as u32)
            .map(|k| {
                let due = Duration::from_secs_f64(f64::from(k) * CALIB_EVERY_S);
                std::thread::sleep(due.saturating_sub(phase.elapsed()));
                calibrate()
            })
            .collect();
        (
            r.join().expect("read generator"),
            d.join().expect("diff generator"),
            calibs,
        )
    });
    let wall_s = phase.elapsed().as_secs_f64();
    out.e2e.insert("peak_rss_mib", crate::trace::peak_rss_mib());
    let calib_s = median(&calibs);
    let after = server.metrics();
    if let Err(e) = server.stop() {
        out.fail("server_stop", 1);
        eprintln!("query-mix: {e}");
    }

    // Every reply against the in-process reference on a fresh state.
    let reference = probe::reference(model.clone(), &lines, ctx.tracer.enabled());
    out.attempted += (reads.len() + diffs.len()) as u64;
    for d in reads.iter().chain(&diffs) {
        match d.outcome.as_str() {
            "predict" | "explain" | "diff" if d.fnv == reference.fnv[d.line] => {}
            "predict" | "explain" | "diff" => out.fail("reply_mismatch", 1),
            other => out.fail(other, 1),
        }
    }
    let lag_p99 = probe::generator_check(&mut out, reads.iter().chain(&diffs));

    let read_ms = sorted(reads.iter().map(|d| d.latency_ns() as f64 / 1e6).collect());
    let diff_s = sorted(diffs.iter().map(|d| d.latency_ns() as f64 / 1e9).collect());
    let heldout_pct = 100.0 * matched as f64 / scored.max(1) as f64;
    let (setup_s, setup_measured_s) = setup_medians(&setups);
    out.e2e.insert("setup_s", setup_s);
    out.e2e.insert(
        "change_to_answer_p50_ref_s",
        at_ref_speed(percentile(&diff_s, 0.5), calib_s),
    );
    out.e2e.insert("heldout_tiebreak_pct", heldout_pct);
    out.named = vec![
        ("setup_measured_s", setup_measured_s, "s"),
        ("query_p50_ms", percentile(&read_ms, 0.5), "ms"),
        ("query_p99_ms", percentile(&read_ms, 0.99), "ms"),
        ("whatif_p50_ms", percentile(&diff_s, 0.5) * 1e3, "ms"),
        ("offered_reads_per_s", READ_RATE, "1/s"),
        ("offered_diffs_per_s", DIFF_RATE, "1/s"),
    ];
    out.samples = vec![("reads", reads.len()), ("diffs", diffs.len())];

    if ctx.tracer.enabled() {
        let (sim_ms, messages) = probe::bgpsim(&model);
        out.layer("bgpsim.simulate_ms", sim_ms);
        out.layer("bgpsim.messages", messages);
        for (kind, us) in &reference.warm_us {
            match kind.as_str() {
                "predict" => out.layer("serve.handle_us.predict", *us),
                "explain" => out.layer("serve.handle_us.explain", *us),
                _ => {}
            }
        }
        out.layer("serve.handle_ms.diff", reference.diff_ms);
        let whatif_ms: Vec<f64> = diffs
            .iter()
            .map(|d| {
                let (link, prefixes) = &scenarios[scenario_of_line[&d.line]];
                let t = Instant::now();
                Scenario::new(&model)
                    .apply(Change::Depeer(Asn(link.0), Asn(link.1)))
                    .diff_for(prefixes.iter().copied())
                    .expect("what-if simulates");
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        out.layer("core.whatif.diff_ms", median(&whatif_ms));
        let hits = after.base_cache.hits - before.base_cache.hits;
        let misses = after.base_cache.misses - before.base_cache.misses;
        probe::serve_layers(&mut out, &before, &after, (hits, misses), &reads);
        out.layer("gen.lag_ms", lag_p99);

        // Wall-time split per load connection: time the server spent
        // handling (its own latency totals), time on the socket and in
        // the queue (client round trips minus that), and the rest, the
        // open loop waiting for the next due request.
        let total_us = |m: &MetricsSnapshot| -> f64 {
            m.requests.iter().map(|(_, l)| l.total_us as f64).sum()
        };
        let serve_s = (total_us(&after) - total_us(&before)) / 1e6;
        let round_trips_s: f64 = reads
            .iter()
            .chain(&diffs)
            .map(|d| (d.done_ns - d.sent_ns) as f64 / 1e9)
            .sum();
        let conn_wall = 2.0 * wall_s;
        let mut self_times = BTreeMap::new();
        self_times.insert("serve", serve_s);
        self_times.insert("net", (round_trips_s - serve_s).max(0.0));
        self_times.insert("client", (conn_wall - round_trips_s).max(0.0));
        crate::report::fill_shares(&mut out, &self_times, conn_wall);
        out.layer("host.calib_ms", calib_s * 1e3);
        out.layer("trace.spans", ctx.tracer.span_count() as f64);
    }
    out
}
