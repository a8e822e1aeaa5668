//! What the workloads compute outside their timed phases: in-process
//! reference replies (the correctness oracle for served replies),
//! per-call timings of single layers, the serve-side per-layer figures
//! and the generator's schedule check.

use crate::net::{serve_config, Done, SHARDS};
use crate::report::Outcome;
use crate::util::{fnv, median, percentile, reply_type, sorted};
use crate::LAG_BOUND_MS;
use quasar_core::model::AsRoutingModel;
use quasar_serve::metrics::MetricsSnapshot;
use quasar_serve::shard::ShardedState;
use std::time::Instant;

/// Reply hashes from a fresh in-process server state, plus per-kind
/// `handle_line` timings.
pub struct Reference {
    /// FNV of the reply to each line, index-aligned with the lines.
    pub fnv: Vec<u64>,
    /// Median warm `handle_line` time per request type (µs), from a
    /// second pass after the first one filled the caches.
    pub warm_us: Vec<(String, f64)>,
    /// Median first-pass `handle_line` time (ms) of `diff` lines: each
    /// one opens its own what-if session.
    pub diff_ms: f64,
}

/// Answers every line on a fresh `ShardedState` over `model` — the
/// same dispatcher the TCP server runs, so a served reply must hash the
/// same. With `timed`, a second pass measures warm per-line cost.
pub fn reference(model: AsRoutingModel, lines: &[String], timed: bool) -> Reference {
    let state = ShardedState::new(model, serve_config(), SHARDS);
    let mut fnvs = Vec::with_capacity(lines.len());
    let mut diff = Vec::new();
    for line in lines {
        let t = Instant::now();
        let resp = state.handle_line(line);
        let secs = t.elapsed().as_secs_f64();
        let text = serde_json::to_string(&resp).expect("replies serialize");
        if reply_type(&text) == "diff" {
            diff.push(secs * 1e3);
        }
        fnvs.push(fnv(&text));
    }
    let mut warm_us = Vec::new();
    if timed {
        let mut by_kind: std::collections::BTreeMap<String, Vec<f64>> = Default::default();
        for line in lines {
            if line.contains("\"type\":\"diff\"") {
                continue;
            }
            let t = Instant::now();
            let resp = state.handle_line(line);
            let secs = t.elapsed().as_secs_f64();
            let text = serde_json::to_string(&resp).expect("replies serialize");
            by_kind
                .entry(reply_type(&text).to_string())
                .or_default()
                .push(secs * 1e6);
        }
        warm_us = by_kind.into_iter().map(|(k, v)| (k, median(&v))).collect();
    }
    Reference {
        fnv: fnvs,
        warm_us,
        diff_ms: median(&diff),
    }
}

/// Median per-prefix `AsRoutingModel::simulate` time (ms) and messages
/// over every prefix of `model`.
pub fn bgpsim(model: &AsRoutingModel) -> (f64, f64) {
    let mut ms = Vec::new();
    let mut messages = Vec::new();
    for &prefix in model.prefixes().keys() {
        let t = Instant::now();
        if let Ok(result) = model.simulate(prefix) {
            ms.push(t.elapsed().as_secs_f64() * 1e3);
            messages.push(result.stats.messages as f64);
        }
    }
    (median(&ms), median(&messages))
}

/// `serve.server_p50_us` as the `metrics` verb reports it (the upper
/// bound of its histogram bucket, a decade wide) and `serve.net_queue_us`,
/// the client's median predict latency less the server's exact mean
/// handling time over the phase (`(count, total_us)`): the socket and
/// queue wait.
pub fn server_split(
    out: &mut Outcome,
    after: &MetricsSnapshot,
    client_us: f64,
    (count, total_us): (u64, u64),
) {
    out.layer(
        "serve.server_p50_us",
        after.for_kind("predict").map_or(0.0, |l| l.p50_us as f64),
    );
    out.layer(
        "serve.net_queue_us",
        client_us - total_us as f64 / count.max(1) as f64,
    );
}

/// The serve-side per-layer metrics of a timed phase from the server's
/// counters before and after it, the phase's base-cache (hits, misses),
/// and the client's replies.
pub fn serve_layers(
    out: &mut Outcome,
    before: &MetricsSnapshot,
    after: &MetricsSnapshot,
    (hits, misses): (u64, u64),
    reads: &[Done],
) {
    let predict = |m: &MetricsSnapshot| {
        m.for_kind("predict")
            .map_or((0, 0), |l| (l.count, l.total_us))
    };
    let ((n0, us0), (n1, us1)) = (predict(before), predict(after));
    let client_us = median(
        &reads
            .iter()
            .filter(|d| d.outcome == "predict")
            .map(|d| d.latency_ns() as f64 / 1e3)
            .collect::<Vec<_>>(),
    );
    server_split(out, after, client_us, (n1 - n0, us1 - us0));
    out.layer(
        "serve.cache_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    out.layer("serve.cache_misses", misses as f64);
    let count = |m: &MetricsSnapshot, k: &str| m.for_kind(k).map_or(0, |l| l.count);
    out.layer(
        "serve.errors",
        count(after, "error").saturating_sub(count(before, "error")) as f64,
    );
    out.layer("serve.shed", after.shed.saturating_sub(before.shed) as f64);
    out.layer(
        "serve.deadline_exceeded",
        after
            .deadline_exceeded
            .saturating_sub(before.deadline_exceeded) as f64,
    );
    let read_ms = sorted(reads.iter().map(|d| d.latency_ns() as f64 / 1e6).collect());
    out.layer("gen.query_p50_ms", percentile(&read_ms, 0.5));
    out.layer("gen.query_p99_ms", percentile(&read_ms, 0.99));
}

/// Records the `generator_on_schedule` check over every request the
/// open-loop generator sent, and returns its lag p99 (ms).
pub fn generator_check<'a>(out: &mut Outcome, sent: impl Iterator<Item = &'a Done>) -> f64 {
    let lag_ms = sorted(sent.map(|d| d.lag_ns as f64 / 1e6).collect());
    let lag_p99 = percentile(&lag_ms, 0.99);
    out.check(
        "generator_on_schedule",
        lag_p99 <= LAG_BOUND_MS,
        format!("gen.lag p99 {lag_p99:.3} ms, bound {LAG_BOUND_MS} ms"),
    );
    lag_p99
}
