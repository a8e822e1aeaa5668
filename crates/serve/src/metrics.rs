//! Server-side observability: request counters, latency histograms, and
//! cache statistics, all lock-free atomics so the hot path never blocks
//! on a metrics mutex.

use crate::cache::CacheSnapshot;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// Upper bounds (microseconds) of the latency histogram buckets; an
/// implicit final bucket catches everything slower.
pub const BUCKET_BOUNDS_US: [u64; 7] = [10, 100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000];

const NUM_BUCKETS: usize = BUCKET_BOUNDS_US.len() + 1;

/// The request types the server distinguishes in its metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestKind {
    /// `predict` requests.
    Predict,
    /// `diff` (what-if) requests.
    Diff,
    /// `explain` requests.
    Explain,
    /// `stats` requests.
    Stats,
    /// `metrics` requests.
    Metrics,
    /// `reload` (model hot-swap) requests.
    Reload,
    /// `shutdown` requests.
    Shutdown,
    /// `stream_report` requests (a streaming pipeline publishing its
    /// per-window progress).
    StreamReport,
    /// Malformed or failed requests (answered with an error response).
    Error,
}

impl RequestKind {
    const ALL: [RequestKind; 9] = [
        RequestKind::Predict,
        RequestKind::Diff,
        RequestKind::Explain,
        RequestKind::Stats,
        RequestKind::Metrics,
        RequestKind::Reload,
        RequestKind::Shutdown,
        RequestKind::StreamReport,
        RequestKind::Error,
    ];

    /// Stable wire name of the kind.
    pub fn as_str(self) -> &'static str {
        match self {
            RequestKind::Predict => "predict",
            RequestKind::Diff => "diff",
            RequestKind::Explain => "explain",
            RequestKind::Stats => "stats",
            RequestKind::Metrics => "metrics",
            RequestKind::Reload => "reload",
            RequestKind::Shutdown => "shutdown",
            RequestKind::StreamReport => "stream_report",
            RequestKind::Error => "error",
        }
    }

    fn index(self) -> usize {
        match self {
            RequestKind::Predict => 0,
            RequestKind::Diff => 1,
            RequestKind::Explain => 2,
            RequestKind::Stats => 3,
            RequestKind::Metrics => 4,
            RequestKind::Reload => 5,
            RequestKind::Shutdown => 6,
            RequestKind::StreamReport => 7,
            RequestKind::Error => 8,
        }
    }
}

/// Log-scale latency histogram with atomic buckets.
#[derive(Default)]
pub struct LatencyHistogram {
    count: AtomicU64,
    total_us: AtomicU64,
    buckets: [AtomicU64; NUM_BUCKETS],
}

impl LatencyHistogram {
    /// Records one observation in microseconds.
    pub fn record(&self, us: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_us.fetch_add(us, Ordering::Relaxed);
        let idx = BUCKET_BOUNDS_US
            .iter()
            .position(|&b| us < b)
            .unwrap_or(NUM_BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
    }

    /// Current state of the histogram.
    pub fn snapshot(&self) -> LatencySnapshot {
        let count = self.count.load(Ordering::Relaxed);
        let total_us = self.total_us.load(Ordering::Relaxed);
        let buckets: Vec<(u64, u64)> = (0..NUM_BUCKETS)
            .map(|i| {
                let bound = BUCKET_BOUNDS_US.get(i).copied().unwrap_or(u64::MAX);
                (bound, self.buckets[i].load(Ordering::Relaxed))
            })
            .collect();
        LatencySnapshot {
            count,
            total_us,
            mean_us: if count == 0 {
                0.0
            } else {
                total_us as f64 / count as f64
            },
            p50_us: percentile(&buckets, count, 0.50),
            p99_us: percentile(&buckets, count, 0.99),
            buckets,
        }
    }
}

/// Bucket upper bound containing the q-th quantile (an upper-bound
/// estimate — exact percentiles would need every sample).
fn percentile(buckets: &[(u64, u64)], count: u64, q: f64) -> u64 {
    if count == 0 {
        return 0;
    }
    let rank = ((count as f64) * q).ceil().max(1.0) as u64;
    let mut seen = 0;
    for &(bound, n) in buckets {
        seen += n;
        if seen >= rank {
            return bound;
        }
    }
    u64::MAX
}

/// Serializable state of one latency histogram.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct LatencySnapshot {
    /// Requests recorded.
    pub count: u64,
    /// Sum of latencies (µs).
    pub total_us: u64,
    /// Mean latency (µs).
    pub mean_us: f64,
    /// Upper-bound estimate of the median latency (µs).
    pub p50_us: u64,
    /// Upper-bound estimate of the 99th-percentile latency (µs).
    pub p99_us: u64,
    /// `(upper_bound_us, count)` per bucket; the last bound is `u64::MAX`.
    pub buckets: Vec<(u64, u64)>,
}

/// One streamed window's worth of pipeline progress, as reported by a
/// `quasar stream` process through the `stream_report` request.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct StreamWindowReport {
    /// Window sequence number (0-based, monotonically increasing).
    pub seq: u64,
    /// BGP UPDATE messages parsed in this window.
    pub updates: u64,
    /// Announced (prefix, feed) route changes applied.
    pub announcements: u64,
    /// Withdrawn (prefix, feed) routes applied.
    pub withdrawals: u64,
    /// Prefixes whose observed-path set actually changed.
    pub dirty_prefixes: u64,
    /// Training mode chosen for this window: `"initial"`,
    /// `"incremental"`, `"incremental_replay"` or `"full_retrain"`.
    pub mode: String,
    /// Wall-clock time spent re-refining the model (ms).
    pub refine_ms: u64,
    /// Wall-clock time from window close to the serve swap taking
    /// effect (ms); `0` when no swap was attempted.
    pub swap_ms: u64,
    /// Updates parsed per second of window wall-clock.
    pub updates_per_sec: f64,
}

/// Cumulative status of a streaming ingestion pipeline, pushed to the
/// server so operators can read it back through the `metrics` request.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct StreamStatusReport {
    /// Windows processed so far.
    pub windows: u64,
    /// BGP UPDATE messages parsed across all windows.
    pub updates_total: u64,
    /// Dirty prefixes accumulated across all windows.
    pub dirty_prefixes_total: u64,
    /// Model epochs successfully swapped into the server.
    pub swaps: u64,
    /// Epoch swaps the server rejected (the old model kept serving).
    pub swaps_rejected: u64,
    /// Windows trained on the incremental fast path.
    pub incremental_windows: u64,
    /// Windows that fell back to a full retrain.
    pub full_retrain_windows: u64,
    /// Whether the update source is exhausted (replay finished or the
    /// follow-mode tail went idle past its timeout).
    pub source_done: bool,
    /// Serve-tier outages the pipeline rode out: windows whose swap (or
    /// status publication) hit a transport failure while the pipeline
    /// kept training and persisting epochs locally.
    #[serde(default)]
    pub serve_outages: u64,
    /// Swaps that healed an outage: the first successful reload after
    /// one or more transport failures, pushing only the newest persisted
    /// epoch (so the served model matches an uninterrupted run).
    #[serde(default)]
    pub catch_up_swaps: u64,
    /// Transient ingest faults retried successfully (reads that failed
    /// with a retryable error and then recovered in follow mode).
    #[serde(default)]
    pub ingest_retries: u64,
    /// The most recently completed window, if any.
    pub last_window: Option<StreamWindowReport>,
}

/// All server counters.
#[derive(Default)]
pub struct ServeMetrics {
    per_kind: [LatencyHistogram; 9],
    connections: AtomicU64,
    panics_caught: AtomicU64,
    shed: AtomicU64,
    deadline_exceeded: AtomicU64,
    reloads: AtomicU64,
    reload_failures: AtomicU64,
}

impl ServeMetrics {
    /// Creates zeroed metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one handled request of `kind` taking `us` microseconds.
    pub fn record(&self, kind: RequestKind, us: u64) {
        self.per_kind[kind.index()].record(us);
    }

    /// Records one accepted connection.
    pub fn connection_opened(&self) {
        self.connections.fetch_add(1, Ordering::Relaxed);
    }

    /// Total connections accepted so far.
    pub fn connections(&self) -> u64 {
        self.connections.load(Ordering::Relaxed)
    }

    /// Records one connection-handler panic that was caught and contained
    /// (the worker survived).
    pub fn panic_caught(&self) {
        self.panics_caught.fetch_add(1, Ordering::Relaxed);
    }

    /// Connection-handler panics caught so far.
    pub fn panics_caught(&self) -> u64 {
        self.panics_caught.load(Ordering::Relaxed)
    }

    /// Records one connection shed at the accept loop because the pending
    /// queue was full (the peer got an `overloaded` reply and was closed).
    pub fn connection_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
    }

    /// Connections shed under overload so far.
    pub fn sheds(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// Records one request cut short by the per-request compute deadline.
    pub fn deadline_exceeded(&self) {
        self.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
    }

    /// Requests answered with `deadline_exceeded` so far.
    pub fn deadlines_exceeded(&self) -> u64 {
        self.deadline_exceeded.load(Ordering::Relaxed)
    }

    /// Records one successful model hot-swap.
    pub fn reload_ok(&self) {
        self.reloads.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one rejected reload (the old model kept serving).
    pub fn reload_failed(&self) {
        self.reload_failures.fetch_add(1, Ordering::Relaxed);
    }

    /// Successful model reloads so far.
    pub fn reloads(&self) -> u64 {
        self.reloads.load(Ordering::Relaxed)
    }

    /// Rejected reloads so far.
    pub fn reload_failures(&self) -> u64 {
        self.reload_failures.load(Ordering::Relaxed)
    }

    /// Requests served of one kind.
    pub fn count(&self, kind: RequestKind) -> u64 {
        self.per_kind[kind.index()].snapshot().count
    }

    /// Builds the full snapshot served by the `metrics` request.
    pub fn snapshot(
        &self,
        base_cache: CacheSnapshot,
        overlay_cache: CacheSnapshot,
        active_sessions: usize,
        stream: Option<StreamStatusReport>,
    ) -> MetricsSnapshot {
        MetricsSnapshot {
            requests: RequestKind::ALL
                .iter()
                .map(|k| (k.as_str().to_string(), self.per_kind[k.index()].snapshot()))
                .collect(),
            connections: self.connections(),
            panics_caught: self.panics_caught(),
            shed: self.sheds(),
            deadline_exceeded: self.deadlines_exceeded(),
            reloads: self.reloads(),
            reload_failures: self.reload_failures(),
            base_cache,
            overlay_cache,
            active_sessions,
            stream,
            stream_age_ms: None,
            generation: 0,
            shards: Vec::new(),
        }
    }
}

/// Per-shard counters as served in the `metrics` reply of a sharded
/// server. Each shard owns a contiguous slice of the prefix space with
/// its own epoch and caches, so these are genuinely independent tallies,
/// not a partition of the totals recomputed after the fact.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ShardSnapshot {
    /// Shard index (0-based, ascending prefix ranges).
    pub shard: usize,
    /// Prefixes of the current model owned by this shard's slice.
    pub prefixes: usize,
    /// Requests dispatched to this shard.
    pub requests: u64,
    /// Requests answered with an `error` reply by this shard.
    pub errors: u64,
    /// Dispatch panics caught and contained on this shard (each failed
    /// one request for this slice; other shards kept serving).
    pub panics_caught: u64,
    /// Requests on this shard answered with `deadline_exceeded`.
    pub deadline_exceeded: u64,
    /// Swap generation of this shard's epoch. Outside of an in-flight
    /// coordinated swap, all shards report the same value.
    pub generation: u64,
    /// This shard's private steady-state cache counters.
    pub base_cache: CacheSnapshot,
    /// This shard's aggregated overlay-cache counters.
    pub overlay_cache: CacheSnapshot,
    /// What-if sessions resident on this shard.
    pub active_sessions: usize,
}

/// The `metrics` response payload.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Per-request-type latency histograms (`predict`, `diff`, `explain`,
    /// `stats`, `metrics`, `reload`, `shutdown`, `stream_report`,
    /// `error`).
    pub requests: Vec<(String, LatencySnapshot)>,
    /// Connections accepted since startup.
    pub connections: u64,
    /// Connection-handler panics caught and contained since startup
    /// (each one ended a single connection, never a worker).
    pub panics_caught: u64,
    /// Connections shed at the accept loop because the pending queue was
    /// full (each got an `overloaded` reply, not a hang).
    pub shed: u64,
    /// Requests answered with `deadline_exceeded` because they blew the
    /// per-request compute budget.
    pub deadline_exceeded: u64,
    /// Successful model hot-swaps (`reload` requests that took effect).
    pub reloads: u64,
    /// Rejected reloads — the proposed model failed validation and the
    /// old model kept serving.
    pub reload_failures: u64,
    /// Base steady-state cache counters.
    pub base_cache: CacheSnapshot,
    /// Aggregated overlay-cache counters over resident sessions.
    pub overlay_cache: CacheSnapshot,
    /// Resident what-if sessions.
    pub active_sessions: usize,
    /// Latest streaming-pipeline status, if a `quasar stream` process has
    /// reported one (absent on servers that never received a report).
    #[serde(default)]
    pub stream: Option<StreamStatusReport>,
    /// Milliseconds since `stream` was received: the staleness of the
    /// pipeline's heartbeat, not of the data inside it. `Some` exactly
    /// when `stream` is.
    pub stream_age_ms: Option<u64>,
    /// Swap generation of the serving epoch (0 at process start, +1 per
    /// successful reload): the fleet-wide generation — one value across
    /// all shards, by construction of the coordinated swap.
    #[serde(default)]
    pub generation: u64,
    /// Per-shard counters, one entry per shard (a single entry on a
    /// 1-shard server).
    pub shards: Vec<ShardSnapshot>,
}

impl MetricsSnapshot {
    /// The latency snapshot of one request kind, if present.
    pub fn for_kind(&self, kind: &str) -> Option<&LatencySnapshot> {
        self.requests
            .iter()
            .find(|(k, _)| k == kind)
            .map(|(_, s)| s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_percentiles() {
        let h = LatencyHistogram::default();
        for us in [5, 50, 50, 500, 5_000, 50_000] {
            h.record(us);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 6);
        assert_eq!(s.total_us, 55_555 + 50);
        // Bucket counts: <10 → 1, <100 → 2, <1k → 1, <10k → 1, <100k → 1.
        assert_eq!(s.buckets[0].1, 1);
        assert_eq!(s.buckets[1].1, 2);
        assert_eq!(s.p50_us, 100); // 3rd of 6 samples falls in the <100µs bucket
        assert_eq!(s.p99_us, 100_000);
    }

    #[test]
    fn empty_histogram_is_zeroed() {
        let s = LatencyHistogram::default().snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.p50_us, 0);
        assert_eq!(s.p99_us, 0);
        assert_eq!(s.mean_us, 0.0);
    }

    #[test]
    fn metrics_snapshot_reports_all_kinds() {
        let m = ServeMetrics::new();
        m.record(RequestKind::Predict, 42);
        m.record(RequestKind::Predict, 43);
        m.record(RequestKind::Diff, 1_000_000);
        m.connection_opened();
        let s = m.snapshot(CacheSnapshot::default(), CacheSnapshot::default(), 3, None);
        assert_eq!(s.requests.len(), 9);
        assert_eq!(s.for_kind("predict").unwrap().count, 2);
        assert_eq!(s.for_kind("diff").unwrap().count, 1);
        assert_eq!(s.for_kind("explain").unwrap().count, 0);
        assert_eq!(s.for_kind("stream_report").unwrap().count, 0);
        assert!(s.for_kind("health").is_none());
        assert_eq!(s.connections, 1);
        assert_eq!(s.active_sessions, 3);
        assert!(s.stream.is_none());
    }

    #[test]
    fn stream_status_rides_along_in_the_snapshot() {
        let m = ServeMetrics::new();
        m.record(RequestKind::StreamReport, 17);
        let report = StreamStatusReport {
            windows: 3,
            updates_total: 120,
            dirty_prefixes_total: 14,
            swaps: 3,
            swaps_rejected: 1,
            incremental_windows: 2,
            full_retrain_windows: 1,
            source_done: false,
            serve_outages: 1,
            catch_up_swaps: 1,
            ingest_retries: 0,
            last_window: Some(StreamWindowReport {
                seq: 2,
                updates: 40,
                announcements: 30,
                withdrawals: 10,
                dirty_prefixes: 5,
                mode: "incremental".into(),
                refine_ms: 250,
                swap_ms: 12,
                updates_per_sec: 160.0,
            }),
        };
        let s = m.snapshot(
            CacheSnapshot::default(),
            CacheSnapshot::default(),
            0,
            Some(report.clone()),
        );
        assert_eq!(s.for_kind("stream_report").unwrap().count, 1);
        assert_eq!(s.stream, Some(report));
        // The snapshot (stream field included) survives the wire format,
        // and a pre-streaming snapshot without the field still parses.
        let json = serde_json::to_string(&s).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
        let old = serde_json::to_string(&m.snapshot(
            CacheSnapshot::default(),
            CacheSnapshot::default(),
            0,
            None,
        ))
        .unwrap();
        // A snapshot from a server predating streaming has no `stream`
        // key at all; `#[serde(default)]` must cover both shapes.
        let without_field = old.replace(",\"stream\":null", "");
        for json in [old, without_field] {
            let parsed: MetricsSnapshot = serde_json::from_str(&json).unwrap();
            assert!(parsed.stream.is_none(), "{json}");
        }
    }

    #[test]
    fn overflow_bucket_catches_slow_requests() {
        let h = LatencyHistogram::default();
        h.record(u64::MAX / 2);
        let s = h.snapshot();
        assert_eq!(s.buckets.last().unwrap().0, u64::MAX);
        assert_eq!(s.buckets.last().unwrap().1, 1);
        assert_eq!(s.p50_us, u64::MAX);
    }
}
