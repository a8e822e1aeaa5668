//! The serve state: N shards, each owning a contiguous run of the
//! model's *sorted prefix list* with a *private* [`ModelEpoch`] (its own
//! steady-state cache and session store), behind a front dispatcher that
//! routes single-prefix requests to the owner and fans multi-prefix
//! requests out, merging replies in ascending prefix order. A plain
//! server is the 1-shard fleet.
//!
//! Why sharding helps: per-prefix simulation is independent and
//! deterministic (DESIGN.md §7), so the only cross-request coupling on
//! one shard is *infrastructure* — one epoch `RwLock` and one cache map
//! shared by every worker. Giving each shard its own epoch and caches
//! removes that coupling entirely: two requests for prefixes in
//! different shards touch disjoint locks end to end, so the query path
//! has zero cross-shard synchronization.
//!
//! The [`ShardMap`] partitions by *rank*, not by raw address: shard k
//! owns the k-th of N nearly-equal runs of the sorted prefix list, so
//! the fleet is balanced (slice sizes differ by at most one) no matter
//! how the address space is laid out — a proportional `base * n >> 32`
//! map would put every synthetic prefix (packed low by
//! `Prefix::for_origin`) on shard 0. Routing is load placement only:
//! every shard holds the full model, so *which* shard answers can never
//! change the bytes of the answer.
//!
//! Determinism of the merge: [`ShardMap::shard_of`] is monotone in the
//! [`Prefix`] ordering (shard k's run sorts entirely below shard
//! k+1's), so concatenating per-shard results in ascending shard order
//! reproduces exactly the globally sorted prefix order one shard
//! iterates in — merged replies are byte-identical by construction,
//! which the testkit's sharding differential suite enforces against a
//! 1-shard fleet.
//!
//! Reload is a two-phase coordinated swap (DESIGN.md §14): the candidate
//! artifact is validated once off-thread, then every shard builds and
//! probes a private candidate epoch (phase 1), and only then are all
//! candidates installed while *every* shard's write lock is held in
//! ascending order (phase 2). A failure at any point rolls every shard
//! back to its old epoch before any lock is released, so a torn
//! generation — some shards serving the new model, some the old — is
//! never observable from outside.
//!
//! Panic containment (DESIGN.md §15): a panic while a shard handles a
//! request is caught and answered as a typed error naming the shard.
//! Simulation is deterministic per (model, prefix) and the shard's
//! epoch and caches are untouched by the unwind, so the shard simply
//! keeps serving; every other shard's replies stay byte-identical.

use crate::cache::CacheSnapshot;
use crate::metrics::{RequestKind, ServeMetrics, ShardSnapshot, StreamStatusReport};
use crate::protocol::{
    diff_reply, stats_reply, DiffReply, ReloadReply, Request, Response, ShutdownReply,
    StreamReportReply,
};
use crate::server::{
    diff_on, explain_on, parse_changes, predict_on, prewarm_epoch, resolve_targets,
    validate_off_thread, Deadline, ModelEpoch, ServeConfig,
};
use crate::session::scenario_key;
use quasar_bgpsim::types::Prefix;
use quasar_core::model::AsRoutingModel;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Hard cap on the shard count: beyond this the per-shard metrics reply
/// dwarfs any useful payload, and no machine this serves on has more
/// cores anyway.
pub const MAX_SHARDS: usize = 1024;

/// The fleet's prefix-to-shard assignment: shard k owns the k-th of N
/// nearly-equal contiguous runs of a model's sorted prefix list.
///
/// `boundaries[k]` is the first prefix owned by shard `k + 1`;
/// [`ShardMap::shard_of`] counts boundaries at or below the query, so
/// it is total over *all* prefixes (an unknown prefix routes to the
/// shard whose run it would sort into — every shard holds the full
/// model, so the unknown-prefix error reply is identical wherever it
/// lands) and monotone in [`Prefix`]'s derived ordering: if `a <= b`
/// then `shard_of(a) <= shard_of(b)`. Monotonicity is the property the
/// dispatcher's deterministic merge rests on; balance (run sizes differ
/// by at most one) is what makes N shards worth having.
#[derive(Debug, Clone)]
pub struct ShardMap {
    shards: usize,
    boundaries: Vec<Prefix>,
}

impl ShardMap {
    /// The balanced map for `shards` shards over a model's prefix set.
    pub fn build(model: &AsRoutingModel, shards: usize) -> Self {
        let prefixes: Vec<Prefix> = model.prefixes().keys().copied().collect();
        Self::from_sorted(&prefixes, shards)
    }

    /// The balanced map over an already-sorted prefix list: run k starts
    /// at index `k * len / shards`, so sizes differ by at most one and
    /// shards beyond the prefix count own empty runs.
    pub fn from_sorted(sorted: &[Prefix], shards: usize) -> Self {
        let shards = shards.clamp(1, MAX_SHARDS);
        debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
        let boundaries = (1..shards)
            .filter_map(|k| sorted.get(k * sorted.len() / shards).copied())
            .collect();
        ShardMap { shards, boundaries }
    }

    /// Number of shards this map routes across.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard owning `prefix` (total and monotone, see the type doc).
    pub fn shard_of(&self, prefix: Prefix) -> usize {
        self.boundaries.partition_point(|b| *b <= prefix)
    }
}

/// One shard: a private epoch slot plus its request tallies. The epoch
/// lock is only ever contended by requests for this shard's slice and
/// by the coordinated swap.
struct Shard {
    epoch: parking_lot::RwLock<Arc<ModelEpoch>>,
    requests: AtomicU64,
    errors: AtomicU64,
    panics: AtomicU64,
    deadline_exceeded: AtomicU64,
}

impl Shard {
    fn new(epoch: ModelEpoch) -> Self {
        Shard {
            epoch: parking_lot::RwLock::new(Arc::new(epoch)),
            requests: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            deadline_exceeded: AtomicU64::new(0),
        }
    }
}

/// Everything the workers of [`crate::server::serve`] share: the shard
/// fleet, the metrics, the last stream report, and the shutdown flag.
/// Replies are byte-identical at every shard count.
pub struct ShardedState {
    config: ServeConfig,
    shards: Vec<Shard>,
    /// The current prefix-to-shard assignment, rebuilt on every
    /// accepted reload (the prefix set may change) and installed while
    /// the swap still holds every shard's write lock. Readers clone the
    /// `Arc` and drop the guard immediately, so a request racing a swap
    /// may route with the outgoing map — harmless, since every shard
    /// serves the full model and routing is load placement only.
    map: parking_lot::RwLock<Arc<ShardMap>>,
    metrics: ServeMetrics,
    /// Serializes coordinated swaps: two interleaved two-phase swaps
    /// would race on the generation number.
    reload_lock: parking_lot::Mutex<()>,
    /// The latest accepted stream report plus its wall-clock receipt
    /// time, so `metrics` can report the heartbeat's age (lag).
    stream_report: parking_lot::Mutex<Option<(StreamStatusReport, Instant)>>,
    shutdown: AtomicBool,
}

impl ShardedState {
    /// Wraps a trained model in `shards` shards (clamped to
    /// `1..=`[`MAX_SHARDS`]). The model is loaded once and shared; each
    /// shard gets private caches and a private session store.
    pub fn new(model: AsRoutingModel, config: ServeConfig, shards: usize) -> Self {
        let shards = shards.clamp(1, MAX_SHARDS);
        let map = ShardMap::build(&model, shards);
        let model = Arc::new(model);
        ShardedState {
            config,
            shards: (0..shards)
                .map(|_| {
                    Shard::new(ModelEpoch::shared(
                        Arc::clone(&model),
                        config.max_sessions,
                        0,
                    ))
                })
                .collect(),
            map: parking_lot::RwLock::new(Arc::new(map)),
            metrics: ServeMetrics::new(),
            reload_lock: parking_lot::Mutex::new(()),
            stream_report: parking_lot::Mutex::new(None),
            shutdown: AtomicBool::new(false),
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Pins one shard's current epoch.
    pub fn epoch_of(&self, shard: usize) -> Arc<ModelEpoch> {
        Arc::clone(&self.shards[shard].epoch.read())
    }

    /// Pins the current prefix-to-shard map (the guard is dropped
    /// before any epoch lock is taken, so map and epoch locks never
    /// nest).
    pub fn pin_map(&self) -> Arc<ShardMap> {
        Arc::clone(&self.map.read())
    }

    /// The shard currently owning `prefix`.
    pub fn owner_of(&self, prefix: Prefix) -> usize {
        self.pin_map().shard_of(prefix)
    }

    /// The fleet-wide swap generation (shard 0's — outside an in-flight
    /// swap every shard agrees, and the swap holds all write locks, so
    /// no reader can observe disagreement).
    pub fn generation(&self) -> u64 {
        self.epoch_of(0).generation
    }

    /// The server configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// The server metrics.
    pub fn metrics(&self) -> &ServeMetrics {
        &self.metrics
    }

    /// True once a `shutdown` request has been accepted.
    pub fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Flips the shutdown flag (idempotent).
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Simulates every shard's owned prefixes into that shard's private
    /// cache, in parallel across shards, so the first real query after
    /// the listener opens is a hit everywhere. Returns the total number
    /// of (shard, prefix) entries warmed.
    pub fn prewarm(&self) -> usize {
        let map = self.pin_map();
        let epochs = self.pin_fleet();
        std::thread::scope(|scope| {
            let handles: Vec<_> = epochs
                .iter()
                .enumerate()
                .map(|(id, epoch)| {
                    let map = &map;
                    scope.spawn(move || prewarm_epoch(epoch, |p| map.shard_of(p) == id))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap_or(0)).sum()
        })
    }

    /// Takes an atomic snapshot of every shard's epoch: read locks are
    /// acquired in ascending shard order — the same order the swap takes
    /// its write locks, so this can never deadlock against it — and
    /// because the swap publishes all shards under all write locks, the
    /// snapshot is either entirely pre-swap or entirely post-swap.
    fn pin_fleet(&self) -> Vec<Arc<ModelEpoch>> {
        let guards: Vec<_> = self.shards.iter().map(|s| s.epoch.read()).collect();
        guards.iter().map(|g| Arc::clone(g)).collect()
    }

    /// Parses one request line, dispatches it, and records latency
    /// metrics. Malformed lines and failed requests are tallied under the
    /// `error` kind; deadline-exceeded replies are tallied under the
    /// request's own kind plus the dedicated `deadline_exceeded` counter.
    pub fn handle_line(&self, line: &str) -> Response {
        let start = Instant::now();
        // Failpoint: injects a dispatch-level fault (error reply, stall,
        // or panic — the panic is caught by the worker's unwind guard).
        // An injected delay lands before the deadline check, so it also
        // drives `deadline_exceeded` tests.
        #[cfg(feature = "testkit")]
        if quasar_bgpsim::fail::inject("serve.handle_line") {
            let resp = Response::error("injected fault (failpoint serve.handle_line)");
            self.metrics
                .record(RequestKind::Error, start.elapsed().as_micros() as u64);
            return resp;
        }
        let deadline = (self.config.deadline_ms > 0).then(|| Deadline {
            start,
            limit: Duration::from_millis(self.config.deadline_ms),
        });
        let (kind, response) = match serde_json::from_str::<Request>(line.trim()) {
            Ok(req) => {
                let resp = self.dispatch_bounded(&req, deadline.as_ref());
                let kind = if matches!(resp, Response::Error(_)) {
                    RequestKind::Error
                } else {
                    req.kind()
                };
                if matches!(resp, Response::DeadlineExceeded(_)) {
                    self.metrics.deadline_exceeded();
                }
                (kind, resp)
            }
            Err(e) => (
                RequestKind::Error,
                Response::error(format!("bad request: {e}")),
            ),
        };
        self.metrics
            .record(kind, start.elapsed().as_micros() as u64);
        response
    }

    /// Dispatches one parsed request with no compute deadline.
    pub fn dispatch(&self, req: &Request) -> Response {
        self.dispatch_bounded(req, None)
    }

    fn dispatch_bounded(&self, req: &Request, deadline: Option<&Deadline>) -> Response {
        if let Some(resp) = deadline.and_then(Deadline::exceeded) {
            return resp;
        }
        match req {
            Request::Predict {
                prefix,
                observer,
                observed_path,
            } => self.on_owner(prefix, |epoch| {
                predict_on(epoch, prefix, *observer, observed_path.as_deref(), deadline)
            }),
            Request::Explain { prefix, observer } => self.on_owner(prefix, |epoch| {
                explain_on(epoch, prefix, *observer, deadline)
            }),
            Request::Diff { changes, prefixes } => {
                self.do_diff(changes, prefixes.as_deref(), deadline)
            }
            Request::Stats => Response::Stats(stats_reply(&self.epoch_of(0).model)),
            Request::Metrics => self.do_metrics(),
            Request::Reload { path } => self.do_reload(path),
            Request::StreamReport { report } => {
                let windows = report.windows;
                *self.stream_report.lock() = Some((report.clone(), Instant::now()));
                Response::StreamReport(StreamReportReply {
                    accepted: true,
                    windows,
                })
            }
            Request::Shutdown => {
                self.request_shutdown();
                Response::Shutdown(ShutdownReply { draining: true })
            }
        }
    }

    /// Routes a single-prefix request to the shard owning it. A prefix
    /// that does not parse cannot be routed; it gets exactly the parse
    /// error the epoch-level lookup would have produced, keeping error
    /// replies byte-identical at every shard count.
    fn on_owner<F>(&self, prefix: &str, f: F) -> Response
    where
        F: FnOnce(&ModelEpoch) -> Response,
    {
        let shard = match prefix.parse::<Prefix>() {
            Ok(p) => self.owner_of(p),
            Err(e) => return Response::error(e),
        };
        let epoch = self.epoch_of(shard);
        self.run_on_shard(shard, || f(&epoch))
    }

    /// Runs one unit of shard work under a panic guard, tallying the
    /// shard's counters. A panic is contained to this one request: it
    /// becomes a typed error naming the shard, the shard's epoch and
    /// caches are untouched (the epoch is immutable; cache slots are
    /// poison-recovering), and every other shard keeps answering.
    fn run_on_shard<F>(&self, id: usize, f: F) -> Response
    where
        F: FnOnce() -> Response,
    {
        let shard = &self.shards[id];
        shard.requests.fetch_add(1, Ordering::Relaxed);
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            // Failpoint: `serve.shard.panic.<id>` kills exactly this
            // shard's dispatch — the blast-radius the crash-recovery
            // suite measures.
            #[cfg(feature = "testkit")]
            let _ = quasar_bgpsim::fail::inject(&format!("serve.shard.panic.{id}"));
            f()
        }));
        let resp = match outcome {
            Ok(resp) => resp,
            Err(_) => {
                self.metrics.panic_caught();
                shard.panics.fetch_add(1, Ordering::Relaxed);
                Response::error(format!(
                    "shard {id} panicked handling this request; its slice failed this \
                     once, other shards keep serving"
                ))
            }
        };
        match &resp {
            Response::Error(_) => {
                shard.errors.fetch_add(1, Ordering::Relaxed);
            }
            Response::DeadlineExceeded(_) => {
                shard.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
            }
            _ => {}
        }
        resp
    }

    /// A `diff` fanned out over the shards owning its targets, merged in
    /// ascending shard order. Validation order is the same at every shard
    /// count: change specs first (first error wins), then
    /// explicit prefixes in the order given — so every error reply is
    /// byte-identical. Because shard slices are contiguous and ascending,
    /// the first failing prefix overall lives in the first failing shard,
    /// and first-error-wins composes across the fan-out too.
    fn do_diff(
        &self,
        specs: &[crate::protocol::ChangeSpec],
        prefixes: Option<&[String]>,
        deadline: Option<&Deadline>,
    ) -> Response {
        let changes = match parse_changes(specs) {
            Ok(c) => c,
            Err(e) => return e,
        };
        let map = self.pin_map();
        let epochs = self.pin_fleet();
        let targets = match resolve_targets(&epochs[0], prefixes) {
            Ok(t) => t,
            Err(e) => return e,
        };
        let mut per_shard: Vec<Vec<Prefix>> = vec![Vec::new(); self.shards.len()];
        for p in targets {
            per_shard[map.shard_of(p)].push(p);
        }
        // An explicitly empty target list still creates the scenario
        // session (on shard 0) and answers its header.
        if per_shard.iter().all(|t| t.is_empty()) {
            let changes = &changes;
            return self.run_on_shard(0, || diff_on(&epochs[0], changes, &[], deadline));
        }
        let mut merged: Option<DiffReply> = None;
        for (id, targets) in per_shard.iter().enumerate() {
            if targets.is_empty() {
                continue;
            }
            let changes = &changes;
            let epoch = &epochs[id];
            match self.run_on_shard(id, || diff_on(epoch, changes, targets, deadline)) {
                Response::Diff(part) => {
                    merged = Some(match merged.take() {
                        None => part,
                        Some(acc) => merge_diff(acc, part),
                    });
                }
                other => return other,
            }
        }
        match merged {
            Some(reply) => Response::Diff(reply),
            // Unreachable (the empty case returned above), kept as a
            // typed answer rather than a panic path.
            None => Response::Diff(diff_reply(
                scenario_key(&changes),
                changes.len(),
                &Default::default(),
            )),
        }
    }

    /// The `metrics` reply: front-end totals, cache counters summed over
    /// the fleet snapshot, the last stream report with its age, the
    /// fleet generation, and one [`ShardSnapshot`] per shard.
    fn do_metrics(&self) -> Response {
        let map = self.pin_map();
        let epochs = self.pin_fleet();
        let mut base = CacheSnapshot::default();
        let mut overlay = CacheSnapshot::default();
        let mut sessions = 0usize;
        for e in &epochs {
            add_cache(&mut base, e.base_cache.snapshot());
            add_cache(&mut overlay, e.sessions.overlay_snapshot());
            sessions += e.sessions.len();
        }
        let (stream, stream_age_ms) = match &*self.stream_report.lock() {
            Some((r, at)) => (Some(r.clone()), Some(at.elapsed().as_millis() as u64)),
            None => (None, None),
        };
        let mut snap = self.metrics.snapshot(base, overlay, sessions, stream);
        snap.stream_age_ms = stream_age_ms;
        snap.generation = epochs[0].generation;
        snap.shards = self
            .shards
            .iter()
            .zip(&epochs)
            .enumerate()
            .map(|(id, (shard, epoch))| ShardSnapshot {
                shard: id,
                prefixes: epoch
                    .model
                    .prefixes()
                    .keys()
                    .filter(|&&p| map.shard_of(p) == id)
                    .count(),
                requests: shard.requests.load(Ordering::Relaxed),
                errors: shard.errors.load(Ordering::Relaxed),
                panics_caught: shard.panics.load(Ordering::Relaxed),
                deadline_exceeded: shard.deadline_exceeded.load(Ordering::Relaxed),
                generation: epoch.generation,
                base_cache: epoch.base_cache.snapshot(),
                overlay_cache: epoch.sessions.overlay_snapshot(),
                active_sessions: epoch.sessions.len(),
            })
            .collect();
        Response::Metrics(Box::new(snap))
    }

    /// The coordinated two-phase swap. Phase 0 validates the artifact
    /// once (decode + static audit + simulation probe, off-thread).
    /// Phase 1 builds a private candidate epoch per shard and probes the
    /// first prefix of that shard's slice through the candidate's own
    /// cache (doubling as a one-entry pre-warm). Phase 2 installs every
    /// candidate while holding *all* shard write locks in ascending
    /// order; any failure rolls already-swapped shards back before a
    /// single lock is released. All shards swap or none do.
    fn do_reload(&self, path: &str) -> Response {
        let _serialized = self.reload_lock.lock();
        let model = match validate_off_thread(path) {
            Ok(m) => m,
            Err(msg) => {
                return self.reject_reload(format!("reload rejected; keeping current model: {msg}"))
            }
        };
        let stats = model.stats();
        let prefixes = model.prefixes().len();
        // The candidate's prefix set may differ from the serving one, so
        // the swap carries its own rebalanced map.
        let map = Arc::new(ShardMap::build(&model, self.shards.len()));
        let model = Arc::new(model);
        let n = self.shards.len();
        let generation = self.generation() + 1;

        // Phase 1: per-shard candidates, each probed on its own slice.
        let mut candidates: Vec<Arc<ModelEpoch>> = Vec::with_capacity(n);
        for id in 0..n {
            // Failpoint: a per-shard validation failure (`atN:error`
            // fails the N-th shard) must abort the whole fleet's swap.
            #[cfg(feature = "testkit")]
            if quasar_bgpsim::fail::inject("serve.shard.validate") {
                return self.reject_reload(format!(
                    "reload rejected; keeping current model: shard {id} failed \
                     validation (injected)"
                ));
            }
            let epoch =
                ModelEpoch::shared(Arc::clone(&model), self.config.max_sessions, generation);
            let probe = model
                .prefixes()
                .keys()
                .copied()
                .find(|&p| map.shard_of(p) == id);
            if let Some(p) = probe {
                if let Err(e) = epoch.base_cache.get_or_simulate(&epoch.model, p) {
                    return self.reject_reload(format!(
                        "reload rejected; keeping current model: shard {id} failed \
                         validation probe on {p}: {e}"
                    ));
                }
            }
            candidates.push(Arc::new(epoch));
        }

        // Phase 2: install under every write lock, ascending — the same
        // order readers pin the fleet in, so no deadlock. A mid-loop
        // failure restores shards 0..id before any lock drops; readers
        // can never see a mix of generations.
        let mut guards: Vec<_> = self.shards.iter().map(|s| s.epoch.write()).collect();
        // The only swap-failure path is the injected one below, so the
        // rollback snapshot is only needed under the testkit feature.
        #[cfg(feature = "testkit")]
        let old: Vec<Arc<ModelEpoch>> = guards.iter().map(|g| Arc::clone(g)).collect();
        for (id, candidate) in candidates.into_iter().enumerate() {
            // Failpoint: a swap failure after some shards already took
            // the new epoch — the rollback regression case.
            #[cfg(feature = "testkit")]
            if quasar_bgpsim::fail::inject("serve.shard.swap") {
                for (guard, previous) in guards.iter_mut().take(id).zip(&old) {
                    **guard = Arc::clone(previous);
                }
                drop(guards);
                return self.reject_reload(format!(
                    "reload rejected; keeping current model: shard {id} failed to \
                     swap (all shards rolled back)"
                ));
            }
            *guards[id] = candidate;
        }
        // Publish the rebalanced map while every epoch write lock is
        // still held: a failed swap above returns first, so the old map
        // stays with the old epochs. (Readers never hold the map lock
        // while taking an epoch lock, so this nesting cannot deadlock.)
        *self.map.write() = map;
        drop(guards);
        self.metrics.reload_ok();
        Response::Reload(ReloadReply {
            swapped: true,
            prefixes,
            quasi_routers: stats.quasi_routers,
            generation,
        })
    }

    fn reject_reload(&self, message: String) -> Response {
        self.metrics.reload_failed();
        Response::error(message)
    }
}

/// Merges two per-shard diff replies covering disjoint target ranges,
/// left range strictly below the right. Scalar tallies add; the impact
/// lists concatenate, staying in global prefix order because every
/// prefix on the left sorts below every prefix on the right.
fn merge_diff(mut acc: DiffReply, part: DiffReply) -> DiffReply {
    debug_assert_eq!(acc.scenario, part.scenario);
    acc.pairs += part.pairs;
    acc.unchanged += part.unchanged;
    acc.rerouted += part.rerouted;
    acc.lost += part.lost;
    acc.gained += part.gained;
    acc.diverged_prefixes += part.diverged_prefixes;
    acc.impacts.extend(part.impacts);
    acc
}

fn add_cache(acc: &mut CacheSnapshot, s: CacheSnapshot) {
    acc.entries += s.entries;
    acc.hits += s.hits;
    acc.misses += s.misses;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{explain_reply, predict_reply, ChangeSpec};
    use quasar_bgpsim::aspath::AsPath;
    use quasar_bgpsim::types::Asn;
    use quasar_core::whatif::{Change, Scenario};
    use quasar_topology::graph::AsGraph;
    use std::collections::BTreeMap;

    fn model() -> AsRoutingModel {
        let paths = vec![
            AsPath::from_u32s(&[1, 2, 3]),
            AsPath::from_u32s(&[1, 4, 3]),
            AsPath::from_u32s(&[5, 4, 3]),
        ];
        let graph = AsGraph::from_paths(&paths);
        let mut origins = BTreeMap::new();
        origins.insert(Prefix::for_origin(Asn(3)), Asn(3));
        origins.insert(Prefix::for_origin(Asn(2)), Asn(2));
        AsRoutingModel::initial(&graph, &origins)
    }

    fn one_shard() -> ShardedState {
        ShardedState::new(model(), ServeConfig::default(), 1)
    }

    fn requests() -> Vec<String> {
        let p3 = Prefix::for_origin(Asn(3)).to_string();
        let p2 = Prefix::for_origin(Asn(2)).to_string();
        vec![
            format!(r#"{{"type":"predict","prefix":"{p3}","observer":1}}"#),
            format!(r#"{{"type":"predict","prefix":"{p2}","observer":5}}"#),
            format!(r#"{{"type":"explain","prefix":"{p3}","observer":4}}"#),
            r#"{"type":"stats"}"#.to_string(),
            r#"{"type":"diff","changes":[{"action":"depeer","a":2,"b":3}]}"#.to_string(),
            format!(
                r#"{{"type":"diff","changes":[{{"action":"depeer","a":2,"b":3}}],"prefixes":["{p3}","{p2}","{p3}"]}}"#
            ),
            r#"{"type":"diff","changes":[{"action":"depeer","a":2,"b":3}],"prefixes":[]}"#
                .to_string(),
            r#"{"type":"diff","changes":[]}"#.to_string(),
            format!(r#"{{"type":"predict","prefix":"{p3}","observer":99}}"#),
            r#"{"type":"predict","prefix":"192.0.2.0/24","observer":1}"#.to_string(),
            r#"{"type":"predict","prefix":"nonsense","observer":1}"#.to_string(),
            "not json at all".to_string(),
        ]
    }

    #[test]
    fn shard_map_is_balanced_monotone_and_total() {
        // Bases packed low, exactly like `Prefix::for_origin` lays the
        // synthetic address space out — the case a proportional
        // base-space map degenerates on.
        for len in [0usize, 1, 2, 3, 7, 48, 102, 1000] {
            let sorted: Vec<Prefix> = (0..len as u32)
                .map(|i| Prefix {
                    base: (i * 8) << 8,
                    len: 24,
                })
                .collect();
            for n in [1usize, 2, 3, 4, 8, 1024] {
                let map = ShardMap::from_sorted(&sorted, n);
                assert_eq!(map.shards(), n);
                // Monotone and total over owned AND unknown prefixes.
                let mut last = 0usize;
                for base in (0u64..=u32::MAX as u64).step_by(1 << 22) {
                    let s = map.shard_of(Prefix {
                        base: base as u32,
                        len: 24,
                    });
                    assert!(s < n, "shard {s} out of range for {n}");
                    assert!(s >= last, "not monotone at base {base:#x}");
                    last = s;
                }
                // Owned runs are contiguous and balanced within one.
                let owners: Vec<usize> = sorted.iter().map(|&p| map.shard_of(p)).collect();
                assert!(owners.windows(2).all(|w| w[0] <= w[1]));
                let mut counts = vec![0usize; n];
                for &o in &owners {
                    counts[o] += 1;
                }
                let busy: Vec<usize> = counts.iter().copied().filter(|&c| c > 0).collect();
                if let (Some(&max), Some(&min)) = (busy.iter().max(), busy.iter().min()) {
                    assert!(
                        max - min <= 1,
                        "unbalanced: {counts:?} for {len} prefixes over {n} shards"
                    );
                }
                if len >= n {
                    assert!(
                        counts.iter().all(|&c| c > 0),
                        "idle shard with {len} >= {n} prefixes: {counts:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn shard_map_balances_the_packed_toy_model() {
        // The regression the rank map exists for: toy/synthetic prefixes
        // all sit in low address space, and must still spread out.
        let map = ShardMap::build(&model(), 2);
        let owners: Vec<usize> = model()
            .prefixes()
            .keys()
            .map(|&p| map.shard_of(p))
            .collect();
        assert_eq!(owners, vec![0, 1]);
    }

    #[test]
    fn sharded_replies_match_one_shard_byte_for_byte() {
        for shards in [2usize, 4, 8] {
            let plain = one_shard();
            let sharded = ShardedState::new(model(), ServeConfig::default(), shards);
            for req in requests() {
                let expected = serde_json::to_string(&plain.handle_line(&req)).unwrap();
                let got = serde_json::to_string(&sharded.handle_line(&req)).unwrap();
                assert_eq!(got, expected, "request {req} diverged at {shards} shards");
            }
        }
    }

    #[test]
    fn query_path_touches_only_the_owning_shard() {
        let s = ShardedState::new(model(), ServeConfig::default(), 4);
        let p3 = Prefix::for_origin(Asn(3));
        let owner = s.owner_of(p3);
        let line = format!(r#"{{"type":"predict","prefix":"{p3}","observer":1}}"#);
        assert!(matches!(s.handle_line(&line), Response::Predict(_)));
        for (id, shard) in s.shards.iter().enumerate() {
            let expected = u64::from(id == owner);
            assert_eq!(shard.requests.load(Ordering::Relaxed), expected);
        }
        // Only the owner's private cache warmed.
        for id in 0..s.shards() {
            let misses = s.epoch_of(id).base_cache.misses();
            assert_eq!(misses, u64::from(id == owner));
        }
    }

    #[test]
    fn metrics_report_per_shard_and_one_generation() {
        let s = ShardedState::new(model(), ServeConfig::default(), 4);
        let p3 = Prefix::for_origin(Asn(3)).to_string();
        s.handle_line(&format!(
            r#"{{"type":"predict","prefix":"{p3}","observer":1}}"#
        ));
        let Response::Metrics(m) = s.dispatch(&Request::Metrics) else {
            panic!("expected metrics reply");
        };
        assert_eq!(m.generation, 0);
        let shards = &m.shards;
        assert_eq!(shards.len(), 4);
        assert_eq!(shards.iter().map(|s| s.prefixes).sum::<usize>(), 2);
        assert_eq!(shards.iter().map(|s| s.requests).sum::<u64>(), 1);
        assert!(shards.iter().all(|s| s.generation == 0));
        // The summed cache counters match the fleet.
        assert_eq!(m.base_cache.misses, 1);
    }

    #[test]
    fn rejected_reload_keeps_generation_and_model() {
        let s = ShardedState::new(model(), ServeConfig::default(), 3);
        let resp = s.dispatch(&Request::Reload {
            path: "/nonexistent/model.quasar".into(),
        });
        let Response::Error(e) = resp else {
            panic!("expected rejection, got {resp:?}");
        };
        assert!(e.message.contains("reload rejected; keeping current model"));
        assert_eq!(s.generation(), 0);
        assert_eq!(s.metrics().reload_failures(), 1);
        let p3 = Prefix::for_origin(Asn(3)).to_string();
        let line = format!(r#"{{"type":"predict","prefix":"{p3}","observer":1}}"#);
        assert!(matches!(s.handle_line(&line), Response::Predict(_)));
    }

    #[test]
    fn prewarm_fills_every_owning_shard() {
        for shards in [1usize, 4] {
            let s = ShardedState::new(model(), ServeConfig::default(), shards);
            assert_eq!(s.prewarm(), 2);
            let fleet = |f: fn(&ModelEpoch) -> u64| -> u64 {
                (0..s.shards()).map(|id| f(&s.epoch_of(id))).sum()
            };
            assert_eq!(fleet(|e| e.base_cache.snapshot().entries as u64), 2);
            assert_eq!(fleet(|e| e.base_cache.misses()), 2);
            // The prewarmed entry serves the first query as a hit.
            let p3 = Prefix::for_origin(Asn(3));
            let line = format!(r#"{{"type":"predict","prefix":"{p3}","observer":1}}"#);
            assert!(matches!(s.handle_line(&line), Response::Predict(_)));
            let owner = s.owner_of(p3);
            assert_eq!(s.epoch_of(owner).base_cache.hits(), 1);
            assert_eq!(fleet(|e| e.base_cache.misses()), 2);
        }
    }

    #[test]
    fn predict_warms_the_base_cache() {
        let s = one_shard();
        let p = Prefix::for_origin(Asn(3)).to_string();
        let line = format!(r#"{{"type":"predict","prefix":"{p}","observer":1}}"#);
        let first = s.handle_line(&line);
        assert!(matches!(first, Response::Predict(_)), "{first:?}");
        assert_eq!(s.epoch_of(0).base_cache.misses(), 1);
        let second = s.handle_line(&line);
        assert_eq!(first, second);
        assert_eq!(s.epoch_of(0).base_cache.hits(), 1);
        assert_eq!(s.metrics().count(RequestKind::Predict), 2);
    }

    #[test]
    fn unknown_prefix_and_as_are_errors() {
        let s = one_shard();
        let bad_prefix =
            s.handle_line(r#"{"type":"predict","prefix":"192.0.2.0/24","observer":1}"#);
        assert!(matches!(bad_prefix, Response::Error(_)), "{bad_prefix:?}");
        let p = Prefix::for_origin(Asn(3)).to_string();
        let bad_as = s.handle_line(&format!(
            r#"{{"type":"predict","prefix":"{p}","observer":99}}"#
        ));
        assert!(matches!(bad_as, Response::Error(_)), "{bad_as:?}");
        let garbage = s.handle_line("not json at all");
        assert!(matches!(garbage, Response::Error(_)), "{garbage:?}");
        assert_eq!(s.metrics().count(RequestKind::Error), 3);
        assert_eq!(s.metrics().count(RequestKind::Predict), 0);
    }

    #[test]
    fn diff_runs_in_an_overlay_session() {
        let s = one_shard();
        let req = Request::Diff {
            changes: vec![ChangeSpec::Depeer { a: 2, b: 3 }],
            prefixes: None,
        };
        let line = serde_json::to_string(&req).unwrap();
        let resp = s.handle_line(&line);
        let Response::Diff(diff) = resp else {
            panic!("expected diff reply, got {resp:?}");
        };
        assert!(diff.pairs > 0);
        assert_eq!(s.epoch_of(0).sessions.len(), 1);
        // Same scenario again: session (and its overlay cache) is reused.
        let again = s.handle_line(&line);
        let Response::Diff(diff2) = again else {
            panic!("expected diff reply");
        };
        assert_eq!(diff, diff2);
        assert_eq!(s.epoch_of(0).sessions.len(), 1);
        assert!(s.epoch_of(0).sessions.overlay_snapshot().hits > 0);
        // The base cache never saw the scenario model.
        let p = Prefix::for_origin(Asn(3)).to_string();
        let predict = s.handle_line(&format!(
            r#"{{"type":"predict","prefix":"{p}","observer":1}}"#
        ));
        let expected = one_shard().handle_line(&format!(
            r#"{{"type":"predict","prefix":"{p}","observer":1}}"#
        ));
        assert_eq!(predict, expected);
    }

    #[test]
    fn diff_matches_scenario_api() {
        // Reference with no cache, session or dispatch: the core what-if
        // API plus the shared reply builder.
        let s = one_shard();
        let changes = vec![Change::Depeer(Asn(2), Asn(3))];
        let expected = Scenario::new(&model())
            .apply(Change::Depeer(Asn(2), Asn(3)))
            .diff()
            .unwrap();
        let resp = s.dispatch(&Request::Diff {
            changes: vec![ChangeSpec::Depeer { a: 2, b: 3 }],
            prefixes: None,
        });
        let Response::Diff(diff) = resp else {
            panic!("expected diff reply");
        };
        assert_eq!(
            diff,
            diff_reply(crate::session::scenario_key(&changes), 1, &expected)
        );
    }

    #[test]
    fn predict_and_explain_match_core_simulation() {
        // Reference with no cache, session or dispatch: a fresh
        // `simulate` per prefix plus the shared reply builders.
        let s = one_shard();
        let model = model();
        let observed = AsPath::from_u32s(&[1, 4, 3]);
        for &prefix in model.prefixes().keys() {
            let result = model.simulate(prefix).unwrap();
            for observer in [1u32, 4, 5] {
                let routers = model.quasi_routers_of(Asn(observer));
                let p = prefix.to_string();
                let predict = s.dispatch(&Request::Predict {
                    prefix: p.clone(),
                    observer,
                    observed_path: None,
                });
                let expected = predict_reply(&result, &routers, prefix, Asn(observer), None);
                assert_eq!(predict, Response::Predict(expected));
                let with_path = s.dispatch(&Request::Predict {
                    prefix: p.clone(),
                    observer,
                    observed_path: Some(vec![1, 4, 3]),
                });
                let expected =
                    predict_reply(&result, &routers, prefix, Asn(observer), Some(&observed));
                assert_eq!(with_path, Response::Predict(expected));
                let explain = s.dispatch(&Request::Explain {
                    prefix: p,
                    observer,
                });
                let expected = explain_reply(&result, &routers, prefix, Asn(observer));
                assert_eq!(explain, Response::Explain(expected));
            }
        }
    }

    #[test]
    fn stats_metrics_and_shutdown_dispatch() {
        let s = one_shard();
        let Response::Stats(stats) = s.handle_line(r#"{"type":"stats"}"#) else {
            panic!("expected stats reply");
        };
        assert_eq!(stats.ases, 5);
        assert_eq!(stats.prefixes, 2);
        let Response::Metrics(m) = s.handle_line(r#"{"type":"metrics"}"#) else {
            panic!("expected metrics reply");
        };
        assert_eq!(m.for_kind("stats").unwrap().count, 1);
        assert_eq!(m.generation, 0);
        assert_eq!(m.shards.len(), 1);
        assert_eq!(m.shards[0].prefixes, 2);
        assert!(!s.shutting_down());
        let Response::Shutdown(sd) = s.handle_line(r#"{"type":"shutdown"}"#) else {
            panic!("expected shutdown reply");
        };
        assert!(sd.draining);
        assert!(s.shutting_down());
    }

    #[test]
    fn stream_report_is_stored_and_served_back() {
        let s = one_shard();
        // No report yet: metrics carries no stream status.
        let Response::Metrics(m) = s.handle_line(r#"{"type":"metrics"}"#) else {
            panic!("expected metrics reply");
        };
        assert!(m.stream.is_none());
        let report = StreamStatusReport {
            windows: 5,
            updates_total: 200,
            dirty_prefixes_total: 31,
            swaps: 4,
            swaps_rejected: 1,
            incremental_windows: 4,
            full_retrain_windows: 1,
            source_done: false,
            serve_outages: 0,
            catch_up_swaps: 0,
            ingest_retries: 0,
            last_window: None,
        };
        let req = serde_json::to_string(&Request::StreamReport {
            report: report.clone(),
        })
        .unwrap();
        let Response::StreamReport(reply) = s.handle_line(&req) else {
            panic!("expected stream_report reply");
        };
        assert!(reply.accepted);
        assert_eq!(reply.windows, 5);
        let Response::Metrics(m) = s.handle_line(r#"{"type":"metrics"}"#) else {
            panic!("expected metrics reply");
        };
        assert_eq!(m.stream, Some(report));
        assert_eq!(m.for_kind("stream_report").unwrap().count, 1);
        // A newer report replaces the old one wholesale.
        let newer = StreamStatusReport {
            windows: 6,
            source_done: true,
            ..m.stream.unwrap()
        };
        let req = serde_json::to_string(&Request::StreamReport {
            report: newer.clone(),
        })
        .unwrap();
        assert!(matches!(s.handle_line(&req), Response::StreamReport(_)));
        let Response::Metrics(m) = s.handle_line(r#"{"type":"metrics"}"#) else {
            panic!("expected metrics reply");
        };
        assert_eq!(m.stream, Some(newer));
    }

    #[test]
    fn health_reports_a_fresh_fleet_as_healthy() {
        for n in [1usize, 2] {
            let s = ShardedState::new(model(), ServeConfig::default(), n);
            // A fresh fleet: generation 0 everywhere, no panics, and no
            // stream status until a pipeline reports in.
            let Response::Metrics(m) = s.dispatch(&Request::Metrics) else {
                panic!("expected metrics reply");
            };
            assert_eq!(m.generation, 0);
            assert_eq!(m.panics_caught, 0);
            assert_eq!(m.shards.len(), n);
            assert!(m.shards.iter().all(|sh| sh.generation == 0));
            assert!(m.stream.is_none(), "no pipeline has reported in");
            assert!(m.stream_age_ms.is_none());
            // Push a stream report: metrics now carries its counters and age.
            let report = StreamStatusReport {
                windows: 3,
                swaps: 2,
                serve_outages: 1,
                catch_up_swaps: 1,
                ..Default::default()
            };
            let req = serde_json::to_string(&Request::StreamReport { report }).unwrap();
            assert!(matches!(s.handle_line(&req), Response::StreamReport(_)));
            let Response::Metrics(m) = s.handle_line(r#"{"type":"metrics"}"#) else {
                panic!("expected metrics reply");
            };
            let stream = m.stream.expect("stream status after a report");
            assert_eq!(stream.windows, 3);
            assert_eq!(stream.serve_outages, 1);
            assert_eq!(stream.catch_up_swaps, 1);
            assert!(m.stream_age_ms.expect("heartbeat age after a report") < 60_000);
        }
    }

    #[test]
    fn health_is_an_unknown_request_type() {
        let s = one_shard();
        let Response::Error(e) = s.handle_line(r#"{"type": "health"}"#) else {
            panic!("expected an error reply");
        };
        assert!(
            e.message.contains("unknown request type `health`"),
            "{}",
            e.message
        );
    }

    #[test]
    fn diff_merge_concatenates_in_prefix_order() {
        // Whole-model diff across shard boundaries must list impacts in
        // globally sorted prefix order — compare against 1 shard.
        let one = ShardedState::new(model(), ServeConfig::default(), 1);
        let many = ShardedState::new(model(), ServeConfig::default(), 8);
        let req = Request::Diff {
            changes: vec![ChangeSpec::Depeer { a: 2, b: 3 }],
            prefixes: None,
        };
        let (Response::Diff(a), Response::Diff(b)) = (one.dispatch(&req), many.dispatch(&req))
        else {
            panic!("expected diff replies");
        };
        assert_eq!(a, b);
        let prefixes: Vec<&String> = b.impacts.iter().map(|i| &i.prefix).collect();
        let mut sorted = prefixes.clone();
        sorted.sort();
        assert_eq!(prefixes, sorted);
    }
}
