//! The TCP front end and the per-epoch request functions.
//!
//! The model lives in a [`ModelEpoch`] — model + caches + session store,
//! immutable once published — behind an `RwLock<Arc<...>>` per shard of a
//! [`ShardedState`] (a plain server is a 1-shard fleet): every request
//! clones the `Arc` once and runs entirely against that epoch, and a
//! `reload` request publishes fresh epochs atomically (in-flight
//! requests finish on the epoch they started with; a failed validation
//! keeps the old epochs serving). The accept loop runs non-blocking and
//! hands connections to workers through a bounded `Mutex<VecDeque>` +
//! `Condvar` queue; beyond [`ServeConfig::max_pending`] pending
//! connections the acceptor *sheds*: the peer gets one `overloaded` JSON
//! reply and a closed connection instead of an unbounded queue. A
//! `shutdown` request flips one flag, after which the acceptor stops
//! taking connections and every worker finishes its in-flight request,
//! closes its stream, and exits — no thread or port is leaked.
//!
//! Request-level work against one pinned epoch lives in free functions
//! (`predict_on`, `explain_on`, `diff_on`); the shard dispatcher routes
//! to them and merges their replies, and the sharding differential suite
//! proves N shards answer byte-identically to one.

use crate::cache::SteadyStateCache;
use crate::metrics::RequestKind;
use crate::protocol::{
    diff_reply, explain_reply, predict_reply, ChangeSpec, DeadlineExceededReply, OverloadedReply,
    Response,
};
use crate::session::SessionStore;
use crate::shard::ShardedState;
use quasar_bgpsim::aspath::AsPath;
use quasar_bgpsim::error::SimError;
use quasar_bgpsim::types::{Asn, Prefix};
use quasar_core::model::AsRoutingModel;
use quasar_core::whatif::{Change, RoutingDiff};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// How long the acceptor sleeps when no connection is pending, and how
/// long workers wait on the queue before re-checking the shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(20);

/// Per-connection read timeout so idle workers notice a shutdown instead
/// of blocking in `read` forever.
const READ_TIMEOUT: Duration = Duration::from_millis(100);

/// Hard cap on one buffered request line. A client that streams this many
/// bytes without a newline gets one error reply and a closed connection
/// instead of growing the buffer without bound.
pub const MAX_REQUEST_LINE: usize = 1 << 20;

/// Locks a mutex, recovering the data if a previous holder panicked.
/// Every value guarded here (the connection queue, the accept-error slot)
/// stays structurally valid across a panic — a half-handled connection
/// was popped before the handler ran — so continuing with the inner data
/// is safe, and it keeps one panicking worker from cascading into every
/// thread that touches the same lock.
fn lock_recovering<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Server tunables.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Worker threads handling connections.
    pub workers: usize,
    /// Maximum resident what-if sessions (oldest evicted beyond this).
    pub max_sessions: usize,
    /// Maximum pending (accepted but not yet handled) connections before
    /// the acceptor sheds new ones with an `overloaded` reply.
    pub max_pending: usize,
    /// Per-request compute deadline in milliseconds; requests running
    /// longer are answered with `deadline_exceeded`. `0` disables the
    /// deadline.
    pub deadline_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
                .min(16),
            max_sessions: 32,
            max_pending: 128,
            deadline_ms: 0,
        }
    }
}

/// One published generation of served state: the model plus the caches
/// that are only valid for exactly that model. A `reload` swaps the whole
/// epoch, so a cache entry can never outlive the model it was computed
/// from; requests in flight keep the `Arc` of the epoch they started on.
///
/// The model itself sits behind its own `Arc` so a fleet can share one
/// loaded model across N epochs whose *caches* stay private per shard.
pub struct ModelEpoch {
    /// The served model (shared between shards; each shard wraps it in
    /// its own epoch with private caches).
    pub model: Arc<AsRoutingModel>,
    /// Per-prefix steady-state cache for `model`.
    pub base_cache: SteadyStateCache,
    /// What-if session store (overlays on `model`).
    pub sessions: SessionStore,
    /// Swap generation: `0` for the process-start epoch, incremented by
    /// one on every successful reload. Every shard of a fleet
    /// publishes the same generation outside a swap — a torn generation
    /// is exactly the state the coordinated two-phase swap exists to
    /// make unobservable.
    pub generation: u64,
}

impl ModelEpoch {
    /// Wraps an already-shared model with fresh private caches at an
    /// explicit swap generation.
    pub fn shared(model: Arc<AsRoutingModel>, max_sessions: usize, generation: u64) -> Self {
        ModelEpoch {
            model,
            base_cache: SteadyStateCache::new(),
            sessions: SessionStore::with_capacity(max_sessions),
            generation,
        }
    }
}

/// Parses and validates a (prefix, observer) query pair.
// The Err is the ready-to-send error reply, produced at most once per
// request — its size does not matter on this path.
#[allow(clippy::result_large_err)]
fn lookup(epoch: &ModelEpoch, prefix: &str, observer: u32) -> Result<(Prefix, Asn), Response> {
    let prefix: Prefix = prefix.parse().map_err(Response::error)?;
    if !epoch.model.prefixes().contains_key(&prefix) {
        return Err(Response::error(format!("unknown prefix `{prefix}`")));
    }
    let observer = Asn(observer);
    if epoch.model.quasi_routers_of(observer).is_empty() {
        return Err(Response::error(format!("unknown AS `{}`", observer.0)));
    }
    Ok((prefix, observer))
}

// See `lookup` on the Err size.
#[allow(clippy::result_large_err)]
pub(crate) fn lookup_prefix(epoch: &ModelEpoch, prefix: &str) -> Result<Prefix, Response> {
    let prefix: Prefix = prefix.parse().map_err(Response::error)?;
    if !epoch.model.prefixes().contains_key(&prefix) {
        return Err(Response::error(format!("unknown prefix `{prefix}`")));
    }
    Ok(prefix)
}

/// Answers a `predict` request against one pinned epoch.
pub(crate) fn predict_on(
    epoch: &ModelEpoch,
    prefix: &str,
    observer: u32,
    observed: Option<&[u32]>,
    deadline: Option<&Deadline>,
) -> Response {
    let (prefix, observer) = match lookup(epoch, prefix, observer) {
        Ok(pair) => pair,
        Err(e) => return e,
    };
    let result = match epoch.base_cache.get_or_simulate(&epoch.model, prefix) {
        Ok(r) => r,
        Err(e) => return Response::error(format!("simulation failed: {e}")),
    };
    if let Some(resp) = deadline.and_then(Deadline::exceeded) {
        return resp;
    }
    let routers = epoch.model.quasi_routers_of(observer);
    let observed = observed.map(AsPath::from_u32s);
    Response::Predict(predict_reply(
        &result,
        &routers,
        prefix,
        observer,
        observed.as_ref(),
    ))
}

/// Answers an `explain` request against one pinned epoch.
pub(crate) fn explain_on(
    epoch: &ModelEpoch,
    prefix: &str,
    observer: u32,
    deadline: Option<&Deadline>,
) -> Response {
    let (prefix, observer) = match lookup(epoch, prefix, observer) {
        Ok(pair) => pair,
        Err(e) => return e,
    };
    let result = match epoch.base_cache.get_or_simulate(&epoch.model, prefix) {
        Ok(r) => r,
        Err(e) => return Response::error(format!("simulation failed: {e}")),
    };
    if let Some(resp) = deadline.and_then(Deadline::exceeded) {
        return resp;
    }
    let routers = epoch.model.quasi_routers_of(observer);
    Response::Explain(explain_reply(&result, &routers, prefix, observer))
}

/// Validates and converts the wire-level change specs of a `diff`
/// request, first error wins.
#[allow(clippy::result_large_err)]
pub(crate) fn parse_changes(specs: &[ChangeSpec]) -> Result<Vec<Change>, Response> {
    if specs.is_empty() {
        return Err(Response::error("a diff request needs at least one change"));
    }
    let mut changes: Vec<Change> = Vec::with_capacity(specs.len());
    for s in specs {
        match s.to_change() {
            Ok(c) => changes.push(c),
            Err(e) => return Err(Response::error(e)),
        }
    }
    Ok(changes)
}

/// Resolves a `diff` request's target set: every model prefix when the
/// request names none, otherwise the named prefixes validated in the
/// order given (first error wins), then sorted and deduplicated.
#[allow(clippy::result_large_err)]
pub(crate) fn resolve_targets(
    epoch: &ModelEpoch,
    prefixes: Option<&[String]>,
) -> Result<Vec<Prefix>, Response> {
    match prefixes {
        None => Ok(epoch.model.prefixes().keys().copied().collect()),
        Some(list) => {
            let mut out = Vec::with_capacity(list.len());
            for p in list {
                out.push(lookup_prefix(epoch, p)?);
            }
            out.sort();
            out.dedup();
            Ok(out)
        }
    }
}

/// Runs a validated `diff` over sorted targets against one pinned epoch.
/// The caller guarantees `targets` is sorted — the reply's impact list
/// comes out in exactly that order, which is what lets a sharded
/// dispatcher concatenate per-shard replies deterministically.
pub(crate) fn diff_on(
    epoch: &ModelEpoch,
    changes: &[Change],
    targets: &[Prefix],
    deadline: Option<&Deadline>,
) -> Response {
    let session = epoch.sessions.get_or_create(&epoch.model, changes);
    let mut diff = RoutingDiff::default();
    for &prefix in targets {
        // The deadline is checked between prefixes — a whole-model
        // diff is the one request whose work grows with the model,
        // so this is where a bounded reply matters most.
        if let Some(resp) = deadline.and_then(Deadline::exceeded) {
            return resp;
        }
        let before = match epoch.base_cache.get_or_simulate(&epoch.model, prefix) {
            Ok(r) => r,
            Err(e) => return Response::error(format!("simulation failed: {e}")),
        };
        let after = match session.simulate(prefix) {
            Ok(r) => Some(r),
            Err(SimError::Divergence { .. }) => None,
            Err(e) => return Response::error(format!("scenario simulation failed: {e}")),
        };
        diff.record_prefix(prefix, &before, after.as_deref());
    }
    Response::Diff(diff_reply(session.key(), changes.len(), &diff))
}

/// Simulates every model prefix matching `owns` into the epoch's base
/// cache; returns how many were warmed. Simulation failures are left for
/// the first real query to report — prewarming is best-effort by design.
pub(crate) fn prewarm_epoch(epoch: &ModelEpoch, owns: impl Fn(Prefix) -> bool) -> usize {
    let mut warmed = 0;
    for (&prefix, _) in epoch.model.prefixes().iter() {
        if owns(prefix) {
            let _ = epoch.base_cache.get_or_simulate(&epoch.model, prefix);
            warmed += 1;
        }
    }
    warmed
}

/// Loads and validates a candidate model: artifact decode, static audit
/// at `--deny error` severity, and a semantic probe simulating the first
/// prefix. This is phase 0 of the fleet's two-phase swap.
pub(crate) fn validate_candidate(path: &str) -> Result<AsRoutingModel, String> {
    #[cfg(feature = "testkit")]
    if quasar_bgpsim::fail::inject("serve.reload") {
        return Err("injected fault (failpoint serve.reload)".to_string());
    }
    let model = quasar_core::persist::load_model(path).map_err(|e| match e.hint() {
        Some(h) => format!("{e} ({h})"),
        None => e.to_string(),
    })?;
    // Static audit before the (costlier) simulation probe:
    // Error-level findings veto the swap outright — the previous
    // epoch keeps serving.
    let report = quasar_lint::audit(&model);
    if report.denies(quasar_lint::Severity::Error) {
        return Err(format!(
            "model failed static audit: {}",
            report.error_summary()
        ));
    }
    // Semantic probe: a structurally valid model that cannot
    // simulate is as useless as a corrupt one.
    if let Some((&prefix, _)) = model.prefixes().iter().next() {
        model
            .simulate(prefix)
            .map_err(|e| format!("model failed validation probe on {prefix}: {e}"))?;
    }
    Ok(model)
}

/// Runs [`validate_candidate`] on a separate thread so even a panic
/// during validation cannot take the serving thread down; a panic comes
/// back as an ordinary rejection message.
pub(crate) fn validate_off_thread(path: &str) -> Result<AsRoutingModel, String> {
    let path = path.to_string();
    match std::thread::spawn(move || validate_candidate(&path)).join() {
        Ok(result) => result,
        Err(_) => Err("validation thread panicked".to_string()),
    }
}

/// A per-request compute budget, measured from the moment the request
/// line reached the server's `handle_line`.
pub(crate) struct Deadline {
    pub(crate) start: Instant,
    pub(crate) limit: Duration,
}

impl Deadline {
    /// The `deadline_exceeded` reply if the budget is spent, else `None`.
    pub(crate) fn exceeded(&self) -> Option<Response> {
        let elapsed = self.start.elapsed();
        if elapsed > self.limit {
            Some(Response::DeadlineExceeded(DeadlineExceededReply {
                deadline_ms: self.limit.as_millis() as u64,
                elapsed_ms: elapsed.as_millis() as u64,
            }))
        } else {
            None
        }
    }
}

/// Serves requests on `listener` until a `shutdown` request arrives,
/// then drains in-flight work and returns. The listener is bound by the
/// caller so an ephemeral port can be printed before serving starts.
pub fn serve(state: Arc<ShardedState>, listener: TcpListener) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    let queue: Mutex<VecDeque<TcpStream>> = Mutex::new(VecDeque::new());
    let available = Condvar::new();
    let accept_error: Mutex<Option<io::Error>> = Mutex::new(None);

    crossbeam::thread::scope(|scope| {
        for _ in 0..state.config().workers.max(1) {
            scope.spawn(|_| worker_loop(&state, &queue, &available));
        }

        // Accept loop: non-blocking so the shutdown flag is observed
        // within one poll interval.
        loop {
            if state.shutting_down() {
                break;
            }
            // Failpoint: stalls the acceptor; queued connections must
            // survive an arbitrarily slow accept path.
            #[cfg(feature = "testkit")]
            let _ = quasar_bgpsim::fail::inject("serve.accept");
            match listener.accept() {
                Ok((stream, _addr)) => {
                    let mut guard = lock_recovering(&queue);
                    if guard.len() >= state.config().max_pending.max(1) {
                        // Load shedding: beyond the bounded queue the peer
                        // gets one typed reply and a closed connection —
                        // bounded memory and an honest answer instead of
                        // unbounded queueing. The write is best-effort: a
                        // peer that already gave up loses nothing.
                        let pending = guard.len();
                        drop(guard);
                        state.metrics().connection_shed();
                        shed_connection(stream, pending, state.config().workers);
                        continue;
                    }
                    state.metrics().connection_opened();
                    guard.push_back(stream);
                    drop(guard);
                    available.notify_one();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(POLL_INTERVAL);
                }
                Err(e) if e.kind() == io::ErrorKind::ConnectionAborted => {}
                Err(e) => {
                    *lock_recovering(&accept_error) = Some(e);
                    state.request_shutdown();
                    break;
                }
            }
        }
        available.notify_all();
    })
    // A worker that panicked outside the unwind guard (e.g. a failpoint
    // firing inside the queue's critical section) died alone: the accept
    // loop and the surviving workers recovered the poisoned locks and
    // finished the drain, so a dead worker is a warning, not a serve error.
    .unwrap_or_else(|_| eprintln!("quasar-serve: a worker thread panicked and was dropped"));

    match accept_error
        .into_inner()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
    {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

/// How long a shed peer should wait before retrying, derived from the
/// pending-queue depth: each worker drains roughly one queued connection
/// per accept-poll interval, so the advertised delay scales with how deep
/// the backlog actually is instead of a hardcoded constant. Floored at
/// 50ms (the historical fixed value, still right for shallow queues) and
/// capped at 5s so a huge configured queue never tells clients to go away
/// for minutes.
pub(crate) fn shed_retry_after_ms(pending: usize, workers: usize) -> u64 {
    let per_slot = POLL_INTERVAL.as_millis() as u64;
    let rounds = (pending as u64).div_ceil(workers.max(1) as u64);
    (rounds * per_slot).clamp(50, 5_000)
}

/// Answers a shed connection with one `overloaded` JSON line and closes
/// it. Runs on the acceptor thread, so it must never block on the peer
/// for long: a short write timeout bounds even a zero-window client, and
/// the drain below stops at the read timeout.
///
/// Dropping a socket with the client's request still unread makes the
/// kernel answer with a reset, which can overtake the reply and reach
/// the client first. So the write side is shut down (the client reads
/// the reply, then EOF) and the request is drained until the client
/// closes or the read timeout expires, before the socket is dropped.
fn shed_connection(mut stream: TcpStream, pending: usize, workers: usize) {
    let retry_after_ms = shed_retry_after_ms(pending, workers);
    let reply = Response::Overloaded(OverloadedReply { retry_after_ms });
    let mut out = serde_json::to_string(&reply).unwrap_or_else(|_| {
        format!(r#"{{"type":"overloaded","retry_after_ms":{retry_after_ms}}}"#)
    });
    out.push('\n');
    let _ = stream.set_write_timeout(Some(READ_TIMEOUT));
    let _ = stream.write_all(out.as_bytes());
    let _ = stream.flush();
    let _ = stream.shutdown(Shutdown::Write);
    let deadline = Instant::now() + READ_TIMEOUT;
    let mut sink = [0u8; 1024];
    while let Some(left) = deadline.checked_duration_since(Instant::now()) {
        if left.is_zero() || stream.set_read_timeout(Some(left)).is_err() {
            break;
        }
        match stream.read(&mut sink) {
            Ok(n) if n > 0 => {}
            _ => break,
        }
    }
}

/// One worker: pull connections off the queue until shutdown, then exit.
fn worker_loop(state: &ShardedState, queue: &Mutex<VecDeque<TcpStream>>, available: &Condvar) {
    let mut guard = lock_recovering(queue);
    loop {
        if let Some(stream) = guard.pop_front() {
            // Failpoint: a panic here fires *inside* the queue's critical
            // section, poisoning the connection queue — the regression
            // case for the poison-recovering lock handling.
            #[cfg(feature = "testkit")]
            let _ = quasar_bgpsim::fail::inject("serve.worker.panic");
            drop(guard);
            // Connection errors (reset peers, broken pipes) and panics
            // escaping the request handler only end this connection,
            // never the worker: the panic is caught, counted, and the
            // worker returns to the queue.
            let outcome =
                std::panic::catch_unwind(AssertUnwindSafe(|| handle_connection(state, stream)));
            if outcome.is_err() {
                state.metrics().panic_caught();
            }
            guard = lock_recovering(queue);
            continue;
        }
        if state.shutting_down() {
            return;
        }
        guard = available
            .wait_timeout(guard, POLL_INTERVAL)
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .0;
    }
}

/// Reads newline-delimited requests off one connection and answers each
/// with one JSON line, until the client closes (EOF) or the server
/// drains for shutdown.
fn handle_connection(state: &ShardedState, mut stream: TcpStream) -> io::Result<()> {
    stream.set_read_timeout(Some(READ_TIMEOUT))?;
    // Replies are single small writes in a request/response lockstep;
    // leaving Nagle on would stall each one behind the peer's delayed
    // ACK (~40ms — dwarfing a cache hit).
    stream.set_nodelay(true)?;
    let mut pending: Vec<u8> = Vec::new();
    // Bytes at the front of `pending` already searched for a newline: each
    // read scans only what it added, so a long newline-free line costs
    // linear, not quadratic, work before it hits `MAX_REQUEST_LINE`.
    let mut scanned = 0;
    let mut chunk = [0u8; 4096];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => return Ok(()), // clean EOF from the client
            Ok(n) => {
                // Failpoint: a fault after a successful read models a
                // peer reset mid-request.
                #[cfg(feature = "testkit")]
                if quasar_bgpsim::fail::inject("serve.conn.read") {
                    return Err(io::Error::new(
                        io::ErrorKind::ConnectionReset,
                        "injected read fault (failpoint serve.conn.read)",
                    ));
                }
                pending.extend_from_slice(&chunk[..n]);
                // Answered lines are dropped from `pending` in one drain
                // after the loop, not one shift per line.
                let mut start = 0;
                while let Some(pos) = pending[scanned..].iter().position(|&b| b == b'\n') {
                    let end = scanned + pos;
                    scanned = end + 1;
                    let line = String::from_utf8_lossy(&pending[start..end]);
                    start = scanned;
                    if line.trim().is_empty() {
                        continue;
                    }
                    let response = state.handle_line(&line);
                    let mut out = serde_json::to_string(&response).unwrap_or_else(|_| {
                        r#"{"type":"error","message":"serialization failed"}"#.to_string()
                    });
                    out.push('\n');
                    // Failpoint: a fault before the reply write models a
                    // client that vanished between request and response.
                    #[cfg(feature = "testkit")]
                    if quasar_bgpsim::fail::inject("serve.conn.write") {
                        return Err(io::Error::new(
                            io::ErrorKind::BrokenPipe,
                            "injected write fault (failpoint serve.conn.write)",
                        ));
                    }
                    stream.write_all(out.as_bytes())?;
                    stream.flush()?;
                }
                pending.drain(..start);
                scanned = pending.len();
                if pending.len() > MAX_REQUEST_LINE {
                    // One bounded error reply, then close: the peer is
                    // either malicious or broken, and buffering more of
                    // its newline-free stream helps neither of us.
                    state.metrics().record(RequestKind::Error, 0);
                    let mut out = serde_json::to_string(&Response::error(format!(
                        "request line exceeds {MAX_REQUEST_LINE} bytes without a newline"
                    )))
                    .unwrap_or_else(|_| {
                        r#"{"type":"error","message":"serialization failed"}"#.to_string()
                    });
                    out.push('\n');
                    let _ = stream.write_all(out.as_bytes());
                    let _ = stream.flush();
                    return Ok(());
                }
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                // Idle: close only when draining, otherwise keep waiting.
                if state.shutting_down() {
                    return Ok(());
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quasar_topology::graph::AsGraph;
    use std::collections::BTreeMap;
    use std::io::BufRead;

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

    #[test]
    fn shed_retry_scales_with_queue_depth_and_clamps() {
        // Shallow queues keep the historical 50ms answer.
        assert_eq!(shed_retry_after_ms(0, 4), 50);
        assert_eq!(shed_retry_after_ms(1, 4), 50);
        assert_eq!(shed_retry_after_ms(8, 4), 50);
        // Deeper backlogs advertise proportionally longer waits...
        assert_eq!(shed_retry_after_ms(128, 8), 320);
        assert!(shed_retry_after_ms(256, 8) > shed_retry_after_ms(128, 8));
        // ...more workers drain the same backlog faster...
        assert!(shed_retry_after_ms(128, 16) < shed_retry_after_ms(128, 4));
        // ...and the cap bounds even absurd queues (with zero workers
        // treated as one rather than dividing by zero).
        assert_eq!(shed_retry_after_ms(1_000_000, 1), 5_000);
        assert_eq!(shed_retry_after_ms(64, 0), shed_retry_after_ms(64, 1));
    }

    /// Full TCP round trip: spawn the server on an ephemeral port, talk
    /// to it from several client threads, then shut it down and verify
    /// the serve loop returns (no leaked thread, port released).
    #[test]
    fn tcp_round_trip_with_graceful_shutdown() {
        let state = Arc::new(ShardedState::new(
            model(),
            ServeConfig {
                workers: 2,
                max_sessions: 4,
                ..ServeConfig::default()
            },
            1,
        ));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = {
            let state = state.clone();
            std::thread::spawn(move || serve(state, listener))
        };

        fn ask(addr: std::net::SocketAddr, line: String) -> Response {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream.write_all(line.as_bytes()).unwrap();
            stream.write_all(b"\n").unwrap();
            let mut reader = std::io::BufReader::new(stream);
            let mut reply = String::new();
            reader.read_line(&mut reply).unwrap();
            serde_json::from_str(&reply).unwrap()
        }

        let p = Prefix::for_origin(Asn(3)).to_string();
        let clients: Vec<_> = (0..4)
            .map(|i| {
                let p = p.clone();
                std::thread::spawn(move || {
                    ask(
                        addr,
                        format!(
                            r#"{{"type":"predict","prefix":"{p}","observer":{}}}"#,
                            1 + (i % 2) * 4
                        ),
                    )
                })
            })
            .collect();
        for c in clients {
            assert!(matches!(c.join().unwrap(), Response::Predict(_)));
        }

        let Response::Metrics(m) = ask(addr, r#"{"type":"metrics"}"#.to_string()) else {
            panic!("expected metrics reply");
        };
        assert_eq!(m.for_kind("predict").unwrap().count, 4);
        assert_eq!(m.base_cache.misses, 1);
        assert_eq!(m.base_cache.hits, 3);

        let Response::Shutdown(sd) = ask(addr, r#"{"type":"shutdown"}"#.to_string()) else {
            panic!("expected shutdown reply");
        };
        assert!(sd.draining);
        server.join().unwrap().unwrap();
        // The port is released: a fresh bind to the same address works.
        TcpListener::bind(addr).unwrap();
    }
}
