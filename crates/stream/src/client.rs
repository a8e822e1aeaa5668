//! One-shot client for the `quasar-serve` control plane.
//!
//! The pipeline talks to the server twice per window at most: a `reload`
//! to swap the freshly persisted epoch in, and a `stream_report` to
//! publish cumulative progress. Both are one connection, one request
//! line, one reply line — a streaming pipeline has no business holding a
//! long-lived connection open across refinement runs that may take
//! seconds, and a fresh connect per window means a server restart between
//! windows heals itself.
//!
//! The crucial distinction lives in [`SwapOutcome`]: a reload *rejection*
//! (the server validated the artifact and kept the old model) is a normal
//! outcome the pipeline records and continues past, while a *transport*
//! failure is a [`StreamError`] for the caller to handle.
//!
//! A client built with [`ServeClient::with_retries`] is *resilient*: a
//! transport failure (connection refused, reset mid-exchange) or an
//! `overloaded` reply is retried up to the configured budget with capped
//! jittered exponential backoff ([`quasar_core::backoff::Backoff`]), and
//! an overloaded reply's `retry_after_ms` is honoured as a floor on the
//! next delay. Because every exchange is one fresh connection, "retry"
//! and "reconnect" are the same act — a server restart between attempts
//! heals without any session state to rebuild.

use crate::StreamError;
use quasar_core::backoff::{splitmix64, Backoff};
use quasar_serve::metrics::{MetricsSnapshot, StreamStatusReport};
use quasar_serve::protocol::{ReloadReply, Request, Response};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// First retry delay; doubles per attempt.
const RETRY_BASE_MS: u64 = 50;

/// Cap on the exponential term of the retry schedule.
const RETRY_CAP_MS: u64 = 2_000;

/// What a `reload` request did.
#[derive(Debug, Clone, PartialEq)]
pub enum SwapOutcome {
    /// The new epoch is serving.
    Swapped(ReloadReply),
    /// The server validated the artifact, rejected it, and kept the old
    /// model serving (or shed the request under overload).
    Rejected(String),
}

/// A one-shot TCP client for a `quasar-serve` instance.
#[derive(Debug)]
pub struct ServeClient {
    addr: String,
    /// Transport-level retries per exchange; 0 = fail on first fault.
    max_retries: u32,
    /// Seed state for per-exchange backoff jitter: each exchange draws a
    /// fresh seed so concurrent exchanges (and successive windows) do not
    /// share a delay schedule, while the whole stream stays a
    /// deterministic function of the initial seed.
    seed: AtomicU64,
}

impl Clone for ServeClient {
    fn clone(&self) -> Self {
        ServeClient {
            addr: self.addr.clone(),
            max_retries: self.max_retries,
            // sast: relaxed-ok jitter seed fork; only stream divergence matters, not ordering
            seed: AtomicU64::new(self.seed.load(Ordering::Relaxed)),
        }
    }
}

impl ServeClient {
    /// A client for the server at `addr` (`host:port`), failing on the
    /// first transport fault (no retries).
    pub fn new(addr: impl Into<String>) -> Self {
        ServeClient {
            addr: addr.into(),
            max_retries: 0,
            seed: AtomicU64::new(0),
        }
    }

    /// A resilient client: transport faults and `overloaded` replies are
    /// retried up to `max_retries` times per exchange, with capped
    /// jittered exponential backoff drawn from `seed`.
    pub fn with_retries(mut self, max_retries: u32, seed: u64) -> Self {
        self.max_retries = max_retries;
        self.seed = AtomicU64::new(seed);
        self
    }

    /// The server address this client targets.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// The per-exchange transport retry budget.
    pub fn max_retries(&self) -> u32 {
        self.max_retries
    }

    /// One connection, one request line, one reply line.
    fn exchange_once(&self, json: &str) -> Result<Response, StreamError> {
        let mut stream = TcpStream::connect(&self.addr)
            .map_err(|e| StreamError::Serve(format!("cannot connect to {}: {e}", self.addr)))?;
        stream
            .write_all(format!("{json}\n").as_bytes())
            .map_err(|e| StreamError::Serve(format!("cannot send to {}: {e}", self.addr)))?;
        let mut reply = String::new();
        BufReader::new(stream)
            .read_line(&mut reply)
            .map_err(|e| StreamError::Serve(format!("cannot read reply: {e}")))?;
        if reply.trim().is_empty() {
            return Err(StreamError::Serve(format!(
                "{} closed the connection without replying",
                self.addr
            )));
        }
        serde_json::from_str(reply.trim())
            .map_err(|e| StreamError::Serve(format!("unparseable reply: {e}")))
    }

    /// Sends one request and reads one reply, reconnecting and retrying
    /// transport faults and `overloaded` replies within the configured
    /// budget. An overloaded reply that survives every retry is returned
    /// as-is for the caller to classify.
    pub fn request(&self, request: &Request) -> Result<Response, StreamError> {
        let json = serde_json::to_string(request)
            .map_err(|e| StreamError::Serve(format!("cannot encode request: {e}")))?;
        // sast: relaxed-ok backoff jitter draw; uniqueness per attempt is all that is needed
        let mut seed = self.seed.fetch_add(1, Ordering::Relaxed);
        let mut backoff = Backoff::new(RETRY_BASE_MS, RETRY_CAP_MS, splitmix64(&mut seed));
        loop {
            match self.exchange_once(&json) {
                Ok(Response::Overloaded(o)) if backoff.attempt() < self.max_retries => {
                    // The server told us when to come back; the schedule
                    // only ever waits longer than asked, never shorter.
                    std::thread::sleep(backoff.next_delay_at_least(o.retry_after_ms));
                }
                Ok(resp) => return Ok(resp),
                Err(e) if backoff.attempt() < self.max_retries => {
                    eprintln!(
                        "retrying {} (attempt {} of {}): {e}",
                        self.addr,
                        backoff.attempt() + 1,
                        self.max_retries,
                    );
                    std::thread::sleep(backoff.next_delay());
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Asks the server to hot-swap in the model artifact at `path`.
    ///
    /// The swap is all-or-nothing on the server side; a rejected epoch
    /// comes back as [`SwapOutcome::Rejected`] with the old model still
    /// serving.
    pub fn reload(&self, path: &Path) -> Result<SwapOutcome, StreamError> {
        let request = Request::Reload {
            path: path.display().to_string(),
        };
        match self.request(&request)? {
            Response::Reload(r) => Ok(SwapOutcome::Swapped(r)),
            Response::Error(e) => Ok(SwapOutcome::Rejected(e.message)),
            Response::Overloaded(o) => Ok(SwapOutcome::Rejected(format!(
                "server overloaded (retry after {} ms)",
                o.retry_after_ms
            ))),
            other => Err(StreamError::Serve(format!(
                "unexpected reply to reload: {other:?}"
            ))),
        }
    }

    /// Publishes the pipeline's cumulative status; returns whether the
    /// server accepted it (a refusal is not a transport error).
    pub fn report(&self, report: &StreamStatusReport) -> Result<bool, StreamError> {
        let request = Request::StreamReport {
            report: report.clone(),
        };
        match self.request(&request)? {
            Response::StreamReport(r) => Ok(r.accepted),
            Response::Error(_) | Response::Overloaded(_) => Ok(false),
            other => Err(StreamError::Serve(format!(
                "unexpected reply to stream_report: {other:?}"
            ))),
        }
    }

    /// Fetches the server's metrics snapshot: fleet generation, panic
    /// counters, the per-shard table, and the last accepted stream status
    /// with its age (this is what `quasar health` prints).
    pub fn metrics(&self) -> Result<MetricsSnapshot, StreamError> {
        match self.request(&Request::Metrics)? {
            Response::Metrics(m) => Ok(*m),
            Response::Error(e) => Err(StreamError::Serve(format!(
                "metrics request failed: {}",
                e.message
            ))),
            other => Err(StreamError::Serve(format!(
                "unexpected reply to metrics: {other:?}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quasar_serve::protocol::ErrorReply;
    use std::net::TcpListener;
    use std::thread;

    /// A single-shot fake server: accepts one connection, asserts the
    /// request tag, replies with a canned response.
    fn canned(reply: Response, expect_tag: &'static str) -> String {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut line = String::new();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            reader.read_line(&mut line).unwrap();
            assert!(
                line.contains(&format!("\"type\":\"{expect_tag}\"")),
                "request line: {line}"
            );
            let mut stream = stream;
            let json = serde_json::to_string(&reply).unwrap();
            stream.write_all(format!("{json}\n").as_bytes()).unwrap();
        });
        addr
    }

    #[test]
    fn reload_distinguishes_swap_from_rejection() {
        let reply = ReloadReply {
            swapped: true,
            prefixes: 12,
            quasi_routers: 34,
            generation: 2,
        };
        let addr = canned(Response::Reload(reply), "reload");
        let outcome = ServeClient::new(addr)
            .reload(Path::new("/tmp/model"))
            .unwrap();
        assert_eq!(outcome, SwapOutcome::Swapped(reply));

        let addr = canned(
            Response::Error(ErrorReply {
                message: "reload rejected; keeping current model".into(),
            }),
            "reload",
        );
        let outcome = ServeClient::new(addr)
            .reload(Path::new("/tmp/model"))
            .unwrap();
        assert!(matches!(outcome, SwapOutcome::Rejected(m) if m.contains("rejected")));
    }

    #[test]
    fn transport_failure_is_an_error_not_a_rejection() {
        // Nothing listens on this address (bound then dropped).
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        let err = ServeClient::new(addr).reload(Path::new("/tmp/model"));
        assert!(matches!(err, Err(StreamError::Serve(_))), "{err:?}");
    }

    /// A fake server that slams the first `faults` connections shut
    /// without replying, then answers the next one with `reply`.
    fn flaky(reply: Response, faults: usize) -> String {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        thread::spawn(move || {
            for _ in 0..faults {
                let (stream, _) = listener.accept().unwrap();
                drop(stream); // close without replying: a transport fault
            }
            let (mut stream, _) = listener.accept().unwrap();
            let mut line = String::new();
            BufReader::new(stream.try_clone().unwrap())
                .read_line(&mut line)
                .unwrap();
            let json = serde_json::to_string(&reply).unwrap();
            stream.write_all(format!("{json}\n").as_bytes()).unwrap();
        });
        addr
    }

    #[test]
    fn resilient_client_reconnects_through_transport_faults() {
        let reply = ReloadReply {
            swapped: true,
            prefixes: 1,
            quasi_routers: 2,
            generation: 7,
        };
        let addr = flaky(Response::Reload(reply), 2);
        let client = ServeClient::new(addr).with_retries(3, 42);
        let outcome = client.reload(Path::new("/tmp/model")).unwrap();
        assert_eq!(outcome, SwapOutcome::Swapped(reply));
    }

    #[test]
    fn retry_budget_exhaustion_is_still_a_transport_error() {
        // Nothing ever listens here: every attempt is refused.
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        let client = ServeClient::new(addr).with_retries(1, 1);
        let err = client.reload(Path::new("/tmp/model"));
        assert!(matches!(err, Err(StreamError::Serve(_))), "{err:?}");
    }

    #[test]
    fn overloaded_reply_is_retried_then_surfaced_as_rejection() {
        // One overloaded reply, then success on the retry.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let reply = ReloadReply {
            swapped: true,
            prefixes: 1,
            quasi_routers: 1,
            generation: 1,
        };
        thread::spawn(move || {
            for overloaded in [true, false] {
                let (mut stream, _) = listener.accept().unwrap();
                let mut line = String::new();
                BufReader::new(stream.try_clone().unwrap())
                    .read_line(&mut line)
                    .unwrap();
                let resp = if overloaded {
                    Response::Overloaded(quasar_serve::protocol::OverloadedReply {
                        retry_after_ms: 1,
                    })
                } else {
                    Response::Reload(reply)
                };
                let json = serde_json::to_string(&resp).unwrap();
                stream.write_all(format!("{json}\n").as_bytes()).unwrap();
            }
        });
        let client = ServeClient::new(addr).with_retries(2, 9);
        let outcome = client.reload(Path::new("/tmp/model")).unwrap();
        assert_eq!(outcome, SwapOutcome::Swapped(reply));

        // With no retry budget the overloaded reply is classified as a
        // rejection, exactly as before.
        let addr = canned(
            Response::Overloaded(quasar_serve::protocol::OverloadedReply { retry_after_ms: 50 }),
            "reload",
        );
        let outcome = ServeClient::new(addr)
            .reload(Path::new("/tmp/model"))
            .unwrap();
        assert!(matches!(outcome, SwapOutcome::Rejected(m) if m.contains("overloaded")));
    }

    #[test]
    fn metrics_round_trip() {
        use quasar_serve::metrics::{MetricsSnapshot, ShardSnapshot};
        let reply = MetricsSnapshot {
            generation: 3,
            shards: vec![ShardSnapshot {
                shard: 0,
                generation: 3,
                ..ShardSnapshot::default()
            }],
            stream: Some(StreamStatusReport {
                windows: 2,
                source_done: true,
                ..StreamStatusReport::default()
            }),
            stream_age_ms: Some(250),
            ..MetricsSnapshot::default()
        };
        let addr = canned(Response::Metrics(Box::new(reply.clone())), "metrics");
        let got = ServeClient::new(addr).metrics().unwrap();
        assert_eq!(got, reply);
    }

    #[test]
    fn report_returns_acceptance() {
        let addr = canned(
            Response::StreamReport(quasar_serve::protocol::StreamReportReply {
                accepted: true,
                windows: 3,
            }),
            "stream_report",
        );
        let status = StreamStatusReport {
            windows: 3,
            ..StreamStatusReport::default()
        };
        assert!(ServeClient::new(addr).report(&status).unwrap());
    }
}
