//! The served side of every workload: an in-process sharded server on an
//! ephemeral loopback port, line-protocol client connections, and the
//! open-loop request generator.

use crate::trace::Tracer;
use crate::util::{fnv, reply_type};
use quasar_core::model::AsRoutingModel;
use quasar_serve::metrics::MetricsSnapshot;
use quasar_serve::protocol::Response;
use quasar_serve::server::{serve, ServeConfig};
use quasar_serve::shard::ShardedState;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Shards of the served model: one per core of the reference host.
pub const SHARDS: usize = 2;
/// Server workers. A worker owns a connection until the client closes
/// it, so this must exceed the benchmark's concurrent connections (two
/// load connections plus the stream client's and the metrics probe's).
const WORKERS: usize = 4;
/// A reply slower than this is a failed (timed-out) request.
const REPLY_TIMEOUT: Duration = Duration::from_secs(20);

pub fn serve_config() -> ServeConfig {
    ServeConfig {
        workers: WORKERS,
        ..ServeConfig::default()
    }
}

/// A running server; stopped (and its thread joined) by [`Server::stop`]
/// or on drop.
pub struct Server {
    pub addr: SocketAddr,
    pub state: Arc<ShardedState>,
    thread: Option<JoinHandle<io::Result<()>>>,
}

impl Server {
    pub fn start(model: AsRoutingModel, prewarm: bool) -> io::Result<Server> {
        let state = Arc::new(ShardedState::new(model, serve_config(), SHARDS));
        if prewarm {
            state.prewarm();
        }
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let thread = {
            let state = Arc::clone(&state);
            std::thread::spawn(move || serve(state, listener))
        };
        Ok(Server {
            addr,
            state,
            thread: Some(thread),
        })
    }

    /// The server's own counters, read in-process (the same snapshot the
    /// `metrics` verb serializes).
    pub fn metrics(&self) -> MetricsSnapshot {
        match self
            .state
            .dispatch(&quasar_serve::protocol::Request::Metrics)
        {
            Response::Metrics(m) => *m,
            other => panic!("metrics request answered with {other:?}"),
        }
    }

    /// Drains and joins the server; `Err` if it did not exit cleanly.
    pub fn stop(mut self) -> Result<(), String> {
        self.shutdown()
    }

    fn shutdown(&mut self) -> Result<(), String> {
        let Some(thread) = self.thread.take() else {
            return Ok(());
        };
        self.state.request_shutdown();
        match thread.join() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("server exited with {e}")),
            Err(_) => Err("server thread panicked".into()),
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Err(e) = self.shutdown() {
            eprintln!("server stop: {e}");
        }
    }
}

/// One persistent client connection speaking the line protocol.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    buf: String,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            buf: String::new(),
        })
    }

    /// Connects and completes one `stats` exchange, so the server has
    /// accepted the connection (its acceptor polls every 20 ms) before
    /// any timed request goes out.
    pub fn ready(addr: SocketAddr) -> io::Result<Conn> {
        let mut conn = Conn::connect(addr)?;
        conn.call(r#"{"type":"stats"}"#)?;
        Ok(conn)
    }

    /// Sends one request line and returns the reply line (no newline).
    pub fn call(&mut self, line: &str) -> io::Result<&str> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.buf.clear();
        if self.reader.read_line(&mut self.buf)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(self.buf.trim_end())
    }
}

/// One request of an open-loop schedule: due `due_ns` after the phase
/// started, sending `lines[line]`.
#[derive(Clone, Copy, Debug)]
pub struct Planned {
    pub due_ns: u64,
    pub line: usize,
}

/// What happened to one planned request.
#[derive(Clone, Debug)]
pub struct Done {
    pub line: usize,
    pub due_ns: u64,
    pub sent_ns: u64,
    pub done_ns: u64,
    /// How late the generator sent, against the later of the due time
    /// and the moment the connection was free again.
    pub lag_ns: u64,
    pub fnv: u64,
    /// The reply's `"type"` tag, or `"timeout"` / `"transport"`.
    pub outcome: String,
}

impl Done {
    /// Latency from the scheduled send time, so a stall is charged to
    /// every request queued behind it; the generator's own lateness
    /// (`lag_ns`, reported as `gen.lag_ms`) is not the server's and is
    /// left out.
    pub fn latency_ns(&self) -> u64 {
        self.done_ns - self.due_ns - self.lag_ns
    }
}

/// Sends `plan` over one connection on schedule. The connection is
/// lockstep, so a slow reply delays later sends; those delays count in
/// their latency because latency runs from the due time.
pub fn run_open_loop(
    addr: SocketAddr,
    conn: Conn,
    plan: &[Planned],
    lines: &[String],
    base: Instant,
    tracer: &Tracer,
    span_name: &'static str,
) -> Vec<Done> {
    let base_ns = tracer.ns_of(base);
    let mut conn: io::Result<Conn> = Ok(conn);
    let mut free_ns = 0u64;
    let mut out = Vec::with_capacity(plan.len());
    for (i, p) in plan.iter().enumerate() {
        wait_until(base, p.due_ns);
        let sent_ns = base.elapsed().as_nanos() as u64;
        let lag_ns = sent_ns.saturating_sub(p.due_ns.max(free_ns));
        let reply = match conn.as_mut() {
            Ok(c) => c
                .call(&lines[p.line])
                .map(|reply| (fnv(reply), reply_type(reply).to_string())),
            Err(e) => Err(io::Error::new(e.kind(), e.to_string())),
        };
        let done_ns = base.elapsed().as_nanos() as u64;
        let (fnv_hash, outcome) = reply.unwrap_or_else(|e| {
            // A broken connection fails this request only; the next one
            // gets a fresh connection.
            conn = Conn::connect(addr);
            (0, failure_kind(&e).to_string())
        });
        free_ns = done_ns;
        tracer.record(
            span_name,
            "client",
            None,
            i as u64,
            base_ns + sent_ns,
            base_ns + done_ns,
        );
        out.push(Done {
            line: p.line,
            due_ns: p.due_ns,
            sent_ns,
            done_ns,
            lag_ns,
            fnv: fnv_hash,
            outcome,
        });
    }
    out
}

fn failure_kind(e: &io::Error) -> &'static str {
    match e.kind() {
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => "timeout",
        _ => "transport",
    }
}

/// Sleeps until `due_ns`. The wake-up overshoot is the generator's
/// lateness: it is measured as `lag_ns` and left out of latency, so the
/// generator never spins on a core the server needs.
fn wait_until(base: Instant, due_ns: u64) {
    let now = base.elapsed().as_nanos() as u64;
    if now < due_ns {
        std::thread::sleep(Duration::from_nanos(due_ns - now));
    }
}

/// A Poisson schedule of `rate_per_s` over `seconds`, picking each
/// request's line with `pick`.
pub fn poisson_plan(
    rng: &mut crate::util::Rng,
    rate_per_s: f64,
    seconds: f64,
    mut pick: impl FnMut(&mut crate::util::Rng) -> usize,
) -> Vec<Planned> {
    let mut plan = Vec::new();
    let mut t = rng.exp_gap(rate_per_s);
    while t < seconds {
        let line = pick(rng);
        plan.push(Planned {
            due_ns: (t * 1e9) as u64,
            line,
        });
        t += rng.exp_gap(rate_per_s);
    }
    plan
}
