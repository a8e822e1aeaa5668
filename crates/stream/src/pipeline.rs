//! The streaming pipeline: ingest → delta → incremental refine → swap.
//!
//! [`Pipeline::run_file`] owns the whole loop. An ingest thread reads the
//! update source (once, or tailing it in follow mode), decodes frames
//! through [`TailDecoder`], batches them with
//! [`Windower`], and hands finished windows over
//! a **bounded** channel — when refinement falls behind, the channel fills
//! and the reader stalls instead of buffering updates without bound.
//!
//! Each window then goes through [`Pipeline::process_window`]:
//!
//! 1. apply the records to the live [`PathState`], extracting the exact
//!    dirty-prefix set — an all-clean window with a warm trainer skips
//!    everything below (`mode = "no_change"`);
//! 2. retrain through [`IncrementalTrainer`], which reuses cached domain
//!    deltas for untouched domains and finishes the model with the
//!    library's training recipe ([`quasar_core::train()`]: §4.7
//!    generalisation), so the epoch is byte-identical to a from-scratch
//!    `quasar train` of the same path set;
//! 3. persist the epoch with [`persist::save_model`]; the trainer cache
//!    is saved **after** the artifact, so a crash between the two leaves
//!    a servable artifact and a cache that merely redoes one window's
//!    work on resume;
//! 4. push the epoch into `quasar-serve` via the validated atomic reload,
//!    whose static audit is the one audit an epoch gets: a rejection is
//!    recorded and the old model keeps serving — the pipeline never stops
//!    because one epoch failed validation.
//!
//! ## Riding out a serve outage
//!
//! A *transport* failure on the swap no longer kills the run either: the
//! pipeline trips a circuit breaker, keeps ingesting, training, and
//! persisting epochs locally, and probes the server once per window with
//! a single cheap connection attempt (no retry storm against a dead
//! port). The artifact at `model_out` always holds the **newest** epoch,
//! so recovery is one catch-up swap of that file — the served model after
//! the outage is byte-identical to what an uninterrupted run would serve,
//! because it is literally the same artifact. Outages and catch-ups are
//! counted in the status report (`serve_outages`, `catch_up_swaps`).
//!
//! Source-side transient I/O faults (EINTR, timeouts) are likewise
//! retried in follow mode with backoff up to `max_retries`, counted as
//! `ingest_retries`; a file that shrinks under the tail is reported as
//! truncation/rotation instead of being misread.
//!
//! Failpoints (testkit builds): `stream.ingest` faults the reader,
//! `stream.window` faults window processing, `stream.reload` forces the
//! swap down the rejection path.

use crate::client::{ServeClient, SwapOutcome};
use crate::delta::PathState;
use crate::ingest::{TailDecoder, UpdateWindow, Windower};
use crate::StreamError;
use quasar_core::incremental::{self, IncrementalTrainer};
use quasar_core::persist;
use quasar_core::refine::RefineConfig;
use quasar_core::train::TrainConfig;
use quasar_serve::metrics::{StreamStatusReport, StreamWindowReport};
use serde::{Deserialize, Serialize};
use std::fs::File;
use std::io::Read;
use std::path::PathBuf;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Streaming pipeline knobs.
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// The MRT update source (BGP4MP updates, optionally preceded by a
    /// PEER_INDEX_TABLE and a RIB dump for the starting state).
    pub updates: PathBuf,
    /// Where each epoch artifact is written (atomically replaced per
    /// window; the path handed to the server's `reload`).
    pub model_out: PathBuf,
    /// Trainer-cache directory for crash-safe resume. `None` keeps the
    /// cache in memory only.
    pub state_dir: Option<PathBuf>,
    /// `host:port` of a running `quasar-serve` to push epochs into.
    /// `None` trains and persists without serving.
    pub serve_addr: Option<String>,
    /// Window span in **record time** seconds (windowing is a pure
    /// function of the update stream, never of wall-clock arrival).
    pub window_secs: u32,
    /// Hard cap on BGP4MP updates per window.
    pub max_window_updates: usize,
    /// Keep tailing the file for appended records after EOF.
    pub follow: bool,
    /// Follow mode: how often to poll for appended bytes (ms).
    pub poll_ms: u64,
    /// Follow mode: end the stream after this long with no new bytes (ms).
    pub idle_timeout_ms: u64,
    /// Worker threads for refinement (`0` = all cores). The trained model
    /// is byte-identical regardless.
    pub threads: usize,
    /// Retry budget for transient faults: transport retries per serve
    /// exchange, transient-read retries on the ingest tail, and catch-up
    /// swap attempts after the source ends during an outage. `0` fails
    /// fast everywhere.
    pub max_retries: u32,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            updates: PathBuf::from("updates.mrt"),
            model_out: PathBuf::from("stream-model.quasar"),
            state_dir: None,
            serve_addr: None,
            window_secs: 1,
            max_window_updates: 10_000,
            follow: false,
            poll_ms: 50,
            idle_timeout_ms: 2_000,
            threads: 0,
            max_retries: 3,
        }
    }
}

/// The final report of one [`Pipeline::run_file`] replay.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StreamRunReport {
    /// Every processed window, in order.
    pub windows: Vec<StreamWindowReport>,
    /// The cumulative status (what `stream_report` last pushed).
    pub status: StreamStatusReport,
    /// Why the source ended early, if it did (truncated tail, undecodable
    /// frame, injected ingest fault). Windows processed before the fault
    /// are all in `windows` — the pipeline degrades, it does not discard.
    pub source_error: Option<String>,
}

/// What the ingest thread hands the trainer.
enum Feed {
    Window(UpdateWindow),
    Fault(String),
    /// A transient read fault was retried (counted, not fatal).
    Retried,
}

/// The streaming pipeline (delta state + incremental trainer + swap
/// client), usable window-by-window or over a whole file.
pub struct Pipeline {
    cfg: StreamConfig,
    train_cfg: TrainConfig,
    state: PathState,
    trainer: IncrementalTrainer,
    client: Option<ServeClient>,
    status: StreamStatusReport,
    window_reports: Vec<StreamWindowReport>,
    /// Swap generation reported by the server on the last accepted
    /// reload (0 until the first swap). Against a sharded server this is
    /// the fleet-wide generation of the coordinated swap.
    last_generation: u64,
    /// Circuit breaker: true while the server is unreachable and the
    /// newest persisted epoch has not been swapped in. While set, the
    /// pipeline probes with one cheap connection per window instead of
    /// the full retry schedule, and skips status pushes.
    swap_pending: bool,
}

impl Pipeline {
    /// Builds a pipeline, resuming the trainer cache from
    /// `cfg.state_dir` when one is there (a missing cache is a fresh
    /// start, not an error — a corrupt one is surfaced).
    pub fn new(cfg: StreamConfig) -> Result<Self, StreamError> {
        let train_cfg = TrainConfig {
            refine: RefineConfig {
                threads: cfg.threads,
                ..RefineConfig::default()
            },
            ..TrainConfig::default()
        };
        let trainer = match &cfg.state_dir {
            Some(dir) => incremental::load_or_new(dir, &train_cfg.refine)?,
            None => IncrementalTrainer::new(),
        };
        let client = cfg.serve_addr.clone().map(|addr| {
            // The seed only decorrelates retry jitter across pipelines;
            // the process id is plenty and keeps one-process tests
            // deterministic.
            ServeClient::new(addr).with_retries(cfg.max_retries, u64::from(std::process::id()))
        });
        Ok(Pipeline {
            cfg,
            train_cfg,
            state: PathState::new(),
            trainer,
            client,
            status: StreamStatusReport::default(),
            window_reports: Vec::new(),
            last_generation: 0,
            swap_pending: false,
        })
    }

    /// The cumulative status so far.
    pub fn status(&self) -> &StreamStatusReport {
        &self.status
    }

    /// The server's swap generation after the last accepted reload
    /// (0 before the first swap).
    pub fn generation(&self) -> u64 {
        self.last_generation
    }

    /// The live observed-path state.
    pub fn state(&self) -> &PathState {
        &self.state
    }

    /// Trainer epochs completed (0 before the first training run).
    pub fn epoch(&self) -> u64 {
        self.trainer.epoch()
    }

    /// Processes one window end-to-end: apply deltas, retrain if anything
    /// dirtied, persist the epoch, swap it into the server.
    pub fn process_window(
        &mut self,
        window: &UpdateWindow,
    ) -> Result<StreamWindowReport, StreamError> {
        let started = Instant::now();
        // Failpoint: fault window processing before any state mutates, so
        // a resume replays the window cleanly.
        #[cfg(feature = "testkit")]
        if quasar_bgpsim::fail::inject("stream.window") {
            return Err(StreamError::Io(std::io::Error::other(
                "injected fault (failpoint stream.window)",
            )));
        }
        let applied = self.state.apply(&window.records);
        let mut refine_ms = 0u64;
        let mut swap_ms = 0u64;
        let mut freshly_persisted = false;
        let mode: String = if applied.dirty.is_empty() && self.trainer.has_cache() {
            // Nothing the model depends on changed: the dataset is
            // literally identical to the one the cache was trained on.
            "no_change".into()
        } else {
            let dataset = self.state.dataset();
            let (model, report, reuse) = self.trainer.train(&dataset, &self.train_cfg)?;
            refine_ms = report.phases.refine().as_millis() as u64;
            persist::save_model(&self.cfg.model_out, &model)?;
            // Artifact first, cache second: a crash between the two
            // leaves a servable epoch plus a cache that merely redoes
            // this window on resume.
            if let Some(dir) = &self.cfg.state_dir {
                self.trainer.save(dir)?;
            }
            freshly_persisted = true;
            reuse.mode.to_string()
        };
        // Swap on a fresh epoch, or probe for catch-up while the breaker
        // is open — even an all-clean window is a chance to recover.
        if self.client.is_some() && (freshly_persisted || self.swap_pending) {
            let t1 = Instant::now();
            self.attempt_swap(window.seq);
            if freshly_persisted {
                swap_ms = t1.elapsed().as_millis().max(1) as u64;
            }
        }
        let elapsed = started.elapsed().as_secs_f64().max(1e-9);
        let report = StreamWindowReport {
            seq: window.seq,
            updates: applied.updates,
            announcements: applied.announcements,
            withdrawals: applied.withdrawals,
            dirty_prefixes: applied.dirty.len() as u64,
            mode: mode.clone(),
            refine_ms,
            swap_ms,
            updates_per_sec: applied.updates as f64 / elapsed,
        };
        self.status.windows += 1;
        self.status.updates_total += applied.updates;
        self.status.dirty_prefixes_total += report.dirty_prefixes;
        match mode.as_str() {
            "incremental" | "incremental_replay" => self.status.incremental_windows += 1,
            "initial" | "full_retrain" => self.status.full_retrain_windows += 1,
            _ => {}
        }
        self.status.last_window = Some(report.clone());
        self.publish_status();
        self.window_reports.push(report.clone());
        Ok(report)
    }

    /// One attempt to swap the newest persisted artifact into the server.
    ///
    /// A transport failure trips (or keeps open) the circuit breaker:
    /// `swap_pending` stays set, the outage is counted once per
    /// closed→open transition, and the pipeline carries on training. A
    /// swap that lands while the breaker was open is a catch-up swap —
    /// the served model jumps straight to the newest epoch, which is
    /// exactly what an uninterrupted run would be serving.
    fn attempt_swap(&mut self, seq: u64) {
        let Some(client) = &self.client else { return };
        #[cfg(feature = "testkit")]
        let injected_rejection = quasar_bgpsim::fail::inject("stream.reload");
        #[cfg(not(feature = "testkit"))]
        let injected_rejection = false;
        let outcome = if injected_rejection {
            Ok(SwapOutcome::Rejected(
                "injected rejection (failpoint stream.reload)".into(),
            ))
        } else if self.swap_pending {
            // Half-open probe: one connection attempt, no retry schedule
            // — a dead server fails this in microseconds.
            ServeClient::new(client.addr()).reload(&self.cfg.model_out)
        } else {
            client.reload(&self.cfg.model_out)
        };
        match outcome {
            Ok(SwapOutcome::Swapped(r)) => {
                self.status.swaps += 1;
                self.last_generation = r.generation;
                if self.swap_pending {
                    self.status.catch_up_swaps += 1;
                    self.swap_pending = false;
                    eprintln!(
                        "window {seq}: server back, caught up to generation {}",
                        r.generation
                    );
                }
            }
            Ok(SwapOutcome::Rejected(msg)) => {
                // The server saw the artifact and refused it; retrying
                // the same bytes cannot succeed, so the breaker closes.
                self.status.swaps_rejected += 1;
                self.swap_pending = false;
                eprintln!("window {seq}: epoch rejected, previous model keeps serving: {msg}");
            }
            Err(e) => {
                if !self.swap_pending {
                    self.status.serve_outages += 1;
                    eprintln!("window {seq}: server unreachable, training continues locally: {e}");
                }
                self.swap_pending = true;
            }
        }
    }

    /// After the source ends with the breaker still open: a bounded
    /// backoff loop trying to land the final catch-up swap, so a short
    /// outage straddling end-of-stream still converges. Returns whether
    /// the newest epoch is serving.
    fn catch_up(&mut self) -> bool {
        let mut backoff = quasar_core::backoff::Backoff::new(
            50,
            2_000,
            u64::from(std::process::id()).wrapping_mul(0x9e37_79b9_7f4a_7c15),
        );
        while self.swap_pending && backoff.attempt() < self.cfg.max_retries {
            std::thread::sleep(backoff.next_delay());
            self.attempt_swap(self.status.windows);
        }
        !self.swap_pending
    }

    /// Pushes the cumulative status to the server, best-effort: progress
    /// reporting must never take the pipeline down (and while the breaker
    /// is open there is no point knocking twice per window).
    fn publish_status(&self) {
        if self.swap_pending {
            return;
        }
        if let Some(client) = &self.client {
            if let Err(e) = client.report(&self.status) {
                eprintln!("cannot publish stream report: {e}");
            }
        }
    }

    /// Replays (or in follow mode, tails) `cfg.updates` to completion.
    ///
    /// Source-side trouble — a truncated tail, an undecodable frame, an
    /// injected ingest fault — ends the stream *gracefully*: every window
    /// completed before the fault is processed and reported, and the
    /// cause lands in [`StreamRunReport::source_error`]. Only
    /// trainer/persist/transport failures abort with an error.
    pub fn run_file(&mut self) -> Result<StreamRunReport, StreamError> {
        let (tx, rx) = mpsc::sync_channel::<Feed>(2);
        let cfg = self.cfg.clone();
        let mut source_error: Option<String> = None;
        let mut process_error: Option<StreamError> = None;
        std::thread::scope(|s| {
            s.spawn(move || ingest_source(&cfg, tx));
            for feed in rx {
                match feed {
                    Feed::Window(w) => {
                        if let Err(e) = self.process_window(&w) {
                            process_error = Some(e);
                            // Dropping the receiver (via break) unblocks a
                            // sender stalled on the bounded channel.
                            break;
                        }
                    }
                    Feed::Fault(msg) => {
                        eprintln!("update source ended: {msg}");
                        source_error = Some(msg);
                    }
                    Feed::Retried => self.status.ingest_retries += 1,
                }
            }
        });
        if let Some(e) = process_error {
            return Err(e);
        }
        // The breaker may still be open at end-of-stream (outage longer
        // than the tail); give the final catch-up swap a bounded chance.
        if self.swap_pending && !self.catch_up() {
            eprintln!(
                "server still unreachable after the source ended; newest epoch is persisted at {}",
                self.cfg.model_out.display()
            );
        }
        self.status.source_done = true;
        self.publish_status();
        Ok(StreamRunReport {
            windows: self.window_reports.clone(),
            status: self.status.clone(),
            source_error,
        })
    }
}

/// The ingest thread: read → decode → window → send. All sends are
/// best-effort; a dropped receiver means the trainer side ended first and
/// the reader just exits.
///
/// Fault handling classifies before reacting: a transient read fault
/// (EINTR, a timeout) in follow mode is retried with backoff up to
/// `cfg.max_retries` consecutive times and merely counted; a file that
/// *shrinks* under the tail was truncated or rotated and is reported as
/// such (re-reading from a stale offset would misframe every record);
/// everything else is a permanent source fault ending the stream
/// gracefully.
fn ingest_source(cfg: &StreamConfig, tx: mpsc::SyncSender<Feed>) {
    let mut file = match File::open(&cfg.updates) {
        Ok(f) => f,
        Err(e) => {
            let _ = tx.send(Feed::Fault(format!(
                "cannot open {}: {e}",
                cfg.updates.display()
            )));
            return;
        }
    };
    let mut decoder = TailDecoder::new();
    let mut windower = Windower::new(cfg.window_secs, cfg.max_window_updates);
    let poll = Duration::from_millis(cfg.poll_ms.max(1));
    let idle_limit = Duration::from_millis(cfg.idle_timeout_ms);
    let mut idle = Duration::ZERO;
    let mut buf = [0u8; 8192];
    // Bytes successfully read so far: the yardstick for detecting a file
    // that shrank (truncation or rotation-in-place) under a follow tail.
    let mut read_off: u64 = 0;
    let mut retry = quasar_core::backoff::Backoff::new(
        cfg.poll_ms.max(1),
        cfg.idle_timeout_ms.max(1),
        read_off ^ 0x696e_6765_7374_2121,
    );
    loop {
        #[cfg(feature = "testkit")]
        if quasar_bgpsim::fail::inject("stream.ingest") {
            let _ = tx.send(Feed::Fault(
                "injected fault (failpoint stream.ingest)".into(),
            ));
            return;
        }
        match file.read(&mut buf) {
            Ok(0) => {
                // EOF *now*; in follow mode the file may still grow — or
                // shrink, which means our offset no longer frames records.
                if cfg.follow {
                    if let Ok(meta) = std::fs::metadata(&cfg.updates) {
                        if meta.len() < read_off {
                            let _ = tx.send(Feed::Fault(format!(
                                "{} truncated or rotated under the tail ({} bytes read, file now {})",
                                cfg.updates.display(),
                                read_off,
                                meta.len()
                            )));
                            return;
                        }
                    }
                }
                if !cfg.follow || idle >= idle_limit {
                    break;
                }
                std::thread::sleep(poll);
                idle += poll;
            }
            Ok(n) => {
                idle = Duration::ZERO;
                retry.reset();
                read_off += n as u64;
                decoder.push(&buf[..n]);
                loop {
                    match decoder.next_record() {
                        Ok(Some(record)) => {
                            if let Some(w) = windower.push(record) {
                                if tx.send(Feed::Window(w)).is_err() {
                                    return;
                                }
                            }
                        }
                        Ok(None) => break,
                        Err(e) => {
                            let _ = tx.send(Feed::Fault(format!("undecodable MRT frame: {e}")));
                            return;
                        }
                    }
                }
            }
            Err(e)
                if cfg.follow
                    && crate::ingest::is_transient_io(&e)
                    && retry.attempt() < cfg.max_retries =>
            {
                if tx.send(Feed::Retried).is_err() {
                    return;
                }
                std::thread::sleep(retry.next_delay());
            }
            Err(e) => {
                let _ = tx.send(Feed::Fault(format!(
                    "cannot read {}: {e}",
                    cfg.updates.display()
                )));
                return;
            }
        }
    }
    // Complete records before a truncated tail still form valid windows.
    if let Some(w) = windower.flush() {
        let _ = tx.send(Feed::Window(w));
    }
    if decoder.pending() > 0 {
        let _ = tx.send(Feed::Fault(format!(
            "source truncated mid-record ({} bytes dangling)",
            decoder.pending()
        )));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quasar_mrt::prelude::*;
    use quasar_netgen::prelude::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("quasar-stream-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn write_archive(path: &PathBuf, records: &[MrtRecord]) {
        let mut w = MrtWriter::new(Vec::new());
        for r in records {
            w.write_record(r).unwrap();
        }
        std::fs::write(path, w.finish().unwrap()).unwrap();
    }

    #[test]
    fn replaying_an_archive_trains_and_persists_epochs() {
        let dir = temp_dir("replay");
        let net = SyntheticInternet::generate(NetGenConfig::tiny(51));
        let cfg = UpdateStreamConfig {
            flap_fraction: 0.3,
            withdraw_fraction: 0.5,
            ..UpdateStreamConfig::default()
        };
        let records = generate_update_stream(&net.observation_points, &net.observations, &cfg, 3);
        let updates = dir.join("updates.mrt");
        write_archive(&updates, &records);

        let model_out = dir.join("model.quasar");
        let mut pipeline = Pipeline::new(StreamConfig {
            updates,
            model_out: model_out.clone(),
            window_secs: 3_600,
            threads: 1,
            ..StreamConfig::default()
        })
        .unwrap();
        let report = pipeline.run_file().unwrap();

        assert!(report.source_error.is_none(), "{report:?}");
        assert!(report.status.windows >= 2, "dump + update windows");
        assert_eq!(report.windows[0].mode, "initial");
        assert_eq!(report.status.swaps, 0, "no server attached");
        assert!(report.status.source_done);

        // The final artifact must be byte-identical to a fresh training
        // run on the final path set — the streamed epoch and `quasar
        // train` are interchangeable files.
        let streamed = std::fs::read(&model_out).unwrap();
        let dataset = pipeline.state().dataset();
        let cfg = TrainConfig {
            refine: RefineConfig {
                threads: 1,
                ..RefineConfig::default()
            },
            ..TrainConfig::default()
        };
        let (model, _) = quasar_core::train(&dataset, &dataset, &cfg).unwrap();
        let offline_path = dir.join("offline.quasar");
        persist::save_model(&offline_path, &model).unwrap();
        assert_eq!(streamed, std::fs::read(&offline_path).unwrap());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn clean_windows_skip_training_entirely() {
        let dir = temp_dir("noop");
        let net = SyntheticInternet::generate(NetGenConfig::tiny(52));
        let cfg = UpdateStreamConfig {
            flap_fraction: 0.0,
            ..UpdateStreamConfig::default()
        };
        let records = generate_update_stream(&net.observation_points, &net.observations, &cfg, 4);
        let mut pipeline = Pipeline::new(StreamConfig {
            updates: dir.join("unused.mrt"),
            model_out: dir.join("model.quasar"),
            threads: 1,
            ..StreamConfig::default()
        })
        .unwrap();

        // Window 1: the whole dump → initial training.
        let first = pipeline
            .process_window(&UpdateWindow {
                seq: 0,
                opened: records[0].timestamp,
                closed: records[records.len() - 1].timestamp,
                records: records.clone(),
            })
            .unwrap();
        assert_eq!(first.mode, "initial");
        assert!(first.refine_ms > 0 || first.dirty_prefixes > 0);

        // Window 2: replay the RIB verbatim — every announcement is a
        // no-op, so nothing is dirty and training is skipped outright.
        let second = pipeline
            .process_window(&UpdateWindow {
                seq: 1,
                opened: 0,
                closed: 0,
                records,
            })
            .unwrap();
        assert_eq!(second.mode, "no_change");
        assert_eq!(second.dirty_prefixes, 0);
        assert_eq!(second.refine_ms, 0);
        assert_eq!(pipeline.status().windows, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn serve_outage_trips_the_breaker_and_training_continues() {
        let dir = temp_dir("outage");
        let net = SyntheticInternet::generate(NetGenConfig::tiny(54));
        let cfg = UpdateStreamConfig::default();
        let records = generate_update_stream(&net.observation_points, &net.observations, &cfg, 3);
        // Nothing listens on this address (bound then dropped).
        let dead_addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        let model_out = dir.join("model.quasar");
        let mut pipeline = Pipeline::new(StreamConfig {
            updates: dir.join("unused.mrt"),
            model_out: model_out.clone(),
            serve_addr: Some(dead_addr),
            threads: 1,
            max_retries: 0, // fail fast: the breaker, not the retries
            ..StreamConfig::default()
        })
        .unwrap();
        let mid = records.len() / 2;
        for (seq, chunk) in [&records[..mid], &records[mid..]].iter().enumerate() {
            let report = pipeline
                .process_window(&UpdateWindow {
                    seq: seq as u64,
                    opened: chunk.first().map(|r| r.timestamp).unwrap_or(0),
                    closed: chunk.last().map(|r| r.timestamp).unwrap_or(0),
                    records: chunk.to_vec(),
                })
                .expect("an unreachable server must not kill the window");
            assert_ne!(report.mode, "no_change");
        }
        // One outage (counted at the closed→open transition, not per
        // window), zero swaps, and the newest epoch persisted anyway.
        assert_eq!(pipeline.status().serve_outages, 1);
        assert_eq!(pipeline.status().swaps, 0);
        assert_eq!(pipeline.status().windows, 2);
        assert!(model_out.exists(), "epochs persist through the outage");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_lands_a_catch_up_swap() {
        use quasar_serve::protocol::{ReloadReply, Request, Response, StreamReportReply};
        use std::io::{BufRead, BufReader, Write};

        let dir = temp_dir("catchup");
        let net = SyntheticInternet::generate(NetGenConfig::tiny(55));
        let cfg = UpdateStreamConfig {
            // A flap-free stream replays as a no-op, so the second window
            // below is all-clean and exercises the pure-probe path.
            flap_fraction: 0.0,
            ..UpdateStreamConfig::default()
        };
        let records = generate_update_stream(&net.observation_points, &net.observations, &cfg, 3);
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        drop(listener); // server is "down" for the first window

        let mut pipeline = Pipeline::new(StreamConfig {
            updates: dir.join("unused.mrt"),
            model_out: dir.join("model.quasar"),
            serve_addr: Some(addr.clone()),
            threads: 1,
            max_retries: 0,
            ..StreamConfig::default()
        })
        .unwrap();
        pipeline
            .process_window(&UpdateWindow {
                seq: 0,
                opened: records[0].timestamp,
                closed: records[records.len() - 1].timestamp,
                records: records.clone(),
            })
            .unwrap();
        assert_eq!(pipeline.status().serve_outages, 1);

        // The server comes back on the same address: a minimal fake that
        // answers reloads and reports.
        let listener = std::net::TcpListener::bind(&addr).unwrap();
        // Exactly two exchanges follow: the catch-up reload, then the
        // status publish once the breaker closes.
        let server = std::thread::spawn(move || {
            for _ in 0..2 {
                let Ok((mut stream, _)) = listener.accept() else {
                    return;
                };
                let mut line = String::new();
                if BufReader::new(stream.try_clone().unwrap())
                    .read_line(&mut line)
                    .is_err()
                {
                    continue;
                }
                let reply = match serde_json::from_str::<Request>(line.trim()) {
                    Ok(Request::Reload { .. }) => Response::Reload(ReloadReply {
                        swapped: true,
                        prefixes: 1,
                        quasi_routers: 1,
                        generation: 1,
                    }),
                    Ok(Request::StreamReport { report }) => {
                        Response::StreamReport(StreamReportReply {
                            accepted: true,
                            windows: report.windows,
                        })
                    }
                    _ => return,
                };
                let json = serde_json::to_string(&reply).unwrap();
                let _ = stream.write_all(format!("{json}\n").as_bytes());
            }
        });

        // An all-clean window (same records replayed) is still a recovery
        // probe: the breaker half-opens and the catch-up swap lands.
        let report = pipeline
            .process_window(&UpdateWindow {
                seq: 1,
                opened: 0,
                closed: 0,
                records,
            })
            .unwrap();
        assert_eq!(report.mode, "no_change");
        assert_eq!(pipeline.status().catch_up_swaps, 1);
        assert_eq!(pipeline.status().swaps, 1);
        assert_eq!(pipeline.generation(), 1);
        drop(pipeline);
        server.join().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_source_degrades_gracefully() {
        let dir = temp_dir("trunc");
        let net = SyntheticInternet::generate(NetGenConfig::tiny(53));
        let cfg = UpdateStreamConfig::default();
        let records = generate_update_stream(&net.observation_points, &net.observations, &cfg, 5);
        let mut w = MrtWriter::new(Vec::new());
        for r in &records {
            w.write_record(r).unwrap();
        }
        let mut bytes = w.finish().unwrap();
        // Chop the archive mid-record.
        let n = bytes.len();
        bytes.truncate(n - 7);
        let updates = dir.join("updates.mrt");
        std::fs::write(&updates, &bytes).unwrap();

        let mut pipeline = Pipeline::new(StreamConfig {
            updates,
            model_out: dir.join("model.quasar"),
            window_secs: 1_000_000, // one big window: all complete records
            threads: 1,
            ..StreamConfig::default()
        })
        .unwrap();
        let report = pipeline.run_file().unwrap();
        let err = report.source_error.expect("truncation reported");
        assert!(err.contains("truncated"), "{err}");
        // Everything before the dangling tail still trained.
        assert!(report.status.windows >= 1);
        assert!(pipeline.epoch() >= 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
