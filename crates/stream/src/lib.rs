//! # quasar-stream — live BGP update ingestion with incremental model
//! maintenance and zero-downtime serve swaps
//!
//! The paper trains its AS-routing model from a *static* snapshot of
//! stable RIB entries (§3.1), and notes "In the future we are planning to
//! also incorporate the AS-path information from BGP updates". This crate
//! is that future: it keeps a trained model **continuously current**
//! against a BGP UPDATE stream without ever retraining the world or
//! dropping a query.
//!
//! The pipeline is four layers, each its own module:
//!
//! 1. [`ingest`] — replays an MRT BGP4MP file (or tails a growing one in
//!    follow mode) through the frame-at-a-time [`ingest::TailDecoder`]
//!    and batches records into bounded time/count
//!    [`ingest::UpdateWindow`]s, with backpressure: a bounded channel
//!    between the ingest thread and the trainer means a slow refine
//!    stalls reading instead of buffering updates without bound;
//! 2. [`delta`] — the [`delta::PathState`] mirror of the collector state
//!    machine (`reconstruct_stable` in `quasar-netgen`): applies each
//!    window's announcements/withdrawals to the observed-path set and
//!    emits the **exact set of prefixes whose path set changed** — an
//!    identical re-announcement dirties nothing;
//! 3. the incremental refiner — the window's dirty-prefix set drives
//!    [`quasar_core::incremental::IncrementalTrainer`], which re-refines
//!    only the affected refinement domains and replays the recorded
//!    repair trace for untouched prefixes, while producing a model
//!    **byte-identical** to a from-scratch retrain on the updated path
//!    set (the incremental-equals-full contract, enforced by the
//!    differential suite in `quasar-testkit`);
//! 4. [`pipeline`] — orchestrates the above, persists each epoch with the
//!    same artifact framing and refinement log as `quasar train` (crash-safe:
//!    artifact first, trainer cache second, so a crash between windows
//!    resumes from a consistent pair), and pushes every epoch into a
//!    running `quasar-serve` through its validated atomic `reload` path:
//!    the swap is all-or-nothing, a rejected epoch leaves the old model
//!    serving, and in-flight queries always finish on the epoch they
//!    started with.
//!
//! Per-window metrics (updates parsed, prefixes dirtied, refine wall
//! time, swap latency) are pushed to the server via the `stream_report`
//! request — the `"stream"` object of `quasar health ADDR` reads them
//! back — and summarized in a final JSON report.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code must surface failures as typed errors (or `expect` with an
// invariant message, annotated at the use site); unit tests are exempt.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod client;
pub mod delta;
pub mod ingest;
pub mod pipeline;

use quasar_core::persist::PersistError;
use quasar_core::refine::RefineError;
use quasar_mrt::error::MrtError;
use std::fmt;
use std::io;

/// Any failure of the streaming pipeline.
#[derive(Debug)]
pub enum StreamError {
    /// Reading the update source failed.
    Io(io::Error),
    /// The update source contained an undecodable MRT frame.
    Mrt(MrtError),
    /// Refinement (or the trainer cache) failed.
    Refine(RefineError),
    /// Persisting an epoch artifact failed.
    Persist(PersistError),
    /// Talking to the query server failed (transport level — a reload
    /// *rejection* is not an error; the pipeline keeps going).
    Serve(String),
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::Io(e) => write!(f, "update source I/O failed: {e}"),
            StreamError::Mrt(e) => write!(f, "undecodable MRT frame: {e}"),
            StreamError::Refine(e) => write!(f, "incremental refinement failed: {e}"),
            StreamError::Persist(e) => write!(f, "cannot persist epoch artifact: {e}"),
            StreamError::Serve(msg) => write!(f, "query-server transport failed: {msg}"),
        }
    }
}

impl std::error::Error for StreamError {}

impl From<io::Error> for StreamError {
    fn from(e: io::Error) -> Self {
        StreamError::Io(e)
    }
}

impl From<MrtError> for StreamError {
    fn from(e: MrtError) -> Self {
        StreamError::Mrt(e)
    }
}

impl From<RefineError> for StreamError {
    fn from(e: RefineError) -> Self {
        StreamError::Refine(e)
    }
}

impl From<PersistError> for StreamError {
    fn from(e: PersistError) -> Self {
        StreamError::Persist(e)
    }
}

/// Commonly used names.
pub mod prelude {
    pub use crate::client::ServeClient;
    pub use crate::delta::{AppliedWindow, PathState};
    pub use crate::ingest::{TailDecoder, UpdateWindow, Windower};
    pub use crate::pipeline::{Pipeline, StreamConfig, StreamRunReport};
    pub use crate::StreamError;
}
