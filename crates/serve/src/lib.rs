//! # quasar-serve — a resident what-if/prediction query server
//!
//! DESIGN.md promises "train once, what-if forever"; this crate delivers
//! the serving half. A long-running daemon loads a trained
//! [`quasar_core::model::AsRoutingModel`] once, listens on TCP, and
//! answers the paper's interactive questions (§1 what-if analyses,
//! per-(prefix, observation-AS) route predictions, decision narrations)
//! over a newline-delimited JSON protocol — without re-simulating the
//! world for every question.
//!
//! The heart is the **per-prefix steady-state cache** ([`cache`]): the
//! engine is deterministic per (model, prefix) (DESIGN.md §7), so the
//! first query touching a prefix runs `bgpsim` to convergence and
//! memoizes the resulting RIBs; every later query against any observation
//! point of that prefix is a cache hit. What-if scenarios never
//! invalidate that base cache: each distinct change-list gets its own
//! copy-on-write [`session::Session`] holding an edited model and an
//! overlay cache keyed by the scenario hash ([`session::scenario_key`]),
//! so the base steady state is only ever *shadowed*.
//!
//! Modules:
//! * [`protocol`] — wire request/response types and the shared reply
//!   builders (also used by the one-shot CLI, so served answers are
//!   byte-identical to `quasar predict`/`quasar whatif` output);
//! * [`cache`] — the per-prefix steady-state cache;
//! * [`session`] — copy-on-write what-if sessions with overlay caches;
//! * [`metrics`] — request counters, latency histograms, cache hit/miss
//!   tallies;
//! * [`server`] — the TCP listener, crossbeam worker pool, and the
//!   per-epoch request functions;
//! * [`shard`] — the serve state, [`shard::ShardedState`]: N shards
//!   (one by default), each with a private epoch and caches over a
//!   contiguous slice of the prefix space, with a coordinated
//!   all-or-nothing epoch swap. It is usable without sockets, which is
//!   how the property tests and the one-shot CLI drive it; replies are
//!   byte-identical at every shard count by construction (and by the
//!   testkit's sharding differential suite).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code must surface failures as typed errors (or `expect` with an
// invariant message, annotated at the use site); unit tests are exempt.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod cache;
pub mod metrics;
pub mod protocol;
pub mod server;
pub mod session;
pub mod shard;

/// Commonly used names.
pub mod prelude {
    pub use crate::cache::{CacheSnapshot, SteadyStateCache};
    pub use crate::metrics::{
        LatencySnapshot, MetricsSnapshot, RequestKind, ServeMetrics, ShardSnapshot,
        StreamStatusReport, StreamWindowReport,
    };
    pub use crate::protocol::{
        diff_reply, explain_reply, predict_reply, stats_reply, ChangeSpec, DiffReply, ErrorReply,
        ExplainReply, ImpactEntry, PredictReply, Request, Response, RouterBest, ShutdownReply,
        StatsReply, StreamReportReply,
    };
    pub use crate::server::{serve, ServeConfig};
    pub use crate::session::{scenario_key, Session, SessionStore};
    pub use crate::shard::{ShardMap, ShardedState};
}
