//! The wire protocol: newline-delimited JSON, one request object in, one
//! response object out, over a plain TCP stream.
//!
//! Requests and responses are JSON objects tagged by a `"type"` field:
//!
//! ```text
//! → {"type":"predict","prefix":"10.0.4.0/24","observer":5}
//! ← {"type":"predict","prefix":"10.0.4.0/24","observer":5,
//!    "routes":[{"router":"r5.0","path":[4,3]}], ...}
//! → {"type":"diff","changes":[{"action":"depeer","a":2,"b":3}]}
//! ← {"type":"diff","scenario":"c0ffee...","pairs":12,"rerouted":2,...}
//! → {"type":"explain","prefix":"10.0.4.0/24","observer":5}
//! → {"type":"stats"}      → {"type":"metrics"}      → {"type":"shutdown"}
//! ```
//!
//! The reply builders ([`predict_reply`], [`diff_reply`], [`explain_reply`],
//! [`stats_reply`]) are shared by the server and by the one-shot
//! `quasar predict`/`quasar whatif` CLI paths, so a served answer is
//! byte-identical to the answer the same question gets from a fresh
//! process — the cache can never change an answer, only its latency.

use quasar_bgpsim::aspath::AsPath;
use quasar_bgpsim::engine::SimulationResult;
use quasar_bgpsim::types::{Asn, Prefix, RouterId};
use quasar_core::metrics::{MatchLevel, MismatchReason};
use quasar_core::model::AsRoutingModel;
use quasar_core::predict::predict_route;
use quasar_core::whatif::{Change, Impact, RoutingDiff};
use serde::{Deserialize, Deserializer, Error, Serialize, Serializer};
use std::borrow::Cow;

use crate::metrics::{MetricsSnapshot, RequestKind, StreamStatusReport};

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// One client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Best route + match class for a (prefix, observation AS) pair.
    Predict {
        /// Queried prefix in CIDR notation (`"10.0.4.0/24"`).
        prefix: String,
        /// The observing AS number.
        observer: u32,
        /// Optional observed AS-path (observer first, origin last) to
        /// classify against (RIB-In / potential-RIB-Out / RIB-Out).
        observed_path: Option<Vec<u32>>,
    },
    /// What-if scenario: apply `changes` as a copy-on-write overlay and
    /// report the routing diff.
    Diff {
        /// Hypothetical changes, applied in order.
        changes: Vec<ChangeSpec>,
        /// Restrict the diff to these prefixes (default: all model
        /// prefixes).
        prefixes: Option<Vec<String>>,
    },
    /// Decision-process narration for every quasi-router of an AS.
    Explain {
        /// Queried prefix in CIDR notation.
        prefix: String,
        /// The AS whose quasi-routers are narrated.
        observer: u32,
    },
    /// Model size counters.
    Stats,
    /// Server counters (requests, latencies, cache hits/misses).
    Metrics,
    /// Hot-swap the served model: validate the artifact at `path`
    /// off-thread and atomically swap it in, keeping the old model on
    /// any validation failure.
    Reload {
        /// Filesystem path of the model artifact to load.
        path: String,
    },
    /// A streaming pipeline publishing its cumulative per-window status
    /// so operators can read it back through `metrics`.
    StreamReport {
        /// The pipeline's cumulative status.
        report: StreamStatusReport,
    },
    /// Graceful shutdown: drain in-flight work, then exit.
    Shutdown,
}

impl Request {
    /// The metrics bucket this request is tallied under.
    pub fn kind(&self) -> RequestKind {
        match self {
            Request::Predict { .. } => RequestKind::Predict,
            Request::Diff { .. } => RequestKind::Diff,
            Request::Explain { .. } => RequestKind::Explain,
            Request::Stats => RequestKind::Stats,
            Request::Metrics => RequestKind::Metrics,
            Request::Reload { .. } => RequestKind::Reload,
            Request::StreamReport { .. } => RequestKind::StreamReport,
            Request::Shutdown => RequestKind::Shutdown,
        }
    }
}

/// One hypothetical change, in wire form (see
/// [`quasar_core::whatif::Change`] for semantics).
#[derive(Debug, Clone, PartialEq)]
pub enum ChangeSpec {
    /// Remove the adjacency between ASes `a` and `b`.
    Depeer {
        /// First AS.
        a: u32,
        /// Second AS.
        b: u32,
    },
    /// Add an adjacency between ASes `a` and `b`.
    AddPeering {
        /// First AS.
        a: u32,
        /// Second AS.
        b: u32,
    },
    /// AS `asn` stops announcing `prefix` towards `neighbor`.
    FilterPrefix {
        /// The filtering AS.
        asn: u32,
        /// The neighbor the announcement is withheld from.
        neighbor: u32,
        /// The filtered prefix in CIDR notation.
        prefix: String,
    },
}

impl ChangeSpec {
    /// Converts the wire form into a model [`Change`].
    pub fn to_change(&self) -> Result<Change, String> {
        Ok(match self {
            ChangeSpec::Depeer { a, b } => Change::Depeer(Asn(*a), Asn(*b)),
            ChangeSpec::AddPeering { a, b } => Change::AddPeering(Asn(*a), Asn(*b)),
            ChangeSpec::FilterPrefix {
                asn,
                neighbor,
                prefix,
            } => Change::FilterPrefix {
                asn: Asn(*asn),
                neighbor: Asn(*neighbor),
                prefix: prefix.parse()?,
            },
        })
    }

    /// The wire form of a model [`Change`].
    pub fn from_change(c: &Change) -> Self {
        match *c {
            Change::Depeer(a, b) => ChangeSpec::Depeer { a: a.0, b: b.0 },
            Change::AddPeering(a, b) => ChangeSpec::AddPeering { a: a.0, b: b.0 },
            Change::FilterPrefix {
                asn,
                neighbor,
                prefix,
            } => ChangeSpec::FilterPrefix {
                asn: asn.0,
                neighbor: neighbor.0,
                prefix: prefix.to_string(),
            },
        }
    }
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

/// Best route at one quasi-router.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RouterBest {
    /// Quasi-router id (`"r5.0"`).
    pub router: String,
    /// Selected best AS-path towards the prefix, origin last (`None` =
    /// no route).
    pub path: Option<Vec<u32>>,
}

/// Answer to a `predict` request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PredictReply {
    /// Queried prefix.
    pub prefix: String,
    /// Observing AS.
    pub observer: u32,
    /// Best route per quasi-router of the observing AS.
    pub routes: Vec<RouterBest>,
    /// Match class of the observed path, when one was supplied:
    /// `"rib_out"`, `"potential_rib_out"`, `"rib_in"` or `"none"`.
    pub match_level: Option<String>,
    /// Mismatch taxonomy when not a RIB-Out match: `"not_available"`,
    /// `"shorter_path_selected"`, `"tie_break_lost"` or `"other_policy"`.
    pub mismatch: Option<String>,
}

/// One affected (router, prefix) pair in a diff.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ImpactEntry {
    /// Affected quasi-router.
    pub router: String,
    /// Affected prefix.
    pub prefix: String,
    /// `"rerouted"`, `"lost"` or `"gained"`.
    pub kind: String,
    /// Best path before the change (`None` = unreachable before).
    pub before: Option<Vec<u32>>,
    /// Best path after the change (`None` = unreachable after).
    pub after: Option<Vec<u32>>,
}

/// Answer to a `diff` request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DiffReply {
    /// Scenario hash (16 hex digits) — the overlay-cache key.
    pub scenario: String,
    /// Number of changes applied.
    pub changes: usize,
    /// (router, prefix) pairs evaluated.
    pub pairs: usize,
    /// Pairs that kept their route.
    pub unchanged: usize,
    /// Pairs whose best route changed.
    pub rerouted: usize,
    /// Pairs that lost reachability.
    pub lost: usize,
    /// Pairs that gained reachability.
    pub gained: usize,
    /// Prefixes whose scenario simulation diverged.
    pub diverged_prefixes: usize,
    /// Every affected pair with before/after paths.
    pub impacts: Vec<ImpactEntry>,
}

/// One quasi-router's decision narration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RouterExplanation {
    /// The quasi-router.
    pub router: String,
    /// Human-readable account of every candidate and the decision step
    /// that eliminated it.
    pub text: String,
}

/// Answer to an `explain` request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExplainReply {
    /// Queried prefix.
    pub prefix: String,
    /// The AS whose quasi-routers are narrated.
    pub observer: u32,
    /// Narration per quasi-router, ascending by router id.
    pub routers: Vec<RouterExplanation>,
}

/// Answer to a `stats` request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StatsReply {
    /// ASes in the model.
    pub ases: usize,
    /// Total quasi-routers.
    pub quasi_routers: usize,
    /// Total eBGP sessions.
    pub sessions: usize,
    /// Policy rules installed by refinement.
    pub policy_rules: usize,
    /// Prefixes the model routes.
    pub prefixes: usize,
}

/// Answer to a `shutdown` request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShutdownReply {
    /// Always true: the server is draining and will exit.
    pub draining: bool,
}

/// Answer to a successful `reload` request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReloadReply {
    /// Always true: the new model is now serving (failed reloads come
    /// back as `error` replies and keep the old model).
    pub swapped: bool,
    /// Prefixes the new model routes.
    pub prefixes: usize,
    /// Quasi-routers in the new model.
    pub quasi_routers: usize,
    /// Swap generation now serving (0 at process start, +1 per
    /// successful reload; a sharded fleet reports one generation across
    /// all shards).
    #[serde(default)]
    pub generation: u64,
}

/// Answer to a `stream_report` request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StreamReportReply {
    /// Always true: the report is now the one served under `metrics`.
    pub accepted: bool,
    /// Windows the accepted report covers (echo of `report.windows`).
    pub windows: u64,
}

/// Load-shed reply: the pending-connection queue was full, so the server
/// answered immediately and closed the connection instead of queueing it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OverloadedReply {
    /// Suggested client backoff before retrying (a starting point for
    /// jittered exponential backoff, not a promise of capacity).
    pub retry_after_ms: u64,
}

/// Deadline reply: the request's computation was cut short because it
/// exceeded the server's per-request compute budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeadlineExceededReply {
    /// The configured per-request deadline (ms).
    pub deadline_ms: u64,
    /// How long the request had been running when it was cut off (ms).
    pub elapsed_ms: u64,
}

/// Error answer (malformed request, unknown prefix/AS, diverged base
/// simulation, ...).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ErrorReply {
    /// What went wrong.
    pub message: String,
}

/// One server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Answer to `predict`.
    Predict(PredictReply),
    /// Answer to `diff`.
    Diff(DiffReply),
    /// Answer to `explain`.
    Explain(ExplainReply),
    /// Answer to `stats`.
    Stats(StatsReply),
    /// Answer to `metrics` (boxed: the per-shard table makes this the
    /// by-far largest variant, and replies are built once per request).
    Metrics(Box<MetricsSnapshot>),
    /// Answer to a successful `reload`.
    Reload(ReloadReply),
    /// Answer to `stream_report`.
    StreamReport(StreamReportReply),
    /// Answer to `shutdown`.
    Shutdown(ShutdownReply),
    /// Load-shed answer sent when the pending-connection queue is full.
    Overloaded(OverloadedReply),
    /// The request blew the per-request compute deadline.
    DeadlineExceeded(DeadlineExceededReply),
    /// Error answer.
    Error(ErrorReply),
}

impl Response {
    /// Builds an error response.
    pub fn error(message: impl Into<String>) -> Self {
        Response::Error(ErrorReply {
            message: message.into(),
        })
    }
}

// ---------------------------------------------------------------------------
// Reply builders (shared with the one-shot CLI)
// ---------------------------------------------------------------------------

fn path_to_u32s(p: &AsPath) -> Vec<u32> {
    p.iter().map(|a| a.0).collect()
}

fn match_level_str(l: MatchLevel) -> &'static str {
    match l {
        MatchLevel::RibOut => "rib_out",
        MatchLevel::PotentialRibOut => "potential_rib_out",
        MatchLevel::RibIn => "rib_in",
        MatchLevel::None => "none",
    }
}

fn mismatch_str(m: MismatchReason) -> &'static str {
    match m {
        MismatchReason::NotAvailable => "not_available",
        MismatchReason::ShorterPathSelected => "shorter_path_selected",
        MismatchReason::TieBreakLost => "tie_break_lost",
        MismatchReason::OtherPolicy => "other_policy",
    }
}

/// Builds the `predict` answer for a (prefix, observation AS) pair from a
/// converged simulation of the prefix.
pub fn predict_reply(
    result: &SimulationResult,
    routers: &[RouterId],
    prefix: Prefix,
    observer: Asn,
    observed: Option<&AsPath>,
) -> PredictReply {
    let p = predict_route(result, routers, observed);
    PredictReply {
        prefix: prefix.to_string(),
        observer: observer.0,
        routes: p
            .best
            .iter()
            .map(|(r, path)| RouterBest {
                router: r.to_string(),
                path: path.as_ref().map(path_to_u32s),
            })
            .collect(),
        match_level: p.match_level.map(|l| match_level_str(l).to_string()),
        mismatch: p.mismatch.map(|m| mismatch_str(m).to_string()),
    }
}

/// Builds the `diff` answer from a computed [`RoutingDiff`].
pub fn diff_reply(scenario_key: u64, changes: usize, diff: &RoutingDiff) -> DiffReply {
    DiffReply {
        scenario: format!("{scenario_key:016x}"),
        changes,
        pairs: diff.pairs,
        unchanged: diff.unchanged(),
        rerouted: diff.rerouted(),
        lost: diff.lost(),
        gained: diff.gained(),
        diverged_prefixes: diff.diverged_prefixes,
        impacts: diff
            .impacts
            .iter()
            .map(|(router, prefix, impact)| {
                let (kind, before, after) = match impact {
                    Impact::Rerouted(a, b) => {
                        ("rerouted", Some(path_to_u32s(a)), Some(path_to_u32s(b)))
                    }
                    Impact::Lost(a) => ("lost", Some(path_to_u32s(a)), None),
                    Impact::Gained(b) => ("gained", None, Some(path_to_u32s(b))),
                };
                ImpactEntry {
                    router: router.to_string(),
                    prefix: prefix.to_string(),
                    kind: kind.to_string(),
                    before,
                    after,
                }
            })
            .collect(),
    }
}

/// Builds the `explain` answer: the engine's decision narration at every
/// quasi-router of the observing AS.
pub fn explain_reply(
    result: &SimulationResult,
    routers: &[RouterId],
    prefix: Prefix,
    observer: Asn,
) -> ExplainReply {
    ExplainReply {
        prefix: prefix.to_string(),
        observer: observer.0,
        routers: routers
            .iter()
            .filter_map(|&r| {
                result.rib(r).map(|rib| RouterExplanation {
                    router: r.to_string(),
                    text: rib.explain(),
                })
            })
            .collect(),
    }
}

/// Builds the `stats` answer from the served model.
pub fn stats_reply(model: &AsRoutingModel) -> StatsReply {
    let s = model.stats();
    StatsReply {
        ases: s.ases,
        quasi_routers: s.quasi_routers,
        sessions: s.sessions,
        policy_rules: s.policy_rules,
        prefixes: model.prefixes().len(),
    }
}

// ---------------------------------------------------------------------------
// Manual serde: `"type"`- / `"action"`-tagged objects
// ---------------------------------------------------------------------------

/// The entries of one JSON object, each with a cursor on its value — a
/// shallow index that lets a tag field appear anywhere in the object.
/// Values are syntax-checked but not decoded until asked for.
struct Fields<'de>(Vec<(Cow<'de, str>, Deserializer<'de>)>);

impl<'de> Fields<'de> {
    fn read(d: &mut Deserializer<'de>) -> Result<Self, Error> {
        let mut entries = Vec::new();
        d.begin_map()?;
        while let Some(key) = d.next_key()? {
            entries.push((key, d.clone()));
            d.skip_value()?;
        }
        Ok(Fields(entries))
    }

    /// Cursor on the value of the first entry named `name`.
    fn get(&self, name: &str) -> Option<Deserializer<'de>> {
        self.0
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.clone())
    }

    fn req<T: Deserialize<'de>>(&self, name: &str) -> Result<T, Error> {
        match self.get(name) {
            Some(mut v) => T::deserialize(&mut v),
            None => Err(Error::msg(format!("missing field `{name}`"))),
        }
    }

    fn opt<T: Deserialize<'de>>(&self, name: &str) -> Result<Option<T>, Error> {
        match self.get(name) {
            Some(mut v) => Option::deserialize(&mut v),
            None => Ok(None),
        }
    }

    fn tag(&self, tag_field: &str) -> Result<Cow<'de, str>, Error> {
        let Some(mut v) = self.get(tag_field) else {
            return Err(Error::msg(format!("missing `{tag_field}` field")));
        };
        if v.peek() != Some(b'"') {
            return Err(Error::msg(format!("`{tag_field}` must be a string")));
        }
        v.string()
    }
}

impl Serialize for ChangeSpec {
    fn serialize(&self, s: &mut Serializer) {
        s.begin_map();
        match self {
            ChangeSpec::Depeer { a, b } => {
                s.field("action", "depeer");
                s.field("a", a);
                s.field("b", b);
            }
            ChangeSpec::AddPeering { a, b } => {
                s.field("action", "add_peering");
                s.field("a", a);
                s.field("b", b);
            }
            ChangeSpec::FilterPrefix {
                asn,
                neighbor,
                prefix,
            } => {
                s.field("action", "filter_prefix");
                s.field("asn", asn);
                s.field("neighbor", neighbor);
                s.field("prefix", prefix);
            }
        }
        s.end_map();
    }
}

impl<'de> Deserialize<'de> for ChangeSpec {
    fn deserialize(d: &mut Deserializer<'de>) -> Result<Self, Error> {
        let f = Fields::read(d)?;
        match &*f.tag("action")? {
            "depeer" => Ok(ChangeSpec::Depeer {
                a: f.req("a")?,
                b: f.req("b")?,
            }),
            "add_peering" => Ok(ChangeSpec::AddPeering {
                a: f.req("a")?,
                b: f.req("b")?,
            }),
            "filter_prefix" => Ok(ChangeSpec::FilterPrefix {
                asn: f.req("asn")?,
                neighbor: f.req("neighbor")?,
                prefix: f.req("prefix")?,
            }),
            other => Err(Error::msg(format!("unknown action `{other}`"))),
        }
    }
}

impl Serialize for Request {
    fn serialize(&self, s: &mut Serializer) {
        s.begin_map();
        match self {
            Request::Predict {
                prefix,
                observer,
                observed_path,
            } => {
                s.field("type", "predict");
                s.field("prefix", prefix);
                s.field("observer", observer);
                if let Some(p) = observed_path {
                    s.field("observed_path", p);
                }
            }
            Request::Diff { changes, prefixes } => {
                s.field("type", "diff");
                s.field("changes", changes);
                if let Some(p) = prefixes {
                    s.field("prefixes", p);
                }
            }
            Request::Explain { prefix, observer } => {
                s.field("type", "explain");
                s.field("prefix", prefix);
                s.field("observer", observer);
            }
            Request::Stats => s.field("type", "stats"),
            Request::Metrics => s.field("type", "metrics"),
            Request::Reload { path } => {
                s.field("type", "reload");
                s.field("path", path);
            }
            Request::StreamReport { report } => {
                s.field("type", "stream_report");
                s.field("report", report);
            }
            Request::Shutdown => s.field("type", "shutdown"),
        }
        s.end_map();
    }
}

impl<'de> Deserialize<'de> for Request {
    fn deserialize(d: &mut Deserializer<'de>) -> Result<Self, Error> {
        let f = Fields::read(d)?;
        match &*f.tag("type")? {
            "predict" => Ok(Request::Predict {
                prefix: f.req("prefix")?,
                observer: f.req("observer")?,
                observed_path: f.opt("observed_path")?,
            }),
            "diff" => Ok(Request::Diff {
                changes: f.req("changes")?,
                prefixes: f.opt("prefixes")?,
            }),
            "explain" => Ok(Request::Explain {
                prefix: f.req("prefix")?,
                observer: f.req("observer")?,
            }),
            "stats" => Ok(Request::Stats),
            "metrics" => Ok(Request::Metrics),
            "reload" => Ok(Request::Reload {
                path: f.req("path")?,
            }),
            "stream_report" => Ok(Request::StreamReport {
                report: f.req("report")?,
            }),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(Error::msg(format!("unknown request type `{other}`"))),
        }
    }
}

impl Response {
    fn tag(&self) -> &'static str {
        match self {
            Response::Predict(_) => "predict",
            Response::Diff(_) => "diff",
            Response::Explain(_) => "explain",
            Response::Stats(_) => "stats",
            Response::Metrics(_) => "metrics",
            Response::Reload(_) => "reload",
            Response::StreamReport(_) => "stream_report",
            Response::Shutdown(_) => "shutdown",
            Response::Overloaded(_) => "overloaded",
            Response::DeadlineExceeded(_) => "deadline_exceeded",
            Response::Error(_) => "error",
        }
    }
}

impl Serialize for Response {
    /// Every payload is a struct written as a map; the tag goes in front
    /// of its fields.
    fn serialize(&self, s: &mut Serializer) {
        s.tag_next_map("type", self.tag());
        match self {
            Response::Predict(r) => r.serialize(s),
            Response::Diff(r) => r.serialize(s),
            Response::Explain(r) => r.serialize(s),
            Response::Stats(r) => r.serialize(s),
            Response::Metrics(r) => r.serialize(s),
            Response::Reload(r) => r.serialize(s),
            Response::StreamReport(r) => r.serialize(s),
            Response::Shutdown(r) => r.serialize(s),
            Response::Overloaded(r) => r.serialize(s),
            Response::DeadlineExceeded(r) => r.serialize(s),
            Response::Error(r) => r.serialize(s),
        }
    }
}

impl<'de> Deserialize<'de> for Response {
    /// Finds the tag, then reads the whole object again as the payload
    /// struct, which skips the tag as an unknown field.
    fn deserialize(d: &mut Deserializer<'de>) -> Result<Self, Error> {
        let mut p = d.clone();
        let p = &mut p;
        match &*Fields::read(d)?.tag("type")? {
            "predict" => Ok(Response::Predict(PredictReply::deserialize(p)?)),
            "diff" => Ok(Response::Diff(DiffReply::deserialize(p)?)),
            "explain" => Ok(Response::Explain(ExplainReply::deserialize(p)?)),
            "stats" => Ok(Response::Stats(StatsReply::deserialize(p)?)),
            "metrics" => Ok(Response::Metrics(Box::new(MetricsSnapshot::deserialize(
                p,
            )?))),
            "reload" => Ok(Response::Reload(ReloadReply::deserialize(p)?)),
            "stream_report" => Ok(Response::StreamReport(StreamReportReply::deserialize(p)?)),
            "shutdown" => Ok(Response::Shutdown(ShutdownReply::deserialize(p)?)),
            "overloaded" => Ok(Response::Overloaded(OverloadedReply::deserialize(p)?)),
            "deadline_exceeded" => Ok(Response::DeadlineExceeded(
                DeadlineExceededReply::deserialize(p)?,
            )),
            "error" => Ok(Response::Error(ErrorReply::deserialize(p)?)),
            other => Err(Error::msg(format!("unknown response type `{other}`"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrips_through_json() {
        let reqs = vec![
            Request::Predict {
                prefix: "10.0.4.0/24".into(),
                observer: 5,
                observed_path: Some(vec![5, 4, 3]),
            },
            Request::Predict {
                prefix: "10.0.4.0/24".into(),
                observer: 5,
                observed_path: None,
            },
            Request::Diff {
                changes: vec![
                    ChangeSpec::Depeer { a: 1, b: 2 },
                    ChangeSpec::AddPeering { a: 3, b: 4 },
                    ChangeSpec::FilterPrefix {
                        asn: 3,
                        neighbor: 2,
                        prefix: "10.0.4.0/24".into(),
                    },
                ],
                prefixes: Some(vec!["10.0.4.0/24".into()]),
            },
            Request::Explain {
                prefix: "10.0.4.0/24".into(),
                observer: 5,
            },
            Request::Stats,
            Request::Metrics,
            Request::Reload {
                path: "/tmp/model.json".into(),
            },
            Request::StreamReport {
                report: StreamStatusReport {
                    windows: 2,
                    updates_total: 64,
                    dirty_prefixes_total: 9,
                    swaps: 2,
                    swaps_rejected: 0,
                    incremental_windows: 1,
                    full_retrain_windows: 1,
                    source_done: true,
                    serve_outages: 1,
                    catch_up_swaps: 1,
                    ingest_retries: 2,
                    last_window: Some(crate::metrics::StreamWindowReport {
                        seq: 1,
                        updates: 32,
                        announcements: 20,
                        withdrawals: 12,
                        dirty_prefixes: 4,
                        mode: "full_retrain".into(),
                        refine_ms: 480,
                        swap_ms: 9,
                        updates_per_sec: 66.7,
                    }),
                },
            },
            Request::Shutdown,
        ];
        for req in reqs {
            let json = serde_json::to_string(&req).unwrap();
            let back: Request = serde_json::from_str(&json).unwrap();
            assert_eq!(back, req, "{json}");
        }
    }

    #[test]
    fn request_json_is_type_tagged() {
        let json = serde_json::to_string(&Request::Stats).unwrap();
        assert_eq!(json, r#"{"type":"stats"}"#);
        let json = serde_json::to_string(&Request::Predict {
            prefix: "10.0.4.0/24".into(),
            observer: 5,
            observed_path: None,
        })
        .unwrap();
        assert!(json.starts_with(r#"{"type":"predict""#), "{json}");
    }

    #[test]
    fn hand_written_request_json_parses() {
        let req: Request =
            serde_json::from_str(r#"{"type":"predict","prefix":"10.0.4.0/24","observer":7}"#)
                .unwrap();
        assert_eq!(
            req,
            Request::Predict {
                prefix: "10.0.4.0/24".into(),
                observer: 7,
                observed_path: None,
            }
        );
        let req: Request = serde_json::from_str(
            r#"{"type":"diff","changes":[{"action":"depeer","a":10,"b":101}]}"#,
        )
        .unwrap();
        assert_eq!(
            req,
            Request::Diff {
                changes: vec![ChangeSpec::Depeer { a: 10, b: 101 }],
                prefixes: None,
            }
        );
    }

    #[test]
    fn malformed_requests_are_rejected() {
        for bad in [
            r#"{"prefix":"10.0.4.0/24"}"#,                   // no type
            r#"{"type":"teleport"}"#,                        // unknown type
            r#"{"type":"predict","observer":7}"#,            // missing prefix
            r#"{"type":"diff"}"#,                            // missing changes
            r#"{"type":"diff","changes":[{"action":"x"}]}"#, // unknown action
            r#"{"type":"reload"}"#,                          // missing path
            r#"{"type":"stream_report"}"#,                   // missing report
            "[]",
        ] {
            assert!(serde_json::from_str::<Request>(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn response_roundtrips_through_json() {
        let resps = vec![
            Response::Predict(PredictReply {
                prefix: "10.0.4.0/24".into(),
                observer: 5,
                routes: vec![RouterBest {
                    router: "r5.0".into(),
                    path: Some(vec![4, 3]),
                }],
                match_level: Some("rib_out".into()),
                mismatch: None,
            }),
            Response::Diff(DiffReply {
                scenario: "00000000deadbeef".into(),
                changes: 1,
                pairs: 4,
                unchanged: 2,
                rerouted: 1,
                lost: 1,
                gained: 0,
                diverged_prefixes: 0,
                impacts: vec![ImpactEntry {
                    router: "r1.0".into(),
                    prefix: "10.0.4.0/24".into(),
                    kind: "lost".into(),
                    before: Some(vec![2, 3]),
                    after: None,
                }],
            }),
            Response::Explain(ExplainReply {
                prefix: "10.0.4.0/24".into(),
                observer: 5,
                routers: vec![RouterExplanation {
                    router: "r5.0".into(),
                    text: "r5.0: 1 candidate(s)".into(),
                }],
            }),
            Response::Stats(StatsReply {
                ases: 4,
                quasi_routers: 5,
                sessions: 6,
                policy_rules: 7,
                prefixes: 8,
            }),
            Response::Reload(ReloadReply {
                swapped: true,
                prefixes: 12,
                quasi_routers: 40,
                generation: 3,
            }),
            Response::StreamReport(StreamReportReply {
                accepted: true,
                windows: 7,
            }),
            Response::Shutdown(ShutdownReply { draining: true }),
            Response::Overloaded(OverloadedReply { retry_after_ms: 50 }),
            Response::DeadlineExceeded(DeadlineExceededReply {
                deadline_ms: 100,
                elapsed_ms: 161,
            }),
            Response::error("bad prefix"),
        ];
        for resp in resps {
            let json = serde_json::to_string(&resp).unwrap();
            let back: Response = serde_json::from_str(&json).unwrap();
            assert_eq!(back, resp, "{json}");
        }
    }

    #[test]
    fn change_spec_converts_to_model_changes() {
        let spec = ChangeSpec::FilterPrefix {
            asn: 3,
            neighbor: 2,
            prefix: "10.0.4.0/24".into(),
        };
        let change = spec.to_change().unwrap();
        assert_eq!(ChangeSpec::from_change(&change), spec);
        assert!(ChangeSpec::FilterPrefix {
            asn: 3,
            neighbor: 2,
            prefix: "not-a-prefix".into(),
        }
        .to_change()
        .is_err());
    }
}
