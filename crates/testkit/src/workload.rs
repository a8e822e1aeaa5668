//! Shared fixtures for the testkit's own layers and for downstream test
//! files: a hand-built five-AS model whose answers are easy to reason
//! about, a canonical request mix covering every request type, and a
//! synthetic trained model for refinement-level differentials.

use quasar_bgpsim::aspath::AsPath;
use quasar_bgpsim::types::{Asn, Prefix};
use quasar_core::model::AsRoutingModel;
use quasar_core::observed::{Dataset, ObservedRoute};
use quasar_core::refine::{refine, RefineConfig, RefineReport};
use quasar_netgen::prelude::*;
use quasar_topology::graph::AsGraph;
use std::collections::BTreeMap;

/// The five-AS diamond used across the workspace's server tests:
///
/// ```text
///   1 — 2 — 3        prefixes: for_origin(3), for_origin(2)
///   |       |
///   5 — 4 ——+
/// ```
///
/// built from three observed paths, so AS1 sees two disjoint routes to
/// AS3 and AS5 sees one.
pub fn toy_model() -> AsRoutingModel {
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

/// Observer ASes worth querying against [`toy_model`].
pub fn toy_observers() -> Vec<u32> {
    vec![1, 2, 4, 5]
}

/// A deterministic request mix over [`toy_model`] covering predict (with
/// and without an observed path), explain, stats, and a what-if diff —
/// every reply is a pure function of the model, so two servers given the
/// same mix must answer byte-identically.
pub fn toy_requests() -> Vec<String> {
    let p3 = Prefix::for_origin(Asn(3)).to_string();
    let p2 = Prefix::for_origin(Asn(2)).to_string();
    let mut reqs = Vec::new();
    for observer in toy_observers() {
        for prefix in [&p3, &p2] {
            reqs.push(format!(
                r#"{{"type":"predict","prefix":"{prefix}","observer":{observer}}}"#
            ));
        }
    }
    reqs.push(format!(
        r#"{{"type":"predict","prefix":"{p3}","observer":1,"observed_path":[1,2,3]}}"#
    ));
    reqs.push(format!(
        r#"{{"type":"explain","prefix":"{p3}","observer":1}}"#
    ));
    reqs.push(format!(
        r#"{{"type":"explain","prefix":"{p3}","observer":5}}"#
    ));
    reqs.push(r#"{"type":"stats"}"#.to_string());
    reqs.push(format!(
        r#"{{"type":"diff","changes":[{{"action":"depeer","a":1,"b":2}}],"prefixes":["{p3}"]}}"#
    ));
    reqs
}

/// A deterministic request mix exercising every protocol verb against an
/// arbitrary trained model — the sharding differential suite's workload.
///
/// Covers one predict per (prefix, cycled observer), explains over the
/// first few prefixes, `stats`, a whole-model diff (no `prefixes` field,
/// so the server resolves every prefix and a sharded server must fan the
/// work out and merge), restricted diffs whose explicit prefix lists are
/// deliberately *unsorted and duplicated* (the reply must still come
/// back in ascending deduplicated prefix order), an explicit empty
/// prefix list, and the canonical error cases: unknown prefix, unknown
/// observer, empty change list, bad prefix syntax, and a non-JSON line.
/// Every reply — including the errors — is a pure function of the
/// model, so two servers given this mix must answer byte-identically.
pub fn model_requests(model: &AsRoutingModel, observers: &[u32]) -> Vec<String> {
    let prefixes: Vec<String> = model.prefixes().keys().map(|p| p.to_string()).collect();
    let origins: Vec<u32> = model.prefixes().values().map(|a| a.0).collect();
    let mut reqs = Vec::new();
    if prefixes.is_empty() || observers.is_empty() {
        return reqs;
    }

    for (i, prefix) in prefixes.iter().enumerate() {
        let observer = observers[i % observers.len()];
        reqs.push(format!(
            r#"{{"type":"predict","prefix":"{prefix}","observer":{observer}}}"#
        ));
    }
    for prefix in prefixes.iter().take(3) {
        let observer = observers[observers.len() - 1];
        reqs.push(format!(
            r#"{{"type":"explain","prefix":"{prefix}","observer":{observer}}}"#
        ));
    }
    reqs.push(r#"{"type":"stats"}"#.to_string());

    // What-if diffs between ASes guaranteed to exist (prefix origins).
    let a = origins[0];
    let b = origins[origins.len() - 1];
    let depeer = format!(r#"{{"action":"depeer","a":{a},"b":{b}}}"#);
    // Whole-model: the server resolves every prefix itself.
    reqs.push(format!(r#"{{"type":"diff","changes":[{depeer}]}}"#));
    // Restricted, with the prefix list reversed AND the (sorted-order)
    // first prefix repeated at the end: the reply must nevertheless be
    // in ascending deduplicated prefix order.
    let mut unsorted: Vec<String> = prefixes.iter().rev().cloned().collect();
    unsorted.push(prefixes[0].clone());
    let list = unsorted
        .iter()
        .map(|p| format!("\"{p}\""))
        .collect::<Vec<_>>()
        .join(",");
    reqs.push(format!(
        r#"{{"type":"diff","changes":[{depeer}],"prefixes":[{list}]}}"#
    ));
    reqs.push(format!(
        r#"{{"type":"diff","changes":[{{"action":"add_peering","a":{a},"b":{b}}}],"prefixes":["{}"]}}"#,
        prefixes[0]
    ));
    // Explicit empty prefix list: legal, diffs nothing, still opens a
    // session.
    reqs.push(format!(
        r#"{{"type":"diff","changes":[{depeer}],"prefixes":[]}}"#
    ));

    // Error cases — replies must be byte-identical too.
    reqs.push(r#"{"type":"predict","prefix":"198.51.100.0/24","observer":1}"#.to_string());
    reqs.push(format!(
        r#"{{"type":"predict","prefix":"{}","observer":4000000000}}"#,
        prefixes[0]
    ));
    reqs.push(r#"{"type":"diff","changes":[]}"#.to_string());
    reqs.push(format!(
        r#"{{"type":"diff","changes":[{depeer}],"prefixes":["not-a-prefix"]}}"#
    ));
    reqs.push("this is not json".to_string());
    reqs
}

/// A synthetic internet refined into a model, plus the datasets that
/// produced it — the fixture for refinement-level differential tests.
pub struct TrainedFixture {
    /// The refined model.
    pub model: AsRoutingModel,
    /// Every observation (training + holdout).
    pub full: Dataset,
    /// The training half.
    pub training: Dataset,
    /// The refinement report.
    pub report: RefineReport,
}

/// Generates a tiny synthetic internet from `seed`, splits it, and
/// refines a model on the training half (single-threaded, so the result
/// is the canonical baseline for thread-count differentials).
pub fn tiny_trained(seed: u64) -> TrainedFixture {
    let net = SyntheticInternet::generate(NetGenConfig::tiny(seed));
    let full = Dataset::new(net.observations.iter().map(|o| ObservedRoute {
        point: o.point,
        observer_as: o.observer_as,
        prefix: o.prefix,
        as_path: o.as_path.clone(),
    }));
    let (training, _) = full.split_by_point(0.5, 7);
    let cfg = RefineConfig {
        threads: 1,
        ..RefineConfig::default()
    };
    let mut model = AsRoutingModel::initial(&full.as_graph(), &full.prefixes());
    let report = refine(&mut model, &training, &cfg).expect("tiny fixture refines");
    TrainedFixture {
        model,
        full,
        training,
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn toy_requests_are_valid_and_deterministic() {
        let model = toy_model();
        let state = quasar_serve::shard::ShardedState::new(
            model,
            quasar_serve::server::ServeConfig::default(),
            1,
        );
        for req in toy_requests() {
            let reply = crate::diff::reply_line(&state, &req);
            assert!(
                !reply.contains(r#""type":"error""#),
                "canonical request mix must not error: {req} -> {reply}"
            );
        }
        assert_eq!(toy_requests(), toy_requests());
    }

    #[test]
    fn model_requests_cover_success_and_error_paths() {
        let model = toy_model();
        let reqs = model_requests(&model, &toy_observers());
        assert_eq!(reqs, model_requests(&model, &toy_observers()));
        let state = quasar_serve::shard::ShardedState::new(
            model,
            quasar_serve::server::ServeConfig::default(),
            1,
        );
        let replies: Vec<String> = reqs
            .iter()
            .map(|r| crate::diff::reply_line(&state, r))
            .collect();
        assert!(
            replies.iter().any(|r| !r.contains(r#""type":"error""#)),
            "mix must include successful requests"
        );
        assert!(
            replies.iter().any(|r| r.contains(r#""type":"error""#)),
            "mix must include error-reply requests"
        );
    }

    #[test]
    fn tiny_fixture_converges() {
        let fx = tiny_trained(101);
        assert!(fx.report.converged(), "tiny fixture must converge");
        assert!(!fx.model.prefixes().is_empty());
        assert!(fx.training.len() < fx.full.len());
    }
}
