//! The sharding differential suite: an N-shard server must answer every
//! protocol verb byte-identically to a 1-shard server over the same
//! model. No feature gate — this is pure differential
//! testing, no fault injection.
//!
//! Three layers:
//!
//! 1. a deterministic matrix of trained models (seeds) × shard counts
//!    {1, 2, 4, 8} driven through [`model_requests`] — every verb, every
//!    error case, and multi-prefix diffs whose explicit lists are
//!    unsorted and duplicated (so the merged reply order is exercised);
//! 2. a proptest over random observed-route sets and random op
//!    sequences, comparing a 1-shard server against one with a random
//!    shard count;
//! 3. an end-to-end TCP run: a real `serve()` over a 4-shard state vs a
//!    fresh 1-shard one-shot dispatch per request.

use proptest::prelude::*;
use quasar_bgpsim::aspath::AsPath;
use quasar_bgpsim::types::{Asn, Prefix};
use quasar_core::model::AsRoutingModel;
use quasar_core::observed::{Dataset, ObservedRoute};
use quasar_serve::server::ServeConfig;
use quasar_serve::shard::ShardedState;
use quasar_testkit::prelude::*;

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Observer ASNs actually present in a trained fixture's dataset, in
/// deterministic order.
fn observers_of(dataset: &Dataset) -> Vec<u32> {
    dataset
        .routes()
        .iter()
        .map(|r| r.observer_as.0)
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect()
}

#[test]
fn sharded_toy_model_matches_one_shard_for_every_shard_count() {
    let model = toy_model();
    let requests = {
        let mut reqs = toy_requests();
        reqs.extend(model_requests(&model, &toy_observers()));
        reqs
    };
    let one = ShardedState::new(model.clone(), ServeConfig::default(), 1);
    for shards in SHARD_COUNTS {
        let sharded = ShardedState::new(model.clone(), ServeConfig::default(), shards);
        states_differential(
            &format!("toy model: 1-shard vs {shards}-shard"),
            &one,
            &sharded,
            &requests,
        )
        .unwrap_or_else(|d| panic!("{d}"));
    }
}

#[test]
fn sharded_trained_models_match_one_shard_across_seeds() {
    for seed in [11, 47, 2006] {
        let fx = tiny_trained(seed);
        let observers = observers_of(&fx.full);
        let requests = model_requests(&fx.model, &observers);
        assert!(
            requests.len() > 8,
            "seed {seed}: workload should cover the verb space"
        );
        let one = ShardedState::new(fx.model.clone(), ServeConfig::default(), 1);
        for shards in SHARD_COUNTS {
            let sharded = ShardedState::new(fx.model.clone(), ServeConfig::default(), shards);
            states_differential(
                &format!("seed {seed}: 1-shard vs {shards}-shard"),
                &one,
                &sharded,
                &requests,
            )
            .unwrap_or_else(|d| panic!("{d}"));
        }
    }
}

#[test]
fn multi_prefix_diff_replies_merge_in_deterministic_prefix_order() {
    // A whole-model diff fans out across every shard; the merged impact
    // list must be in ascending prefix order — the same order one shard
    // produces — and repeated runs must be byte-stable.
    let fx = tiny_trained(7);
    let origins: Vec<u32> = fx.model.prefixes().values().map(|a| a.0).collect();
    let (a, b) = (origins[0], origins[origins.len() - 1]);
    let req = format!(r#"{{"type":"diff","changes":[{{"action":"depeer","a":{a},"b":{b}}}]}}"#);
    let one = ShardedState::new(fx.model.clone(), ServeConfig::default(), 1);
    let want = reply_line(&one, &req);
    for shards in SHARD_COUNTS {
        let sharded = ShardedState::new(fx.model.clone(), ServeConfig::default(), shards);
        let first = reply_line(&sharded, &req);
        let second = reply_line(&sharded, &req);
        assert_eq!(first, want, "{shards}-shard merge order diverged");
        assert_eq!(first, second, "{shards}-shard replay not byte-stable");
    }
}

#[test]
fn sharded_server_over_tcp_matches_oneshot_dispatch() {
    let model = toy_model();
    let mut requests = toy_requests();
    requests.extend(model_requests(&model, &toy_observers()));
    sharded_vs_oneshot(&model, 4, &requests).unwrap_or_else(|d| panic!("{d}"));
}

/// Random loop-free observed-route sets over a small AS universe (the
/// same shape the serve crate's proptests use).
fn arb_routes() -> impl Strategy<Value = Vec<ObservedRoute>> {
    proptest::collection::vec(
        (
            0u32..4,                                   // observation point
            proptest::collection::vec(1u32..10, 1..4), // walk
            1u32..10,                                  // origin AS
        ),
        1..15,
    )
    .prop_map(|specs| {
        specs
            .into_iter()
            .map(|(point, mut walk, origin)| {
                walk.retain(|&a| a != origin);
                walk.push(origin);
                let mut seen = std::collections::BTreeSet::new();
                walk.retain(|&a| seen.insert(a));
                ObservedRoute {
                    point,
                    observer_as: Asn(walk[0]),
                    prefix: Prefix::for_origin(Asn(origin)),
                    as_path: AsPath::from_u32s(&walk),
                }
            })
            .collect()
    })
}

/// A raw request line to throw at both servers: predicts, explains,
/// diffs with arbitrary (possibly unsorted/duplicated/invalid) prefix
/// lists, and stats.
fn arb_request_lines() -> impl Strategy<Value = Vec<RequestSpec>> {
    let predict = (0usize..64, 0usize..64).prop_map(|(p, o)| RequestSpec::Predict(p, o));
    let explain = (0usize..64, 0usize..64).prop_map(|(p, o)| RequestSpec::Explain(p, o));
    let diff = (
        proptest::collection::vec((0u8..3, 1u32..10, 1u32..10), 1..3),
        proptest::option::of(proptest::collection::vec(0usize..80, 0..6)),
    )
        .prop_map(|(changes, prefixes)| RequestSpec::Diff { changes, prefixes });
    let stats = Just(RequestSpec::Stats);
    proptest::collection::vec(prop_oneof![predict, explain, diff, stats], 1..12)
}

#[derive(Debug, Clone)]
enum RequestSpec {
    Predict(usize, usize),
    Explain(usize, usize),
    Diff {
        changes: Vec<(u8, u32, u32)>,
        /// Indices into the prefix list; indices past the end become a
        /// deliberately-unknown prefix so error replies are compared too.
        prefixes: Option<Vec<usize>>,
    },
    Stats,
}

fn render(spec: &RequestSpec, prefixes: &[Prefix], ases: &[Asn]) -> String {
    let prefix_at = |i: usize| {
        if i < prefixes.len() * 2 {
            prefixes[i % prefixes.len()].to_string()
        } else {
            "198.51.100.0/24".to_string() // unknown on purpose
        }
    };
    match spec {
        RequestSpec::Predict(p, o) => format!(
            r#"{{"type":"predict","prefix":"{}","observer":{}}}"#,
            prefix_at(*p),
            ases[o % ases.len()].0
        ),
        RequestSpec::Explain(p, o) => format!(
            r#"{{"type":"explain","prefix":"{}","observer":{}}}"#,
            prefix_at(*p),
            ases[o % ases.len()].0
        ),
        RequestSpec::Diff { changes, prefixes } => {
            let change_json: Vec<String> = changes
                .iter()
                .map(|&(kind, a, b)| match kind {
                    0 => format!(r#"{{"action":"depeer","a":{a},"b":{b}}}"#),
                    1 => format!(r#"{{"action":"add_peering","a":{a},"b":{b}}}"#),
                    _ => format!(
                        r#"{{"action":"filter_prefix","asn":{a},"neighbor":{b},"prefix":"{}"}}"#,
                        prefix_at(a as usize)
                    ),
                })
                .collect();
            match prefixes {
                None => format!(r#"{{"type":"diff","changes":[{}]}}"#, change_json.join(",")),
                Some(idxs) => {
                    let list: Vec<String> = idxs
                        .iter()
                        .map(|&i| format!("\"{}\"", prefix_at(i)))
                        .collect();
                    format!(
                        r#"{{"type":"diff","changes":[{}],"prefixes":[{}]}}"#,
                        change_json.join(","),
                        list.join(",")
                    )
                }
            }
        }
        RequestSpec::Stats => r#"{"type":"stats"}"#.to_string(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The tentpole property: for ANY model, ANY request sequence, and
    /// ANY shard count, the server's reply stream is byte-identical to a
    /// 1-shard server's.
    #[test]
    fn any_request_sequence_is_shard_count_invariant(
        routes in arb_routes(),
        specs in arb_request_lines(),
        shards in 1usize..9,
    ) {
        let d = Dataset::new(routes);
        if d.is_empty() {
            return Ok(());
        }
        let model = AsRoutingModel::initial(&d.as_graph(), &d.prefixes());
        let prefixes: Vec<Prefix> = model.prefixes().keys().copied().collect();
        let ases: Vec<Asn> = d
            .routes()
            .iter()
            .map(|r| r.observer_as)
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        if prefixes.is_empty() || ases.is_empty() {
            return Ok(());
        }
        let lines: Vec<String> = specs.iter().map(|s| render(s, &prefixes, &ases)).collect();
        let one = ShardedState::new(model.clone(), ServeConfig::default(), 1);
        let sharded = ShardedState::new(model, ServeConfig::default(), shards);
        for line in &lines {
            let l = reply_line(&one, line);
            let r = reply_line(&sharded, line);
            prop_assert_eq!(
                &l, &r,
                "1-shard vs {}-shard diverged on {}", shards, line
            );
        }
    }
}
