//! Property tests for the serving layer's central safety claim: what-if
//! sessions are copy-on-write overlays, so no interleaving of `diff`
//! requests ever changes what the base cache answers for `predict` — and
//! the whole request/response behaviour is deterministic.

use proptest::prelude::*;
use quasar_bgpsim::aspath::AsPath;
use quasar_bgpsim::types::{Asn, Prefix};
use quasar_core::model::AsRoutingModel;
use quasar_core::observed::{Dataset, ObservedRoute};
use quasar_serve::prelude::*;
use quasar_serve::server::ServeConfig;
use quasar_serve::shard::ShardedState;

/// Random loop-free observed-route sets over a small AS universe (the
/// same shape the core proptests use).
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

/// An interleaving step: a predict probe or a what-if diff request.
#[derive(Debug, Clone)]
enum Op {
    Predict { prefix: usize, observer: usize },
    Diff { changes: Vec<(u8, u32, u32)> },
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    let predict =
        (0usize..64, 0usize..64).prop_map(|(prefix, observer)| Op::Predict { prefix, observer });
    let diff = proptest::collection::vec((0u8..3, 1u32..10, 1u32..10), 1..3)
        .prop_map(|changes| Op::Diff { changes });
    proptest::collection::vec(prop_oneof![predict, diff], 1..12)
}

fn build_model(routes: Vec<ObservedRoute>) -> Option<(AsRoutingModel, Vec<Prefix>, Vec<Asn>)> {
    let d = Dataset::new(routes);
    if d.is_empty() {
        return None;
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
    Some((model, prefixes, ases))
}

fn predict_request(prefixes: &[Prefix], ases: &[Asn], p: usize, o: usize) -> Request {
    Request::Predict {
        prefix: prefixes[p % prefixes.len()].to_string(),
        observer: ases[o % ases.len()].0,
        observed_path: None,
    }
}

fn diff_request(changes: &[(u8, u32, u32)], prefixes: &[Prefix]) -> Request {
    Request::Diff {
        changes: changes
            .iter()
            .map(|&(kind, a, b)| match kind {
                0 => ChangeSpec::Depeer { a, b },
                1 => ChangeSpec::AddPeering { a, b },
                _ => ChangeSpec::FilterPrefix {
                    asn: a,
                    neighbor: b,
                    prefix: prefixes[(a as usize) % prefixes.len()].to_string(),
                },
            })
            .collect(),
        prefixes: None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Overlay isolation: however `diff` sessions are interleaved with
    /// `predict` queries, every predict answer is identical to what a
    /// fresh server (which never saw any what-if request) produces.
    #[test]
    fn interleaved_whatif_sessions_never_change_base_predictions(
        routes in arb_routes(),
        ops in arb_ops(),
    ) {
        let Some((model, prefixes, ases)) = build_model(routes) else { return Ok(()) };
        let pristine = ShardedState::new(model.clone(), ServeConfig::default(), 1);
        let state = ShardedState::new(model, ServeConfig::default(), 1);

        for op in &ops {
            match op {
                Op::Predict { prefix, observer } => {
                    let req = predict_request(&prefixes, &ases, *prefix, *observer);
                    let got = state.dispatch(&req);
                    let want = pristine.dispatch(&req);
                    prop_assert_eq!(got, want, "predict diverged after what-if traffic");
                }
                Op::Diff { changes } => {
                    // The diff may legitimately fail (e.g. unknown ASes
                    // are no-ops, scenarios may diverge); the property is
                    // only that it never leaks into the base answers.
                    let _ = state.dispatch(&diff_request(changes, &prefixes));
                }
            }
        }

        // Final sweep: every (prefix, observer) pair still matches.
        for (pi, _) in prefixes.iter().enumerate() {
            for (ai, _) in ases.iter().enumerate() {
                let req = predict_request(&prefixes, &ases, pi, ai);
                prop_assert_eq!(state.dispatch(&req), pristine.dispatch(&req));
            }
        }
    }

    /// Determinism: replaying the same op sequence on two fresh servers
    /// produces identical responses — caches and session reuse never
    /// introduce nondeterminism.
    #[test]
    fn request_sequences_are_deterministic(
        routes in arb_routes(),
        ops in arb_ops(),
    ) {
        let Some((model, prefixes, ases)) = build_model(routes) else { return Ok(()) };
        let run = || {
            let state = ShardedState::new(model.clone(), ServeConfig::default(), 1);
            ops.iter()
                .map(|op| match op {
                    Op::Predict { prefix, observer } => {
                        state.dispatch(&predict_request(&prefixes, &ases, *prefix, *observer))
                    }
                    Op::Diff { changes } => state.dispatch(&diff_request(changes, &prefixes)),
                })
                .collect::<Vec<_>>()
        };
        prop_assert_eq!(run(), run());
    }
}
