//! Differential harness, exercised for real: executions that must agree
//! (sequential vs parallel refinement, a live server vs one-shot
//! dispatch, a JSON-round-tripped model vs the in-memory original) are
//! compared field by field, and the harness itself is checked to point
//! at the right field when fed a deliberate divergence.

use quasar_testkit::diff::{refine_differential, roundtrip_differential, sharded_vs_oneshot};
use quasar_testkit::prelude::*;

#[test]
fn sequential_and_parallel_refinement_agree() {
    let fx = tiny_trained(101);
    if let Err(d) = refine_differential(&fx.full, &fx.training, &[2, 4]) {
        panic!("{d}");
    }
}

#[test]
fn served_replies_match_oneshot_dispatch() {
    let model = toy_model();
    if let Err(d) = sharded_vs_oneshot(&model, 1, &toy_requests()) {
        panic!("{d}");
    }
}

#[test]
fn json_roundtripped_model_answers_identically() {
    // The hand-built model and a refined synthetic one: both must
    // survive a serialize/deserialize cycle without changing any answer.
    if let Err(d) = roundtrip_differential(&toy_model(), &toy_requests()) {
        panic!("{d}");
    }
    let fx = tiny_trained(101);
    let prefix = fx
        .model
        .prefixes()
        .keys()
        .next()
        .expect("trained model has prefixes")
        .to_string();
    let requests = vec![
        format!(
            r#"{{"type":"explain","prefix":"{prefix}","observer":{}}}"#,
            {
                // Any observer present in the trained model: take the origin
                // of the first prefix, which always has quasi-routers.
                fx.model.prefixes().values().next().unwrap().0
            }
        ),
        r#"{"type":"stats"}"#.to_string(),
    ];
    if let Err(d) = roundtrip_differential(&fx.model, &requests) {
        panic!("{d}");
    }
}

#[test]
fn harness_pinpoints_a_planted_divergence() {
    // Two servers over *different* models must diverge, and the harness
    // must point inside the reply body, not just say "differs".
    let left = quasar_serve::shard::ShardedState::new(
        toy_model(),
        quasar_serve::server::ServeConfig::default(),
        1,
    );
    let fx = tiny_trained(101);
    let right = quasar_serve::shard::ShardedState::new(
        fx.model,
        quasar_serve::server::ServeConfig::default(),
        1,
    );
    let d = states_differential(
        "toy vs trained",
        &left,
        &right,
        &[r#"{"type":"stats"}"#.to_string()],
    )
    .expect_err("different models must diverge on stats");
    assert!(d.path.starts_with("$."), "path must be rooted: {}", d.path);
    assert_ne!(d.left, d.right, "reported sides must actually differ");
}
