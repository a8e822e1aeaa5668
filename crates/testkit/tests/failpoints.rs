//! End-to-end failpoint tests across the stack: faults armed in the
//! shared registry must surface as typed errors (never panics) from the
//! simulation engine, the refinement loop, and the server dispatch path,
//! and delay-only faults must never change any result.
//!
//! Run with `cargo test -p quasar-testkit --features testkit`.

#![cfg(feature = "testkit")]

use quasar_core::refine::{refine, RefineConfig};
use quasar_serve::server::ServeConfig;
use quasar_serve::shard::ShardedState;
use quasar_testkit::fail;
use quasar_testkit::prelude::*;
use std::sync::Mutex;

/// The registry is process-global; every test serializes on this lock
/// and disarms on exit so arm/fire sequences cannot interleave.
static TEST_LOCK: Mutex<()> = Mutex::new(());

struct Armed<'a>(#[allow(dead_code)] std::sync::MutexGuard<'a, ()>);

fn armed(seed: u64) -> Armed<'static> {
    let guard = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    fail::reset(seed);
    Armed(guard)
}

impl Drop for Armed<'_> {
    fn drop(&mut self) {
        fail::clear_all();
    }
}

#[test]
fn engine_error_injection_surfaces_as_typed_error() {
    let _armed = armed(1);
    let model = toy_model();
    let prefix = *model.prefixes().keys().next().expect("model has prefixes");

    fail::set("engine.simulate", "always:error");
    let err = model.simulate(prefix).expect_err("armed point must fail");
    let msg = err.to_string();
    assert!(
        msg.contains("engine.simulate"),
        "error must name the failpoint: {msg}"
    );

    fail::clear("engine.simulate");
    model
        .simulate(prefix)
        .expect("disarmed point must succeed again");
}

#[test]
fn server_predict_reports_injected_simulation_failure() {
    let _armed = armed(2);
    let state = ShardedState::new(toy_model(), ServeConfig::default(), 1);
    let req = &toy_requests()[0]; // first predict of the canonical mix

    fail::set("engine.simulate", "always:error");
    let reply = quasar_testkit::diff::reply_line(&state, req);
    assert!(
        reply.contains(r#""type":"error""#) && reply.contains("simulation failed"),
        "injected engine fault must become an error reply: {reply}"
    );

    // The steady-state cache memoizes errors too, so a fresh state is
    // the honest way to check recovery after disarming.
    fail::clear("engine.simulate");
    let fresh = ShardedState::new(toy_model(), ServeConfig::default(), 1);
    let reply = quasar_testkit::diff::reply_line(&fresh, req);
    assert!(
        !reply.contains(r#""type":"error""#),
        "disarmed predict must succeed: {reply}"
    );
}

#[test]
fn dispatch_failpoint_turns_any_request_into_an_error_reply() {
    let _armed = armed(3);
    let state = ShardedState::new(toy_model(), ServeConfig::default(), 1);
    fail::set("serve.handle_line", "1in2:error");
    let mut injected = 0;
    let mut clean = 0;
    for req in toy_requests().iter().cycle().take(40) {
        let reply = quasar_testkit::diff::reply_line(&state, req);
        if reply.contains("failpoint serve.handle_line") {
            injected += 1;
        } else {
            clean += 1;
        }
    }
    assert!(injected > 0, "a 1in2 point must fire within 40 requests");
    assert!(clean > 0, "a 1in2 point must also not fire sometimes");
    assert_eq!(fail::evaluations("serve.handle_line"), 40);
    assert_eq!(fail::fired("serve.handle_line"), injected);
}

#[test]
fn refinement_is_identical_under_injected_scheduling_jitter() {
    let _armed = armed(4);
    let fx = tiny_trained(101);
    let baseline = fx.model.to_json().expect("model serializes");

    // Delay-only faults perturb worker timing, not results: a jittered
    // 4-thread refinement must still be byte-identical to the clean
    // sequential baseline.
    fail::set("refine.simulate_batch", "1in3:delay:2");
    fail::set("refine.apply_fix", "1in5:delay:1");
    let cfg = RefineConfig {
        threads: 4,
        ..RefineConfig::default()
    };
    let mut jittered =
        quasar_core::model::AsRoutingModel::initial(&fx.full.as_graph(), &fx.full.prefixes());
    refine(&mut jittered, &fx.training, &cfg).expect("jittered refinement runs");
    assert!(
        fail::fired("refine.simulate_batch") > 0,
        "the jitter point must actually have fired"
    );
    assert_eq!(
        jittered.to_json().expect("model serializes"),
        baseline,
        "scheduling jitter changed the refined model"
    );
}

#[test]
fn refinement_propagates_injected_engine_errors() {
    let _armed = armed(5);
    let fx = tiny_trained(101);
    fail::set("engine.simulate", "once:error");
    let cfg = RefineConfig {
        threads: 2,
        ..RefineConfig::default()
    };
    let mut model =
        quasar_core::model::AsRoutingModel::initial(&fx.full.as_graph(), &fx.full.prefixes());
    let err = refine(&mut model, &fx.training, &cfg)
        .expect_err("an injected simulation error must fail refinement");
    assert!(
        err.to_string().contains("engine.simulate"),
        "refinement must surface the injected fault, got: {err}"
    );
}

#[test]
fn one_in_n_schedule_is_stable_across_resets_with_same_seed() {
    let _armed = armed(77);
    fail::set("engine.simulate", "1in4:error");
    let model = toy_model();
    let prefix = *model.prefixes().keys().next().unwrap();
    let run = |n: usize| -> Vec<bool> { (0..n).map(|_| model.simulate(prefix).is_err()).collect() };
    let first = run(32);

    fail::reset(77);
    fail::set("engine.simulate", "1in4:error");
    let second = run(32);
    assert_eq!(first, second, "same seed must replay the same schedule");

    fail::reset(78);
    fail::set("engine.simulate", "1in4:error");
    let third = run(32);
    assert_ne!(first, third, "a different seed must reshuffle the schedule");
    assert!(first.iter().any(|&x| x) && first.iter().any(|&x| !x));
}
