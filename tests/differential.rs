//! Workspace-level differential: the served TCP path and the one-shot
//! dispatch path are two implementations of the same contract, and the
//! harness holds them byte-identical over the canonical request mix.

use quasar_testkit::diff::{roundtrip_differential, sharded_vs_oneshot};
use quasar_testkit::workload::{toy_model, toy_requests};

#[test]
fn served_and_oneshot_answers_are_byte_identical() {
    if let Err(d) = sharded_vs_oneshot(&toy_model(), 1, &toy_requests()) {
        panic!("{d}");
    }
}

#[test]
fn persisted_model_answers_like_the_original() {
    if let Err(d) = roundtrip_differential(&toy_model(), &toy_requests()) {
        panic!("{d}");
    }
}
