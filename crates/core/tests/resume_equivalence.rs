//! Kill-and-resume equivalence: a refinement run killed mid-flight by an
//! armed failpoint and continued with [`resume_refine`] must produce a
//! model byte-identical to the uninterrupted run — at every kill round
//! and at every thread count. This is the correctness contract that makes
//! `quasar train --checkpoint-dir D --resume` safe to use after a crash.
//!
//! Run with `cargo test -p quasar-core --features testkit`.

#![cfg(feature = "testkit")]

use quasar_bgpsim::fail;
use quasar_core::prelude::*;
use quasar_testkit::diff::diff_json;
use quasar_testkit::workload::tiny_trained;
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Mutex, OnceLock};

/// The failpoint registry is process-global; every test that arms it
/// holds this lock so a concurrently running test never sees a stray
/// trigger.
static SERIAL: Mutex<()> = Mutex::new(());

/// A fresh checkpoint directory under the system temp dir.
fn ckpt_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("quasar-resume-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The shared fixture: a tiny synthetic internet's datasets plus the
/// uninterrupted single-thread baseline (model JSON and work-unit counts).
struct Fixture {
    full: Dataset,
    training: Dataset,
    baseline_json: String,
    /// Refinement domains of the partition (phase-1 work units).
    domains: u64,
    /// Total checkpointable work units: domain claims + repair rounds —
    /// exactly how often the `refine.round` kill site is evaluated.
    units: u64,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let fx = tiny_trained(42);
        let baseline_json = fx.model.to_json().expect("baseline serializes");
        Fixture {
            full: fx.full,
            training: fx.training,
            baseline_json,
            domains: fx.report.domains as u64,
            units: fx.report.work_units(),
        }
    })
}

fn config(threads: usize) -> RefineConfig {
    RefineConfig {
        threads,
        ..RefineConfig::default()
    }
}

/// Starts a checkpointed run armed to panic at the `kill_round`-th work
/// unit (a domain claim or a repair-round start), proves it died there,
/// then resumes and returns the final model JSON.
fn kill_then_resume(kill_round: u64, threads: usize, tag: &str) -> String {
    let fx = fixture();
    let cfg = config(threads);
    let dir = ckpt_dir(tag);

    fail::reset(7);
    fail::set("refine.round", &format!("at{kill_round}:panic"));
    // Silence the expected panic's backtrace; the serial lock makes the
    // hook swap safe.
    let prev_hook = panic::take_hook();
    panic::set_hook(Box::new(|_| {}));
    let killed = panic::catch_unwind(AssertUnwindSafe(|| {
        let mut model = AsRoutingModel::initial(&fx.full.as_graph(), &fx.full.prefixes());
        refine_checkpointed(&mut model, &fx.training, &cfg, Some(&dir))
    }));
    panic::set_hook(prev_hook);
    assert!(killed.is_err(), "the armed panic must abort the run");
    assert_eq!(fail::fired("refine.round"), 1, "kill point must fire once");
    fail::clear_all();

    let mut model = AsRoutingModel::initial(&fx.full.as_graph(), &fx.full.prefixes());
    let report = match resume_refine(&mut model, &fx.training, &cfg, &dir) {
        Ok((report, _)) => report,
        // Killed before the first checkpoint landed: the documented
        // recovery is a fresh run (exactly what the CLI's --resume
        // fallback does), which must still reach the same model.
        Err(RefineError::Persist(PersistError::NoCheckpoint { .. })) => {
            assert_eq!(kill_round, 1, "only a unit-1 kill leaves no checkpoint");
            let (report, _) = refine_checkpointed(&mut model, &fx.training, &cfg, Some(&dir))
                .expect("fresh fallback run");
            report
        }
        Err(e) => panic!("resume failed: {e}"),
    };
    assert!(report.converged(), "resumed run must converge");
    model.to_json().expect("resumed model serializes")
}

fn assert_byte_identical(kill_round: u64, threads: usize, got: &str) {
    let fx = fixture();
    if got != fx.baseline_json {
        let div = diff_json("resumed-vs-uninterrupted", got, &fx.baseline_json);
        panic!(
            "model after kill at round {kill_round} (threads {threads}) diverged \
             from the uninterrupted run: {div:?}"
        );
    }
}

#[test]
fn resume_matches_uninterrupted_at_kills_across_both_phases() {
    let _guard = SERIAL.lock().unwrap();
    let fx = fixture();
    assert!(
        fx.domains >= 2 && fx.units > fx.domains,
        "fixture must shard into several domains and run at least one \
         repair round (domains {}, units {}); pick a different seed",
        fx.domains,
        fx.units
    );
    // Early (before any checkpoint), mid-domain-phase, the first repair
    // round (just after the merge), and the final work unit.
    let mut kills = vec![1, fx.domains.div_ceil(2).max(2), fx.domains + 1, fx.units];
    kills.dedup();
    for kill_round in kills {
        let got = kill_then_resume(kill_round, 1, &format!("kill-{kill_round}"));
        assert_byte_identical(kill_round, 1, &got);
    }
}

#[test]
fn resume_matches_uninterrupted_with_parallel_refinement() {
    let _guard = SERIAL.lock().unwrap();
    let fx = fixture();
    // Kill mid-domain-phase: with 4 workers the set of checkpointed
    // domains at death depends on scheduling, and resume must still land
    // on the same bytes. The baseline is single-threaded; byte-identity
    // across both dimensions at once is the combined determinism +
    // durability contract.
    let kill_round = fx.domains.div_ceil(2).max(2).min(fx.units);
    let got = kill_then_resume(kill_round, 4, "kill-par");
    assert_byte_identical(kill_round, 4, &got);
}

#[test]
fn resume_without_checkpoints_is_a_typed_error() {
    let _guard = SERIAL.lock().unwrap();
    let fx = fixture();
    let dir = ckpt_dir("empty");
    let mut model = AsRoutingModel::initial(&fx.full.as_graph(), &fx.full.prefixes());
    let err = resume_refine(&mut model, &fx.training, &config(1), &dir)
        .expect_err("an empty checkpoint dir must not resume");
    assert!(
        matches!(err, RefineError::Persist(PersistError::NoCheckpoint { .. })),
        "want NoCheckpoint, got: {err}"
    );
}

#[test]
fn resume_refuses_a_mismatched_training_set() {
    let _guard = SERIAL.lock().unwrap();
    let fx = fixture();
    let cfg = config(1);
    let dir = ckpt_dir("mismatch");
    // A completed checkpointed run leaves its final-round snapshot behind.
    let mut model = AsRoutingModel::initial(&fx.full.as_graph(), &fx.full.prefixes());
    refine_checkpointed(&mut model, &fx.training, &cfg, Some(&dir)).expect("checkpointed run");
    // Resuming against different training data must be refused loudly —
    // continuing would silently blend two datasets into one model.
    let mut model = AsRoutingModel::initial(&fx.full.as_graph(), &fx.full.prefixes());
    let err = resume_refine(&mut model, &fx.full, &cfg, &dir)
        .expect_err("a different dataset must not resume this checkpoint");
    assert!(
        matches!(err, RefineError::CheckpointMismatch(_)),
        "want CheckpointMismatch, got: {err}"
    );
}
