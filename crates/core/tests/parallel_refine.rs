//! Determinism contract of the batched parallel refinement: the trained
//! model must be byte-identical for every thread count, because fixes are
//! always applied sequentially in prefix order regardless of how the
//! per-round simulations are scheduled.

use quasar_core::prelude::*;
use quasar_netgen::prelude::*;

fn dataset_from(net: &SyntheticInternet) -> Dataset {
    Dataset::new(net.observations.iter().map(|o| ObservedRoute {
        point: o.point,
        observer_as: o.observer_as,
        prefix: o.prefix,
        as_path: o.as_path.clone(),
    }))
}

fn train_with_threads(
    full: &Dataset,
    training: &Dataset,
    threads: usize,
) -> (String, RefineReport) {
    let cfg = RefineConfig {
        threads,
        ..RefineConfig::default()
    };
    let mut model = AsRoutingModel::initial(&full.as_graph(), &full.prefixes());
    let report = refine(&mut model, training, &cfg).expect("refinement runs");
    (model.to_json().expect("model serializes"), report)
}

#[test]
fn model_is_byte_identical_across_thread_counts() {
    let net = SyntheticInternet::generate(NetGenConfig::tiny(101));
    let full = dataset_from(&net);
    let (training, _) = full.split_by_point(0.5, 7);

    let (json1, report1) = train_with_threads(&full, &training, 1);
    let (json2, report2) = train_with_threads(&full, &training, 2);
    let (json8, report8) = train_with_threads(&full, &training, 8);

    assert!(report1.converged(), "sequential training must converge");
    assert_eq!(
        json1, json2,
        "threads=2 produced a different model than threads=1"
    );
    assert_eq!(
        json1, json8,
        "threads=8 produced a different model than threads=1"
    );

    // The refinement statistics must agree too, not just the end state.
    let stats = |r: &RefineReport| {
        r.prefixes
            .iter()
            .map(|p| (p.prefix, p.iterations, p.converged, p.quasi_routers_added))
            .collect::<Vec<_>>()
    };
    assert_eq!(stats(&report1), stats(&report2));
    assert_eq!(stats(&report1), stats(&report8));
}

#[test]
fn zero_threads_means_auto_and_stays_deterministic() {
    let net = SyntheticInternet::generate(NetGenConfig::tiny(101));
    let full = dataset_from(&net);
    let (training, _) = full.split_by_point(0.5, 7);

    let (json_auto, _) = train_with_threads(&full, &training, 0);
    let (json_one, _) = train_with_threads(&full, &training, 1);
    assert_eq!(json_auto, json_one, "auto thread count changed the model");
    assert!(RefineConfig::default().effective_threads() >= 1);
}

/// Phase A and phase C simulation counters of the whole tiny preset at
/// seed 2 (what `quasar train --scale tiny --seed 2` trains): pinned, so
/// a change in how much refinement simulates, or in how much of it starts
/// warm, shows here, and equal at 1 and 4 threads.
#[test]
fn simulation_counters_are_pinned_and_thread_count_invariant() {
    let net = SyntheticInternet::generate(NetGenConfig::tiny(2));
    let full = dataset_from(&net);
    let work = |threads| {
        let cfg = TrainConfig {
            refine: RefineConfig {
                threads,
                ..RefineConfig::default()
            },
            ..TrainConfig::default()
        };
        let (_, report) = train(&full, &full, &cfg).expect("tiny trains");
        (report.phases.domains_work, report.phases.repair_work)
    };
    let one = work(1);
    assert_eq!(one, work(4), "counters differ between 1 and 4 threads");
    let (domains, repair) = one;
    assert_eq!(
        domains,
        SimWork {
            cold: 116,
            cold_messages: 19_873,
            warm: 203,
            warm_messages: 10_831,
        }
    );
    assert_eq!(
        repair,
        SimWork {
            cold: 106,
            cold_messages: 22_958,
            warm: 0,
            warm_messages: 0,
        }
    );
}
