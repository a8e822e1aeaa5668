//! The incremental trainer's work contract, counted rather than timed.
//!
//! A window of BGP updates that dirties a few prefixes must cost the
//! streaming pipeline a few domains of refinement, not a full retrain.
//! The scenario is a contiguous block of graph-preserving path shifts
//! over n/10 prefixes of the tiny seed-7 internet, applied one dirty
//! prefix per training step. Every step must re-refine at most a fifth
//! of the prefixes; a step that replays the recorded repair trace must
//! simulate exactly the re-refined ones; and the last model, trained at
//! three threads, must be byte-identical to a sequential from-scratch
//! `train` of the final path set.

use quasar::dataset_from_observations;
use quasar::model::prelude::*;
use quasar::netgen::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

const SEED: u64 = 7;

#[test]
fn one_dirty_prefix_per_step_rerefines_one_domain() {
    let internet = SyntheticInternet::generate(NetGenConfig::tiny(SEED));
    let points = &internet.observation_points;
    let before = &internet.observations;
    let n = dataset_from_observations(before).prefixes().len();

    let perturbation = perturb_observations_in_block(
        points,
        before,
        &PerturbationConfig::graph_preserving(n / 10),
        SEED ^ 0xB10C,
        (n / 3, n / 10),
    );
    let dirty = &perturbation.dirty_prefixes;
    assert!(
        !dirty.is_empty() && dirty.len() * 10 <= n,
        "{} of {n} prefixes dirty",
        dirty.len()
    );

    // Step k sees the after-set's paths for the first k dirty prefixes
    // and the before-set's paths everywhere else.
    let old_path: BTreeMap<_, _> = before
        .iter()
        .map(|o| ((o.point, o.prefix), &o.as_path))
        .collect();
    let step = |k: usize| {
        let pending: BTreeSet<_> = dirty[k..].iter().collect();
        let obs: Vec<_> = perturbation
            .after
            .iter()
            .map(|o| {
                let mut o = o.clone();
                if pending.contains(&o.prefix) {
                    o.as_path = old_path[&(o.point, o.prefix)].clone();
                }
                o
            })
            .collect();
        dataset_from_observations(&obs)
    };

    // The trainer fans out over the worker pool; the from-scratch
    // reference below trains sequentially.
    let threads = |threads| TrainConfig {
        refine: RefineConfig {
            threads,
            ..RefineConfig::default()
        },
        ..TrainConfig::default()
    };
    let cfg = threads(3);
    let mut trainer = IncrementalTrainer::new();
    trainer.train(&step(0), &cfg).expect("train the before-set");

    let mut replays = 0;
    let mut model = None;
    for k in 1..=dirty.len() {
        let (m, _, report) = trainer.train(&step(k), &cfg).expect("incremental step");
        let seen = format!(
            "step {k}: {}, {} of {n} prefixes re-refined, {} skipped",
            report.mode, report.dirty_prefixes, report.prefixes_skipped
        );
        assert!(report.dirty_prefixes * 5 <= n, "{seen}");
        if let TrainMode::Incremental {
            repair_replayed: true,
        } = report.mode
        {
            replays += 1;
            assert_eq!(n - report.prefixes_skipped, report.dirty_prefixes, "{seen}");
        }
        model = Some(m);
    }
    assert!(replays >= 1, "no step replayed the repair trace");

    let after = dataset_from_observations(&perturbation.after);
    let (full, _) = train(&after, &after, &threads(1)).expect("from-scratch train");
    assert!(
        model.expect("at least one step").to_json().unwrap() == full.to_json().unwrap(),
        "incremental model differs from a from-scratch train of the after-set"
    );
}
