//! End-to-end pipeline test: synthetic Internet → feeds → split → initial
//! model → refinement → training reproduction + validation prediction.
//! This is the paper's §4/§5 pipeline in miniature.

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

#[test]
fn training_set_reproduced_exactly() {
    let net = SyntheticInternet::generate(NetGenConfig::tiny(101));
    let full = dataset_from(&net);
    let (training, _validation) = full.split_by_point(0.5, 7);

    let mut model = AsRoutingModel::initial(&full.as_graph(), &full.prefixes());
    let report = refine(&mut model, &training, &RefineConfig::default()).unwrap();
    assert!(
        report.converged(),
        "refinement did not converge: {} of {} prefixes",
        report.prefixes.iter().filter(|p| !p.converged).count(),
        report.prefixes.len()
    );

    let ev = evaluate(&model, &training);
    assert_eq!(
        ev.counts.rib_out, ev.counts.total,
        "training reproduction imperfect: {:?}",
        ev.counts
    );
}

#[test]
fn validation_prediction_beats_baseline() {
    let net = SyntheticInternet::generate(NetGenConfig::tiny(201));
    let full = dataset_from(&net);
    let (training, validation) = full.split_by_point(0.5, 7);
    assert!(!validation.is_empty());

    let graph = full.as_graph();
    let mut model = AsRoutingModel::initial(&graph, &full.prefixes());
    refine(&mut model, &training, &RefineConfig::default()).unwrap();
    let refined_ev = evaluate(&model, &validation);

    let base = shortest_path_model(&graph, &full.prefixes());
    let base_ev = evaluate(&base, &validation);

    assert!(
        refined_ev.counts.tie_break_rate() >= base_ev.counts.tie_break_rate(),
        "refined {:?} not better than baseline {:?}",
        refined_ev.counts,
        base_ev.counts
    );
    // The abstract's headline: >80% matched down to the final tie break.
    assert!(
        refined_ev.counts.tie_break_rate() > 0.8,
        "validation tie-break rate {:.3} too low ({:?})",
        refined_ev.counts.tie_break_rate(),
        refined_ev.counts
    );
}

#[test]
fn origin_split_prediction() {
    let net = SyntheticInternet::generate(NetGenConfig::tiny(303));
    let full = dataset_from(&net);
    let (training, validation) = full.split_by_origin(0.5, 9);
    assert!(!validation.is_empty());

    let mut model = AsRoutingModel::initial(&full.as_graph(), &full.prefixes());
    refine(&mut model, &training, &RefineConfig::default()).unwrap();
    let ev = evaluate(&model, &validation);
    // Unseen prefixes: the quasi-router topology transfers but per-prefix
    // policies cannot; RIB-In should still be high.
    assert!(
        ev.counts.rib_in_rate() > 0.5,
        "rib-in rate {:.3} too low",
        ev.counts.rib_in_rate()
    );
}

#[test]
fn quasi_router_growth_is_bounded_by_diversity() {
    let net = SyntheticInternet::generate(NetGenConfig::tiny(505));
    let full = dataset_from(&net);
    let (training, _) = full.split_by_point(0.5, 7);

    let mut model = AsRoutingModel::initial(&full.as_graph(), &full.prefixes());
    let before = model.stats().quasi_routers;
    refine(&mut model, &training, &RefineConfig::default()).unwrap();
    let after = model.stats().quasi_routers;
    assert!(after >= before);
    // A quasi-router is only ever added to capture an extra concurrent
    // path; growth must stay well below the number of observed routes.
    assert!(
        after - before <= training.len(),
        "unreasonable growth: {before} -> {after}"
    );
}
