//! Cross-crate integration tests: the full pipeline through every crate —
//! netgen (ground truth) → mrt (archive round-trip) → core (training +
//! prediction) → diversity (analyses) — exercised through the `quasar`
//! façade exactly as a downstream user would.

use quasar::diversity::prelude::*;
use quasar::model::prelude::*;
use quasar::netgen::prelude::*;
use quasar::topology::prelude::*;

fn internet() -> SyntheticInternet {
    SyntheticInternet::generate(NetGenConfig::tiny(777))
}

#[test]
fn feeds_survive_the_mrt_archive() {
    let net = internet();
    // Through the archive format and back.
    let bytes = export_table_dump_v2(&net.observation_points, &net.observations);
    let (_, observations) = import_table_dump_v2(&bytes).expect("well-formed dump");
    let direct = quasar::dataset_from(&net);
    let via_mrt = quasar::dataset_from_observations(&observations);
    assert_eq!(direct, via_mrt, "archive round-trip altered the dataset");
}

#[test]
fn full_train_predict_cycle_through_facade() {
    let net = internet();
    let dataset = quasar::dataset_from(&net);
    let (training, validation) = dataset.split_by_point(0.5, 3);

    let mut model = AsRoutingModel::initial(&dataset.as_graph(), &dataset.prefixes());
    let report = refine(&mut model, &training, &RefineConfig::default()).unwrap();
    assert!(report.converged());

    let train_ev = evaluate(&model, &training);
    assert_eq!(train_ev.counts.rib_out, train_ev.counts.total);

    let valid_ev = evaluate(&model, &validation);
    assert!(valid_ev.counts.tie_break_rate() > 0.5);
}

#[test]
fn diversity_analyses_agree_with_ground_truth_shape() {
    let net = internet();
    let dataset = quasar::dataset_from(&net);

    let hist = PathDiversityHistogram::from_dataset(&dataset);
    assert!(hist.total_pairs() > 0);
    assert!(
        hist.fraction_with_more_than(1) > 0.05,
        "generator must produce visible route diversity, got {:.3}",
        hist.fraction_with_more_than(1)
    );

    let quant = DiversityQuantiles::from_dataset(&dataset);
    assert!(quant.fraction_at_least(2) > 0.0);

    let summary = summarize(&dataset, &net.as_topology.tier1());
    assert_eq!(summary.routes, dataset.len());
    assert!(summary.pruned_nodes <= summary.ases);
}

#[test]
fn relationship_inference_recovers_most_ground_truth() {
    let net = internet();
    let dataset = quasar::dataset_from(&net);
    let graph = dataset.as_graph();
    let paths = dataset.paths();
    let level1 = tier1_clique(&graph, &net.as_topology.tier1());
    let inferred = infer_relationships(&graph, &paths, &level1, &InferenceConfig::default());
    let truth = net.as_topology.ground_truth_relationships();

    let mut correct = 0;
    let mut total = 0;
    for (&(a, b), rel) in inferred.iter() {
        if let Some(t) = truth.get(a, b) {
            total += 1;
            let ok = match (rel, t) {
                (
                    Relationship::CustomerProvider { provider: p1, .. },
                    Relationship::CustomerProvider { provider: p2, .. },
                ) => *p1 == p2,
                (Relationship::PeerPeer | Relationship::Sibling, Relationship::PeerPeer) => true,
                _ => false,
            };
            correct += usize::from(ok);
        }
    }
    assert!(total > 0);
    let acc = correct as f64 / total as f64;
    assert!(acc > 0.6, "inference accuracy {acc:.2} too low");
}

#[test]
fn what_if_depeering_changes_routing_but_stays_convergent() {
    let net = internet();
    let dataset = quasar::dataset_from(&net);
    let mut model = AsRoutingModel::initial(&dataset.as_graph(), &dataset.prefixes());
    refine(&mut model, &dataset, &RefineConfig::default()).unwrap();

    // De-peer the busiest observed adjacency.
    let mut edge_use = std::collections::BTreeMap::new();
    for r in dataset.routes() {
        for (a, b) in r.as_path.edges() {
            *edge_use
                .entry(if a < b { (a, b) } else { (b, a) })
                .or_insert(0usize) += 1;
        }
    }
    let (&(a, b), _) = edge_use.iter().max_by_key(|(_, &n)| n).unwrap();
    let mut edited = model.clone();
    assert!(edited.depeer(a, b) > 0);

    let mut changed = 0;
    for &prefix in model.prefixes().keys() {
        let before = model.simulate(prefix).unwrap();
        let after = edited.simulate(prefix).unwrap();
        for rib in before.ribs() {
            let x = rib.best().map(|r| r.as_path.clone());
            let y = after
                .rib(rib.router)
                .and_then(|r| r.best())
                .map(|r| r.as_path.clone());
            if x != y {
                changed += 1;
            }
        }
    }
    assert!(changed > 0, "de-peering the busiest edge changed nothing");
}
