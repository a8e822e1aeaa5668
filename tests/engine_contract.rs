//! The simulation engine's buffer-reuse contract, checked on a trained
//! model: a simulation on a reused `SimScratch` returns exactly what a
//! simulation on a fresh one returns — every router's candidates, decision
//! outcome and best route — for every prefix. The scratch also moves from
//! the trained model to a copy with one more quasi-router and back, so its
//! buffers are laid out anew between the two networks.

use quasar::bgpsim::engine::SimScratch;
use quasar::model::prelude::*;
use quasar::netgen::prelude::*;

/// Simulates every prefix of `model` on `scratch` and on a fresh scratch
/// and asserts the two results agree router by router.
fn assert_reuse_matches_fresh(model: &AsRoutingModel, scratch: &mut SimScratch, label: &str) {
    for &prefix in model.prefixes().keys() {
        let reused = model.simulate_with(prefix, scratch).expect("simulates");
        let fresh = model.simulate(prefix).expect("simulates");
        assert_eq!(reused.ribs().count(), fresh.ribs().count());
        for (a, b) in reused.ribs().zip(fresh.ribs()) {
            assert_eq!(a.router, b.router);
            let at = format!("{label}: prefix {prefix} at {}", a.router);
            assert_eq!(a.candidates, b.candidates, "candidates differ, {at}");
            assert_eq!(a.outcome(), b.outcome(), "decision outcome differs, {at}");
            assert_eq!(a.best(), b.best(), "best route differs, {at}");
        }
    }
}

#[test]
fn reused_scratch_simulates_like_a_fresh_one() {
    let net = SyntheticInternet::generate(NetGenConfig::tiny(5));
    let dataset = quasar::dataset_from(&net);
    let mut trained = AsRoutingModel::initial(&dataset.as_graph(), &dataset.prefixes());
    refine(&mut trained, &dataset, &RefineConfig::default()).expect("tiny preset trains");

    // Duplicate the best-connected quasi-router: its copy adds as many
    // sessions as it has eBGP peers.
    let network = trained.network();
    let src = *network
        .routers()
        .iter()
        .max_by_key(|&&r| (network.peers_of(r).len(), std::cmp::Reverse(r)))
        .expect("trained model has routers");
    let mut grown = trained.clone();
    grown.duplicate_quasi_router(src);
    assert_eq!(grown.network().num_routers(), network.num_routers() + 1);

    let mut scratch = SimScratch::new();
    assert_reuse_matches_fresh(&trained, &mut scratch, "trained");
    assert_reuse_matches_fresh(&grown, &mut scratch, "with one duplicate");
    assert_reuse_matches_fresh(&trained, &mut scratch, "trained again");
}
