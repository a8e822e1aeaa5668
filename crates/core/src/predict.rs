//! Prediction and evaluation (paper §4.2/§4.7).
//!
//! "The evaluation proceeds by executing a C-BGP simulation for each prefix
//! and then comparing the predicted AS-path according to the AS-routing
//! model with the actual observed AS-path in the Internet."

use crate::metrics::{
    match_level, mismatch_reason, unique_routes_by_prefix, MatchCounts, MatchLevel, MismatchReason,
    PrefixCoverage,
};
use crate::model::AsRoutingModel;
use crate::observed::Dataset;
use quasar_bgpsim::aspath::AsPath;
use quasar_bgpsim::engine::SimulationResult;
use quasar_bgpsim::types::{Asn, RouterId};
use serde::{Deserialize, Serialize};

/// Full evaluation of a model against a dataset.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Evaluation {
    /// Match tallies over all unique (observer AS, path) routes.
    pub counts: MatchCounts,
    /// Per-prefix RIB-Out coverage thresholds.
    pub coverage: PrefixCoverage,
    /// Mismatch taxonomy: `[not-available, shorter-selected, tie-break,
    /// other-policy]` counts.
    pub reasons: [usize; 4],
}

impl Evaluation {
    fn record_reason(&mut self, r: MismatchReason) {
        let i = match r {
            MismatchReason::NotAvailable => 0,
            MismatchReason::ShorterPathSelected => 1,
            MismatchReason::TieBreakLost => 2,
            MismatchReason::OtherPolicy => 3,
        };
        self.reasons[i] += 1;
    }

    /// Merges a per-prefix evaluation into the total.
    pub fn merge(&mut self, other: &Evaluation) {
        self.counts.merge(&other.counts);
        self.coverage.prefixes += other.coverage.prefixes;
        self.coverage.at_least_50 += other.coverage.at_least_50;
        self.coverage.at_least_90 += other.coverage.at_least_90;
        self.coverage.full += other.coverage.full;
        for i in 0..4 {
            self.reasons[i] += other.reasons[i];
        }
    }
}

/// The model's answer for one (prefix, observation AS) pair, derived from
/// a single per-prefix simulation: the best route at every quasi-router of
/// the observing AS, plus the §4.2 match classification when an observed
/// AS-path is supplied for comparison.
///
/// This is the per-query unit `quasar-serve` caches and serves; the batch
/// [`evaluate`] driver is built from the same per-prefix pieces.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoutePrediction {
    /// Best AS-path selected by each quasi-router of the observing AS
    /// (ascending router id; `None` = no route to the prefix).
    pub best: Vec<(RouterId, Option<AsPath>)>,
    /// Match level of the observed path, when one was supplied.
    pub match_level: Option<MatchLevel>,
    /// Mismatch taxonomy, when an observed path was supplied and it was
    /// not a RIB-Out match.
    pub mismatch: Option<MismatchReason>,
}

/// Computes the prediction for one (prefix, observation AS) pair from an
/// already-converged simulation of that prefix. `routers` are the quasi-
/// routers of the observing AS (as returned by
/// [`AsRoutingModel::quasi_routers_of`]); `observed` optionally supplies
/// the real-world AS-path to classify against (observer AS at its head, as
/// in a RouteViews feed).
pub fn predict_route(
    result: &SimulationResult,
    routers: &[RouterId],
    observed: Option<&AsPath>,
) -> RoutePrediction {
    let best = routers
        .iter()
        .map(|&r| (r, result.best_route(r).map(|b| b.as_path.clone())))
        .collect();
    let (level, mismatch) = match observed {
        None => (None, None),
        Some(path) => {
            let level = match_level(result, routers, path);
            let reason = if level == MatchLevel::RibOut {
                None
            } else {
                Some(mismatch_reason(result, routers, path))
            };
            (Some(level), reason)
        }
    };
    RoutePrediction {
        best,
        match_level: level,
        mismatch,
    }
}

/// Scores every unique (observer AS, path) route of one prefix against its
/// simulation. `sim` is `None` when the prefix is unknown to the model or
/// its simulation diverged — every route then counts as unpredictable.
///
/// [`evaluate`] folds this per-prefix unit over a whole dataset; a serving
/// layer can call it directly with a cached [`SimulationResult`].
pub fn evaluate_prefix(
    model: &AsRoutingModel,
    sim: Option<&SimulationResult>,
    routes: &[(Asn, AsPath)],
) -> Evaluation {
    let mut ev = Evaluation::default();
    if let Some(res) = sim {
        let mut matched = 0usize;
        for (observer, path) in routes {
            let routers = model.quasi_routers_of(*observer);
            let level = match_level(res, &routers, path);
            ev.counts.record(level);
            if level == MatchLevel::RibOut {
                matched += 1;
            } else {
                ev.record_reason(mismatch_reason(res, &routers, path));
            }
        }
        ev.coverage.record(matched, routes.len());
    } else {
        // Unknown prefix or diverged simulation: unpredictable.
        for _ in routes {
            ev.counts.record(MatchLevel::None);
            ev.record_reason(MismatchReason::NotAvailable);
        }
        ev.coverage.record(0, routes.len());
    }
    ev
}

/// Evaluates `model` against every unique (observer AS, AS-path) route of
/// `dataset`, one simulation per prefix, in parallel. Prefixes whose origin
/// is unknown to the model count as unmatched (`MatchLevel::None`) — the
/// model simply cannot predict them.
pub fn evaluate(model: &AsRoutingModel, dataset: &Dataset) -> Evaluation {
    let by_prefix = unique_routes_by_prefix(dataset);
    let mut partials: Vec<Evaluation> = vec![Evaluation::default(); by_prefix.len()];
    let scored: Result<(), std::convert::Infallible> = crate::pool::run(
        crate::pool::all_cores(),
        by_prefix.iter().collect(),
        |(prefix, routes), scratch| {
            let sim = if model.prefixes().contains_key(prefix) {
                model.simulate_with(*prefix, scratch).ok()
            } else {
                None
            };
            evaluate_prefix(model, sim.as_ref(), routes)
        },
        |i, ev| {
            partials[i] = ev;
            Ok(())
        },
    );
    let Ok(()) = scored;

    let mut total = Evaluation::default();
    for p in &partials {
        total.merge(p);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observed::ObservedRoute;
    use crate::refine::{refine, RefineConfig};
    use quasar_bgpsim::aspath::AsPath;
    use quasar_bgpsim::types::{Asn, Prefix};

    fn dataset() -> Dataset {
        let routes = vec![
            (&[1u32, 2, 3][..], 3u32, 0u32),
            (&[1, 4, 3], 3, 0),
            (&[5, 4, 3], 3, 1),
            (&[1, 2], 2, 0),
            (&[5, 4, 2, 0x7D0], 0x7D0, 1),
        ];
        Dataset::new(routes.into_iter().map(|(p, origin, point)| ObservedRoute {
            point,
            observer_as: Asn(p[0]),
            prefix: Prefix::for_origin(Asn(origin)),
            as_path: AsPath::from_u32s(p),
        }))
    }

    #[test]
    fn refined_model_scores_perfectly_on_training() {
        let d = dataset();
        let graph = d.as_graph();
        let mut model = AsRoutingModel::initial(&graph, &d.prefixes());
        refine(&mut model, &d, &RefineConfig::default()).unwrap();
        let ev = evaluate(&model, &d);
        assert_eq!(ev.counts.rib_out, ev.counts.total);
        assert_eq!(ev.coverage.full, ev.coverage.prefixes);
        assert!((ev.counts.rib_out_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn unrefined_model_scores_partially() {
        let d = dataset();
        let graph = d.as_graph();
        let model = AsRoutingModel::initial(&graph, &d.prefixes());
        let ev = evaluate(&model, &d);
        assert_eq!(ev.counts.total, d.len());
        assert!(ev.counts.rib_out < ev.counts.total);
        // Diamond ties show up as potential RIB-Out.
        assert!(ev.counts.potential_rib_out > 0);
    }

    #[test]
    fn unknown_prefix_counts_as_none() {
        let d = dataset();
        let graph = d.as_graph();
        let model = AsRoutingModel::initial(&graph, &d.prefixes());
        let extra = Dataset::new(vec![ObservedRoute {
            point: 9,
            observer_as: Asn(1),
            prefix: Prefix::for_origin(Asn(777)),
            as_path: AsPath::from_u32s(&[1, 777]),
        }]);
        let ev = evaluate(&model, &extra);
        assert_eq!(ev.counts.none, 1);
        assert_eq!(ev.reasons[0], 1);
    }

    #[test]
    fn predict_route_reports_best_and_match_class() {
        let d = dataset();
        let graph = d.as_graph();
        let model = AsRoutingModel::initial(&graph, &d.prefixes());
        let prefix = Prefix::for_origin(Asn(3));
        let res = model.simulate(prefix).unwrap();
        let routers = model.quasi_routers_of(Asn(1));

        // No observed path: best routes only, no classification.
        let p = predict_route(&res, &routers, None);
        assert_eq!(p.best.len(), routers.len());
        assert!(p.best.iter().all(|(_, b)| b.is_some()));
        assert_eq!(p.match_level, None);
        assert_eq!(p.mismatch, None);

        // The tie-break winner is a RIB-Out match on the initial model.
        let winner = AsPath::from_u32s(&[1, 2, 3]);
        let p = predict_route(&res, &routers, Some(&winner));
        assert_eq!(p.match_level, Some(MatchLevel::RibOut));
        assert_eq!(p.mismatch, None);

        // The tie-break loser classifies as potential RIB-Out.
        let loser = AsPath::from_u32s(&[1, 4, 3]);
        let p = predict_route(&res, &routers, Some(&loser));
        assert_eq!(p.match_level, Some(MatchLevel::PotentialRibOut));
        assert_eq!(p.mismatch, Some(MismatchReason::TieBreakLost));
    }

    #[test]
    fn evaluate_prefix_matches_batch_evaluate() {
        let d = dataset();
        let graph = d.as_graph();
        let model = AsRoutingModel::initial(&graph, &d.prefixes());
        let mut total = Evaluation::default();
        for (prefix, routes) in unique_routes_by_prefix(&d) {
            let sim = model.simulate(prefix).ok();
            total.merge(&evaluate_prefix(&model, sim.as_ref(), &routes));
        }
        assert_eq!(total, evaluate(&model, &d));
    }

    #[test]
    fn evaluation_is_deterministic_despite_parallelism() {
        let d = dataset();
        let graph = d.as_graph();
        let model = AsRoutingModel::initial(&graph, &d.prefixes());
        let a = evaluate(&model, &d);
        let b = evaluate(&model, &d);
        assert_eq!(a, b);
    }
}
