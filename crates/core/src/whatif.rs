//! Structured what-if analysis (paper §1).
//!
//! "We seek to be able to answer specific what-if questions, e.g., what if
//! a certain peering link was removed, or what-if we change policies
//! thus?" — this module turns a refined [`AsRoutingModel`] into a scenario
//! engine: apply a list of [`Change`]s to a copy of the model, re-simulate,
//! and report per-(router, prefix) routing differences.

use crate::model::AsRoutingModel;
use quasar_bgpsim::aspath::AsPath;
use quasar_bgpsim::engine::SimulationResult;
use quasar_bgpsim::error::SimError;
use quasar_bgpsim::policy::{Action, PolicyRule, RouteMatch};
use quasar_bgpsim::types::{Asn, Prefix, RouterId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One hypothetical change to the Internet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Change {
    /// Remove the adjacency between two ASes (de-peering).
    Depeer(Asn, Asn),
    /// Add a new adjacency between two ASes.
    AddPeering(Asn, Asn),
    /// AS `asn` stops announcing `prefix` towards AS `neighbor`
    /// (selective filtering).
    FilterPrefix {
        /// The filtering AS.
        asn: Asn,
        /// The neighbor the announcement is withheld from.
        neighbor: Asn,
        /// The filtered prefix.
        prefix: Prefix,
    },
}

/// How one (router, prefix) pair is affected.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Impact {
    /// Path changed from the first to the second.
    Rerouted(AsPath, AsPath),
    /// Reachability lost (previous path recorded).
    Lost(AsPath),
    /// Reachability gained (new path recorded).
    Gained(AsPath),
}

/// The routing difference between the base model and the scenario.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RoutingDiff {
    /// (router, prefix) pairs whose best route changed, with the change.
    pub impacts: Vec<(RouterId, Prefix, Impact)>,
    /// Pairs evaluated in total.
    pub pairs: usize,
    /// Prefixes whose simulation diverged in the scenario (policy
    /// oscillation introduced by the change).
    pub diverged_prefixes: usize,
}

impl RoutingDiff {
    /// Folds one prefix's base/scenario simulation pair into the diff —
    /// the per-prefix unit behind [`Scenario::diff`], exposed so a serving
    /// layer can drive it from cached simulations. `after` is `None` when
    /// the scenario simulation diverged (counted, routers skipped). Pairs
    /// are recorded in `before`'s deterministic RIB order, so folding
    /// prefixes in ascending order reproduces [`Scenario::diff_for`]
    /// exactly.
    pub fn record_prefix(
        &mut self,
        prefix: Prefix,
        before: &SimulationResult,
        after: Option<&SimulationResult>,
    ) {
        let Some(after) = after else {
            self.diverged_prefixes += 1;
            return;
        };
        for rib in before.ribs() {
            self.pairs += 1;
            let old = rib.best().map(|r| r.as_path.clone());
            let new = after
                .rib(rib.router)
                .and_then(|r| r.best())
                .map(|r| r.as_path.clone());
            let impact = match (old, new) {
                (Some(a), Some(b)) if a == b => None,
                (Some(a), Some(b)) => Some(Impact::Rerouted(a, b)),
                (Some(a), None) => Some(Impact::Lost(a)),
                (None, Some(b)) => Some(Impact::Gained(b)),
                (None, None) => None,
            };
            if let Some(i) = impact {
                self.impacts.push((rib.router, prefix, i));
            }
        }
    }

    /// Pairs that kept their route.
    pub fn unchanged(&self) -> usize {
        self.pairs - self.impacts.len()
    }

    /// Count of re-routed pairs.
    pub fn rerouted(&self) -> usize {
        self.impacts
            .iter()
            .filter(|(_, _, i)| matches!(i, Impact::Rerouted(..)))
            .count()
    }

    /// Count of pairs that lost reachability.
    pub fn lost(&self) -> usize {
        self.impacts
            .iter()
            .filter(|(_, _, i)| matches!(i, Impact::Lost(_)))
            .count()
    }

    /// Count of pairs that gained reachability.
    pub fn gained(&self) -> usize {
        self.impacts
            .iter()
            .filter(|(_, _, i)| matches!(i, Impact::Gained(_)))
            .count()
    }

    /// The ASes whose routers are most affected, descending.
    pub fn most_affected_ases(&self) -> Vec<(Asn, usize)> {
        let mut counts: BTreeMap<Asn, usize> = BTreeMap::new();
        for (r, _, _) in &self.impacts {
            *counts.entry(r.asn()).or_default() += 1;
        }
        let mut v: Vec<(Asn, usize)> = counts.into_iter().collect();
        v.sort_by_key(|&(a, n)| (std::cmp::Reverse(n), a));
        v
    }
}

/// Applies one hypothetical [`Change`] directly to a model — the editing
/// primitive behind [`Scenario::apply`], exposed so a serving layer can
/// build a scenario model without cloning the base twice.
pub fn apply_change(model: &mut AsRoutingModel, change: &Change) {
    match *change {
        Change::Depeer(a, b) => {
            model.depeer(a, b);
        }
        Change::AddPeering(a, b) => {
            model.add_peering(a, b);
        }
        Change::FilterPrefix {
            asn,
            neighbor,
            prefix,
        } => {
            for q in model.quasi_routers_of(asn) {
                for peer in model.network().peers_of(q) {
                    if peer.asn() != neighbor {
                        continue;
                    }
                    if let Ok(policy) = model.network_mut().export_policy_mut(q, peer) {
                        policy
                            .push_front(PolicyRule::new(RouteMatch::prefix(prefix), Action::Deny));
                    }
                }
            }
        }
    }
}

/// A what-if scenario over a base model.
#[derive(Debug, Clone)]
pub struct Scenario {
    base: AsRoutingModel,
    edited: AsRoutingModel,
}

impl Scenario {
    /// Starts a scenario from a (typically refined) model.
    pub fn new(base: &AsRoutingModel) -> Self {
        Scenario {
            base: base.clone(),
            edited: base.clone(),
        }
    }

    /// Applies a change to the scenario copy. Returns `self` for chaining.
    pub fn apply(mut self, change: Change) -> Self {
        apply_change(&mut self.edited, &change);
        self
    }

    /// Simulates base and scenario for every model prefix and reports the
    /// difference at every router.
    pub fn diff(&self) -> Result<RoutingDiff, SimError> {
        self.diff_for(self.base.prefixes().keys().copied())
    }

    /// Like [`Scenario::diff`] but restricted to chosen prefixes.
    pub fn diff_for(
        &self,
        prefixes: impl IntoIterator<Item = Prefix>,
    ) -> Result<RoutingDiff, SimError> {
        let mut out = RoutingDiff::default();
        for prefix in prefixes {
            let before = self.base.simulate(prefix)?;
            let after = match self.edited.simulate(prefix) {
                Ok(r) => Some(r),
                Err(SimError::Divergence { .. }) => None,
                Err(e) => return Err(e),
            };
            out.record_prefix(prefix, &before, after.as_ref());
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quasar_bgpsim::aspath::AsPath;
    use quasar_topology::graph::AsGraph;

    /// Diamond 1-2-3 / 1-4-3, prefix at 3.
    fn model() -> AsRoutingModel {
        let paths = vec![AsPath::from_u32s(&[1, 2, 3]), AsPath::from_u32s(&[1, 4, 3])];
        let graph = AsGraph::from_paths(&paths);
        let mut origins = BTreeMap::new();
        origins.insert(Prefix::for_origin(Asn(3)), Asn(3));
        AsRoutingModel::initial(&graph, &origins)
    }

    #[test]
    fn depeer_reroutes_via_alternative() {
        let m = model();
        let diff = Scenario::new(&m)
            .apply(Change::Depeer(Asn(2), Asn(3)))
            .diff()
            .unwrap();
        // AS1 re-routes 2 3 -> 4 3; AS2 re-routes 3 -> 1 4 3.
        assert_eq!(diff.lost(), 0);
        assert!(diff.rerouted() >= 2, "{diff:?}");
        let affected = diff.most_affected_ases();
        assert!(!affected.is_empty());
    }

    #[test]
    fn depeer_everything_loses_reachability() {
        let m = model();
        let diff = Scenario::new(&m)
            .apply(Change::Depeer(Asn(2), Asn(3)))
            .apply(Change::Depeer(Asn(4), Asn(3)))
            .diff()
            .unwrap();
        // The origin keeps its local route; everyone else loses it.
        assert_eq!(diff.lost(), 3, "{diff:?}");
    }

    #[test]
    fn add_peering_creates_shortcut() {
        // Line 1-2-3 with prefix at 3; adding 1-3 gives AS1 a direct path.
        let paths = vec![AsPath::from_u32s(&[1, 2, 3])];
        let graph = AsGraph::from_paths(&paths);
        let mut origins = BTreeMap::new();
        origins.insert(Prefix::for_origin(Asn(3)), Asn(3));
        let m = AsRoutingModel::initial(&graph, &origins);
        let diff = Scenario::new(&m)
            .apply(Change::AddPeering(Asn(1), Asn(3)))
            .diff()
            .unwrap();
        assert!(diff.impacts.iter().any(|(r, _, i)| r.asn() == Asn(1)
            && matches!(i, Impact::Rerouted(_, b) if b.to_string() == "3")));
    }

    #[test]
    fn filter_prefix_is_selective() {
        let m = model();
        let p = Prefix::for_origin(Asn(3));
        let diff = Scenario::new(&m)
            .apply(Change::FilterPrefix {
                asn: Asn(3),
                neighbor: Asn(2),
                prefix: p,
            })
            .diff()
            .unwrap();
        // AS2 loses the direct route but regains via AS1: rerouted, and
        // AS1 flips to AS4. Nothing is lost outright.
        assert_eq!(diff.lost(), 0, "{diff:?}");
        assert!(diff.rerouted() >= 1);
    }

    #[test]
    fn empty_scenario_is_identity() {
        let m = model();
        let diff = Scenario::new(&m).diff().unwrap();
        assert!(diff.impacts.is_empty());
        assert_eq!(diff.unchanged(), diff.pairs);
    }
}
