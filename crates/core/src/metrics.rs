//! Match metrics between simulated and observed routes (paper §4.2).
//!
//! "We measure the degree of mismatch by determining if a route with the
//! AS-path is received by a quasi-router within an AS (RIB-In), if it is
//! selected by a quasi-router (RIB-Out), or if it could have been selected
//! but was not due to an unlucky decision in the last step of the BGP
//! decision process, the tie-breaker (potential RIB-Out)."

use crate::observed::{Dataset, ObservedRoute};
use quasar_bgpsim::aspath::AsPath;
use quasar_bgpsim::decision::Step;
use quasar_bgpsim::engine::SimulationResult;
use quasar_bgpsim::types::{Asn, Prefix, RouterId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// How well the model reproduced one observed route, ordered from best to
/// worst.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum MatchLevel {
    /// Some quasi-router selected the observed path as best (§4.2 RIB-Out
    /// match).
    RibOut,
    /// Some quasi-router received the path and lost it only in the final
    /// lowest-router-id tie-break (§4.2 potential RIB-Out match).
    PotentialRibOut,
    /// Some quasi-router received the path but eliminated it earlier.
    RibIn,
    /// No quasi-router of the AS ever learned the path.
    None,
}

/// Why a route failed to be a RIB-Out match — the mismatch taxonomy of
/// Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MismatchReason {
    /// "AS-path not available": no RIB-In match.
    NotAvailable,
    /// "shorter AS-path exists": the path was available but every selected
    /// best is shorter than the observed path.
    ShorterPathSelected,
    /// "lowest neighbor ID": the path survived to the final tie-break and
    /// lost there.
    TieBreakLost,
    /// The path was available and equal-or-longer bests were chosen for
    /// other reasons (policy steps).
    OtherPolicy,
}

/// Computes the match level of one observed route against the simulation
/// of its prefix. `routers` are the quasi-routers of the observing AS.
///
/// The observed path includes the observer AS at its head; the quasi-
/// router's Loc-RIB holds the path *without* it, so the comparison target
/// is the observed path minus its head.
pub fn match_level(
    result: &SimulationResult,
    routers: &[RouterId],
    observed_path: &AsPath,
) -> MatchLevel {
    let target = observed_path.suffix(observed_path.len().saturating_sub(1));
    let mut best_level = MatchLevel::None;
    for &r in routers {
        let Some(rib) = result.rib(r) else { continue };
        for (i, c) in rib.candidates.iter().enumerate() {
            if c.as_path != target {
                continue;
            }
            let level = match rib.outcome().eliminated_at[i] {
                None => MatchLevel::RibOut,
                Some(Step::TieBreak) => MatchLevel::PotentialRibOut,
                Some(_) => MatchLevel::RibIn,
            };
            if level < best_level {
                best_level = level;
            }
        }
    }
    best_level
}

/// Classifies a non-RIB-Out route into the Table 2 mismatch taxonomy.
pub fn mismatch_reason(
    result: &SimulationResult,
    routers: &[RouterId],
    observed_path: &AsPath,
) -> MismatchReason {
    match match_level(result, routers, observed_path) {
        MatchLevel::RibOut => unreachable!("caller filters RIB-Out matches"),
        MatchLevel::PotentialRibOut => MismatchReason::TieBreakLost,
        MatchLevel::None => MismatchReason::NotAvailable,
        MatchLevel::RibIn => {
            let target_len = observed_path.len().saturating_sub(1);
            let any_shorter_best = routers.iter().any(|&r| {
                result
                    .best_route(r)
                    .is_some_and(|b| b.as_path.len() < target_len)
            });
            if any_shorter_best {
                MismatchReason::ShorterPathSelected
            } else {
                MismatchReason::OtherPolicy
            }
        }
    }
}

/// Aggregate counts over a dataset evaluation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MatchCounts {
    /// Total observed routes evaluated.
    pub total: usize,
    /// RIB-Out matches.
    pub rib_out: usize,
    /// Potential RIB-Out matches (tie-break losses).
    pub potential_rib_out: usize,
    /// RIB-In-only matches.
    pub rib_in: usize,
    /// Paths the model never delivered to the AS.
    pub none: usize,
}

impl MatchCounts {
    /// Records one level.
    pub fn record(&mut self, level: MatchLevel) {
        self.total += 1;
        match level {
            MatchLevel::RibOut => self.rib_out += 1,
            MatchLevel::PotentialRibOut => self.potential_rib_out += 1,
            MatchLevel::RibIn => self.rib_in += 1,
            MatchLevel::None => self.none += 1,
        }
    }

    /// Fraction with an exact RIB-Out match.
    pub fn rib_out_rate(&self) -> f64 {
        self.rate(self.rib_out)
    }

    /// Fraction matched "down to the final BGP tie break" — RIB-Out plus
    /// potential RIB-Out (the abstract's >80% headline metric).
    pub fn tie_break_rate(&self) -> f64 {
        self.rate(self.rib_out + self.potential_rib_out)
    }

    /// Fraction where the path at least reached the AS (upper bound on
    /// achievable prediction accuracy, §4.2).
    pub fn rib_in_rate(&self) -> f64 {
        self.rate(self.rib_out + self.potential_rib_out + self.rib_in)
    }

    fn rate(&self, n: usize) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            n as f64 / self.total as f64
        }
    }

    /// Merges another tally into this one.
    pub fn merge(&mut self, other: &MatchCounts) {
        self.total += other.total;
        self.rib_out += other.rib_out;
        self.potential_rib_out += other.potential_rib_out;
        self.rib_in += other.rib_in;
        self.none += other.none;
    }
}

/// Per-prefix coverage: "we count for how many prefixes we find RIB-Out
/// matches for at least 50%, 90%, or 100% of their respective unique
/// AS-paths" (§4.2).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct PrefixCoverage {
    /// Prefixes evaluated.
    pub prefixes: usize,
    /// Prefixes with ≥50 % of unique paths RIB-Out matched.
    pub at_least_50: usize,
    /// Prefixes with ≥90 % of unique paths RIB-Out matched.
    pub at_least_90: usize,
    /// Prefixes with every unique path RIB-Out matched.
    pub full: usize,
}

impl PrefixCoverage {
    /// Records one prefix's (matched, unique) path counts.
    pub fn record(&mut self, matched: usize, unique: usize) {
        if unique == 0 {
            return;
        }
        self.prefixes += 1;
        let frac = matched as f64 / unique as f64;
        if frac >= 0.5 {
            self.at_least_50 += 1;
        }
        if frac >= 0.9 {
            self.at_least_90 += 1;
        }
        if matched == unique {
            self.full += 1;
        }
    }
}

/// Groups a dataset's observed routes per prefix, deduplicating identical
/// (observer AS, path) pairs — the unit the metrics count.
pub fn unique_routes_by_prefix(dataset: &Dataset) -> BTreeMap<Prefix, Vec<(Asn, AsPath)>> {
    let mut out: BTreeMap<Prefix, Vec<(Asn, AsPath)>> = BTreeMap::new();
    for ObservedRoute {
        observer_as,
        prefix,
        as_path,
        ..
    } in dataset.routes()
    {
        out.entry(*prefix)
            .or_default()
            .push((*observer_as, as_path.clone()));
    }
    for v in out.values_mut() {
        v.sort();
        v.dedup();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::AsRoutingModel;
    use quasar_topology::graph::AsGraph;

    /// Diamond 1-2-3 / 1-4-3 with prefix at 3: AS1 selects "2 3" (lower
    /// neighbor id), "4 3" is a tie-break loser.
    fn setup() -> (AsRoutingModel, SimulationResult, Prefix) {
        let paths = vec![AsPath::from_u32s(&[1, 2, 3]), AsPath::from_u32s(&[1, 4, 3])];
        let graph = AsGraph::from_paths(&paths);
        let p = Prefix::for_origin(Asn(3));
        let mut origins = BTreeMap::new();
        origins.insert(p, Asn(3));
        let m = AsRoutingModel::initial(&graph, &origins);
        let res = m.simulate(p).unwrap();
        (m, res, p)
    }

    #[test]
    fn rib_out_detected() {
        let (m, res, _) = setup();
        let routers = m.quasi_routers_of(Asn(1));
        let observed = AsPath::from_u32s(&[1, 2, 3]);
        assert_eq!(match_level(&res, &routers, &observed), MatchLevel::RibOut);
    }

    #[test]
    fn potential_rib_out_detected() {
        let (m, res, _) = setup();
        let routers = m.quasi_routers_of(Asn(1));
        let observed = AsPath::from_u32s(&[1, 4, 3]);
        assert_eq!(
            match_level(&res, &routers, &observed),
            MatchLevel::PotentialRibOut
        );
        assert_eq!(
            mismatch_reason(&res, &routers, &observed),
            MismatchReason::TieBreakLost
        );
    }

    #[test]
    fn none_when_path_never_arrives() {
        let (m, res, _) = setup();
        let routers = m.quasi_routers_of(Asn(1));
        let observed = AsPath::from_u32s(&[1, 9, 3]);
        assert_eq!(match_level(&res, &routers, &observed), MatchLevel::None);
        assert_eq!(
            mismatch_reason(&res, &routers, &observed),
            MismatchReason::NotAvailable
        );
    }

    #[test]
    fn origin_observation_is_rib_out() {
        let (m, res, _) = setup();
        let routers = m.quasi_routers_of(Asn(3));
        let observed = AsPath::from_u32s(&[3]);
        assert_eq!(match_level(&res, &routers, &observed), MatchLevel::RibOut);
    }

    #[test]
    fn counts_and_rates() {
        let mut c = MatchCounts::default();
        c.record(MatchLevel::RibOut);
        c.record(MatchLevel::RibOut);
        c.record(MatchLevel::PotentialRibOut);
        c.record(MatchLevel::None);
        assert_eq!(c.total, 4);
        assert!((c.rib_out_rate() - 0.5).abs() < 1e-12);
        assert!((c.tie_break_rate() - 0.75).abs() < 1e-12);
        assert!((c.rib_in_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn coverage_thresholds() {
        let mut cov = PrefixCoverage::default();
        cov.record(1, 2); // 50%
        cov.record(9, 10); // 90%
        cov.record(3, 3); // 100%
        cov.record(0, 5); // 0%
        assert_eq!(cov.prefixes, 4);
        assert_eq!(cov.at_least_50, 3);
        assert_eq!(cov.at_least_90, 2);
        assert_eq!(cov.full, 1);
    }

    #[test]
    fn merge_adds_fields() {
        let mut a = MatchCounts::default();
        a.record(MatchLevel::RibOut);
        let mut b = MatchCounts::default();
        b.record(MatchLevel::None);
        a.merge(&b);
        assert_eq!(a.total, 2);
        assert_eq!(a.none, 1);
    }
}
