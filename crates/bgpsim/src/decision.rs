//! The BGP decision process (paper §2, Figure 1).
//!
//! Given the candidate routes for one prefix at one router, the process runs
//! a fixed sequence of elimination steps until a single best route remains.
//! Unlike a production implementation we also record, for every candidate,
//! *which step eliminated it*. The paper's "potential RIB-Out match" metric
//! (§4.2) is defined as "the observed route is eliminated in the last
//! tie-breaking step ('Lowest Neighbor IP address')", which is only
//! observable with this bookkeeping.
//!
//! Step order (C-BGP semantics, which the paper relies on):
//! 1. locally originated beats learned
//! 2. highest local-pref
//! 3. shortest AS-path
//! 4. lowest origin (IGP < EGP < Incomplete)
//! 5. lowest MED — the paper *requires* always-compare-MED ("We require that
//!    MED values are always compared during the BGP decision process, even
//!    for routes learned from different neighbor ASes", §4.6); the classic
//!    per-neighbor comparison is also provided for the baseline models
//! 6. eBGP-learned beats iBGP-learned
//! 7. lowest IGP cost to exit (hot-potato)
//! 8. lowest neighbor router id (final tie-break)

use crate::route::{LearnedVia, Route};
use serde::{Deserialize, Serialize};
use std::borrow::Borrow;

/// The elimination steps, in decision order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Step {
    /// Lost to a locally originated route.
    LocalOrigination,
    /// Lower local-pref than some candidate.
    LocalPref,
    /// Longer AS-path than some candidate.
    AsPathLength,
    /// Worse (higher) origin than some candidate.
    Origin,
    /// Higher MED than some candidate (comparison scope per [`MedMode`]).
    Med,
    /// iBGP-learned while an eBGP-learned candidate remained.
    EbgpOverIbgp,
    /// Higher IGP cost to the exit point (hot-potato).
    IgpCost,
    /// Lost the final lowest-neighbor-router-id tie-break.
    TieBreak,
}

/// Scope of the MED comparison in step 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum MedMode {
    /// Compare MED across all remaining candidates regardless of neighbor
    /// AS. Required by the paper's refinement heuristic (§4.6).
    #[default]
    AlwaysCompare,
    /// Classic RFC 4271 behaviour: MED only ranks routes from the same
    /// neighbor AS. A route is eliminated if a same-neighbor candidate has
    /// strictly lower MED.
    PerNeighbor,
}

/// Tunables of the decision process.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct DecisionConfig {
    /// MED comparison scope.
    pub med_mode: MedMode,
}

/// The result of running the decision process over a candidate set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecisionOutcome {
    /// Index (into the candidate slice) of the selected best route, or
    /// `None` if the candidate set was empty.
    pub best: Option<usize>,
    /// For each candidate: `None` if it won, otherwise the step that
    /// eliminated it.
    pub eliminated_at: Vec<Option<Step>>,
}

impl DecisionOutcome {
    /// Indices of routes that survived to the final tie-break (the winner
    /// plus every candidate with `Some(Step::TieBreak)`). These are exactly
    /// the routes the paper counts as "potential RIB-Out" candidates.
    pub fn tie_break_survivors(&self) -> Vec<usize> {
        self.eliminated_at
            .iter()
            .enumerate()
            .filter(|(_, e)| e.is_none() || **e == Some(Step::TieBreak))
            .map(|(i, _)| i)
            .collect()
    }
}

/// Runs the BGP decision process over `candidates` (the Adj-RIB-In contents
/// for one prefix) and reports the winner and per-candidate elimination
/// steps. Deterministic: ties that survive every step are broken by the
/// lowest announcing neighbor router id, and — should two candidates share
/// even that (which cannot happen for distinct sessions) — by candidate
/// order.
///
/// Generic over owned (`&[Route]`) and borrowed (`&[&Route]`) candidate
/// slices so the simulation hot path can decide over its RIB entries
/// without cloning them first.
pub fn decide<B: Borrow<Route>>(candidates: &[B], cfg: &DecisionConfig) -> DecisionOutcome {
    let c = |i: usize| -> &Route { candidates[i].borrow() };
    let n = candidates.len();
    let mut eliminated_at: Vec<Option<Step>> = vec![None; n];
    if n == 0 {
        return DecisionOutcome {
            best: None,
            eliminated_at,
        };
    }
    let mut alive: Vec<usize> = (0..n).collect();

    // Generic elimination: keep candidates minimizing `key`.
    fn keep_min<K: Ord + Copy>(
        alive: &mut Vec<usize>,
        eliminated_at: &mut [Option<Step>],
        step: Step,
        key: impl Fn(usize) -> K,
    ) {
        if alive.len() <= 1 {
            return;
        }
        let Some(best) = alive.iter().map(|&i| key(i)).min() else {
            return; // unreachable: alive.len() > 1 here
        };
        alive.retain(|&i| {
            let keep = key(i) == best;
            if !keep {
                eliminated_at[i] = Some(step);
            }
            keep
        });
    }

    // 1. Locally originated routes win outright.
    keep_min(
        &mut alive,
        &mut eliminated_at,
        Step::LocalOrigination,
        |i| u8::from(c(i).learned != LearnedVia::Local),
    );
    // 2. Highest local-pref (minimize the negation).
    keep_min(&mut alive, &mut eliminated_at, Step::LocalPref, |i| {
        std::cmp::Reverse(c(i).local_pref)
    });
    // 3. Shortest AS-path.
    keep_min(&mut alive, &mut eliminated_at, Step::AsPathLength, |i| {
        c(i).as_path.len()
    });
    // 4. Lowest origin.
    keep_min(&mut alive, &mut eliminated_at, Step::Origin, |i| {
        c(i).origin
    });
    // 5. MED.
    match cfg.med_mode {
        MedMode::AlwaysCompare => {
            keep_min(&mut alive, &mut eliminated_at, Step::Med, |i| {
                c(i).med_value()
            });
        }
        MedMode::PerNeighbor => {
            if alive.len() > 1 {
                // Eliminate a candidate if some *same-neighbor* survivor has a
                // strictly lower MED. Evaluated against the pre-step set so the
                // result is order-independent.
                let before = alive.clone();
                alive.retain(|&i| {
                    let dominated = before.iter().any(|&j| {
                        j != i
                            && c(j).neighbor_for_med() == c(i).neighbor_for_med()
                            && c(j).med_value() < c(i).med_value()
                    });
                    if dominated {
                        eliminated_at[i] = Some(Step::Med);
                    }
                    !dominated
                });
            }
        }
    }
    // 6. Prefer eBGP-learned over iBGP-learned.
    keep_min(&mut alive, &mut eliminated_at, Step::EbgpOverIbgp, |i| {
        u8::from(c(i).learned == LearnedVia::Ibgp)
    });
    // 7. Lowest IGP cost (hot-potato).
    keep_min(&mut alive, &mut eliminated_at, Step::IgpCost, |i| {
        c(i).igp_cost
    });
    // 8. Final tie-break: lowest neighbor router id.
    keep_min(&mut alive, &mut eliminated_at, Step::TieBreak, |i| {
        c(i).from_router
    });
    // Candidate order as the absolute last resort (unreachable for routes
    // from distinct sessions, but keeps `decide` total).
    let winner = alive[0];
    for &i in &alive[1..] {
        eliminated_at[i] = Some(Step::TieBreak);
    }

    DecisionOutcome {
        best: Some(winner),
        eliminated_at,
    }
}

/// The winner [`decide`] would pick over `candidates`, with its position
/// in the iteration, without recording eliminations and without
/// allocating under [`MedMode::AlwaysCompare`].
///
/// There the eight steps form a lexicographic order on one key per
/// candidate, and `min_by_key` keeps the first minimal candidate, just as
/// `decide` keeps the first survivor. `PerNeighbor` MED is not
/// lexicographic (it compares only within a neighbor AS), so that mode
/// collects the candidates and defers to `decide`.
pub(crate) fn best_of<'a>(
    candidates: impl Iterator<Item = &'a Route>,
    cfg: &DecisionConfig,
) -> Option<(usize, &'a Route)> {
    match cfg.med_mode {
        MedMode::AlwaysCompare => candidates.enumerate().min_by_key(|&(_, r)| {
            (
                u8::from(r.learned != LearnedVia::Local),
                std::cmp::Reverse(r.local_pref),
                r.as_path.len(),
                r.origin,
                r.med_value(),
                u8::from(r.learned == LearnedVia::Ibgp),
                r.igp_cost,
                r.from_router,
            )
        }),
        MedMode::PerNeighbor => {
            let all: Vec<&Route> = candidates.collect();
            decide(&all, cfg).best.map(|i| (i, all[i]))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aspath::AsPath;
    use crate::route::Origin;
    use crate::types::{Asn, Prefix, RouterId};
    use proptest::strategy::Strategy;

    fn route(path: &[u32], from: (u32, u16)) -> Route {
        Route {
            prefix: Prefix::new(0x0A000000, 8),
            as_path: AsPath::from_u32s(path),
            local_pref: 100,
            med: None,
            origin: Origin::Igp,
            from_router: Some(RouterId::new(Asn(from.0), from.1)),
            from_asn: Some(Asn(from.0)),
            learned: LearnedVia::Ebgp,
            igp_cost: 0,
            communities: Vec::new(),
            originator: None,
        }
    }

    #[test]
    fn empty_candidates_yield_no_best() {
        let out = decide::<Route>(&[], &DecisionConfig::default());
        assert_eq!(out.best, None);
    }

    #[test]
    fn single_candidate_wins() {
        let out = decide(&[route(&[1, 2], (1, 0))], &DecisionConfig::default());
        assert_eq!(out.best, Some(0));
        assert_eq!(out.eliminated_at, vec![None]);
    }

    #[test]
    fn local_pref_dominates_path_length() {
        let mut a = route(&[1], (1, 0));
        a.local_pref = 50;
        let b = route(&[2, 3, 4], (2, 0));
        let out = decide(&[a, b], &DecisionConfig::default());
        assert_eq!(out.best, Some(1));
        assert_eq!(out.eliminated_at[0], Some(Step::LocalPref));
    }

    #[test]
    fn shorter_path_wins() {
        let a = route(&[1, 2], (1, 0));
        let b = route(&[3, 4, 5], (3, 0));
        let out = decide(&[a, b], &DecisionConfig::default());
        assert_eq!(out.best, Some(0));
        assert_eq!(out.eliminated_at[1], Some(Step::AsPathLength));
    }

    #[test]
    fn origin_breaks_equal_paths() {
        let a = route(&[1, 2], (1, 0));
        let mut b = route(&[3, 2], (3, 0));
        b.origin = Origin::Incomplete;
        let out = decide(&[a, b], &DecisionConfig::default());
        assert_eq!(out.best, Some(0));
        assert_eq!(out.eliminated_at[1], Some(Step::Origin));
    }

    #[test]
    fn always_compare_med_crosses_neighbors() {
        let mut a = route(&[1, 2], (1, 0));
        a.med = Some(10);
        let mut b = route(&[3, 2], (3, 0));
        b.med = Some(5);
        let out = decide(&[a, b], &DecisionConfig::default());
        assert_eq!(out.best, Some(1));
        assert_eq!(out.eliminated_at[0], Some(Step::Med));
    }

    #[test]
    fn per_neighbor_med_ignores_cross_neighbor() {
        let mut a = route(&[1, 2], (1, 0));
        a.med = Some(10);
        let mut b = route(&[3, 2], (3, 1));
        b.med = Some(5);
        let cfg = DecisionConfig {
            med_mode: MedMode::PerNeighbor,
        };
        let out = decide(&[a, b], &cfg);
        // Different neighbor ASes: MED must not eliminate; falls through to
        // the router-id tie-break, where AS1's router wins.
        assert_eq!(out.best, Some(0));
        assert_eq!(out.eliminated_at[1], Some(Step::TieBreak));
    }

    #[test]
    fn per_neighbor_med_applies_within_neighbor() {
        let mut a = route(&[1, 2], (1, 0));
        a.med = Some(10);
        let mut b = route(&[1, 2], (1, 1));
        b.med = Some(5);
        let cfg = DecisionConfig {
            med_mode: MedMode::PerNeighbor,
        };
        let out = decide(&[a, b], &cfg);
        assert_eq!(out.best, Some(1));
        assert_eq!(out.eliminated_at[0], Some(Step::Med));
    }

    #[test]
    fn missing_med_beats_present_med() {
        let a = route(&[1, 2], (1, 0)); // med None -> 0
        let mut b = route(&[3, 2], (3, 0));
        b.med = Some(1);
        let out = decide(&[a, b], &DecisionConfig::default());
        assert_eq!(out.best, Some(0));
        assert_eq!(out.eliminated_at[1], Some(Step::Med));
    }

    #[test]
    fn ebgp_beats_ibgp() {
        let a = route(&[1, 2], (1, 0));
        let mut b = route(&[3, 2], (3, 0));
        b.learned = LearnedVia::Ibgp;
        let out = decide(&[b, a], &DecisionConfig::default());
        assert_eq!(out.best, Some(1));
        assert_eq!(out.eliminated_at[0], Some(Step::EbgpOverIbgp));
    }

    #[test]
    fn hot_potato_prefers_low_igp_cost() {
        let mut a = route(&[1, 2], (1, 0));
        a.learned = LearnedVia::Ibgp;
        a.igp_cost = 10;
        let mut b = route(&[3, 2], (3, 0));
        b.learned = LearnedVia::Ibgp;
        b.igp_cost = 3;
        let out = decide(&[a, b], &DecisionConfig::default());
        assert_eq!(out.best, Some(1));
        assert_eq!(out.eliminated_at[0], Some(Step::IgpCost));
    }

    #[test]
    fn tie_break_lowest_router_id() {
        let a = route(&[2, 9], (2, 1));
        let b = route(&[2, 9], (2, 0));
        let out = decide(&[a, b], &DecisionConfig::default());
        assert_eq!(out.best, Some(1));
        assert_eq!(out.eliminated_at[0], Some(Step::TieBreak));
        assert_eq!(out.tie_break_survivors(), vec![0, 1]);
    }

    #[test]
    fn local_origination_beats_everything() {
        let local = Route::originate(Prefix::new(0x0A000000, 8));
        let learned = route(&[1], (1, 0));
        let out = decide(&[learned, local], &DecisionConfig::default());
        assert_eq!(out.best, Some(1));
        assert_eq!(out.eliminated_at[0], Some(Step::LocalOrigination));
    }

    #[test]
    fn survivors_reported_for_potential_rib_out() {
        let a = route(&[2, 9], (2, 1));
        let b = route(&[2, 9], (2, 0));
        let mut c = route(&[2, 9, 9], (5, 0)); // longer, eliminated earlier
        c.as_path = AsPath::from_u32s(&[5, 8, 9]);
        let out = decide(&[a, b, c], &DecisionConfig::default());
        assert_eq!(out.tie_break_survivors(), vec![0, 1]);
    }

    /// One attribute set drawn from small ranges: kind 0 is a locally
    /// originated route, 1 eBGP, 2 iBGP.
    fn arb_attributes() -> impl Strategy<Value = Route> {
        (
            0u8..3,
            proptest::option::of(0u32..2),
            0usize..2,
            (0u8..2, 90u32..92),
            1u32..3,
            0u32..2,
        )
            .prop_map(|(kind, med, len, (origin, lp), head, igp)| {
                if kind == 0 {
                    return Route::originate(Prefix::new(0x0A000000, 8));
                }
                let mut r = route(&[head, 7, 8][..=len], (head, 0));
                r.learned = if kind == 1 {
                    LearnedVia::Ebgp
                } else {
                    LearnedVia::Ibgp
                };
                r.med = med;
                r.origin = Origin::from_wire(origin);
                r.local_pref = lp;
                r.igp_cost = igp;
                r
            })
    }

    /// Candidate sets whose members copy one of three attribute sets and
    /// differ, if at all, in a `from_router` drawn from four values, so
    /// ties down to the router-id step and the candidate-order fallback
    /// behind it are common.
    fn arb_candidates() -> impl Strategy<Value = Vec<Route>> {
        (
            proptest::collection::vec(arb_attributes(), 3..4),
            proptest::collection::vec((0usize..3, (1u32..3, 0u16..2)), 0..8),
        )
            .prop_map(|(palette, picks)| {
                picks
                    .into_iter()
                    .map(|(pick, (asn, idx))| {
                        let mut r = palette[pick].clone();
                        if r.learned != LearnedVia::Local {
                            r.from_router = Some(RouterId::new(Asn(asn), idx));
                            r.from_asn = Some(Asn(asn));
                        }
                        r
                    })
                    .collect()
            })
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(1000))]
        /// `best_of` picks the very candidate `decide` picks, in both MED
        /// modes, ties broken by candidate order included.
        #[test]
        fn best_of_agrees_with_decide(cands in arb_candidates()) {
            for med_mode in [MedMode::AlwaysCompare, MedMode::PerNeighbor] {
                let cfg = DecisionConfig { med_mode };
                let want = decide(&cands, &cfg).best;
                let got = best_of(cands.iter(), &cfg);
                proptest::prop_assert_eq!(
                    got.map(|(i, _)| i),
                    want,
                    "{med_mode:?}: best_of {got:?} vs decide {want:?}"
                );
                if let Some((i, r)) = got {
                    proptest::prop_assert!(std::ptr::eq(r, &cands[i]));
                }
            }
        }
    }
}
