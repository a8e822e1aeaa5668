//! One refinement iteration's fix pass (§4.4–§4.6): the semantic
//! [`RefineOp`] log, the [`RefineHost`] mutation surface both the domain
//! and the repair phase refine through, and [`apply_fixes`] with its
//! policy and filter-deletion helpers.

use super::{PrefixJob, RankingAttr, RefineConfig};
use crate::model::AsRoutingModel;
use quasar_bgpsim::aspath::AsPath;
use quasar_bgpsim::engine::SimulationResult;
use quasar_bgpsim::types::{Asn, Prefix, RouterId};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// One semantic model mutation recorded while refining a domain, replayed
/// onto the real model at merge. Router ids are domain-local; the merge
/// maps them through the domain's duplication lineage.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) enum RefineOp {
    /// `src` was duplicated into `copy` while refining `prefix`.
    Duplicate {
        prefix: Prefix,
        src: RouterId,
        copy: RouterId,
    },
    /// Rank the routes arriving over `senders` best at `q` for `prefix`
    /// (MED or local-pref per the run's [`RankingAttr`]).
    Rank {
        q: RouterId,
        prefix: Prefix,
        senders: Vec<RouterId>,
    },
    /// Filter paths shorter than `min_locrib_len` at the announcing
    /// neighbors of `q` for `prefix`.
    ShorterFilters {
        q: RouterId,
        prefix: Prefix,
        min_locrib_len: usize,
    },
    /// Figure 7: delete egress filters on the `from -> to` session that
    /// block the `locrib_len`-long announcement of `prefix`.
    DeleteBlockers {
        from: RouterId,
        to: RouterId,
        prefix: Prefix,
        locrib_len: usize,
    },
}

impl RefineOp {
    /// Applies this op to `model` with every router it names mapped
    /// through `map` — the one reading of a recorded op, shared by the
    /// merge and the trace replay. A `Duplicate` is left to the caller,
    /// which owns the lineage. Returns the filters deleted, or `None` for
    /// a filter deletion naming a session `model` lacks.
    pub(super) fn apply(
        &self,
        model: &mut AsRoutingModel,
        ranking: RankingAttr,
        map: impl Fn(RouterId) -> RouterId,
    ) -> Option<usize> {
        match self {
            RefineOp::Duplicate { .. } => {}
            RefineOp::Rank { q, prefix, senders } => {
                let senders: Vec<RouterId> = senders.iter().map(|&r| map(r)).collect();
                ranking.rank(model, map(*q), *prefix, &senders);
            }
            RefineOp::ShorterFilters {
                q,
                prefix,
                min_locrib_len,
            } => model.set_shorter_path_filters(map(*q), *prefix, *min_locrib_len),
            RefineOp::DeleteBlockers {
                from,
                to,
                prefix,
                locrib_len,
            } => {
                let (from, to) = (map(*from), map(*to));
                if !model.network().has_session(from, to) {
                    return None;
                }
                return Some(model.delete_blocking_filters(from, to, *prefix, *locrib_len));
            }
        }
        Some(0)
    }
}

/// The mutation surface [`apply_fixes`] needs: a model to read and mutate
/// plus an op-log that records every fix as a [`RefineOp`]. The provided
/// methods apply each fix and log it; a filter deletion that deleted
/// nothing is applied but not logged. Two hosts implement it: a domain's
/// copy-on-write `DomainModel` and the in-place `RecordingModel` of the
/// repair phase.
pub(super) trait RefineHost {
    fn model(&self) -> &AsRoutingModel;
    fn model_mut(&mut self) -> &mut AsRoutingModel;
    fn record(&mut self, op: RefineOp);

    fn duplicate_quasi_router(&mut self, prefix: Prefix, src: RouterId) -> RouterId {
        let copy = self.model_mut().duplicate_quasi_router(src);
        self.record(RefineOp::Duplicate { prefix, src, copy });
        copy
    }

    fn rank_preference(
        &mut self,
        q: RouterId,
        prefix: Prefix,
        senders: &[RouterId],
        ranking: RankingAttr,
    ) {
        ranking.rank(self.model_mut(), q, prefix, senders);
        self.record(RefineOp::Rank {
            q,
            prefix,
            senders: senders.to_vec(),
        });
    }

    fn set_shorter_path_filters(&mut self, q: RouterId, prefix: Prefix, min_locrib_len: usize) {
        self.model_mut()
            .set_shorter_path_filters(q, prefix, min_locrib_len);
        // Logged even when zero: a zero floor still removes `q`'s earlier
        // floors for `prefix`, and a replay must remove them too.
        self.record(RefineOp::ShorterFilters {
            q,
            prefix,
            min_locrib_len,
        });
    }

    fn delete_blocking_filters(
        &mut self,
        from: RouterId,
        to: RouterId,
        prefix: Prefix,
        locrib_len: usize,
    ) -> usize {
        let deleted = self
            .model_mut()
            .delete_blocking_filters(from, to, prefix, locrib_len);
        if deleted > 0 {
            self.record(RefineOp::DeleteBlockers {
                from,
                to,
                prefix,
                locrib_len,
            });
        }
        deleted
    }
}

/// Resolves `r` through the round's mirror map: quasi-routers created
/// since the round's simulations read their mirror ancestor's Adj-RIB-In.
/// Entries are resolved at insertion time, so one hop suffices.
pub(super) fn probe(mirrors: &BTreeMap<RouterId, RouterId>, r: RouterId) -> RouterId {
    mirrors.get(&r).copied().unwrap_or(r)
}

/// One refinement iteration's fix pass for one prefix: walks the targets
/// origin-first against the simulation `res` and mutates `host` to repair
/// the first discrepancy of each unmatched target. Returns
/// `(all_matched, changed)`.
///
/// `mirrors` maps quasi-routers created since `res` was simulated to the
/// res-visible router whose Adj-RIB-In they mirror (a fresh duplicate
/// copies its source's sessions and policies). Batched repair rounds share
/// one map across all prefixes of the round: without it, a prefix whose
/// simulation predates another prefix's duplication would see the new
/// router as "never learned the path" and duplicate again, blowing the
/// model up with redundant quasi-routers that the sequential schedule
/// would have reused.
pub(super) fn apply_fixes<H: RefineHost>(
    host: &mut H,
    res: &SimulationResult,
    job: &mut PrefixJob,
    cfg: &RefineConfig,
    mirrors: &mut BTreeMap<RouterId, RouterId>,
) -> (bool, bool) {
    // Failpoint: a delay here stalls a fix pass between two prefixes;
    // determinism tests assert the trained model stays byte-identical no
    // matter how the stall interleaves with concurrently refined domains.
    #[cfg(feature = "testkit")]
    let _ = quasar_bgpsim::fail::inject("refine.apply_fix");
    let prefix = job.outcome.prefix;
    let mut reserved: BTreeSet<RouterId> = BTreeSet::new();
    let mut all_matched = true;
    let mut changed = false;

    for t in &job.targets {
        let target = t.o.suffix(t.o.len() - 1); // Loc-RIB form
        let routers = host.model().quasi_routers_of(t.asn);

        // RIB-Out match at an unreserved quasi-router? (Post-`res` routers
        // have no best route here — they were re-policied towards their own
        // target, so their ancestor's best is deliberately NOT attributed.)
        let rib_out = routers.iter().copied().find(|&r| {
            !reserved.contains(&r) && res.best_route(r).is_some_and(|b| b.as_path == target)
        });
        if let Some(q) = rib_out {
            reserved.insert(q);
            continue;
        }
        all_matched = false;

        // RIB-In match? (any quasi-router that learned the path)
        let has_target = |r: RouterId| {
            res.rib(probe(mirrors, r))
                .map(|rib| rib.candidates.iter().any(|c| c.as_path == target))
                .unwrap_or(false)
        };
        let rib_in_unreserved = routers
            .iter()
            .copied()
            .find(|&r| !reserved.contains(&r) && has_target(r));
        let rib_in_any = routers.iter().copied().find(|&r| has_target(r));

        match (rib_in_unreserved, rib_in_any) {
            (Some(q), _) => {
                reserved.insert(q);
                adjust_policies(
                    host,
                    res,
                    q,
                    probe(mirrors, q),
                    prefix,
                    &target,
                    cfg.ranking,
                );
                changed = true;
            }
            (None, Some(_)) if !cfg.allow_duplication => {
                // Ablation: the path is learned but no router may be
                // added — this target is permanently unsatisfiable.
            }
            (None, Some(src)) => {
                // Everyone who learned it is spoken for: duplicate.
                let q = host.duplicate_quasi_router(prefix, src);
                job.outcome.quasi_routers_added += 1;
                reserved.insert(q);
                // The copy's RIB-In mirrors the source's.
                let ancestor = probe(mirrors, src);
                mirrors.insert(q, ancestor);
                adjust_policies(host, res, q, ancestor, prefix, &target, cfg.ranking);
                changed = true;
            }
            (None, None) => {
                // No RIB-In: the path has not propagated this far yet.
                // Figure 7: if the announcing neighbor AS already has a
                // RIB-Out match, delete whatever egress filter blocks
                // the announcement towards us.
                let deleted = delete_blockers(host, res, t.asn, prefix, &target);
                if deleted > 0 {
                    job.outcome.filters_deleted += deleted;
                    changed = true;
                }
            }
        }
    }
    (all_matched, changed)
}

/// Installs the §4.6 policy pair at quasi-router `q` for `target`:
/// MED-prefer the sessions that deliver it (read from `rib_src`'s RIB-In,
/// which equals `q`'s after duplication) and filter shorter paths at the
/// announcing neighbors.
fn adjust_policies<H: RefineHost>(
    host: &mut H,
    res: &SimulationResult,
    q: RouterId,
    rib_src: RouterId,
    prefix: Prefix,
    target: &AsPath,
    ranking: RankingAttr,
) {
    let senders: Vec<RouterId> = res
        .rib(rib_src)
        .map(|rib| {
            rib.candidates
                .iter()
                .filter(|c| c.as_path == *target)
                .filter_map(|c| c.from_router)
                .collect()
        })
        .unwrap_or_default();
    host.rank_preference(q, prefix, &senders, ranking);
    host.set_shorter_path_filters(q, prefix, target.len().saturating_sub(1));
}

/// Figure 7 filter deletion: for target suffix `target` expected at AS
/// `asn`, if the announcing neighbor AS has a quasi-router already
/// RIB-Out-matching the next-shorter suffix, remove egress filters on its
/// sessions towards `asn` that block the announcement.
fn delete_blockers<H: RefineHost>(
    host: &mut H,
    res: &SimulationResult,
    asn: Asn,
    prefix: Prefix,
    target: &AsPath,
) -> usize {
    let Some(nstar) = target.head() else {
        return 0; // `asn` originates the prefix; nothing upstream
    };
    let n_locrib = target.suffix(target.len() - 1);
    let mut deleted = 0;
    let neighbors: Vec<RouterId> = host
        .model()
        .quasi_routers_of(nstar)
        .into_iter()
        .filter(|&rn| res.best_route(rn).is_some_and(|b| b.as_path == n_locrib))
        .collect();
    for rn in neighbors {
        let peers: Vec<RouterId> = host.model().network().peers_of(rn);
        for peer in peers {
            if peer.asn() != asn {
                continue;
            }
            deleted += host.delete_blocking_filters(rn, peer, prefix, n_locrib.len());
        }
    }
    deleted
}
