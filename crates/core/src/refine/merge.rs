//! Phase B — the deterministic merge of the domain op-logs into the real
//! model, and the arming of the repair phase.

use super::domains::DomainDelta;
use super::fix::RefineOp;
use super::{PrefixJob, RefineConfig};
use crate::model::AsRoutingModel;
use quasar_bgpsim::types::{Asn, Prefix, RouterId};
use std::collections::BTreeMap;
use std::ops::Range;

/// The duplicate lineage of a sequence of domain deltas, walked once:
/// which shared copy each domain's local duplicates map to, and which
/// shared copies the walk created.
///
/// Domains overlap heavily in which routers they duplicate, and the merge
/// collapses every domain's copy of one lineage key — `(global source,
/// per-source ordinal)` — onto one shared copy, so a dirty domain can
/// reshuffle, add or drop `Duplicate` ops without changing the merged
/// model. The created `(source, copy)` pairs compared *as a set*
/// ([`Lineage::created_set`]), not in creation order, decide whether two
/// runs merge into byte-identical shared structure: they pin the router
/// set and ids, the session graph closes over the same adjacency whatever
/// the order, and [`merge_domains`] applies every policy op against the
/// complete router set. Only (router, prefix)-scoped policy ops can then
/// differ, and other prefixes' simulations never read them.
pub(super) struct Lineage {
    /// Per delta, in walk order: each local copy's shared copy.
    copies: Vec<BTreeMap<RouterId, RouterId>>,
    /// The shared copies in creation order: `(global source, copy,
    /// creating domain id)`.
    created: Vec<(RouterId, RouterId, usize)>,
}

impl Lineage {
    /// Walks `deltas` in order, allocating each new shared copy of a
    /// global source with `alloc`.
    fn walk<'d>(
        deltas: impl IntoIterator<Item = &'d DomainDelta>,
        mut alloc: impl FnMut(RouterId) -> RouterId,
    ) -> Lineage {
        let mut shared: BTreeMap<(RouterId, usize), RouterId> = BTreeMap::new();
        let mut lineage = Lineage {
            copies: Vec::new(),
            created: Vec::new(),
        };
        for delta in deltas {
            let mut copies: BTreeMap<RouterId, RouterId> = BTreeMap::new();
            let mut ordinals: BTreeMap<RouterId, usize> = BTreeMap::new();
            for op in &delta.ops {
                if let RefineOp::Duplicate { src, copy, .. } = op {
                    let gsrc = copies.get(src).copied().unwrap_or(*src);
                    let ord = ordinals.entry(gsrc).or_insert(0);
                    let key = (gsrc, *ord);
                    *ord += 1;
                    let g = *shared.entry(key).or_insert_with(|| {
                        let g = alloc(gsrc);
                        lineage.created.push((gsrc, g, delta.id));
                        g
                    });
                    copies.insert(*copy, g);
                }
            }
            lineage.copies.push(copies);
        }
        lineage
    }

    /// Walks `deltas` allocating per-AS indices densely from 1 — exactly
    /// what [`merge_domains`]'s allocator, `duplicate_quasi_router_clean`,
    /// hands out on an initial model (one router per AS) — without
    /// touching a model.
    pub(super) fn walk_dense<'d>(deltas: impl IntoIterator<Item = &'d DomainDelta>) -> Lineage {
        let mut next_index: BTreeMap<Asn, u16> = BTreeMap::new();
        Lineage::walk(deltas, |src| {
            let idx = next_index.entry(src.asn()).or_insert(1);
            *idx += 1;
            RouterId::new(src.asn(), *idx - 1)
        })
    }

    /// The created `(global source, copy)` pairs, sorted.
    pub(super) fn created_set(&self) -> Vec<(RouterId, RouterId)> {
        let mut set: Vec<(RouterId, RouterId)> = self
            .created
            .iter()
            .map(|&(src, copy, _)| (src, copy))
            .collect();
        set.sort_unstable();
        set
    }
}

/// Phase B — replays every completed domain's op-log onto the real model
/// in ascending domain id (BTreeMap iteration order), mapping domain-local
/// router ids through the duplication lineage. Duplications of the same
/// (global source, per-source ordinal) lineage in different domains are
/// deduplicated: the first domain to replay creates the router, later
/// domains reuse it — exactly how the sequential schedule's mirror map
/// reuses freshly created routers across prefixes. Returns the lineage
/// walk, whose created set decides whether a recorded repair trace still
/// fits the merged structure.
pub(super) fn merge_domains(
    model: &mut AsRoutingModel,
    cfg: &RefineConfig,
    ranges: &[Range<usize>],
    done: &BTreeMap<usize, DomainDelta>,
    jobs: &mut [(Prefix, PrefixJob)],
) -> Lineage {
    let job_of: BTreeMap<Prefix, usize> =
        jobs.iter().enumerate().map(|(i, (p, _))| (*p, i)).collect();

    // Pass 1 — create every merge-time duplicate, policy-clean, before a
    // single policy op runs. Policy ops materialize rules on the session
    // graph they see (`peers_of` at op time), so interleaving creation
    // with replay would make the merged model depend on which domain
    // happens to claim a shared duplicate first — an order that
    // reshuffles whenever a dirty domain's op-log changes. With all
    // duplicates in place first, the session graph every op sees — and
    // with it the whole merged model — is a function of the allocated
    // duplicate *set* plus the per-domain logs alone. The creating domain
    // of each copy lets pass 2 charge the duplication to exactly one
    // prefix.
    let lineage = Lineage::walk(done.values(), |src| model.duplicate_quasi_router_clean(src));
    let creator: BTreeMap<RouterId, usize> = lineage
        .created
        .iter()
        .map(|&(_, copy, id)| (copy, id))
        .collect();

    // Pass 2 — replay every domain's op-log against the complete router
    // set.
    for ((id, delta), l2g) in done.iter().zip(&lineage.copies) {
        // The delta's outcomes are authoritative for its prefixes (on
        // resume, the local jobs were never run).
        if let Some(range) = ranges.get(*id) {
            for (slot, oc) in jobs[range.clone()].iter_mut().zip(&delta.outcomes) {
                slot.1.outcome = oc.clone();
            }
        }
        // Domain-local ids below the base router count are global ids;
        // locally created duplicates map through `l2g`. An op can only
        // name routers that existed when it ran, so the domain's whole
        // map resolves every op of its log.
        let map = |r: RouterId| l2g.get(&r).copied().unwrap_or(r);
        for (pos, op) in delta.ops.iter().enumerate() {
            match op {
                RefineOp::Duplicate { prefix, src, copy } => {
                    let (gsrc, g) = (map(*src), map(*copy));
                    if creator.get(&g) != Some(id) {
                        // The merged model reuses another domain's
                        // duplicate; this prefix no longer pays for one.
                        if let Some(&ji) = job_of.get(prefix) {
                            let oc = &mut jobs[ji].1.outcome;
                            oc.quasi_routers_added = oc.quasi_routers_added.saturating_sub(1);
                        }
                    }
                    // In the domain's local run the copy cloned the
                    // source's state, which at that point held exactly
                    // this domain's earlier policy ops. Re-apply that
                    // projection to the shared copy — *every* claiming
                    // domain does this, creator and reusers alike, so the
                    // copy's policy state is the union of its claimants'
                    // own projections and does not depend on which domain
                    // happened to claim it first.
                    replay_prior_src_ops(model, cfg, &delta.ops[..pos], l2g, gsrc, g);
                }
                // A duplicate's session set is rebuilt from its merge-time
                // source, which can differ from the domain-local peer set;
                // a filter deletion on a missing session is skipped, and
                // the repair phase re-deletes whatever still blocks.
                op => {
                    op.apply(model, cfg.ranking, map);
                }
            }
        }
    }
    lineage
}

/// Re-applies, onto a freshly claimed merge-time duplicate `copy`, every
/// policy op among `prior` (one domain's op-log up to the claiming
/// `Duplicate`) whose target resolves to the duplicate's source `gsrc`.
///
/// This reproduces what the domain's local run gave its own copy by
/// cloning: the source's state as accumulated by *this domain's* earlier
/// ops. Ops are prefix-scoped, and each domain re-applies only its own
/// projection, so the shared copy's resulting policy state is a union
/// over its claimants that no claim order can perturb.
fn replay_prior_src_ops(
    model: &mut AsRoutingModel,
    cfg: &RefineConfig,
    prior: &[RefineOp],
    l2g: &BTreeMap<RouterId, RouterId>,
    gsrc: RouterId,
    copy: RouterId,
) {
    let map = |r: RouterId| l2g.get(&r).copied().unwrap_or(r);
    // Senders and the far end of a session sit in other ASes than `gsrc`,
    // so sending `gsrc` to `copy` retargets exactly the op's own router.
    let retarget = |r: RouterId| if map(r) == gsrc { copy } else { map(r) };
    for op in prior {
        let targets_src = match op {
            RefineOp::Duplicate { .. } => false,
            RefineOp::Rank { q, .. } | RefineOp::ShorterFilters { q, .. } => map(*q) == gsrc,
            RefineOp::DeleteBlockers { from, to, .. } => map(*from) == gsrc || map(*to) == gsrc,
        };
        if targets_src {
            op.apply(model, cfg.ranking, retarget);
        }
    }
}

/// Arms the job list for phase C: every non-diverged prefix is re-verified
/// against the merged model with a fresh iteration budget on top of what
/// its domain already spent.
pub(super) fn prepare_repair(jobs: &mut [(Prefix, PrefixJob)], cfg: &RefineConfig) {
    for (_, job) in jobs.iter_mut() {
        job.done = job.outcome.diverged;
        job.max_iter = job.outcome.iterations + cfg.max_iterations;
    }
}
