//! Phase A — sharded domains: the job partition, each domain's
//! copy-on-write [`DomainModel`], and the worker queue that refines the
//! domains to convergence.

use super::checkpoint::{RefineLog, KIND_DOMAIN};
use super::fix::{apply_fixes, RefineHost, RefineOp};
use super::{PrefixJob, PrefixOutcome, RankingAttr, RefineConfig, RefineError};
use crate::model::AsRoutingModel;
use crate::train::SimWork;
use quasar_bgpsim::engine::{SimScratch, SimulationResult};
use quasar_bgpsim::error::SimError;
use quasar_bgpsim::types::{Prefix, RouterId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::ops::Range;

/// A refinement domain's copy-on-write view of the base model: reads hit
/// the borrowed base until the first mutation clones it, so a domain whose
/// prefixes are already consistent costs zero model copies — snapshots are
/// O(touched state), not O(model) per round.
struct DomainModel<'a> {
    base: &'a AsRoutingModel,
    owned: Option<AsRoutingModel>,
    ops: Vec<RefineOp>,
}

impl RefineHost for DomainModel<'_> {
    fn model(&self) -> &AsRoutingModel {
        self.owned.as_ref().unwrap_or(self.base)
    }

    fn model_mut(&mut self) -> &mut AsRoutingModel {
        self.owned.get_or_insert_with(|| self.base.clone())
    }

    fn record(&mut self, op: RefineOp) {
        self.ops.push(op);
    }

    fn set_shorter_path_filters(&mut self, q: RouterId, prefix: Prefix, min_locrib_len: usize) {
        // A domain skips a zero floor outright, neither applying nor
        // logging it, so the log the merge replays holds only floors that
        // install filters.
        if min_locrib_len > 0 {
            self.model_mut()
                .set_shorter_path_filters(q, prefix, min_locrib_len);
            self.record(RefineOp::ShorterFilters {
                q,
                prefix,
                min_locrib_len,
            });
        }
    }
}

/// Aim for this many prefixes per domain: enough per-domain work to
/// amortize the copy-on-write clone, few enough domains that the merge
/// stays cheap. Job sets at or below this size form a single domain, so
/// small runs keep the exact sequential schedule.
const DOMAIN_TARGET_PREFIXES: usize = 16;
/// Upper bound on the domain count regardless of prefix count.
const MAX_DOMAINS: usize = 512;

/// Partitions `n` sorted prefix jobs into contiguous, near-equal domains.
/// A pure function of `n` only — never of the thread count — so the
/// decomposition (and with it every byte of the final model) is identical
/// on every machine.
pub(crate) fn domain_ranges(n: usize) -> Vec<Range<usize>> {
    if n == 0 {
        return Vec::new();
    }
    let domains = (n / DOMAIN_TARGET_PREFIXES).clamp(1, MAX_DOMAINS);
    let base = n / domains;
    let rem = n % domains;
    let mut out = Vec::with_capacity(domains);
    let mut start = 0;
    for d in 0..domains {
        let len = base + usize::from(d < rem);
        out.push(start..start + len);
        start += len;
    }
    out
}

/// A completed domain's result: its op-log plus the per-prefix outcomes,
/// in the domain's (ascending-prefix) job order.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct DomainDelta {
    pub(crate) id: usize,
    pub(crate) ops: Vec<RefineOp>,
    pub(crate) outcomes: Vec<PrefixOutcome>,
}

/// Phase A — refines every not-yet-done domain. Workers of the
/// [`pool`](crate::pool) claim whole domains (no round barrier: a
/// finished worker immediately takes the next pending domain); with one
/// effective thread the claims run inline on the caller's stack.
/// Completed deltas land in `done`, each logged first when a `log` is
/// given; their simulations are counted into `work`.
pub(super) fn run_domains(
    model: &AsRoutingModel,
    cfg: &RefineConfig,
    jobs: &mut [(Prefix, PrefixJob)],
    ranges: &[Range<usize>],
    done: &mut BTreeMap<usize, DomainDelta>,
    mut log: Option<&mut RefineLog>,
    work: &mut SimWork,
) -> Result<(), RefineError> {
    // Domains are contiguous and disjoint, so repeated split_at_mut hands
    // each pending domain exclusive access to its job slice.
    let mut pending: Vec<(usize, &mut [(Prefix, PrefixJob)])> = Vec::new();
    let mut rest = jobs;
    for (id, r) in ranges.iter().enumerate() {
        let (head, tail) = rest.split_at_mut(r.len());
        if !done.contains_key(&id) {
            pending.push((id, head));
        }
        rest = tail;
    }
    crate::pool::run(
        cfg.effective_threads(),
        pending,
        |(id, slice), scratch| {
            // Failpoint: the crash site for kill-and-resume tests,
            // evaluated once per domain claim — a panic armed `atN:panic`
            // dies exactly at the N-th work-unit claim, after the previous
            // completion's record landed; an armed error aborts the run.
            #[cfg(feature = "testkit")]
            if quasar_bgpsim::fail::inject("refine.round") {
                return Err(SimError::Injected {
                    point: "refine.round",
                });
            }
            refine_domain(model, id, slice, cfg, scratch)
        },
        |_, delta| {
            // Which worker errors first can depend on scheduling; the
            // error itself is still a true fault of the run.
            let (delta, sims) = delta?;
            work.add(sims);
            if let Some(log) = log.as_mut() {
                log.append(KIND_DOMAIN, &delta)?;
            }
            done.insert(delta.id, delta);
            Ok(())
        },
    )
}

/// Refines the prefixes of one domain sequentially against a
/// copy-on-write view of `base`, reusing the caller's simulation scratch.
/// Each prefix is re-simulated every iteration until it converges,
/// diverges, stalls or runs out of iterations. Returns the domain's
/// op-log and outcomes, and the simulation work it took.
///
/// Under MED ranking an iteration after the first re-simulates warm from
/// the previous iteration's steady state, re-exporting only over the
/// sessions that iteration's fixes re-policied (see
/// [`changed_sessions`]); its result equals a cold run's because the
/// stable state is unique (DESIGN.md §7). An iteration after a
/// duplication runs cold, and so does every iteration of the local-pref
/// ablation, whose policies can admit several stable states.
fn refine_domain(
    base: &AsRoutingModel,
    id: usize,
    jobs: &mut [(Prefix, PrefixJob)],
    cfg: &RefineConfig,
    scratch: &mut SimScratch,
) -> Result<(DomainDelta, SimWork), SimError> {
    let mut dm = DomainModel {
        base,
        owned: None,
        ops: Vec::new(),
    };
    let mut work = SimWork::default();
    let warm = cfg.ranking == RankingAttr::Med;
    for (_, job) in jobs.iter_mut() {
        // The previous iteration's result, with the sessions its fixes
        // re-policied, while a warm re-simulation can start from it.
        let mut prev: Option<(SimulationResult, Vec<(RouterId, RouterId)>)> = None;
        while job.outcome.iterations < cfg.max_iterations {
            job.outcome.iterations += 1;
            // Failpoint: per-simulation jitter that perturbs worker timing
            // (error injection belongs to `engine.simulate`, where it
            // propagates naturally).
            #[cfg(feature = "testkit")]
            let _ = quasar_bgpsim::fail::inject("refine.simulate_batch");
            let prefix = job.outcome.prefix;
            let sim = match prev.take() {
                Some((res, changed)) => dm.model().resimulate(res, &changed, scratch),
                None if warm => dm.model().simulate_kept(prefix, scratch),
                None => dm.model().simulate_with(prefix, scratch),
            };
            let res = match sim {
                Ok(res) => res,
                Err(SimError::Divergence { .. }) => {
                    job.outcome.diverged = true;
                    break;
                }
                Err(e) => return Err(e),
            };
            #[cfg(test)]
            tests::check_warm_equals_cold(dm.model(), &res);
            work.count(&res.stats);
            let mark = dm.ops.len();
            // Each iteration re-simulates the domain's model, so it is
            // never stale here: a fresh (empty) mirror map per iteration
            // is the exact sequential semantics.
            let (all_matched, changed) = apply_fixes(&mut dm, &res, job, cfg, &mut BTreeMap::new());
            if all_matched {
                job.outcome.converged = true;
                break;
            }
            if !changed {
                break; // no local fix applies anywhere — progress is impossible
            }
            if warm {
                prev = changed_sessions(dm.model(), &dm.ops[mark..]).map(|c| (res, c));
            }
        }
    }
    let delta = DomainDelta {
        id,
        ops: dm.ops,
        outcomes: jobs.iter().map(|(_, j)| j.outcome.clone()).collect(),
    };
    Ok((delta, work))
}

/// The directed sessions `(from, to)` whose policies the fixes `ops`
/// edited: a ranking or a shorter-path floor at `q` edits every
/// `peer -> q`, a filter deletion its `from -> to`. `None` when one of
/// them duplicated a quasi-router, which changes the adjacency.
fn changed_sessions(model: &AsRoutingModel, ops: &[RefineOp]) -> Option<Vec<(RouterId, RouterId)>> {
    let mut out = Vec::new();
    for op in ops {
        match *op {
            RefineOp::Duplicate { .. } => return None,
            RefineOp::Rank { q, .. } | RefineOp::ShorterFilters { q, .. } => {
                out.extend(model.network().peers_of(q).into_iter().map(|p| (p, q)));
            }
            RefineOp::DeleteBlockers { from, to, .. } => out.push((from, to)),
        }
    }
    out.sort_unstable();
    out.dedup();
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observed::{Dataset, ObservedRoute};
    use crate::refine::refine_checkpointed;
    use quasar_bgpsim::aspath::AsPath;
    use quasar_bgpsim::types::Asn;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Warm re-simulations checked against a cold run so far, by every
    /// test of this crate.
    static WARM_CHECKED: AtomicU64 = AtomicU64::new(0);

    /// Asserts that a warm result equals a cold simulation of its prefix
    /// on `model`, RIB by RIB. Every refinement run by a unit test of this
    /// crate passes its phase-A results through here.
    pub(super) fn check_warm_equals_cold(model: &AsRoutingModel, res: &SimulationResult) {
        if !res.stats.warm {
            return;
        }
        let cold = model.simulate(res.prefix).unwrap();
        assert_eq!(res.ribs().count(), cold.ribs().count());
        for (w, c) in res.ribs().zip(cold.ribs()) {
            assert_eq!(w.router, c.router);
            assert_eq!(w.candidates, c.candidates, "candidates at {}", w.router);
            assert_eq!(w.best(), c.best(), "best route at {}", w.router);
        }
        // sast: relaxed-ok test tally read only after the refinement that bumps it returned
        WARM_CHECKED.fetch_add(1, Ordering::Relaxed);
    }

    /// Refines `training` from the initial model of `universe` on one
    /// thread; returns the phase A and phase C counters.
    fn refine_work(
        universe: &Dataset,
        training: &Dataset,
        ranking: RankingAttr,
    ) -> (SimWork, SimWork) {
        let mut model = AsRoutingModel::initial(&universe.as_graph(), &universe.prefixes());
        let cfg = RefineConfig {
            threads: 1,
            ranking,
            ..RefineConfig::default()
        };
        let (_, phases) = refine_checkpointed(&mut model, training, &cfg, None).unwrap();
        (phases.domains_work, phases.repair_work)
    }

    /// One observation point per path.
    fn dataset(paths: &[&[u32]]) -> Dataset {
        Dataset::new(paths.iter().enumerate().map(|(i, p)| ObservedRoute {
            point: i as u32,
            observer_as: Asn(p[0]),
            prefix: Prefix::for_origin(Asn(p[p.len() - 1])),
            as_path: AsPath::from_u32s(p),
        }))
    }

    #[test]
    fn every_warm_iteration_of_a_tiny_refinement_equals_a_cold_one() {
        use quasar_netgen::prelude::*;
        let net = SyntheticInternet::generate(NetGenConfig::tiny(2));
        let training = Dataset::new(net.observations.iter().map(|o| ObservedRoute {
            point: o.point,
            observer_as: o.observer_as,
            prefix: o.prefix,
            as_path: o.as_path.clone(),
        }));
        // sast: relaxed-ok test tally, bumped by this thread's own refinement
        let before = WARM_CHECKED.load(Ordering::Relaxed);
        let (domains, repair) = refine_work(&training, &training, RankingAttr::Med);
        assert!(domains.warm > 0, "no warm iteration: {domains}");
        assert_eq!(repair.warm, 0, "phase C stays cold");
        // sast: relaxed-ok test tally, bumped by this thread's own refinement
        let checked = WARM_CHECKED.load(Ordering::Relaxed) - before;
        assert!(
            checked >= domains.warm,
            "{checked} of {} checked",
            domains.warm
        );
    }

    /// DISAGREE-style training: AS2 and AS3 each observed routing to AS1
    /// through the other. Under local-pref ranking each ends up preferring
    /// the longer path through its neighbour, the gadget with two stable
    /// states, so no simulation may start warm. A second prefix needs only
    /// a MED fix against the tie-break (AS10 observed on 10-40-30, not
    /// 10-20-30): under MED ranking its second iteration is warm.
    #[test]
    fn local_pref_ranking_never_takes_the_warm_path() {
        let gadget: [&[u32]; 4] = [&[2, 3, 1], &[3, 2, 1], &[4, 2, 3, 1], &[4, 3, 2, 1]];
        let training = dataset(&[gadget.as_slice(), &[&[10, 40, 30]]].concat());
        let universe = dataset(&[gadget.as_slice(), &[&[10, 40, 30], &[10, 20, 30]]].concat());
        let (domains, repair) = refine_work(&universe, &training, RankingAttr::LocalPref);
        assert!(domains.cold > 2, "{domains}");
        assert_eq!((domains.warm, repair.warm), (0, 0));
        let (domains, _) = refine_work(&universe, &training, RankingAttr::Med);
        assert!(domains.warm > 0, "{domains}");
    }

    #[test]
    fn domain_partition_is_contiguous_and_even() {
        for n in [0usize, 1, 15, 16, 17, 31, 32, 100, 1000, 20_000] {
            let ranges = domain_ranges(n);
            if n == 0 {
                assert!(ranges.is_empty());
                continue;
            }
            assert_eq!(ranges[0].start, 0);
            assert_eq!(ranges[ranges.len() - 1].end, n);
            let mut prev_end = 0;
            let (mut min_len, mut max_len) = (usize::MAX, 0);
            for r in &ranges {
                assert_eq!(r.start, prev_end, "domains must be contiguous");
                prev_end = r.end;
                min_len = min_len.min(r.len());
                max_len = max_len.max(r.len());
            }
            assert!(max_len - min_len <= 1, "domains must be near-equal");
            assert!(ranges.len() <= MAX_DOMAINS);
        }
    }

    #[test]
    fn small_job_sets_form_a_single_domain() {
        for n in 1..=DOMAIN_TARGET_PREFIXES {
            assert_eq!(domain_ranges(n).len(), 1, "n={n}");
        }
        assert!(domain_ranges(2 * DOMAIN_TARGET_PREFIXES).len() > 1);
    }
}
