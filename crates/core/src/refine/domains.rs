//! Phase A — sharded domains: the job partition, each domain's
//! copy-on-write [`DomainModel`], and the worker queue that refines the
//! domains to convergence.

use super::checkpoint::{RefineLog, KIND_DOMAIN};
use super::fix::{apply_fixes, RefineHost, RefineOp};
use super::{PrefixJob, PrefixOutcome, RefineConfig, RefineError};
use crate::model::AsRoutingModel;
use quasar_bgpsim::engine::SimScratch;
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
/// given.
pub(super) fn run_domains(
    model: &AsRoutingModel,
    cfg: &RefineConfig,
    jobs: &mut [(Prefix, PrefixJob)],
    ranges: &[Range<usize>],
    done: &mut BTreeMap<usize, DomainDelta>,
    mut log: Option<&mut RefineLog>,
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
            let delta = delta?;
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
/// op-log and outcomes.
fn refine_domain(
    base: &AsRoutingModel,
    id: usize,
    jobs: &mut [(Prefix, PrefixJob)],
    cfg: &RefineConfig,
    scratch: &mut SimScratch,
) -> Result<DomainDelta, SimError> {
    let mut dm = DomainModel {
        base,
        owned: None,
        ops: Vec::new(),
    };
    for (_, job) in jobs.iter_mut() {
        while job.outcome.iterations < cfg.max_iterations {
            job.outcome.iterations += 1;
            // Failpoint: per-simulation jitter that perturbs worker timing
            // (error injection belongs to `engine.simulate`, where it
            // propagates naturally).
            #[cfg(feature = "testkit")]
            let _ = quasar_bgpsim::fail::inject("refine.simulate_batch");
            let res = match dm.model().simulate_with(job.outcome.prefix, scratch) {
                Ok(res) => res,
                Err(SimError::Divergence { .. }) => {
                    job.outcome.diverged = true;
                    break;
                }
                Err(e) => return Err(e),
            };
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
        }
    }
    Ok(DomainDelta {
        id,
        ops: dm.ops,
        outcomes: jobs.iter().map(|(_, j)| j.outcome.clone()).collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

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
