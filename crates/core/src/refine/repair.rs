//! Phase C — the repair round loop over the merged model, its recorded
//! trace, and the trace replay the incremental trainer builds on.

use super::checkpoint::{RefineLog, KIND_ROUND};
use super::fix::{apply_fixes, probe, RefineHost, RefineOp};
use super::{PrefixJob, RefineConfig, RefineError, RefineReport};
use crate::model::AsRoutingModel;
use crate::train::SimWork;
use quasar_bgpsim::engine::SimulationResult;
use quasar_bgpsim::error::SimError;
use quasar_bgpsim::types::{Prefix, RouterId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A [`RefineHost`] over the real model, mutated in place: the repair
/// phase's counterpart of `DomainModel`'s
/// op-log.
struct RecordingModel<'a> {
    model: &'a mut AsRoutingModel,
    ops: Vec<RefineOp>,
}

impl RefineHost for RecordingModel<'_> {
    fn model(&self) -> &AsRoutingModel {
        self.model
    }

    fn model_mut(&mut self) -> &mut AsRoutingModel {
        self.model
    }

    fn record(&mut self, op: RefineOp) {
        self.ops.push(op);
    }
}

/// One prefix's applied fix-set in one repair round — the unit of the
/// [`RepairTrace`]. `ops` replays against a live model by re-invoking the
/// same mutations (a duplication re-allocates and is checked against the
/// recorded router id); the flags restore the job bookkeeping that
/// [`live_step`] produced.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct RepairStep {
    /// Index into the job list (ascending-prefix order).
    pub(crate) job: usize,
    /// The fixes this round applied for the prefix, in application order.
    pub(crate) ops: Vec<RefineOp>,
    /// [`PrefixJob::done`] after the round.
    pub(crate) done: bool,
    /// [`PrefixOutcome`](super::PrefixOutcome) convergence flag after the round.
    pub(crate) converged: bool,
    /// [`PrefixOutcome`](super::PrefixOutcome) divergence flag after the round.
    pub(crate) diverged: bool,
}

/// The whole repair phase as rounds of [`RepairStep`]s in ascending job
/// order — exactly [`run_repair`]'s application schedule.
pub(crate) type RepairTrace = Vec<Vec<RepairStep>>;

/// The `(source, copy)` duplication subsequence of a fix-set — the part
/// that mutates shared structure. A replayed epoch stays exact only while
/// every live fix-set's subsequence matches its recorded counterpart.
fn duplicate_pairs(ops: &[RefineOp]) -> Vec<(RouterId, RouterId)> {
    ops.iter()
        .filter_map(|op| match op {
            RefineOp::Duplicate { src, copy, .. } => Some((*src, *copy)),
            _ => None,
        })
        .collect()
}

/// Processes one freshly simulated job of a repair round, recording the
/// applied fixes as a [`RepairStep`]. The one place a repair moves a job to
/// converged, stuck, or out of budget.
fn live_step(
    model: &mut AsRoutingModel,
    cfg: &RefineConfig,
    jobs: &mut [(Prefix, PrefixJob)],
    i: usize,
    sim: Result<SimulationResult, SimError>,
    mirrors: &mut BTreeMap<RouterId, RouterId>,
) -> Result<RepairStep, RefineError> {
    let job = &mut jobs[i].1;
    job.outcome.iterations += 1;
    let mut host = RecordingModel {
        model,
        ops: Vec::new(),
    };
    match sim {
        Ok(res) => {
            let (all_matched, changed) = apply_fixes(&mut host, &res, job, cfg, mirrors);
            // A domain-phase convergence claim that no longer verifies is
            // withdrawn. Unmatched, the job stops when no local fix applies
            // anywhere — progress is impossible — or its iteration budget
            // is spent.
            job.outcome.converged = all_matched;
            job.done = all_matched || !changed || job.outcome.iterations >= job.max_iter;
        }
        Err(SimError::Divergence { .. }) => {
            job.outcome.diverged = true;
            job.done = true;
        }
        Err(e) => return Err(RefineError::Sim(e)),
    }
    Ok(RepairStep {
        job: i,
        ops: host.ops,
        done: job.done,
        converged: job.outcome.converged,
        diverged: job.outcome.diverged,
    })
}

/// Replays one recorded step against the live model, without simulating.
/// Duplications re-allocate and must land on the recorded router id — any
/// drift means the model grew differently than the recorded epoch and the
/// caller must abort the replay. Policy ops are scoped to the step's own
/// prefix and apply verbatim.
fn apply_recorded_step(
    model: &mut AsRoutingModel,
    cfg: &RefineConfig,
    jobs: &mut [(Prefix, PrefixJob)],
    step: &RepairStep,
    mirrors: &mut BTreeMap<RouterId, RouterId>,
) -> Result<(), &'static str> {
    let job = &mut jobs[step.job].1;
    job.outcome.iterations += 1;
    for op in &step.ops {
        if let RefineOp::Duplicate { src, copy, .. } = op {
            let ancestor = probe(mirrors, *src);
            let got = model.duplicate_quasi_router(*src);
            if got != *copy {
                return Err("a replayed duplication allocated a different router id");
            }
            mirrors.insert(got, ancestor);
            job.outcome.quasi_routers_added += 1;
        } else {
            job.outcome.filters_deleted += op
                .apply(model, cfg.ranking, |r| r)
                .ok_or("a replayed filter deletion names a missing session")?;
        }
    }
    job.done = step.done;
    job.outcome.converged = step.converged;
    job.outcome.diverged = step.diverged;
    Ok(())
}

/// Re-applies the repair rounds a resumed run logged, in order, to the
/// merged model; returns how many there were.
pub(super) fn reapply_rounds(
    model: &mut AsRoutingModel,
    cfg: &RefineConfig,
    jobs: &mut [(Prefix, PrefixJob)],
    rounds: &RepairTrace,
) -> Result<u64, RefineError> {
    for (round, steps) in rounds.iter().enumerate() {
        let mut mirrors = BTreeMap::new();
        for step in steps {
            apply_recorded_step(model, cfg, jobs, step, &mut mirrors).map_err(|reason| {
                RefineError::CheckpointMismatch(format!(
                    "logged repair round {}: {reason}",
                    round + 1
                ))
            })?;
        }
    }
    Ok(rounds.len() as u64)
}

/// Phase C — the repair round loop over the merged model. Each round
/// simulates every live active prefix against the round-start model (fanned
/// out across workers), then applies fixes sequentially in ascending job
/// order: live jobs through [`live_step`], the other jobs by replaying
/// their cached steps of the same round without simulating. Every applied
/// step is recorded into the returned [`RepairTrace`].
///
/// `replay` is `None` for a plain repair, where every job is live. With
/// `Some((live, cached))` (see the `incremental` module docs), soundness
/// rests on the caller's guarantee that the merged model equals the
/// recorded epoch's — the merge duplication schedule, compared as a set,
/// is unchanged — plus the per-round check that every live fix-set's
/// duplication subsequence matches its recorded counterpart: policy ops
/// are scoped to their own (live) prefix and cannot perturb a replayed
/// prefix's implied simulation, so the first structural drift — and only
/// such drift — invalidates the remaining trace and aborts with
/// `Ok(Err(reason))`. Rounds past the end of the recorded trace have
/// nothing left to replay (every recorded job's final step is `done`) and
/// need no checks.
///
/// The loop continues after `round` (0 for a fresh repair, the last
/// logged round on resume). With a `log`, every round's steps are logged
/// once its fixes are applied. Every converged simulation is counted into
/// `work`.
// `expect` below: `simulate_batch` returns exactly one result per live
// active job, consumed in the same ascending-job order. One argument past
// clippy's limit: the repair's inputs plus its counter.
#[allow(clippy::expect_used, clippy::too_many_arguments)]
fn run_repair(
    model: &mut AsRoutingModel,
    cfg: &RefineConfig,
    jobs: &mut [(Prefix, PrefixJob)],
    mut round: u64,
    domains_total: usize,
    replay: Option<(&[bool], &RepairTrace)>,
    mut log: Option<&mut RefineLog>,
    work: &mut SimWork,
) -> Result<Result<(RefineReport, RepairTrace), &'static str>, RefineError> {
    let threads = cfg.effective_threads();
    let (live, cached) = match replay {
        Some((live, cached)) => (Some(live), cached.as_slice()),
        None => (None, &[][..]),
    };
    let is_live = |i: usize| live.is_none_or(|l| l[i]);
    let mut trace: RepairTrace = Vec::new();
    loop {
        let round_idx = round as usize;
        let live_active: Vec<usize> = jobs
            .iter()
            .enumerate()
            .filter(|(i, (_, j))| !j.done && is_live(*i))
            .map(|(i, _)| i)
            .collect();
        let cached_round: &[RepairStep] = cached.get(round_idx).map(Vec::as_slice).unwrap_or(&[]);
        if live_active.is_empty() && cached_round.is_empty() {
            break;
        }
        round += 1;
        // Failpoint: the repair-phase crash site for kill-and-resume
        // tests — work units continue the domain phase's numbering, so an
        // `atN:panic` with N > domain count dies at the start of repair
        // round N - domains.
        #[cfg(feature = "testkit")]
        if quasar_bgpsim::fail::inject("refine.round") {
            return Err(RefineError::Sim(SimError::Injected {
                point: "refine.round",
            }));
        }
        let in_replay = round_idx < cached.len();
        let prefixes: Vec<Prefix> = live_active.iter().map(|&i| jobs[i].0).collect();
        let sims = simulate_batch(model, prefixes, threads);
        for sim in sims.iter().flatten() {
            work.count(&sim.stats);
        }
        let mut sims = sims.into_iter();
        let mut steps: Vec<RepairStep> = Vec::with_capacity(live_active.len());
        // The mirror map is shared across the round so a prefix whose
        // simulation predates another prefix's duplication still reuses
        // the new router instead of duplicating again (see `apply_fixes`).
        let mut mirrors: BTreeMap<RouterId, RouterId> = BTreeMap::new();
        let mut ci = 0usize;
        let mut li = 0usize;
        while ci < cached_round.len() || li < live_active.len() {
            let cj = cached_round.get(ci).map(|s| s.job);
            let lj = live_active.get(li).copied();
            let take_cached = match (cj, lj) {
                (Some(c), Some(l)) => c < l,
                (Some(_), None) => true,
                (None, _) => false,
            };
            if take_cached {
                let step = &cached_round[ci];
                ci += 1;
                if is_live(step.job) {
                    // The live run finished this job in an earlier round.
                    // Its recorded policy ops are scoped to a live prefix
                    // (irrelevant to everyone else), but a recorded
                    // duplication means the recorded epoch grew structure
                    // the live run does not — the rest of the trace is
                    // recorded against a different model.
                    if duplicate_pairs(&step.ops).is_empty() {
                        continue;
                    }
                    return Ok(Err(
                        "a finished live prefix's recorded round still duplicates",
                    ));
                }
                if let Err(reason) = apply_recorded_step(model, cfg, jobs, step, &mut mirrors) {
                    return Ok(Err(reason));
                }
                steps.push(step.clone());
            } else {
                let i = live_active[li];
                li += 1;
                let expected = if cj == Some(i) {
                    let pairs = duplicate_pairs(&cached_round[ci].ops);
                    ci += 1;
                    pairs
                } else {
                    Vec::new()
                };
                let sim = sims.next().expect("one simulation per live active job");
                let step = live_step(model, cfg, jobs, i, sim, &mut mirrors)?;
                if in_replay && duplicate_pairs(&step.ops) != expected {
                    return Ok(Err(
                        "a live prefix's duplications drifted from the recorded round",
                    ));
                }
                steps.push(step);
            }
        }
        if let Some(log) = log.as_mut() {
            log.append(KIND_ROUND, &steps)?;
        }
        trace.push(steps);
    }
    let report = RefineReport {
        prefixes: jobs.iter().map(|(_, j)| j.outcome.clone()).collect(),
        domains: domains_total,
        repair_rounds: round,
    };
    Ok(Ok((report, trace)))
}

/// Runs the repair phase after `round`. With `replay` set, tries the trace
/// replay first and, if the trace goes stale mid-flight, restores the
/// model and jobs from a snapshot and reruns the repair with every job
/// live; only that all-live run logs its rounds. Returns the report, the
/// freshly recorded trace, and whether the replay carried through. Both
/// attempts' simulations are counted into `work`.
// One argument past clippy's limit: the repair's inputs plus its counter.
#[allow(clippy::too_many_arguments)]
pub(super) fn run_repair_traced(
    model: &mut AsRoutingModel,
    cfg: &RefineConfig,
    jobs: &mut [(Prefix, PrefixJob)],
    round: u64,
    domains_total: usize,
    replay: Option<(&[bool], &RepairTrace)>,
    log: Option<&mut RefineLog>,
    work: &mut SimWork,
) -> Result<(RefineReport, RepairTrace, bool), RefineError> {
    if replay.is_some() {
        let model_snapshot = model.clone();
        let jobs_snapshot = jobs.to_vec();
        match run_repair(model, cfg, jobs, round, domains_total, replay, None, work)? {
            Ok((report, trace)) => return Ok((report, trace, true)),
            Err(reason) => {
                // Falling back is correctness-preserving but expensive
                // enough that operators will want to know why.
                eprintln!("refine: repair-trace replay aborted ({reason}); running full repair");
                *model = model_snapshot;
                jobs.clone_from_slice(&jobs_snapshot);
            }
        }
    }
    match run_repair(model, cfg, jobs, round, domains_total, None, log, work)? {
        Ok((report, trace)) => Ok((report, trace, false)),
        Err(reason) => unreachable!("stale replay without a trace: {reason}"),
    }
}

/// Simulates `prefixes` against `model` on `threads` workers of the
/// [`pool`](crate::pool). Results come back in input order; with one
/// thread (or one prefix) no threads are spawned at all.
fn simulate_batch(
    model: &AsRoutingModel,
    prefixes: Vec<Prefix>,
    threads: usize,
) -> Vec<Result<SimulationResult, SimError>> {
    let mut out: Vec<Option<Result<SimulationResult, SimError>>> =
        prefixes.iter().map(|_| None).collect();
    let filled: Result<(), std::convert::Infallible> = crate::pool::run(
        threads,
        prefixes,
        |prefix, scratch| {
            // Failpoint: per-simulation jitter that reorders worker
            // completion (error injection belongs to `engine.simulate`
            // inside `model.simulate`, where it propagates naturally).
            #[cfg(feature = "testkit")]
            let _ = quasar_bgpsim::fail::inject("refine.simulate_batch");
            model.simulate_with(prefix, scratch)
        },
        |i, sim| {
            out[i] = Some(sim);
            Ok(())
        },
    );
    let Ok(()) = filled;
    out.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use quasar_bgpsim::aspath::AsPath;
    use quasar_bgpsim::types::Asn;
    use quasar_topology::graph::AsGraph;

    /// Lowering a shorter-path floor to zero in place removes the filters
    /// it installed; replaying the recorded step must remove them too.
    #[test]
    fn a_zero_floor_replays_like_it_ran() {
        let paths = [AsPath::from_u32s(&[1, 2, 3]), AsPath::from_u32s(&[1, 4, 3])];
        let prefix = Prefix::for_origin(Asn(3));
        let origins = [(prefix, Asn(3))].into_iter().collect();
        let mut model = AsRoutingModel::initial(&AsGraph::from_paths(&paths), &origins);
        let q = model.quasi_routers_of(Asn(1))[0];
        model.set_shorter_path_filters(q, prefix, 2);
        let before = model.clone();

        let mut host = RecordingModel {
            model: &mut model,
            ops: Vec::new(),
        };
        host.set_shorter_path_filters(q, prefix, 0);
        let step = RepairStep {
            job: 0,
            ops: host.ops,
            done: true,
            converged: true,
            diverged: false,
        };
        let mut replayed = before.clone();
        let mut jobs = vec![(prefix, PrefixJob::new(prefix, Vec::new()))];
        let cfg = RefineConfig::default();
        apply_recorded_step(&mut replayed, &cfg, &mut jobs, &step, &mut BTreeMap::new()).unwrap();

        let json = |m: &AsRoutingModel| m.to_json().unwrap();
        assert_ne!(
            json(&before),
            json(&model),
            "the zero floor removes filters"
        );
        assert_eq!(json(&replayed), json(&model));
    }
}
