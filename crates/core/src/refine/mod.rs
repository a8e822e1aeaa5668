//! The iterative refinement heuristic (paper §4.4–§4.6, Figure 6).
//!
//! For every prefix, every suffix of every observed AS-path is a *target*:
//! the AS at the suffix's head must have some quasi-router that selects the
//! rest of the suffix as its best route and propagates it. Each iteration
//! simulates the prefix, then walks the targets origin-first and fixes the
//! first discrepancy locally:
//!
//! * **RIB-Out match** — reserve the (lowest-id) matching quasi-router for
//!   this path; it is "not available for matching another observed AS-path
//!   for the same prefix".
//! * **RIB-In match, no RIB-Out** — reserve an unreserved quasi-router that
//!   learned the path (or *duplicate* one if all are reserved) and adjust
//!   its per-prefix policy: MED-rank the announcing session best and filter
//!   shorter paths at the announcing neighbors. The paper deliberately uses
//!   MED + filters, not local-pref, to avoid divergence.
//! * **No RIB-In** — either delete a previously installed filter that now
//!   blocks the path at an announcing neighbor with a RIB-Out match
//!   (Figure 7), or skip: "a route with an appropriate AS-path first has to
//!   be propagated to this AS".
//!
//! "Perfect RIB-Out matches are achieved after a total number of
//! iterations that is a multiple of the maximum AS-path length."
//!
//! # Phases and files
//!
//! One driver runs three phases (DESIGN.md §12); `fix.rs` holds the fix
//! pass above, which phases A and C share.
//!
//! * **A — domains** (`domains.rs`). The sorted prefix jobs are cut into
//!   contiguous domains, a pure function of the job count. Pool workers
//!   refine each domain to convergence against a copy-on-write view of
//!   the base model that logs every fix as a semantic op.
//! * **B — merge** (`merge.rs`). One lineage walk creates every shared
//!   duplicate, then each domain's log is replayed in ascending domain id
//!   against the complete router set.
//! * **C — repair** (`repair.rs`). One round loop re-verifies every prefix
//!   against the merged model and records its rounds as a trace the
//!   incremental trainer can replay.
//! * `checkpoint.rs` is the refinement log: one record per finished
//!   domain and per repair round, appended as the run goes, and read back
//!   by [`resume_refine`] and the incremental trainer.
//!
//! Determinism: every domain starts from the pristine base model and
//! phases B and C are sequential, in prefix order, so the trained model
//! is byte-identical at any thread count.

pub(crate) mod checkpoint;
mod domains;
mod fix;
mod merge;
mod repair;

pub use checkpoint::dataset_fingerprint;
pub(crate) use checkpoint::LogHeader;
pub(crate) use domains::{domain_ranges, DomainDelta};
pub(crate) use repair::RepairTrace;

use crate::model::AsRoutingModel;
use crate::observed::Dataset;
use crate::persist::PersistError;
use crate::train::{lap, PhaseTimes};
use checkpoint::RefineLog;
use domains::run_domains;
use merge::{merge_domains, prepare_repair, Lineage};
use quasar_bgpsim::aspath::AsPath;
use quasar_bgpsim::error::SimError;
use quasar_bgpsim::types::{Asn, Prefix, RouterId};
use repair::{reapply_rounds, run_repair_traced};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::Path;
use std::time::Instant;

/// Which attribute the heuristic uses to rank the wanted route at a
/// quasi-router.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum RankingAttr {
    /// MED ranking — the paper's choice: "we take advantage of the next
    /// step in the BGP decision process that relies on the MED attribute"
    /// (§4.6).
    #[default]
    Med,
    /// Local-pref ranking — the choice the paper *rejected* because "the
    /// preference of routes with longer AS-paths over those with shorter
    /// ones can lead to divergence". Provided as an ablation; expect
    /// [`PrefixOutcome::diverged`] prefixes.
    LocalPref,
}

impl RankingAttr {
    /// Ranks the routes arriving over `senders` best at `q` for `prefix`.
    fn rank(self, model: &mut AsRoutingModel, q: RouterId, prefix: Prefix, senders: &[RouterId]) {
        match self {
            RankingAttr::Med => model.set_med_preference(q, prefix, senders),
            RankingAttr::LocalPref => model.set_local_pref_preference(q, prefix, senders),
        }
    }
}

/// Refinement tunables.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RefineConfig {
    /// Hard cap on iterations per prefix per phase. The paper's bound is a
    /// small multiple of the maximum AS-path length; the default leaves
    /// ample slack.
    pub max_iterations: usize,
    /// Allow quasi-router duplication. Disabling it ablates the paper's
    /// central mechanism: the model degenerates to one router per AS plus
    /// policies, and concurrent-path targets become unsatisfiable.
    pub allow_duplication: bool,
    /// Ranking attribute (see [`RankingAttr`]).
    pub ranking: RankingAttr,
    /// Worker threads for the domain phase and the repair-round
    /// simulations inside [`refine`]. `0` means "all available cores".
    /// The trained model is byte-identical regardless of this setting:
    /// domains are refined independently from the same base model and
    /// merged in domain order, so no result ever depends on the thread
    /// schedule.
    #[serde(default)]
    pub threads: usize,
}

impl Default for RefineConfig {
    fn default() -> Self {
        RefineConfig {
            max_iterations: 64,
            allow_duplication: true,
            ranking: RankingAttr::Med,
            threads: 0,
        }
    }
}

impl RefineConfig {
    /// The effective worker-thread count (resolves `threads == 0` to
    /// every available core, as the whole-model passes do).
    pub fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            crate::pool::all_cores()
        }
    }
}

/// Outcome of refining one prefix.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PrefixOutcome {
    /// The prefix.
    pub prefix: Prefix,
    /// Distinct (AS, suffix) targets derived from the training paths.
    pub targets: usize,
    /// Iterations used across domain and repair phases (1 = matched
    /// immediately).
    pub iterations: usize,
    /// Whether every target reached a RIB-Out match.
    pub converged: bool,
    /// Quasi-routers created while refining this prefix (after
    /// cross-domain deduplication at merge).
    pub quasi_routers_added: usize,
    /// Blocking filters deleted (Figure 7 situations).
    pub filters_deleted: usize,
    /// True if the installed policies made the BGP propagation oscillate —
    /// only possible with [`RankingAttr::LocalPref`] (§4.6).
    pub diverged: bool,
}

/// Whole-training-set refinement report.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RefineReport {
    /// Per-prefix outcomes, in prefix order.
    pub prefixes: Vec<PrefixOutcome>,
    /// Refinement domains the prefix space was partitioned into.
    #[serde(default)]
    pub domains: usize,
    /// Verification/fix rounds of the post-merge repair phase.
    #[serde(default)]
    pub repair_rounds: u64,
}

impl RefineReport {
    /// True if every prefix converged to full RIB-Out matches.
    pub fn converged(&self) -> bool {
        self.prefixes.iter().all(|p| p.converged)
    }

    /// Total quasi-routers created by refinement.
    pub fn quasi_routers_added(&self) -> usize {
        self.prefixes.iter().map(|p| p.quasi_routers_added).sum()
    }

    /// Total iterations over all prefixes.
    pub fn total_iterations(&self) -> usize {
        self.prefixes.iter().map(|p| p.iterations).sum()
    }

    /// Maximum iterations needed by any prefix.
    pub fn max_iterations(&self) -> usize {
        self.prefixes
            .iter()
            .map(|p| p.iterations)
            .max()
            .unwrap_or(0)
    }

    /// Checkpointable work units of this run: one per domain claim plus
    /// one per repair round — exactly the evaluation count of the
    /// `refine.round` failpoint, which kill-and-resume tests use to place
    /// their crash sites.
    pub fn work_units(&self) -> u64 {
        self.domains as u64 + self.repair_rounds
    }
}

/// What can interrupt a checkpointed refinement run.
#[derive(Debug)]
pub enum RefineError {
    /// The simulation engine failed (including injected faults).
    Sim(SimError),
    /// Writing or reading a checkpoint failed.
    Persist(PersistError),
    /// A checkpoint loaded fine but does not belong to this run — wrong
    /// dataset, wrong refinement configuration, or a prefix set that no
    /// longer lines up. Resuming from it would silently train a
    /// different model, so it is refused.
    CheckpointMismatch(String),
}

impl fmt::Display for RefineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RefineError::Sim(e) => write!(f, "simulation failed: {e}"),
            RefineError::Persist(e) => write!(f, "checkpoint I/O failed: {e}"),
            RefineError::CheckpointMismatch(detail) => {
                write!(f, "checkpoint does not match this run: {detail}")
            }
        }
    }
}

impl std::error::Error for RefineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RefineError::Sim(e) => Some(e),
            RefineError::Persist(e) => Some(e),
            RefineError::CheckpointMismatch(_) => None,
        }
    }
}

impl From<SimError> for RefineError {
    fn from(e: SimError) -> Self {
        RefineError::Sim(e)
    }
}

impl From<PersistError> for RefineError {
    fn from(e: PersistError) -> Self {
        RefineError::Persist(e)
    }
}

/// One refinement target: the AS `asn` must select & propagate the observed
/// suffix `o` (which has `asn` at its head).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct Target {
    /// Suffix length — processed ascending so fixes flow origin → observer.
    pub(crate) len: usize,
    /// The observed suffix (head = `asn`).
    pub(crate) o: AsPath,
    /// The AS responsible for it.
    pub(crate) asn: Asn,
}

/// Derives the deduplicated target set for one prefix from its training
/// paths.
pub(crate) fn targets_for(paths: &[&AsPath]) -> Vec<Target> {
    let mut set: BTreeSet<Target> = BTreeSet::new();
    for p in paths {
        for n in 1..=p.len() {
            let o = p.suffix(n);
            let Some(asn) = o.head() else {
                continue; // unreachable: a length-n suffix with n >= 1
            };
            set.insert(Target { len: n, o, asn });
        }
    }
    set.into_iter().collect()
}

/// One prefix's refinement state.
#[derive(Clone)]
pub(crate) struct PrefixJob {
    pub(crate) targets: Vec<Target>,
    pub(crate) outcome: PrefixOutcome,
    /// Converged, diverged, stuck, or out of iterations.
    pub(crate) done: bool,
    /// Iteration cap for the repair phase (domain-phase iterations plus a
    /// fresh [`RefineConfig::max_iterations`] budget).
    pub(crate) max_iter: usize,
}

impl PrefixJob {
    /// A fresh job for `prefix`: no iterations spent, no cap yet.
    fn new(prefix: Prefix, targets: Vec<Target>) -> Self {
        PrefixJob {
            outcome: PrefixOutcome {
                prefix,
                targets: targets.len(),
                iterations: 0,
                converged: false,
                quasi_routers_added: 0,
                filters_deleted: 0,
                diverged: false,
            },
            targets,
            done: false,
            max_iter: usize::MAX,
        }
    }
}

/// Refines `model` until the simulated routing reproduces every AS-path of
/// `training` (or the iteration cap is hit).
///
/// The prefix space is sharded into contiguous refinement domains that
/// worker threads claim from an atomic work queue and refine independently
/// against copy-on-write views of the base model; the recorded fixes are
/// then merged in domain order and a repair pass re-verifies every prefix
/// (see the module docs). Because the fix-application order is a pure
/// function of prefix id, the trained model is byte-identical for every
/// thread count.
pub fn refine(
    model: &mut AsRoutingModel,
    training: &Dataset,
    cfg: &RefineConfig,
) -> Result<RefineReport, SimError> {
    match refine_checkpointed(model, training, cfg, None) {
        Ok((report, _)) => Ok(report),
        Err(RefineError::Sim(e)) => Err(e),
        // Without a directory no log is ever read or written, so no
        // other error variant can arise.
        Err(e) => unreachable!("log error without a log directory: {e}"),
    }
}

/// [`refine`], optionally keeping an append-only log in `dir` (replacing
/// any log there): one record per finished domain and repair round, from
/// which [`resume_refine`] continues an interrupted run into the same
/// bytes. Returns the report with the wall time of phases A (job
/// building and domains), B and C.
pub fn refine_checkpointed(
    model: &mut AsRoutingModel,
    training: &Dataset,
    cfg: &RefineConfig,
    dir: Option<&Path>,
) -> Result<(RefineReport, PhaseTimes), RefineError> {
    let clock = Instant::now();
    let mut jobs = build_jobs(model, training);
    let log = dir
        .map(|dir| RefineLog::create(dir, &LogHeader::new(cfg, training, model, jobs.len())))
        .transpose()?;
    let start = Progress::default();
    let refined = run_phases(model, cfg, &mut jobs, start, log, None, clock)?;
    Ok((refined.report, refined.phases))
}

/// Continues the [`refine_checkpointed`] run logged in `dir` from
/// `model`, the base model that run was given, into the model and report
/// it would have produced. A log of another base model, training set or
/// configuration (`threads` excepted) is refused with
/// [`RefineError::CheckpointMismatch`] before `model` is touched; one
/// without a finished unit is [`PersistError::NoCheckpoint`]. Phase A's
/// wall time includes reading the log, C's re-applying its rounds.
pub fn resume_refine(
    model: &mut AsRoutingModel,
    training: &Dataset,
    cfg: &RefineConfig,
    dir: &Path,
) -> Result<(RefineReport, PhaseTimes), RefineError> {
    let clock = Instant::now();
    let mut logged = checkpoint::read(dir)?;
    let mut jobs = build_jobs(model, training);
    let run = LogHeader::new(cfg, training, model, jobs.len());
    if let Some(reason) = logged.header.mismatch(&run, true) {
        return Err(RefineError::CheckpointMismatch(reason));
    }
    let start = Progress {
        done: std::mem::take(&mut logged.done),
        rounds: std::mem::take(&mut logged.rounds),
    };
    let log = RefineLog::reopen(&logged)?;
    let refined = run_phases(model, cfg, &mut jobs, start, Some(log), None, clock)?;
    Ok((refined.report, refined.phases))
}

/// Where [`run_phases`] starts: the domains already refined and, on
/// resume, the repair rounds already logged.
#[derive(Default)]
pub(crate) struct Progress {
    pub(crate) done: BTreeMap<usize, DomainDelta>,
    pub(crate) rounds: RepairTrace,
}

/// A previous run's repair phase, offered to [`run_phases`] for replay.
pub(crate) struct RecordedRepair<'a> {
    /// Every domain delta of the recorded run, in domain order.
    pub(crate) deltas: &'a [DomainDelta],
    /// Per job: true when its prefix must be simulated live rather than
    /// replayed (its domain was re-refined).
    pub(crate) live: &'a [bool],
    /// The recorded run's repair trace.
    pub(crate) trace: &'a RepairTrace,
}

/// What [`run_phases`] produced besides the refined model.
pub(crate) struct Refined {
    pub(crate) report: RefineReport,
    pub(crate) phases: PhaseTimes,
    /// Every domain's delta, by domain id.
    pub(crate) deltas: BTreeMap<usize, DomainDelta>,
    /// The repair phase as it ran, replayable by the next run.
    pub(crate) trace: RepairTrace,
    /// Whether the offered [`RecordedRepair`] was replayed to the end.
    pub(crate) replayed: bool,
}

/// The refinement driver, phases A → B → C. Refines the domains missing
/// from `start` (phase A, which began at `clock`), merges every domain's
/// delta into `model` and arms the repair (B), then re-applies the rounds
/// `start` logged and runs the rest of the repair (C). With a `log`, each
/// finished domain and round is logged. A `recorded` repair is replayed
/// only when this run's merge allocated exactly the recorded run's
/// duplicate set (see [`merge::Lineage`]); otherwise, or once the replay
/// goes stale, every prefix is repaired live.
pub(crate) fn run_phases(
    model: &mut AsRoutingModel,
    cfg: &RefineConfig,
    jobs: &mut [(Prefix, PrefixJob)],
    start: Progress,
    mut log: Option<RefineLog>,
    recorded: Option<RecordedRepair<'_>>,
    mut clock: Instant,
) -> Result<Refined, RefineError> {
    let Progress { mut done, rounds } = start;
    let mut phases = PhaseTimes::default();
    let ranges = domain_ranges(jobs.len());
    let work = &mut phases.domains_work;
    run_domains(model, cfg, jobs, &ranges, &mut done, log.as_mut(), work)?;
    phases.domains = lap(&mut clock);

    let merged = merge_domains(model, cfg, &ranges, &done, jobs);
    prepare_repair(jobs, cfg);
    // Structure shifted iff the merge allocated a different duplicate set
    // than the recorded run's (see `Lineage`), whose set the dense
    // allocator reproduces: the merge allocates the same on an initial
    // model.
    let replay = recorded
        .filter(|r| {
            r.deltas.len() == ranges.len()
                && Lineage::walk_dense(r.deltas).created_set() == merged.created_set()
        })
        .map(|r| (r.live, r.trace));
    phases.merge = lap(&mut clock);

    let round = reapply_rounds(model, cfg, jobs, &rounds)?;
    let work = &mut phases.repair_work;
    let (report, trace, replayed) = run_repair_traced(
        model,
        cfg,
        jobs,
        round,
        ranges.len(),
        replay,
        log.as_mut(),
        work,
    )?;
    phases.repair = lap(&mut clock);
    Ok(Refined {
        report,
        phases,
        deltas: done,
        trace,
        replayed,
    })
}

/// Builds the per-prefix jobs in ascending prefix order — this is also
/// the domain-partition order, hence the fix-application order of the
/// merge. Prefixes whose origin is absent from the model graph cannot be
/// simulated and are skipped, as before.
pub(crate) fn build_jobs(model: &AsRoutingModel, training: &Dataset) -> Vec<(Prefix, PrefixJob)> {
    let mut by_prefix: BTreeMap<Prefix, Vec<&AsPath>> = BTreeMap::new();
    for r in training.routes() {
        by_prefix.entry(r.prefix).or_default().push(&r.as_path);
    }
    by_prefix
        .iter()
        .filter(|(prefix, _)| model.prefixes().contains_key(prefix))
        .map(|(&prefix, paths)| (prefix, PrefixJob::new(prefix, targets_for(paths))))
        .collect()
}

/// For the incremental trainer's tests, which corrupt a recorded trace.
#[cfg(test)]
pub(crate) use fix::RefineOp;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{match_level, MatchLevel};
    use crate::observed::ObservedRoute;
    use quasar_topology::graph::AsGraph;

    fn model_from(paths: &[&[u32]], origin: u32) -> (AsRoutingModel, Prefix, Vec<AsPath>) {
        let aspaths: Vec<AsPath> = paths.iter().map(|p| AsPath::from_u32s(p)).collect();
        let graph = AsGraph::from_paths(&aspaths);
        let prefix = Prefix::for_origin(Asn(origin));
        let mut origins = BTreeMap::new();
        origins.insert(prefix, Asn(origin));
        (AsRoutingModel::initial(&graph, &origins), prefix, aspaths)
    }

    /// Refines `model` with [`refine`] on a training set of one prefix,
    /// `observed` from one observation point each; returns its outcome.
    fn refine_one(
        model: &mut AsRoutingModel,
        prefix: Prefix,
        observed: &[AsPath],
    ) -> PrefixOutcome {
        let training = Dataset::new(observed.iter().enumerate().map(|(i, p)| ObservedRoute {
            point: i as u32,
            observer_as: p.head().unwrap(),
            prefix,
            as_path: p.clone(),
        }));
        let report = refine(model, &training, &RefineConfig::default()).unwrap();
        assert_eq!(report.prefixes.len(), 1);
        report.prefixes[0].clone()
    }

    fn assert_all_rib_out(model: &AsRoutingModel, prefix: Prefix, paths: &[AsPath]) {
        let res = model.simulate(prefix).unwrap();
        for p in paths {
            let routers = model.quasi_routers_of(p.head().unwrap());
            assert_eq!(
                match_level(&res, &routers, p),
                MatchLevel::RibOut,
                "path {p} not RIB-Out matched"
            );
        }
    }

    /// §4.4 Figure 5 scenario (a)→(b): the observed path 1-4-3... here
    /// simplified: diamond where observation disagrees with the default
    /// tie-break, fixed by MED ranking alone.
    #[test]
    fn fixes_wrong_tie_break() {
        let (mut model, prefix, _) = model_from(&[&[1, 2, 3], &[1, 4, 3]], 3);
        // Observed: AS1 uses 1-4-3 (the tie-break loser).
        let observed = vec![AsPath::from_u32s(&[1, 4, 3])];
        let out = refine_one(&mut model, prefix, &observed);
        assert!(out.converged, "did not converge: {out:?}");
        assert_all_rib_out(&model, prefix, &observed);
    }

    /// §4.4 Figure 5 (c): two observed paths of different length at the
    /// same AS require a second quasi-router plus filters.
    #[test]
    fn creates_quasi_router_for_second_path() {
        // AS1 connects to 4 directly and via 5; p2 at AS4; observed both
        // 1-4 and 1-5-4.
        let (mut model, prefix, _) = model_from(&[&[1, 4], &[1, 5, 4]], 4);
        let observed = vec![AsPath::from_u32s(&[1, 4]), AsPath::from_u32s(&[1, 5, 4])];
        let out = refine_one(&mut model, prefix, &observed);
        assert!(out.converged, "did not converge: {out:?}");
        assert!(out.quasi_routers_added >= 1, "no quasi-router added");
        assert_eq!(model.quasi_routers_of(Asn(1)).len(), 2);
        assert_all_rib_out(&model, prefix, &observed);
    }

    /// §4.6 Figure 7: a filter set for a shorter path blocks a longer path
    /// later; the heuristic must delete it.
    #[test]
    fn filter_deletion_unblocks_longer_path() {
        // Topology: 1-7, 7-4 (direct), 7-6, 6-5, 5-4. Prefix p at AS4.
        // Observed at AS1: 1-7-4 and 1-7-6-5-4.
        let (mut model, prefix, _) = model_from(&[&[1, 7, 4], &[1, 7, 6, 5, 4]], 4);
        let observed = vec![
            AsPath::from_u32s(&[1, 7, 4]),
            AsPath::from_u32s(&[1, 7, 6, 5, 4]),
        ];
        let out = refine_one(&mut model, prefix, &observed);
        assert!(out.converged, "did not converge: {out:?}");
        assert_all_rib_out(&model, prefix, &observed);
    }

    /// Whole-dataset refinement across several prefixes converges and the
    /// training set then matches exactly.
    #[test]
    fn refine_training_set_to_exact_match() {
        let routes = vec![
            (&[1u32, 2, 3][..], 3u32, 0u32),
            (&[1, 4, 3], 3, 0),
            (&[5, 4, 3], 3, 1),
            (&[5, 2, 3], 3, 1),
            (&[1, 2], 2, 0),
            (&[5, 4, 2_000], 2_000, 1),
        ];
        let dataset = Dataset::new(routes.into_iter().map(|(p, origin, point)| ObservedRoute {
            point,
            observer_as: Asn(p[0]),
            prefix: Prefix::for_origin(Asn(origin)),
            as_path: AsPath::from_u32s(p),
        }));
        let graph = dataset.as_graph();
        let mut model = AsRoutingModel::initial(&graph, &dataset.prefixes());
        let report = refine(&mut model, &dataset, &RefineConfig::default()).unwrap();
        assert!(report.converged(), "not converged: {report:?}");
        for (prefix, _) in dataset.prefixes() {
            let res = model.simulate(prefix).unwrap();
            for r in dataset.routes_for(prefix) {
                let routers = model.quasi_routers_of(r.observer_as);
                assert_eq!(
                    match_level(&res, &routers, &r.as_path),
                    MatchLevel::RibOut,
                    "route {} not matched",
                    r.as_path
                );
            }
        }
    }

    #[test]
    fn targets_deduplicate_shared_suffixes() {
        let p1 = AsPath::from_u32s(&[1, 2, 3]);
        let p2 = AsPath::from_u32s(&[4, 2, 3]);
        let t = targets_for(&[&p1, &p2]);
        // suffixes: [3], [2,3], [1,2,3], [4,2,3] -> 4 targets.
        assert_eq!(t.len(), 4);
        assert!(t[0].len <= t[t.len() - 1].len, "targets sorted by length");
    }

    /// One iteration in the domain phase, one verification round in the
    /// repair phase.
    #[test]
    fn already_consistent_training_converges_at_once_in_each_phase() {
        let (mut model, prefix, _) = model_from(&[&[1, 2, 3]], 3);
        let observed = [AsPath::from_u32s(&[1, 2, 3])];
        let out = refine_one(&mut model, prefix, &observed);
        assert!(out.converged);
        assert_eq!(out.iterations, 2);
        assert_eq!(out.quasi_routers_added, 0);
    }

    /// A dataset wide enough to shard into several domains must still be
    /// trained byte-identically at every thread count.
    #[test]
    fn multi_domain_refinement_is_thread_count_invariant() {
        // 40 diamond prefixes (>2 domains at the 16-prefix target), each
        // needing a MED fix against the tie-break.
        let routes: Vec<ObservedRoute> = (0..40u32)
            .flat_map(|i| {
                let origin = 100 + i;
                [[1u32, 2, origin], [1, 3, origin]]
                    .into_iter()
                    .map(move |p| ObservedRoute {
                        point: 0,
                        observer_as: Asn(p[0]),
                        prefix: Prefix::for_origin(Asn(origin)),
                        as_path: AsPath::from_u32s(&p),
                    })
            })
            .collect();
        let dataset = Dataset::new(routes);
        let graph = dataset.as_graph();
        let mut baseline: Option<(String, RefineReport)> = None;
        for threads in [1usize, 2, 4, 8] {
            let cfg = RefineConfig {
                threads,
                ..RefineConfig::default()
            };
            let mut model = AsRoutingModel::initial(&graph, &dataset.prefixes());
            let report = refine(&mut model, &dataset, &cfg).unwrap();
            assert!(report.converged(), "threads={threads}: {report:?}");
            assert!(report.domains > 1, "expected multiple domains");
            let json = model.to_json().unwrap();
            match &baseline {
                None => baseline = Some((json, report)),
                Some((bjson, breport)) => {
                    assert_eq!(&json, bjson, "model differs at threads={threads}");
                    assert_eq!(&report, breport, "report differs at threads={threads}");
                }
            }
        }
    }
}
