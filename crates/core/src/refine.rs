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
//! # Parallel schedule: sharded domains, merge, repair
//!
//! Per-prefix refinement is embarrassingly parallel in principle, but a
//! per-round barrier with whole-model snapshots spends more time waiting
//! and copying than refining. The schedule here has three phases:
//!
//! 1. **Domains.** The (sorted) prefix jobs are partitioned into
//!    contiguous *refinement domains* — a pure function of the job count,
//!    never of the thread count. Workers claim whole domains from an
//!    atomic work queue; each domain refines its prefixes sequentially to
//!    convergence against a copy-on-write `DomainModel` view that clones
//!    the base model only on first mutation and records every fix as a
//!    semantic `RefineOp`.
//! 2. **Merge.** Two passes in ascending domain id. Pass one creates
//!    every duplicated quasi-router, policy-clean: quasi-routers
//!    duplicated in different domains from the same lineage (source
//!    router, per-source ordinal) are deduplicated onto one shared copy.
//!    Pass two replays each domain's op-log against the complete router
//!    set, and at each `Duplicate` re-applies that domain's own earlier
//!    ops on the source to the shared copy — reproducing what the
//!    domain-local clone inherited. Creating first and replaying second
//!    makes the merged model a function of the duplicate *set* plus the
//!    per-domain logs, never of the order in which domains first claim a
//!    shared copy — the invariant the incremental trainer's repair-trace
//!    replay is built on (see `merge_duplication_schedule`).
//! 3. **Repair.** One round loop, `run_repair`, re-verifies every prefix
//!    against the merged model and fixes any residual cross-domain
//!    interference — typically a single verification round. It records
//!    every round's fixes as a repair trace, can replay a previous
//!    epoch's trace for the incremental trainer, and checkpoints on round
//!    boundaries for [`resume_refine`].
//!
//! Determinism: phase 1 results are schedule-independent (every domain
//! starts from the pristine base model), and phases 2 and 3 are
//! sequential-deterministic, so the trained model is byte-identical at
//! any thread count. Fix application order is a pure function of prefix
//! id — (domain id, position in domain) — not of worker scheduling.

use crate::model::AsRoutingModel;
use crate::observed::Dataset;
use crate::persist::{self, PersistError};
use crate::train::{lap, PhaseTimes};
use quasar_bgpsim::aspath::AsPath;
use quasar_bgpsim::engine::{SimScratch, SimulationResult};
use quasar_bgpsim::error::SimError;
use quasar_bgpsim::types::{Asn, Prefix, RouterId};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::ops::Range;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
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
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
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
    /// The effective worker-thread count (resolves `threads == 0` to the
    /// number of available cores).
    pub fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
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

/// Where and how often [`refine_checkpointed`] snapshots its state.
#[derive(Debug, Clone)]
pub struct CheckpointPolicy {
    /// Checkpoint directory (created on first write).
    pub dir: PathBuf,
    /// Write a checkpoint after every `every`-th work unit — a completed
    /// domain in the domain phase, a completed round in the repair phase
    /// (1 = every unit).
    pub every: u64,
    /// How many checkpoints to keep; older ones are pruned after each
    /// write. At least 2, so a damaged newest checkpoint still leaves a
    /// fallback.
    pub keep: usize,
}

impl CheckpointPolicy {
    /// A policy checkpointing into `dir` after every work unit, keeping 2.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        CheckpointPolicy {
            dir: dir.into(),
            every: 1,
            keep: 2,
        }
    }
}

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

/// The mutation surface [`apply_fixes`] needs: a model to read and mutate
/// plus an op-log that records every fix as a [`RefineOp`]. The provided
/// methods apply each fix and log it; a zero-length shorter-path floor and
/// a filter deletion that deleted nothing are applied but not logged. Two
/// hosts implement it: a domain's copy-on-write [`DomainModel`] and the
/// in-place [`RecordingModel`].
trait RefineHost {
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
        if min_locrib_len > 0 {
            self.record(RefineOp::ShorterFilters {
                q,
                prefix,
                min_locrib_len,
            });
        }
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

/// A refinement domain's copy-on-write view of the base model: reads hit
/// the borrowed base until the first mutation clones it, so a domain whose
/// prefixes are already consistent costs zero model copies — snapshots are
/// O(touched state), not O(model) per round.
struct DomainModel<'a> {
    base: &'a AsRoutingModel,
    owned: Option<AsRoutingModel>,
    ops: Vec<RefineOp>,
}

impl<'a> DomainModel<'a> {
    fn new(base: &'a AsRoutingModel) -> Self {
        DomainModel {
            base,
            owned: None,
            ops: Vec::new(),
        }
    }
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
        // A domain skips a zero floor outright rather than applying it
        // unlogged: the merge rebuilds the domain's effect from its log.
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

/// A [`RefineHost`] over the real model, mutated in place: the repair
/// phase's counterpart of [`DomainModel`]'s op-log, and the host of
/// [`refine_prefix`] (which drops the log).
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

/// One claimable unit of the parallel domain queue: the domain id plus
/// exclusive ownership of its contiguous job slice. The `Option` lets the
/// claiming worker take the slice out under the lock.
type DomainWorkItem<'j> = parking_lot::Mutex<Option<(usize, &'j mut [(Prefix, PrefixJob)])>>;

/// A completed domain's result: its op-log plus the per-prefix outcomes,
/// in the domain's (ascending-prefix) job order.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct DomainDelta {
    pub(crate) id: usize,
    pub(crate) ops: Vec<RefineOp>,
    pub(crate) outcomes: Vec<PrefixOutcome>,
}

/// The duplication schedule [`merge_domains`]'s pass one would execute
/// for a full set of domain deltas (ascending domain order): the
/// deduplicated `(global source, allocated copy)` pairs in creation
/// order, with per-AS indices allocated densely from 1 exactly as
/// `duplicate_quasi_router_clean` does on the base model (one router per
/// AS).
///
/// Domains overlap heavily in which routers they duplicate — every
/// domain that needs a second quasi-router in a popular transit AS
/// records its own `Duplicate` op, and the merge collapses them onto one
/// shared copy keyed by `(global source, per-domain ordinal)`. A dirty
/// domain can therefore reshuffle, add, or drop `Duplicate` ops without
/// changing the merged model at all, as long as every key it touches is
/// also claimed by some other domain. Comparing this schedule *as a set*
/// — rather than per-domain op subsequences, or even creation order — is
/// what decides whether two runs merge into byte-identical shared
/// structure: the pairs pin the router set and the ids, the session
/// graph closes over the same bipartite adjacency whatever the creation
/// order, and the two-pass merge applies every policy op against the
/// complete router set with claimant-scoped re-application, so no
/// creation-order effect can leak into the merged bytes. Only (router,
/// prefix)-scoped policy ops can then differ between the runs, and those
/// are invisible to other prefixes' simulations.
pub(crate) fn merge_duplication_schedule<'d>(
    deltas: impl Iterator<Item = &'d DomainDelta>,
) -> Vec<(RouterId, RouterId)> {
    let mut next_index: BTreeMap<Asn, u16> = BTreeMap::new();
    let mut global_dups: BTreeMap<(RouterId, usize), RouterId> = BTreeMap::new();
    let mut schedule = Vec::new();
    for delta in deltas {
        let mut l2g: BTreeMap<RouterId, RouterId> = BTreeMap::new();
        let mut ordinals: BTreeMap<RouterId, usize> = BTreeMap::new();
        for op in &delta.ops {
            if let RefineOp::Duplicate { src, copy, .. } = op {
                let gsrc = l2g.get(src).copied().unwrap_or(*src);
                let ord = ordinals.entry(gsrc).or_insert(0);
                let key = (gsrc, *ord);
                *ord += 1;
                match global_dups.get(&key) {
                    Some(&g) => {
                        l2g.insert(*copy, g);
                    }
                    None => {
                        let idx = next_index.entry(gsrc.asn()).or_insert(1);
                        let g = RouterId::new(gsrc.asn(), *idx);
                        *idx += 1;
                        global_dups.insert(key, g);
                        l2g.insert(*copy, g);
                        schedule.push((gsrc, g));
                    }
                }
            }
        }
    }
    schedule
}

/// Serialized refinement state: everything [`resume_refine`] needs to
/// continue mid-run and still produce a byte-identical final model.
/// Targets are *not* stored — they are rebuilt deterministically from the
/// training set, which the fingerprint pins to the original run's.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct RefineCheckpoint {
    /// Work units completed when this snapshot was taken: completed
    /// domains in the domain phase, `domains + repair round` afterwards.
    seq: u64,
    /// Fingerprint of the training routes (see [`dataset_fingerprint`]).
    dataset_fingerprint: u64,
    /// The original run's [`RefineConfig::max_iterations`].
    max_iterations: usize,
    /// The original run's [`RefineConfig::allow_duplication`].
    allow_duplication: bool,
    /// The original run's [`RefineConfig::ranking`].
    ranking: RankingAttr,
    /// Total domain count of the partition (a function of the job count;
    /// stored for validation).
    domains: usize,
    /// Phase-specific progress.
    stage: StageCheckpoint,
    /// In the domain phase: the (unmutated) base model. In the repair
    /// phase: the merged model as of the end of the checkpointed round.
    model: AsRoutingModel,
}

/// Which phase a [`RefineCheckpoint`] was taken in.
#[derive(Debug, Clone, Serialize, Deserialize)]
enum StageCheckpoint {
    /// Domain phase: the deltas of every completed domain. Which subset is
    /// done may depend on worker scheduling, but each delta is itself
    /// deterministic, so resuming from any subset converges to the same
    /// final model.
    Domains { done: Vec<DomainDelta> },
    /// Repair phase: the round counter and per-prefix progress.
    Repair {
        round: u64,
        jobs: Vec<JobCheckpoint>,
    },
}

/// One prefix's progress inside a repair-phase [`RefineCheckpoint`].
#[derive(Debug, Clone, Serialize, Deserialize)]
struct JobCheckpoint {
    outcome: PrefixOutcome,
    done: bool,
    max_iter: usize,
}

/// Order-sensitive FNV-1a fingerprint of the training routes. Resuming
/// against a different dataset would re-derive different targets and
/// diverge silently; the fingerprint turns that into a typed refusal.
pub fn dataset_fingerprint(training: &Dataset) -> u64 {
    let mut text = String::new();
    for r in training.routes() {
        use std::fmt::Write as _;
        let _ = writeln!(
            text,
            "{} {} {} {}",
            r.point, r.observer_as.0, r.prefix, r.as_path
        );
    }
    persist::fnv1a(text.as_bytes())
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
    /// True once the repair phase applied *any* fix for this prefix — the
    /// domain-phase result did not verify as-is against the merged model.
    /// The incremental trainer treats such prefixes as never "clean"; the
    /// flag is in-memory bookkeeping only and never checkpointed.
    pub(crate) repair_changed: bool,
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
            repair_changed: false,
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
        Ok(report) => Ok(report),
        Err(RefineError::Sim(e)) => Err(e),
        // Without a checkpoint policy no checkpoint is ever read or
        // written, so no other error variant can arise.
        Err(e) => unreachable!("checkpoint error without a checkpoint policy: {e}"),
    }
}

/// [`refine`] with optional checkpointing: with a [`CheckpointPolicy`],
/// the full refinement state is snapshotted to `policy.dir` after every
/// `policy.every`-th work unit (completed domain, then completed repair
/// round), and an interrupted run can be continued with [`resume_refine`]
/// — producing a final model byte-identical to the uninterrupted run,
/// because domain deltas are deterministic and repair snapshots sit
/// exactly on round boundaries.
pub fn refine_checkpointed(
    model: &mut AsRoutingModel,
    training: &Dataset,
    cfg: &RefineConfig,
    policy: Option<&CheckpointPolicy>,
) -> Result<RefineReport, RefineError> {
    refine_timed(model, training, cfg, policy).map(|(report, _)| report)
}

/// [`refine_checkpointed`] with the wall time of phases A, B and C.
pub(crate) fn refine_timed(
    model: &mut AsRoutingModel,
    training: &Dataset,
    cfg: &RefineConfig,
    policy: Option<&CheckpointPolicy>,
) -> Result<(RefineReport, PhaseTimes), RefineError> {
    let mut clock = Instant::now();
    let mut phases = PhaseTimes::default();
    let mut jobs = build_jobs(model, training);
    let ranges = domain_ranges(jobs.len());
    let fingerprint = policy.map(|_| dataset_fingerprint(training)).unwrap_or(0);
    let mut done: BTreeMap<usize, DomainDelta> = BTreeMap::new();
    run_domains(
        model,
        cfg,
        &mut jobs,
        &ranges,
        &mut done,
        fingerprint,
        policy,
    )?;
    phases.domains = lap(&mut clock);
    merge_domains(model, cfg, &ranges, &done, &mut jobs);
    prepare_repair(&mut jobs, cfg);
    phases.merge = lap(&mut clock);
    let checkpoint = policy.map(|p| (p, fingerprint));
    let (report, _) = run_repair(model, cfg, &mut jobs, 0, ranges.len(), None, checkpoint)
        .map_err(HybridError::into_refine)?;
    phases.repair = lap(&mut clock);
    Ok((report, phases))
}

/// Continues an interrupted [`refine_checkpointed`] run from the newest
/// loadable checkpoint in `policy.dir`. The checkpoint must match the
/// given training set and configuration (`threads` excepted — the model
/// is byte-identical at any thread count); mismatches are refused with
/// [`RefineError::CheckpointMismatch`]. Returns the restored-and-finished
/// model with the full-run report.
pub fn resume_refine(
    training: &Dataset,
    cfg: &RefineConfig,
    policy: &CheckpointPolicy,
) -> Result<(AsRoutingModel, RefineReport), RefineError> {
    resume_timed(training, cfg, policy).map(|(model, report, _)| (model, report))
}

/// [`resume_refine`] with the wall time of phases A (restoring the
/// checkpoint and refining the domains it lacks), B and C.
pub(crate) fn resume_timed(
    training: &Dataset,
    cfg: &RefineConfig,
    policy: &CheckpointPolicy,
) -> Result<(AsRoutingModel, RefineReport, PhaseTimes), RefineError> {
    let mut clock = Instant::now();
    let mut phases = PhaseTimes::default();
    let (file_seq, payload) = persist::load_latest_checkpoint_payload(&policy.dir)?;
    let text = std::str::from_utf8(&payload)
        .map_err(|_| RefineError::CheckpointMismatch("checkpoint payload is not UTF-8".into()))?;
    let ckpt: RefineCheckpoint = serde_json::from_str(text)
        .map_err(|e| RefineError::CheckpointMismatch(format!("checkpoint does not parse: {e}")))?;
    if ckpt.seq != file_seq {
        return Err(RefineError::CheckpointMismatch(format!(
            "file is named for work unit {file_seq} but contains unit {}",
            ckpt.seq
        )));
    }
    let fingerprint = dataset_fingerprint(training);
    if ckpt.dataset_fingerprint != fingerprint {
        return Err(RefineError::CheckpointMismatch(format!(
            "training data fingerprint {fingerprint:016x} differs from the checkpoint's {:016x}",
            ckpt.dataset_fingerprint
        )));
    }
    if ckpt.max_iterations != cfg.max_iterations
        || ckpt.allow_duplication != cfg.allow_duplication
        || ckpt.ranking != cfg.ranking
    {
        return Err(RefineError::CheckpointMismatch(format!(
            "refinement config changed: checkpoint ran with max_iterations={} \
             allow_duplication={} ranking={:?}",
            ckpt.max_iterations, ckpt.allow_duplication, ckpt.ranking
        )));
    }
    let mut model = ckpt.model;
    // Validate before rebuild_indices, which would panic on out-of-bounds
    // session endpoints in a damaged (but checksum-valid) snapshot.
    model
        .validate_structure()
        .map_err(|e| RefineError::CheckpointMismatch(format!("checkpoint model invalid: {e}")))?;
    model.network_mut().rebuild_indices();
    // Audit the restored snapshot before continuing: a defect here means
    // the checkpoint itself (not the remaining work) is suspect.
    crate::audit::log_audit("checkpoint-recovery", &model);
    // Targets are rebuilt from the training set — deterministic, and the
    // fingerprint guarantees they equal the original run's.
    let mut jobs = build_jobs(&model, training);
    let ranges = domain_ranges(jobs.len());
    if ckpt.domains != ranges.len() {
        return Err(RefineError::CheckpointMismatch(format!(
            "checkpoint partitioned {} domains, training set yields {}",
            ckpt.domains,
            ranges.len()
        )));
    }
    let round = match ckpt.stage {
        StageCheckpoint::Domains { done } => {
            let mut done_map: BTreeMap<usize, DomainDelta> = BTreeMap::new();
            for delta in done {
                let Some(range) = ranges.get(delta.id) else {
                    return Err(RefineError::CheckpointMismatch(format!(
                        "checkpoint contains domain {} beyond the partition",
                        delta.id
                    )));
                };
                if delta.outcomes.len() != range.len() {
                    return Err(RefineError::CheckpointMismatch(format!(
                        "domain {} tracks {} prefixes, partition expects {}",
                        delta.id,
                        delta.outcomes.len(),
                        range.len()
                    )));
                }
                for (oc, (prefix, _)) in delta.outcomes.iter().zip(&jobs[range.clone()]) {
                    if oc.prefix != *prefix {
                        return Err(RefineError::CheckpointMismatch(format!(
                            "prefix order diverged at {prefix} vs checkpoint's {}",
                            oc.prefix
                        )));
                    }
                }
                if done_map.insert(delta.id, delta).is_some() {
                    return Err(RefineError::CheckpointMismatch(
                        "checkpoint lists a domain twice".into(),
                    ));
                }
            }
            run_domains(
                &model,
                cfg,
                &mut jobs,
                &ranges,
                &mut done_map,
                fingerprint,
                Some(policy),
            )?;
            phases.domains = lap(&mut clock);
            merge_domains(&mut model, cfg, &ranges, &done_map, &mut jobs);
            prepare_repair(&mut jobs, cfg);
            phases.merge = lap(&mut clock);
            0
        }
        StageCheckpoint::Repair { round, jobs: jcs } => {
            if ckpt.seq != ranges.len() as u64 + round {
                return Err(RefineError::CheckpointMismatch(format!(
                    "repair checkpoint at unit {} does not match domains {} + round {round}",
                    ckpt.seq,
                    ranges.len()
                )));
            }
            if jobs.len() != jcs.len() {
                return Err(RefineError::CheckpointMismatch(format!(
                    "checkpoint tracks {} prefixes, training set yields {}",
                    jcs.len(),
                    jobs.len()
                )));
            }
            for ((prefix, job), jc) in jobs.iter_mut().zip(jcs) {
                if *prefix != jc.outcome.prefix {
                    return Err(RefineError::CheckpointMismatch(format!(
                        "prefix order diverged at {prefix} vs checkpoint's {}",
                        jc.outcome.prefix
                    )));
                }
                job.outcome = jc.outcome;
                job.done = jc.done;
                job.max_iter = jc.max_iter;
            }
            phases.domains = lap(&mut clock);
            round
        }
    };
    let checkpoint = Some((policy, fingerprint));
    let (report, _) = run_repair(
        &mut model,
        cfg,
        &mut jobs,
        round,
        ranges.len(),
        None,
        checkpoint,
    )
    .map_err(HybridError::into_refine)?;
    phases.repair = lap(&mut clock);
    Ok((model, report, phases))
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

/// Phase 1 — refines every not-yet-done domain. Workers claim whole
/// domains from an atomic queue (no round barrier: a finished worker
/// immediately steals the next pending domain); with one effective thread
/// the claims run inline on the caller's stack. Completed deltas land in
/// `done`, which checkpointing snapshots after every `policy.every`-th
/// completion.
pub(crate) fn run_domains(
    model: &AsRoutingModel,
    cfg: &RefineConfig,
    jobs: &mut [(Prefix, PrefixJob)],
    ranges: &[Range<usize>],
    done: &mut BTreeMap<usize, DomainDelta>,
    fingerprint: u64,
    policy: Option<&CheckpointPolicy>,
) -> Result<(), RefineError> {
    let pending: Vec<usize> = (0..ranges.len())
        .filter(|id| !done.contains_key(id))
        .collect();
    if pending.is_empty() {
        return Ok(());
    }
    let every = policy.map(|p| p.every.max(1)).unwrap_or(u64::MAX);
    let threads = cfg.effective_threads().min(pending.len());

    if threads <= 1 {
        let mut scratch = SimScratch::new();
        for &id in &pending {
            // Failpoint: the crash site for kill-and-resume tests — a
            // panic armed `atN:panic` dies exactly at the N-th work-unit
            // claim, after the previous completion's checkpoint landed.
            #[cfg(feature = "testkit")]
            if quasar_bgpsim::fail::inject("refine.round") {
                return Err(RefineError::Sim(SimError::Injected {
                    point: "refine.round",
                }));
            }
            let delta = refine_domain(model, id, &mut jobs[ranges[id].clone()], cfg, &mut scratch)?;
            done.insert(id, delta);
            if policy.is_some() && (done.len() as u64).is_multiple_of(every) {
                save_domain_checkpoint(model, cfg, ranges.len(), done, fingerprint, policy)?;
            }
        }
        return Ok(());
    }

    // Slice `jobs` into per-domain work items. Domains are contiguous and
    // disjoint, so repeated split_at_mut hands each worker exclusive
    // access to its slice.
    let mut slices: Vec<&mut [(Prefix, PrefixJob)]> = Vec::with_capacity(ranges.len());
    let mut rest = jobs;
    let mut offset = 0;
    for r in ranges {
        let (head, tail) = rest.split_at_mut(r.end - offset);
        slices.push(head);
        rest = tail;
        offset = r.end;
    }
    // Each pending domain becomes one claimable work item; the Option lets
    // the claiming worker take exclusive ownership of the slice.
    let work: Vec<DomainWorkItem<'_>> = slices
        .into_iter()
        .enumerate()
        .filter(|(id, _)| !done.contains_key(id))
        .map(|pair| parking_lot::Mutex::new(Some(pair)))
        .collect();
    let expected = work.len();
    let next = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);
    let (tx, rx) = std::sync::mpsc::channel::<(usize, Result<DomainDelta, SimError>)>();
    let mut first_err: Option<RefineError> = None;

    // `expect` below: a crossbeam scope error means a worker panicked
    // (e.g. an armed `atN:panic` failpoint), which must propagate.
    #[allow(clippy::expect_used)]
    crossbeam::thread::scope(|s| {
        let work = &work;
        let next = &next;
        let abort = &abort;
        for _ in 0..threads {
            let tx = tx.clone();
            s.spawn(move |_| {
                let mut scratch = SimScratch::new();
                loop {
                    // sast: relaxed-ok advisory stop flag; a stale read costs one extra work unit, results stay channel-ordered
                    if abort.load(Ordering::Relaxed) {
                        break;
                    }
                    // sast: relaxed-ok work-claim ticket; results are published through the channel/join, only claim uniqueness matters
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= work.len() {
                        break;
                    }
                    let Some((id, slice)) = work[i].lock().take() else {
                        break; // unreachable: each index is claimed once
                    };
                    // Failpoint: same crash site as the inline path; an
                    // armed panic kills this worker and tears the scope
                    // down, an armed error aborts the run.
                    #[cfg(feature = "testkit")]
                    if quasar_bgpsim::fail::inject("refine.round") {
                        // sast: relaxed-ok advisory stop flag; a stale read costs one extra work unit, results stay channel-ordered
                        abort.store(true, Ordering::Relaxed);
                        let _ = tx.send((
                            id,
                            Err(SimError::Injected {
                                point: "refine.round",
                            }),
                        ));
                        continue;
                    }
                    let result = refine_domain(model, id, slice, cfg, &mut scratch);
                    if result.is_err() {
                        // sast: relaxed-ok advisory stop flag; a stale read costs one extra work unit, results stay channel-ordered
                        abort.store(true, Ordering::Relaxed);
                    }
                    if tx.send((id, result)).is_err() {
                        break;
                    }
                }
            });
        }
        // The coordinator (this thread) owns checkpointing. Dropping the
        // original sender first means `recv` errors out — instead of
        // hanging — once every worker has exited, even if some domains
        // were never claimed because of an abort.
        drop(tx);
        for _ in 0..expected {
            match rx.recv() {
                Ok((id, Ok(delta))) => {
                    done.insert(id, delta);
                    if policy.is_some() && (done.len() as u64).is_multiple_of(every) {
                        if let Err(e) = save_domain_checkpoint(
                            model,
                            cfg,
                            ranges.len(),
                            done,
                            fingerprint,
                            policy,
                        ) {
                            if first_err.is_none() {
                                first_err = Some(e);
                            }
                            // sast: relaxed-ok advisory stop flag; a stale read costs one extra work unit, results stay channel-ordered
                            abort.store(true, Ordering::Relaxed);
                        }
                    }
                }
                Ok((_, Err(e))) => {
                    // Which worker errors first can depend on scheduling;
                    // the error itself is still a true fault of the run.
                    if first_err.is_none() {
                        first_err = Some(RefineError::Sim(e));
                    }
                    // sast: relaxed-ok advisory stop flag; a stale read costs one extra work unit, results stay channel-ordered
                    abort.store(true, Ordering::Relaxed);
                }
                Err(_) => break,
            }
        }
    })
    .expect("refinement worker threads join");

    match first_err {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

/// Refines the prefixes of one domain sequentially to convergence against
/// a copy-on-write view of `base`, reusing the caller's simulation
/// scratch across prefixes. Returns the domain's op-log and outcomes.
fn refine_domain(
    base: &AsRoutingModel,
    id: usize,
    jobs: &mut [(Prefix, PrefixJob)],
    cfg: &RefineConfig,
    scratch: &mut SimScratch,
) -> Result<DomainDelta, SimError> {
    let mut dm = DomainModel::new(base);
    for (_, job) in jobs.iter_mut() {
        refine_job(&mut dm, job, cfg, scratch)?;
    }
    Ok(DomainDelta {
        id,
        ops: dm.ops,
        outcomes: jobs.iter().map(|(_, j)| j.outcome.clone()).collect(),
    })
}

/// Refines one prefix to convergence on `host`, re-simulating it every
/// iteration: the per-prefix loop of the domain phase and of
/// [`refine_prefix`].
fn refine_job<H: RefineHost>(
    host: &mut H,
    job: &mut PrefixJob,
    cfg: &RefineConfig,
    scratch: &mut SimScratch,
) -> Result<(), SimError> {
    while job.outcome.iterations < cfg.max_iterations {
        job.outcome.iterations += 1;
        // Failpoint: per-simulation jitter that perturbs worker timing
        // (error injection belongs to `engine.simulate`, where it
        // propagates naturally).
        #[cfg(feature = "testkit")]
        let _ = quasar_bgpsim::fail::inject("refine.simulate_batch");
        let res = match host.model().simulate_with(job.outcome.prefix, scratch) {
            Ok(res) => res,
            Err(SimError::Divergence { .. }) => {
                job.outcome.diverged = true;
                break;
            }
            Err(e) => return Err(e),
        };
        // Each iteration re-simulates the host's model, so it is never
        // stale here: a fresh (empty) mirror map per iteration is the
        // exact sequential semantics.
        let (all_matched, changed) = apply_fixes(host, &res, job, cfg, &mut BTreeMap::new());
        if all_matched {
            job.outcome.converged = true;
            break;
        }
        if !changed {
            break; // no local fix applies anywhere — progress is impossible
        }
    }
    Ok(())
}

/// Phase 2 — replays every completed domain's op-log onto the real model
/// in ascending domain id (BTreeMap iteration order), mapping domain-local
/// router ids through the duplication lineage. Duplications of the same
/// (global source, per-source ordinal) lineage in different domains are
/// deduplicated: the first domain to replay creates the router, later
/// domains reuse it — exactly how the sequential schedule's mirror map
/// reuses freshly created routers across prefixes.
pub(crate) fn merge_domains(
    model: &mut AsRoutingModel,
    cfg: &RefineConfig,
    ranges: &[Range<usize>],
    done: &BTreeMap<usize, DomainDelta>,
    jobs: &mut [(Prefix, PrefixJob)],
) {
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
    // duplicate *set* plus the per-domain logs alone. The value carries
    // the claiming domain that created the copy, so pass 2 can charge the
    // duplication to exactly one prefix.
    let mut global_dups: BTreeMap<(RouterId, usize), (RouterId, usize)> = BTreeMap::new();
    for (id, delta) in done {
        let mut l2g: BTreeMap<RouterId, RouterId> = BTreeMap::new();
        let mut ordinals: BTreeMap<RouterId, usize> = BTreeMap::new();
        for op in &delta.ops {
            if let RefineOp::Duplicate { src, copy, .. } = op {
                let gsrc = l2g.get(src).copied().unwrap_or(*src);
                let ord = ordinals.entry(gsrc).or_insert(0);
                let key = (gsrc, *ord);
                *ord += 1;
                match global_dups.get(&key) {
                    Some(&(g, _)) => {
                        l2g.insert(*copy, g);
                    }
                    None => {
                        let g = model.duplicate_quasi_router_clean(gsrc);
                        global_dups.insert(key, (g, *id));
                        l2g.insert(*copy, g);
                    }
                }
            }
        }
    }

    // Pass 2 — replay every domain's op-log against the complete router
    // set.
    for (id, delta) in done {
        // The delta's outcomes are authoritative for its prefixes (on
        // resume, the local jobs were never run).
        if let Some(range) = ranges.get(*id) {
            for (slot, oc) in jobs[range.clone()].iter_mut().zip(&delta.outcomes) {
                slot.1.outcome = oc.clone();
            }
        }
        // Domain-local ids below the base router count are global ids;
        // locally created duplicates map through `l2g`.
        let mut l2g: BTreeMap<RouterId, RouterId> = BTreeMap::new();
        let mut ordinals: BTreeMap<RouterId, usize> = BTreeMap::new();
        let map =
            |l2g: &BTreeMap<RouterId, RouterId>, r: RouterId| l2g.get(&r).copied().unwrap_or(r);
        for (pos, op) in delta.ops.iter().enumerate() {
            match op {
                RefineOp::Duplicate { prefix, src, copy } => {
                    let gsrc = map(&l2g, *src);
                    let ord = ordinals.entry(gsrc).or_insert(0);
                    let key = (gsrc, *ord);
                    *ord += 1;
                    // Pass 1 visited the same ops in the same order.
                    #[allow(clippy::expect_used)]
                    let &(g, creator) = global_dups.get(&key).expect("duplicate seeded in pass 1");
                    l2g.insert(*copy, g);
                    if creator != *id {
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
                    replay_prior_src_ops(model, cfg, &delta.ops[..pos], &l2g, gsrc, g);
                }
                RefineOp::Rank { q, prefix, senders } => {
                    let gq = map(&l2g, *q);
                    let gsenders: Vec<RouterId> = senders.iter().map(|&r| map(&l2g, r)).collect();
                    cfg.ranking.rank(model, gq, *prefix, &gsenders);
                }
                RefineOp::ShorterFilters {
                    q,
                    prefix,
                    min_locrib_len,
                } => {
                    model.set_shorter_path_filters(map(&l2g, *q), *prefix, *min_locrib_len);
                }
                RefineOp::DeleteBlockers {
                    from,
                    to,
                    prefix,
                    locrib_len,
                } => {
                    let gf = map(&l2g, *from);
                    let gt = map(&l2g, *to);
                    // A duplicate's session set is rebuilt from its merge-
                    // time source, which can differ from the domain-local
                    // peer set; a missing session is skipped, and the
                    // repair phase re-deletes whatever still blocks.
                    if model.network().has_session(gf, gt) {
                        model.delete_blocking_filters(gf, gt, *prefix, *locrib_len);
                    }
                }
            }
        }
    }
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
    for op in prior {
        match op {
            RefineOp::Duplicate { .. } => {}
            RefineOp::Rank { q, prefix, senders } => {
                if map(*q) == gsrc {
                    let gsenders: Vec<RouterId> = senders.iter().map(|&r| map(r)).collect();
                    cfg.ranking.rank(model, copy, *prefix, &gsenders);
                }
            }
            RefineOp::ShorterFilters {
                q,
                prefix,
                min_locrib_len,
            } => {
                if map(*q) == gsrc {
                    model.set_shorter_path_filters(copy, *prefix, *min_locrib_len);
                }
            }
            RefineOp::DeleteBlockers {
                from,
                to,
                prefix,
                locrib_len,
            } => {
                let (gf, gt) = (map(*from), map(*to));
                if gf == gsrc && model.network().has_session(copy, gt) {
                    model.delete_blocking_filters(copy, gt, *prefix, *locrib_len);
                }
                if gt == gsrc && model.network().has_session(gf, copy) {
                    model.delete_blocking_filters(gf, copy, *prefix, *locrib_len);
                }
            }
        }
    }
}

/// Arms the job list for phase 3: every non-diverged prefix is re-verified
/// against the merged model with a fresh iteration budget on top of what
/// its domain already spent.
pub(crate) fn prepare_repair(jobs: &mut [(Prefix, PrefixJob)], cfg: &RefineConfig) {
    for (_, job) in jobs.iter_mut() {
        job.done = job.outcome.diverged;
        job.max_iter = job.outcome.iterations + cfg.max_iterations;
        job.repair_changed = false;
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
    /// [`PrefixOutcome`] convergence flag after the round.
    pub(crate) converged: bool,
    /// [`PrefixOutcome`] divergence flag after the round.
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
    let res = match sim {
        Ok(res) => res,
        Err(SimError::Divergence { .. }) => {
            job.outcome.diverged = true;
            job.done = true;
            return Ok(RepairStep {
                job: i,
                ops: Vec::new(),
                done: true,
                converged: job.outcome.converged,
                diverged: true,
            });
        }
        Err(e) => return Err(RefineError::Sim(e)),
    };
    let mut host = RecordingModel {
        model,
        ops: Vec::new(),
    };
    let (all_matched, changed) = apply_fixes(&mut host, &res, job, cfg, mirrors);
    job.repair_changed |= changed;
    // A domain-phase convergence claim that no longer verifies is
    // withdrawn. Unmatched, the job stops when no local fix applies
    // anywhere — progress is impossible — or its iteration budget is spent.
    job.outcome.converged = all_matched;
    job.done = all_matched || !changed || job.outcome.iterations >= job.max_iter;
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
        match op {
            RefineOp::Duplicate { src, copy, .. } => {
                let ancestor = probe(mirrors, *src);
                let got = model.duplicate_quasi_router(*src);
                if got != *copy {
                    return Err("a replayed duplication allocated a different router id");
                }
                mirrors.insert(got, ancestor);
                job.outcome.quasi_routers_added += 1;
            }
            RefineOp::Rank { q, prefix, senders } => cfg.ranking.rank(model, *q, *prefix, senders),
            RefineOp::ShorterFilters {
                q,
                prefix,
                min_locrib_len,
            } => {
                model.set_shorter_path_filters(*q, *prefix, *min_locrib_len);
            }
            RefineOp::DeleteBlockers {
                from,
                to,
                prefix,
                locrib_len,
            } => {
                if !model.network().has_session(*from, *to) {
                    return Err("a replayed filter deletion names a missing session");
                }
                job.outcome.filters_deleted +=
                    model.delete_blocking_filters(*from, *to, *prefix, *locrib_len);
            }
        }
    }
    if !step.ops.is_empty() {
        job.repair_changed = true;
    }
    job.done = step.done;
    job.outcome.converged = step.converged;
    job.outcome.diverged = step.diverged;
    Ok(())
}

/// Why a trace replay gave up: `Stale` sends the caller back to a repair
/// without the trace, `Refine` is a true fault of the run.
enum HybridError {
    Stale(&'static str),
    Refine(RefineError),
}

impl From<RefineError> for HybridError {
    fn from(e: RefineError) -> Self {
        HybridError::Refine(e)
    }
}

impl HybridError {
    /// The fault of a [`run_repair`] that had no trace to replay, and so
    /// could not go stale.
    fn into_refine(self) -> RefineError {
        match self {
            HybridError::Refine(e) => e,
            HybridError::Stale(reason) => unreachable!("stale replay without a trace: {reason}"),
        }
    }
}

/// Phase 3 — the repair round loop over the merged model. Each round
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
/// [`HybridError::Stale`]. Rounds past the end of the recorded trace have
/// nothing left to replay (every recorded job's final step is `done`) and
/// need no checks.
///
/// The loop continues after `round` (0 for a fresh repair, the checkpointed
/// round on resume). With a `checkpoint` policy and dataset fingerprint, a
/// repair checkpoint is written after every `policy.every`-th round's fixes
/// are applied, so every snapshot sits on a round boundary.
// `expect` below: `simulate_batch` returns exactly one result per live
// active job, consumed in the same ascending-job order.
#[allow(clippy::expect_used)]
fn run_repair(
    model: &mut AsRoutingModel,
    cfg: &RefineConfig,
    jobs: &mut [(Prefix, PrefixJob)],
    mut round: u64,
    domains_total: usize,
    replay: Option<(&[bool], &RepairTrace)>,
    checkpoint: Option<(&CheckpointPolicy, u64)>,
) -> Result<(RefineReport, RepairTrace), HybridError> {
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
            })
            .into());
        }
        let in_replay = round_idx < cached.len();
        let prefixes: Vec<Prefix> = live_active.iter().map(|&i| jobs[i].0).collect();
        let mut sims = simulate_batch(model, &prefixes, threads).into_iter();
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
                    return Err(HybridError::Stale(
                        "a finished live prefix's recorded round still duplicates",
                    ));
                }
                apply_recorded_step(model, cfg, jobs, step, &mut mirrors)
                    .map_err(HybridError::Stale)?;
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
                    return Err(HybridError::Stale(
                        "a live prefix's duplications drifted from the recorded round",
                    ));
                }
                steps.push(step);
            }
        }
        trace.push(steps);
        if let Some((policy, fingerprint)) = checkpoint {
            if round.is_multiple_of(policy.every.max(1)) {
                save_repair_checkpoint(
                    model,
                    cfg,
                    domains_total,
                    jobs,
                    round,
                    fingerprint,
                    policy,
                )?;
            }
        }
    }
    Ok((
        RefineReport {
            prefixes: jobs.iter().map(|(_, j)| j.outcome.clone()).collect(),
            domains: domains_total,
            repair_rounds: round,
        },
        trace,
    ))
}

/// Runs the repair phase for the incremental trainer: with `replay` set,
/// tries the trace replay first and, if the trace goes stale mid-flight,
/// restores the model and jobs from a snapshot and reruns the repair with
/// every job live. Returns the report, the freshly recorded trace for the
/// next epoch, and whether the replay carried through.
pub(crate) fn run_repair_traced(
    model: &mut AsRoutingModel,
    cfg: &RefineConfig,
    jobs: &mut Vec<(Prefix, PrefixJob)>,
    domains_total: usize,
    replay: Option<(&[bool], &RepairTrace)>,
) -> Result<(RefineReport, RepairTrace, bool), RefineError> {
    if replay.is_some() {
        let model_snapshot = model.clone();
        let jobs_snapshot = jobs.clone();
        match run_repair(model, cfg, jobs, 0, domains_total, replay, None) {
            Ok((report, trace)) => return Ok((report, trace, true)),
            Err(HybridError::Refine(e)) => return Err(e),
            Err(HybridError::Stale(reason)) => {
                // Falling back is correctness-preserving but expensive
                // enough that operators will want to know why.
                eprintln!("refine: repair-trace replay aborted ({reason}); running full repair");
                *model = model_snapshot;
                *jobs = jobs_snapshot;
            }
        }
    }
    let (report, trace) = run_repair(model, cfg, jobs, 0, domains_total, None, None)
        .map_err(HybridError::into_refine)?;
    Ok((report, trace, false))
}

/// Serializes a domain-phase snapshot and writes it atomically into the
/// checkpoint directory, pruning snapshots beyond `policy.keep`.
fn save_domain_checkpoint(
    model: &AsRoutingModel,
    cfg: &RefineConfig,
    domains_total: usize,
    done: &BTreeMap<usize, DomainDelta>,
    fingerprint: u64,
    policy: Option<&CheckpointPolicy>,
) -> Result<(), RefineError> {
    let Some(policy) = policy else {
        return Ok(());
    };
    let ckpt = RefineCheckpoint {
        seq: done.len() as u64,
        dataset_fingerprint: fingerprint,
        max_iterations: cfg.max_iterations,
        allow_duplication: cfg.allow_duplication,
        ranking: cfg.ranking,
        domains: domains_total,
        stage: StageCheckpoint::Domains {
            done: done.values().cloned().collect(),
        },
        model: model.clone(),
    };
    write_checkpoint(&ckpt, policy)
}

/// Serializes a repair-phase snapshot; the sequence number continues the
/// domain phase's numbering (`domains + round`).
fn save_repair_checkpoint(
    model: &AsRoutingModel,
    cfg: &RefineConfig,
    domains_total: usize,
    jobs: &[(Prefix, PrefixJob)],
    round: u64,
    fingerprint: u64,
    policy: &CheckpointPolicy,
) -> Result<(), RefineError> {
    let ckpt = RefineCheckpoint {
        seq: domains_total as u64 + round,
        dataset_fingerprint: fingerprint,
        max_iterations: cfg.max_iterations,
        allow_duplication: cfg.allow_duplication,
        ranking: cfg.ranking,
        domains: domains_total,
        stage: StageCheckpoint::Repair {
            round,
            jobs: jobs
                .iter()
                .map(|(_, j)| JobCheckpoint {
                    outcome: j.outcome.clone(),
                    done: j.done,
                    max_iter: j.max_iter,
                })
                .collect(),
        },
        model: model.clone(),
    };
    write_checkpoint(&ckpt, policy)
}

/// Shared checkpoint writer (and the `refine.checkpoint` failpoint site).
fn write_checkpoint(ckpt: &RefineCheckpoint, policy: &CheckpointPolicy) -> Result<(), RefineError> {
    #[cfg(feature = "testkit")]
    if quasar_bgpsim::fail::inject("refine.checkpoint") {
        return Err(RefineError::Persist(PersistError::Io {
            path: policy.dir.clone(),
            op: "write",
            source: std::io::Error::other("fault injected by failpoint `refine.checkpoint`"),
        }));
    }
    let json = serde_json::to_string(ckpt)
        .map_err(|e| RefineError::CheckpointMismatch(format!("checkpoint serialization: {e}")))?;
    persist::save_checkpoint_payload(&policy.dir, ckpt.seq, json.as_bytes(), policy.keep)?;
    Ok(())
}

/// Simulates `prefixes` against `model` on `threads` workers. Results come
/// back in input order; with one thread (or one prefix) no threads are
/// spawned at all. Simulation scratch buffers are reused per worker.
// `expect`s below: a crossbeam scope error means a worker panicked (which
// should propagate), and every slot is written by exactly one worker before
// the scope joins.
#[allow(clippy::expect_used)]
fn simulate_batch(
    model: &AsRoutingModel,
    prefixes: &[Prefix],
    threads: usize,
) -> Vec<Result<SimulationResult, SimError>> {
    let threads = threads.min(prefixes.len());
    if threads <= 1 {
        let mut scratch = SimScratch::new();
        return prefixes
            .iter()
            .map(|&p| model.simulate_with(p, &mut scratch))
            .collect();
    }
    let next = AtomicUsize::new(0);
    let mut out: Vec<Option<Result<SimulationResult, SimError>>> =
        (0..prefixes.len()).map(|_| None).collect();
    let slots: Vec<parking_lot::Mutex<&mut Option<Result<SimulationResult, SimError>>>> =
        out.iter_mut().map(parking_lot::Mutex::new).collect();
    crossbeam::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|_| {
                let mut scratch = SimScratch::new();
                loop {
                    // sast: relaxed-ok work-claim ticket; results are published through the channel/join, only claim uniqueness matters
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= prefixes.len() {
                        break;
                    }
                    // Failpoint: per-simulation jitter that reorders worker
                    // completion (error injection belongs to `engine.simulate`
                    // inside `model.simulate`, where it propagates naturally).
                    #[cfg(feature = "testkit")]
                    let _ = quasar_bgpsim::fail::inject("refine.simulate_batch");
                    **slots[i].lock() = Some(model.simulate_with(prefixes[i], &mut scratch));
                }
            });
        }
    })
    .expect("refinement worker threads join");
    drop(slots);
    out.into_iter()
        .map(|o| o.expect("every slot simulated"))
        .collect()
}

/// Refines a single prefix to convergence (the sequential per-prefix path;
/// [`refine`] shards the same per-iteration logic across domains).
pub fn refine_prefix(
    model: &mut AsRoutingModel,
    prefix: Prefix,
    paths: &[&AsPath],
    cfg: &RefineConfig,
) -> Result<PrefixOutcome, SimError> {
    let mut job = PrefixJob::new(prefix, targets_for(paths));
    let mut host = RecordingModel {
        model,
        ops: Vec::new(),
    };
    refine_job(&mut host, &mut job, cfg, &mut SimScratch::new())?;
    Ok(job.outcome)
}

/// Resolves `r` through the round's mirror map: quasi-routers created
/// since the round's simulations read their mirror ancestor's Adj-RIB-In.
/// Entries are resolved at insertion time, so one hop suffices.
fn probe(mirrors: &BTreeMap<RouterId, RouterId>, r: RouterId) -> RouterId {
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
fn apply_fixes<H: RefineHost>(
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
        let refs: Vec<&AsPath> = observed.iter().collect();
        let out = refine_prefix(&mut model, prefix, &refs, &RefineConfig::default()).unwrap();
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
        let refs: Vec<&AsPath> = observed.iter().collect();
        let out = refine_prefix(&mut model, prefix, &refs, &RefineConfig::default()).unwrap();
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
        let refs: Vec<&AsPath> = observed.iter().collect();
        let out = refine_prefix(&mut model, prefix, &refs, &RefineConfig::default()).unwrap();
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

    #[test]
    fn already_consistent_training_converges_in_one_iteration() {
        let (mut model, prefix, _) = model_from(&[&[1, 2, 3]], 3);
        let observed = [AsPath::from_u32s(&[1, 2, 3])];
        let refs: Vec<&AsPath> = observed.iter().collect();
        let out = refine_prefix(&mut model, prefix, &refs, &RefineConfig::default()).unwrap();
        assert!(out.converged);
        assert_eq!(out.iterations, 1);
        assert_eq!(out.quasi_routers_added, 0);
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
