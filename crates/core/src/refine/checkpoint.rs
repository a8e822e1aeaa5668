//! Checkpointing: the policy, the serialized refinement state of either
//! phase, and the writers both phases call.

use super::domains::{domain_ranges, DomainDelta};
use super::{build_jobs, PrefixJob, PrefixOutcome, RankingAttr, RefineConfig, RefineError};
use crate::model::AsRoutingModel;
use crate::observed::Dataset;
use crate::persist;
#[cfg(feature = "testkit")]
use crate::persist::PersistError;
use quasar_bgpsim::types::Prefix;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Where and how often [`refine_checkpointed`](super::refine_checkpointed)
/// snapshots its state.
#[derive(Debug, Clone)]
pub struct CheckpointPolicy {
    /// Checkpoint directory (created on first write).
    pub dir: PathBuf,
    /// Write a checkpoint after every `every`-th work unit — a completed
    /// domain in the domain phase, a completed round in the repair phase
    /// (1 = every unit).
    pub every: u64,
}

impl CheckpointPolicy {
    /// A policy checkpointing into `dir` after every work unit.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        CheckpointPolicy {
            dir: dir.into(),
            every: 1,
        }
    }
}

/// Serialized refinement state: everything
/// [`resume_refine`](super::resume_refine) needs to continue mid-run and still produce a byte-identical final model.
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

/// Where a restored checkpoint continues the run.
pub(super) enum Resume {
    /// In phase A, with these domains already refined.
    Domains(BTreeMap<usize, DomainDelta>),
    /// In phase C, after this repair round (the jobs carry its progress).
    Repair(u64),
}

/// A checkpoint [`restore`]d into a run that can continue.
pub(super) struct Restored {
    /// The model to continue.
    pub(super) model: AsRoutingModel,
    /// The jobs rebuilt from the training set, with a repair checkpoint's
    /// per-prefix progress restored.
    pub(super) jobs: Vec<(Prefix, PrefixJob)>,
    /// The training set's fingerprint.
    pub(super) fingerprint: u64,
    /// Where the run continues.
    pub(super) resume: Resume,
}

/// Loads the newest loadable checkpoint in `policy.dir` and refuses it
/// unless it belongs to this run: same training set (by fingerprint), same
/// configuration (`threads` excepted) and a partition and prefix order
/// that line up with the jobs rebuilt from `training`.
pub(super) fn restore(
    training: &Dataset,
    cfg: &RefineConfig,
    policy: &CheckpointPolicy,
) -> Result<Restored, RefineError> {
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
    let resume = match ckpt.stage {
        StageCheckpoint::Domains { done } => {
            let mut done_map: BTreeMap<usize, DomainDelta> = BTreeMap::new();
            for delta in done {
                let Some(range) = ranges.get(delta.id) else {
                    return Err(RefineError::CheckpointMismatch(format!(
                        "checkpoint contains domain {} beyond the partition",
                        delta.id
                    )));
                };
                let tracked = delta.outcomes.iter().map(|oc| oc.prefix);
                if !tracked.eq(jobs[range.clone()].iter().map(|(prefix, _)| *prefix)) {
                    return Err(RefineError::CheckpointMismatch(format!(
                        "domain {} does not track the partition's prefixes",
                        delta.id
                    )));
                }
                if done_map.insert(delta.id, delta).is_some() {
                    return Err(RefineError::CheckpointMismatch(
                        "checkpoint lists a domain twice".into(),
                    ));
                }
            }
            Resume::Domains(done_map)
        }
        StageCheckpoint::Repair { round, jobs: jcs } => {
            if ckpt.seq != ranges.len() as u64 + round {
                return Err(RefineError::CheckpointMismatch(format!(
                    "repair checkpoint at unit {} does not match domains {} + round {round}",
                    ckpt.seq,
                    ranges.len()
                )));
            }
            let tracked = jcs.iter().map(|jc| jc.outcome.prefix);
            if !tracked.eq(jobs.iter().map(|(prefix, _)| *prefix)) {
                return Err(RefineError::CheckpointMismatch(
                    "checkpoint does not track the training set's prefixes".into(),
                ));
            }
            for ((_, job), jc) in jobs.iter_mut().zip(jcs) {
                job.outcome = jc.outcome;
                job.done = jc.done;
                job.max_iter = jc.max_iter;
            }
            Resume::Repair(round)
        }
    };
    Ok(Restored {
        model,
        jobs,
        fingerprint,
        resume,
    })
}

/// Writes a domain-phase snapshot: the base model plus every completed
/// domain's delta.
pub(super) fn save_domain_checkpoint(
    model: &AsRoutingModel,
    cfg: &RefineConfig,
    domains_total: usize,
    done: &BTreeMap<usize, DomainDelta>,
    checkpoint: (&CheckpointPolicy, u64),
) -> Result<(), RefineError> {
    let stage = StageCheckpoint::Domains {
        done: done.values().cloned().collect(),
    };
    let seq = done.len() as u64;
    write_checkpoint(model, cfg, domains_total, seq, stage, checkpoint)
}

/// Writes a repair-phase snapshot; the sequence number continues the
/// domain phase's numbering (`domains + round`).
pub(super) fn save_repair_checkpoint(
    model: &AsRoutingModel,
    cfg: &RefineConfig,
    domains_total: usize,
    jobs: &[(Prefix, PrefixJob)],
    round: u64,
    checkpoint: (&CheckpointPolicy, u64),
) -> Result<(), RefineError> {
    let stage = StageCheckpoint::Repair {
        round,
        jobs: jobs
            .iter()
            .map(|(_, j)| JobCheckpoint {
                outcome: j.outcome.clone(),
                done: j.done,
                max_iter: j.max_iter,
            })
            .collect(),
    };
    let seq = domains_total as u64 + round;
    write_checkpoint(model, cfg, domains_total, seq, stage, checkpoint)
}

/// Serializes a snapshot and writes it atomically into the checkpoint
/// directory, pruning older ones (and the `refine.checkpoint` failpoint
/// site).
fn write_checkpoint(
    model: &AsRoutingModel,
    cfg: &RefineConfig,
    domains: usize,
    seq: u64,
    stage: StageCheckpoint,
    (policy, fingerprint): (&CheckpointPolicy, u64),
) -> Result<(), RefineError> {
    #[cfg(feature = "testkit")]
    if quasar_bgpsim::fail::inject("refine.checkpoint") {
        return Err(RefineError::Persist(PersistError::Io {
            path: policy.dir.clone(),
            op: "write",
            source: std::io::Error::other("fault injected by failpoint `refine.checkpoint`"),
        }));
    }
    let ckpt = RefineCheckpoint {
        seq,
        dataset_fingerprint: fingerprint,
        max_iterations: cfg.max_iterations,
        allow_duplication: cfg.allow_duplication,
        ranking: cfg.ranking,
        domains,
        stage,
        model: model.clone(),
    };
    let json = serde_json::to_string(&ckpt)
        .map_err(|e| RefineError::CheckpointMismatch(format!("checkpoint serialization: {e}")))?;
    persist::save_checkpoint_payload(&policy.dir, seq, json.as_bytes())?;
    Ok(())
}
