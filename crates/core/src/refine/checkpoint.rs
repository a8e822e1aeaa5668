//! The refinement log: one append-only file per directory
//! ([`persist::LOG_FILE`]). Its header names the run — configuration,
//! training set and base model, the last two by fingerprint — and every
//! further record is one finished unit: a domain's [`DomainDelta`] or a
//! repair round's [`RepairStep`]s. A record never holds a model or
//! repeats an earlier unit.
//! [`refine_checkpointed`](super::refine_checkpointed) appends,
//! [`resume_refine`](super::resume_refine) reads, and the incremental
//! trainer saves and loads its cache as the same header and records.

use super::domains::{domain_ranges, DomainDelta};
use super::repair::{RepairStep, RepairTrace};
use super::{RefineConfig, RefineError};
use crate::model::AsRoutingModel;
use crate::observed::Dataset;
use crate::persist::{self, LogWriter, PersistError};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::ops::Range;
use std::path::Path;

/// Record kind of a finished domain: its [`DomainDelta`].
pub(super) const KIND_DOMAIN: &str = "domain";
/// Record kind of a finished repair round: its [`RepairStep`]s.
pub(super) const KIND_ROUND: &str = "round";

/// The log's first record: what the logged run refined, and how.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct LogHeader {
    /// The configuration, `threads` zeroed: the model is thread-invariant.
    config: RefineConfig,
    /// [`dataset_fingerprint`] of the training set.
    dataset: u64,
    /// Fingerprint of the base model's JSON.
    base: u64,
    /// Prefix jobs, which pin the domain partition.
    jobs: usize,
    /// The incremental trainer's reuse state; `None` in a checkpoint log.
    pub(crate) trainer: Option<TrainerHeader>,
}

/// What only the incremental trainer's log carries.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct TrainerHeader {
    /// Training epochs completed.
    pub(crate) epoch: u64,
    /// Per domain, the fingerprint of its `(prefix, targets)` slice.
    pub(crate) domain_fps: Vec<u64>,
    /// Repair rounds logged, so a load can tell a complete log.
    pub(crate) rounds: usize,
}

impl LogHeader {
    /// The header of a run under `cfg` refining `base` on `training`,
    /// from which it built `jobs` prefix jobs.
    pub(crate) fn new(
        cfg: &RefineConfig,
        training: &Dataset,
        base: &AsRoutingModel,
        jobs: usize,
    ) -> Self {
        LogHeader {
            config: RefineConfig { threads: 0, ..*cfg },
            dataset: dataset_fingerprint(training),
            base: persist::fnv1a(&to_json(base)),
            jobs,
            trainer: None,
        }
    }

    /// Why a run under `cfg` may not use this log, if it may not.
    pub(crate) fn config_mismatch(&self, cfg: &RefineConfig) -> Option<String> {
        (RefineConfig { threads: 0, ..*cfg } != self.config).then(|| {
            format!(
                "refinement config changed: the log ran with {:?}",
                self.config
            )
        })
    }

    /// Why the run `run` heads may not reuse this log's units, if it may
    /// not: another configuration, base model or job count and, when
    /// `dataset` asks, another training set.
    pub(crate) fn mismatch(&self, run: &LogHeader, dataset: bool) -> Option<String> {
        let reason = if let Some(reason) = self.config_mismatch(&run.config) {
            reason
        } else if run.base != self.base {
            "the base model (AS graph or prefix origins) differs from the log's".into()
        } else if run.jobs != self.jobs {
            "domain partition changed".into()
        } else if dataset && run.dataset != self.dataset {
            "training data differs from the log's".into()
        } else {
            return None;
        };
        Some(reason)
    }
}

/// Order-sensitive FNV-1a fingerprint of the training routes. Resuming
/// against a different dataset would re-derive different targets and
/// diverge silently; the fingerprint turns that into a typed refusal.
pub fn dataset_fingerprint(training: &Dataset) -> u64 {
    let mut bytes = Vec::new();
    for r in training.routes() {
        let path = r.as_path.as_slice();
        let head = [r.point, r.observer_as.0, r.prefix.base];
        let words = head
            .into_iter()
            .chain([r.prefix.len.into(), path.len() as u32]);
        for word in words.chain(path.iter().map(|asn| asn.0)) {
            bytes.extend_from_slice(&word.to_le_bytes());
        }
    }
    persist::fnv1a(&bytes)
}

/// Compact JSON of a log record.
fn to_json(value: &impl Serialize) -> Vec<u8> {
    let mut s = serde::Serializer::new(false);
    value.serialize(&mut s);
    s.into_string().into_bytes()
}

/// A log read back.
pub(crate) struct Logged {
    pub(crate) header: LogHeader,
    /// The domain records by id.
    pub(crate) done: BTreeMap<usize, DomainDelta>,
    /// The repair-round records, in log order.
    pub(crate) rounds: RepairTrace,
    /// Where appending continues.
    log: persist::LogRecords,
}

/// Reads the log in `dir`, dropping a torn last record. Every record
/// must parse and lie within the header's partition, no domain may be
/// logged twice, and the repair rounds follow every domain.
/// A log without a finished unit is [`PersistError::NoCheckpoint`].
pub(crate) fn read(dir: &Path) -> Result<Logged, RefineError> {
    let mut log = persist::read_log(dir, &[KIND_DOMAIN, KIND_ROUND])?;
    let bytes = std::mem::take(&mut log.bytes);
    let header: LogHeader = parse(&log.path, &bytes, &log.frames[0].1)?;
    let domains = domain_ranges(header.jobs).len();
    let (mut done, mut rounds) = (BTreeMap::new(), Vec::new());
    for (kind, payload) in &log.frames[1..] {
        let fits = if kind == KIND_DOMAIN {
            let delta: DomainDelta = parse(&log.path, &bytes, payload)?;
            rounds.is_empty() && delta.id < domains && done.insert(delta.id, delta).is_none()
        } else {
            let steps: Vec<RepairStep> = parse(&log.path, &bytes, payload)?;
            let fits = done.len() == domains && steps.iter().all(|step| step.job < header.jobs);
            rounds.push(steps);
            fits
        };
        if !fits {
            return Err(RefineError::CheckpointMismatch(
                "a record lies beyond the header's partition, repeats a domain or \
                 comes out of order (every domain, then the rounds)"
                    .into(),
            ));
        }
    }
    if done.is_empty() && rounds.is_empty() {
        return Err(PersistError::NoCheckpoint {
            dir: dir.to_path_buf(),
        }
        .into());
    }
    Ok(Logged {
        header,
        done,
        rounds,
        log,
    })
}

/// Parses the JSON payload at `payload` in `bytes`, the log at `path`.
fn parse<T: for<'de> Deserialize<'de>>(
    path: &Path,
    bytes: &[u8],
    payload: &Range<usize>,
) -> Result<T, PersistError> {
    let text = std::str::from_utf8(&bytes[payload.clone()]).map_err(|e| e.to_string());
    text.and_then(|t| serde_json::from_str(t).map_err(|e| e.to_string()))
        .map_err(|detail| PersistError::Json {
            path: path.to_path_buf(),
            offset: payload.start,
            detail,
        })
}

/// Writes the incremental trainer's whole log into `dir` at once,
/// atomically: `header` with the `trainer` section, then every record.
pub(crate) fn save(
    dir: &Path,
    header: &LogHeader,
    trainer: &TrainerHeader,
    deltas: &[DomainDelta],
    rounds: &RepairTrace,
) -> Result<(), PersistError> {
    let header = LogHeader {
        trainer: Some(trainer.clone()),
        ..header.clone()
    };
    let records = (deltas.iter().map(|d| (KIND_DOMAIN, to_json(d))))
        .chain(rounds.iter().map(|r| (KIND_ROUND, to_json(r))));
    persist::save_log(dir, &to_json(&header), records)
}

/// The append side of a checkpoint directory's log.
pub(crate) struct RefineLog(LogWriter);

impl RefineLog {
    /// Starts the log of a fresh run in `dir`, replacing any log there.
    pub(super) fn create(dir: &Path, header: &LogHeader) -> Result<Self, RefineError> {
        Ok(RefineLog(LogWriter::create(dir, &to_json(header))?))
    }

    /// Continues the log `logged` was read from, past its intact records.
    pub(super) fn reopen(logged: &Logged) -> Result<Self, RefineError> {
        Ok(RefineLog(LogWriter::reopen(&logged.log)?))
    }

    /// Logs a finished unit: a [`DomainDelta`] as a [`KIND_DOMAIN`]
    /// record, a round's [`RepairStep`]s as a [`KIND_ROUND`] one. This is
    /// the `refine.checkpoint` failpoint site.
    pub(super) fn append(&mut self, kind: &str, unit: &impl Serialize) -> Result<(), RefineError> {
        #[cfg(feature = "testkit")]
        if quasar_bgpsim::fail::inject("refine.checkpoint") {
            return Err(RefineError::Persist(PersistError::Io {
                path: persist::LOG_FILE.into(),
                op: "write",
                source: std::io::Error::other("fault injected by failpoint `refine.checkpoint`"),
            }));
        }
        Ok(self.0.append(kind, &to_json(unit))?)
    }
}
