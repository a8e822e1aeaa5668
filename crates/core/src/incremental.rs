//! Incremental model maintenance: retrain only what a window of BGP
//! updates actually touched.
//!
//! The streaming pipeline (`quasar-stream`) applies each update window to
//! the observed-path set and asks for a new model. Retraining from scratch
//! re-refines every prefix; this module reuses the sharded-refinement
//! machinery of [`crate::refine`] to skip the untouched ones while keeping
//! the **incremental-equals-full contract**: the model produced here is
//! byte-identical to a from-scratch [`train`](crate::train()) on the same
//! final path set.
//!
//! ## Why reuse is sound
//!
//! Refinement is three deterministic phases (see the `refine` module
//! docs): per-domain refinement against copy-on-write views of the base
//! model, an op-log merge in ascending domain order, and a repair pass.
//! Two observations make incremental reuse exact rather than approximate:
//!
//! 1. **A domain delta is a pure function of its inputs.** A domain's
//!    op-log depends only on the base model (itself a pure function of the
//!    AS graph and the prefix→origin map) and the domain's own
//!    `(prefix, targets)` slice. If the graph and origins are unchanged
//!    and a domain's fingerprint over its prefixes' target sets matches
//!    the cached one, a full retrain would recompute the *identical*
//!    delta — so replaying the cached op-log at merge is byte-exact, not
//!    an approximation.
//! 2. **The repair phase is a deterministic schedule given fixed
//!    structure.** Repair simulates every active prefix against the
//!    round-start model and applies fixes in ascending prefix order. A
//!    prefix's simulation reads the router/session structure (created
//!    only by `Duplicate` ops) and policies scoped to that prefix. The
//!    structure the merge builds is pinned by its *duplication schedule*
//!    (see `Lineage` in the refine module): domains
//!    overlap heavily in which routers they duplicate and the merge
//!    collapses the copies, so a dirty domain may reshuffle its own
//!    `Duplicate` ops freely — as long as the deduplicated schedule is
//!    unchanged, the merged model's shared structure equals the previous
//!    epoch's, and an untouched prefix's round-by-round simulations — and
//!    therefore its fixes — are exactly the previous epoch's. The trainer
//!    records the repair phase as a trace of per-round fix-sets and
//!    *replays* the untouched prefixes' steps without simulating them,
//!    re-simulating only the dirty prefixes alongside. Dirty prefixes'
//!    policy fixes are scoped to their own prefixes and cannot perturb a
//!    replayed step; only a drift in a dirty prefix's repair-time
//!    *duplications* changes shared structure, and that one event aborts
//!    the replay back to a repair that re-simulates every prefix.
//!
//! The fallback ladder degrades conservatively: a changed AS graph,
//! origin map, or domain partition forces a full retrain; a changed
//! merge-time duplication schedule — or a structural drift detected
//! mid-replay — disables the trace replay, so every prefix is re-verified
//! live, but cached deltas of fingerprint-matching domains are still
//! reused. The differential suite in `quasar-testkit` enforces the
//! contract across seeds and thread counts.

use crate::observed::Dataset;
use crate::persist::{self, PersistError};
use crate::refine::{
    build_jobs, checkpoint, domain_ranges, run_phases, DomainDelta, LogHeader, PrefixJob, Progress,
    RecordedRepair, RefineConfig, RefineError, RepairTrace,
};
use crate::train::{finish, TrainConfig, TrainReport};
use checkpoint::TrainerHeader;
use quasar_bgpsim::types::Prefix;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::fmt::Write as _;
use std::ops::Range;
use std::path::Path;
use std::time::Instant;

use crate::model::AsRoutingModel;

/// How a [`IncrementalTrainer::train`] call obtained its model.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum TrainMode {
    /// No cache yet — the first full training run.
    Initial,
    /// The cache exists but cannot be reused; the reason says why
    /// (changed graph, origins, partition, or configuration).
    FullRetrain {
        /// Human-readable cause of the cache invalidation.
        reason: String,
    },
    /// Cached domain deltas were reused for unchanged domains.
    Incremental {
        /// Untouched prefixes' repair steps were replayed from the
        /// recorded trace without re-simulation. False when the merge
        /// duplication schedule, compared as a set, differs from the
        /// cached run's (structure shifted, so the trace doesn't carry) or
        /// a mid-replay drift aborted the replay back to a repair that
        /// re-simulates every prefix.
        repair_replayed: bool,
    },
}

impl fmt::Display for TrainMode {
    /// The mode's name in stream window reports.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            TrainMode::Initial => "initial",
            TrainMode::FullRetrain { .. } => "full_retrain",
            TrainMode::Incremental {
                repair_replayed: true,
            } => "incremental_replay",
            TrainMode::Incremental {
                repair_replayed: false,
            } => "incremental",
        })
    }
}

/// What one [`IncrementalTrainer::train`] call reused. Its refinement
/// report is [`TrainReport::refine`] (repair-phase view; skipped prefixes
/// keep their cached domain-phase outcomes).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct IncrementalReport {
    /// Reuse mode of this run.
    pub mode: TrainMode,
    /// Domains whose cached delta was replayed instead of re-refined.
    pub domains_reused: usize,
    /// Prefixes whose repair steps were replayed from the recorded trace
    /// instead of being re-simulated (0 unless the replay carried
    /// through).
    pub prefixes_skipped: usize,
    /// Prefixes living in re-refined (dirty) domains.
    pub dirty_prefixes: usize,
}

/// The reuse state: everything needed to decide, on the next dataset
/// revision, which work is provably identical to last time. It persists
/// as a refinement log (see [`IncrementalTrainer::save`]).
#[derive(Debug, Clone)]
struct TrainerCache {
    /// The last run's log header: the configuration it was trained under
    /// (`threads` excepted — results are thread-invariant), its base
    /// model's fingerprint (the AS graph and prefix origins) and its job
    /// count, which pins the domain partition.
    header: LogHeader,
    /// Its epoch count, per-domain fingerprints over each `(prefix,
    /// targets)` slice and repair round count.
    trainer: TrainerHeader,
    /// Every domain's delta from the last run, indexed by domain id.
    deltas: Vec<DomainDelta>,
    /// The last run's repair phase as per-round fix-sets, replayable when
    /// the merged structure is provably unchanged.
    repair: RepairTrace,
}

/// A trainer that remembers enough about its last run to retrain only the
/// prefixes a dataset revision actually changed — while producing models
/// byte-identical to a from-scratch [`train`](crate::train()).
///
/// The state survives process restarts as the same refinement log
/// [`refine_checkpointed`](crate::refine::refine_checkpointed) keeps:
/// [`IncrementalTrainer::save`] / [`IncrementalTrainer::load`].
#[derive(Debug, Default)]
pub struct IncrementalTrainer {
    cache: Option<TrainerCache>,
}

impl IncrementalTrainer {
    /// A trainer with no history; the first [`train`](Self::train) is a
    /// full run.
    pub fn new() -> Self {
        IncrementalTrainer { cache: None }
    }

    /// True once a successful [`train`](Self::train) (or a
    /// [`load`](Self::load)) installed reuse state.
    pub fn has_cache(&self) -> bool {
        self.cache.is_some()
    }

    /// Training epochs completed so far (0 for a fresh trainer).
    pub fn epoch(&self) -> u64 {
        self.cache.as_ref().map(|c| c.trainer.epoch).unwrap_or(0)
    }

    /// Persists the reuse state into `dir` as a refinement log whose
    /// header also carries the epoch and the domain fingerprints, written
    /// atomically over the previous one. A trainer with no cache writes
    /// nothing.
    pub fn save(&self, dir: impl AsRef<Path>) -> Result<(), RefineError> {
        let Some(cache) = &self.cache else {
            return Ok(());
        };
        let (header, trainer) = (&cache.header, &cache.trainer);
        checkpoint::save(dir.as_ref(), header, trainer, &cache.deltas, &cache.repair)?;
        Ok(())
    }

    /// Restores a trainer from the log in `dir`, refusing one that is
    /// incomplete, is not a trainer's, or was trained under a different
    /// configuration (`threads` excepted — the model is thread-invariant).
    pub fn load(dir: impl AsRef<Path>, cfg: &RefineConfig) -> Result<Self, RefineError> {
        let logged = checkpoint::read(dir.as_ref())?;
        let mut header = logged.header;
        let Some(trainer) = header.trainer.take() else {
            return Err(RefineError::CheckpointMismatch(
                "the log is a refinement checkpoint, not a trainer cache".into(),
            ));
        };
        let domains = logged.done.len();
        if domains != trainer.domain_fps.len() || logged.rounds.len() != trainer.rounds {
            return Err(RefineError::CheckpointMismatch(format!(
                "trainer cache is incomplete: {domains} of {} domains and {} of {} repair rounds",
                trainer.domain_fps.len(),
                logged.rounds.len(),
                trainer.rounds
            )));
        }
        if let Some(reason) = header.config_mismatch(cfg) {
            return Err(RefineError::CheckpointMismatch(reason));
        }
        Ok(IncrementalTrainer {
            cache: Some(TrainerCache {
                header,
                trainer,
                deltas: logged.done.into_values().collect(),
                repair: logged.rounds,
            }),
        })
    }

    /// Trains a model on `training`, reusing as much of the previous run
    /// as is provably identical, and finishes it like
    /// [`train`](crate::train()): the model is the one `train(training,
    /// training, cfg)` returns, byte for byte. Beside the training report
    /// comes what was reused.
    /// `cfg.checkpoint` and `cfg.resume` do not apply: the trainer's cache
    /// ([`save`](Self::save) / [`load`](Self::load)) is its resume state.
    pub fn train(
        &mut self,
        training: &Dataset,
        train_cfg: &TrainConfig,
    ) -> Result<(AsRoutingModel, TrainReport, IncrementalReport), RefineError> {
        let cfg = &train_cfg.refine;
        let clock = Instant::now();
        let graph = training.as_graph();
        let mut model = AsRoutingModel::initial(&graph, &training.prefixes());
        let mut jobs = build_jobs(&model, training);
        let ranges = domain_ranges(jobs.len());
        let fps = domain_fingerprints(&jobs, &ranges);
        let header = LogHeader::new(cfg, training, &model, jobs.len());

        // `repair_replayed` is settled once the repair ran.
        let mut mode = self.plan(&header);
        let mut start = Progress::default();
        let mut recorded = None;
        // Per job: whether its domain is re-refined, so its repair steps
        // must be simulated live rather than replayed.
        let mut live = vec![true; jobs.len()];
        if let (TrainMode::Incremental { .. }, Some(cache)) = (&mode, &self.cache) {
            for (id, fp) in fps.iter().enumerate() {
                if cache.trainer.domain_fps.get(id) == Some(fp) {
                    if let Some(delta) = cache.deltas.get(id) {
                        start.done.insert(id, delta.clone());
                        live[ranges[id].clone()].fill(false);
                    }
                }
            }
            // When the merged structure provably equals the recorded
            // epoch's, untouched prefixes re-apply their recorded repair
            // fixes without a single simulation, and only the prefixes of
            // re-refined (dirty) domains are simulated live.
            recorded = Some(RecordedRepair {
                deltas: &cache.deltas,
                live: &live,
                trace: &cache.repair,
            });
        }
        let domains_reused = start.done.len();
        let dirty_prefixes = live.iter().filter(|&&l| l).count();

        let refined = run_phases(&mut model, cfg, &mut jobs, start, None, recorded, clock)?;
        let skipped = if refined.replayed {
            jobs.len() - dirty_prefixes
        } else {
            0
        };

        self.cache = Some(TrainerCache {
            header,
            trainer: TrainerHeader {
                epoch: self.epoch() + 1,
                domain_fps: fps,
                rounds: refined.trace.len(),
            },
            deltas: refined.deltas.into_values().collect(),
            repair: refined.trace,
        });

        if let TrainMode::Incremental { repair_replayed } = &mut mode {
            *repair_replayed = refined.replayed;
        }
        let reuse = IncrementalReport {
            mode,
            domains_reused,
            prefixes_skipped: skipped,
            dirty_prefixes,
        };
        let (model, report) = finish(model, refined.report, refined.phases, false, train_cfg);
        Ok((model, report, reuse))
    }

    /// Decides the reuse mode for the run `run` heads against the cache,
    /// before domain reuse and repair-trace replay.
    fn plan(&self, run: &LogHeader) -> TrainMode {
        let Some(cache) = &self.cache else {
            return TrainMode::Initial;
        };
        match cache.header.mismatch(run, false) {
            Some(reason) => TrainMode::FullRetrain { reason },
            None => TrainMode::Incremental {
                repair_replayed: false,
            },
        }
    }
}

/// FNV-1a fingerprint per domain over each member prefix and its full
/// target set — the exact inputs [`refine`](crate::refine::refine) hands
/// that domain, so fingerprint equality means the domain's delta is a
/// replay of the cached one.
fn domain_fingerprints(jobs: &[(Prefix, PrefixJob)], ranges: &[Range<usize>]) -> Vec<u64> {
    ranges
        .iter()
        .map(|r| {
            let mut text = String::new();
            for (prefix, job) in &jobs[r.clone()] {
                let _ = writeln!(text, "{prefix}");
                for t in &job.targets {
                    let _ = writeln!(text, "{} {} {}", t.len, t.o, t.asn.0);
                }
            }
            persist::fnv1a(text.as_bytes())
        })
        .collect()
}

/// Convenience for callers that tolerate a missing cache: load it if
/// possible, otherwise start fresh. Only plain I/O failures (no cache
/// written yet, unreadable directory) degrade to a full first run; a
/// cache that is present but corrupt or trained under different knobs is
/// surfaced, because silently retraining over it would break epoch
/// comparability.
pub fn load_or_new(
    dir: impl AsRef<Path>,
    cfg: &RefineConfig,
) -> Result<IncrementalTrainer, RefineError> {
    match IncrementalTrainer::load(&dir, cfg) {
        Ok(t) => Ok(t),
        Err(RefineError::Persist(PersistError::Io { .. } | PersistError::NoCheckpoint { .. })) => {
            Ok(IncrementalTrainer::new())
        }
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observed::ObservedRoute;
    use crate::refine::RefineOp;
    use quasar_bgpsim::aspath::AsPath;
    use quasar_bgpsim::types::{Asn, RouterId};

    /// A small synthetic dataset: a chain-and-spokes topology with enough
    /// prefixes to span multiple refinement domains.
    fn dataset(paths: &[(u32, &[u32])]) -> Dataset {
        Dataset::new(
            paths
                .iter()
                .enumerate()
                .map(|(i, (origin, path))| ObservedRoute {
                    point: (i % 3) as u32,
                    observer_as: Asn(path[0]),
                    prefix: Prefix::for_origin(Asn(*origin)),
                    as_path: AsPath::from_u32s(path),
                }),
        )
    }

    fn base_paths() -> Vec<(u32, Vec<u32>)> {
        // Enough origins for several refinement domains (the partitioner
        // targets 16 prefixes per domain), two observers each, sharing a
        // transit core so route changes stay graph-preserving.
        let mut v = Vec::new();
        for origin in 30u32..78 {
            v.push((origin, vec![1, 10, origin]));
            v.push((origin, vec![2, 10, origin]));
            v.push((origin, vec![1, 11, 10, origin]));
        }
        v
    }

    fn to_dataset(paths: &[(u32, Vec<u32>)]) -> Dataset {
        let borrowed: Vec<(u32, &[u32])> = paths.iter().map(|(o, p)| (*o, p.as_slice())).collect();
        dataset(&borrowed)
    }

    fn full_json(training: &Dataset, cfg: &TrainConfig) -> String {
        let (model, _) = crate::train(training, training, cfg).expect("full train");
        model.to_json().expect("model serializes")
    }

    fn threads(threads: usize) -> TrainConfig {
        TrainConfig {
            refine: RefineConfig {
                threads,
                ..RefineConfig::default()
            },
            ..TrainConfig::default()
        }
    }

    #[test]
    fn initial_train_matches_full_refine() {
        let training = to_dataset(&base_paths());
        let cfg = threads(1);
        let mut trainer = IncrementalTrainer::new();
        let (model, _, report) = trainer.train(&training, &cfg).expect("train");
        assert_eq!(report.mode, TrainMode::Initial);
        assert_eq!(model.to_json().expect("json"), full_json(&training, &cfg));
        assert!(trainer.has_cache());
        assert_eq!(trainer.epoch(), 1);
    }

    #[test]
    fn unchanged_dataset_skips_everything_and_stays_identical() {
        let training = to_dataset(&base_paths());
        let cfg = threads(1);
        let mut trainer = IncrementalTrainer::new();
        let (m1, ..) = trainer.train(&training, &cfg).expect("first");
        let (m2, trained, report) = trainer.train(&training, &cfg).expect("second");
        assert_eq!(
            report.mode,
            TrainMode::Incremental {
                repair_replayed: true
            },
            "an unchanged dataset must replay the whole repair trace"
        );
        assert_eq!(report.domains_reused, trained.refine.domains);
        assert_eq!(report.dirty_prefixes, 0);
        assert_eq!(
            report.prefixes_skipped,
            trained.refine.prefixes.len(),
            "every prefix must be replayed without re-simulation"
        );
        assert_eq!(
            m1.to_json().expect("json"),
            m2.to_json().expect("json"),
            "identical dataset must reproduce the identical model"
        );
    }

    #[test]
    fn single_path_change_matches_full_retrain() {
        let cfg = threads(1);
        let mut paths = base_paths();
        let mut trainer = IncrementalTrainer::new();
        trainer.train(&to_dataset(&paths), &cfg).expect("first");

        // Re-route one observation over the alternative transit (both
        // edges already exist, so the AS graph is unchanged).
        paths[0].1 = vec![1, 11, 10, paths[0].0];
        let training = to_dataset(&paths);
        let (model, _, report) = trainer.train(&training, &cfg).expect("second");
        assert!(
            matches!(report.mode, TrainMode::Incremental { .. }),
            "graph-preserving path change must stay incremental, got {}",
            report.mode
        );
        assert!(
            report.domains_reused > 0,
            "untouched domains must be reused"
        );
        assert_eq!(
            model.to_json().expect("json"),
            full_json(&training, &cfg),
            "incremental model must be byte-identical to a full retrain"
        );
    }

    #[test]
    fn stale_repair_trace_falls_back_to_full_repair() {
        let training = to_dataset(&base_paths());
        let cfg = threads(1);
        let mut trainer = IncrementalTrainer::new();
        trainer.train(&training, &cfg).expect("first");

        // Corrupt the recorded trace: the first replayed step now claims a
        // duplication that allocates a different router id than recorded,
        // after the replay has already mutated the model.
        let cache = trainer.cache.as_mut().expect("trained cache");
        cache.repair[0][0].ops.push(RefineOp::Duplicate {
            prefix: Prefix::for_origin(Asn(30)),
            src: RouterId::new(Asn(10), 0),
            copy: RouterId::new(Asn(10), 999),
        });
        let (model, _, report) = trainer.train(&training, &cfg).expect("second");
        assert_eq!(
            report.mode,
            TrainMode::Incremental {
                repair_replayed: false
            },
            "a stale trace must abort the replay"
        );
        assert_eq!(report.prefixes_skipped, 0);
        assert_eq!(
            model.to_json().expect("json"),
            full_json(&training, &cfg),
            "the fallback repair must restore the pre-replay snapshot"
        );

        // The fallback recorded a fresh, usable trace.
        let (.., report) = trainer.train(&training, &cfg).expect("third");
        assert_eq!(
            report.mode,
            TrainMode::Incremental {
                repair_replayed: true
            }
        );
    }

    #[test]
    fn origin_change_falls_back_to_full_retrain() {
        let cfg = threads(1);
        let mut paths = base_paths();
        let mut trainer = IncrementalTrainer::new();
        trainer.train(&to_dataset(&paths), &cfg).expect("first");

        // A brand-new origin AS changes the graph and the origin map.
        paths.push((99, vec![1, 10, 99]));
        paths.push((99, vec![2, 10, 99]));
        let training = to_dataset(&paths);
        let (model, _, report) = trainer.train(&training, &cfg).expect("second");
        assert!(
            matches!(report.mode, TrainMode::FullRetrain { .. }),
            "a new origin must force a full retrain, got {}",
            report.mode
        );
        assert_eq!(model.to_json().expect("json"), full_json(&training, &cfg));
    }

    #[test]
    fn incremental_is_thread_invariant() {
        let (cfg1, cfg4) = (threads(1), threads(4));
        let mut paths = base_paths();
        let mut t1 = IncrementalTrainer::new();
        let mut t4 = IncrementalTrainer::new();
        t1.train(&to_dataset(&paths), &cfg1).expect("seed 1t");
        t4.train(&to_dataset(&paths), &cfg4).expect("seed 4t");
        paths[2].1 = vec![1, 11, 10, paths[2].0];
        let training = to_dataset(&paths);
        let (m1, ..) = t1.train(&training, &cfg1).expect("inc 1t");
        let (m4, ..) = t4.train(&training, &cfg4).expect("inc 4t");
        assert_eq!(m1.to_json().expect("json"), m4.to_json().expect("json"));
    }

    #[test]
    fn cache_round_trips_through_checkpoint_frames() {
        let dir =
            std::env::temp_dir().join(format!("quasar-inc-{}-{}", std::process::id(), line!()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = threads(1);
        let mut paths = base_paths();
        let mut trainer = IncrementalTrainer::new();
        trainer.train(&to_dataset(&paths), &cfg).expect("first");
        trainer.save(&dir).expect("save");

        let mut restored = IncrementalTrainer::load(&dir, &cfg.refine).expect("load");
        assert_eq!(restored.epoch(), 1);
        paths[0].1 = vec![1, 11, 10, paths[0].0];
        let training = to_dataset(&paths);
        let (model, _, report) = restored.train(&training, &cfg).expect("train");
        assert!(matches!(report.mode, TrainMode::Incremental { .. }));
        assert_eq!(model.to_json().expect("json"), full_json(&training, &cfg));

        // A different configuration must refuse the cache.
        let other = RefineConfig {
            allow_duplication: false,
            threads: 1,
            ..RefineConfig::default()
        };
        assert!(matches!(
            IncrementalTrainer::load(&dir, &other),
            Err(RefineError::CheckpointMismatch(_))
        ));
        // load_or_new degrades a *missing* cache to a fresh trainer but
        // still surfaces the config mismatch.
        assert!(load_or_new(dir.join("nope"), &cfg.refine)
            .map(|t| !t.has_cache())
            .unwrap_or(false));
        assert!(load_or_new(&dir, &other).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
