//! Shared fixtures for the streaming suites: transition archives (a
//! before-RIB plus the update stream that morphs it into a perturbed
//! after-set) and the offline full-retrain baseline every incremental
//! replay must be byte-identical to.

use quasar_core::observed::{Dataset, ObservedRoute};
use quasar_core::persist;
use quasar_core::refine::RefineConfig;
use quasar_core::train::{train, TrainConfig};
use quasar_mrt::prelude::*;
use quasar_netgen::prelude::*;
use std::path::{Path, PathBuf};

/// A synthetic before→after transition rendered as an MRT archive.
pub struct StreamScenario {
    /// PEER_INDEX_TABLE + before-RIB + timestamp-ordered updates.
    pub records: Vec<MrtRecord>,
    /// The observation set the archive's RIB dump encodes.
    pub before: Vec<RouteObservation>,
    /// Ground truth: the observation set after every update applies.
    pub after: Vec<RouteObservation>,
    /// Ground truth: exactly the prefixes the updates change.
    pub dirty: Vec<quasar_bgpsim::types::Prefix>,
    /// The stream config the archive was rendered under.
    pub stream_cfg: UpdateStreamConfig,
}

/// Builds a graph-preserving transition scenario: `path_shifts` feeds
/// switch to an alternative path, the AS graph and prefix origins stay
/// fixed — the incremental trainer's fast path. Deterministic in `seed`.
pub fn transition_scenario(seed: u64, path_shifts: usize) -> StreamScenario {
    let net = SyntheticInternet::generate(NetGenConfig::tiny(seed));
    let perturbation = perturb_observations(
        &net.observation_points,
        &net.observations,
        &PerturbationConfig::graph_preserving(path_shifts),
        seed ^ 0xD1CE,
    );
    let stream_cfg = UpdateStreamConfig::default();
    let records = transition_stream(
        &net.observation_points,
        &net.observations,
        &perturbation.after,
        &stream_cfg,
        seed ^ 0x5EED,
    );
    StreamScenario {
        records,
        before: net.observations,
        after: perturbation.after,
        dirty: perturbation.dirty_prefixes,
        stream_cfg,
    }
}

/// Writes records as a raw MRT archive file.
pub fn write_archive(path: &Path, records: &[MrtRecord]) {
    let mut w = MrtWriter::new(Vec::new());
    for r in records {
        w.write_record(r).expect("encode record");
    }
    std::fs::write(path, w.finish().expect("finish archive")).expect("write archive");
}

/// Encodes records to raw archive bytes (for tests that append to a file
/// chunk by chunk).
pub fn archive_bytes(records: &[MrtRecord]) -> Vec<u8> {
    let mut w = MrtWriter::new(Vec::new());
    for r in records {
        w.write_record(r).expect("encode record");
    }
    w.finish().expect("finish archive")
}

/// The offline baseline: a from-scratch run of the training recipe on
/// `dataset`, persisted like `quasar train` persists it, returned as the
/// artifact's bytes. Every streamed epoch of the same path set must equal
/// this byte for byte.
pub fn full_retrain_artifact(dataset: &Dataset, threads: usize, scratch: &Path) -> Vec<u8> {
    let cfg = TrainConfig {
        refine: RefineConfig {
            threads,
            ..RefineConfig::default()
        },
        ..TrainConfig::default()
    };
    let (model, _) = train(dataset, dataset, &cfg).expect("offline retrain");
    persist::save_model(scratch, &model).expect("write baseline");
    std::fs::read(scratch).expect("read baseline back")
}

/// A cleaned dataset from raw observations (the same conversion the
/// training CLI applies).
pub fn dataset_of(observations: &[RouteObservation]) -> Dataset {
    Dataset::new(observations.iter().map(|o| ObservedRoute {
        point: o.point,
        observer_as: o.observer_as,
        prefix: o.prefix,
        as_path: o.as_path.clone(),
    }))
}

/// A fresh per-test scratch directory under the system temp dir.
pub fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("quasar-streamfx-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}
