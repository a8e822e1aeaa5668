//! The generated internet every workload starts from.
//!
//! The AS topology is generated from a fixed generator seed; `--seed`
//! drives what is drawn on top of it: train-dump's point splits, the
//! query schedules and their popularity order, the what-if scenarios, and
//! the stream's path shifts and update times. Training cost differs by up
//! to ~40 % between generated topologies of the same size, which would
//! swamp any code change between two sets of seeded runs; a fixed
//! topology with seeded splits and traffic keeps the spread to what the
//! code and the host contribute.

use quasar_core::observed::{Dataset, ObservedRoute};
use quasar_netgen::config::NetGenConfig;
use quasar_netgen::observe::{RouteObservation, SyntheticInternet};
use std::collections::BTreeSet;

const TOPOLOGY_SEED: u64 = 2;

/// Input size: the benchmark's own preset, or `tiny` for the self-test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// 108 ASes, 24 observation ASes: ~6.5k routes over ~230 prefixes, a
    /// size at which one train-dump cycle takes about a second on one
    /// thread, so a run sees a few dozen of them.
    Bench,
    /// The netgen `tiny` preset (44 ASes).
    Tiny,
}

impl Scale {
    pub fn config(self) -> NetGenConfig {
        match self {
            Scale::Bench => NetGenConfig {
                seed: TOPOLOGY_SEED,
                num_tier1: 3,
                num_tier2: 10,
                num_tier3: 25,
                num_stubs: 70,
                num_observation_ases: 24,
                ..NetGenConfig::default()
            },
            Scale::Tiny => NetGenConfig::tiny(TOPOLOGY_SEED),
        }
    }
}

pub fn internet(scale: Scale) -> SyntheticInternet {
    SyntheticInternet::generate(scale.config())
}

/// The cleaned dataset `quasar train` builds from the same feeds.
pub fn dataset(observations: &[RouteObservation]) -> Dataset {
    Dataset::new(observations.iter().map(|o| ObservedRoute {
        point: o.point,
        observer_as: o.observer_as,
        prefix: o.prefix,
        as_path: o.as_path.clone(),
    }))
}

/// The feeds `Dataset::split_by_point(0.5, split_seed)` puts on the
/// training side.
pub fn training_points(ds: &Dataset, split_seed: u64) -> BTreeSet<u32> {
    ds.split_by_point(0.5, split_seed)
        .0
        .routes()
        .iter()
        .map(|r| r.point)
        .collect()
}

/// Distinct `(prefix, observer AS)` pairs of a dataset, in dataset order.
pub fn query_pairs(ds: &Dataset) -> Vec<(String, u32)> {
    let set: BTreeSet<(quasar_bgpsim::types::Prefix, u32)> = ds
        .routes()
        .iter()
        .map(|r| (r.prefix, r.observer_as.0))
        .collect();
    set.into_iter().map(|(p, o)| (p.to_string(), o)).collect()
}

pub fn predict_line(prefix: &str, observer: u32) -> String {
    format!(r#"{{"type":"predict","prefix":"{prefix}","observer":{observer}}}"#)
}

pub fn explain_line(prefix: &str, observer: u32) -> String {
    format!(r#"{{"type":"explain","prefix":"{prefix}","observer":{observer}}}"#)
}
