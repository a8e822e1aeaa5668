//! # quasar — an AS-topology model that captures route diversity
//!
//! A full Rust reproduction of *"Building an AS-topology model that
//! captures route diversity"* (Mühlbauer, Feldmann, Maennel, Roughan,
//! Uhlig — SIGCOMM 2006). This façade crate re-exports the workspace
//! members and provides the glue between them:
//!
//! * [`bgpsim`] — per-prefix steady-state BGP simulator (C-BGP
//!   equivalent),
//! * [`topology`] — AS-graph machinery: clique, classification,
//!   relationships,
//! * [`mrt`] — RouteViews-compatible MRT codec,
//! * [`netgen`] — synthetic Internet with ground-truth routing and
//!   observation feeds,
//! * [`model`] — the paper's contribution: quasi-router model, iterative
//!   refinement, prediction metrics,
//! * [`diversity`] — the §3 route-diversity analyses,
//! * [`serve`] — concurrent what-if/prediction query server with a
//!   per-prefix steady-state cache,
//! * [`stream`] — live BGP update ingestion: windowed delta detection,
//!   incremental retraining, zero-downtime epoch swaps into [`serve`],
//! * [`lint`] — static analyzer for trained models: typed, severity-ranked
//!   diagnostics (QL0001–QL0009) with no simulation,
//! * [`repro`] — the paper's experiments, one per table or figure, as
//!   `quasar repro` prints them.
//!
//! The glue shared by the `quasar` CLI and the experiments lives here:
//! the [`Scale`] presets, the feed → [`Dataset`] conversion, the held-out
//! [`Split`] and the held-out trainer [`train_held_out`].
//!
//! See `examples/quickstart.rs` for the end-to-end pipeline.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use quasar_bgpsim as bgpsim;
pub use quasar_core as model;
pub use quasar_diversity as diversity;
pub use quasar_lint as lint;
pub use quasar_mrt as mrt;
pub use quasar_netgen as netgen;
pub use quasar_serve as serve;
pub use quasar_stream as stream;
pub use quasar_topology as topology;

pub mod repro;

use quasar_core::model::AsRoutingModel;
use quasar_core::observed::{Dataset, ObservedRoute};
use quasar_core::refine::RefineError;
use quasar_core::train::{train, TrainConfig, TrainReport};
use quasar_netgen::config::NetGenConfig;
use quasar_netgen::observe::{RouteObservation, SyntheticInternet};
use std::str::FromStr;

/// A synthetic-Internet preset (see EXPERIMENTS.md for the parameter
/// table).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds-fast (44 ASes); used by tests.
    Tiny,
    /// The default experiment scale (hundreds of ASes).
    Small,
    /// Thousands of ASes — the closest to the paper's 14.5k-AS pruned
    /// graph that a laptop-scale run affords.
    Medium,
    /// Tens of thousands of ASes with ~1000 observation ASes (matching
    /// the paper's >1300 observation points); overnight runs only.
    Large,
}

impl FromStr for Scale {
    type Err = &'static str;

    fn from_str(s: &str) -> Result<Scale, Self::Err> {
        match s {
            "tiny" => Ok(Scale::Tiny),
            "small" => Ok(Scale::Small),
            "medium" => Ok(Scale::Medium),
            "large" => Ok(Scale::Large),
            _ => Err("want tiny|small|medium|large"),
        }
    }
}

impl Scale {
    /// The generator configuration for this scale.
    pub fn config(self, seed: u64) -> NetGenConfig {
        match self {
            Scale::Tiny => NetGenConfig::tiny(seed),
            Scale::Small => NetGenConfig::small(seed),
            Scale::Medium => NetGenConfig::medium(seed),
            Scale::Large => NetGenConfig::large(seed),
        }
    }
}

/// Converts a synthetic Internet's feeds into the model's observed-route
/// dataset (with the paper's cleaning applied).
pub fn dataset_from(net: &SyntheticInternet) -> Dataset {
    dataset_from_observations(&net.observations)
}

/// Converts raw feed observations (e.g. re-imported from an MRT dump) into
/// a cleaned dataset.
pub fn dataset_from_observations(observations: &[RouteObservation]) -> Dataset {
    Dataset::new(observations.iter().map(|o| ObservedRoute {
        point: o.point,
        observer_as: o.observer_as,
        prefix: o.prefix,
        as_path: o.as_path.clone(),
    }))
}

/// Which feeds a prediction holds out (§4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Split {
    /// Hold out observation points.
    Point,
    /// Hold out originating ASes (prefixes).
    Origin,
    /// Hold out both (mixed quadrants discarded).
    Both,
}

impl FromStr for Split {
    type Err = &'static str;

    fn from_str(s: &str) -> Result<Split, Self::Err> {
        match s {
            "point" => Ok(Split::Point),
            "origin" => Ok(Split::Origin),
            "both" => Ok(Split::Both),
            _ => Err("want point|origin|both"),
        }
    }
}

impl Split {
    /// Splits `dataset` in half, seeded: `(training, validation)`.
    pub fn apply(self, dataset: &Dataset, seed: u64) -> (Dataset, Dataset) {
        match self {
            Split::Point => dataset.split_by_point(0.5, seed),
            Split::Origin => dataset.split_by_origin(0.5, seed),
            Split::Both => dataset.split_combined(0.5, seed),
        }
    }

    /// The shipping recipe for this split: the §4.7 generalisation runs
    /// exactly when the validation half holds prefixes training never saw.
    pub fn recipe(self) -> TrainConfig {
        TrainConfig {
            generalize: self != Split::Point,
            ..TrainConfig::default()
        }
    }
}

/// A model trained on one half of a split, with both halves.
pub struct HeldOut {
    /// The trained model.
    pub model: AsRoutingModel,
    /// What the training run did.
    pub report: TrainReport,
    /// The half trained on.
    pub training: Dataset,
    /// The held-out half.
    pub validation: Dataset,
}

/// Splits `dataset` with `split` and `seed`, then trains on the training
/// half by `cfg` (usually [`Split::recipe`]), starting from the initial
/// model of all of `dataset` (§4.5).
pub fn train_held_out(
    dataset: &Dataset,
    split: Split,
    seed: u64,
    cfg: &TrainConfig,
) -> Result<HeldOut, RefineError> {
    let (training, validation) = split.apply(dataset, seed);
    let (model, report) = train(dataset, &training, cfg)?;
    Ok(HeldOut {
        model,
        report,
        training,
        validation,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use quasar_netgen::config::NetGenConfig;

    #[test]
    fn facade_conversion_preserves_routes() {
        let net = SyntheticInternet::generate(NetGenConfig::tiny(1));
        let d = dataset_from(&net);
        assert_eq!(d.len(), net.observations.len());
    }
}
