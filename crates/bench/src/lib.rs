//! # quasar-bench — the experiment harness
//!
//! One function per table/figure of the paper (see DESIGN.md's experiment
//! index). The `repro` binary prints them and EXPERIMENTS.md records
//! paper-vs-measured. Performance is measured by `perfbench/`, not here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod scale;

pub use experiments::*;
pub use scale::*;

/// The ids `repro --exp` accepts besides `all`.
pub const EXPERIMENT_IDS: &[&str] = &[
    "t0",
    "fig2",
    "t1",
    "spread",
    "t2",
    "degrees",
    "train",
    "pred-op",
    "pred-origin",
    "pred-both",
    "gen",
    "qr",
    "cov",
    "scale",
    "density",
    "seeds",
    "ablate-single",
    "ablate-lp",
    "ablate-rel",
];

use quasar_core::observed::{Dataset, ObservedRoute};
use quasar_netgen::config::NetGenConfig;
use quasar_netgen::observe::SyntheticInternet;

/// Experiment scale presets (see EXPERIMENTS.md for the parameter table).
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

impl Scale {
    /// Parses a `--scale` value: `tiny`, `small`, `medium` or `large`.
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "tiny" => Some(Scale::Tiny),
            "small" => Some(Scale::Small),
            "medium" => Some(Scale::Medium),
            "large" => Some(Scale::Large),
            _ => None,
        }
    }

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

/// Everything the experiments share: the synthetic Internet (the "real
/// world") and its cleaned observation dataset.
pub struct Context {
    /// The ground truth.
    pub internet: SyntheticInternet,
    /// Cleaned feeds.
    pub dataset: Dataset,
    /// Scale used.
    pub scale: Scale,
    /// Seed used.
    pub seed: u64,
}

impl Context {
    /// Generates the synthetic Internet and derives the dataset.
    pub fn build(scale: Scale, seed: u64) -> Context {
        Self::build_with_obs(scale, seed, None)
    }

    /// Like [`Context::build`], overriding the number of observation ASes
    /// (the E-density lever; the paper's >80 % regime needs vantage
    /// coverage comparable to RouteViews+RIPE's).
    pub fn build_with_obs(scale: Scale, seed: u64, obs: Option<usize>) -> Context {
        let mut cfg = scale.config(seed);
        if let Some(n) = obs {
            cfg.num_observation_ases = n;
        }
        let internet = SyntheticInternet::generate(cfg);
        let dataset = Dataset::new(internet.observations.iter().map(|o| ObservedRoute {
            point: o.point,
            observer_as: o.observer_as,
            prefix: o.prefix,
            as_path: o.as_path.clone(),
        }));
        Context {
            internet,
            dataset,
            scale,
            seed,
        }
    }

    /// The true tier-1 ASNs (used as clique seeds, like the paper's
    /// well-known tier-1 list).
    pub fn tier1_seeds(&self) -> Vec<quasar_bgpsim::types::Asn> {
        self.internet.as_topology.tier1()
    }
}
