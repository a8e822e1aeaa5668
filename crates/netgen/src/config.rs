//! Generator configuration.
//!
//! Defaults produce a hierarchy that mirrors the statistical *shape* of the
//! paper's November 2005 dataset (§3.1) at a laptop-friendly scale: a
//! tier-1 clique, a transit middle, a large stub population of which
//! roughly a third is single-homed, multiple border routers (hence genuine
//! intra-AS route diversity) in the transit core, and a minority of ASes
//! with non-standard ("weird") per-prefix policies.

use serde::{Deserialize, Serialize};

/// All knobs of the synthetic-Internet generator.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NetGenConfig {
    /// PRNG seed; every derived artifact is a pure function of this.
    pub seed: u64,
    /// Size of the tier-1 clique (paper found 10).
    pub num_tier1: usize,
    /// Number of tier-2 (large transit) ASes.
    pub num_tier2: usize,
    /// Number of tier-3 (small transit) ASes.
    pub num_tier3: usize,
    /// Number of stub ASes.
    pub num_stubs: usize,
    /// Probability that a stub is single-homed (the paper observed
    /// 6,611 / (6,611 + 11,077) ≈ 0.37).
    pub single_homed_fraction: f64,
    /// Maximum number of providers a multi-homed AS attaches to.
    pub max_providers: usize,
    /// Probability of a peering edge between two tier-2 ASes.
    pub tier2_peering_prob: f64,
    /// Probability of a peering edge between two tier-3 ASes.
    pub tier3_peering_prob: f64,
    /// Border routers per tier-1 AS (min, max).
    pub tier1_routers: (u16, u16),
    /// Border routers per tier-2 AS (min, max).
    pub tier2_routers: (u16, u16),
    /// Border routers per tier-3 AS (min, max).
    pub tier3_routers: (u16, u16),
    /// Probability that an inter-AS adjacency is realized by *two* eBGP
    /// sessions between distinct router pairs ("multiple connections
    /// between ASes, typically from different routers", §1).
    pub parallel_link_prob: f64,
    /// Maximum IGP link weight (weights drawn uniformly from 1..=max).
    pub max_igp_weight: u32,
    /// Fraction of transit ASes carrying non-standard per-prefix policies.
    pub weird_policy_fraction: f64,
    /// Per weird AS: how many prefixes receive a deviating policy.
    pub weird_prefixes_per_as: usize,
    /// Prefixes originated by a multihomed AS (min, max; max 8). Single-
    /// homed stubs always originate exactly one.
    pub prefixes_per_multihomed: (u8, u8),
    /// Fraction of multihomed origins performing per-prefix selective
    /// announcement across their providers (classic inbound traffic
    /// engineering) — a major source of observed route diversity.
    pub origin_te_fraction: f64,
    /// Number of ASes hosting observation points.
    pub num_observation_ases: usize,
    /// Probability that an observation AS has feeds from multiple routers
    /// (the paper had multiple feeds in 30% of observation ASes).
    pub multi_feed_prob: f64,
    /// Use RFC 4456 route reflection instead of an iBGP full mesh inside
    /// ASes with four or more border routers (router 0 becomes the
    /// reflector). Off by default: the canonical experiments use the full
    /// mesh, as the paper's C-BGP setup does.
    pub use_route_reflection: bool,
}

impl Default for NetGenConfig {
    fn default() -> Self {
        NetGenConfig {
            seed: 20051113, // the paper's snapshot date
            num_tier1: 8,
            num_tier2: 40,
            num_tier3: 120,
            num_stubs: 400,
            single_homed_fraction: 0.37,
            max_providers: 4,
            // Edge densities tuned so the AS graph's mean degree (~7)
            // matches the paper's dataset (52,288 edges / 14,563 nodes).
            tier2_peering_prob: 0.15,
            tier3_peering_prob: 0.04,
            tier1_routers: (3, 5),
            tier2_routers: (2, 3),
            tier3_routers: (1, 3),
            parallel_link_prob: 0.3,
            max_igp_weight: 100,
            weird_policy_fraction: 0.15,
            weird_prefixes_per_as: 3,
            prefixes_per_multihomed: (2, 4),
            origin_te_fraction: 0.5,
            num_observation_ases: 60,
            multi_feed_prob: 0.3,
            use_route_reflection: false,
        }
    }
}

impl NetGenConfig {
    /// A small configuration for fast unit/integration tests.
    pub fn tiny(seed: u64) -> Self {
        NetGenConfig {
            seed,
            num_tier1: 3,
            num_tier2: 6,
            num_tier3: 10,
            num_stubs: 25,
            num_observation_ases: 16,
            ..Self::default()
        }
    }

    /// The `small` preset: the canonical experiment scale. Identical to
    /// [`Default`](NetGenConfig::default) (hundreds of ASes), named so
    /// `--scale small` can address it.
    pub fn small(seed: u64) -> Self {
        NetGenConfig {
            seed,
            ..Self::default()
        }
    }

    /// The `medium` preset (thousands of ASes, the closest to the
    /// paper's scale); heavy — intended for experiments, not unit tests.
    pub fn medium(seed: u64) -> Self {
        NetGenConfig {
            seed,
            num_tier1: 10,
            num_tier2: 150,
            num_tier3: 500,
            num_stubs: 1500,
            num_observation_ases: 150,
            ..Self::default()
        }
    }

    /// The `large` preset: tens of thousands of ASes with an observation
    /// coverage comparable to the paper's >1300 RouteViews+RIPE points
    /// (1000 observation ASes, ~30% of which have multiple feeds). Meant
    /// for overnight benchmark runs only.
    pub fn large(seed: u64) -> Self {
        NetGenConfig {
            seed,
            num_tier1: 12,
            num_tier2: 400,
            num_tier3: 1_600,
            num_stubs: 18_000,
            num_observation_ases: 1_000,
            ..Self::default()
        }
    }

    /// Total number of ASes generated.
    pub fn total_ases(&self) -> usize {
        self.num_tier1 + self.num_tier2 + self.num_tier3 + self.num_stubs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_counts_are_consistent() {
        let c = NetGenConfig::default();
        assert_eq!(
            c.total_ases(),
            c.num_tier1 + c.num_tier2 + c.num_tier3 + c.num_stubs
        );
        assert!(c.single_homed_fraction > 0.0 && c.single_homed_fraction < 1.0);
    }

    #[test]
    fn tiny_is_smaller_than_default() {
        assert!(NetGenConfig::tiny(1).total_ases() < NetGenConfig::default().total_ases());
    }

    #[test]
    fn presets_grow_strictly() {
        let tiny = NetGenConfig::tiny(1).total_ases();
        let small = NetGenConfig::small(1).total_ases();
        let medium = NetGenConfig::medium(1).total_ases();
        let large = NetGenConfig::large(1).total_ases();
        assert!(tiny < small && small < medium && medium < large);
        assert!(
            large >= 20_000,
            "large must reach tens of thousands of ASes"
        );
        assert_eq!(NetGenConfig::small(7).seed, 7);
    }
}
