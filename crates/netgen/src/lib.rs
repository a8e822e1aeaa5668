//! # quasar-netgen — a synthetic Internet with ground-truth routing
//!
//! The paper derives its model from >1,300 real BGP feeds (RouteViews,
//! RIPE, GEANT, Abilene — §3.1). Those archives are unavailable offline, so
//! this crate substitutes the closest synthetic equivalent that exercises
//! the same code paths:
//!
//! 1. [`hierarchy`] generates an AS-level Internet (tier-1 clique, transit
//!    tiers, single-/multi-homed stubs) with **known ground-truth
//!    relationships**;
//! 2. [`routers`] expands it to router level — multiple border routers per
//!    transit AS, iBGP full mesh, weighted IGP, parallel inter-AS sessions —
//!    the exact mechanisms the paper identifies as the source of route
//!    diversity;
//! 3. [`policies`] installs Gao-Rexford policies plus a configurable dose
//!    of non-standard per-prefix policies ("not all policies fit these
//!    simple rules", §1);
//! 4. [`observe`] simulates every prefix to convergence with
//!    `quasar-bgpsim` and records only what a route collector would see at
//!    sampled observation points;
//! 5. [`mrt_io`] writes/reads those feeds in RouteViews' MRT TABLE_DUMP_V2
//!    format, keeping the pipeline drop-in compatible with real data;
//! 6. [`updates`] and [`perturb`] give the streaming pipeline its ground
//!    truth: BGP4MP update streams, and a seeded after set of
//!    graph-preserving path shifts rendered as a before→after archive.
//!
//! The model under test (`quasar-core`) consumes the feeds only — never the
//! ground truth — so its predictions are evaluated exactly as in the paper.
//!
//! ```
//! use quasar_netgen::prelude::*;
//!
//! let net = SyntheticInternet::generate(NetGenConfig::tiny(42));
//! assert!(!net.observations.is_empty());
//! // Feeds can be exported to the real archive format:
//! let mrt = export_table_dump_v2(&net.observation_points, &net.observations);
//! let (points, obs) = import_table_dump_v2(&mrt).unwrap();
//! assert_eq!(points.len(), net.observation_points.len());
//! assert_eq!(obs.len(), net.observations.len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod hierarchy;
pub mod mrt_io;
pub mod observe;
pub mod perturb;
pub mod policies;
pub mod routers;
pub mod updates;

/// Commonly used names.
pub mod prelude {
    pub use crate::config::NetGenConfig;
    pub use crate::hierarchy::{AsLevelTopology, GenAs, Tier};
    pub use crate::mrt_io::{
        export_table_dump_v2, import_table_dump, import_table_dump_v2, SNAPSHOT_TIME,
    };
    pub use crate::observe::{
        collect_observations, ObservationPoint, RouteObservation, SyntheticInternet,
    };
    pub use crate::perturb::{
        perturb_observations, perturb_observations_in_block, transition_stream, Perturbation,
        PerturbationConfig,
    };
    pub use crate::policies::{
        apply_gao_policies, inject_weird_policies, WeirdKind, WeirdPolicyRecord, LP_CUSTOMER,
        LP_EXPORTABLE, LP_PEER, LP_PROVIDER,
    };
    pub use crate::routers::{EbgpLink, RouterLevel};
    pub use crate::updates::{generate_update_stream, reconstruct_stable, UpdateStreamConfig};
}
