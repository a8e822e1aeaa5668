//! # quasar-core — an AS-topology model that captures route diversity
//!
//! The primary contribution of *"Building an AS-topology model that
//! captures route diversity"* (Mühlbauer, Feldmann, Maennel, Roughan,
//! Uhlig — SIGCOMM 2006), reimplemented in Rust:
//!
//! * [`observed`] — observation-point datasets with the paper's cleaning
//!   and training/validation splits (by point, by origin, combined; §4.2);
//! * [`model`] — the [`model::AsRoutingModel`]: multiple **quasi-routers**
//!   per AS (logical partitions of its route selection, not physical
//!   routers), per-prefix MED rankings and filters, the paper's
//!   `ASN << 16 | index` router-id scheme (§4.1/§4.5);
//! * [`refine`] — the iterative refinement heuristic that makes the model
//!   reproduce every training path exactly (§4.4–§4.6);
//! * [`train()`] — the recipe behind every shipped model: refine and
//!   §4.7 generalisation, timing phases A/B/C and counting their
//!   simulations ([`train::PhaseTimes`]);
//! * [`metrics`] — RIB-In / potential RIB-Out / RIB-Out match levels and
//!   per-prefix coverage (§4.2);
//! * [`predict`] — parallel evaluation of predictions on held-out data
//!   (§4.7);
//! * [`baseline`] — the §3.3 single-router baselines (shortest path and
//!   inferred-relationship policies) behind Table 2.
//!
//! ## Quick start
//! ```
//! use quasar_core::prelude::*;
//! use quasar_bgpsim::prelude::*;
//!
//! // Observed routes: AS1 reaches AS3's prefix via AS4 (not the
//! // tie-break default AS2).
//! let routes = vec![
//!     ObservedRoute {
//!         point: 0,
//!         observer_as: Asn(1),
//!         prefix: Prefix::for_origin(Asn(3)),
//!         as_path: AsPath::from_u32s(&[1, 4, 3]),
//!     },
//!     ObservedRoute {
//!         point: 1,
//!         observer_as: Asn(2),
//!         prefix: Prefix::for_origin(Asn(3)),
//!         as_path: AsPath::from_u32s(&[2, 3]),
//!     },
//! ];
//! let dataset = Dataset::new(routes);
//! // The recipe `quasar train` runs: refinement (§4.4–§4.6), then §4.7.
//! let (model, report) = train(&dataset, &dataset, &TrainConfig::default()).unwrap();
//! assert!(report.refine.converged());
//! println!("{}", report.phases); // A domains … | B merge … | C repair … | generalize …
//! let ev = evaluate(&model, &dataset);
//! assert_eq!(ev.counts.rib_out, ev.counts.total); // exact reproduction
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code must surface failures as typed errors (or `expect` with an
// invariant message, annotated at the use site); unit tests are exempt.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod backoff;
pub mod baseline;
pub mod diagnostics;
pub mod incremental;
pub mod metrics;
pub mod model;
pub mod observed;
pub mod persist;
mod pool;
pub mod predict;
pub mod refine;
pub mod train;
pub mod whatif;

pub use train::train;

/// Commonly used names.
pub mod prelude {
    pub use crate::backoff::{splitmix64, Backoff};
    pub use crate::baseline::{relationship_model, shortest_path_model, table2_row, Table2Row};
    pub use crate::diagnostics::{diagnose, MismatchDiagnostics};
    pub use crate::incremental::{IncrementalReport, IncrementalTrainer, TrainMode};
    pub use crate::metrics::{
        match_level, mismatch_reason, MatchCounts, MatchLevel, MismatchReason, PrefixCoverage,
    };
    pub use crate::model::{AsRoutingModel, ModelStats};
    pub use crate::observed::{Dataset, ObservedRoute};
    pub use crate::persist::{atomic_write_bytes, load_model, save_model, PersistError};
    pub use crate::predict::{
        evaluate, evaluate_prefix, predict_route, Evaluation, RoutePrediction,
    };
    pub use crate::refine::{
        refine, refine_checkpointed, resume_refine, PrefixOutcome, RankingAttr, RefineConfig,
        RefineError, RefineReport,
    };
    pub use crate::train::{train, PhaseTimes, SimWork, TrainConfig, TrainReport};
    pub use crate::whatif::{apply_change, Change, Impact, RoutingDiff, Scenario};
}
