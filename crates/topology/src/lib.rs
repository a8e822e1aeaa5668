//! # quasar-topology — AS-level topology machinery
//!
//! Implements §3.1/§3.3 of *"Building an AS-topology model that captures
//! route diversity"* (SIGCOMM 2006): deriving the AS graph from observed
//! AS-paths, locating the tier-1 clique, classifying ASes (level-1/2/other,
//! transit vs stub, single- vs multi-homed), pruning single-homed stubs
//! from the graph, and inferring customer-provider / peer / sibling
//! relationships under the valley-free assumption together with their
//! local-pref + export-filter realization.
//!
//! ```
//! use quasar_bgpsim::aspath::AsPath;
//! use quasar_bgpsim::types::Asn;
//! use quasar_topology::prelude::*;
//!
//! let paths = vec![AsPath::from_u32s(&[1, 2]), AsPath::from_u32s(&[2, 1, 3])];
//! let graph = AsGraph::from_paths(&paths);
//! let class = classify(&graph, &paths, &[Asn(1), Asn(2)]);
//! assert_eq!(class.level1, vec![Asn(1), Asn(2)]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod classify;
pub mod clique;
pub mod gao;
pub mod graph;
pub mod prune;
pub mod relationships;

/// Commonly used names.
pub mod prelude {
    pub use crate::classify::{classify, Classification, Level};
    pub use crate::clique::tier1_clique;
    pub use crate::gao::{
        import_local_pref, is_valley_free, may_export, neighbor_kind, LocalPrefClasses,
        NeighborKind,
    };
    pub use crate::graph::AsGraph;
    pub use crate::prune::{prune_single_homed_stubs, PruneResult};
    pub use crate::relationships::{
        infer_relationships, InferenceConfig, Relationship, Relationships,
    };
}
