//! Dataset pruning (paper §3.1).
//!
//! "Single-homed ASes that do not provide transit only add limited
//! information about the AS-topology as long as any path information
//! gathered from prefixes originated at such stub-ASes is transferred to a
//! prefix originated at its AS neighbor. Removing single-homed stub-ASes
//! and AS-paths with loops from the AS-topology results in a graph with
//! 14,563 nodes and 52,288 edges."
//!
//! Only the graph half is implemented: T0 reports the pruned graph's size.
//! The model is refined over the unpruned graph.

use crate::classify::Classification;
use crate::graph::AsGraph;
use quasar_bgpsim::types::Asn;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Result of pruning single-homed stubs from a graph.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct PruneResult {
    /// The pruned AS graph.
    pub graph: AsGraph,
    /// Removed single-homed stub ASes.
    pub removed: BTreeSet<Asn>,
}

/// Removes single-homed stub ASes from `graph`.
pub fn prune_single_homed_stubs(graph: &AsGraph, class: &Classification) -> PruneResult {
    let mut out = PruneResult {
        graph: graph.clone(),
        ..Default::default()
    };
    for &stub in &class.single_homed_stubs {
        out.graph.remove_node(stub);
        out.removed.insert(stub);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::classify;
    use quasar_bgpsim::aspath::AsPath;

    fn path(v: &[u32]) -> AsPath {
        AsPath::from_u32s(v)
    }

    fn setup() -> (AsGraph, Vec<AsPath>, Classification) {
        // 4 is a single-homed stub of 3; 5 multi-homed.
        let paths = vec![
            path(&[1, 2]),
            path(&[2, 1]),
            path(&[2, 1, 3, 4]),
            path(&[1, 3, 4]),
            path(&[1, 5]),
            path(&[2, 5]),
        ];
        let g = AsGraph::from_paths(&paths);
        let c = classify(&g, &paths, &[Asn(1), Asn(2)]);
        (g, paths, c)
    }

    #[test]
    fn single_homed_stub_removed() {
        let (g, _p, c) = setup();
        let pr = prune_single_homed_stubs(&g, &c);
        assert_eq!(pr.removed, BTreeSet::from([Asn(4)]));
        assert!(!pr.graph.contains(Asn(4)));
        assert!(pr.graph.contains(Asn(5)));
    }

    #[test]
    fn pruned_counts_match_paper_shape() {
        let (g, _p, c) = setup();
        let pr = prune_single_homed_stubs(&g, &c);
        assert_eq!(pr.graph.num_nodes(), g.num_nodes() - 1);
        // 4's single edge is gone.
        assert_eq!(pr.graph.num_edges(), g.num_edges() - 1);
    }
}
