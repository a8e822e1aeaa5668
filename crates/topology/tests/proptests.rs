//! Property-based tests over random path datasets.

use proptest::prelude::*;
use quasar_bgpsim::aspath::AsPath;
use quasar_bgpsim::types::Asn;
use quasar_topology::prelude::*;

fn arb_paths() -> impl Strategy<Value = Vec<AsPath>> {
    proptest::collection::vec(
        proptest::collection::vec(1u32..40, 1..7).prop_map(|v| AsPath::from_u32s(&v)),
        1..40,
    )
}

proptest! {
    /// Every adjacent pair of every path is an edge of the derived graph,
    /// and every node of the graph appears on some path.
    #[test]
    fn graph_covers_paths(paths in arb_paths()) {
        let g = AsGraph::from_paths(&paths);
        for p in &paths {
            for (a, b) in p.edges() {
                if a != b {
                    prop_assert!(g.has_edge(a, b));
                }
            }
        }
        for n in g.nodes() {
            prop_assert!(paths.iter().any(|p| p.contains(n)));
        }
    }

    /// The tier-1 clique returned is in fact a clique and is maximal.
    #[test]
    fn tier1_result_is_maximal_clique(paths in arb_paths(), seed in 1u32..40) {
        let g = AsGraph::from_paths(&paths);
        let c = tier1_clique(&g, &[Asn(seed)]);
        prop_assert!(g.is_clique(&c));
        for n in g.nodes() {
            if !c.contains(&n) {
                // n must miss at least one clique member.
                prop_assert!(c.iter().any(|&m| !g.has_edge(m, n)),
                    "clique not maximal: {n} adjacent to all");
            }
        }
    }

    /// transit / single-homed stubs / multi-homed stubs partition the ASes.
    #[test]
    fn classification_is_a_partition(paths in arb_paths()) {
        let g = AsGraph::from_paths(&paths);
        let c = classify(&g, &paths, &[]);
        let mut count = 0;
        for a in g.nodes() {
            let memberships = [
                c.transit.contains(&a),
                c.single_homed_stubs.contains(&a),
                c.multi_homed_stubs.contains(&a),
            ];
            prop_assert_eq!(memberships.iter().filter(|&&m| m).count(), 1,
                "{} in {} classes", a, memberships.iter().filter(|&&m| m).count());
            count += 1;
        }
        prop_assert_eq!(count, c.num_ases);
    }

    /// The pruned graph contains exactly the surviving nodes.
    #[test]
    fn pruned_graph_drops_exactly_the_removed(paths in arb_paths()) {
        let g = AsGraph::from_paths(&paths);
        let c = classify(&g, &paths, &[]);
        let pr = prune_single_homed_stubs(&g, &c);
        for a in pr.removed.iter() {
            prop_assert!(!pr.graph.contains(*a));
        }
        prop_assert_eq!(pr.graph.num_nodes() + pr.removed.len(), g.num_nodes());
    }

    /// Relationship inference classifies only existing edges, reports
    /// symmetric lookups, and tier-1 clique edges are always peerings.
    #[test]
    fn relationships_cover_edges_symmetrically(paths in arb_paths()) {
        let g = AsGraph::from_paths(&paths);
        let level1 = tier1_clique(&g, &[]);
        let rels = infer_relationships(&g, &paths, &level1, &InferenceConfig::default());
        for (&(a, b), _) in rels.iter() {
            prop_assert!(g.has_edge(a, b));
            prop_assert_eq!(rels.get(a, b), rels.get(b, a));
        }
        for (i, &a) in level1.iter().enumerate() {
            for &b in &level1[i + 1..] {
                prop_assert_eq!(rels.get(a, b), Some(Relationship::PeerPeer));
            }
        }
        let (cp, pp, sib) = rels.counts();
        prop_assert_eq!(cp + pp + sib, rels.len());
    }

    /// Valley-freeness is suffix-closed: every suffix of a valley-free
    /// path is itself valley-free (the refinement heuristic depends on
    /// suffixes being realizable wherever the full path is).
    #[test]
    fn valley_free_closed_under_suffix(paths in arb_paths()) {
        use quasar_topology::gao::is_valley_free;
        let g = AsGraph::from_paths(&paths);
        let rels = infer_relationships(&g, &paths, &[], &InferenceConfig::default());
        for p in &paths {
            if p.has_loop() || !is_valley_free(p, &rels) {
                continue;
            }
            for n in 1..=p.len() {
                prop_assert!(
                    is_valley_free(&p.suffix(n), &rels),
                    "suffix {} of valley-free {} has a valley",
                    p.suffix(n),
                    p
                );
            }
        }
    }

    /// An AS is never simultaneously provider and customer of the same
    /// neighbor (directions are exclusive).
    #[test]
    fn provider_direction_exclusive(paths in arb_paths()) {
        let g = AsGraph::from_paths(&paths);
        let rels = infer_relationships(&g, &paths, &[], &InferenceConfig::default());
        for (&(a, b), _) in rels.iter() {
            prop_assert!(!(rels.is_provider(a, b) && rels.is_provider(b, a)));
        }
    }
}
