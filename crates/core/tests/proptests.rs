//! Property tests for the model layer: dataset invariants under cleaning
//! and splitting, and the paper's central claim — refinement always drives
//! the training set to an exact RIB-Out reproduction — exercised on random
//! path systems.

use proptest::prelude::*;
use quasar_bgpsim::aspath::AsPath;
use quasar_bgpsim::types::{Asn, Prefix};
use quasar_core::prelude::*;

/// Random observed-route sets over a small AS universe. Paths are random
/// walks without repetition, so they are loop-free by construction —
/// i.e. shaped like real BGP table entries.
fn arb_routes() -> impl Strategy<Value = Vec<ObservedRoute>> {
    proptest::collection::vec(
        (
            0u32..6,                                   // observation point
            proptest::collection::vec(1u32..15, 1..5), // walk
            1u32..15,                                  // origin AS
        ),
        1..25,
    )
    .prop_map(|specs| {
        specs
            .into_iter()
            .map(|(point, mut walk, origin)| {
                walk.dedup();
                walk.retain(|&a| a != origin);
                walk.push(origin);
                // De-duplicate non-adjacent repeats to keep paths loop-free.
                let mut seen = std::collections::BTreeSet::new();
                walk.retain(|&a| seen.insert(a));
                ObservedRoute {
                    point,
                    observer_as: Asn(walk[0]),
                    prefix: Prefix::for_origin(Asn(origin)),
                    as_path: AsPath::from_u32s(&walk),
                }
            })
            .collect()
    })
}

/// Like [`arb_routes`] but over a much wider origin universe, so the
/// prefix count routinely exceeds the single-domain threshold and the
/// sharded schedule's merge + repair phases actually run.
fn arb_wide_routes() -> impl Strategy<Value = Vec<ObservedRoute>> {
    proptest::collection::vec(
        (
            0u32..6,                                   // observation point
            proptest::collection::vec(1u32..20, 1..5), // walk
            20u32..90,                                 // origin AS (one prefix each)
        ),
        20..70,
    )
    .prop_map(|specs| {
        specs
            .into_iter()
            .map(|(point, mut walk, origin)| {
                walk.dedup();
                walk.retain(|&a| a != origin);
                walk.push(origin);
                let mut seen = std::collections::BTreeSet::new();
                walk.retain(|&a| seen.insert(a));
                ObservedRoute {
                    point,
                    observer_as: Asn(walk[0]),
                    prefix: Prefix::for_origin(Asn(origin)),
                    as_path: AsPath::from_u32s(&walk),
                }
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Cleaning is idempotent and never yields loops or prepending.
    #[test]
    fn dataset_cleaning_idempotent(routes in arb_routes()) {
        let d = Dataset::new(routes);
        let d2 = Dataset::new(d.routes().to_vec());
        prop_assert_eq!(&d, &d2);
        for r in d.routes() {
            prop_assert!(!r.as_path.has_loop());
            prop_assert_eq!(r.as_path.strip_prepending(), r.as_path.clone());
        }
    }

    /// Splits partition the routes and never share the split dimension.
    #[test]
    fn splits_partition(routes in arb_routes(), seed in 0u64..100) {
        let d = Dataset::new(routes);
        let (tr, va) = d.split_by_point(0.5, seed);
        prop_assert_eq!(tr.len() + va.len(), d.len());
        let tp: std::collections::BTreeSet<u32> =
            tr.observation_points().into_iter().collect();
        for p in va.observation_points() {
            prop_assert!(!tp.contains(&p));
        }
        let (tr2, va2) = d.split_by_origin(0.5, seed);
        prop_assert_eq!(tr2.len() + va2.len(), d.len());
    }

    /// The headline invariant (§4.6): after refinement, every observed
    /// route of the training data is a RIB-Out match. Holds for *any*
    /// loop-free path system whose paths are realizable one-by-one.
    #[test]
    fn refinement_reproduces_any_consistent_dataset(routes in arb_routes()) {
        let d = Dataset::new(routes);
        prop_assume!(!d.is_empty());
        let graph = d.as_graph();
        let mut model = AsRoutingModel::initial(&graph, &d.prefixes());
        let report = refine(&mut model, &d, &RefineConfig::default()).unwrap();
        prop_assert!(report.converged(), "refinement did not converge");
        let ev = evaluate(&model, &d);
        prop_assert_eq!(ev.counts.rib_out, ev.counts.total);
    }

    /// Refinement is deterministic: same inputs, same model statistics and
    /// same evaluation.
    #[test]
    fn refinement_is_deterministic(routes in arb_routes()) {
        let d = Dataset::new(routes);
        prop_assume!(!d.is_empty());
        let graph = d.as_graph();
        let run = || {
            let mut model = AsRoutingModel::initial(&graph, &d.prefixes());
            refine(&mut model, &d, &RefineConfig::default()).unwrap();
            (model.stats(), evaluate(&model, &d))
        };
        let (s1, e1) = run();
        let (s2, e2) = run();
        prop_assert_eq!(s1, s2);
        prop_assert_eq!(e1, e2);
    }

    /// The batched parallel path converges exactly where the sequential
    /// path converges, with identical models, and per-prefix iteration
    /// counts stay within the paper's §4.6 bound (a small multiple of the
    /// longest observed AS-path).
    #[test]
    fn parallel_refinement_matches_sequential(routes in arb_routes()) {
        let d = Dataset::new(routes);
        prop_assume!(!d.is_empty());
        let graph = d.as_graph();
        let run = |threads: usize| {
            let cfg = RefineConfig { threads, ..RefineConfig::default() };
            let mut model = AsRoutingModel::initial(&graph, &d.prefixes());
            let report = refine(&mut model, &d, &cfg).unwrap();
            (model, report)
        };
        let (m1, r1) = run(1);
        let (m4, r4) = run(4);

        prop_assert_eq!(r1.converged(), r4.converged());
        prop_assert_eq!(m1.to_json().unwrap(), m4.to_json().unwrap());
        if r1.converged() {
            let ev = evaluate(&m4, &d);
            prop_assert_eq!(ev.counts.rib_out, ev.counts.total);
        }

        // §4.6: "perfect RIB-Out matches are achieved after a total number
        // of iterations that is a multiple of the maximum AS-path length."
        let max_len = d.routes().iter().map(|r| r.as_path.len()).max().unwrap_or(1);
        for p in &r4.prefixes {
            prop_assert!(
                p.iterations <= 3 * max_len + 2,
                "prefix {:?} took {} iterations (max path len {})",
                p.prefix, p.iterations, max_len
            );
        }
    }

    /// Sharded refinement is byte-identical to sequential across thread
    /// counts even when the prefix space splits into many refinement
    /// domains (wide origin universe, so runs routinely exceed the
    /// single-domain threshold and exercise the merge + repair phases).
    #[test]
    fn sharded_refinement_matches_sequential_across_threads(routes in arb_wide_routes()) {
        let d = Dataset::new(routes);
        prop_assume!(!d.is_empty());
        let graph = d.as_graph();
        let run = |threads: usize| {
            let cfg = RefineConfig { threads, ..RefineConfig::default() };
            let mut model = AsRoutingModel::initial(&graph, &d.prefixes());
            let report = refine(&mut model, &d, &cfg).unwrap();
            (model.to_json().unwrap(), report)
        };
        let (j1, r1) = run(1);
        for threads in [2usize, 4, 8] {
            let (j, r) = run(threads);
            prop_assert_eq!(&j, &j1, "model differs at {} threads", threads);
            prop_assert_eq!(&r, &r1, "report differs at {} threads", threads);
        }
        if r1.converged() {
            let model = AsRoutingModel::from_json(&j1).unwrap();
            let ev = evaluate(&model, &d);
            prop_assert_eq!(ev.counts.rib_out, ev.counts.total);
        }
    }

    /// Match levels are monotone under refinement: no observed training
    /// route gets *worse* than in the initial model.
    #[test]
    fn refinement_never_hurts_training_matches(routes in arb_routes()) {
        let d = Dataset::new(routes);
        prop_assume!(!d.is_empty());
        let graph = d.as_graph();
        let initial = AsRoutingModel::initial(&graph, &d.prefixes());
        let ev0 = evaluate(&initial, &d);
        let mut model = AsRoutingModel::initial(&graph, &d.prefixes());
        refine(&mut model, &d, &RefineConfig::default()).unwrap();
        let ev1 = evaluate(&model, &d);
        prop_assert!(ev1.counts.rib_out >= ev0.counts.rib_out);
    }
}
