//! Property-based tests for the simulator's core invariants.

use proptest::prelude::*;
use quasar_bgpsim::prelude::*;

fn arb_route() -> impl Strategy<Value = Route> {
    (
        proptest::collection::vec(1u32..50, 0..6),
        0u32..200,
        proptest::option::of(0u32..20),
        0u8..3,
        (1u32..50, 0u16..4),
        prop::bool::ANY,
        0u32..10,
    )
        .prop_map(|(path, lp, med, origin, from, ibgp, igp)| Route {
            prefix: Prefix::new(0x0A000000, 8),
            as_path: AsPath::from_u32s(&path),
            local_pref: lp,
            med,
            origin: Origin::from_wire(origin),
            from_router: Some(RouterId::new(Asn(from.0), from.1)),
            from_asn: Some(Asn(from.0)),
            learned: if ibgp {
                LearnedVia::Ibgp
            } else {
                LearnedVia::Ebgp
            },
            igp_cost: igp,
            communities: Vec::new(),
            originator: None,
        })
}

/// Total preference order the decision process must respect, expressed as a
/// sortable key (lower = better). Mirrors the step sequence independently of
/// the elimination implementation.
fn rank(r: &Route) -> impl Ord {
    (
        u8::from(r.learned != LearnedVia::Local),
        std::cmp::Reverse(r.local_pref),
        r.as_path.len(),
        r.origin,
        r.med_value(),
        u8::from(r.learned == LearnedVia::Ibgp),
        r.igp_cost,
        r.from_router,
    )
}

proptest! {
    /// The winner must minimize the lexicographic preference key.
    #[test]
    fn decision_winner_is_rank_minimal(routes in proptest::collection::vec(arb_route(), 1..12)) {
        let out = decide(&routes, &DecisionConfig::default());
        let best = out.best.unwrap();
        let min = routes.iter().map(rank).min().unwrap();
        prop_assert!(rank(&routes[best]) == min);
    }

    /// Exactly one candidate survives; all others carry an elimination step.
    #[test]
    fn decision_eliminates_all_but_one(routes in proptest::collection::vec(arb_route(), 1..12)) {
        let out = decide(&routes, &DecisionConfig::default());
        let winners = out.eliminated_at.iter().filter(|e| e.is_none()).count();
        prop_assert_eq!(winners, 1);
        prop_assert_eq!(out.eliminated_at.len(), routes.len());
    }

    /// The chosen best route's *value* is invariant under candidate
    /// permutation (indices may differ).
    #[test]
    fn decision_is_order_invariant(
        routes in proptest::collection::vec(arb_route(), 1..10),
        seed in 0u64..1000,
    ) {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut shuffled = routes.clone();
        shuffled.shuffle(&mut rng);
        let a = decide(&routes, &DecisionConfig::default());
        let b = decide(&shuffled, &DecisionConfig::default());
        prop_assert_eq!(&routes[a.best.unwrap()], &shuffled[b.best.unwrap()]);
    }

    /// Elimination steps are monotone: no candidate can be eliminated at a
    /// step *later* than the step at which some surviving candidate would
    /// have lost to it (sanity: winner beats every candidate at or before
    /// its elimination step).
    #[test]
    fn eliminated_candidates_never_beat_winner(routes in proptest::collection::vec(arb_route(), 2..10)) {
        let out = decide(&routes, &DecisionConfig::default());
        let w = out.best.unwrap();
        for (i, e) in out.eliminated_at.iter().enumerate() {
            if e.is_some() {
                prop_assert!(rank(&routes[i]) >= rank(&routes[w]));
            }
        }
    }

    /// Per-neighbor MED never eliminates a route that is the unique route
    /// from its neighbor AS.
    #[test]
    fn per_neighbor_med_only_within_groups(routes in proptest::collection::vec(arb_route(), 1..10)) {
        let cfg = DecisionConfig { med_mode: MedMode::PerNeighbor };
        let out = decide(&routes, &cfg);
        for (i, e) in out.eliminated_at.iter().enumerate() {
            if *e == Some(Step::Med) {
                let n = routes[i].neighbor_for_med();
                let better_same_neighbor = routes.iter().enumerate().any(|(j, r)| {
                    j != i && r.neighbor_for_med() == n && r.med_value() < routes[i].med_value()
                });
                prop_assert!(better_same_neighbor);
            }
        }
    }

    /// strip_prepending is idempotent and never lengthens a path.
    #[test]
    fn strip_prepending_idempotent(path in proptest::collection::vec(1u32..20, 0..12)) {
        let p = AsPath::from_u32s(&path);
        let s = p.strip_prepending();
        prop_assert!(s.len() <= p.len());
        prop_assert_eq!(s.strip_prepending(), s);
    }

    /// prepend adds exactly one hop at the head and suffix() inverts it.
    #[test]
    fn prepend_then_suffix_roundtrip(path in proptest::collection::vec(1u32..20, 0..10), head in 100u32..200) {
        let p = AsPath::from_u32s(&path);
        let q = p.prepend(Asn(head));
        prop_assert_eq!(q.len(), p.len() + 1);
        prop_assert_eq!(q.head(), Some(Asn(head)));
        prop_assert_eq!(q.suffix(p.len()), p);
    }

    /// Every suffix of a path is a suffix of it.
    #[test]
    fn all_suffixes_are_suffixes(path in proptest::collection::vec(1u32..20, 1..10)) {
        let p = AsPath::from_u32s(&path);
        for n in 0..=p.len() {
            prop_assert!(p.suffix(n).is_suffix_of(&p));
        }
    }

    /// IGP costs obey the triangle inequality over direct edges and are
    /// symmetric.
    #[test]
    fn igp_triangle_and_symmetry(
        edges in proptest::collection::vec((0u16..8, 0u16..8, 1u32..20), 1..20)
    ) {
        let mut t = IgpTopology::new();
        let rid = |i: u16| RouterId::new(Asn(65000), i);
        for &(a, b, w) in &edges {
            if a != b {
                t.add_link(rid(a), rid(b), w);
            }
        }
        for &ra in t.routers() {
            let costs = t.costs_from(ra);
            for &(a, b, w) in &edges {
                if a == b { continue; }
                if let (Some(&ca), Some(&cb)) = (costs.get(&rid(a)), costs.get(&rid(b))) {
                    prop_assert!(cb <= ca.saturating_add(w), "triangle violated");
                    prop_assert!(ca <= cb.saturating_add(w), "triangle violated");
                }
            }
            for (&rb, &c) in costs.iter() {
                prop_assert_eq!(t.cost(rb, ra), Some(c), "asymmetric cost");
            }
        }
    }

    /// On a random tree every router converges to the unique tree path
    /// towards the origin.
    #[test]
    fn tree_converges_to_tree_paths(
        n in 2usize..30,
        seed in 0u64..500,
    ) {
        use rand::Rng;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut net = Network::new(DecisionConfig::default());
        let rid = |i: usize| RouterId::new(Asn(i as u32 + 1), 0);
        net.add_router(rid(0));
        // parent[i] < i: random recursive tree.
        let mut parent = vec![0usize; n];
        for (i, p) in parent.iter_mut().enumerate().skip(1) {
            *p = rng.gen_range(0..i);
            net.add_router(rid(i));
            net.add_session(rid(i), rid(*p), SessionKind::Ebgp).unwrap();
        }
        let prefix = Prefix::for_origin(Asn(1));
        let res = net.simulate(prefix, &[rid(0)]).unwrap();
        for i in 1..n {
            // Expected AS path: walk parents to the root.
            let mut expect = Vec::new();
            let mut cur = parent[i];
            loop {
                expect.push(cur as u32 + 1);
                if cur == 0 { break; }
                cur = parent[cur];
            }
            let best = res.best_route(rid(i)).unwrap();
            let expect_asns: Vec<Asn> = expect.iter().map(|&a| Asn(a)).collect();
            prop_assert_eq!(best.as_path.as_slice(), expect_asns.as_slice());
        }
    }

    /// Simulation is deterministic: same inputs, same RIBs.
    #[test]
    fn simulation_is_deterministic(
        n in 2usize..15,
        extra in proptest::collection::vec((0u16..15, 0u16..15), 0..10),
        seed in 0u64..100,
    ) {
        use rand::Rng;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut net = Network::new(DecisionConfig::default());
        let rid = |i: usize| RouterId::new(Asn(i as u32 + 1), 0);
        for i in 0..n {
            net.add_router(rid(i));
        }
        for i in 1..n {
            let p = rng.gen_range(0..i);
            let _ = net.add_session(rid(i), rid(p), SessionKind::Ebgp);
        }
        for &(a, b) in &extra {
            let (a, b) = (a as usize % n, b as usize % n);
            if a != b {
                let _ = net.add_session(rid(a), rid(b), SessionKind::Ebgp);
            }
        }
        let prefix = Prefix::for_origin(Asn(1));
        let r1 = net.simulate(prefix, &[rid(0)]).unwrap();
        let r2 = net.simulate(prefix, &[rid(0)]).unwrap();
        for i in 0..n {
            prop_assert_eq!(r1.best_route(rid(i)), r2.best_route(rid(i)));
        }
        // And best paths never contain the router's own AS (loop freedom).
        for rib in r1.ribs() {
            if let Some(b) = rib.best() {
                prop_assert!(!b.as_path.contains(rib.router.asn()));
            }
        }
    }
}

/// A refinement-shaped network: `ases` ASes of one or two quasi-routers
/// each, never joined to each other, a random eBGP tree over the routers
/// plus `extra` chords. AS1 originates the prefix.
fn quasi_router_network(ases: u32, extra: &[(u16, u16)], seed: u64) -> (Network, Vec<RouterId>) {
    use rand::Rng;
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut net = Network::new(DecisionConfig::default());
    let mut routers = Vec::new();
    for a in 1..=ases {
        for i in 0..rng.gen_range(1..=2u16) {
            let r = RouterId::new(Asn(a), i);
            net.add_router(r);
            routers.push(r);
        }
    }
    let link = |net: &mut Network, x: RouterId, y: RouterId| {
        if x.asn() != y.asn() && !net.has_session(x, y) {
            net.add_session(x, y, SessionKind::Ebgp).unwrap();
        }
    };
    for i in 1..routers.len() {
        let j = rng.gen_range(0..i);
        link(&mut net, routers[i], routers[j]);
    }
    for &(a, b) in extra {
        let (x, y) = (
            routers[a as usize % routers.len()],
            routers[b as usize % routers.len()],
        );
        link(&mut net, x, y);
    }
    (net, routers)
}

/// Applies one refinement-style policy edit `(kind, a, b)` for `prefix`
/// and returns the directed sessions it re-policied:
/// * kind 0 — a MED ranking at router `a` (peers picked by the bits of
///   `b` get MED 0, the rest 10), on every `peer -> a` import;
/// * kind 1 — a shorter-path floor of `b % 4` on every `peer -> a`
///   export (0 removes the floor);
/// * kind 2 — deleting the shorter-path filters on one `a -> peer`
///   export.
fn edit(
    net: &mut Network,
    routers: &[RouterId],
    prefix: Prefix,
    (kind, a, b): (u8, u16, u16),
) -> Vec<(RouterId, RouterId)> {
    let q = routers[a as usize % routers.len()];
    let peers = net.peers_of(q);
    let mut changed = Vec::new();
    match kind {
        0 => {
            for (j, &peer) in peers.iter().enumerate() {
                let policy = net.import_policy_mut(q, peer).unwrap();
                policy.remove_rules(|r| {
                    r.matcher.prefix == Some(prefix) && matches!(r.action, Action::SetMed(_))
                });
                let med = if (b >> (j % 16)) & 1 == 1 { 0 } else { 10 };
                policy.push(PolicyRule::new(
                    RouteMatch::prefix(prefix),
                    Action::SetMed(med),
                ));
                changed.push((peer, q));
            }
        }
        1 => {
            let floor = usize::from(b % 4);
            for &peer in &peers {
                let policy = net.export_policy_mut(peer, q).unwrap();
                policy.remove_rules(|r| {
                    r.matcher.prefix == Some(prefix) && r.matcher.path_shorter_than.is_some()
                });
                if floor > 0 {
                    policy.push(PolicyRule::new(
                        RouteMatch {
                            prefix: Some(prefix),
                            path_shorter_than: Some(floor),
                            ..RouteMatch::any()
                        },
                        Action::Deny,
                    ));
                }
                changed.push((peer, q));
            }
        }
        _ => {
            if let Some(&peer) = peers.get(b as usize % peers.len().max(1)) {
                let policy = net.export_policy_mut(q, peer).unwrap();
                policy.remove_rules(|r| {
                    r.action == Action::Deny && r.matcher.path_shorter_than.is_some()
                });
                changed.push((q, peer));
            }
        }
    }
    changed
}

proptest! {
    /// Warm start: after each MED or shorter-path-filter edit, a warm
    /// re-simulation from the previous steady state equals a cold
    /// simulation of the edited network in every router's candidates and
    /// best route.
    #[test]
    fn warm_resimulation_equals_cold(
        ases in 3u32..12,
        extra in proptest::collection::vec((0u16..64, 0u16..64), 0..24),
        edits in proptest::collection::vec((0u8..3, 0u16..64, 0u16..64), 1..8),
        seed in 0u64..200,
    ) {
        use quasar_bgpsim::engine::SimScratch;
        let (mut net, routers) = quasi_router_network(ases, &extra, seed);
        let prefix = Prefix::for_origin(Asn(1));
        let origins = net.routers_of(Asn(1));
        let mut scratch = SimScratch::new();
        let mut res = net.simulate_kept(prefix, &origins, &mut scratch).unwrap();
        for &e in &edits {
            let changed = edit(&mut net, &routers, prefix, e);
            res = net.resimulate(res, &origins, &changed, &mut scratch).unwrap();
            prop_assert!(res.stats.warm);
            let cold = net.simulate(prefix, &origins).unwrap();
            prop_assert_eq!(res.ribs().count(), cold.ribs().count());
            for (w, c) in res.ribs().zip(cold.ribs()) {
                prop_assert_eq!(w.router, c.router);
                prop_assert_eq!(&w.candidates, &c.candidates);
                prop_assert_eq!(w.best(), c.best());
            }
        }
    }
}
