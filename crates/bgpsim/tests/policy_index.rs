//! Differential test of `Policy`'s prefix index: indexed evaluation must
//! answer exactly like a plain first-match scan of the whole chain.
//!
//! Each case runs a random sequence of mutations and evaluations on two
//! policies that start as `Arc`-sharing clones, mirrored by two reference
//! chains that are plain `Vec`s. Chains mix prefix-less and per-prefix
//! rules, all six actions and the `from_asn`, `path_shorter_than` and
//! `has_community` matchers. Every evaluation follows mutations, so an
//! index left stale by `push`, `push_front`, `remove_rules` or by a
//! copy-on-write clone shows up as a differing answer.
//!
//! The same rules also drive a serde round trip: a chain mixing the two
//! §4.6 shapes, written as tuples, with object-form rules must read back
//! in order.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use quasar_bgpsim::prelude::*;

/// Prefixes rules may name; routes also use one no rule names.
const PREFIXES: [Prefix; 3] = [
    Prefix {
        base: 0x0A00_0000,
        len: 8,
    },
    Prefix {
        base: 0x0B00_0000,
        len: 8,
    },
    Prefix {
        base: 0x0A00_0000,
        len: 16,
    },
];

const UNNAMED: Prefix = Prefix {
    base: 0xC000_0000,
    len: 24,
};

/// The rule semantics `Policy` documents, evaluated by scanning every rule.
fn linear_apply(rules: &[PolicyRule], route: &Route) -> Option<Route> {
    let mut out = route.clone();
    for rule in rules {
        if !rule.matcher.matches(&out) {
            continue;
        }
        match rule.action {
            Action::Deny => return None,
            Action::Accept => return Some(out),
            Action::SetLocalPref(lp) => out.local_pref = lp,
            Action::SetMed(m) => out.med = Some(m),
            Action::AddCommunity(c) => out.add_community(c),
            Action::RemoveCommunity(c) => out.remove_community(c),
        }
    }
    Some(out)
}

fn arb_action() -> impl Strategy<Value = Action> {
    prop_oneof![
        1 => Just(Action::Deny),
        1 => Just(Action::Accept),
        2 => (0u32..3).prop_map(|v| Action::SetLocalPref(100 + v)),
        3 => (0u32..3).prop_map(|v| Action::SetMed(v * 10)),
        2 => (1u32..3).prop_map(Action::AddCommunity),
        2 => (1u32..3).prop_map(Action::RemoveCommunity),
    ]
}

fn arb_rule() -> impl Strategy<Value = PolicyRule> {
    (
        0usize..5,
        prop::option::of(1u32..4),
        prop::option::of(1usize..5),
        prop::option::of(1u32..3),
        arb_action(),
    )
        .prop_map(|(p, from, shorter, community, action)| {
            // Two draws in five are prefix-less rules.
            let prefix = p.checked_sub(2).map(|i| PREFIXES[i]);
            PolicyRule::new(
                RouteMatch {
                    prefix,
                    from_asn: from.map(Asn),
                    path_shorter_than: shorter,
                    has_community: community,
                    ..RouteMatch::any()
                },
                action,
            )
        })
}

fn arb_route() -> impl Strategy<Value = Route> {
    (
        0usize..4,
        proptest::collection::vec(1u32..4, 1..5),
        prop::option::of(1u32..3),
    )
        .prop_map(|(p, path, community)| {
            let prefix = PREFIXES.get(p).copied().unwrap_or(UNNAMED);
            let mut route = Route::originate(prefix);
            route.as_path = AsPath::from_u32s(&path);
            route.from_asn = route.as_path.head();
            if let Some(c) = community {
                route.add_community(c);
            }
            route
        })
}

/// One step of a case. `on_b` picks which of the two policies mutates.
#[derive(Debug, Clone)]
enum Op {
    Push {
        on_b: bool,
        rule: PolicyRule,
    },
    PushFront {
        on_b: bool,
        rule: PolicyRule,
    },
    /// Removes the rules naming `PREFIXES[prefix]` (prefix-less ones when
    /// out of range), only the `Deny` ones if `deny_only`.
    Remove {
        on_b: bool,
        prefix: usize,
        deny_only: bool,
    },
    /// Makes `b` a fresh clone of `a`, sharing its chain and index.
    Fork,
    Apply(Route),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (prop::bool::ANY, arb_rule()).prop_map(|(on_b, rule)| Op::Push { on_b, rule }),
        2 => (prop::bool::ANY, arb_rule()).prop_map(|(on_b, rule)| Op::PushFront { on_b, rule }),
        1 => (prop::bool::ANY, 0usize..4, prop::bool::ANY)
            .prop_map(|(on_b, prefix, deny_only)| Op::Remove { on_b, prefix, deny_only }),
        1 => Just(Op::Fork),
        6 => arb_route().prop_map(Op::Apply),
    ]
}

/// A policy under test beside the plain chain it must agree with.
#[derive(Clone)]
struct Pair {
    policy: Policy,
    reference: Vec<PolicyRule>,
}

impl Pair {
    fn check(&self, route: &Route, label: &str) -> Result<(), TestCaseError> {
        let (got, want) = (
            self.policy.apply(route),
            linear_apply(&self.reference, route),
        );
        prop_assert_eq!(
            got,
            want,
            "{label} on {route:?}: indexed {got:?}, linear {want:?}"
        );
        prop_assert_eq!(self.policy.rules(), self.reference.as_slice());
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(500))]

    #[test]
    fn indexed_apply_matches_a_linear_scan(
        initial in proptest::collection::vec(arb_rule(), 0..12),
        ops in proptest::collection::vec(arb_op(), 1..40),
    ) {
        let a = Pair { policy: Policy::new(initial.clone()), reference: initial };
        let mut pairs = [a.clone(), a];
        for op in ops {
            match op {
                Op::Push { on_b, rule } => {
                    let p = &mut pairs[usize::from(on_b)];
                    p.policy.push(rule.clone());
                    p.reference.push(rule);
                }
                Op::PushFront { on_b, rule } => {
                    let p = &mut pairs[usize::from(on_b)];
                    p.policy.push_front(rule.clone());
                    p.reference.insert(0, rule);
                }
                Op::Remove { on_b, prefix, deny_only } => {
                    let p = &mut pairs[usize::from(on_b)];
                    let target = PREFIXES.get(prefix).copied();
                    let pred = |r: &PolicyRule| {
                        r.matcher.prefix == target && (!deny_only || r.action == Action::Deny)
                    };
                    let removed = p.policy.remove_rules(pred);
                    let before = p.reference.len();
                    p.reference.retain(|r| !pred(r));
                    prop_assert_eq!(removed, before - p.reference.len());
                }
                Op::Fork => pairs[1] = pairs[0].clone(),
                Op::Apply(route) => {
                    pairs[0].check(&route, "a")?;
                    pairs[1].check(&route, "b")?;
                }
            }
        }
        // A last pass over every prefix, so each case ends with the index
        // rebuilt after its final mutations.
        for route in PREFIXES.iter().chain([&UNNAMED]).map(|&p| {
            let mut r = Route::originate(p);
            r.as_path = AsPath::from_u32s(&[1, 2]);
            r.from_asn = Some(Asn(1));
            r
        }) {
            pairs[0].check(&route, "a")?;
            pairs[1].check(&route, "b")?;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(500))]

    /// A chain reads back as the rules it was written from, in order,
    /// whichever element form each rule takes, and re-serializes to the
    /// same text.
    #[test]
    fn serde_round_trips_every_chain(rules in proptest::collection::vec(arb_rule(), 0..16)) {
        let policy = Policy::new(rules.clone());
        let json = serde_json::to_string(&policy).expect("policy serializes");
        let back: Policy = serde_json::from_str(&json).expect("policy reads back");
        prop_assert_eq!(back.rules(), rules.as_slice());
        prop_assert_eq!(serde_json::to_string(&back).expect("re-serializes"), json);
    }
}
