//! Import/export routing policies.
//!
//! The paper is deliberately agnostic about policy *semantics*: its
//! refinement heuristic only ever installs two kinds of rule — a per-prefix
//! egress **filter** at an announcing neighbor, and a per-prefix **MED
//! ranking** at the receiving quasi-router (§4.6). The relationship-based
//! baseline of §3.3 additionally needs local-pref classes and valley-free
//! export scoping. This module provides a small rule language covering all
//! of these: an ordered list of [`PolicyRule`]s, each a [`RouteMatch`] plus
//! an [`Action`], evaluated first-match-modifies, with terminal
//! accept/deny.

use crate::aspath::AsPathPattern;
use crate::route::Route;
use crate::types::{Asn, Prefix};
use serde::{Deserialize, Serialize};
use std::sync::{Arc, OnceLock};

/// Predicate over a route. All present fields must match (conjunction);
/// absent fields match anything.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RouteMatch {
    /// Exact destination prefix.
    pub prefix: Option<Prefix>,
    /// AS the route was learned from (import) / the first AS of the path.
    pub from_asn: Option<Asn>,
    /// Origin AS of the route's path (its last element). Lets the Gao
    /// baseline scope rules to routes of a given origin.
    pub origin_asn: Option<Asn>,
    /// Exact AS-path-length requirement — the refinement heuristic filters
    /// "routes with shorter AS-paths than the route we are looking for"
    /// (§4.6), expressed as a max-length deny.
    pub path_shorter_than: Option<usize>,
    /// Matches routes whose local-pref is strictly below this value. Lets
    /// relationship policies express the valley-free export rule ("only
    /// customer routes leave towards peers/providers") as a deny on
    /// lower-preference classes.
    pub local_pref_below: Option<u32>,
    /// Matches routes carrying this RFC 1997 community.
    pub has_community: Option<u32>,
    /// Matches routes whose AS-path matches this pattern (router-style
    /// as-path access list, see [`AsPathPattern`]).
    pub path_pattern: Option<AsPathPattern>,
}

impl RouteMatch {
    /// Match any route.
    pub fn any() -> Self {
        Self::default()
    }

    /// Match routes for an exact prefix.
    pub fn prefix(prefix: Prefix) -> Self {
        RouteMatch {
            prefix: Some(prefix),
            ..Self::default()
        }
    }

    /// True if `route` satisfies every present predicate.
    pub fn matches(&self, route: &Route) -> bool {
        if let Some(p) = self.prefix {
            if route.prefix != p {
                return false;
            }
        }
        if let Some(a) = self.from_asn {
            if route.from_asn != Some(a) {
                return false;
            }
        }
        if let Some(o) = self.origin_asn {
            if route.as_path.origin() != Some(o) {
                return false;
            }
        }
        if let Some(n) = self.path_shorter_than {
            if route.as_path.len() >= n {
                return false;
            }
        }
        if let Some(lp) = self.local_pref_below {
            if route.local_pref >= lp {
                return false;
            }
        }
        if let Some(c) = self.has_community {
            if !route.has_community(c) {
                return false;
            }
        }
        if let Some(pat) = &self.path_pattern {
            if !pat.matches(&route.as_path) {
                return false;
            }
        }
        true
    }
}

/// What to do with a matching route.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Action {
    /// Drop the route; evaluation stops.
    Deny,
    /// Accept the route as-is; evaluation stops.
    Accept,
    /// Set local-preference and continue evaluating later rules.
    SetLocalPref(u32),
    /// Set MED and continue evaluating later rules.
    SetMed(u32),
    /// Attach an RFC 1997 community and continue.
    AddCommunity(u32),
    /// Strip an RFC 1997 community and continue.
    RemoveCommunity(u32),
}

/// One policy rule.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PolicyRule {
    /// Which routes the rule applies to.
    pub matcher: RouteMatch,
    /// What happens to them.
    pub action: Action,
}

impl PolicyRule {
    /// Convenience constructor.
    pub fn new(matcher: RouteMatch, action: Action) -> Self {
        PolicyRule { matcher, action }
    }
}

/// An ordered rule chain applied on import or export.
///
/// Evaluation: rules are scanned in order; a matching `Deny` drops the
/// route, a matching `Accept` stops with the route as modified so far, and
/// matching `Set*` actions modify the route and continue. A route reaching
/// the end of the chain is accepted.
///
/// The rule chain is behind an [`Arc`]: cloning a policy (and anything
/// containing one, like a whole network snapshot) is a refcount bump, and
/// the chain is deep-copied only when a clone actually mutates it. The
/// serialized form is a plain `rules` list (see `arc_rules` for the
/// element forms).
///
/// A rule naming a prefix can match only routes for that prefix, and
/// refinement leaves most chains holding rules for nearly every trained
/// prefix. So evaluation visits only the prefix-less rules and the
/// route's own prefix's rules, in chain order, through a prefix index
/// the shared chain builds on its first evaluation. Every mutation drops
/// the index; a clone shares it until the clone mutates.
#[derive(Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Policy {
    #[serde(with = "arc_rules")]
    rules: Arc<Chain>,
}

/// A rule list plus its lazily built [`PrefixIndex`].
#[derive(Default)]
struct Chain {
    list: Vec<PolicyRule>,
    index: OnceLock<PrefixIndex>,
}

impl Chain {
    fn new(list: Vec<PolicyRule>) -> Self {
        Chain {
            list,
            index: OnceLock::new(),
        }
    }
}

/// Copy-on-write clones start without an index: the mutation that made
/// the copy invalidates it anyway.
impl Clone for Chain {
    fn clone(&self) -> Self {
        Chain::new(self.list.clone())
    }
}

/// Chains compare by their rules; the index is derived state.
impl PartialEq for Chain {
    fn eq(&self, other: &Self) -> bool {
        self.list == other.list
    }
}

impl Eq for Chain {}

/// Every rule's `(prefix, position)`, sorted, so the prefix-less rules
/// (`None`) come first and each prefix's rules form one run in chain
/// order. The key is stored inline so a lookup reads no rule.
struct PrefixIndex(Box<[(Option<Prefix>, u32)]>);

impl PrefixIndex {
    #[allow(clippy::expect_used)] // 2^32 rules of ~100 bytes cannot fit in memory
    fn build(rules: &[PolicyRule]) -> Self {
        let mut entries: Box<[(Option<Prefix>, u32)]> = rules
            .iter()
            .enumerate()
            .map(|(i, r)| {
                let pos = u32::try_from(i).expect("a policy chain holds fewer than 2^32 rules");
                (r.matcher.prefix, pos)
            })
            .collect();
        entries.sort_unstable();
        PrefixIndex(entries)
    }

    /// Positions of the rules that can match a route for `prefix`, in
    /// chain order: the prefix-less run merged with `prefix`'s run.
    fn positions(&self, prefix: Prefix) -> impl Iterator<Item = usize> + '_ {
        let e = &self.0;
        let generic = e.partition_point(|(p, _)| p.is_none());
        let lo = e.partition_point(|(p, _)| *p < Some(prefix));
        let hi = lo + e[lo..].partition_point(|(p, _)| *p == Some(prefix));
        let (mut a, mut b) = (&e[..generic], &e[lo..hi]);
        std::iter::from_fn(move || {
            let next = match (a.first(), b.first()) {
                (Some(x), Some(y)) if y.1 < x.1 => {
                    b = &b[1..];
                    y.1
                }
                (Some(x), _) => {
                    a = &a[1..];
                    x.1
                }
                (None, Some(y)) => {
                    b = &b[1..];
                    y.1
                }
                (None, None) => return None,
            };
            Some(next as usize)
        })
    }
}

impl std::fmt::Debug for Policy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Policy")
            .field("rules", &self.rules.list)
            .finish()
    }
}

/// Serializes the shared rule chain as a list with one element per rule.
///
/// The two shapes §4.6 refinement installs, nearly every rule of a
/// trained model, are written as 4-tuples:
///
/// * `[base, len, "m", med]`: matcher exactly `{prefix}`, `SetMed(med)`;
/// * `[base, len, "f", n]`: matcher exactly `{prefix, path_shorter_than:
///   n}`, `Deny`.
///
/// Every other rule keeps the object form of [`PolicyRule`]. The reader
/// takes either form for each element, so a chain written all in objects
/// loads into the same rules and re-saves with its §4.6 rules as tuples.
mod arc_rules {
    use super::{Action, Chain, PolicyRule, RouteMatch};
    use crate::types::Prefix;
    use serde::{Deserialize, Deserializer, Error, Serialize, Serializer};
    use std::sync::Arc;

    /// Tag of a `SetMed` ranking tuple.
    const MED: &str = "m";
    /// Tag of a shorter-path `Deny` filter tuple.
    const FLOOR: &str = "f";

    /// The tuple a §4.6 rule is written as, or `None` for any other rule.
    fn tuple(rule: &PolicyRule) -> Option<(u32, u8, &'static str, u64)> {
        let RouteMatch {
            prefix: Some(p),
            from_asn: None,
            origin_asn: None,
            path_shorter_than,
            local_pref_below: None,
            has_community: None,
            path_pattern: None,
        } = rule.matcher
        else {
            return None;
        };
        let (tag, value) = match (rule.action, path_shorter_than) {
            (Action::SetMed(med), None) => (MED, u64::from(med)),
            (Action::Deny, Some(n)) => (FLOOR, u64::try_from(n).ok()?),
            _ => return None,
        };
        Some((p.base, p.len, tag, value))
    }

    pub fn serialize(chain: &Arc<Chain>, s: &mut Serializer) {
        s.begin_seq();
        for rule in &chain.list {
            s.elem();
            match tuple(rule) {
                Some(t) => t.serialize(s),
                None => rule.serialize(s),
            }
        }
        s.end_seq();
    }

    /// Reads one tuple element, checking its arity, tag and ranges.
    fn read_tuple(d: &mut Deserializer<'_>) -> Result<PolicyRule, Error> {
        d.begin_seq()?;
        d.tuple_elem(4, 0)?;
        let base = u32::deserialize(d)?;
        d.tuple_elem(4, 1)?;
        let len = u8::deserialize(d)?;
        d.tuple_elem(4, 2)?;
        let tag = d.string()?;
        d.tuple_elem(4, 3)?;
        let (action, path_shorter_than) = match &*tag {
            MED => (Action::SetMed(u32::deserialize(d)?), None),
            FLOOR => (Action::Deny, Some(usize::deserialize(d)?)),
            other => return Err(Error::msg(format!("unknown policy rule tag `{other}`"))),
        };
        d.end_tuple(4)?;
        let prefix = Prefix::exact(base, len)
            .ok_or_else(|| Error::msg(format!("prefix {base}/{len} is not canonical")))?;
        let matcher = RouteMatch {
            path_shorter_than,
            ..RouteMatch::prefix(prefix)
        };
        Ok(PolicyRule::new(matcher, action))
    }

    pub fn deserialize(d: &mut Deserializer<'_>) -> Result<Arc<Chain>, Error> {
        d.begin_seq()?;
        let mut rules = Vec::new();
        while d.next_elem()? {
            rules.push(if d.peek() == Some(b'[') {
                read_tuple(d)?
            } else {
                PolicyRule::deserialize(d)?
            });
        }
        Ok(Arc::new(Chain::new(rules)))
    }
}

impl Policy {
    /// The empty, accept-everything policy.
    pub fn permit_all() -> Self {
        Self::default()
    }

    /// Builds a policy from rules.
    pub fn new(rules: Vec<PolicyRule>) -> Self {
        Policy {
            rules: Arc::new(Chain::new(rules)),
        }
    }

    /// True if the chain has no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.list.is_empty()
    }

    /// Read access to the rules (used by the refinement heuristic's
    /// filter-deletion pass, §4.6).
    pub fn rules(&self) -> &[PolicyRule] {
        &self.rules.list
    }

    /// The rule list, unshared and with its index dropped, for a mutation.
    fn rules_mut(&mut self) -> &mut Vec<PolicyRule> {
        let chain = Arc::make_mut(&mut self.rules);
        chain.index.take();
        &mut chain.list
    }

    /// Appends a rule at the end of the chain.
    pub fn push(&mut self, rule: PolicyRule) {
        self.rules_mut().push(rule);
    }

    /// Inserts a rule at the front of the chain (highest priority).
    pub fn push_front(&mut self, rule: PolicyRule) {
        self.rules_mut().insert(0, rule);
    }

    /// Removes every rule for which `pred` returns true; returns how many
    /// were removed. Used to delete blocking filters (§4.6, Figure 7).
    /// The chain is only deep-copied when something actually matches.
    pub fn remove_rules(&mut self, pred: impl Fn(&PolicyRule) -> bool) -> usize {
        let matching = self.rules.list.iter().filter(|r| pred(r)).count();
        if matching > 0 {
            self.rules_mut().retain(|r| !pred(r));
        }
        matching
    }

    /// Applies the chain to `route`. Returns the (possibly modified) route,
    /// or `None` if it was denied.
    pub fn apply(&self, route: &Route) -> Option<Route> {
        self.apply_owned(route.clone())
    }

    /// [`Policy::apply`] on a route the caller already owns, so the
    /// simulation's import path runs the chain without a second clone.
    pub(crate) fn apply_owned(&self, mut out: Route) -> Option<Route> {
        let rules = &self.rules.list;
        if rules.is_empty() {
            return Some(out);
        }
        let index = self.rules.index.get_or_init(|| PrefixIndex::build(rules));
        for pos in index.positions(out.prefix) {
            let rule = &rules[pos];
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aspath::AsPath;
    use crate::route::{LearnedVia, Origin};
    use crate::types::RouterId;

    fn route(path: &[u32], prefix: Prefix) -> Route {
        Route {
            prefix,
            as_path: AsPath::from_u32s(path),
            local_pref: 100,
            med: None,
            origin: Origin::Igp,
            from_router: Some(RouterId::new(Asn(path[0]), 0)),
            from_asn: Some(Asn(path[0])),
            learned: LearnedVia::Ebgp,
            igp_cost: 0,
            communities: Vec::new(),
            originator: None,
        }
    }

    fn pfx() -> Prefix {
        Prefix::new(0x0A000000, 8)
    }

    #[test]
    fn empty_policy_accepts_unchanged() {
        let r = route(&[1, 2], pfx());
        assert_eq!(Policy::permit_all().apply(&r), Some(r));
    }

    #[test]
    fn deny_by_prefix() {
        let mut p = Policy::permit_all();
        p.push(PolicyRule::new(RouteMatch::prefix(pfx()), Action::Deny));
        assert_eq!(p.apply(&route(&[1, 2], pfx())), None);
        let other = Prefix::new(0x0B000000, 8);
        assert!(p.apply(&route(&[1, 2], other)).is_some());
    }

    #[test]
    fn set_med_continues_then_accepts() {
        let mut p = Policy::permit_all();
        p.push(PolicyRule::new(
            RouteMatch {
                from_asn: Some(Asn(1)),
                ..RouteMatch::any()
            },
            Action::SetMed(5),
        ));
        p.push(PolicyRule::new(RouteMatch::any(), Action::SetLocalPref(90)));
        let out = p.apply(&route(&[1, 2], pfx())).unwrap();
        assert_eq!(out.med, Some(5));
        assert_eq!(out.local_pref, 90);
    }

    #[test]
    fn accept_short_circuits() {
        let mut p = Policy::permit_all();
        p.push(PolicyRule::new(RouteMatch::any(), Action::Accept));
        p.push(PolicyRule::new(RouteMatch::any(), Action::Deny));
        assert!(p.apply(&route(&[1, 2], pfx())).is_some());
    }

    #[test]
    fn shorter_path_filter_matches_only_shorter() {
        // The refinement heuristic installs "deny routes for p with AS-path
        // shorter than n" at the announcing neighbor.
        let mut p = Policy::permit_all();
        p.push(PolicyRule::new(
            RouteMatch {
                prefix: Some(pfx()),
                path_shorter_than: Some(3),
                ..RouteMatch::any()
            },
            Action::Deny,
        ));
        assert_eq!(p.apply(&route(&[1, 2], pfx())), None); // len 2 < 3: denied
        assert!(p.apply(&route(&[1, 2, 3], pfx())).is_some()); // len 3: kept
    }

    #[test]
    fn origin_asn_match() {
        let m = RouteMatch {
            origin_asn: Some(Asn(2)),
            ..RouteMatch::any()
        };
        assert!(m.matches(&route(&[1, 2], pfx())));
        assert!(!m.matches(&route(&[1, 3], pfx())));
    }

    #[test]
    fn community_match_and_actions() {
        let mut p = Policy::permit_all();
        p.push(PolicyRule::new(RouteMatch::any(), Action::AddCommunity(77)));
        p.push(PolicyRule::new(
            RouteMatch {
                has_community: Some(77),
                ..RouteMatch::any()
            },
            Action::SetLocalPref(55),
        ));
        let out = p.apply(&route(&[1, 2], pfx())).unwrap();
        assert!(out.has_community(77));
        assert_eq!(out.local_pref, 55);

        let mut strip = Policy::permit_all();
        strip.push(PolicyRule::new(
            RouteMatch::any(),
            Action::RemoveCommunity(77),
        ));
        let stripped = strip.apply(&out).unwrap();
        assert!(!stripped.has_community(77));
    }

    #[test]
    fn deny_by_community() {
        let mut p = Policy::permit_all();
        p.push(PolicyRule::new(
            RouteMatch {
                has_community: Some(9),
                ..RouteMatch::any()
            },
            Action::Deny,
        ));
        let mut r = route(&[1, 2], pfx());
        assert!(p.apply(&r).is_some());
        r.add_community(9);
        assert!(p.apply(&r).is_none());
    }

    #[test]
    fn path_pattern_matcher() {
        let mut p = Policy::permit_all();
        p.push(PolicyRule::new(
            RouteMatch {
                path_pattern: AsPathPattern::parse("_2_"),
                ..RouteMatch::any()
            },
            Action::Deny,
        ));
        assert!(p.apply(&route(&[1, 2], pfx())).is_none());
        assert!(p.apply(&route(&[1, 3], pfx())).is_some());
    }

    #[test]
    fn remove_rules_deletes_matching() {
        let mut p = Policy::permit_all();
        p.push(PolicyRule::new(RouteMatch::prefix(pfx()), Action::Deny));
        p.push(PolicyRule::new(RouteMatch::any(), Action::SetMed(1)));
        let removed = p.remove_rules(|r| r.action == Action::Deny);
        assert_eq!(removed, 1);
        assert_eq!(p.rules().len(), 1);
    }
}
