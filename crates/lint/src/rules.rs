//! The audit rules. Every pass walks routers, sessions, and policy
//! chains — never the simulator.

use crate::{Diagnostic, Location, ModelLocation, Report, RuleId, Scanned, Severity};
use quasar_bgpsim::network::{Network, SessionDirectionView, SessionKind};
use quasar_bgpsim::policy::{Action, Policy, PolicyRule, RouteMatch};
use quasar_bgpsim::route::DEFAULT_LOCAL_PREF;
use quasar_bgpsim::types::{Asn, Prefix, RouterId};
use quasar_core::model::AsRoutingModel;
use std::collections::{BTreeMap, BTreeSet};

struct Ctx<'a> {
    model: &'a AsRoutingModel,
    net: &'a Network,
    /// ASes that have at least one quasi-router.
    known_ases: BTreeSet<Asn>,
    /// ASes that originate at least one prefix.
    origin_ases: BTreeSet<Asn>,
}

pub(crate) fn run_all(model: &AsRoutingModel) -> Report {
    let net = model.network();
    let ctx = Ctx {
        model,
        net,
        known_ases: net.routers().iter().map(|r| r.asn()).collect(),
        origin_ases: model.prefixes().values().copied().collect(),
    };
    let mut out = Vec::new();
    let rules_scanned = chain_rules(&ctx, &mut out);
    unreachable_routers(&ctx, &mut out);
    med_contradictions(&ctx, &mut out);
    dispute_cycles(&ctx, &mut out);
    reflector_cycles(&ctx, &mut out);
    coverage_gaps(&ctx, &mut out);
    Report {
        diagnostics: out,
        scanned: Scanned::Model {
            quasi_routers: net.num_routers(),
            sessions: net.num_sessions(),
            prefixes: model.prefixes().len(),
            rules_scanned,
        },
        elapsed_micros: 0,
    }
}

fn session_label(d: &SessionDirectionView<'_>) -> String {
    format!("{} -> {}", d.from, d.to)
}

fn loc_rule(d: &SessionDirectionView<'_>, chain: &str, index: usize) -> ModelLocation {
    ModelLocation {
        session: Some(session_label(d)),
        chain: Some(chain.to_string()),
        rule_index: Some(index),
        ..ModelLocation::default()
    }
}

/// QL0001 / QL0002 / QL0004 / QL0005 — one walk per policy chain.
///
/// Cascade suppression keeps each defect on exactly one rule id:
/// * a dangling reference (QL0001/QL0002) suppresses the dead-filter and
///   shadow checks on the same policy rule;
/// * a dead rule (QL0004) is skipped both as a shadow victim and as a
///   shadower — a rule that never matches can neither be masked in a
///   meaningful way nor mask anything.
///
/// Returns the number of policy rules scanned.
fn chain_rules(ctx: &Ctx<'_>, out: &mut Vec<Diagnostic>) -> usize {
    let mut scanned = 0;
    for d in ctx.net.session_directions() {
        for (chain_name, policy, is_import) in [
            ("export", &d.policies.export, false),
            ("import", &d.policies.import, true),
        ] {
            let rules = policy.rules();
            scanned += rules.len();
            let mut inert = vec![false; rules.len()]; // dangling or dead
            for (i, rule) in rules.iter().enumerate() {
                let m = &rule.matcher;
                if let Some(p) = m.prefix {
                    if !ctx.model.prefixes().contains_key(&p) {
                        inert[i] = true;
                        out.push(Diagnostic {
                            rule: RuleId::DanglingPrefix,
                            severity: Severity::Error,
                            message: format!(
                                "rule matches prefix {p}, which the model does not route"
                            ),
                            location: Location::Model(ModelLocation {
                                prefix: Some(p.to_string()),
                                ..loc_rule(&d, chain_name, i)
                            }),
                        });
                    }
                }
                for (field, asn) in [("from_asn", m.from_asn), ("origin_asn", m.origin_asn)] {
                    if let Some(a) = asn {
                        if !ctx.known_ases.contains(&a) {
                            inert[i] = true;
                            out.push(Diagnostic {
                                rule: RuleId::DanglingAs,
                                severity: Severity::Error,
                                message: format!(
                                    "rule matches {field} {a}, which has no quasi-router"
                                ),
                                location: Location::Model(loc_rule(&d, chain_name, i)),
                            });
                        }
                    }
                }
                if inert[i] {
                    continue; // dangling: don't also call it dead/shadowed
                }
                if let Some(reason) = dead_reason(ctx, &d, is_import, m) {
                    inert[i] = true;
                    out.push(Diagnostic {
                        rule: RuleId::DeadFilter,
                        severity: Severity::Warn,
                        message: reason,
                        location: Location::Model(ModelLocation {
                            prefix: m.prefix.map(|p| p.to_string()),
                            ..loc_rule(&d, chain_name, i)
                        }),
                    });
                }
            }
            for j in 1..rules.len() {
                if inert[j] {
                    continue;
                }
                let shadower = (0..j).find(|&i| {
                    !inert[i] && is_terminal(&rules[i].action) && subsumes(&rules[i], &rules[j])
                });
                if let Some(i) = shadower {
                    out.push(Diagnostic {
                        rule: RuleId::ShadowedRule,
                        severity: Severity::Warn,
                        message: format!(
                            "rule is unreachable: every route it matches is already \
                             terminated by rule {i} ({:?})",
                            rules[i].action
                        ),
                        location: Location::Model(loc_rule(&d, chain_name, j)),
                    });
                }
            }
        }
    }
    scanned
}

/// Why a rule can never match any route on its chain, if so.
fn dead_reason(
    ctx: &Ctx<'_>,
    d: &SessionDirectionView<'_>,
    is_import: bool,
    m: &RouteMatch,
) -> Option<String> {
    if m.path_shorter_than == Some(0) {
        return Some("path_shorter_than 0 matches no route (no path has negative length)".into());
    }
    if is_import {
        if let Some(a) = m.from_asn {
            // On an import chain the only announcer is the session peer.
            if d.kind == SessionKind::Ebgp && a != d.from.asn() {
                return Some(format!(
                    "import chain from {} can only carry routes announced by {}, \
                     but the rule requires from_asn {a}",
                    d.from,
                    d.from.asn(),
                ));
            }
        }
    }
    if let (Some(p), Some(o)) = (m.prefix, m.origin_asn) {
        if let Some(&actual) = ctx.model.prefixes().get(&p) {
            if actual != o {
                return Some(format!(
                    "prefix {p} is originated by {actual}, so requiring origin_asn {o} \
                     matches nothing"
                ));
            }
        }
    }
    None
}

fn is_terminal(a: &Action) -> bool {
    matches!(a, Action::Deny | Action::Accept)
}

/// True when every route matched by `later` is also matched by
/// `earlier` — i.e. `earlier` subsumes `later`. Conservative: pattern
/// matchers are compared syntactically.
fn subsumes(earlier: &PolicyRule, later: &PolicyRule) -> bool {
    let e = &earlier.matcher;
    let l = &later.matcher;
    let opt_eq = |a: &Option<Asn>, b: &Option<Asn>| a.is_none() || a == b;
    if !(e.prefix.is_none() || e.prefix == l.prefix) {
        return false;
    }
    if !opt_eq(&e.from_asn, &l.from_asn) || !opt_eq(&e.origin_asn, &l.origin_asn) {
        return false;
    }
    if let Some(en) = e.path_shorter_than {
        match l.path_shorter_than {
            Some(ln) if ln <= en => {}
            _ => return false,
        }
    }
    if let Some(ev) = e.local_pref_below {
        match l.local_pref_below {
            Some(lv) if lv <= ev => {}
            _ => return false,
        }
    }
    if !(e.has_community.is_none() || e.has_community == l.has_community) {
        return false;
    }
    if !(e.path_pattern.is_none() || e.path_pattern == l.path_pattern) {
        return false;
    }
    true
}

/// QL0003 — a quasi-router with no sessions can never select or forward
/// a route; unless its AS originates a prefix (origin routers announce
/// even in isolation), it is dead weight that refinement should not have
/// produced.
fn unreachable_routers(ctx: &Ctx<'_>, out: &mut Vec<Diagnostic>) {
    for &r in ctx.net.routers() {
        if ctx.net.peers_of(r).is_empty() && !ctx.origin_ases.contains(&r.asn()) {
            out.push(Diagnostic {
                rule: RuleId::UnreachableRouter,
                severity: Severity::Warn,
                message: format!(
                    "quasi-router {r} has no sessions and {} originates no prefix — \
                     no route can ever reach it",
                    r.asn()
                ),
                location: Location::Model(ModelLocation {
                    router: Some(r.to_string()),
                    ..ModelLocation::default()
                }),
            });
        }
    }
}

/// QL0006 — per-prefix MED rankings (§4.6 installs exactly one `SetMed`
/// per (session, prefix), value 0 for the preferred announcer). Checks,
/// per receiving quasi-router and prefix:
/// * duplicated `SetMed` rules for one announcer (**Error** — the later
///   rule silently overrides the earlier, so one of them is a stale
///   leftover);
/// * a ranking that covers some but not all eBGP peers (**Warn** —
///   unranked peers default to "no MED", which the always-compare
///   decision treats as most preferred, inverting the ranking);
/// * a ranking in which no announcer gets the preferred value 0 (**Warn**).
///
/// Catch-all rules (`prefix: None`, e.g. §4.7 generalized defaults) are
/// exempt. Cross-quasi-router consistency inside one AS is deliberately
/// *not* checked: divergent per-router rankings are the paper's route
/// diversity mechanism, not a defect.
fn med_contradictions(ctx: &Ctx<'_>, out: &mut Vec<Diagnostic>) {
    // (receiver, prefix, announcer) -> (rule count, effective MED).
    let mut rank: BTreeMap<(RouterId, Prefix), BTreeMap<RouterId, (usize, u32)>> = BTreeMap::new();
    let mut ebgp_peers: BTreeMap<RouterId, BTreeSet<RouterId>> = BTreeMap::new();
    for d in ctx.net.session_directions() {
        if d.kind != SessionKind::Ebgp {
            continue;
        }
        ebgp_peers.entry(d.to).or_default().insert(d.from);
        for rule in d.policies.import.rules() {
            let Action::SetMed(v) = rule.action else {
                continue;
            };
            let Some(p) = rule.matcher.prefix else {
                continue; // generalized default, exempt
            };
            if !ctx.model.prefixes().contains_key(&p) {
                continue; // already QL0001
            }
            let entry = rank
                .entry((d.to, p))
                .or_default()
                .entry(d.from)
                .or_insert((0, 0));
            entry.0 += 1;
            entry.1 = v; // chain semantics: the last matching SetMed wins
        }
    }
    for ((to, p), by_peer) in &rank {
        for (from, (count, _)) in by_peer {
            if *count >= 2 {
                out.push(Diagnostic {
                    rule: RuleId::MedContradiction,
                    severity: Severity::Error,
                    message: format!(
                        "{count} SetMed rules rank prefix {p} on the import chain from \
                         {from} — duplicated ranking, the later rule silently overrides"
                    ),
                    location: Location::Model(ModelLocation {
                        router: Some(to.to_string()),
                        session: Some(format!("{from} -> {to}")),
                        chain: Some("import".into()),
                        prefix: Some(p.to_string()),
                        ..ModelLocation::default()
                    }),
                });
            }
        }
        let total = ebgp_peers.get(to).map_or(0, |s| s.len());
        if by_peer.len() < total {
            out.push(Diagnostic {
                rule: RuleId::MedContradiction,
                severity: Severity::Warn,
                message: format!(
                    "MED ranking for prefix {p} at {to} covers {} of {total} eBGP peers; \
                     unranked peers announce without MED and win always-compare",
                    by_peer.len()
                ),
                location: Location::Model(ModelLocation {
                    router: Some(to.to_string()),
                    prefix: Some(p.to_string()),
                    ..ModelLocation::default()
                }),
            });
        } else if by_peer.values().all(|&(_, med)| med > 0) {
            out.push(Diagnostic {
                rule: RuleId::MedContradiction,
                severity: Severity::Warn,
                message: format!(
                    "MED ranking for prefix {p} at {to} prefers no announcer \
                     (no session gets MED 0)"
                ),
                location: Location::Model(ModelLocation {
                    router: Some(to.to_string()),
                    prefix: Some(p.to_string()),
                    ..ModelLocation::default()
                }),
            });
        }
    }
}

/// The effective local-pref `at` assigns to routes for `p` announced by
/// one peer: the last unconditional `SetLocalPref` whose prefix scope
/// covers `p`. Conditional rules (any other matcher field set) are
/// skipped — statically we cannot prove they apply.
fn effective_local_pref(import: &Policy, p: Prefix) -> u32 {
    let mut lp = DEFAULT_LOCAL_PREF;
    for rule in import.rules() {
        let m = &rule.matcher;
        let scoped = m.prefix.is_none() || m.prefix == Some(p);
        let unconditional = m.from_asn.is_none()
            && m.origin_asn.is_none()
            && m.path_shorter_than.is_none()
            && m.local_pref_below.is_none()
            && m.has_community.is_none()
            && m.path_pattern.is_none();
        if let Action::SetLocalPref(v) = rule.action {
            if scoped && unconditional {
                lp = v;
            }
        }
    }
    lp
}

/// QL0007 — the per-prefix dispute digraph: an edge `q -> peer` means
/// "q strictly prefers routes for `p` announced by `peer`" (local-pref
/// above every alternative; local-pref dominates the decision process).
/// A cycle is the structural signature of a dispute wheel (BAD GADGET):
/// every router on it prefers the route through the next one, so the
/// simulation may not converge. Warn, not Error: the cycle is necessary
/// but not sufficient for divergence.
fn dispute_cycles(ctx: &Ctx<'_>, out: &mut Vec<Diagnostic>) {
    // Prefixes that appear in any SetLocalPref rule — the only ones whose
    // dispute digraph can differ from the trivial (edgeless) default.
    let mut lp_prefixes: BTreeSet<Prefix> = BTreeSet::new();
    for d in ctx.net.session_directions() {
        for rule in d.policies.import.rules() {
            if matches!(rule.action, Action::SetLocalPref(_)) {
                if let Some(p) = rule.matcher.prefix {
                    if ctx.model.prefixes().contains_key(&p) {
                        lp_prefixes.insert(p);
                    }
                }
            }
        }
    }
    for &p in &lp_prefixes {
        // effective LP per (receiver, announcer) over eBGP sessions.
        let mut prefs: BTreeMap<RouterId, Vec<(RouterId, u32)>> = BTreeMap::new();
        for d in ctx.net.session_directions() {
            if d.kind != SessionKind::Ebgp {
                continue;
            }
            let lp = effective_local_pref(&d.policies.import, p);
            prefs.entry(d.to).or_default().push((d.from, lp));
        }
        let mut edges: BTreeMap<RouterId, Vec<RouterId>> = BTreeMap::new();
        for (q, peers) in &prefs {
            let Some(&max) = peers.iter().map(|(_, lp)| lp).max() else {
                continue;
            };
            let Some(&min) = peers.iter().map(|(_, lp)| lp).min() else {
                continue;
            };
            if max == min {
                continue; // no strict preference, no dispute edge
            }
            edges.insert(
                *q,
                peers
                    .iter()
                    .filter(|&&(_, lp)| lp == max)
                    .map(|&(peer, _)| peer)
                    .collect(),
            );
        }
        if let Some(cycle) = find_cycle(&edges) {
            let path: Vec<String> = cycle.iter().map(|r| r.to_string()).collect();
            out.push(Diagnostic {
                rule: RuleId::DisputeCycle,
                severity: Severity::Warn,
                message: format!(
                    "local-pref dispute cycle for prefix {p}: {} — each router prefers \
                     the route announced by the next; convergence is not guaranteed",
                    path.join(" -> ")
                ),
                location: Location::Model(ModelLocation {
                    prefix: Some(p.to_string()),
                    ..ModelLocation::default()
                }),
            });
        }
    }
}

/// QL0008 — route reflection: the engine enforces ORIGINATOR_ID but not
/// CLUSTER_LIST (documented model gap), so a cycle in the reflector ->
/// client digraph can loop announcements between reflectors forever.
/// Error: such a topology must never be served.
fn reflector_cycles(ctx: &Ctx<'_>, out: &mut Vec<Diagnostic>) {
    let mut edges: BTreeMap<RouterId, Vec<RouterId>> = BTreeMap::new();
    for d in ctx.net.session_directions() {
        if d.kind == SessionKind::Ibgp && d.from_has_client_to {
            edges.entry(d.from).or_default().push(d.to);
        }
    }
    if let Some(cycle) = find_cycle(&edges) {
        let path: Vec<String> = cycle.iter().map(|r| r.to_string()).collect();
        out.push(Diagnostic {
            rule: RuleId::ReflectorCycle,
            severity: Severity::Error,
            message: format!(
                "route-reflection client cycle: {} — CLUSTER_LIST is not modeled, \
                 so reflected announcements can loop",
                path.join(" -> ")
            ),
            location: Location::Model(ModelLocation::default()),
        });
    }
}

/// First cycle found in a digraph via iterative DFS coloring, as the
/// node sequence around the cycle (first node repeated at the end).
fn find_cycle(edges: &BTreeMap<RouterId, Vec<RouterId>>) -> Option<Vec<RouterId>> {
    #[derive(Clone, Copy, PartialEq)]
    enum Color {
        White,
        Gray,
        Black,
    }
    let mut color: BTreeMap<RouterId, Color> = BTreeMap::new();
    for (&node, targets) in edges {
        color.entry(node).or_insert(Color::White);
        for &t in targets {
            color.entry(t).or_insert(Color::White);
        }
    }
    let nodes: Vec<RouterId> = color.keys().copied().collect();
    for &start in &nodes {
        if color[&start] != Color::White {
            continue;
        }
        // Stack of (node, next-edge-index); `path` mirrors the gray chain.
        let mut stack: Vec<(RouterId, usize)> = vec![(start, 0)];
        let mut path: Vec<RouterId> = vec![start];
        color.insert(start, Color::Gray);
        while let Some(&mut (node, ref mut next)) = stack.last_mut() {
            let targets = edges.get(&node).map(Vec::as_slice).unwrap_or(&[]);
            if *next < targets.len() {
                let t = targets[*next];
                *next += 1;
                match color.get(&t).copied().unwrap_or(Color::White) {
                    Color::Gray => {
                        let Some(pos) = path.iter().position(|&n| n == t) else {
                            continue; // unreachable: gray nodes are on the path
                        };
                        let mut cycle: Vec<RouterId> = path[pos..].to_vec();
                        cycle.push(t);
                        return Some(cycle);
                    }
                    Color::White => {
                        color.insert(t, Color::Gray);
                        stack.push((t, 0));
                        path.push(t);
                    }
                    Color::Black => {}
                }
            } else {
                color.insert(node, Color::Black);
                stack.pop();
                path.pop();
            }
        }
    }
    None
}

/// True when every route for `p` is guaranteed to be dropped by this
/// chain: the first rule whose matcher provably covers all routes of `p`
/// is a `Deny`. A conditional `Accept` that *might* match keeps the
/// chain open (we only close an edge when certain).
fn unconditionally_denies(policy: &Policy, p: Prefix) -> bool {
    for rule in policy.rules() {
        let m = &rule.matcher;
        let scoped = m.prefix.is_none() || m.prefix == Some(p);
        if !scoped {
            continue;
        }
        let unconditional = m.from_asn.is_none()
            && m.origin_asn.is_none()
            && m.path_shorter_than.is_none()
            && m.local_pref_below.is_none()
            && m.has_community.is_none()
            && m.path_pattern.is_none();
        match rule.action {
            Action::Deny if unconditional => return true,
            Action::Accept => return false, // might (or must) accept
            _ => {}
        }
    }
    false
}

/// QL0009 — a prefix whose origin AS cannot export it anywhere: every
/// egress is unconditionally denied (or the origin has no sessions at
/// all). Advisory (**Info**): the model is relationship-agnostic, so a
/// deliberate blackhole (e.g. a depeered stub) looks identical.
fn coverage_gaps(ctx: &Ctx<'_>, out: &mut Vec<Diagnostic>) {
    if ctx.known_ases.len() < 2 {
        return; // a single-AS model has no egress to audit
    }
    // Fast path: per direction, which prefixes are unconditionally denied
    // (or all of them). Prefixes untouched by any deny are covered iff
    // the origin has any eBGP session.
    struct Dir {
        from: RouterId,
        to: RouterId,
        denies_all: bool,
        denied: BTreeSet<Prefix>,
    }
    let mut dirs: Vec<Dir> = Vec::new();
    let mut affected: BTreeSet<Prefix> = BTreeSet::new();
    let mut any_deny_all = false;
    for d in ctx.net.session_directions() {
        let mut candidates: BTreeSet<Prefix> = BTreeSet::new();
        let mut saw_any_deny = false;
        for chain in [&d.policies.export, &d.policies.import] {
            for rule in chain.rules() {
                if rule.action == Action::Deny {
                    match rule.matcher.prefix {
                        Some(p) => {
                            if ctx.model.prefixes().contains_key(&p) {
                                candidates.insert(p);
                            }
                        }
                        None => saw_any_deny = true,
                    }
                }
            }
        }
        if saw_any_deny {
            // A prefix-less deny can close this edge for every prefix.
            let denies_all = unconditionally_denies_any(&d.policies.export)
                || unconditionally_denies_any(&d.policies.import);
            if denies_all {
                any_deny_all = true;
                dirs.push(Dir {
                    from: d.from,
                    to: d.to,
                    denies_all: true,
                    denied: BTreeSet::new(),
                });
                continue;
            }
        }
        let denied: BTreeSet<Prefix> = candidates
            .into_iter()
            .filter(|&p| {
                unconditionally_denies(&d.policies.export, p)
                    || unconditionally_denies(&d.policies.import, p)
            })
            .collect();
        if !denied.is_empty() {
            affected.extend(denied.iter().copied());
            dirs.push(Dir {
                from: d.from,
                to: d.to,
                denies_all: false,
                denied,
            });
        }
    }
    for (&p, &origin) in ctx.model.prefixes() {
        let origin_routers = ctx.net.routers_of(origin);
        let needs_bfs = any_deny_all || affected.contains(&p);
        if !needs_bfs {
            // No deny anywhere touches p: covered iff some origin router
            // has a session leaving the AS.
            let has_egress = origin_routers
                .iter()
                .any(|&r| ctx.net.peers_of(r).iter().any(|peer| peer.asn() != origin));
            if !has_egress {
                out.push(gap(p, origin));
            }
            continue;
        }
        // BFS over open edges from every origin router.
        let closed: BTreeSet<(RouterId, RouterId)> = dirs
            .iter()
            .filter(|dir| dir.denies_all || dir.denied.contains(&p))
            .map(|dir| (dir.from, dir.to))
            .collect();
        let mut seen: BTreeSet<RouterId> = origin_routers.iter().copied().collect();
        let mut queue: Vec<RouterId> = origin_routers.clone();
        let mut escaped = false;
        'bfs: while let Some(r) = queue.pop() {
            for peer in ctx.net.peers_of(r) {
                if closed.contains(&(r, peer)) || seen.contains(&peer) {
                    continue;
                }
                if peer.asn() != origin {
                    escaped = true;
                    break 'bfs;
                }
                seen.insert(peer);
                queue.push(peer);
            }
        }
        if !escaped {
            out.push(gap(p, origin));
        }
    }
}

fn unconditionally_denies_any(policy: &Policy) -> bool {
    for rule in policy.rules() {
        let m = &rule.matcher;
        let unconditional = m.prefix.is_none()
            && m.from_asn.is_none()
            && m.origin_asn.is_none()
            && m.path_shorter_than.is_none()
            && m.local_pref_below.is_none()
            && m.has_community.is_none()
            && m.path_pattern.is_none();
        match rule.action {
            Action::Deny if unconditional => return true,
            Action::Accept => return false,
            _ => {}
        }
    }
    false
}

fn gap(p: Prefix, origin: Asn) -> Diagnostic {
    Diagnostic {
        rule: RuleId::CoverageGap,
        severity: Severity::Info,
        message: format!(
            "prefix {p} cannot leave its origin {origin}: every egress is denied or absent"
        ),
        location: Location::Model(ModelLocation {
            prefix: Some(p.to_string()),
            ..ModelLocation::default()
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rule(m: RouteMatch, a: Action) -> PolicyRule {
        PolicyRule::new(m, a)
    }

    #[test]
    fn subsumption_is_field_wise() {
        let deny_p = rule(RouteMatch::prefix(Prefix::for_origin(Asn(9))), Action::Deny);
        let deny_p_short = rule(
            RouteMatch {
                path_shorter_than: Some(3),
                ..RouteMatch::prefix(Prefix::for_origin(Asn(9)))
            },
            Action::Deny,
        );
        // The broad rule subsumes the narrow one, not vice versa.
        assert!(subsumes(&deny_p, &deny_p_short));
        assert!(!subsumes(&deny_p_short, &deny_p));
        // Identical matchers subsume each other.
        assert!(subsumes(&deny_p, &deny_p.clone()));
        // Different prefixes never subsume.
        let deny_q = rule(RouteMatch::prefix(Prefix::for_origin(Asn(8))), Action::Deny);
        assert!(!subsumes(&deny_p, &deny_q));
        // path_shorter_than: larger bound subsumes smaller.
        let short2 = rule(
            RouteMatch {
                path_shorter_than: Some(2),
                ..RouteMatch::any()
            },
            Action::Deny,
        );
        let short5 = rule(
            RouteMatch {
                path_shorter_than: Some(5),
                ..RouteMatch::any()
            },
            Action::Deny,
        );
        assert!(subsumes(&short5, &short2));
        assert!(!subsumes(&short2, &short5));
    }

    #[test]
    fn cycle_detection_finds_two_cycle_and_ignores_dags() {
        let r = |n: u32| RouterId::new(Asn(n), 0);
        let mut dag: BTreeMap<RouterId, Vec<RouterId>> = BTreeMap::new();
        dag.insert(r(1), vec![r(2), r(3)]);
        dag.insert(r(2), vec![r(3)]);
        assert!(find_cycle(&dag).is_none());
        let mut cyc = dag.clone();
        cyc.insert(r(3), vec![r(1)]);
        let cycle = find_cycle(&cyc).expect("cycle exists");
        assert!(cycle.len() >= 3);
        assert_eq!(cycle.first(), cycle.last());
    }

    #[test]
    fn unconditional_deny_respects_accept_before() {
        let p = Prefix::for_origin(Asn(9));
        let mut policy = Policy::permit_all();
        policy.push(rule(RouteMatch::prefix(p), Action::Deny));
        assert!(unconditionally_denies(&policy, p));
        assert!(!unconditionally_denies(&policy, Prefix::for_origin(Asn(8))));
        // An Accept that might match first keeps the chain open.
        let mut open = Policy::permit_all();
        open.push(rule(RouteMatch::any(), Action::Accept));
        open.push(rule(RouteMatch::prefix(p), Action::Deny));
        assert!(!unconditionally_denies(&open, p));
        // A conditional deny is not a guarantee.
        let mut cond = Policy::permit_all();
        cond.push(rule(
            RouteMatch {
                path_shorter_than: Some(4),
                ..RouteMatch::prefix(p)
            },
            Action::Deny,
        ));
        assert!(!unconditionally_denies(&cond, p));
    }

    #[test]
    fn effective_local_pref_takes_last_unconditional_match() {
        let p = Prefix::for_origin(Asn(9));
        let mut policy = Policy::permit_all();
        assert_eq!(effective_local_pref(&policy, p), DEFAULT_LOCAL_PREF);
        policy.push(rule(RouteMatch::any(), Action::SetLocalPref(80)));
        policy.push(rule(RouteMatch::prefix(p), Action::SetLocalPref(200)));
        assert_eq!(effective_local_pref(&policy, p), 200);
        assert_eq!(
            effective_local_pref(&policy, Prefix::for_origin(Asn(8))),
            80
        );
    }
}
