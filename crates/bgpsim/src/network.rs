//! The simulated network: quasi-routers, BGP sessions, and per-session
//! directional policies.
//!
//! A [`Network`] is an immutable description once built; simulations
//! (one per prefix, as in the paper §4.2: "Since routing decisions are
//! determined independently for each prefix we run a separate simulation
//! for each prefix") borrow it read-only, so many prefixes can be simulated
//! concurrently from the same network.

use crate::decision::DecisionConfig;
use crate::error::SimError;
use crate::igp::{IgpCosts, IgpTopology};
use crate::policy::Policy;
use crate::types::{Asn, RouterId};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// eBGP (inter-AS) or iBGP (intra-AS) session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SessionKind {
    /// External session between routers of different ASes.
    Ebgp,
    /// Internal session between routers of the same AS (full-mesh
    /// semantics: iBGP-learned routes are not re-advertised over iBGP).
    Ibgp,
}

/// Policies of one direction of a session (`src` announces to `dst`):
/// the export chain runs at `src`, the import chain at `dst`.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct DirectionPolicies {
    /// Applied at the announcing router before the route leaves.
    pub export: Policy,
    /// Applied at the receiving router before RIB-In installation.
    pub import: Policy,
}

/// A BGP session between two routers, with independent policies per
/// direction.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Session {
    pub(crate) a: usize,
    pub(crate) b: usize,
    pub(crate) kind: SessionKind,
    /// Policies for the `a -> b` direction.
    pub(crate) a_to_b: DirectionPolicies,
    /// Policies for the `b -> a` direction.
    pub(crate) b_to_a: DirectionPolicies,
    /// RFC 4456: `a` treats `b` as its route-reflection client.
    pub(crate) a_has_client_b: bool,
    /// RFC 4456: `b` treats `a` as its route-reflection client.
    pub(crate) b_has_client_a: bool,
}

impl Session {
    /// Policies for announcements flowing `from -> to` (dense indices).
    pub(crate) fn direction(&self, from: usize) -> &DirectionPolicies {
        if from == self.a {
            &self.a_to_b
        } else {
            &self.b_to_a
        }
    }

    pub(crate) fn direction_mut(&mut self, from: usize) -> &mut DirectionPolicies {
        if from == self.a {
            &mut self.a_to_b
        } else {
            &mut self.b_to_a
        }
    }

    pub(crate) fn peer_of(&self, r: usize) -> usize {
        if r == self.a {
            self.b
        } else {
            self.a
        }
    }

    /// The session kind.
    pub fn kind(&self) -> SessionKind {
        self.kind
    }
}

/// A network of quasi-routers connected by BGP sessions.
///
/// ```
/// use quasar_bgpsim::prelude::*;
///
/// let mut net = Network::new(DecisionConfig::default());
/// let r1 = net.add_router(RouterId::new(Asn(1), 0));
/// let r2 = net.add_router(RouterId::new(Asn(2), 0));
/// net.add_session(r1, r2, SessionKind::Ebgp).unwrap();
/// let prefix = Prefix::for_origin(Asn(2));
/// let result = net.simulate(prefix, &[r2]).unwrap();
/// let best = result.best_route(r1).unwrap();
/// assert_eq!(best.as_path.to_string(), "2");
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Network {
    pub(crate) cfg: DecisionConfig,
    pub(crate) routers: Vec<RouterId>,
    /// Shared with every [`crate::engine::SimulationResult`] instead of
    /// cloned per simulation.
    #[serde(skip)]
    pub(crate) index: std::sync::Arc<HashMap<RouterId, usize>>,
    pub(crate) sessions: Vec<Session>,
    /// Per router: `(session index, peer dense index)`, sorted by peer
    /// RouterId for deterministic fan-out order.
    pub(crate) adj: Vec<Vec<(usize, usize)>>,
    /// Session lookup by unordered router pair.
    #[serde(skip)]
    pub(crate) session_index: HashMap<(RouterId, RouterId), usize>,
    /// Per-AS IGP used for iBGP hot-potato costs.
    #[serde(skip)]
    pub(crate) igp: HashMap<Asn, IgpCosts>,
    /// Upper bound on processed messages per prefix before declaring
    /// divergence. 0 means "auto": `max(10_000, 200 * sessions)`.
    pub message_budget: u64,
}

impl Network {
    /// An empty network with the given decision-process configuration.
    pub fn new(cfg: DecisionConfig) -> Self {
        Network {
            cfg,
            ..Self::default()
        }
    }

    /// Adds a quasi-router (idempotent) and returns its id back for
    /// chaining convenience.
    pub fn add_router(&mut self, id: RouterId) -> RouterId {
        if !self.index.contains_key(&id) {
            std::sync::Arc::make_mut(&mut self.index).insert(id, self.routers.len());
            self.routers.push(id);
            self.adj.push(Vec::new());
        }
        id
    }

    /// Number of routers.
    pub fn num_routers(&self) -> usize {
        self.routers.len()
    }

    /// Number of sessions.
    pub fn num_sessions(&self) -> usize {
        self.sessions.len()
    }

    /// All router ids in insertion order.
    pub fn routers(&self) -> &[RouterId] {
        &self.routers
    }

    /// All routers belonging to `asn`, sorted by index.
    pub fn routers_of(&self, asn: Asn) -> Vec<RouterId> {
        let mut v: Vec<RouterId> = self
            .routers
            .iter()
            .copied()
            .filter(|r| r.asn() == asn)
            .collect();
        v.sort();
        v
    }

    /// The eBGP/iBGP peers of `id`, sorted by RouterId.
    pub fn peers_of(&self, id: RouterId) -> Vec<RouterId> {
        let Some(&i) = self.index.get(&id) else {
            return Vec::new();
        };
        self.adj[i].iter().map(|&(_, p)| self.routers[p]).collect()
    }

    fn pair_key(a: RouterId, b: RouterId) -> (RouterId, RouterId) {
        if a <= b {
            (a, b)
        } else {
            (b, a)
        }
    }

    /// Creates a session between `a` and `b`. The kind must be consistent
    /// with AS membership (eBGP across ASes, iBGP within one).
    pub fn add_session(
        &mut self,
        a: RouterId,
        b: RouterId,
        kind: SessionKind,
    ) -> Result<(), SimError> {
        let ia = *self.index.get(&a).ok_or(SimError::UnknownRouter(a))?;
        let ib = *self.index.get(&b).ok_or(SimError::UnknownRouter(b))?;
        let same_as = a.asn() == b.asn();
        if (kind == SessionKind::Ebgp && same_as) || (kind == SessionKind::Ibgp && !same_as) {
            return Err(SimError::SessionKindMismatch(a, b));
        }
        let key = Self::pair_key(a, b);
        if self.session_index.contains_key(&key) {
            return Err(SimError::DuplicateSession(a, b));
        }
        let sid = self.sessions.len();
        self.sessions.push(Session {
            a: ia,
            b: ib,
            kind,
            a_to_b: DirectionPolicies::default(),
            b_to_a: DirectionPolicies::default(),
            a_has_client_b: false,
            b_has_client_a: false,
        });
        self.session_index.insert(key, sid);
        // Keep adjacency sorted by peer RouterId for determinism.
        let insert_sorted =
            |adj: &mut Vec<(usize, usize)>, entry: (usize, usize), ids: &[RouterId]| {
                let pos = adj
                    .binary_search_by_key(&ids[entry.1], |&(_, p)| ids[p])
                    .unwrap_or_else(|e| e);
                adj.insert(pos, entry);
            };
        insert_sorted(&mut self.adj[ia], (sid, ib), &self.routers);
        insert_sorted(&mut self.adj[ib], (sid, ia), &self.routers);
        Ok(())
    }

    /// True if a session (of any kind) exists between the two routers.
    pub fn has_session(&self, a: RouterId, b: RouterId) -> bool {
        self.session_index.contains_key(&Self::pair_key(a, b))
    }

    pub(crate) fn session_id(&self, a: RouterId, b: RouterId) -> Result<usize, SimError> {
        self.session_index
            .get(&Self::pair_key(a, b))
            .copied()
            .ok_or(SimError::NoSession(a, b))
    }

    /// Replaces the export policy applied at `from` for announcements
    /// towards `to`.
    pub fn set_export_policy(
        &mut self,
        from: RouterId,
        to: RouterId,
        policy: Policy,
    ) -> Result<(), SimError> {
        let sid = self.session_id(from, to)?;
        let ifrom = self.index[&from];
        self.sessions[sid].direction_mut(ifrom).export = policy;
        Ok(())
    }

    /// Replaces the import policy applied at `at` for announcements
    /// received from `from`.
    pub fn set_import_policy(
        &mut self,
        at: RouterId,
        from: RouterId,
        policy: Policy,
    ) -> Result<(), SimError> {
        let sid = self.session_id(from, at)?;
        let ifrom = self.index[&from];
        self.sessions[sid].direction_mut(ifrom).import = policy;
        Ok(())
    }

    /// Mutable access to the export policy at `from` towards `to`
    /// (creates nothing; the session must exist).
    pub fn export_policy_mut(
        &mut self,
        from: RouterId,
        to: RouterId,
    ) -> Result<&mut Policy, SimError> {
        let sid = self.session_id(from, to)?;
        let ifrom = self.index[&from];
        Ok(&mut self.sessions[sid].direction_mut(ifrom).export)
    }

    /// Mutable access to the import policy at `at` for routes from `from`.
    pub fn import_policy_mut(
        &mut self,
        at: RouterId,
        from: RouterId,
    ) -> Result<&mut Policy, SimError> {
        let sid = self.session_id(from, at)?;
        let ifrom = self.index[&from];
        Ok(&mut self.sessions[sid].direction_mut(ifrom).import)
    }

    /// Read access to the policies of the `from -> to` direction.
    pub fn direction_policies(
        &self,
        from: RouterId,
        to: RouterId,
    ) -> Result<&DirectionPolicies, SimError> {
        let sid = self.session_id(from, to)?;
        let ifrom = self.index[&from];
        Ok(self.sessions[sid].direction(ifrom))
    }

    /// RFC 4456 route reflection: marks `client` as a reflection client of
    /// `reflector` on their iBGP session. The reflector then re-advertises
    /// iBGP-learned routes: client routes to everyone, non-client routes to
    /// clients. ORIGINATOR_ID loop prevention is applied; CLUSTER_LIST is
    /// not modeled (avoid reflector cycles).
    pub fn set_rr_client(&mut self, reflector: RouterId, client: RouterId) -> Result<(), SimError> {
        let sid = self.session_id(reflector, client)?;
        let session = &mut self.sessions[sid];
        if session.kind != SessionKind::Ibgp {
            return Err(SimError::SessionKindMismatch(reflector, client));
        }
        let ir = self.index[&reflector];
        if session.a == ir {
            session.a_has_client_b = true;
        } else {
            session.b_has_client_a = true;
        }
        Ok(())
    }

    /// True if `reflector` treats `client` as its reflection client.
    pub fn is_rr_client(&self, reflector: RouterId, client: RouterId) -> bool {
        let Ok(sid) = self.session_id(reflector, client) else {
            return false;
        };
        let session = &self.sessions[sid];
        let ir = self.index[&reflector];
        if session.a == ir {
            session.a_has_client_b
        } else {
            session.b_has_client_a
        }
    }

    /// Installs the IGP topology of `asn`, used to cost iBGP-learned routes
    /// for hot-potato comparison.
    pub fn set_igp(&mut self, asn: Asn, topo: &IgpTopology) {
        self.igp.insert(asn, IgpCosts::precompute(topo));
    }

    pub(crate) fn igp_cost(&self, asn: Asn, from: RouterId, to: RouterId) -> u32 {
        self.igp
            .get(&asn)
            .and_then(|c| c.cost(from, to))
            // Without an IGP every internal hop costs 1.
            .unwrap_or(1)
    }

    /// Effective message budget per prefix.
    pub(crate) fn effective_budget(&self) -> u64 {
        if self.message_budget > 0 {
            self.message_budget
        } else {
            (200 * self.sessions.len() as u64).max(10_000)
        }
    }

    /// Rebuilds skipped lookup structures after deserialization.
    pub fn rebuild_indices(&mut self) {
        self.index = std::sync::Arc::new(
            self.routers
                .iter()
                .enumerate()
                .map(|(i, &r)| (r, i))
                .collect(),
        );
        self.session_index = self
            .sessions
            .iter()
            .enumerate()
            .map(|(sid, s)| (Self::pair_key(self.routers[s.a], self.routers[s.b]), sid))
            .collect();
    }

    /// Iterates both directions of every session as read-only views, in
    /// session insertion order (`a -> b` then `b -> a`). Static analyses
    /// walk every policy chain through this without needing mutable or
    /// index-level access.
    pub fn session_directions(&self) -> impl Iterator<Item = SessionDirectionView<'_>> + '_ {
        self.sessions.iter().flat_map(move |s| {
            let a = self.routers[s.a];
            let b = self.routers[s.b];
            [
                SessionDirectionView {
                    from: a,
                    to: b,
                    kind: s.kind,
                    from_has_client_to: s.a_has_client_b,
                    policies: &s.a_to_b,
                },
                SessionDirectionView {
                    from: b,
                    to: a,
                    kind: s.kind,
                    from_has_client_to: s.b_has_client_a,
                    policies: &s.b_to_a,
                },
            ]
        })
    }

    /// Structural validation over the serialized fields only, so it is
    /// safe (and intended) to run on freshly deserialized data *before*
    /// [`Network::rebuild_indices`], which indexes into `routers` and
    /// would panic on out-of-bounds session endpoints.
    pub fn check_structure(&self) -> Result<(), String> {
        let n = self.routers.len();
        let mut seen = HashMap::with_capacity(n);
        for (i, &r) in self.routers.iter().enumerate() {
            if let Some(first) = seen.insert(r, i) {
                return Err(format!(
                    "duplicate quasi-router {r} (indices {first} and {i})"
                ));
            }
        }
        if self.adj.len() != n {
            return Err(format!(
                "adjacency table covers {} routers but {n} exist",
                self.adj.len()
            ));
        }
        let mut pairs = HashMap::with_capacity(self.sessions.len());
        for (sid, s) in self.sessions.iter().enumerate() {
            if s.a >= n || s.b >= n {
                return Err(format!(
                    "session {sid} references router index {} but only {n} routers exist",
                    s.a.max(s.b)
                ));
            }
            let (ra, rb) = (self.routers[s.a], self.routers[s.b]);
            if s.a == s.b {
                return Err(format!("session {sid} connects {ra} to itself"));
            }
            let same_as = ra.asn() == rb.asn();
            if (s.kind == SessionKind::Ebgp && same_as) || (s.kind == SessionKind::Ibgp && !same_as)
            {
                return Err(format!(
                    "session {sid} ({ra} -- {rb}) kind {:?} contradicts AS membership",
                    s.kind
                ));
            }
            if let Some(first) = pairs.insert(Self::pair_key(ra, rb), sid) {
                return Err(format!(
                    "duplicate session between {ra} and {rb} (sessions {first} and {sid})"
                ));
            }
        }
        for (i, edges) in self.adj.iter().enumerate() {
            for &(sid, peer) in edges {
                let valid = self
                    .sessions
                    .get(sid)
                    .is_some_and(|s| (s.a == i && s.b == peer) || (s.b == i && s.a == peer));
                if !valid {
                    return Err(format!(
                        "adjacency of router index {i} names session {sid} / peer {peer} \
                         which does not connect them"
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Read-only view of one direction of a session: announcements flow
/// `from -> to` through `policies.export` (applied at `from`) and then
/// `policies.import` (applied at `to`).
#[derive(Debug, Clone, Copy)]
pub struct SessionDirectionView<'a> {
    /// Announcing router.
    pub from: RouterId,
    /// Receiving router.
    pub to: RouterId,
    /// Session kind shared by both directions.
    pub kind: SessionKind,
    /// RFC 4456: `from` treats `to` as its route-reflection client.
    pub from_has_client_to: bool,
    /// The policy chains of this direction.
    pub policies: &'a DirectionPolicies,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Prefix;

    fn rid(asn: u32, idx: u16) -> RouterId {
        RouterId::new(Asn(asn), idx)
    }

    #[test]
    fn add_router_is_idempotent() {
        let mut net = Network::new(DecisionConfig::default());
        net.add_router(rid(1, 0));
        net.add_router(rid(1, 0));
        assert_eq!(net.num_routers(), 1);
    }

    #[test]
    fn session_kind_must_match_as_membership() {
        let mut net = Network::new(DecisionConfig::default());
        net.add_router(rid(1, 0));
        net.add_router(rid(1, 1));
        net.add_router(rid(2, 0));
        assert!(matches!(
            net.add_session(rid(1, 0), rid(1, 1), SessionKind::Ebgp),
            Err(SimError::SessionKindMismatch(..))
        ));
        assert!(matches!(
            net.add_session(rid(1, 0), rid(2, 0), SessionKind::Ibgp),
            Err(SimError::SessionKindMismatch(..))
        ));
        assert!(net
            .add_session(rid(1, 0), rid(1, 1), SessionKind::Ibgp)
            .is_ok());
        assert!(net
            .add_session(rid(1, 0), rid(2, 0), SessionKind::Ebgp)
            .is_ok());
    }

    #[test]
    fn duplicate_session_rejected() {
        let mut net = Network::new(DecisionConfig::default());
        net.add_router(rid(1, 0));
        net.add_router(rid(2, 0));
        net.add_session(rid(1, 0), rid(2, 0), SessionKind::Ebgp)
            .unwrap();
        assert!(matches!(
            net.add_session(rid(2, 0), rid(1, 0), SessionKind::Ebgp),
            Err(SimError::DuplicateSession(..))
        ));
    }

    #[test]
    fn unknown_router_in_session() {
        let mut net = Network::new(DecisionConfig::default());
        net.add_router(rid(1, 0));
        assert!(matches!(
            net.add_session(rid(1, 0), rid(2, 0), SessionKind::Ebgp),
            Err(SimError::UnknownRouter(_))
        ));
    }

    #[test]
    fn peers_sorted_by_router_id() {
        let mut net = Network::new(DecisionConfig::default());
        for a in [5u32, 3, 9, 1] {
            net.add_router(rid(a, 0));
        }
        net.add_router(rid(4, 0));
        for a in [5u32, 3, 9, 1] {
            net.add_session(rid(4, 0), rid(a, 0), SessionKind::Ebgp)
                .unwrap();
        }
        let peers = net.peers_of(rid(4, 0));
        assert_eq!(peers, vec![rid(1, 0), rid(3, 0), rid(5, 0), rid(9, 0)]);
    }

    #[test]
    fn routers_of_filters_by_asn() {
        let mut net = Network::new(DecisionConfig::default());
        net.add_router(rid(1, 1));
        net.add_router(rid(1, 0));
        net.add_router(rid(2, 0));
        assert_eq!(net.routers_of(Asn(1)), vec![rid(1, 0), rid(1, 1)]);
    }

    #[test]
    fn policies_settable_per_direction() {
        use crate::policy::{Action, Policy, PolicyRule, RouteMatch};
        let mut net = Network::new(DecisionConfig::default());
        net.add_router(rid(1, 0));
        net.add_router(rid(2, 0));
        net.add_session(rid(1, 0), rid(2, 0), SessionKind::Ebgp)
            .unwrap();
        let mut p = Policy::permit_all();
        p.push(PolicyRule::new(
            RouteMatch::prefix(Prefix::for_origin(Asn(9))),
            Action::Deny,
        ));
        net.set_export_policy(rid(1, 0), rid(2, 0), p.clone())
            .unwrap();
        let d = net.direction_policies(rid(1, 0), rid(2, 0)).unwrap();
        assert_eq!(d.export.rules().len(), 1);
        // Opposite direction untouched.
        let d2 = net.direction_policies(rid(2, 0), rid(1, 0)).unwrap();
        assert!(d2.export.is_empty());
    }

    #[test]
    fn budget_auto_scales_with_sessions() {
        let net = Network::new(DecisionConfig::default());
        assert_eq!(net.effective_budget(), 10_000);
    }

    #[test]
    fn session_directions_cover_both_ways() {
        let mut net = Network::new(DecisionConfig::default());
        net.add_router(rid(1, 0));
        net.add_router(rid(2, 0));
        net.add_session(rid(1, 0), rid(2, 0), SessionKind::Ebgp)
            .unwrap();
        let dirs: Vec<_> = net.session_directions().collect();
        assert_eq!(dirs.len(), 2);
        assert_eq!((dirs[0].from, dirs[0].to), (rid(1, 0), rid(2, 0)));
        assert_eq!((dirs[1].from, dirs[1].to), (rid(2, 0), rid(1, 0)));
        assert!(dirs.iter().all(|d| d.kind == SessionKind::Ebgp));
    }

    #[test]
    fn check_structure_accepts_well_formed_networks() {
        let mut net = Network::new(DecisionConfig::default());
        net.add_router(rid(1, 0));
        net.add_router(rid(1, 1));
        net.add_router(rid(2, 0));
        net.add_session(rid(1, 0), rid(1, 1), SessionKind::Ibgp)
            .unwrap();
        net.add_session(rid(1, 0), rid(2, 0), SessionKind::Ebgp)
            .unwrap();
        assert!(net.check_structure().is_ok());
    }

    #[test]
    fn check_structure_catches_out_of_bounds_session() {
        let mut net = Network::new(DecisionConfig::default());
        net.add_router(rid(1, 0));
        net.add_router(rid(2, 0));
        net.add_session(rid(1, 0), rid(2, 0), SessionKind::Ebgp)
            .unwrap();
        net.sessions[0].b = 999;
        let err = net.check_structure().unwrap_err();
        assert!(err.contains("999"), "unexpected message: {err}");
    }

    #[test]
    fn check_structure_catches_kind_mismatch_and_duplicates() {
        let mut net = Network::new(DecisionConfig::default());
        net.add_router(rid(1, 0));
        net.add_router(rid(2, 0));
        net.add_session(rid(1, 0), rid(2, 0), SessionKind::Ebgp)
            .unwrap();
        net.sessions[0].kind = SessionKind::Ibgp;
        assert!(net.check_structure().is_err());
        net.sessions[0].kind = SessionKind::Ebgp;
        let dup = net.sessions[0].clone();
        net.sessions.push(dup);
        let err = net.check_structure().unwrap_err();
        assert!(
            err.contains("duplicate session"),
            "unexpected message: {err}"
        );
    }

    #[test]
    fn check_structure_catches_duplicate_router() {
        let mut net = Network::new(DecisionConfig::default());
        net.add_router(rid(1, 0));
        net.routers.push(rid(1, 0));
        net.adj.push(Vec::new());
        assert!(net.check_structure().is_err());
    }
}
