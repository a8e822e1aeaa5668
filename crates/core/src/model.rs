//! The AS-routing model: quasi-router topology + per-prefix policies
//! (paper §4.1/§4.5).
//!
//! "Initially, all ASes consist of a single quasi-router, and peerings are
//! established according to the edges of the AS graph... We choose to use
//! IP addresses such that the high order 16 bits are set to the AS number
//! and the low order bits are a unique ID for each quasi-router within the
//! AS." Quasi-routers inside an AS stay mutually isolated (no iBGP, §4.6):
//! "we short-circuit the intra-AS route propagation process".

use quasar_bgpsim::decision::{DecisionConfig, MedMode};
use quasar_bgpsim::engine::SimulationResult;
use quasar_bgpsim::error::SimError;
use quasar_bgpsim::network::{Network, SessionKind};
use quasar_bgpsim::policy::{Action, PolicyRule, RouteMatch};
use quasar_bgpsim::types::{Asn, Prefix, RouterId};
use quasar_topology::graph::AsGraph;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Counters describing the size of a model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ModelStats {
    /// Number of ASes.
    pub ases: usize,
    /// Total quasi-routers.
    pub quasi_routers: usize,
    /// Total eBGP sessions.
    pub sessions: usize,
    /// Policy rules installed by refinement.
    pub policy_rules: usize,
}

/// The AS-routing model under construction/evaluation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AsRoutingModel {
    net: Network,
    /// Next free quasi-router index per AS.
    next_index: BTreeMap<Asn, u16>,
    /// Origin AS per prefix. Serialized as an entry list: JSON map keys
    /// must be strings, and `Prefix` is a structured key. Behind an `Arc`
    /// because it is immutable after construction and cloned once per
    /// refinement-domain snapshot — sharing makes those clones free.
    #[serde(with = "prefix_map_entries")]
    origin_of: std::sync::Arc<BTreeMap<Prefix, Asn>>,
    /// Rules added by refinement (bookkeeping for stats).
    rules_added: usize,
}

impl AsRoutingModel {
    /// Builds the initial model: one quasi-router per AS of `graph`, one
    /// eBGP session per AS edge, no policies. `prefix_origins` maps each
    /// prefix the model will route to its originating AS (which must be in
    /// the graph). The decision process always compares MED across
    /// neighbors, as the refinement heuristic requires (§4.6).
    // `expect`s below: graph edges are deduplicated by AsGraph, so
    // add_session cannot fail on them.
    #[allow(clippy::expect_used)]
    pub fn initial(graph: &AsGraph, prefix_origins: &BTreeMap<Prefix, Asn>) -> Self {
        let mut net = Network::new(DecisionConfig {
            med_mode: MedMode::AlwaysCompare,
        });
        let mut next_index = BTreeMap::new();
        for asn in graph.nodes() {
            net.add_router(RouterId::new(asn, 0));
            next_index.insert(asn, 1);
        }
        for (a, b) in graph.edges() {
            net.add_session(RouterId::new(a, 0), RouterId::new(b, 0), SessionKind::Ebgp)
                .expect("graph edges are unique");
        }
        net.message_budget = (net.num_sessions() as u64 * 5_000).max(1_000_000);
        AsRoutingModel {
            net,
            next_index,
            origin_of: std::sync::Arc::new(
                prefix_origins
                    .iter()
                    .filter(|(_, o)| graph.contains(**o))
                    .map(|(&p, &o)| (p, o))
                    .collect(),
            ),
            rules_added: 0,
        }
    }

    /// The underlying simulator network (read-only).
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Mutable access to the underlying network — used by the refinement
    /// heuristic and by test tooling (e.g. seeded defect injection for the
    /// static analyzer). Mutations bypass the model's bookkeeping
    /// (`rules_added`, quasi-router allocation), so production code should
    /// prefer the typed mutators above.
    pub fn network_mut(&mut self) -> &mut Network {
        &mut self.net
    }

    pub(crate) fn note_rules_added(&mut self, n: usize) {
        self.rules_added += n;
    }

    /// The prefixes the model routes, with their origin AS.
    pub fn prefixes(&self) -> &BTreeMap<Prefix, Asn> {
        &self.origin_of
    }

    /// Quasi-routers of `asn`, ascending by index.
    pub fn quasi_routers_of(&self, asn: Asn) -> Vec<RouterId> {
        self.net.routers_of(asn)
    }

    /// Number of quasi-routers per AS (for the quasi-router-growth
    /// experiment).
    pub fn quasi_router_counts(&self) -> BTreeMap<Asn, usize> {
        let mut out: BTreeMap<Asn, usize> = BTreeMap::new();
        for &r in self.net.routers() {
            *out.entry(r.asn()).or_default() += 1;
        }
        out
    }

    /// Model size counters.
    pub fn stats(&self) -> ModelStats {
        ModelStats {
            ases: self.next_index.len(),
            quasi_routers: self.net.num_routers(),
            sessions: self.net.num_sessions(),
            policy_rules: self.rules_added,
        }
    }

    /// Serializes the trained model to JSON so it can be stored and
    /// reloaded (train once, ask many what-if questions later).
    pub fn to_json(&self) -> serde_json::Result<String> {
        serde_json::to_string(self)
    }

    /// Restores a model from [`Self::to_json`] output, rebuilding the
    /// internal lookup indices serde skips.
    pub fn from_json(s: &str) -> serde_json::Result<Self> {
        let mut model: AsRoutingModel = serde_json::from_str(s)?;
        // Validate *before* rebuild_indices, which indexes into the router
        // table and would panic on out-of-bounds session endpoints.
        model
            .validate_structure()
            .map_err(|e| serde_json::Error::msg(format!("model structure invalid: {e}")))?;
        model.net.rebuild_indices();
        Ok(model)
    }

    /// Structural sanity over serialized fields only: the network must be
    /// well-formed (session bounds/kinds, no duplicates) and every prefix
    /// must be originated by an AS that has at least one quasi-router.
    /// Deeper semantic checks (dangling policy references, contradictory
    /// rankings, convergence risks) live in the `quasar-lint` analyzer.
    pub fn validate_structure(&self) -> Result<(), String> {
        self.net.check_structure()?;
        let ases: BTreeSet<Asn> = self.net.routers().iter().map(|r| r.asn()).collect();
        for (&prefix, &asn) in self.origin_of.iter() {
            if !ases.contains(&asn) {
                return Err(format!(
                    "prefix {prefix} is originated by {asn} which has no quasi-router"
                ));
            }
        }
        Ok(())
    }

    /// Simulates one prefix on the current model. The prefix is originated
    /// at *every* quasi-router of its origin AS, so duplicated origin
    /// routers keep announcing it.
    pub fn simulate(&self, prefix: Prefix) -> Result<SimulationResult, SimError> {
        self.net.simulate(prefix, &self.origins(prefix))
    }

    /// Every quasi-router of `prefix`'s origin AS (none for an unknown
    /// prefix).
    fn origins(&self, prefix: Prefix) -> Vec<RouterId> {
        let origin = *self.origin_of.get(&prefix).unwrap_or(&Asn::RESERVED);
        self.net.routers_of(origin)
    }

    /// Like [`Self::simulate`], but reusing the caller's simulation
    /// buffers. Refinement workers run many simulations back to back on a
    /// slowly growing network; reusing one `SimScratch` per worker
    /// removes the per-run O(routers + adjacency) allocations.
    pub fn simulate_with(
        &self,
        prefix: Prefix,
        scratch: &mut quasar_bgpsim::engine::SimScratch,
    ) -> Result<SimulationResult, SimError> {
        self.net
            .simulate_with(prefix, &self.origins(prefix), scratch)
    }

    /// Like [`Self::simulate_with`], but keeps the converged state in
    /// `scratch` for a later [`Self::resimulate`].
    pub fn simulate_kept(
        &self,
        prefix: Prefix,
        scratch: &mut quasar_bgpsim::engine::SimScratch,
    ) -> Result<SimulationResult, SimError> {
        self.net
            .simulate_kept(prefix, &self.origins(prefix), scratch)
    }

    /// Warm re-simulation of `prev`'s prefix after the policies of the
    /// `changed` directed sessions were edited; see
    /// [`Network::resimulate`](quasar_bgpsim::network::Network::resimulate)
    /// for when it falls back to a cold run and when it equals one.
    pub fn resimulate(
        &self,
        prev: SimulationResult,
        changed: &[(RouterId, RouterId)],
        scratch: &mut quasar_bgpsim::engine::SimScratch,
    ) -> Result<SimulationResult, SimError> {
        let origins = self.origins(prev.prefix);
        self.net.resimulate(prev, &origins, changed, scratch)
    }

    /// Duplicates quasi-router `src`: the copy gets a fresh index in the
    /// same AS, sessions to exactly the same peers, and byte-identical
    /// policies in both directions — "an identical copy of the existing
    /// quasi-router with the same neighbors" (§4.4), guaranteeing the same
    /// RIB-In.
    // `expect`s below: every session touched is either iterated from the
    // adjacency (so it exists) or created earlier in the same loop body.
    #[allow(clippy::expect_used)]
    pub fn duplicate_quasi_router(&mut self, src: RouterId) -> RouterId {
        let asn = src.asn();
        let idx = self.next_index.get_mut(&asn).expect("AS exists in model");
        let copy = RouterId::new(asn, *idx);
        *idx += 1;
        self.net.add_router(copy);
        for peer in self.net.peers_of(src) {
            if peer.asn() == asn {
                continue; // quasi-routers stay isolated from each other
            }
            self.net
                .add_session(copy, peer, SessionKind::Ebgp)
                .expect("fresh session for fresh router");
            let d_out = self
                .net
                .direction_policies(src, peer)
                .expect("session exists")
                .clone();
            let d_in = self
                .net
                .direction_policies(peer, src)
                .expect("session exists")
                .clone();
            // copy -> peer mirrors src -> peer; peer -> copy mirrors
            // peer -> src.
            self.net
                .set_export_policy(copy, peer, d_out.export)
                .expect("session just created");
            self.net
                .set_import_policy(peer, copy, d_out.import)
                .expect("session just created");
            self.net
                .set_export_policy(peer, copy, d_in.export)
                .expect("session just created");
            self.net
                .set_import_policy(copy, peer, d_in.import)
                .expect("session just created");
        }
        copy
    }

    /// Like [`Self::duplicate_quasi_router`], but the copy starts with
    /// *default* (empty) policies on every session instead of cloning the
    /// source's.
    ///
    /// The op-log merge uses this variant: a merge-time duplicate is
    /// shared by every refinement domain that recorded an equivalent
    /// `Duplicate`, and each claiming domain re-applies its own recorded
    /// policy ops to the copy. Cloning here would smuggle in whatever
    /// policy state happened to accumulate on the source *before this
    /// copy's creation turn* — making the merged model depend on the
    /// relative order in which domains first claim their duplicates, an
    /// order that reshuffles whenever a dirty domain's op-log changes.
    /// With a clean copy plus per-claimant re-application, the merged
    /// model depends only on *which* duplicates exist and on each
    /// domain's own op-log, which is what lets the incremental trainer
    /// prove an unchanged merge and replay its recorded repair trace.
    #[allow(clippy::expect_used)] // sessions are created in the same loop
    pub fn duplicate_quasi_router_clean(&mut self, src: RouterId) -> RouterId {
        let asn = src.asn();
        let idx = self.next_index.get_mut(&asn).expect("AS exists in model");
        let copy = RouterId::new(asn, *idx);
        *idx += 1;
        self.net.add_router(copy);
        for peer in self.net.peers_of(src) {
            if peer.asn() == asn {
                continue; // quasi-routers stay isolated from each other
            }
            self.net
                .add_session(copy, peer, SessionKind::Ebgp)
                .expect("fresh session for fresh router");
        }
        copy
    }

    /// Installs the per-prefix MED ranking of the refinement heuristic at
    /// quasi-router `q` (§4.6): sessions delivering the wanted route get
    /// MED 0, every other session gets MED 10, so "if two routes have the
    /// same local-pref and the same AS-path length the one with the lower
    /// MED is selected". Pre-existing MED rules for the prefix at `q` are
    /// replaced.
    #[allow(clippy::expect_used)] // sessions come from the adjacency walk
    pub fn set_med_preference(
        &mut self,
        q: RouterId,
        prefix: Prefix,
        preferred_senders: &[RouterId],
    ) {
        let peers = self.net.peers_of(q);
        let mut added = 0usize;
        for peer in peers {
            let policy = self.net.import_policy_mut(q, peer).expect("session exists");
            policy.remove_rules(|r| {
                r.matcher.prefix == Some(prefix) && matches!(r.action, Action::SetMed(_))
            });
            let med = if preferred_senders.contains(&peer) {
                0
            } else {
                10
            };
            policy.push(PolicyRule::new(
                RouteMatch::prefix(prefix),
                Action::SetMed(med),
            ));
            added += 1;
        }
        self.rules_added += added;
    }

    /// Local-pref variant of [`Self::set_med_preference`], used only by the
    /// ablation that reproduces why the paper rejected local-pref ranking
    /// (§4.6): preferring longer paths via local-pref "can lead to
    /// divergence".
    #[allow(clippy::expect_used)] // sessions come from the adjacency walk
    pub fn set_local_pref_preference(
        &mut self,
        q: RouterId,
        prefix: Prefix,
        preferred_senders: &[RouterId],
    ) {
        let peers = self.net.peers_of(q);
        let mut added = 0usize;
        for peer in peers {
            let policy = self.net.import_policy_mut(q, peer).expect("session exists");
            policy.remove_rules(|r| {
                r.matcher.prefix == Some(prefix) && matches!(r.action, Action::SetLocalPref(_))
            });
            let lp = if preferred_senders.contains(&peer) {
                120
            } else {
                90
            };
            policy.push(PolicyRule::new(
                RouteMatch::prefix(prefix),
                Action::SetLocalPref(lp),
            ));
            added += 1;
        }
        self.rules_added += added;
    }

    /// Installs the shorter-path egress filters of the refinement heuristic
    /// (§4.6): every neighbor of `q` denies routes for `prefix` whose
    /// Loc-RIB AS-path is shorter than `min_locrib_len` ("we do not filter
    /// those routes that have the same AS-path length"). Existing
    /// shorter-path filters for the prefix on those sessions are replaced.
    #[allow(clippy::expect_used)] // sessions come from the adjacency walk
    pub fn set_shorter_path_filters(&mut self, q: RouterId, prefix: Prefix, min_locrib_len: usize) {
        let peers = self.net.peers_of(q);
        let mut added = 0usize;
        for peer in peers {
            let policy = self.net.export_policy_mut(peer, q).expect("session exists");
            policy.remove_rules(|r| {
                r.matcher.prefix == Some(prefix) && r.matcher.path_shorter_than.is_some()
            });
            if min_locrib_len > 0 {
                policy.push(PolicyRule::new(
                    RouteMatch {
                        prefix: Some(prefix),
                        path_shorter_than: Some(min_locrib_len),
                        ..RouteMatch::any()
                    },
                    Action::Deny,
                ));
                added += 1;
            }
        }
        self.rules_added += added;
    }

    /// §4.7 extension ("Using the AS-routing model for predictions for
    /// other prefixes... and how to improve it for previously unconsidered
    /// prefixes"): generalizes the learned per-prefix MED rankings into
    /// per-session *defaults*. For every quasi-router session that carries
    /// per-prefix MED rules, the majority MED value becomes a catch-all
    /// rule at the front of the chain — per-prefix rules, evaluated later,
    /// still override it. A quasi-router that was taught to prefer a given
    /// neighbor for most trained prefixes will now prefer that neighbor
    /// for unseen prefixes too (per-neighbor policy granularity, as in the
    /// authors' follow-up work). Returns the number of defaults installed.
    #[allow(clippy::expect_used)] // sessions come from the adjacency walk
    pub fn generalize_med_preferences(&mut self) -> usize {
        let routers: Vec<RouterId> = self.net.routers().to_vec();
        let mut installed = 0usize;
        for q in routers {
            for peer in self.net.peers_of(q) {
                let policy = self.net.import_policy_mut(q, peer).expect("session exists");
                let mut zero = 0usize;
                let mut nonzero_sum = 0u64;
                let mut nonzero = 0usize;
                for r in policy.rules() {
                    if r.matcher.prefix.is_some() {
                        if let Action::SetMed(m) = r.action {
                            if m == 0 {
                                zero += 1;
                            } else {
                                nonzero += 1;
                                nonzero_sum += m as u64;
                            }
                        }
                    }
                }
                // Drop a previously installed default before re-deriving.
                policy.remove_rules(|r| {
                    r.matcher == RouteMatch::any() && matches!(r.action, Action::SetMed(_))
                });
                // Only decisive habits become defaults: enough evidence and
                // a clear (>=80 %) majority. Weak majorities would replace
                // the neutral no-policy behaviour with noise.
                let total = zero + nonzero;
                if total < 3 || (zero.max(nonzero) as f64) < 0.8 * total as f64 {
                    continue;
                }
                let default = if zero >= nonzero {
                    0
                } else {
                    (nonzero_sum / nonzero as u64) as u32
                };
                policy.push_front(PolicyRule::new(RouteMatch::any(), Action::SetMed(default)));
                installed += 1;
            }
        }
        self.rules_added += installed;
        installed
    }

    /// What-if support (paper §1: "what if a certain peering link was
    /// removed, or what-if we change policies thus?"): silences every
    /// session between the two ASes by denying all exports in both
    /// directions — routing-equivalent to withdrawing the adjacency while
    /// keeping the model's structure intact. Returns the number of
    /// sessions affected.
    #[allow(clippy::expect_used)] // sessions come from the adjacency walk
    pub fn depeer(&mut self, a: Asn, b: Asn) -> usize {
        let ra = self.quasi_routers_of(a);
        let rb = self.quasi_routers_of(b);
        let mut n = 0;
        for &x in &ra {
            for &y in &rb {
                if !self.net.has_session(x, y) {
                    continue;
                }
                let deny_all = {
                    let mut p = quasar_bgpsim::policy::Policy::permit_all();
                    p.push(PolicyRule::new(RouteMatch::any(), Action::Deny));
                    p
                };
                self.net
                    .set_export_policy(x, y, deny_all.clone())
                    .expect("session exists");
                self.net
                    .set_export_policy(y, x, deny_all)
                    .expect("session exists");
                n += 1;
            }
        }
        n
    }

    /// What-if support, the other direction of §1's question ("how the
    /// routing in the Internet would change if a peering is added"): adds
    /// a brand-new AS adjacency by connecting the first quasi-router of
    /// each AS with a policy-free eBGP session. Returns false if the
    /// session already existed.
    pub fn add_peering(&mut self, a: Asn, b: Asn) -> bool {
        let (Some(&ra), Some(&rb)) = (
            self.quasi_routers_of(a).first(),
            self.quasi_routers_of(b).first(),
        ) else {
            return false;
        };
        if self.net.has_session(ra, rb) {
            return false;
        }
        self.net
            .add_session(ra, rb, quasar_bgpsim::network::SessionKind::Ebgp)
            .is_ok()
    }

    /// Deletes egress filters from `from` towards `to` that block routes
    /// for `prefix` with Loc-RIB path length `locrib_len` (the
    /// filter-deletion step, §4.6 / Figure 7). Returns how many rules were
    /// removed.
    #[allow(clippy::expect_used)] // sessions come from the adjacency walk
    pub fn delete_blocking_filters(
        &mut self,
        from: RouterId,
        to: RouterId,
        prefix: Prefix,
        locrib_len: usize,
    ) -> usize {
        let policy = self
            .net
            .export_policy_mut(from, to)
            .expect("session exists");
        policy.remove_rules(|r| {
            r.action == Action::Deny
                && r.matcher.prefix == Some(prefix)
                && r.matcher.path_shorter_than.is_some_and(|n| locrib_len < n)
        })
    }
}

/// Serializes a `BTreeMap<Prefix, Asn>` as a `Vec<(Prefix, Asn)>` so
/// structured keys survive formats (like JSON) that require string map
/// keys.
mod prefix_map_entries {
    use quasar_bgpsim::types::{Asn, Prefix};
    use serde::{Deserialize, Deserializer, Error, Serialize, Serializer};
    use std::collections::BTreeMap;

    use std::sync::Arc;

    pub fn serialize(map: &Arc<BTreeMap<Prefix, Asn>>, s: &mut Serializer) {
        map.iter().collect::<Vec<_>>().serialize(s);
    }

    pub fn deserialize(d: &mut Deserializer<'_>) -> Result<Arc<BTreeMap<Prefix, Asn>>, Error> {
        Ok(Arc::new(
            Vec::<(Prefix, Asn)>::deserialize(d)?.into_iter().collect(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quasar_bgpsim::aspath::AsPath;

    fn diamond() -> (AsGraph, BTreeMap<Prefix, Asn>) {
        // 1-2, 1-4, 2-3, 4-3; prefix at 3.
        let paths = vec![AsPath::from_u32s(&[1, 2, 3]), AsPath::from_u32s(&[1, 4, 3])];
        let graph = AsGraph::from_paths(&paths);
        let mut origins = BTreeMap::new();
        origins.insert(Prefix::for_origin(Asn(3)), Asn(3));
        (graph, origins)
    }

    #[test]
    fn initial_model_one_router_per_as() {
        let (g, o) = diamond();
        let m = AsRoutingModel::initial(&g, &o);
        let s = m.stats();
        assert_eq!(s.ases, 4);
        assert_eq!(s.quasi_routers, 4);
        assert_eq!(s.sessions, 4);
        assert_eq!(s.policy_rules, 0);
    }

    #[test]
    fn initial_model_simulates() {
        let (g, o) = diamond();
        let m = AsRoutingModel::initial(&g, &o);
        let res = m.simulate(Prefix::for_origin(Asn(3))).unwrap();
        let best = res.best_route(RouterId::new(Asn(1), 0)).unwrap();
        // Tie between 2-3 and 4-3 broken by lower neighbor id (AS2).
        assert_eq!(best.as_path.to_string(), "2 3");
    }

    #[test]
    fn duplication_mirrors_sessions_and_ribs() {
        let (g, o) = diamond();
        let mut m = AsRoutingModel::initial(&g, &o);
        let src = RouterId::new(Asn(1), 0);
        let copy = m.duplicate_quasi_router(src);
        assert_eq!(copy, RouterId::new(Asn(1), 1));
        assert_eq!(m.network().peers_of(copy), m.network().peers_of(src));
        let res = m.simulate(Prefix::for_origin(Asn(3))).unwrap();
        // The copy has the same candidates (paths) as the source.
        let paths = |r: RouterId| -> Vec<String> {
            let mut v: Vec<String> = res
                .rib(r)
                .unwrap()
                .candidates
                .iter()
                .map(|c| c.as_path.to_string())
                .collect();
            v.sort();
            v
        };
        assert_eq!(paths(src), paths(copy));
    }

    #[test]
    fn med_preference_flips_best() {
        let (g, o) = diamond();
        let mut m = AsRoutingModel::initial(&g, &o);
        let q = RouterId::new(Asn(1), 0);
        let p = Prefix::for_origin(Asn(3));
        // Prefer routes delivered by AS4's quasi-router.
        m.set_med_preference(q, p, &[RouterId::new(Asn(4), 0)]);
        let res = m.simulate(p).unwrap();
        assert_eq!(res.best_route(q).unwrap().as_path.to_string(), "4 3");
        assert!(m.stats().policy_rules > 0);
    }

    #[test]
    fn shorter_path_filters_block_short_routes() {
        // Line 1-2-3 plus direct 1-3: filter the 1-hop route at AS1 so the
        // 2-hop route via AS2 can win.
        let paths = vec![AsPath::from_u32s(&[1, 2, 3]), AsPath::from_u32s(&[1, 3])];
        let graph = AsGraph::from_paths(&paths);
        let mut origins = BTreeMap::new();
        let p = Prefix::for_origin(Asn(3));
        origins.insert(p, Asn(3));
        let mut m = AsRoutingModel::initial(&graph, &origins);
        let q = RouterId::new(Asn(1), 0);
        // Want the 2-hop path "2 3" (Loc-RIB form at AS1): filter
        // everything with Loc-RIB length < 1 at the announcing neighbors
        // (i.e. the direct announcement from AS3 whose Loc-RIB form is
        // empty).
        m.set_shorter_path_filters(q, p, 1);
        let res = m.simulate(p).unwrap();
        assert_eq!(res.best_route(q).unwrap().as_path.to_string(), "2 3");
    }

    #[test]
    fn delete_blocking_filters_restores_route() {
        let paths = vec![AsPath::from_u32s(&[1, 2, 3]), AsPath::from_u32s(&[1, 3])];
        let graph = AsGraph::from_paths(&paths);
        let mut origins = BTreeMap::new();
        let p = Prefix::for_origin(Asn(3));
        origins.insert(p, Asn(3));
        let mut m = AsRoutingModel::initial(&graph, &origins);
        let q = RouterId::new(Asn(1), 0);
        m.set_shorter_path_filters(q, p, 1);
        // The direct AS3 -> AS1 announcement (Loc-RIB length 0) is blocked;
        // delete it again.
        let removed = m.delete_blocking_filters(RouterId::new(Asn(3), 0), q, p, 0);
        assert_eq!(removed, 1);
        let res = m.simulate(p).unwrap();
        assert_eq!(res.best_route(q).unwrap().as_path.to_string(), "3");
    }

    /// Trains a consistent preference for AS4 at AS1's router on three
    /// prefixes (enough evidence for a decisive majority).
    fn trained_for_generalization() -> (AsRoutingModel, RouterId) {
        let (g, mut o) = diamond();
        let q = RouterId::new(Asn(1), 0);
        for n in 0..3u8 {
            o.insert(Prefix::for_origin_nth(Asn(3), n), Asn(3));
        }
        let mut m = AsRoutingModel::initial(&g, &o);
        for n in 0..3u8 {
            m.set_med_preference(
                q,
                Prefix::for_origin_nth(Asn(3), n),
                &[RouterId::new(Asn(4), 0)],
            );
        }
        (m, q)
    }

    #[test]
    fn generalized_defaults_follow_majority() {
        let (mut m, q) = trained_for_generalization();
        let installed = m.generalize_med_preferences();
        assert!(installed >= 2, "defaults on both sessions of q");
        // A brand-new prefix (origin AS3, different /24) now also prefers
        // AS4 at q.
        let (g, mut o) = diamond();
        let p_new = Prefix::for_origin_nth(Asn(3), 5);
        o.insert(p_new, Asn(3));
        let mut m2 = AsRoutingModel::initial(&g, &o);
        for n in 0..3u8 {
            m2.set_med_preference(
                q,
                Prefix::for_origin_nth(Asn(3), n),
                &[RouterId::new(Asn(4), 0)],
            );
        }
        m2.generalize_med_preferences();
        let res = m2.simulate(p_new).unwrap();
        assert_eq!(res.best_route(q).unwrap().as_path.to_string(), "4 3");
    }

    #[test]
    fn generalization_skips_weak_evidence() {
        let (g, o) = diamond();
        let mut m = AsRoutingModel::initial(&g, &o);
        let q = RouterId::new(Asn(1), 0);
        // One prefix only: below the evidence threshold.
        m.set_med_preference(q, Prefix::for_origin(Asn(3)), &[RouterId::new(Asn(4), 0)]);
        assert_eq!(m.generalize_med_preferences(), 0);
    }

    #[test]
    fn generalization_is_idempotent() {
        let (mut m, q) = trained_for_generalization();
        let a = m.generalize_med_preferences();
        let b = m.generalize_med_preferences();
        assert_eq!(a, b, "re-deriving must replace, not stack, defaults");
        let res = m.simulate(Prefix::for_origin(Asn(3))).unwrap();
        assert_eq!(res.best_route(q).unwrap().as_path.to_string(), "4 3");
    }

    #[test]
    fn depeer_silences_adjacency() {
        let (g, o) = diamond();
        let mut m = AsRoutingModel::initial(&g, &o);
        let p = Prefix::for_origin(Asn(3));
        assert!(m.depeer(Asn(2), Asn(3)) > 0);
        let res = m.simulate(p).unwrap();
        // AS1 can now only reach via AS4.
        assert_eq!(
            res.best_route(RouterId::new(Asn(1), 0))
                .unwrap()
                .as_path
                .to_string(),
            "4 3"
        );
        assert!(
            res.best_route(RouterId::new(Asn(2), 0)).is_some(),
            "via AS1 still works"
        );
    }

    #[test]
    fn prefixes_with_unknown_origin_dropped() {
        let (g, _) = diamond();
        let mut origins = BTreeMap::new();
        origins.insert(Prefix::for_origin(Asn(99)), Asn(99)); // not in graph
        let m = AsRoutingModel::initial(&g, &origins);
        assert!(m.prefixes().is_empty());
    }
}
