//! Copy-on-write what-if sessions.
//!
//! A `diff` request carries a list of hypothetical [`Change`]s (§1:
//! de-peering, added peerings, selective filtering). Applying them to the
//! served model in place would poison the base steady-state cache, so
//! each distinct change-list gets a [`Session`]: an edited *copy* of the
//! model plus its own overlay [`SteadyStateCache`]. The base cache is
//! never invalidated — only shadowed — and repeated queries against the
//! same scenario (keyed by [`scenario_key`]) warm the same overlay.

use crate::cache::{CachedSim, SteadyStateCache};
use parking_lot::RwLock;
use quasar_bgpsim::types::Prefix;
use quasar_core::model::AsRoutingModel;
use quasar_core::persist::fnv1a;
use quasar_core::whatif::{apply_change, Change};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// Canonical 64-bit key of a scenario: FNV-1a over the serialized
/// change-list. Order-sensitive — applying changes in a different order
/// is a different scenario (and can produce a different model).
pub fn scenario_key(changes: &[Change]) -> u64 {
    let json = serde_json::to_string(changes).unwrap_or_default();
    fnv1a(json.as_bytes())
}

/// One what-if scenario resident in the server: the edited model and the
/// overlay cache of its converged per-prefix steady states.
pub struct Session {
    key: u64,
    edited: AsRoutingModel,
    cache: SteadyStateCache,
}

impl Session {
    /// Builds a session by applying `changes`, in order, to a copy of
    /// `base`.
    pub fn new(base: &AsRoutingModel, changes: &[Change]) -> Self {
        let mut edited = base.clone();
        for c in changes {
            apply_change(&mut edited, c);
        }
        Session {
            key: scenario_key(changes),
            edited,
            cache: SteadyStateCache::new(),
        }
    }

    /// The scenario key.
    pub fn key(&self) -> u64 {
        self.key
    }

    /// Simulates `prefix` under the scenario, memoized in the overlay
    /// cache.
    pub fn simulate(&self, prefix: Prefix) -> CachedSim {
        self.cache.get_or_simulate(&self.edited, prefix)
    }
}

/// The sessions currently resident in a server, keyed by scenario hash
/// and bounded in number (oldest-created evicted first once the cap is
/// reached — an evicted scenario is not an error, just a cold overlay on
/// its next use).
pub struct SessionStore {
    max: usize,
    inner: RwLock<Inner>,
}

#[derive(Default)]
struct Inner {
    map: HashMap<u64, Arc<Session>>,
    order: VecDeque<u64>,
}

impl SessionStore {
    /// Creates a store keeping at most `max` sessions (minimum 1).
    pub fn with_capacity(max: usize) -> Self {
        SessionStore {
            max: max.max(1),
            inner: RwLock::new(Inner::default()),
        }
    }

    /// Returns the session for `changes`, creating (and registering) it
    /// on first use.
    pub fn get_or_create(&self, base: &AsRoutingModel, changes: &[Change]) -> Arc<Session> {
        let key = scenario_key(changes);
        if let Some(s) = self.inner.read().map.get(&key) {
            return s.clone();
        }
        // Build outside the write lock: cloning + editing the model is the
        // expensive part and must not serialize unrelated sessions.
        let fresh = Arc::new(Session::new(base, changes));
        let mut inner = self.inner.write();
        if let Some(s) = inner.map.get(&key) {
            return s.clone(); // another thread won the race
        }
        while inner.order.len() >= self.max {
            if let Some(old) = inner.order.pop_front() {
                inner.map.remove(&old);
            }
        }
        inner.order.push_back(key);
        inner.map.insert(key, fresh.clone());
        fresh
    }

    /// Number of resident sessions.
    pub fn len(&self) -> usize {
        self.inner.read().map.len()
    }

    /// True when no session is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Aggregated overlay-cache counters over all resident sessions.
    pub fn overlay_snapshot(&self) -> crate::cache::CacheSnapshot {
        let inner = self.inner.read();
        let mut out = crate::cache::CacheSnapshot::default();
        for s in inner.map.values() {
            let c = s.cache.snapshot();
            out.entries += c.entries;
            out.hits += c.hits;
            out.misses += c.misses;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quasar_bgpsim::aspath::AsPath;
    use quasar_bgpsim::types::Asn;
    use quasar_topology::graph::AsGraph;
    use std::collections::BTreeMap;

    fn model() -> AsRoutingModel {
        let paths = vec![AsPath::from_u32s(&[1, 2, 3]), AsPath::from_u32s(&[1, 4, 3])];
        let graph = AsGraph::from_paths(&paths);
        let mut origins = BTreeMap::new();
        origins.insert(Prefix::for_origin(Asn(3)), Asn(3));
        AsRoutingModel::initial(&graph, &origins)
    }

    #[test]
    fn scenario_key_is_order_sensitive_and_stable() {
        let a = Change::Depeer(Asn(1), Asn(2));
        let b = Change::AddPeering(Asn(1), Asn(3));
        assert_eq!(scenario_key(&[a, b]), scenario_key(&[a, b]));
        assert_ne!(scenario_key(&[a, b]), scenario_key(&[b, a]));
        assert_ne!(scenario_key(&[a]), scenario_key(&[]));
    }

    #[test]
    fn session_overlay_shadows_without_touching_base() {
        let base = model();
        let base_cache = SteadyStateCache::new();
        let p = Prefix::for_origin(Asn(3));
        let before = base_cache.get_or_simulate(&base, p).unwrap();

        let session = Session::new(&base, &[Change::Depeer(Asn(2), Asn(3))]);
        let after = session.simulate(p).unwrap();

        // The scenario changed AS1's route, but the base cache still
        // answers with the original steady state.
        let r1 = base.quasi_routers_of(Asn(1))[0];
        assert_ne!(
            before.best_route(r1).map(|r| r.as_path.clone()),
            after.best_route(r1).map(|r| r.as_path.clone())
        );
        let again = base_cache.get_or_simulate(&base, p).unwrap();
        assert!(Arc::ptr_eq(&before, &again));
        assert_eq!(base_cache.misses(), 1);
    }

    #[test]
    fn store_reuses_sessions_and_evicts_beyond_capacity() {
        let base = model();
        let store = SessionStore::with_capacity(2);
        let c1 = [Change::Depeer(Asn(2), Asn(3))];
        let c2 = [Change::Depeer(Asn(4), Asn(3))];
        let c3 = [Change::AddPeering(Asn(1), Asn(3))];

        let s1 = store.get_or_create(&base, &c1);
        let s1_again = store.get_or_create(&base, &c1);
        assert!(Arc::ptr_eq(&s1, &s1_again));
        assert_eq!(store.len(), 1);

        store.get_or_create(&base, &c2);
        store.get_or_create(&base, &c3); // evicts the oldest (c1)
        assert_eq!(store.len(), 2);
        let s1_rebuilt = store.get_or_create(&base, &c1);
        assert!(!Arc::ptr_eq(&s1, &s1_rebuilt));
    }
}
