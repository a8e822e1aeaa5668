//! The delta detector: live observed-path state and exact dirty-prefix
//! extraction.
//!
//! [`PathState`] is the streaming mirror of the collector state machine in
//! `quasar_netgen::updates::reconstruct_stable` and calls the same two
//! `quasar-mrt` functions, so their rules cannot drift apart: the peer
//! directory is
//! [`PeerIndexTable::index_by_key`](quasar_mrt::tabledump2::PeerIndexTable::index_by_key),
//! and each AS_PATH is cleaned by [`PathAttribute::cleaned_as_path`]
//! (AS_SET-bearing paths rejected, prepending stripped). Routes are keyed
//! by (feed, prefix). The one deliberate difference is that there is no
//! stability window — a live pipeline maintains the *current* path set,
//! and "stable for an hour" is meaningless for a model that refreshes
//! every window.
//!
//! Applying a window yields an [`AppliedWindow`]: per-window counts plus
//! the **exact** set of prefixes whose path set changed. An announcement
//! that re-states the path already held is a no-op and dirties nothing —
//! that rule is what makes incremental refinement cheap on chatty feeds,
//! where most updates are duplicate announcements.

use quasar_bgpsim::aspath::AsPath;
use quasar_bgpsim::types::{Asn, Prefix, RouterId};
use quasar_core::observed::{Dataset, ObservedRoute};
use quasar_mrt::attributes::PathAttribute;
use quasar_mrt::bgp4mp::{Bgp4mpMessage, BgpMessage};
use quasar_mrt::record::{MrtBody, MrtRecord};
use std::collections::{BTreeMap, BTreeSet};

/// What one window of updates did to the path state.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AppliedWindow {
    /// BGP4MP UPDATE messages applied (messages from unknown peers are
    /// counted here too — they parsed, they just matched no feed).
    pub updates: u64,
    /// (feed, prefix) announcements processed, including no-op
    /// re-announcements.
    pub announcements: u64,
    /// (feed, prefix) withdrawals processed, including withdrawals of
    /// routes not currently held.
    pub withdrawals: u64,
    /// Prefixes whose observed path set actually changed.
    pub dirty: BTreeSet<Prefix>,
}

/// The live observed-path set, keyed like the collector keys it.
#[derive(Debug, Clone, Default)]
pub struct PathState {
    /// Feed directory, indexed by point id (the router the collector
    /// peers with, as in the PEER_INDEX_TABLE).
    routers: Vec<RouterId>,
    /// Peer IP (or BGP id for v6 peers) → point index.
    peer_by_ip: BTreeMap<u32, u32>,
    /// (point, prefix) → current AS-path.
    state: BTreeMap<(u32, Prefix), AsPath>,
}

/// The §3.1-cleaned AS_PATH of an attribute list, as `reconstruct_stable`
/// reads it.
fn flatten(attrs: &[PathAttribute]) -> Option<AsPath> {
    PathAttribute::cleaned_as_path(attrs).map(|p| AsPath::from_u32s(&p))
}

impl PathState {
    /// An empty state (no peer directory yet; updates are ignored until a
    /// PEER_INDEX_TABLE arrives, exactly as a collector replay would).
    pub fn new() -> Self {
        PathState::default()
    }

    /// Number of (feed, prefix) routes currently held.
    pub fn route_count(&self) -> usize {
        self.state.len()
    }

    /// True when no routes are held.
    pub fn is_empty(&self) -> bool {
        self.state.is_empty()
    }

    fn apply_update(&mut self, m: &Bgp4mpMessage, applied: &mut AppliedWindow) {
        let Some(&point) = self.peer_by_ip.get(&m.peer_ip) else {
            return;
        };
        let BgpMessage::Update(u) = &m.message else {
            return;
        };
        for w in &u.withdrawn {
            applied.withdrawals += 1;
            let prefix = Prefix::new(w.base, w.len);
            if self.state.remove(&(point, prefix)).is_some() {
                applied.dirty.insert(prefix);
            }
        }
        if let Some(path) = flatten(&u.attributes) {
            for a in &u.announced {
                applied.announcements += 1;
                let prefix = Prefix::new(a.base, a.len);
                // An identical re-announcement is a no-op: the path set
                // did not change, so the prefix is not dirty.
                let prev = self.state.insert((point, prefix), path.clone());
                if prev.as_ref() != Some(&path) {
                    applied.dirty.insert(prefix);
                }
            }
        }
    }

    /// Applies one record, accumulating counts and dirty prefixes into
    /// `applied`.
    pub fn apply_record(&mut self, rec: &MrtRecord, applied: &mut AppliedWindow) {
        match &rec.body {
            MrtBody::PeerIndexTable(t) => {
                let routers: Vec<RouterId> = t.peers.iter().map(|p| RouterId(p.bgp_id)).collect();
                let peer_by_ip = t.index_by_key();
                // A *changed* directory reshuffles what every held route
                // means; be conservative and dirty everything held. The
                // common case — the table arriving once up front, or
                // re-announced identically — dirties nothing.
                if !self.routers.is_empty()
                    && (self.routers != routers || self.peer_by_ip != peer_by_ip)
                {
                    applied.dirty.extend(self.state.keys().map(|(_, p)| *p));
                    self.state.clear();
                }
                self.routers = routers;
                self.peer_by_ip = peer_by_ip;
            }
            MrtBody::RibIpv4Unicast(rib) => {
                let prefix = Prefix::new(rib.prefix.base, rib.prefix.len);
                for e in &rib.entries {
                    if let Some(path) = flatten(&e.attributes) {
                        let prev = self
                            .state
                            .insert((e.peer_index as u32, prefix), path.clone());
                        if prev.as_ref() != Some(&path) {
                            applied.dirty.insert(prefix);
                        }
                    }
                }
            }
            MrtBody::Bgp4mp(m) => {
                applied.updates += 1;
                self.apply_update(m, applied);
            }
            _ => {}
        }
    }

    /// Applies a whole window of records and returns what changed.
    pub fn apply(&mut self, records: &[MrtRecord]) -> AppliedWindow {
        let mut applied = AppliedWindow::default();
        for rec in records {
            self.apply_record(rec, &mut applied);
        }
        applied
    }

    /// Renders the current path set as a training [`Dataset`] (the same
    /// cleaning `Dataset::new` always applies: prepending stripped, loops
    /// and observer-mismatched heads dropped, sorted, deduplicated).
    pub fn dataset(&self) -> Dataset {
        Dataset::new(self.state.iter().map(|((point, prefix), path)| {
            let observer_as = self
                .routers
                .get(*point as usize)
                .map(|r| r.asn())
                .unwrap_or(Asn::RESERVED);
            ObservedRoute {
                point: *point,
                observer_as,
                prefix: *prefix,
                as_path: path.clone(),
            }
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quasar_mrt::prelude::*;
    use quasar_netgen::prelude::*;

    fn announce(peer_ip: u32, prefix: (u32, u8), path: &[u32], ts: u32) -> MrtRecord {
        MrtRecord {
            timestamp: ts,
            body: MrtBody::Bgp4mp(Bgp4mpMessage {
                peer_asn: path.first().copied().unwrap_or(0),
                local_asn: 65_000,
                interface: 0,
                peer_ip,
                local_ip: 1,
                as4: true,
                message: BgpMessage::Update(BgpUpdate {
                    withdrawn: vec![],
                    attributes: vec![
                        PathAttribute::Origin(0),
                        PathAttribute::AsPath(vec![AsPathSegment::sequence(path.to_vec())]),
                    ],
                    announced: vec![NlriPrefix::new(prefix.0, prefix.1).unwrap()],
                }),
            }),
        }
    }

    fn withdraw(peer_ip: u32, prefix: (u32, u8), ts: u32) -> MrtRecord {
        MrtRecord {
            timestamp: ts,
            body: MrtBody::Bgp4mp(Bgp4mpMessage {
                peer_asn: 0,
                local_asn: 65_000,
                interface: 0,
                peer_ip,
                local_ip: 1,
                as4: true,
                message: BgpMessage::Update(BgpUpdate {
                    withdrawn: vec![NlriPrefix::new(prefix.0, prefix.1).unwrap()],
                    attributes: vec![],
                    announced: vec![],
                }),
            }),
        }
    }

    fn peer_table(bgp_ids: &[u32]) -> MrtRecord {
        MrtRecord {
            timestamp: 0,
            body: MrtBody::PeerIndexTable(PeerIndexTable {
                collector_id: 0x7F000001,
                view_name: "test".into(),
                peers: bgp_ids
                    .iter()
                    .map(|&id| PeerEntry {
                        bgp_id: id,
                        address: PeerAddress::V4(id),
                        asn: RouterId(id).asn().0,
                        as4: true,
                    })
                    .collect(),
            }),
        }
    }

    const PFX: (u32, u8) = (0x0A00_0000, 8);

    #[test]
    fn identical_reannouncement_dirties_nothing() {
        let mut st = PathState::new();
        let peer = RouterId::new(quasar_bgpsim::types::Asn(7018), 0).0;
        let path = [7018, 3356, 64_512];
        st.apply(&[peer_table(&[peer]), announce(peer, PFX, &path, 10)]);
        assert_eq!(st.route_count(), 1);

        // Same (feed, prefix, path) again: counted, but not dirty.
        let a = st.apply(&[announce(peer, PFX, &path, 20)]);
        assert_eq!(a.announcements, 1);
        assert!(a.dirty.is_empty(), "{:?}", a.dirty);

        // A different path for the same prefix IS dirty.
        let b = st.apply(&[announce(peer, PFX, &[7018, 1239, 64_512], 30)]);
        assert_eq!(b.dirty.len(), 1);
    }

    #[test]
    fn withdrawal_dirties_only_held_routes() {
        let mut st = PathState::new();
        let peer = RouterId::new(quasar_bgpsim::types::Asn(7018), 0).0;
        st.apply(&[peer_table(&[peer])]);

        // Withdrawing a route we never held: counted, not dirty.
        let a = st.apply(&[withdraw(peer, PFX, 5)]);
        assert_eq!(a.withdrawals, 1);
        assert!(a.dirty.is_empty());

        st.apply(&[announce(peer, PFX, &[7018, 3356], 10)]);
        let b = st.apply(&[withdraw(peer, PFX, 20)]);
        assert_eq!(b.dirty.len(), 1);
        assert!(st.is_empty());
    }

    #[test]
    fn unknown_peers_and_as_set_paths_are_skipped() {
        let mut st = PathState::new();
        let peer = RouterId::new(quasar_bgpsim::types::Asn(7018), 0).0;
        st.apply(&[peer_table(&[peer])]);

        // Unknown peer IP: the update parses but matches no feed.
        let a = st.apply(&[announce(peer + 1, PFX, &[7018, 3356], 10)]);
        assert_eq!((a.updates, a.announcements), (1, 0));
        assert!(st.is_empty());

        // AS_SET-bearing path: rejected, exactly like reconstruct_stable.
        let mut rec = announce(peer, PFX, &[7018, 3356], 11);
        if let MrtBody::Bgp4mp(m) = &mut rec.body {
            if let BgpMessage::Update(u) = &mut m.message {
                u.attributes = vec![PathAttribute::AsPath(vec![
                    AsPathSegment::sequence(vec![7018]),
                    AsPathSegment {
                        seg_type: 1,
                        asns: vec![3356, 1239],
                    },
                ])];
            }
        }
        let b = st.apply(&[rec]);
        assert!(b.dirty.is_empty());
        assert!(st.is_empty());
    }

    #[test]
    fn replaying_a_full_archive_matches_reconstruct_stable() {
        // With a zero stability window, reconstruct_stable keeps every
        // route present at the snapshot instant — exactly the live state
        // PathState maintains.
        let net = SyntheticInternet::generate(NetGenConfig::tiny(41));
        let cfg = UpdateStreamConfig {
            flap_fraction: 0.4,
            withdraw_fraction: 0.5,
            ..UpdateStreamConfig::default()
        };
        let recs = generate_update_stream(&net.observation_points, &net.observations, &cfg, 7);

        let mut st = PathState::new();
        let at_snapshot: Vec<MrtRecord> = recs
            .iter()
            .filter(|r| r.timestamp <= cfg.snapshot_time)
            .cloned()
            .collect();
        st.apply(&at_snapshot);

        let (points, obs) = reconstruct_stable(&recs, cfg.snapshot_time, 0);
        assert_eq!(points.len(), net.observation_points.len());
        let expected = Dataset::new(obs.into_iter().map(|o| ObservedRoute {
            point: o.point,
            observer_as: o.observer_as,
            prefix: o.prefix,
            as_path: o.as_path,
        }));
        assert_eq!(st.dataset().routes(), expected.routes());
        assert_eq!(st.dataset().len(), expected.len());
        assert!(!expected.routes().is_empty());
    }

    #[test]
    fn changed_peer_table_dirties_everything_held() {
        let mut st = PathState::new();
        let peer = RouterId::new(quasar_bgpsim::types::Asn(7018), 0).0;
        st.apply(&[peer_table(&[peer]), announce(peer, PFX, &[7018, 3356], 10)]);

        // Identical table again: nothing dirties.
        let a = st.apply(&[peer_table(&[peer])]);
        assert!(a.dirty.is_empty());
        assert_eq!(st.route_count(), 1);

        // A different directory invalidates every held route.
        let other = RouterId::new(quasar_bgpsim::types::Asn(1239), 0).0;
        let b = st.apply(&[peer_table(&[other])]);
        assert_eq!(b.dirty.len(), 1);
        assert!(st.is_empty());
    }
}
