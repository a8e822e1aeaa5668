//! BGP UPDATE streams and snapshot reconstruction (paper §3.1).
//!
//! The paper selects "those routes that were valid table entries on Sun,
//! Nov. 13, 2005, at 7:30am UTC, and that were stable in the sense that
//! they have not changed for at least one hour", and notes "In the future
//! we are planning to also incorporate the AS-path information from BGP
//! updates". This module provides both directions:
//!
//! * [`generate_update_stream`] renders a synthetic Internet's feeds as an
//!   MRT archive — a RIB dump taken *before* the snapshot instant plus a
//!   BGP4MP UPDATE stream with configurable route flapping, both built by
//!   the shared writers in [`crate::mrt_io`];
//! * [`reconstruct_stable`] replays such an archive (real or synthetic)
//!   and recovers exactly the stable snapshot routes the paper's pipeline
//!   uses, cleaning paths and resolving peers with the same `quasar-mrt`
//!   functions as every other reader.

use crate::mrt_io::{feed_points, observer_of, update_record, write_rib_dump, SNAPSHOT_TIME};
use crate::observe::{ObservationPoint, RouteObservation};
use quasar_bgpsim::aspath::AsPath;
use quasar_bgpsim::types::Prefix;
use quasar_mrt::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// Update-stream generation knobs.
#[derive(Debug, Clone, Copy)]
pub struct UpdateStreamConfig {
    /// The snapshot instant (paper: Nov 13 2005, 07:30 UTC).
    pub snapshot_time: u32,
    /// Dump instant of the base RIB (must precede the snapshot).
    pub dump_time: u32,
    /// Stability window: routes changed within this many seconds before
    /// the snapshot are unstable (paper: one hour).
    pub stability_window: u32,
    /// Fraction of (feed, prefix) routes that flap after the dump.
    pub flap_fraction: f64,
    /// Fraction of flapping routes that end withdrawn at snapshot time.
    pub withdraw_fraction: f64,
}

impl Default for UpdateStreamConfig {
    fn default() -> Self {
        UpdateStreamConfig {
            snapshot_time: SNAPSHOT_TIME,
            dump_time: SNAPSHOT_TIME - 6 * 3_600,
            stability_window: 3_600,
            flap_fraction: 0.2,
            withdraw_fraction: 0.25,
        }
    }
}

/// Renders feeds as a base RIB dump plus a BGP4MP UPDATE stream.
///
/// Every observation becomes a RIB entry at `cfg.dump_time`. A
/// `flap_fraction` subset then re-announces (or finally withdraws) at
/// random times up to the snapshot; flaps landing inside the stability
/// window make the route *unstable*. Records are ordered by timestamp, the
/// PEER_INDEX_TABLE first.
pub fn generate_update_stream(
    points: &[ObservationPoint],
    observations: &[RouteObservation],
    cfg: &UpdateStreamConfig,
    seed: u64,
) -> Vec<MrtRecord> {
    assert!(
        cfg.dump_time < cfg.snapshot_time,
        "dump must precede snapshot"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut records = Vec::new();
    write_rib_dump(
        points,
        observations,
        "quasar-updates",
        cfg.dump_time,
        cfg.dump_time,
        |r| records.push(r),
    );

    // Flaps.
    let point_by_id: BTreeMap<u32, &ObservationPoint> = points.iter().map(|p| (p.id, p)).collect();
    let mut updates = Vec::new();
    for o in observations {
        if !rng.gen_bool(cfg.flap_fraction) {
            continue;
        }
        let p = point_by_id[&o.point];
        let t = rng.gen_range(cfg.dump_time + 1..cfg.snapshot_time);
        let withdraw_finally = rng.gen_bool(cfg.withdraw_fraction);
        let path = (!withdraw_finally).then_some(&o.as_path);
        updates.push(update_record(t, p, o.prefix, path));
    }
    updates.sort_by_key(|r| r.timestamp);
    records.extend(updates);
    records
}

/// Replays an archive (RIB dump + BGP4MP updates) and returns the routes
/// that are present at `snapshot_time` and unchanged for at least
/// `stability_window` seconds — the paper's §3.1 selection.
pub fn reconstruct_stable(
    records: &[MrtRecord],
    snapshot_time: u32,
    stability_window: u32,
) -> (Vec<ObservationPoint>, Vec<RouteObservation>) {
    let mut points: Vec<ObservationPoint> = Vec::new();
    let mut peer_by_ip: BTreeMap<u32, u32> = BTreeMap::new(); // ip -> point id
                                                              // (point, prefix) -> (path, last-changed)
    let mut state: BTreeMap<(u32, Prefix), (AsPath, u32)> = BTreeMap::new();
    let flatten = |attrs: &[PathAttribute]| {
        PathAttribute::cleaned_as_path(attrs).map(|p| AsPath::from_u32s(&p))
    };

    for rec in records {
        if rec.timestamp > snapshot_time {
            continue; // after the snapshot instant
        }
        match &rec.body {
            MrtBody::PeerIndexTable(t) => {
                points = feed_points(t);
                peer_by_ip = t.index_by_key();
            }
            MrtBody::RibIpv4Unicast(rib) => {
                let prefix = Prefix::new(rib.prefix.base, rib.prefix.len);
                for e in &rib.entries {
                    if let Some(path) = flatten(&e.attributes) {
                        state.insert((e.peer_index as u32, prefix), (path, e.originated_time));
                    }
                }
            }
            MrtBody::Bgp4mp(m) => {
                let Some(&point) = peer_by_ip.get(&m.peer_ip) else {
                    continue;
                };
                if let BgpMessage::Update(u) = &m.message {
                    for w in &u.withdrawn {
                        state.remove(&(point, Prefix::new(w.base, w.len)));
                    }
                    if let Some(path) = flatten(&u.attributes) {
                        for a in &u.announced {
                            state.insert(
                                (point, Prefix::new(a.base, a.len)),
                                (path.clone(), rec.timestamp),
                            );
                        }
                    }
                }
            }
            _ => {}
        }
    }

    let cutoff = snapshot_time.saturating_sub(stability_window);
    let observations = state
        .into_iter()
        .filter(|(_, (_, changed))| *changed <= cutoff)
        .map(|((point, prefix), (as_path, _))| RouteObservation {
            point,
            observer_as: observer_of(&points, point),
            prefix,
            as_path,
        })
        .collect();
    (points, observations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NetGenConfig;
    use crate::observe::SyntheticInternet;

    fn sorted_keys(obs: &[RouteObservation]) -> Vec<(u32, Prefix, String)> {
        let mut v: Vec<_> = obs
            .iter()
            .map(|o| (o.point, o.prefix, o.as_path.to_string()))
            .collect();
        v.sort();
        v.dedup();
        v
    }

    #[test]
    fn no_flaps_reconstructs_everything() {
        let net = SyntheticInternet::generate(NetGenConfig::tiny(31));
        let cfg = UpdateStreamConfig {
            flap_fraction: 0.0,
            ..UpdateStreamConfig::default()
        };
        let recs = generate_update_stream(&net.observation_points, &net.observations, &cfg, 9);
        let (points, obs) = reconstruct_stable(&recs, cfg.snapshot_time, cfg.stability_window);
        assert_eq!(points.len(), net.observation_points.len());
        assert_eq!(sorted_keys(&obs), sorted_keys(&net.observations));
    }

    #[test]
    fn unstable_and_withdrawn_routes_excluded() {
        let net = SyntheticInternet::generate(NetGenConfig::tiny(32));
        let cfg = UpdateStreamConfig {
            flap_fraction: 0.5,
            withdraw_fraction: 0.5,
            ..UpdateStreamConfig::default()
        };
        let recs = generate_update_stream(&net.observation_points, &net.observations, &cfg, 10);
        let (_, obs) = reconstruct_stable(&recs, cfg.snapshot_time, cfg.stability_window);
        // Something must have been filtered.
        assert!(obs.len() < net.observations.len());
        // Re-announced routes older than the window survive; verify by
        // widening the window to the whole stream: fewer must remain.
        let (_, strict) =
            reconstruct_stable(&recs, cfg.snapshot_time, cfg.snapshot_time - cfg.dump_time);
        assert!(strict.len() <= obs.len());
    }

    #[test]
    fn updates_after_snapshot_ignored() {
        let net = SyntheticInternet::generate(NetGenConfig::tiny(33));
        let cfg = UpdateStreamConfig {
            flap_fraction: 0.0,
            ..UpdateStreamConfig::default()
        };
        let mut recs = generate_update_stream(&net.observation_points, &net.observations, &cfg, 11);
        // Forge a post-snapshot withdraw of everything; it must not count.
        let o = &net.observations[0];
        recs.push(MrtRecord {
            timestamp: cfg.snapshot_time + 10,
            body: MrtBody::Bgp4mp(Bgp4mpMessage {
                peer_asn: o.observer_as.0,
                local_asn: 65_000,
                interface: 0,
                peer_ip: net.observation_points[o.point as usize].router.0,
                local_ip: 1,
                as4: true,
                message: BgpMessage::Update(BgpUpdate {
                    withdrawn: vec![NlriPrefix::new(o.prefix.base, o.prefix.len).unwrap()],
                    attributes: Vec::new(),
                    announced: Vec::new(),
                }),
            }),
        });
        let (_, obs) = reconstruct_stable(&recs, cfg.snapshot_time, cfg.stability_window);
        assert_eq!(sorted_keys(&obs), sorted_keys(&net.observations));
    }

    #[test]
    fn stream_round_trips_through_bytes() {
        let net = SyntheticInternet::generate(NetGenConfig::tiny(34));
        let cfg = UpdateStreamConfig::default();
        let recs = generate_update_stream(&net.observation_points, &net.observations, &cfg, 12);
        let mut w = MrtWriter::new(Vec::new());
        for r in &recs {
            w.write_record(r).unwrap();
        }
        let bytes = w.finish().unwrap();
        let back = MrtReader::new(&bytes[..]).read_all().unwrap();
        assert_eq!(back, recs);
        let (_, a) = reconstruct_stable(&recs, cfg.snapshot_time, cfg.stability_window);
        let (_, b) = reconstruct_stable(&back, cfg.snapshot_time, cfg.stability_window);
        assert_eq!(sorted_keys(&a), sorted_keys(&b));
    }
}
