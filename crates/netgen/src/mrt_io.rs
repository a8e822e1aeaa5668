//! Export/import of observation feeds in RouteViews' MRT TABLE_DUMP_V2
//! format, and the archive layout every netgen writer shares.
//!
//! Writing the synthetic feeds in the real archive format keeps the whole
//! downstream pipeline format-compatible with actual RouteViews/RIPE data:
//! swap the file, keep the code. The peer table + prefix-grouped RIB dump,
//! the route attributes and the BGP4MP UPDATE record are each built once
//! here, for [`export_table_dump_v2`], `generate_update_stream` and
//! `transition_stream`. Every reader cleans AS_PATHs (§3.1) through
//! [`PathAttribute::cleaned_as_path`] and resolves BGP4MP peers through
//! [`PeerIndexTable::index_by_key`].

use crate::observe::{ObservationPoint, RouteObservation};
use quasar_bgpsim::aspath::AsPath;
use quasar_bgpsim::types::{Asn, Prefix, RouterId};
use quasar_mrt::prelude::*;
use std::collections::BTreeMap;

/// The snapshot timestamp used for exports: Sun Nov 13 2005, 07:30 UTC —
/// the paper's snapshot instant (§3.1).
pub const SNAPSHOT_TIME: u32 = 1_131_867_000;

/// The collector's BGP id, and its local address in BGP4MP records.
const COLLECTOR: u32 = 0x7F000001;

fn nlri(prefix: Prefix) -> NlriPrefix {
    NlriPrefix::new(prefix.base, prefix.len).expect("valid prefix")
}

/// A route's attributes as every netgen archive writes them.
fn path_attrs(path: &AsPath, next_hop: u32) -> Vec<PathAttribute> {
    vec![
        PathAttribute::Origin(0),
        PathAttribute::AsPath(vec![AsPathSegment::sequence(
            path.iter().map(|a| a.0).collect(),
        )]),
        PathAttribute::NextHop(next_hop),
    ]
}

/// Hands `emit` the PEER_INDEX_TABLE of `points` and then one
/// RIB_IPV4_UNICAST record per prefix of `observations`, in ascending
/// prefix order: every record stamped `timestamp`, every entry
/// `originated_time`.
pub(crate) fn write_rib_dump(
    points: &[ObservationPoint],
    observations: &[RouteObservation],
    view_name: &str,
    timestamp: u32,
    originated_time: u32,
    mut emit: impl FnMut(MrtRecord),
) {
    let peers = points
        .iter()
        .map(|p| PeerEntry {
            bgp_id: p.router.0,
            address: PeerAddress::V4(p.router.0),
            asn: p.observer_as().0,
            as4: true,
        })
        .collect();
    emit(MrtRecord {
        timestamp,
        body: MrtBody::PeerIndexTable(PeerIndexTable {
            collector_id: COLLECTOR,
            view_name: view_name.into(),
            peers,
        }),
    });
    let index: BTreeMap<u32, u16> = points
        .iter()
        .enumerate()
        .map(|(i, p)| (p.id, i as u16))
        .collect();
    let mut by_prefix: BTreeMap<Prefix, Vec<&RouteObservation>> = BTreeMap::new();
    for o in observations {
        by_prefix.entry(o.prefix).or_default().push(o);
    }
    for (seq, (prefix, group)) in by_prefix.into_iter().enumerate() {
        let entries = group
            .iter()
            .map(|o| RibEntry {
                peer_index: index[&o.point],
                originated_time,
                attributes: path_attrs(&o.as_path, o.point),
            })
            .collect();
        emit(MrtRecord {
            timestamp,
            body: MrtBody::RibIpv4Unicast(RibIpv4Unicast {
                sequence: seq as u32,
                prefix: nlri(prefix),
                entries,
            }),
        });
    }
}

/// One BGP4MP UPDATE from `point`'s feed at `timestamp`: an announcement
/// of `prefix` over `path`, or its withdrawal when `path` is `None`.
pub(crate) fn update_record(
    timestamp: u32,
    point: &ObservationPoint,
    prefix: Prefix,
    path: Option<&AsPath>,
) -> MrtRecord {
    let prefixes = vec![nlri(prefix)];
    let update = match path {
        Some(path) => BgpUpdate {
            withdrawn: Vec::new(),
            attributes: path_attrs(path, point.id),
            announced: prefixes,
        },
        None => BgpUpdate {
            withdrawn: prefixes,
            attributes: Vec::new(),
            announced: Vec::new(),
        },
    };
    MrtRecord {
        timestamp,
        body: MrtBody::Bgp4mp(Bgp4mpMessage {
            peer_asn: point.observer_as().0,
            local_asn: 65_000,
            interface: 0,
            peer_ip: point.router.0,
            local_ip: COLLECTOR,
            as4: true,
            message: BgpMessage::Update(update),
        }),
    }
}

/// The feed directory a PEER_INDEX_TABLE describes: feed `i` is peer `i`.
pub(crate) fn feed_points(table: &PeerIndexTable) -> Vec<ObservationPoint> {
    table
        .peers
        .iter()
        .enumerate()
        .map(|(i, p)| ObservationPoint {
            id: i as u32,
            router: RouterId(p.bgp_id),
        })
        .collect()
}

/// The AS hosting feed `point`, or [`Asn::RESERVED`] for an unknown feed.
pub(crate) fn observer_of(points: &[ObservationPoint], point: u32) -> Asn {
    points
        .get(point as usize)
        .map_or(Asn::RESERVED, |p| p.observer_as())
}

/// Serializes feeds as one PEER_INDEX_TABLE followed by one
/// RIB_IPV4_UNICAST record per prefix, written record by record.
pub fn export_table_dump_v2(
    points: &[ObservationPoint],
    observations: &[RouteObservation],
) -> Vec<u8> {
    let mut w = MrtWriter::new(Vec::new());
    // One hour of stability before the snapshot (§3.1).
    write_rib_dump(
        points,
        observations,
        "quasar",
        SNAPSHOT_TIME,
        SNAPSHOT_TIME - 3_600,
        |r| w.write_record(&r).expect("in-memory write"),
    );
    w.finish().expect("in-memory flush")
}

/// Parses a TABLE_DUMP_V2 dump back into feeds, keeping the routes whose
/// AS_PATH survives [`PathAttribute::cleaned_as_path`] (§3.1: no AS_SETs,
/// prepending stripped).
pub fn import_table_dump_v2(data: &[u8]) -> Result<(Vec<ObservationPoint>, Vec<RouteObservation>)> {
    let mut reader = MrtReader::new(data);
    let mut points: Vec<ObservationPoint> = Vec::new();
    let mut observations = Vec::new();

    while let Some(rec) = reader.next_record()? {
        match rec.body {
            MrtBody::PeerIndexTable(t) => points = feed_points(&t),
            MrtBody::RibIpv4Unicast(rib) => {
                let prefix = Prefix::new(rib.prefix.base, rib.prefix.len);
                for e in rib.entries {
                    let Some(path) = PathAttribute::cleaned_as_path(&e.attributes) else {
                        continue;
                    };
                    let point = e.peer_index as u32;
                    observations.push(RouteObservation {
                        point,
                        observer_as: observer_of(&points, point),
                        prefix,
                        as_path: AsPath::from_u32s(&path),
                    });
                }
            }
            _ => {}
        }
    }
    Ok((points, observations))
}

/// Parses a *legacy* TABLE_DUMP archive (the format RouteViews used in
/// November 2005, when the paper's snapshot was taken). Each record is one
/// (prefix, peer) route; peers are identified by their IP and assigned
/// feed ids in order of first appearance. AS-paths are cleaned like the
/// V2 importer's, by [`PathAttribute::cleaned_as_path`].
pub fn import_table_dump(data: &[u8]) -> Result<(Vec<ObservationPoint>, Vec<RouteObservation>)> {
    let mut reader = MrtReader::new(data);
    let mut peer_ids: BTreeMap<u32, (u32, Asn)> = BTreeMap::new(); // ip -> (id, asn)
    let mut observations = Vec::new();

    while let Some(rec) = reader.next_record()? {
        let MrtBody::TableDump(entry) = rec.body else {
            continue;
        };
        let next_id = peer_ids.len() as u32;
        let (point, observer_as) = *peer_ids
            .entry(entry.peer_ip)
            .or_insert((next_id, Asn(entry.peer_asn as u32)));
        let Some(path) = PathAttribute::cleaned_as_path(&entry.attributes) else {
            continue;
        };
        observations.push(RouteObservation {
            point,
            observer_as,
            prefix: Prefix::new(entry.prefix.base, entry.prefix.len),
            as_path: AsPath::from_u32s(&path),
        });
    }
    let points = peer_ids
        .into_iter()
        .map(|(ip, (id, _asn))| ObservationPoint {
            id,
            router: RouterId(ip),
        })
        .collect();
    Ok((points, observations))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NetGenConfig;
    use crate::observe::SyntheticInternet;

    #[test]
    fn export_import_roundtrip() {
        let net = SyntheticInternet::generate(NetGenConfig::tiny(11));
        let bytes = export_table_dump_v2(&net.observation_points, &net.observations);
        let (points, obs) = import_table_dump_v2(&bytes).unwrap();
        assert_eq!(points.len(), net.observation_points.len());
        // Observations survive modulo ordering (export groups by prefix).
        assert_eq!(obs.len(), net.observations.len());
        let mut a: Vec<_> = obs
            .iter()
            .map(|o| (o.prefix, o.point, o.as_path.clone()))
            .collect();
        let mut b: Vec<_> = net
            .observations
            .iter()
            .map(|o| (o.prefix, o.point, o.as_path.clone()))
            .collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn legacy_table_dump_import() {
        // Hand-build a legacy archive: two peers, three routes.
        let mk = |seq: u16, peer_ip: u32, peer_asn: u16, path: &[u32], base: u32| MrtRecord {
            timestamp: SNAPSHOT_TIME,
            body: MrtBody::TableDump(TableDumpEntry {
                view: 0,
                sequence: seq,
                prefix: NlriPrefix::new(base, 24).unwrap(),
                status: 1,
                originated_time: SNAPSHOT_TIME - 7_200,
                peer_ip,
                peer_asn,
                attributes: vec![
                    PathAttribute::Origin(0),
                    PathAttribute::AsPath(vec![AsPathSegment::sequence(path.to_vec())]),
                ],
            }),
        };
        let mut w = MrtWriter::new(Vec::new());
        for rec in [
            mk(0, 0xC0000201, 10, &[10, 20, 30], 0x0A000000),
            mk(1, 0xC0000202, 11, &[11, 11, 30], 0x0A000000), // prepended
            mk(2, 0xC0000201, 10, &[10, 40], 0x0B000000),
        ] {
            w.write_record(&rec).unwrap();
        }
        let bytes = w.finish().unwrap();
        let (points, obs) = import_table_dump(&bytes).unwrap();
        assert_eq!(points.len(), 2);
        assert_eq!(obs.len(), 3);
        // Prepending was stripped; observer ASes follow the peer ASN.
        let prepended = obs
            .iter()
            .find(|o| o.observer_as == Asn(11))
            .expect("peer 11 present");
        assert_eq!(prepended.as_path.to_string(), "11 30");
        // Both routes of peer 10 share a feed id.
        let ids: Vec<u32> = obs
            .iter()
            .filter(|o| o.observer_as == Asn(10))
            .map(|o| o.point)
            .collect();
        assert_eq!(ids.len(), 2);
        assert_eq!(ids[0], ids[1]);
    }

    #[test]
    fn empty_inputs() {
        let bytes = export_table_dump_v2(&[], &[]);
        let (points, obs) = import_table_dump_v2(&bytes).unwrap();
        assert!(points.is_empty());
        assert!(obs.is_empty());
    }
}
