//! Runs the §3.1 AS_PATH cleaning table (`crates/mrt/tests/fixtures/
//! as_path_cases.rs`) through every MRT reader — the TABLE_DUMP_V2
//! import, the legacy TABLE_DUMP import, `reconstruct_stable` over a
//! BGP4MP replay, and the live `PathState` — and checks that all four keep
//! exactly the routes the table says survive, with the paths it gives.

use quasar::bgpsim::aspath::AsPath;
use quasar::bgpsim::types::{Asn, Prefix, RouterId};
use quasar::mrt::prelude::*;
use quasar::netgen::prelude::*;
use quasar::stream::prelude::PathState;
use std::collections::BTreeSet;

include!("../crates/mrt/tests/fixtures/as_path_cases.rs");

/// Case `i` is one route of one feed in AS 10, for [`prefix`]`(i)`.
const OBSERVER: Asn = Asn(10);
const TIME: u32 = 1_000_000;

fn prefix(i: usize) -> Prefix {
    Prefix::new(0x0A00_0000 + ((i as u32) << 8), 24)
}

fn nlri(i: usize) -> NlriPrefix {
    NlriPrefix::new(prefix(i).base, 24).unwrap()
}

fn encode(records: &[MrtRecord]) -> Vec<u8> {
    let mut w = MrtWriter::new(Vec::new());
    for r in records {
        w.write_record(r).unwrap();
    }
    w.finish().unwrap()
}

/// The `(prefix, path)` routes a reader kept.
fn kept<'a>(routes: impl Iterator<Item = (Prefix, &'a AsPath)>) -> BTreeSet<(Prefix, Vec<u32>)> {
    routes
        .map(|(prefix, path)| (prefix, path.iter().map(|a| a.0).collect()))
        .collect()
}

fn observed(obs: &[RouteObservation]) -> BTreeSet<(Prefix, Vec<u32>)> {
    kept(obs.iter().map(|o| (o.prefix, &o.as_path)))
}

#[test]
fn every_mrt_reader_cleans_as_paths_by_the_same_table() {
    let cases = as_path_cases();
    let router = RouterId::new(OBSERVER, 0).0;
    let expected: BTreeSet<(Prefix, Vec<u32>)> = cases
        .iter()
        .enumerate()
        .filter_map(|(i, (_, _, want))| Some((prefix(i), want.clone()?)))
        .collect();
    assert_eq!(expected.len(), 3, "the table keeps three of its routes");

    let peer_table = MrtRecord {
        timestamp: TIME,
        body: MrtBody::PeerIndexTable(PeerIndexTable {
            collector_id: 1,
            view_name: "cleaning".into(),
            peers: vec![PeerEntry {
                bgp_id: router,
                address: PeerAddress::V4(router),
                asn: OBSERVER.0,
                as4: true,
            }],
        }),
    };

    // TABLE_DUMP_V2: one RIB record per case.
    let mut dump = vec![peer_table.clone()];
    dump.extend(
        cases
            .iter()
            .enumerate()
            .map(|(i, (_, attrs, _))| MrtRecord {
                timestamp: TIME,
                body: MrtBody::RibIpv4Unicast(RibIpv4Unicast {
                    sequence: i as u32,
                    prefix: nlri(i),
                    entries: vec![RibEntry {
                        peer_index: 0,
                        originated_time: TIME,
                        attributes: attrs.clone(),
                    }],
                }),
            }),
    );
    let (_, v2) = import_table_dump_v2(&encode(&dump)).unwrap();

    // Legacy TABLE_DUMP: one (prefix, peer) record per case.
    let legacy: Vec<MrtRecord> = cases
        .iter()
        .enumerate()
        .map(|(i, (_, attrs, _))| MrtRecord {
            timestamp: TIME,
            body: MrtBody::TableDump(TableDumpEntry {
                view: 0,
                sequence: i as u16,
                prefix: nlri(i),
                status: 1,
                originated_time: TIME,
                peer_ip: router,
                peer_asn: OBSERVER.0 as u16,
                attributes: attrs.clone(),
            }),
        })
        .collect();
    let (_, old) = import_table_dump(&encode(&legacy)).unwrap();

    // A BGP4MP replay: the peer table, then one announcement per case.
    let mut replay = vec![peer_table];
    replay.extend(
        cases
            .iter()
            .enumerate()
            .map(|(i, (_, attrs, _))| MrtRecord {
                timestamp: TIME,
                body: MrtBody::Bgp4mp(Bgp4mpMessage {
                    peer_asn: OBSERVER.0,
                    local_asn: 65_000,
                    interface: 0,
                    peer_ip: router,
                    local_ip: 1,
                    as4: true,
                    message: BgpMessage::Update(BgpUpdate {
                        withdrawn: Vec::new(),
                        attributes: attrs.clone(),
                        announced: vec![nlri(i)],
                    }),
                }),
            }),
    );
    let (_, stable) = reconstruct_stable(&replay, TIME, 0);
    let mut live = PathState::new();
    live.apply(&replay);
    let dataset = live.dataset();
    let live_routes = kept(dataset.routes().iter().map(|r| (r.prefix, &r.as_path)));

    assert_eq!(observed(&v2), expected, "TABLE_DUMP_V2 import");
    assert_eq!(observed(&old), expected, "legacy TABLE_DUMP import");
    assert_eq!(observed(&stable), expected, "reconstruct_stable");
    assert_eq!(live_routes, expected, "PathState::dataset");
}
