//! Pins the exact bytes of the MRT archives netgen writes and of the feeds
//! its readers recover from them, by FNV-1a and length, at three tiny
//! seeds: the TABLE_DUMP_V2 export, the RIB dump + UPDATE stream, the
//! before→after transition stream of a graph-preserving perturbation, and
//! the sorted observations `import_table_dump_v2` and `reconstruct_stable`
//! return. Any change to the archive layout or to the §3.1 path cleaning
//! that moves one byte or one route fails here.

use quasar::model::persist::fnv1a;
use quasar::mrt::prelude::*;
use quasar::netgen::prelude::*;

/// `(fnv1a, len)` of a byte string, the form every pin below takes.
fn pin(bytes: &[u8]) -> (u64, usize) {
    (fnv1a(bytes), bytes.len())
}

fn encode(records: &[MrtRecord]) -> Vec<u8> {
    let mut w = MrtWriter::new(Vec::new());
    for r in records {
        w.write_record(r).expect("in-memory write");
    }
    w.finish().expect("in-memory flush")
}

/// A numeric rendering of a feed directory and its sorted observations,
/// independent of any `Display` or JSON formatting.
fn feed_bytes(points: &[ObservationPoint], observations: &[RouteObservation]) -> Vec<u8> {
    let mut rows: Vec<(u32, u32, u32, u8, Vec<u32>)> = observations
        .iter()
        .map(|o| {
            (
                o.point,
                o.observer_as.0,
                o.prefix.base,
                o.prefix.len,
                o.as_path.iter().map(|a| a.0).collect(),
            )
        })
        .collect();
    rows.sort();
    let mut out = String::new();
    for p in points {
        out.push_str(&format!("P {} {}\n", p.id, p.router.0));
    }
    for (point, observer, base, len, path) in rows {
        out.push_str(&format!("R {point} {observer} {base}/{len}"));
        for a in path {
            out.push_str(&format!(" {a}"));
        }
        out.push('\n');
    }
    out.into_bytes()
}

/// The five pinned outputs at one seed: export, update stream, transition
/// stream, V2 import of the export, stable reconstruction of the stream.
fn pins(seed: u64) -> [(u64, usize); 5] {
    let net = SyntheticInternet::generate(NetGenConfig::tiny(seed));
    let points = &net.observation_points;
    let export = export_table_dump_v2(points, &net.observations);
    let cfg = UpdateStreamConfig::default();
    let updates = generate_update_stream(points, &net.observations, &cfg, seed);
    let perturbation = perturb_observations(
        points,
        &net.observations,
        &PerturbationConfig::graph_preserving(6),
        seed,
    );
    let transition = transition_stream(points, &net.observations, &perturbation.after, &cfg, seed);
    let (v2_points, v2_obs) = import_table_dump_v2(&export).expect("export decodes");
    let (st_points, st_obs) = reconstruct_stable(&updates, cfg.snapshot_time, cfg.stability_window);
    [
        pin(&export),
        pin(&encode(&updates)),
        pin(&encode(&transition)),
        pin(&feed_bytes(&v2_points, &v2_obs)),
        pin(&feed_bytes(&st_points, &st_obs)),
    ]
}

#[test]
fn archives_and_imported_feeds_match_pinned_bytes() {
    let expected: [(u64, [(u64, usize); 5]); 3] = [
        (
            1,
            [
                (16630135568186158945, 77817),
                (10961219492652302163, 109356),
                (745777404796149934, 78370),
                (1936259814675522277, 70997),
                (11293789343659918083, 66021),
            ],
        ),
        (
            5,
            [
                (16062551887123414241, 81495),
                (433549011368918235, 111310),
                (3296311341328026283, 82048),
                (1265251469576480201, 74892),
                (11711284472833502441, 69652),
            ],
        ),
        (
            13,
            [
                (13678826073267874440, 71335),
                (13914444036345464178, 99791),
                (1414580688806667404, 71896),
                (14355343174849235818, 65970),
                (2860648176695202930, 60851),
            ],
        ),
    ];
    for (seed, want) in expected {
        assert_eq!(pins(seed), want, "seed {seed}");
    }
}
