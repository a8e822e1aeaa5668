//! Pins the exact bytes of four serialized outputs by FNV-1a and length:
//! a trained model artifact, a refinement log, a pretty-printed
//! record that exercises every JSON rendering rule, and the server's
//! replies to a fixed request script. Any change to the JSON codec that
//! moves a single byte of a persisted or served document fails here.

use quasar::model::persist::{fnv1a, LOG_FILE};
use quasar::model::prelude::*;
use quasar::netgen::prelude::*;
use quasar::serve::server::ServeConfig;
use quasar::serve::shard::ShardedState;
use serde::Serialize;
use std::collections::{BTreeMap, BTreeSet};

const SEED: u64 = 31;

/// `(fnv1a, len)` of a byte string, the form every pin below takes.
fn pin(bytes: &[u8]) -> (u64, usize) {
    (fnv1a(bytes), bytes.len())
}

/// Trains the tiny netgen preset at [`SEED`] on one thread with a
/// refinement log; returns the model, its dataset and the log's bytes.
fn trained() -> (AsRoutingModel, Dataset, Vec<u8>) {
    let net = SyntheticInternet::generate(NetGenConfig::tiny(SEED));
    let dataset = quasar::dataset_from(&net);
    let mut model = AsRoutingModel::initial(&dataset.as_graph(), &dataset.prefixes());
    let dir = std::env::temp_dir().join(format!("quasar-golden-bytes-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = RefineConfig {
        threads: 1,
        ..RefineConfig::default()
    };
    refine_checkpointed(&mut model, &dataset, &cfg, Some(&dir)).expect("tiny preset trains");
    let payload = std::fs::read(dir.join(LOG_FILE)).expect("log written");
    let _ = std::fs::remove_dir_all(&dir);
    (model, dataset, payload)
}

#[derive(Serialize)]
enum Shape {
    Unit,
    Newtype(u8),
    Pair(i32, f32),
    Named { label: String, none: Option<u8> },
}

#[derive(Serialize)]
struct Inner {
    id: u32,
    tags: BTreeSet<String>,
    weight: f64,
}

#[derive(Serialize)]
struct Record {
    title: String,
    escapes: Vec<String>,
    floats: Vec<f64>,
    ints: (u64, i64, i8, usize),
    by_pair: BTreeMap<(u32, u32), f64>,
    by_name: BTreeMap<String, Inner>,
    by_id: BTreeMap<u16, Vec<u8>>,
    shapes: Vec<Shape>,
    empty_list: Vec<u32>,
    empty_map: BTreeMap<String, u32>,
    empty_pairs: BTreeMap<(u8, u8), u8>,
    nothing: Option<Inner>,
    nested: Vec<Vec<Option<bool>>>,
    #[serde(skip)]
    #[allow(dead_code)]
    hidden: u32,
}

fn record() -> Record {
    Record {
        title: "golden \"bytes\"".into(),
        escapes: vec![
            "tab\tnewline\nreturn\r".into(),
            "back\\slash/solidus".into(),
            "bell\u{7} nul\u{0} us\u{1f} del\u{7f}".into(),
            "é ∑ 😀 \u{fffd}".into(),
            String::new(),
        ],
        floats: vec![
            0.0,
            -0.0,
            1.0,
            -2.5,
            0.1,
            1.0 / 3.0,
            1e15,
            1e-7,
            123456789.125,
            f64::MAX,
            f64::MIN_POSITIVE,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ],
        ints: (u64::MAX, i64::MIN, -7, 0),
        by_pair: [((1, 2), 0.5), ((3, 4), 2.0)].into_iter().collect(),
        by_name: [
            (
                "a\"b".to_string(),
                Inner {
                    id: 1,
                    tags: ["x", "y"].into_iter().map(String::from).collect(),
                    weight: 1.25,
                },
            ),
            (
                "zed".to_string(),
                Inner {
                    id: 2,
                    tags: BTreeSet::new(),
                    weight: -0.0,
                },
            ),
        ]
        .into_iter()
        .collect(),
        by_id: [(7, vec![1, 2]), (65535, vec![])].into_iter().collect(),
        shapes: vec![
            Shape::Unit,
            Shape::Newtype(9),
            Shape::Pair(-1, 0.25),
            Shape::Named {
                label: "n".into(),
                none: None,
            },
        ],
        empty_list: Vec::new(),
        empty_map: BTreeMap::new(),
        empty_pairs: BTreeMap::new(),
        nothing: None,
        nested: vec![vec![], vec![Some(true), None, Some(false)]],
        hidden: 42,
    }
}

/// Predict, explain, diff and stats lines over the model's first
/// prefixes and their observers.
fn script(model: &AsRoutingModel, dataset: &Dataset) -> Vec<String> {
    let mut lines = Vec::new();
    for &prefix in model.prefixes().keys().take(3) {
        let observers: BTreeSet<u32> = dataset
            .routes_for(prefix)
            .map(|r| r.observer_as.0)
            .take(2)
            .collect();
        for observer in observers {
            lines.push(format!(
                r#"{{"type":"predict","prefix":"{prefix}","observer":{observer}}}"#
            ));
            lines.push(format!(
                r#"{{"type":"explain","prefix":"{prefix}","observer":{observer}}}"#
            ));
        }
    }
    let route = dataset
        .routes()
        .iter()
        .find(|r| r.as_path.len() > 1)
        .expect("a multi-hop route");
    let (a, b) = route.as_path.edges().next().expect("an edge");
    lines.push(format!(
        r#"{{"type":"diff","changes":[{{"action":"depeer","a":{},"b":{}}}]}}"#,
        a.0, b.0
    ));
    lines.push(format!(
        r#"{{"type":"diff","changes":[{{"action":"depeer","a":{},"b":{}}}],"prefixes":["{}"]}}"#,
        a.0, b.0, route.prefix
    ));
    let path: Vec<String> = route.as_path.iter().map(|a| a.0.to_string()).collect();
    lines.push(format!(
        r#"{{"type":"predict","prefix":"{}","observer":{},"observed_path":[{}]}}"#,
        route.prefix,
        route.observer_as.0,
        path.join(",")
    ));
    lines.push(r#"{"type":"stats"}"#.to_string());
    lines
}

#[test]
fn serialized_outputs_match_pinned_bytes() {
    let (model, dataset, checkpoint) = trained();

    let artifact = model.to_json().expect("model serializes");
    let pretty = serde_json::to_string_pretty(&record()).expect("record serializes");

    let state = ShardedState::new(model.clone(), ServeConfig::default(), 2);
    let mut replies = String::new();
    for line in script(&model, &dataset) {
        let reply = serde_json::to_string(&state.handle_line(&line)).expect("reply serializes");
        replies.push_str(&reply);
        replies.push('\n');
    }

    let got = [
        ("model artifact", pin(artifact.as_bytes())),
        ("checkpoint payload", pin(&checkpoint)),
        ("pretty record", pin(pretty.as_bytes())),
        ("reply script", pin(replies.as_bytes())),
    ];
    let want = [
        ("model artifact", (0x5380_8d1d_ac0c_944a, 237_009)),
        ("checkpoint payload", (0xabd7_1ba6_037a_1374, 129_279)),
        ("pretty record", (0x2e44_288e_9f2c_b27a, 1_755)),
        ("reply script", (0x4ad2_35ff_a652_2378, 27_924)),
    ];
    assert_eq!(got, want, "pretty record rendered as:\n{pretty}");
}
