//! A trained model must survive JSON persistence with identical routing
//! and identical prediction metrics — "train once, what-if forever".

use quasar::model::prelude::*;
use quasar::netgen::prelude::*;

#[test]
fn trained_model_roundtrips_through_json() {
    let net = SyntheticInternet::generate(NetGenConfig::tiny(606));
    let dataset = quasar::dataset_from(&net);
    let (training, validation) = dataset.split_by_point(0.5, 3);

    let mut model = AsRoutingModel::initial(&dataset.as_graph(), &dataset.prefixes());
    refine(&mut model, &training, &RefineConfig::default()).unwrap();

    let json = model.to_json().expect("serializes");
    let restored = AsRoutingModel::from_json(&json).expect("deserializes");

    assert_eq!(restored.stats(), model.stats());
    assert_eq!(
        evaluate(&restored, &validation),
        evaluate(&model, &validation)
    );
    assert_eq!(evaluate(&restored, &training), evaluate(&model, &training));

    // The restored model is still refinable and editable.
    let mut editable = restored.clone();
    let (a, b) = {
        let mut edges = dataset
            .routes()
            .iter()
            .flat_map(|r| r.as_path.edges())
            .collect::<Vec<_>>();
        edges.sort();
        edges[0]
    };
    editable.depeer(a, b);
    for &p in editable.prefixes().keys().take(3) {
        editable.simulate(p).expect("edited model still converges");
    }
}

// ---------------------------------------------------------------------------
// The compact artifact: §4.6 rules as tuples, everything else as objects
// ---------------------------------------------------------------------------

use quasar::bgpsim::prelude::*;
use quasar::model::persist::{load_model, save_artifact, save_model, PersistError, KIND_MODEL};
use serde_json::Value;
use std::path::PathBuf;

/// A `model`-kind artifact (every rule an object) of [`fixture_model`],
/// written by the release before the tuple form existed.
const V1_FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/model-v1.quasar"
);

/// A small network trained by the shipping recipe on one thread. Its
/// chains hold both §4.6 shapes and §4.7 prefix-less defaults.
fn fixture_model() -> AsRoutingModel {
    let net = SyntheticInternet::generate(NetGenConfig {
        num_tier1: 2,
        num_tier2: 2,
        num_tier3: 3,
        num_stubs: 4,
        num_observation_ases: 4,
        ..NetGenConfig::tiny(5)
    });
    let dataset = quasar::dataset_from(&net);
    let cfg = TrainConfig {
        refine: RefineConfig {
            threads: 1,
            ..RefineConfig::default()
        },
        ..TrainConfig::default()
    };
    train(&dataset, &dataset, &cfg).expect("fixture trains").0
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("quasar-model-persistence-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir.join(name)
}

fn saved_bytes(model: &AsRoutingModel, name: &str) -> Vec<u8> {
    let path = scratch(name);
    save_model(&path, model).expect("model saves");
    let bytes = std::fs::read(&path).expect("read back");
    let _ = std::fs::remove_file(&path);
    bytes
}

#[test]
fn older_artifacts_load_and_resave_compact() {
    let v1 = std::fs::read(V1_FIXTURE).expect("fixture present");
    assert!(
        v1.starts_with(b"QUASAR1 model "),
        "fixture is a `model` frame"
    );
    let fresh = saved_bytes(&fixture_model(), "fresh.quasar");
    assert!(fresh.starts_with(format!("QUASAR1 {KIND_MODEL} ").as_bytes()));

    let loaded = load_model(V1_FIXTURE).expect("a `model` frame loads");
    assert_eq!(saved_bytes(&loaded, "resaved.quasar"), fresh);
    assert!(
        fresh.len() * 3 < v1.len(),
        "compact {} bytes vs object form {} bytes",
        fresh.len(),
        v1.len()
    );

    // The same payload as bare JSON, from before the frame existed, is
    // refused: every load checks the frame.
    let newline = v1.iter().position(|&b| b == b'\n').expect("header line");
    let bare = scratch("bare.json");
    std::fs::write(&bare, &v1[newline + 1..]).expect("write bare JSON");
    let refused = load_model(&bare);
    let _ = std::fs::remove_file(&bare);
    assert!(
        matches!(refused, Err(PersistError::BadHeader { offset: 0, .. })),
        "bare JSON must be a bad header: {refused:?}"
    );
}

fn pfx(i: u32) -> Prefix {
    Prefix::new(0x0A00_0000 + (i << 8), 24)
}

fn med(prefix: Prefix, m: u32) -> PolicyRule {
    PolicyRule::new(RouteMatch::prefix(prefix), Action::SetMed(m))
}

fn floor(prefix: Prefix, n: usize) -> PolicyRule {
    PolicyRule::new(
        RouteMatch {
            path_shorter_than: Some(n),
            ..RouteMatch::prefix(prefix)
        },
        Action::Deny,
    )
}

/// Every rule shape other than the two §4.6 ones, including near misses
/// of them and a §4.6 shape whose prefix no tuple can carry.
fn object_rules() -> Vec<PolicyRule> {
    let p = pfx(1);
    let with = |m: RouteMatch, a| PolicyRule::new(m, a);
    vec![
        with(RouteMatch::any(), Action::SetMed(10)),
        with(
            RouteMatch {
                from_asn: Some(Asn(7)),
                ..RouteMatch::any()
            },
            Action::SetLocalPref(90),
        ),
        with(
            RouteMatch {
                origin_asn: Some(Asn(8)),
                ..RouteMatch::prefix(p)
            },
            Action::Deny,
        ),
        with(
            RouteMatch {
                local_pref_below: Some(100),
                ..RouteMatch::any()
            },
            Action::Deny,
        ),
        with(
            RouteMatch {
                has_community: Some(65_000),
                ..RouteMatch::any()
            },
            Action::Accept,
        ),
        with(
            RouteMatch {
                path_pattern: AsPathPattern::parse("_2_"),
                ..RouteMatch::any()
            },
            Action::AddCommunity(3),
        ),
        with(RouteMatch::prefix(p), Action::RemoveCommunity(3)),
        with(RouteMatch::prefix(p), Action::Accept),
        with(RouteMatch::prefix(p), Action::Deny),
        with(
            RouteMatch {
                from_asn: Some(Asn(7)),
                ..RouteMatch::prefix(p)
            },
            Action::SetMed(5),
        ),
        with(
            RouteMatch {
                path_shorter_than: Some(3),
                ..RouteMatch::prefix(p)
            },
            Action::SetMed(5),
        ),
        with(
            RouteMatch {
                from_asn: Some(Asn(7)),
                ..floor(p, 3).matcher
            },
            Action::Deny,
        ),
        with(
            RouteMatch {
                path_shorter_than: Some(3),
                ..RouteMatch::any()
            },
            Action::Deny,
        ),
    ]
}

#[test]
fn interleaved_chain_round_trips_in_order() {
    let others = object_rules();
    let mut rules = Vec::new();
    for (i, other) in others.iter().enumerate() {
        let i = i as u32;
        rules.push(med(pfx(i), i * 10));
        rules.push(other.clone());
        rules.push(floor(pfx(i), 1 + i as usize));
    }
    rules.push(med(Prefix::new(0, 0), u32::MAX));
    rules.push(floor(Prefix::new(u32::MAX, 32), usize::MAX));
    let policy = Policy::new(rules.clone());
    let json = serde_json::to_string(&policy).expect("policy serializes");
    assert!(
        json.starts_with(r#"{"rules":[[167772160,24,"m",0],{"#),
        "{json}"
    );
    let Ok(Value::Object(top)) = serde_json::from_str(&json) else {
        panic!("not an object: {json}")
    };
    let [(_, Value::Array(elems))] = top.as_slice() else {
        panic!("not one rule list: {json}")
    };
    assert_eq!(elems.len(), rules.len());
    for (i, (elem, rule)) in elems.iter().zip(&rules).enumerate() {
        let object = i < 3 * others.len() && i % 3 == 1;
        assert_eq!(
            matches!(elem, Value::Object(_)),
            object,
            "element {i} {elem:?} for {rule:?}"
        );
    }
    let back: Policy = serde_json::from_str(&json).expect("policy reads back");
    assert_eq!(back.rules(), rules.as_slice());
    assert_eq!(serde_json::to_string(&back).unwrap(), json);
}

#[test]
fn object_form_rules_round_trip_unchanged() {
    for rule in object_rules() {
        let policy = Policy::new(vec![rule.clone()]);
        let json = serde_json::to_string(&policy).expect("policy serializes");
        let object = serde_json::to_string(&rule).expect("rule serializes");
        assert_eq!(json, format!(r#"{{"rules":[{object}]}}"#));
        let back: Policy = serde_json::from_str(&json).expect("policy reads back");
        assert_eq!(back.rules(), [rule].as_slice());
    }
}

/// A prefix `Prefix::new` would refuse (`len` 33) or mask (host bits)
/// does not load in either rule form.
#[test]
fn non_canonical_prefixes_are_typed_json_errors() {
    let json = fixture_model().to_json().expect("model serializes");
    let tag = json.find(r#","f","#).expect("a floor tuple");
    let start = json[..tag].rfind('[').expect("tuple start");
    let end = tag + json[tag..].find(']').expect("tuple end") + 1;
    let path = scratch("non-canonical.quasar");
    let mut bad = vec![r#"[1,24,"m",5]"#.to_string()];
    for prefix in [Prefix { base: 1, len: 33 }, Prefix { base: 1, len: 24 }] {
        bad.push(serde_json::to_string(&med(prefix, 5)).expect("rule serializes"));
    }
    for bad in bad {
        let payload = format!("{}{bad}{}", &json[..start], &json[end..]);
        save_artifact(&path, KIND_MODEL, payload.as_bytes()).expect("frame writes");
        match load_model(&path) {
            Err(PersistError::Json { .. }) => {}
            other => panic!("rule {bad}: expected a Json error, got {other:?}"),
        }
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn malformed_rule_tuples_are_typed_json_errors() {
    let json = fixture_model().to_json().expect("model serializes");
    // The first tuple element in the payload.
    let tag = json.find(r#","f","#).expect("a floor tuple");
    let start = json[..tag].rfind('[').expect("tuple start");
    let end = tag + json[tag..].find(']').expect("tuple end") + 1;
    let path = scratch("malformed.quasar");
    for bad in [
        "[]",
        "[1]",
        r#"[1,24,"f"]"#,
        r#"[1,24,"f",1,2]"#,
        r#"[1,24,"x",1]"#,
        r#"[1,24,"",1]"#,
        r#"[1,24,7,1]"#,
        r#"[4294967296,24,"m",1]"#,
        r#"[-1,24,"m",1]"#,
        r#"[1,256,"m",1]"#,
        r#"[1,33,"f",1]"#,
        r#"[1,24,"m",4294967296]"#,
        r#"[1,24,"m",-1]"#,
        r#"[1,24,"f",1.5]"#,
        r#"[1,24,"f",18446744073709551616]"#,
        r#"[1,24,"m",null]"#,
    ] {
        let payload = format!("{}{bad}{}", &json[..start], &json[end..]);
        save_artifact(&path, KIND_MODEL, payload.as_bytes()).expect("frame writes");
        match load_model(&path) {
            Err(PersistError::Json { .. }) => {}
            other => panic!("tuple {bad}: expected a Json error, got {other:?}"),
        }
    }
    // The splice itself is sound: the original tuple loads.
    let good = format!("{}{}{}", &json[..start], &json[start..end], &json[end..]);
    save_artifact(&path, KIND_MODEL, good.as_bytes()).expect("frame writes");
    load_model(&path).expect("the unedited payload loads");
    let _ = std::fs::remove_file(&path);
}
