//! The JSON codec's contract at its edges: escapes, integer and float
//! extremes, structured map keys, field matching, the nesting limit, and
//! hostile model artifacts that pass the frame check but not the parser.

use quasar::model::persist::{fnv1a, load_model, save_model, PersistError, MAGIC};
use quasar_testkit::workload::toy_model;
use serde::de::MAX_DEPTH;
use serde::{Deserialize, Serialize};
use serde_json::{from_str, to_string, Category, Value};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

fn roundtrip<T>(value: &T) -> T
where
    T: Serialize + for<'de> Deserialize<'de>,
{
    from_str(&to_string(value).unwrap()).unwrap()
}

#[test]
fn control_characters_are_escaped_and_read_back() {
    let s = "q\" b\\ n\n r\r t\t nul\u{0} bell\u{7} us\u{1f} del\u{7f} é";
    let json = to_string(s).unwrap();
    assert_eq!(
        json,
        "\"q\\\" b\\\\ n\\n r\\r t\\t nul\\u0000 bell\\u0007 us\\u001f del\u{7f} é\""
    );
    assert_eq!(roundtrip(&s.to_string()), s);
    // The short escapes the writer never emits still read back.
    assert_eq!(from_str::<String>(r#""\/\b\fé""#).unwrap(), "/\u{8}\u{c}é");
}

#[test]
fn surrogate_pairs_decode_and_broken_ones_are_errors() {
    assert_eq!(from_str::<String>(r#""\ud83d\ude00""#).unwrap(), "😀");
    assert_eq!(from_str::<String>(r#""a\uD834\uDD1Eb""#).unwrap(), "a𝄞b");
    for bad in [
        r#""\ud800""#,       // lone high half
        r#""\ud800x""#,      // high half, no escape after
        r#""\ud800\u0041""#, // high half, low half out of range
        r#""\udc00""#,       // lone low half
        r#""\u12""#,         // truncated
        r#""\u+041""#,       // not four hex digits
        r#""\q""#,           // unknown escape
        r#""unterminated"#,
    ] {
        assert!(from_str::<String>(bad).is_err(), "{bad}");
    }
}

#[test]
fn integer_extremes_roundtrip_exactly() {
    assert_eq!(to_string(&u64::MAX).unwrap(), "18446744073709551615");
    assert_eq!(to_string(&i64::MIN).unwrap(), "-9223372036854775808");
    assert_eq!(roundtrip(&u64::MAX), u64::MAX);
    assert_eq!(roundtrip(&i64::MIN), i64::MIN);
    assert_eq!(
        roundtrip(&(i8::MIN, u16::MAX, -1i32)),
        (i8::MIN, u16::MAX, -1)
    );
    // Out of range for the target type, or not an integer at all.
    assert!(from_str::<u8>("256").is_err());
    assert!(from_str::<u32>("-1").is_err());
    assert!(from_str::<i64>("9223372036854775808").is_err());
    assert!(from_str::<u64>("1.5").is_err());
    // Integral floats and integer strings (how integer map keys come
    // back) are accepted.
    assert_eq!(from_str::<u32>("7.0").unwrap(), 7);
    assert_eq!(from_str::<u32>(r#""42""#).unwrap(), 42);
}

#[test]
fn integral_floats_beyond_the_integer_range_are_errors() {
    // Above u64::MAX the number token is read as a float; it must not
    // saturate into the largest integer.
    assert!(from_str::<u64>("18446744073709551616").is_err());
    assert!(from_str::<u64>("1.8446744073709552e19").is_err());
    assert!(from_str::<usize>("1e30").is_err());
    assert!(from_str::<i64>("-9.3e18").is_err());
    assert!(from_str::<i64>("9.3e18").is_err());
    // Integer text beyond the range is refused, not rounded to a float.
    assert!(from_str::<i64>("-9223372036854775809").is_err());
    assert!(from_str::<i64>("9223372036854775808").is_err());
    assert_eq!(from_str::<u64>("1e19").unwrap(), 10_000_000_000_000_000_000);
    assert_eq!(
        from_str::<i64>("-9.2e18").unwrap(),
        -9_200_000_000_000_000_000
    );
}

#[test]
fn floats_render_like_serde_json() {
    assert_eq!(to_string(&1.0f64).unwrap(), "1.0");
    assert_eq!(to_string(&-0.0f64).unwrap(), "-0.0");
    assert_eq!(to_string(&0.1f64).unwrap(), "0.1");
    assert_eq!(to_string(&2.5f32).unwrap(), "2.5");
    assert_eq!(to_string(&1e15f64).unwrap(), "1000000000000000");
    for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        assert_eq!(to_string(&v).unwrap(), "null");
    }
    assert!(from_str::<f64>("null").unwrap().is_nan());
    for v in [0.1, 1.0 / 3.0, f64::MAX, f64::MIN_POSITIVE, -123.456e-7] {
        assert_eq!(roundtrip(&v), v);
    }
    assert_eq!(from_str::<f64>("12").unwrap(), 12.0);
}

#[test]
fn structured_keys_render_as_pairs_and_scalar_keys_as_objects() {
    let pairs: BTreeMap<(u32, u32), String> =
        [((1, 2), "a".to_string()), ((3, 4), "b".to_string())].into();
    let json = to_string(&pairs).unwrap();
    assert_eq!(json, r#"[[[1,2],"a"],[[3,4],"b"]]"#);
    assert_eq!(roundtrip(&pairs), pairs);

    let ints: BTreeMap<i32, bool> = [(-1, true), (10, false)].into();
    assert_eq!(to_string(&ints).unwrap(), r#"{"-1":true,"10":false}"#);
    assert_eq!(roundtrip(&ints), ints);

    let names: BTreeMap<String, u8> = [("k\"ey".to_string(), 1)].into();
    assert_eq!(to_string(&names).unwrap(), r#"{"k\"ey":1}"#);
    assert_eq!(roundtrip(&names), names);

    let empty: BTreeMap<(u8, u8), u8> = BTreeMap::new();
    assert_eq!(to_string(&empty).unwrap(), "{}");
    assert_eq!(roundtrip(&empty), empty);
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Fields {
    required: u32,
    optional: Option<String>,
    #[serde(default)]
    defaulted: Vec<u8>,
    #[serde(skip)]
    skipped: u32,
}

#[test]
fn missing_unknown_and_duplicate_fields() {
    let full = Fields {
        required: 1,
        optional: Some("x".into()),
        defaulted: vec![2],
        skipped: 9,
    };
    assert_eq!(
        to_string(&full).unwrap(),
        r#"{"required":1,"optional":"x","defaulted":[2]}"#
    );

    // Option and `default` fields may be missing; a required one may not.
    let sparse: Fields = from_str(r#"{"required":5}"#).unwrap();
    assert_eq!(
        sparse,
        Fields {
            required: 5,
            optional: None,
            defaulted: vec![],
            skipped: 0,
        }
    );
    let err = from_str::<Fields>(r#"{"optional":"x"}"#).unwrap_err();
    assert!(
        err.to_string().contains("missing field `required`"),
        "{err}"
    );
    assert_eq!(err.category(), Category::Data);

    // Unknown fields are skipped whatever their shape, but must still be
    // well-formed JSON.
    let skipped: Fields =
        from_str(r#"{"extra":{"a":[1,{"b":null}]},"required":3,"skipped":7}"#).unwrap();
    assert_eq!(skipped.required, 3);
    assert_eq!(skipped.skipped, 0, "a skipped field is never read");
    let err = from_str::<Fields>(r#"{"extra":[1,,2],"required":3}"#).unwrap_err();
    assert_eq!(err.category(), Category::Syntax);

    // The first occurrence of a repeated field wins; later ones are only
    // syntax-checked.
    let dup: Fields = from_str(r#"{"required":1,"required":"not a number"}"#).unwrap();
    assert_eq!(dup.required, 1);

    for bad in [
        r#"{"required":-1}"#,
        r#"{"required":1,"optional":5}"#,
        r#"{"required":1} trailing"#,
        r#"[1]"#,
        "",
    ] {
        assert!(from_str::<Fields>(bad).is_err(), "{bad}");
    }
}

#[test]
fn nesting_is_limited_with_a_typed_error() {
    let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
    assert!(from_str::<Value>(&nested(MAX_DEPTH)).is_ok());
    let err = from_str::<Value>(&nested(MAX_DEPTH + 1)).unwrap_err();
    assert_eq!(err.category(), Category::Depth);
    // Unterminated and far deeper: still an error, not a stack overflow.
    let err = from_str::<Value>(&"[".repeat(1_000_000)).unwrap_err();
    assert_eq!(err.category(), Category::Depth);
    let err = from_str::<Fields>(&format!(r#"{{"x":{}"#, r#"{"a":"#.repeat(100_000))).unwrap_err();
    assert_eq!(err.category(), Category::Depth);
}

/// Writes `payload` under a valid frame header (no fsync: this is a
/// scratch file), so it reaches the JSON parser. The old file is removed
/// first: ext4 starts writeback when a file truncated in place is closed
/// (its `auto_da_alloc` heuristic), and the loops below rewrite one path
/// thousands of times, each rewrite then waiting on the disk.
fn write_framed(path: &Path, payload: &[u8]) {
    let mut bytes =
        format!("{MAGIC} model {} {:016x}\n", payload.len(), fnv1a(payload)).into_bytes();
    bytes.extend_from_slice(payload);
    let _ = std::fs::remove_file(path);
    std::fs::write(path, bytes).unwrap();
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("quasar-json-codec-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn every_truncation_of_a_model_payload_is_a_json_error() {
    let path = scratch("truncated.quasar");
    save_model(&path, &toy_model()).unwrap();
    let payload = toy_model().to_json().unwrap().into_bytes();
    load_model(&path).expect("the intact artifact loads");
    for len in 0..payload.len() {
        write_framed(&path, &payload[..len]);
        match load_model(&path) {
            Err(PersistError::Json { .. }) => {}
            other => panic!("truncation to {len} bytes: expected a Json error, got {other:?}"),
        }
    }
    let _ = std::fs::remove_file(&path);
}

/// Seeded edits (replace, delete, insert) under a recomputed checksum. An
/// edit can leave a valid model (say, a changed digit in a policy rule),
/// which loads; every other one must be refused as a Json error.
#[test]
fn mutated_model_payloads_never_panic() {
    const ALPHABET: &[u8] = b"{}[]\":,-.0123456789eEnulltruefalse \\\x00\xff";
    let path = scratch("mutated.quasar");
    let payload = toy_model().to_json().unwrap().into_bytes();
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move |bound: usize| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % bound as u64) as usize
    };
    let mut refused = 0;
    const CASES: usize = 1_500;
    for _ in 0..CASES {
        let mut bytes = payload.clone();
        for _ in 0..1 + next(3) {
            let at = next(bytes.len());
            match next(3) {
                0 => bytes[at] = ALPHABET[next(ALPHABET.len())],
                1 => {
                    bytes.remove(at);
                }
                _ => bytes.insert(at, ALPHABET[next(ALPHABET.len())]),
            }
        }
        write_framed(&path, &bytes);
        match load_model(&path) {
            Ok(_) => {}
            Err(PersistError::Json { .. }) => refused += 1,
            Err(other) => panic!("a framed payload must fail only as Json, got {other}"),
        }
    }
    assert!(
        refused > CASES / 2,
        "only {refused} of {CASES} mutations refused"
    );
    let _ = std::fs::remove_file(&path);
}
