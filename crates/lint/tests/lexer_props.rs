//! Property tests for the hand-rolled lexer: it must be *total* — any
//! input, including truncated or malformed Rust, lexes without panicking
//! — and its spans must be strictly monotone in byte offset with line
//! and column numbers that never run backwards on a line.

use proptest::prelude::*;
use quasar_lint::source::lexer::lex;

/// Fragments that compose into valid-ish Rust, biased toward the
/// constructs the lexer special-cases: raw strings, nested generics,
/// raw identifiers, lifetimes, char literals, block comments, markers.
fn fragment() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("fn f() { let x = 1; }\n".to_string()),
        Just("let m: HashMap<String, Vec<Option<Box<[u8; 4]>>>> = make();\n".to_string()),
        Just("let s = r#\"raw \"quoted\" text\"#;\n".to_string()),
        Just("let s = r##\"nested # hash\"##;\n".to_string()),
        Just("let b = b\"bytes\\n\";\n".to_string()),
        Just("let r#match = r#type + 1;\n".to_string()),
        Just("fn g<'a>(x: &'a str) -> &'a str { x }\n".to_string()),
        Just("let c = 'x'; let nl = '\\n'; let q = '\\'';\n".to_string()),
        Just("/* outer /* inner */ still comment */\n".to_string()),
        Just("// sast: relaxed-ok a justification line\n".to_string()),
        Just("let f = 1.5e3; let r = 0..10; let t = tup.0;\n".to_string()),
        Just("m.lock().unwrap();\n".to_string()),
        Just("fail::set(\"a.b\", \"always:error\");\n".to_string()),
        // Adversarial shards: unterminated constructs and stray bytes.
        Just("let s = \"unterminated\n".to_string()),
        Just("r#\"never closed\n".to_string()),
        Just("/* never closed\n".to_string()),
        Just("'\n".to_string()),
        Just("\\ $ ` @\n".to_string()),
        "[ -~]{0,40}\n".prop_map(|s| s),
        // Raw byte soup, lossily decoded: exercises multi-byte and
        // replacement characters without ever feeding invalid UTF-8.
        proptest::collection::vec(any::<u8>(), 0..20).prop_map(|b| {
            let mut s = String::from_utf8_lossy(&b).into_owned();
            s.push('\n');
            s
        }),
    ]
}

fn source() -> impl Strategy<Value = String> {
    proptest::collection::vec(fragment(), 0..12).prop_map(|v| v.concat())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn lexing_never_panics_and_spans_are_monotone(src in source()) {
        let lexed = lex(&src);
        let mut prev_byte = None;
        let mut prev_pos = (0u32, 0u32);
        for t in &lexed.tokens {
            if let Some(p) = prev_byte {
                prop_assert!(
                    t.byte > p,
                    "byte offsets must strictly increase: {p} then {} in {src:?}",
                    t.byte
                );
            }
            prev_byte = Some(t.byte);
            prop_assert!(
                (t.line, t.col) > prev_pos || (t.line, t.col) == (1, 1) && prev_pos == (0, 0),
                "line/col must advance: {prev_pos:?} then {:?} in {src:?}",
                (t.line, t.col)
            );
            prev_pos = (t.line, t.col);
            prop_assert!(t.byte < src.len().max(1));
        }
        // Markers are line-sorted as collected.
        let lines: Vec<u32> = lexed.markers.iter().map(|(l, _)| *l).collect();
        let mut sorted = lines.clone();
        sorted.sort_unstable();
        prop_assert_eq!(lines, sorted);
    }

    #[test]
    fn lexing_is_deterministic(src in source()) {
        let a = lex(&src);
        let b = lex(&src);
        prop_assert_eq!(a.tokens.len(), b.tokens.len());
        prop_assert_eq!(a.markers, b.markers);
    }
}
