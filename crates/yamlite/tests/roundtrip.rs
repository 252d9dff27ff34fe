//! Property tests: arbitrary values round-trip through emit → parse.

use proptest::prelude::*;
use yamlite::{parse_str, to_string, Value};

/// Keys must be non-empty and reasonably printable; the emitter quotes
/// anything ambiguous so most printable ASCII is fair game.
fn key_strategy() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[a-zA-Z_][a-zA-Z0-9_./-]{0,15}").unwrap()
}

fn scalar_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        // Finite floats only; NaN can't round-trip by equality.
        prop::num::f64::NORMAL.prop_map(Value::Float),
        // Printable strings, including ones that look like numbers/bools.
        prop_oneof![
            proptest::string::string_regex("[ -~]{0,24}").unwrap(),
            Just("true".to_owned()),
            Just("null".to_owned()),
            Just("42".to_owned()),
            Just("-1.5".to_owned()),
            Just("a: b".to_owned()),
            Just("# comment".to_owned()),
            Just("line one\nline two".to_owned()),
            Just("line one\nline two\n".to_owned()),
        ]
        .prop_map(Value::Str),
    ]
}

fn value_strategy() -> impl Strategy<Value = Value> {
    scalar_strategy().prop_recursive(4, 48, 6, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..5).prop_map(Value::Seq),
            prop::collection::vec((key_strategy(), inner), 0..5).prop_map(|pairs| {
                // Deduplicate keys — duplicate keys are a parse error by design.
                let mut seen = std::collections::HashSet::new();
                let mut out = Vec::new();
                for (k, v) in pairs {
                    if seen.insert(k.clone()) {
                        out.push((k, v));
                    }
                }
                Value::Map(out)
            }),
        ]
    })
}

/// Multi-line strings survive only in value position (block scalars); a
/// sequence of bare scalars can't represent them. Restrict top level to maps
/// like real manifests.
fn doc_strategy() -> impl Strategy<Value = Value> {
    prop::collection::vec((key_strategy(), value_strategy()), 1..6).prop_map(|pairs| {
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::new();
        for (k, v) in pairs {
            if seen.insert(k.clone()) {
                out.push((k, v));
            }
        }
        Value::Map(out)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn emit_parse_roundtrip(doc in doc_strategy()) {
        let text = to_string(&doc);
        let parsed = parse_str(&text)
            .map_err(|e| TestCaseError::fail(format!("{e}\n--- emitted ---\n{text}")))?;
        prop_assert_eq!(parsed, doc, "--- emitted ---\n{}", text);
    }

    #[test]
    fn parser_never_panics(input in "[ -~\n]{0,200}") {
        let _ = parse_str(&input);
    }

    /// `[\[\]{},:a \n]{0,4000}` — brackets, separators and newlines only, so
    /// the flow parser, its line joining and the depth cap see dense input.
    #[test]
    fn parser_never_panics_on_bracket_soup(
        input in prop::collection::vec(0usize..9, 0..4000)
            .prop_map(|ix| ix.into_iter().map(|i| b"[]{},:a \n"[i] as char).collect::<String>())
    ) {
        let _ = parse_str(&input);
    }

    #[test]
    fn emitted_text_is_stable(doc in doc_strategy()) {
        // emit(parse(emit(x))) == emit(x): the canonical form is a fixed point.
        let once = to_string(&doc);
        let twice = to_string(&parse_str(&once).unwrap());
        prop_assert_eq!(once, twice);
    }
}
