//! Flow collections: continuation across lines (the layout of the
//! `BENCH_*.json` artifacts, which are read back through this parser) and
//! the nesting cap that keeps hostile input from overflowing the stack.

use yamlite::{parse_str, Value, MAX_DEPTH};

#[test]
fn flow_mapping_and_sequence_continue_on_the_next_line() {
    let v = parse_str("limits: {cpu: 2,\n  memory: 4Gi}\nports: [80,\n  443\n]\nafter: 1").unwrap();
    assert_eq!(v["limits"]["cpu"].as_i64(), Some(2));
    assert_eq!(v["limits"]["memory"].as_str(), Some("4Gi"));
    assert_eq!(v["ports"][1].as_i64(), Some(443));
    assert_eq!(
        v["after"].as_i64(),
        Some(1),
        "block parsing resumes after the flow value"
    );
}

#[test]
fn json_artifact_layout_parses_as_one_flow_mapping() {
    let text = "{\n  \"bench\": \"demo\",\n  \"smoke\": true,\n  \"rows\": [\n    \
                {\"name\": \"a # not a comment\", \"v\": 1.500},\n    {\"name\": \"b\",\n     \"v\": null}\n  ],\n  \
                \"total\": 2\n}\n";
    let v = parse_str(text).unwrap();
    assert_eq!(v["bench"].as_str(), Some("demo"));
    assert_eq!(v["smoke"].as_bool(), Some(true));
    assert_eq!(v["rows"][0]["name"].as_str(), Some("a # not a comment"));
    assert_eq!(v["rows"][0]["v"].as_f64(), Some(1.5));
    assert!(
        v["rows"][1]["v"].is_null(),
        "a row object split across lines"
    );
    assert_eq!(v["total"].as_i64(), Some(2));
    // The same document on one line is the same value.
    assert_eq!(parse_str(&text.replace('\n', " ")).unwrap(), v);
}

#[test]
fn multi_line_flow_inside_a_sequence_entry() {
    let v = parse_str("- {a: 1,\n   b: 2}\n- [3,\n   4]").unwrap();
    assert_eq!(v[0]["b"].as_i64(), Some(2));
    assert_eq!(v[1][1].as_i64(), Some(4));
}

#[test]
fn unterminated_multi_line_flow_errors_at_its_starting_line() {
    let e = parse_str("a: 1\nb: {x: 1,\n  y: 2\nc: 3").unwrap_err();
    assert!(e.message.contains("flow mapping"), "{e}");
    assert_eq!(e.line, 2);
    let e = parse_str("[1,\n2,\n").unwrap_err();
    assert!(e.message.contains("unterminated flow sequence"), "{e}");
    assert_eq!(e.line, 1);
}

fn nested_flow(depth: usize) -> String {
    format!("a: {}{}", "[".repeat(depth), "]".repeat(depth))
}

#[test]
fn flow_nesting_at_the_cap_parses_and_beyond_it_errors() {
    let mut v = &parse_str(&nested_flow(MAX_DEPTH)).unwrap()["a"];
    for _ in 1..MAX_DEPTH {
        v = &v[0];
    }
    assert_eq!(*v, Value::Seq(vec![]));
    let e = parse_str(&nested_flow(MAX_DEPTH + 1)).unwrap_err();
    assert!(e.message.contains("nesting deeper than"), "{e}");
    // Unbalanced and enormous: used to overflow the stack (an abort).
    for open in ["[", "{", "[{"] {
        assert!(parse_str(&format!("a: {}", open.repeat(100_000))).is_err());
    }
}

#[test]
fn block_nesting_is_capped_too() {
    let dashes = |n: usize| format!("{}x", "- ".repeat(n));
    assert!(parse_str(&dashes(MAX_DEPTH / 2)).is_ok());
    let e = parse_str(&dashes(100_000)).unwrap_err();
    assert!(e.message.contains("nesting deeper than"), "{e}");
    let stairs: String = (0..MAX_DEPTH + 1)
        .map(|i| format!("{}k:\n", " ".repeat(i)))
        .collect();
    assert!(parse_str(&stairs).is_err());
}
