//! Block-style YAML emission.
//!
//! The emitter produces the conventional Kubernetes manifest layout:
//! two-space indentation, sequences with inline compact mappings
//! (`- name: nginx`), and quoting only where a plain scalar would be
//! misparsed. Output is designed to round-trip through [`crate::parse_str`].

use crate::value::Value;

/// Renders a value as a YAML document (no leading `---`, trailing newline).
pub fn to_string(value: &Value) -> String {
    let mut out = String::new();
    match value {
        Value::Map(m) if !m.is_empty() => emit_map(&mut out, m, 0),
        Value::Seq(s) if !s.is_empty() => emit_seq(&mut out, s, 0),
        other => {
            out.push_str(&scalar_repr(other));
            out.push('\n');
        }
    }
    out
}

fn indent_str(n: usize) -> String {
    " ".repeat(n)
}

fn emit_map(out: &mut String, entries: &[(String, Value)], indent: usize) {
    for (k, v) in entries {
        out.push_str(&indent_str(indent));
        out.push_str(&quote_if_needed(k));
        out.push(':');
        emit_value_after_key(out, v, indent);
    }
}

fn emit_value_after_key(out: &mut String, v: &Value, indent: usize) {
    match v {
        Value::Map(m) if !m.is_empty() => {
            out.push('\n');
            emit_map(out, m, indent + 2);
        }
        Value::Seq(s) if !s.is_empty() => {
            out.push('\n');
            emit_seq(out, s, indent + 2);
        }
        Value::Map(_) => out.push_str(" {}\n"),
        Value::Seq(_) => out.push_str(" []\n"),
        scalar => {
            out.push(' ');
            out.push_str(&scalar_repr(scalar));
            out.push('\n');
        }
    }
}

fn emit_seq(out: &mut String, items: &[Value], indent: usize) {
    for item in items {
        out.push_str(&indent_str(indent));
        out.push('-');
        match item {
            Value::Map(m) if !m.is_empty() => {
                // Compact style: first entry on the dash line, the rest
                // aligned two columns deeper.
                let (k0, v0) = &m[0];
                out.push(' ');
                out.push_str(&quote_if_needed(k0));
                out.push(':');
                emit_value_after_key(out, v0, indent + 2);
                emit_map(out, &m[1..], indent + 2);
            }
            Value::Seq(s) if !s.is_empty() => {
                out.push('\n');
                emit_seq(out, s, indent + 2);
            }
            Value::Map(_) => out.push_str(" {}\n"),
            Value::Seq(_) => out.push_str(" []\n"),
            scalar => {
                out.push(' ');
                out.push_str(&scalar_repr(scalar));
                out.push('\n');
            }
        }
    }
}

fn scalar_repr(v: &Value) -> String {
    match v {
        Value::Null => "null".to_owned(),
        Value::Bool(b) => b.to_string(),
        Value::Int(i) => i.to_string(),
        // `{:?}` for f64 always produces a string that parses back to the
        // same value and always includes a `.` or exponent.
        Value::Float(f) => format!("{f:?}"),
        Value::Str(s) => quote_if_needed(s),
        Value::Seq(_) | Value::Map(_) => unreachable!("collections handled by callers"),
    }
}

/// Quotes a string scalar when a plain rendering would change its meaning.
fn quote_if_needed(s: &str) -> String {
    if needs_quoting(s) {
        let mut out = String::with_capacity(s.len() + 2);
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\t' => out.push_str("\\t"),
                '\r' => out.push_str("\\r"),
                '\0' => out.push_str("\\0"),
                other => out.push(other),
            }
        }
        out.push('"');
        out
    } else {
        s.to_owned()
    }
}

fn needs_quoting(s: &str) -> bool {
    if s.is_empty() {
        return true;
    }
    // Values the parser would resolve to something other than a string.
    if matches!(
        s,
        "~" | "null" | "Null" | "NULL" | "true" | "True" | "TRUE" | "false" | "False" | "FALSE"
    ) {
        return true;
    }
    if s.parse::<i64>().is_ok() {
        return true;
    }
    if crate::parser_numeric_check(s) && s.parse::<f64>().is_ok() {
        return true;
    }
    if s.starts_with(' ')
        || s.ends_with(' ')
        || s.starts_with('-') && (s.len() == 1 || s.as_bytes()[1] == b' ')
        || s.starts_with(['#', '[', ']', '{', '}', '&', '*', '!', '|', '>', '\'', '"', '%', '@'])
    {
        return true;
    }
    // `: ` or trailing `:` would be read as a key separator; ` #` starts a comment.
    let bytes = s.as_bytes();
    for (i, &b) in bytes.iter().enumerate() {
        match b {
            b':' if i + 1 == bytes.len() || bytes[i + 1] == b' ' => return true,
            b'#' if i > 0 && bytes[i - 1] == b' ' => return true,
            b'\n' | b'\t' | b'\r' | 0 => return true,
            _ => {}
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_str;

    fn roundtrip(v: &Value) -> Value {
        parse_str(&to_string(v)).unwrap()
    }

    #[test]
    fn scalars() {
        assert_eq!(to_string(&Value::Null), "null\n");
        assert_eq!(to_string(&Value::Bool(true)), "true\n");
        assert_eq!(to_string(&Value::Int(-7)), "-7\n");
        assert_eq!(to_string(&Value::Float(2.5)), "2.5\n");
        assert_eq!(to_string(&Value::from("hello")), "hello\n");
    }

    #[test]
    fn strings_that_look_like_other_types_get_quoted() {
        for s in ["true", "null", "42", "-1", "3.5", "", " padded ", "- dash", "a: b", "#x"] {
            let v = Value::from(s);
            assert_eq!(roundtrip(&v), v, "failed for {s:?}");
        }
    }

    #[test]
    fn version_strings_stay_plain() {
        // "1.23.2" is not a float, so no quotes needed.
        assert_eq!(to_string(&Value::from("1.23.2")), "1.23.2\n");
        assert_eq!(to_string(&Value::from("nginx:1.23.2")), "nginx:1.23.2\n");
    }

    #[test]
    fn nested_structure_layout() {
        let mut spec = Value::new_map();
        spec.insert("replicas", Value::Int(0));
        let mut container = Value::new_map();
        container.insert("name", Value::from("nginx"));
        container.insert("image", Value::from("nginx:1.23.2"));
        spec.insert("containers", Value::Seq(vec![container]));
        let mut root = Value::new_map();
        root.insert("spec", spec);

        let text = to_string(&root);
        assert_eq!(
            text,
            "spec:\n  replicas: 0\n  containers:\n    - name: nginx\n      image: nginx:1.23.2\n"
        );
        assert_eq!(roundtrip(&root), root);
    }

    #[test]
    fn empty_collections() {
        let mut root = Value::new_map();
        root.insert("m", Value::new_map());
        root.insert("s", Value::Seq(Vec::new()));
        assert_eq!(to_string(&root), "m: {}\ns: []\n");
        assert_eq!(roundtrip(&root), root);
    }

    #[test]
    fn multiline_strings_round_trip_double_quoted() {
        let mut root = Value::new_map();
        root.insert("script", Value::from("line one\nline two\n"));
        root.insert("nonl", Value::from("a\nb"));
        let text = to_string(&root);
        assert_eq!(
            text,
            "script: \"line one\\nline two\\n\"\nnonl: \"a\\nb\"\n"
        );
        assert_eq!(roundtrip(&root), root);
    }

    #[test]
    fn sequence_of_scalars() {
        let v = Value::Seq(vec![Value::Int(1), Value::from("two"), Value::Bool(false)]);
        assert_eq!(to_string(&v), "- 1\n- two\n- false\n");
        assert_eq!(roundtrip(&v), v);
    }

    #[test]
    fn deep_nesting_roundtrips() {
        let mut leaf = Value::new_map();
        leaf.insert("path", Value::from("/srv/edge"));
        let mut mid = Value::new_map();
        mid.insert("hostPath", leaf);
        mid.insert("name", Value::from("content"));
        let mut root = Value::new_map();
        root.insert("volumes", Value::Seq(vec![mid, Value::Null]));
        assert_eq!(roundtrip(&root), root);
    }
}
