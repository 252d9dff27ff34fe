//! The `BENCH_*.json` artifacts: the one place that knows how they are
//! written, where they live and how they are read back.
//!
//! Every artifact has the same layout — a top-level object with one field
//! per line, whose arrays hold one single-line object per row — so one small
//! ordered emitter ([`object`], [`Obj`]) writes all of them. Reading goes
//! through [`yamlite`] (JSON of this shape is a YAML flow mapping; there is
//! no JSON parser here), and the helpers at the bottom are what the per-bench
//! `gates` functions judge the parsed [`Value`] with.

use std::collections::BTreeSet;
use std::fmt::Display;
use std::path::PathBuf;
use yamlite::Value;

/// An object being emitted: fields in call order, each a typed scalar or an
/// array of row objects.
pub struct Obj {
    out: String,
    /// What goes between two fields: `",\n  "` at the top level, `", "`
    /// inside a row.
    sep: &'static str,
    first: bool,
}

/// Emits a top-level artifact object: `{`, one `"key": value` per line at
/// two spaces, `}` and a final newline.
pub fn object(fill: impl FnOnce(&mut Obj)) -> String {
    let mut obj = Obj::open("{\n  ", ",\n  ");
    fill(&mut obj);
    obj.out + "\n}\n"
}

impl Obj {
    fn open(opener: &str, sep: &'static str) -> Obj {
        let out = opener.to_owned();
        Obj {
            out,
            sep,
            first: true,
        }
    }

    fn field(&mut self, key: &str, value: impl Display) {
        let sep = if self.first { "" } else { self.sep };
        self.first = false;
        self.out += &format!("{sep}\"{key}\": {value}");
    }

    /// A float field; a value that is not finite (the p99 of an empty
    /// sweep) is written `null`, never `NaN`, which is not JSON.
    fn float(&mut self, key: &str, v: f64, text: String) {
        self.field(key, if v.is_finite() { &text } else { "null" });
    }

    /// An integer field.
    pub fn int(&mut self, key: &str, v: u64) {
        self.field(key, v);
    }

    /// A float field with exactly `decimals` fractional digits.
    pub fn fixed(&mut self, key: &str, v: f64, decimals: usize) {
        self.float(key, v, format!("{v:.decimals$}"));
    }

    /// A float field in its shortest form (`1`, `0.15`): configured rates.
    pub fn num(&mut self, key: &str, v: f64) {
        self.float(key, v, v.to_string());
    }

    /// A boolean field.
    pub fn bool(&mut self, key: &str, v: bool) {
        self.field(key, v);
    }

    /// A string field (`"` and `\` escaped).
    pub fn str(&mut self, key: &str, v: &str) {
        let escaped = v.replace('\\', "\\\\").replace('"', "\\\"");
        self.field(key, format!("\"{escaped}\""));
    }

    /// An array field holding one single-line object per item, each on its
    /// own line at four spaces.
    pub fn rows<T>(&mut self, key: &str, items: &[T], fill: impl Fn(&mut Obj, &T)) {
        let mut text = "[\n".to_owned();
        for (i, item) in items.iter().enumerate() {
            let mut row = Obj::open("    {", ", ");
            fill(&mut row, item);
            text += &row.out;
            text += if i + 1 < items.len() { "},\n" } else { "}\n" };
        }
        self.field(key, text + "  ]");
    }
}

/// Where the artifact `name` lives: the repository root.
pub fn path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(name)
}

/// Writes the artifact `name` and reports where it went.
pub fn write(name: &str, text: &str) -> Result<(), String> {
    let path = path(name);
    std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

/// Parses an artifact's text.
pub fn parse(text: &str) -> Result<Value, String> {
    yamlite::parse_str(text).map_err(|e| e.to_string())
}

/// Reads and parses the artifact `name`.
pub fn read(name: &str) -> Result<Value, String> {
    let path = path(name);
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The number at `key`, if there is one.
pub fn num(v: &Value, key: &str) -> Option<f64> {
    v[key].as_f64()
}

/// Whether field `a` of `row` is at most its field `b`.
pub fn le(row: &Value, a: &str, b: &str) -> Option<bool> {
    Some(num(row, a)? <= num(row, b)?)
}

/// The first row of the array at `key` whose `field` is the string `name`.
pub fn row<'a>(v: &'a Value, key: &str, field: &str, name: &str) -> Option<&'a Value> {
    v[key]
        .as_seq()?
        .iter()
        .find(|r| r[field].as_str() == Some(name))
}

/// The strings at `field` over the rows of the array at `key`, as a set.
pub fn names<'a>(v: &'a Value, key: &str, field: &str) -> BTreeSet<&'a str> {
    v[key]
        .as_seq()
        .into_iter()
        .flatten()
        .filter_map(|r| r[field].as_str())
        .collect()
}

/// The sum of `field` over the rows of the array at `key`.
pub fn sum(v: &Value, key: &str, field: &str) -> Option<f64> {
    v[key].as_seq()?.iter().map(|r| num(r, field)).sum()
}

/// One clause of a gate: `Ok` when it holds, otherwise an error naming it.
/// `None` means a field the clause reads is absent, which fails it too.
pub fn clause(name: &str, holds: Option<bool>) -> Result<(), String> {
    match holds {
        Some(true) => Ok(()),
        Some(false) => Err(format!("gate failed: {name}")),
        None => Err(format!(
            "gate failed: {name} (field missing or not a number)"
        )),
    }
}

/// Every listed top-level field is `0`.
pub fn zero_fields(v: &Value, keys: &[&str]) -> Result<(), String> {
    keys.iter()
        .try_for_each(|k| clause(&format!("{k} == 0"), num(v, k).map(|n| n == 0.0)))
}

/// The top-level flag `key` is `true`.
pub fn is_true(v: &Value, key: &str) -> Result<(), String> {
    clause(&format!("{key} is true"), v[key].as_bool())
}

/// A clause that must hold on every row of the array at `key`, which must
/// not be empty — an empty sweep proves nothing.
pub fn each_row(
    v: &Value,
    key: &str,
    name: &str,
    holds: impl Fn(&Value) -> Option<bool>,
) -> Result<(), String> {
    let rows = v[key].as_seq().filter(|rows| !rows.is_empty());
    let rows = rows.ok_or_else(|| format!("gate failed: `{key}` is missing or empty"))?;
    rows.iter()
        .enumerate()
        .try_for_each(|(i, r)| clause(&format!("{key}[{i}]: {name}"), holds(r)))
}

/// Every listed field is `> 0` on every row of the array at `key`.
pub fn positive(v: &Value, key: &str, fields: &[&str]) -> Result<(), String> {
    fields
        .iter()
        .try_for_each(|f| each_row(v, key, &format!("{f} > 0"), |r| Some(num(r, f)? > 0.0)))
}

/// Every listed field is `0` on every row of the array at `key`.
pub fn zero(v: &Value, key: &str, fields: &[&str]) -> Result<(), String> {
    fields
        .iter()
        .try_for_each(|f| each_row(v, key, &format!("{f} == 0"), |r| Some(num(r, f)? == 0.0)))
}

/// The rows of the array at `key` are in ascending order of `field` and
/// there is at least one; returns the last (largest) row.
pub fn ascending<'a>(v: &'a Value, key: &str, field: &str) -> Result<&'a Value, String> {
    each_row(v, key, &format!("has `{field}`"), |r| {
        Some(num(r, field).is_some())
    })?;
    let rows = v[key].as_seq().expect("each_row saw the array");
    let sorted = rows
        .windows(2)
        .all(|w| num(&w[0], field) <= num(&w[1], field));
    clause(&format!("`{key}` ascending by {field}"), Some(sorted))?;
    Ok(rows.last().expect("each_row saw a row"))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Asserts that `gates` accepts `fixture` and that each doctored copy
    /// (`from` replaced by `to`, which must occur) is rejected with an error
    /// naming `clause` — one entry per clause of the gate.
    pub(crate) fn assert_gate_clauses(
        gates: fn(&Value) -> Result<(), String>,
        fixture: &str,
        doctored: &[(&str, &str, &str)],
    ) {
        assert_eq!(
            gates(&parse(fixture).unwrap()),
            Ok(()),
            "the fixture itself must pass"
        );
        for (from, to, clause) in doctored {
            assert!(fixture.contains(from), "fixture has no `{from}`");
            let err = gates(&parse(&fixture.replacen(from, to, 1)).unwrap())
                .expect_err(&format!("`{from}` -> `{to}` must fail the gate"));
            assert!(
                err.contains(clause),
                "`{from}` -> `{to}`: `{err}` does not name `{clause}`"
            );
        }
    }

    #[test]
    fn emitter_lays_out_fields_rows_and_number_formats() {
        let text = object(|o| {
            o.str("bench", "demo");
            o.int("seed", 7);
            o.num("rate", 1.0);
            o.num("other", 0.15);
            o.bool("smoke", true);
            o.rows("rows", &[(1u64, 2.5f64), (2, 0.0)], |r, (n, x)| {
                r.int("n", *n);
                r.fixed("x", *x, 3);
                r.fixed("y", *x, 0);
            });
            o.rows("none", &[] as &[u64], |r, n| {
                r.int("n", *n);
            });
            o.fixed("last", 0.25, 1);
        });
        assert_eq!(
            text,
            "{\n  \"bench\": \"demo\",\n  \"seed\": 7,\n  \"rate\": 1,\n  \"other\": 0.15,\n  \
             \"smoke\": true,\n  \"rows\": [\n    {\"n\": 1, \"x\": 2.500, \"y\": 2},\n    \
             {\"n\": 2, \"x\": 0.000, \"y\": 0}\n  ],\n  \"none\": [\n  ],\n  \"last\": 0.2\n}\n"
        );
        let v = parse(&text).unwrap();
        assert_eq!(num(&v, "rate"), Some(1.0));
        assert_eq!(v["rows"][0]["x"].as_f64(), Some(2.5));
        assert_eq!(sum(&v, "rows", "n"), Some(3.0));
        assert_eq!(v["none"].as_seq().map(<[Value]>::len), Some(0));
    }

    #[test]
    fn strings_are_escaped_and_non_finite_floats_become_null() {
        let text = object(|o| {
            o.str("s", "say \"hi\" \\ bye");
            o.fixed("nan", f64::NAN, 3);
            o.fixed("inf", f64::INFINITY, 0);
            o.num("rate", f64::NAN);
        });
        assert!(text.contains(r#""s": "say \"hi\" \\ bye""#), "{text}");
        assert!(
            !text.contains("NaN") && !text.contains("inf\": inf"),
            "{text}"
        );
        let v = parse(&text).unwrap();
        assert_eq!(
            v["s"].as_str(),
            Some("say \"hi\" \\ bye"),
            "escaping round-trips"
        );
        assert!(v["nan"].is_null() && v["inf"].is_null() && v["rate"].is_null());
        assert_eq!(
            num(&v, "nan"),
            None,
            "a null field fails any clause that reads it"
        );
    }

    #[test]
    fn gate_helpers_name_the_clause_and_the_row() {
        let v = parse("{\"rows\": [{\"a\": 1, \"b\": 0}, {\"a\": 0, \"b\": 0}], \"none\": []}")
            .unwrap();
        assert_eq!(zero(&v, "rows", &["b"]), Ok(()));
        assert_eq!(
            positive(&v, "rows", &["a"]).unwrap_err(),
            "gate failed: rows[1]: a > 0"
        );
        assert!(positive(&v, "rows", &["c"])
            .unwrap_err()
            .contains("rows[0]: c > 0 (field missing"));
        assert!(positive(&v, "none", &["a"])
            .unwrap_err()
            .contains("`none` is missing or empty"));
        assert!(positive(&v, "absent", &["a"])
            .unwrap_err()
            .contains("`absent` is missing or empty"));
        assert!(ascending(&v, "rows", "a")
            .unwrap_err()
            .contains("`rows` ascending by a"));
        assert_eq!(
            ascending(&v, "rows", "b").map(|last| num(last, "a")),
            Ok(Some(0.0))
        );
        assert_eq!(row(&v, "rows", "a", "x"), None);
    }
}
