//! The YAML data model.

use std::fmt;
use std::ops::Index;

/// A parsed YAML value.
///
/// Mappings preserve insertion order (Kubernetes manifests are written and
/// compared with field order intact), so they are stored as a vector of
/// key/value pairs rather than a hash map. Key lookup is linear, which is
/// ample for manifest-sized documents.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`, `~` or an empty value.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A 64-bit signed integer.
    Int(i64),
    /// A floating-point number.
    Float(f64),
    /// A string scalar.
    Str(String),
    /// A sequence (`- item` or `[a, b]`).
    Seq(Vec<Value>),
    /// A mapping (`key: value` or `{k: v}`), in insertion order.
    Map(Vec<(String, Value)>),
}

/// Shared "absent value" returned by out-of-range indexing, so `doc["a"]["b"]`
/// chains never panic.
static NULL: Value = Value::Null;

impl Value {
    /// An empty mapping.
    pub fn new_map() -> Value {
        Value::Map(Vec::new())
    }

    /// `true` if this is [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Borrows the string if this is a string scalar.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the integer if this is an int scalar.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Returns the number as a float if this is an int or float scalar.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Float(f) => Some(*f),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// Returns the boolean if this is a bool scalar.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Borrows the elements if this is a sequence.
    pub fn as_seq(&self) -> Option<&[Value]> {
        match self {
            Value::Seq(s) => Some(s),
            _ => None,
        }
    }

    /// Looks up `key` in a mapping; `None` for missing keys or non-mappings.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Map(m) => m.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Mutable lookup of `key` in a mapping.
    pub fn get_mut(&mut self, key: &str) -> Option<&mut Value> {
        match self {
            Value::Map(m) => m.iter_mut().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Inserts or replaces `key` in a mapping, preserving the position of an
    /// existing key.
    ///
    /// # Panics
    /// Panics if `self` is not a mapping (callers decide the shape first).
    pub fn insert(&mut self, key: impl Into<String>, value: Value) {
        let key = key.into();
        match self {
            Value::Map(m) => {
                if let Some(slot) = m.iter_mut().find(|(k, _)| *k == key) {
                    slot.1 = value;
                } else {
                    m.push((key, value));
                }
            }
            _ => panic!("Value::insert on non-mapping"),
        }
    }

    /// Removes `key` from a mapping, returning the removed value.
    pub fn remove(&mut self, key: &str) -> Option<Value> {
        match self {
            Value::Map(m) => {
                let idx = m.iter().position(|(k, _)| k == key)?;
                Some(m.remove(idx).1)
            }
            _ => None,
        }
    }

    /// `true` if a mapping contains `key`.
    pub fn contains_key(&self, key: &str) -> bool {
        self.get(key).is_some()
    }

    /// Navigates a `/`-separated path of mapping keys and sequence indices,
    /// e.g. `spec/template/spec/containers/0/image`.
    pub fn path(&self, path: &str) -> Option<&Value> {
        let mut cur = self;
        for part in path.split('/').filter(|p| !p.is_empty()) {
            cur = match cur {
                Value::Map(_) => cur.get(part)?,
                Value::Seq(s) => s.get(part.parse::<usize>().ok()?)?,
                _ => return None,
            };
        }
        Some(cur)
    }

    /// Ensures `key` exists as a mapping and returns it mutably, creating an
    /// empty mapping (or replacing a `Null`) if needed.
    ///
    /// # Panics
    /// Panics if `self` is not a mapping or if `key` holds a non-mapping,
    /// non-null value.
    pub fn entry_map(&mut self, key: &str) -> &mut Value {
        if !self.contains_key(key) || self.get(key).is_some_and(Value::is_null) {
            self.insert(key, Value::new_map());
        }
        let v = self.get_mut(key).expect("just inserted");
        assert!(matches!(v, Value::Map(_)), "entry_map: `{key}` is not a mapping");
        v
    }
}

impl Index<&str> for Value {
    type Output = Value;
    /// Mapping lookup; returns `Null` for anything missing (never panics).
    fn index(&self, key: &str) -> &Value {
        self.get(key).unwrap_or(&NULL)
    }
}

impl Index<usize> for Value {
    type Output = Value;
    /// Sequence lookup; returns `Null` out of range (never panics).
    fn index(&self, idx: usize) -> &Value {
        match self {
            Value::Seq(s) => s.get(idx).unwrap_or(&NULL),
            _ => &NULL,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&crate::emitter::to_string(self))
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(s.to_owned())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::Str(s)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Value {
        Value::Int(i)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

impl From<f64> for Value {
    fn from(x: f64) -> Value {
        Value::Float(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Value {
        let mut m = Value::new_map();
        m.insert("name", Value::from("edge"));
        m.insert("replicas", Value::from(3i64));
        m.insert("enabled", Value::from(true));
        m.insert("ratio", Value::from(0.5));
        m.insert(
            "items",
            Value::Seq(vec![Value::from("a"), Value::from("b")]),
        );
        m
    }

    #[test]
    fn accessors() {
        let v = sample();
        assert_eq!(v["name"].as_str(), Some("edge"));
        assert_eq!(v["replicas"].as_i64(), Some(3));
        assert_eq!(v["replicas"].as_f64(), Some(3.0));
        assert_eq!(v["enabled"].as_bool(), Some(true));
        assert_eq!(v["ratio"].as_f64(), Some(0.5));
        assert_eq!(v["items"][1].as_str(), Some("b"));
        assert!(v["missing"].is_null());
        assert!(v["items"][99].is_null());
        assert!(v["name"][0].is_null());
    }

    #[test]
    fn insert_replaces_in_place() {
        let mut v = sample();
        v.insert("name", Value::from("other"));
        let Value::Map(entries) = &v else { panic!("sample is a mapping") };
        assert_eq!(entries[0].0, "name");
        assert_eq!(v["name"].as_str(), Some("other"));
    }

    #[test]
    fn remove_and_contains() {
        let mut v = sample();
        assert!(v.contains_key("ratio"));
        assert_eq!(v.remove("ratio"), Some(Value::Float(0.5)));
        assert!(!v.contains_key("ratio"));
        assert_eq!(v.remove("ratio"), None);
    }

    #[test]
    fn path_navigation() {
        let mut root = Value::new_map();
        root.insert("spec", sample());
        assert_eq!(root.path("spec/items/0").and_then(Value::as_str), Some("a"));
        assert_eq!(root.path("spec/replicas").and_then(Value::as_i64), Some(3));
        assert!(root.path("spec/missing/x").is_none());
        assert!(root.path("spec/items/notanumber").is_none());
    }

    #[test]
    fn entry_map_creates_and_reuses() {
        let mut v = Value::new_map();
        v.entry_map("metadata").insert("name", Value::from("x"));
        v.entry_map("metadata").insert("ns", Value::from("y"));
        assert_eq!(v["metadata"]["name"].as_str(), Some("x"));
        assert_eq!(v["metadata"]["ns"].as_str(), Some("y"));
        // Null values are upgraded to maps.
        v.insert("labels", Value::Null);
        v.entry_map("labels").insert("app", Value::from("z"));
        assert_eq!(v["labels"]["app"].as_str(), Some("z"));
    }

    #[test]
    #[should_panic(expected = "not a mapping")]
    fn entry_map_rejects_scalars() {
        let mut v = Value::new_map();
        v.insert("x", Value::from(1i64));
        v.entry_map("x");
    }
}
