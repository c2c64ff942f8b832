//! A hand-rolled JSON writer — the workspace's one JSON emitter.
//!
//! Registry-free by design (no serde): [`JsonValue`] is a tiny
//! document tree with a deterministic renderer. The `dfm-signoff`
//! wire protocol and the `benchmark/` results both render through it,
//! so every JSON byte the workspace emits comes from this module.
//!
//! Numbers render through [`fmt_f64`]: integers without a fraction
//! (`3`, not `3.0`), everything else via Rust's shortest-round-trip
//! `Display`, so a value parsed back (`str::parse::<f64>`) reproduces
//! the exact bits. Non-finite numbers render as `null` (JSON has no
//! NaN/Infinity).

use std::fmt::Write as _;

/// A JSON document node.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number (non-finite renders as `null`).
    Num(f64),
    /// A string (escaped on render).
    Str(String),
    /// An ordered array.
    Arr(Vec<JsonValue>),
    /// An ordered object — insertion order is preserved on render, so
    /// output is deterministic.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// A string node.
    pub fn str(s: impl Into<String>) -> JsonValue {
        JsonValue::Str(s.into())
    }

    /// An object node from `(key, value)` pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (impl Into<String>, JsonValue)>) -> JsonValue {
        JsonValue::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// An exact u64 carried as a string (f64 loses integers above
    /// 2⁵³; sequence numbers and digests must survive round-trips).
    pub fn u64_str(v: u64) -> JsonValue {
        JsonValue::Str(v.to_string())
    }

    /// Renders the node as compact single-line JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Num(n) => out.push_str(&fmt_f64(*n)),
            JsonValue::Str(s) => escape_into(s, out),
            JsonValue::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            JsonValue::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    escape_into(k, out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Object field lookup (`None` on non-objects too).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string node.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number node.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean node.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The array items, if this is an array node.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Renders a finite f64 the way the reports expect: integral values
/// without a fraction, others in shortest-round-trip form; non-finite
/// as `null`.
pub fn fmt_f64(v: f64) -> String {
    if !v.is_finite() {
        return "null".to_string();
    }
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Appends `s` as a quoted, escaped JSON string, copying each run of
/// bytes that needs no escape in one piece. Every byte that does is
/// ASCII, so each run ends on a char boundary.
fn escape_into(s: &str, out: &mut String) {
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if b != b'"' && b != b'\\' && b >= 0x20 {
            continue;
        }
        out.push_str(&s[run..i]);
        run = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Escapes a string to a standalone JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    escape_into(s, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_document() {
        let doc = JsonValue::obj([
            ("name", JsonValue::str("a\"b")),
            ("n", JsonValue::Num(3.0)),
            ("frac", JsonValue::Num(0.5)),
            ("flag", JsonValue::Bool(true)),
            ("items", JsonValue::Arr(vec![JsonValue::Num(1.0), JsonValue::Null])),
        ]);
        assert_eq!(
            doc.render(),
            r#"{"name":"a\"b","n":3,"frac":0.5,"flag":true,"items":[1,null]}"#
        );
    }

    #[test]
    fn escapes_control_characters() {
        assert_eq!(escape("a\nb\t\u{1}"), "\"a\\nb\\t\\u0001\"");
    }

    #[test]
    fn numbers_round_trip_through_display() {
        for v in [0.1, 1.0 / 3.0, 1e300, -2.5e-8] {
            let s = fmt_f64(v);
            assert_eq!(s.parse::<f64>().unwrap().to_bits(), v.to_bits(), "{s}");
        }
        assert_eq!(fmt_f64(f64::NAN), "null");
        assert_eq!(fmt_f64(3.0), "3");
    }

    #[test]
    fn u64_survives_as_string() {
        let v = JsonValue::u64_str(u64::MAX);
        assert_eq!(v.render(), format!("\"{}\"", u64::MAX));
    }

    #[test]
    fn get_and_accessors() {
        let doc = JsonValue::obj([("k", JsonValue::Num(2.0))]);
        assert_eq!(doc.get("k").and_then(JsonValue::as_f64), Some(2.0));
        assert!(doc.get("missing").is_none());
        assert!(JsonValue::Null.get("k").is_none());
    }
}
