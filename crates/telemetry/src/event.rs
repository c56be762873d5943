//! Structured events and their JSON encoding.
//!
//! An [`Event`] is one timestamped record in the trace stream: a kind
//! (`"lut.lookup"`, `"snapshot.restore"`, …), the simulated cycle it
//! happened at, the span path that was open when it was emitted, and a
//! flat list of typed fields. Encoding is hand-rolled JSON — this crate
//! must stay dependency-free — with full string escaping so arbitrary
//! benchmark names survive a round trip through offline tooling.

use std::borrow::Cow;
use std::fmt::Write as _;

/// A typed field value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unsigned integer (counters, ids, cycle deltas).
    U64(u64),
    /// Signed integer (deltas that may go negative).
    I64(i64),
    /// Floating point (rates, errors).
    F64(f64),
    /// Boolean flag (hit/miss, enabled/disabled).
    Bool(bool),
    /// Free-form text (names, labels). Fixed labels such as `"L1"` are
    /// borrowed, so building the field costs no allocation.
    Str(Cow<'static, str>),
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(Cow::Owned(v.to_string()))
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(Cow::Owned(v))
    }
}

/// One structured trace record.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Simulated cycle the event is keyed on (0 outside simulation).
    pub cycle: u64,
    /// Event kind, dot-separated by convention (`"lut.hit"`).
    pub kind: &'static str,
    /// Full path of the innermost open span, empty when none.
    pub span: String,
    /// Typed payload fields.
    pub fields: Vec<(&'static str, Value)>,
}

impl Event {
    /// Fetch a field by name.
    pub fn field(&self, name: &str) -> Option<&Value> {
        self.fields.iter().find(|(n, _)| *n == name).map(|(_, v)| v)
    }
}

/// Escape `s` into `out` as the body of a JSON string literal.
pub fn escape_json(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

fn write_value(v: &Value, out: &mut String) {
    match v {
        Value::U64(x) => {
            let _ = write!(out, "{x}");
        }
        Value::I64(x) => {
            let _ = write!(out, "{x}");
        }
        Value::F64(x) => {
            // JSON has no NaN/Inf; encode them as null.
            if x.is_finite() {
                let _ = write!(out, "{x}");
            } else {
                out.push_str("null");
            }
        }
        Value::Bool(x) => {
            let _ = write!(out, "{x}");
        }
        Value::Str(x) => {
            out.push('"');
            escape_json(x, out);
            out.push('"');
        }
    }
}

/// Encode one event as a single JSON object (one JSONL line, no
/// trailing newline). Field names repeat into the flat object after the
/// `cycle`/`kind`/`span` header keys; a payload field that collides
/// with a header key is prefixed with `"f."` to keep the object valid.
pub fn event_to_json(e: &Event) -> String {
    let mut out = String::with_capacity(64 + 16 * e.fields.len());
    out.push_str("{\"cycle\":");
    let _ = write!(out, "{}", e.cycle);
    out.push_str(",\"kind\":\"");
    escape_json(e.kind, &mut out);
    out.push('"');
    if !e.span.is_empty() {
        out.push_str(",\"span\":\"");
        escape_json(&e.span, &mut out);
        out.push('"');
    }
    for (name, value) in &e.fields {
        out.push_str(",\"");
        if matches!(*name, "cycle" | "kind" | "span") {
            out.push_str("f.");
        }
        escape_json(name, &mut out);
        out.push_str("\":");
        write_value(value, &mut out);
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(fields: Vec<(&'static str, Value)>) -> Event {
        Event {
            cycle: 7,
            kind: "test.kind",
            span: String::new(),
            fields,
        }
    }

    #[test]
    fn plain_event_encodes() {
        let e = ev(vec![("hit", Value::Bool(true)), ("lut", Value::U64(3))]);
        assert_eq!(
            event_to_json(&e),
            r#"{"cycle":7,"kind":"test.kind","hit":true,"lut":3}"#
        );
    }

    #[test]
    fn strings_are_escaped() {
        let e = ev(vec![("name", Value::from("a\"b\\c\nd\te\u{1}"))]);
        assert_eq!(
            event_to_json(&e),
            "{\"cycle\":7,\"kind\":\"test.kind\",\"name\":\"a\\\"b\\\\c\\nd\\te\\u0001\"}"
        );
    }

    #[test]
    fn borrowed_and_owned_strings_encode_alike() {
        let borrowed = ev(vec![("level", Value::Str(Cow::Borrowed("L1\"x")))]);
        let owned = ev(vec![("level", Value::Str(Cow::Owned("L1\"x".to_string())))]);
        assert_eq!(borrowed, owned);
        assert_eq!(event_to_json(&borrowed), event_to_json(&owned));
        assert_eq!(
            event_to_json(&borrowed),
            r#"{"cycle":7,"kind":"test.kind","level":"L1\"x"}"#
        );
    }

    #[test]
    fn non_finite_floats_become_null() {
        let e = ev(vec![("x", Value::F64(f64::NAN)), ("y", Value::F64(1.5))]);
        assert_eq!(
            event_to_json(&e),
            r#"{"cycle":7,"kind":"test.kind","x":null,"y":1.5}"#
        );
    }

    #[test]
    fn header_collisions_are_prefixed() {
        let e = ev(vec![("kind", Value::U64(1))]);
        assert_eq!(
            event_to_json(&e),
            r#"{"cycle":7,"kind":"test.kind","f.kind":1}"#
        );
    }

    #[test]
    fn span_is_included_when_present() {
        let mut e = ev(vec![]);
        e.span = "run:fft/region:butterfly".to_string();
        assert_eq!(
            event_to_json(&e),
            r#"{"cycle":7,"kind":"test.kind","span":"run:fft/region:butterfly"}"#
        );
    }

    #[test]
    fn field_lookup() {
        let e = ev(vec![("a", Value::U64(1))]);
        assert_eq!(e.field("a"), Some(&Value::U64(1)));
        assert_eq!(e.field("b"), None);
    }
}
