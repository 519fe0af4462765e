//! Dependency-free JSON: a small value model, a renderer, and a parser.
//!
//! The workspace is hermetic (no serde), but telemetry reports must be
//! machine-readable and — per the observability test contract — *round-trip*:
//! everything the sinks emit is parsed back by [`parse`] in the test suites.
//! Integers are kept distinct from floats so cycle counts survive exactly.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null` (also what non-finite floats render as).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer, rendered without a decimal point.
    Int(i64),
    /// An integer above `i64::MAX` (counters and sums past 2^63); every
    /// smaller integer is an `Int`.
    UInt(u64),
    /// A float, rendered with Rust's shortest round-trip representation.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object; insertion order is preserved.
    Object(Vec<(String, JsonValue)>),
}

impl From<bool> for JsonValue {
    fn from(v: bool) -> Self {
        JsonValue::Bool(v)
    }
}

impl From<i64> for JsonValue {
    fn from(v: i64) -> Self {
        JsonValue::Int(v)
    }
}

impl From<u64> for JsonValue {
    fn from(v: u64) -> Self {
        i64::try_from(v).map_or(JsonValue::UInt(v), JsonValue::Int)
    }
}

impl From<usize> for JsonValue {
    fn from(v: usize) -> Self {
        JsonValue::from(v as u64)
    }
}

impl From<u32> for JsonValue {
    fn from(v: u32) -> Self {
        JsonValue::Int(i64::from(v))
    }
}

impl From<f64> for JsonValue {
    fn from(v: f64) -> Self {
        JsonValue::Float(v)
    }
}

impl From<&str> for JsonValue {
    fn from(v: &str) -> Self {
        JsonValue::Str(v.to_string())
    }
}

impl From<String> for JsonValue {
    fn from(v: String) -> Self {
        JsonValue::Str(v)
    }
}

impl<T: Into<JsonValue>> From<Vec<T>> for JsonValue {
    fn from(v: Vec<T>) -> Self {
        JsonValue::Array(v.into_iter().map(Into::into).collect())
    }
}

/// Build an object from `(key, value)` pairs.
pub fn obj<const N: usize>(pairs: [(&str, JsonValue); N]) -> JsonValue {
    JsonValue::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

impl JsonValue {
    /// Append `(key, value)`; panics if `self` is not an object.
    pub fn push(&mut self, key: &str, value: impl Into<JsonValue>) {
        match self {
            JsonValue::Object(fields) => fields.push((key.to_string(), value.into())),
            other => panic!("push on non-object {other:?}"),
        }
    }

    /// Field lookup on objects; `None` otherwise.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an integer-ish number (`Int` directly, integral `Float`).
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            JsonValue::Int(v) => Some(v),
            JsonValue::Float(v) if v.fract() == 0.0 => Some(v as i64),
            _ => None,
        }
    }

    /// The value as an unsigned integer (`UInt` directly, else a
    /// non-negative [`JsonValue::as_i64`]).
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            JsonValue::UInt(v) => Some(v),
            _ => u64::try_from(self.as_i64()?).ok(),
        }
    }

    /// The value as a float (`Int` and `UInt` widened).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            JsonValue::Int(v) => Some(v as f64),
            JsonValue::UInt(v) => Some(v as f64),
            JsonValue::Float(v) => Some(v),
            _ => None,
        }
    }

    /// The value as a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            JsonValue::Bool(v) => Some(v),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Render to compact JSON text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Int(v) => {
                let _ = write!(out, "{v}");
            }
            JsonValue::UInt(v) => {
                let _ = write!(out, "{v}");
            }
            JsonValue::Float(v) => {
                if v.is_finite() {
                    let _ = write!(out, "{v}");
                    // `{}` prints integral floats without a point; keep the
                    // float-ness visible so parsers round-trip the type.
                    if v.fract() == 0.0 && v.abs() < 1e15 {
                        out.push_str(".0");
                    }
                } else {
                    out.push_str("null");
                }
            }
            JsonValue::Str(s) => render_string(s, out),
            JsonValue::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            JsonValue::Object(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_string(k, out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

fn render_string(s: &str, out: &mut String) {
    out.push('"');
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
    out.push('"');
}

/// A parse failure: byte offset and message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset the parser gave up at.
    pub at: usize,
    /// What it expected.
    pub msg: &'static str,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// Parse one JSON document (trailing whitespace allowed, nothing else).
///
/// # Errors
/// Returns a [`ParseError`] on malformed input or trailing garbage.
pub fn parse(text: &str) -> Result<JsonValue, ParseError> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(ParseError { at: pos, msg: "trailing characters" });
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, lit: &'static str) -> Result<(), ParseError> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(ParseError { at: *pos, msg: "unexpected token" })
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, ParseError> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(ParseError { at: *pos, msg: "unexpected end of input" }),
        Some(b'n') => expect(bytes, pos, "null").map(|()| JsonValue::Null),
        Some(b't') => expect(bytes, pos, "true").map(|()| JsonValue::Bool(true)),
        Some(b'f') => expect(bytes, pos, "false").map(|()| JsonValue::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(JsonValue::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(JsonValue::Array(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(JsonValue::Array(items));
                    }
                    _ => return Err(ParseError { at: *pos, msg: "expected ',' or ']'" }),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(JsonValue::Object(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(ParseError { at: *pos, msg: "expected ':'" });
                }
                *pos += 1;
                fields.push((key, parse_value(bytes, pos)?));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(JsonValue::Object(fields));
                    }
                    _ => return Err(ParseError { at: *pos, msg: "expected ',' or '}'" }),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, ParseError> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(ParseError { at: *pos, msg: "expected string" });
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(ParseError { at: *pos, msg: "unterminated string" }),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                let esc = bytes.get(*pos).copied();
                *pos += 1;
                match esc {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos..*pos + 4)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or(ParseError { at: *pos, msg: "bad \\u escape" })?;
                        *pos += 4;
                        // Surrogate pairs are not needed by our emitters.
                        out.push(
                            char::from_u32(hex)
                                .ok_or(ParseError { at: *pos, msg: "bad \\u code point" })?,
                        );
                    }
                    _ => return Err(ParseError { at: *pos, msg: "bad escape" }),
                }
            }
            Some(_) => {
                // Consume the whole unescaped run in one go. The input came
                // from a `&str` and the run is delimited by ASCII bytes, so
                // the slice is valid UTF-8 — and validating per run (not per
                // character) keeps parsing linear in the document size.
                let start = *pos;
                while let Some(&b) = bytes.get(*pos) {
                    if b == b'"' || b == b'\\' {
                        break;
                    }
                    *pos += 1;
                }
                let run = std::str::from_utf8(&bytes[start..*pos])
                    .map_err(|_| ParseError { at: start, msg: "invalid UTF-8" })?;
                out.push_str(run);
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, ParseError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut is_float = false;
    while let Some(&b) = bytes.get(*pos) {
        match b {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                is_float = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos])
        .map_err(|_| ParseError { at: start, msg: "invalid number" })?;
    if is_float {
        text.parse::<f64>()
            .map(JsonValue::Float)
            .map_err(|_| ParseError { at: start, msg: "invalid number" })
    } else {
        text.parse::<i64>()
            .map(JsonValue::Int)
            .or_else(|_| text.parse::<u64>().map(JsonValue::UInt))
            .map_err(|_| ParseError { at: start, msg: "invalid number" })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_compact_json() {
        let v = obj([
            ("name", "chunk".into()),
            ("n", 42u64.into()),
            ("ratio", 2.5.into()),
            ("ok", true.into()),
            ("items", vec![1i64, 2, 3].into()),
        ]);
        assert_eq!(v.render(), r#"{"name":"chunk","n":42,"ratio":2.5,"ok":true,"items":[1,2,3]}"#);
    }

    #[test]
    fn escapes_and_round_trips_strings() {
        let v = JsonValue::Str("a\"b\\c\nd\u{1}é".to_string());
        let text = v.render();
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn round_trips_nested_values() {
        let v = obj([
            ("null", JsonValue::Null),
            ("neg", (-7i64).into()),
            ("float", 0.125.into()),
            ("whole_float", 3.0.into()),
            ("big", u64::from(u32::MAX).into()),
            ("arr", JsonValue::Array(vec![obj([("k", "v".into())]), JsonValue::Bool(false)])),
        ]);
        let parsed = parse(&v.render()).unwrap();
        assert_eq!(parsed, v);
        // Integer-ness survives: cycle counts must not become floats.
        assert_eq!(parsed.get("big").unwrap(), &JsonValue::Int(4_294_967_295));
        assert_eq!(parsed.get("whole_float").unwrap(), &JsonValue::Float(3.0));
    }

    #[test]
    fn integers_round_trip_exactly_up_to_u64_max() {
        let top = i64::MAX as u64;
        for (v, want) in [
            (top, JsonValue::Int(i64::MAX)),
            (top + 1, JsonValue::UInt(top + 1)),
            (u64::MAX, JsonValue::UInt(u64::MAX)),
        ] {
            let json = JsonValue::from(v);
            assert_eq!(json, want);
            assert_eq!(json.render(), v.to_string());
            let parsed = parse(&json.render()).unwrap();
            assert_eq!(parsed, json, "{v}");
            assert_eq!(parsed.as_u64(), Some(v));
        }
        assert_eq!(JsonValue::UInt(u64::MAX).as_i64(), None, "no silent wrap");
        assert!(parse("18446744073709551616").is_err(), "past u64::MAX");
        assert_eq!(parse("-1").unwrap().as_u64(), None);
    }

    #[test]
    fn non_finite_floats_render_as_null() {
        assert_eq!(JsonValue::Float(f64::NAN).render(), "null");
        assert_eq!(JsonValue::Float(f64::INFINITY).render(), "null");
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("12 34").is_err());
        assert!(parse("\"open").is_err());
        assert!(parse("truth").is_err());
    }

    #[test]
    fn accessors() {
        let v = parse(r#"{"a":1,"b":"x","c":[1.5]}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_i64(), Some(1));
        assert_eq!(v.get("b").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("c").unwrap().as_array().unwrap()[0].as_f64(), Some(1.5));
        assert!(v.get("missing").is_none());
    }
}
