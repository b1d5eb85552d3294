//! Minimal JSON reading/writing for the benchmark file DB and metrics
//! export.
//!
//! The workspace builds fully offline, so instead of `serde_json` the cache
//! and metrics serialize through this small [`Value`] tree. Objects preserve
//! insertion order, which keeps written files byte-deterministic — required
//! for the plan-determinism guarantee to extend to on-disk artifacts.

use std::fmt::Write as _;

/// A JSON document node.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (always carried as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; insertion-ordered, keys not deduplicated.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Object field by key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Non-negative integer value, if this is a whole number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// `usize` value, if this is a whole number in range.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|n| usize::try_from(n).ok())
    }

    /// String contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Serialize to compact JSON text.
    ///
    /// Numbers use Rust's shortest round-trip formatting, so `f64` values
    /// survive a write/parse cycle bit-exactly. Non-finite numbers (which
    /// JSON cannot express) are written as `null`.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(n) => {
                if n.is_finite() {
                    if n.fract() == 0.0 && n.abs() < 1e15 {
                        let _ = write!(out, "{}", *n as i64);
                    } else {
                        let _ = write!(out, "{n:?}");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Value::Str(s) => write_escaped(out, s),
            Value::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Value::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parse a JSON document. Returns `None` on any syntax error, trailing
    /// garbage or nesting deeper than `MAX_DEPTH` — callers treat that as
    /// "no data" (e.g. a corrupt cache file degrades to a cold cache).
    pub fn parse(text: &str) -> Option<Value> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let v = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos == bytes.len() {
            Some(v)
        } else {
            None
        }
    }
}

/// Convenience constructor for object literals.
pub fn obj(fields: impl IntoIterator<Item = (&'static str, Value)>) -> Value {
    Value::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Convenience constructor for numbers.
pub fn num(n: impl Into<f64>) -> Value {
    Value::Num(n.into())
}

fn write_escaped(out: &mut String, s: &str) {
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

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Option<()> {
    skip_ws(b, pos);
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Some(())
    } else {
        None
    }
}

/// Deepest nesting of arrays and objects the parser accepts. It recurses
/// once per level, so without a cap one request line of `[` overflows the
/// stack of the thread parsing it. No document the repository writes or
/// reads nests more than a few levels.
const MAX_DEPTH: usize = 128;

/// Parse one value that sits inside `depth` enclosing arrays and objects.
fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Option<Value> {
    skip_ws(b, pos);
    match *b.get(*pos)? {
        b'n' => parse_lit(b, pos, "null", Value::Null),
        b't' => parse_lit(b, pos, "true", Value::Bool(true)),
        b'f' => parse_lit(b, pos, "false", Value::Bool(false)),
        b'"' => parse_string(b, pos).map(Value::Str),
        b'[' | b'{' if depth == MAX_DEPTH => None,
        b'[' => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Some(Value::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos, depth + 1)?);
                skip_ws(b, pos);
                match b.get(*pos)? {
                    b',' => *pos += 1,
                    b']' => {
                        *pos += 1;
                        return Some(Value::Arr(items));
                    }
                    _ => return None,
                }
            }
        }
        b'{' => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Some(Value::Obj(fields));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                expect(b, pos, b':')?;
                let val = parse_value(b, pos, depth + 1)?;
                fields.push((key, val));
                skip_ws(b, pos);
                match b.get(*pos)? {
                    b',' => *pos += 1,
                    b'}' => {
                        *pos += 1;
                        return Some(Value::Obj(fields));
                    }
                    _ => return None,
                }
            }
        }
        b'-' | b'0'..=b'9' => parse_number(b, pos),
        _ => None,
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Value) -> Option<Value> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Some(v)
    } else {
        None
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Option<Value> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()?
        .parse::<f64>()
        .ok()
        .map(Value::Num)
}

fn parse_string(b: &[u8], pos: &mut usize) -> Option<String> {
    if b.get(*pos) != Some(&b'"') {
        return None;
    }
    *pos += 1;
    let mut out = String::new();
    let mut chars = std::str::from_utf8(&b[*pos..]).ok()?.char_indices();
    while let Some((i, c)) = chars.next() {
        match c {
            '"' => {
                *pos += i + 1;
                return Some(out);
            }
            '\\' => {
                let (_, esc) = chars.next()?;
                match esc {
                    '"' => out.push('"'),
                    '\\' => out.push('\\'),
                    '/' => out.push('/'),
                    'n' => out.push('\n'),
                    'r' => out.push('\r'),
                    't' => out.push('\t'),
                    'b' => out.push('\u{8}'),
                    'f' => out.push('\u{c}'),
                    'u' => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let (_, h) = chars.next()?;
                            code = code * 16 + h.to_digit(16)?;
                        }
                        out.push(char::from_u32(code)?);
                    }
                    _ => return None,
                }
            }
            c => out.push(c),
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_document() {
        let doc = obj([
            ("name", Value::Str("conv \"1\"\n".into())),
            ("times", Value::Arr(vec![num(1.5), num(2.0), num(0.125)])),
            (
                "nested",
                obj([("ok", Value::Bool(true)), ("none", Value::Null)]),
            ),
            ("count", num(42.0)),
        ]);
        let text = doc.to_json();
        let back = Value::parse(&text).unwrap();
        assert_eq!(back, doc);
    }

    #[test]
    fn f64_survives_round_trip_bit_exactly() {
        for x in [
            1.0 / 3.0,
            1e-17,
            123456789.123456,
            f64::MIN_POSITIVE,
            0.1 + 0.2,
        ] {
            let text = Value::Num(x).to_json();
            let back = Value::parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x} -> {text}");
        }
    }

    #[test]
    fn integers_are_written_without_exponent() {
        assert_eq!(num(4096.0).to_json(), "4096");
        assert_eq!(num(0.0).to_json(), "0");
    }

    #[test]
    fn rejects_garbage_and_truncation() {
        for bad in [
            "not json",
            "{\"a\":",
            "[1,2",
            "{\"a\" 1}",
            "[1,]",
            "1 2",
            "\"unterminated",
        ] {
            assert!(Value::parse(bad).is_none(), "accepted: {bad}");
        }
        // Nesting is capped at MAX_DEPTH levels: an unterminated run of `[`
        // long enough to overflow the stack, and a balanced array one level
        // too deep, are both rejected; the deepest allowed array parses.
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(Value::parse(&"[".repeat(100_000)).is_none());
        assert!(Value::parse(&nested(MAX_DEPTH + 1)).is_none());
        assert!(Value::parse(&nested(MAX_DEPTH)).is_some());
    }

    #[test]
    fn accessors_navigate_objects() {
        let v = Value::parse(r#"{"a": {"b": [1, "x"]}, "n": 7}"#).unwrap();
        assert_eq!(v.get("n").unwrap().as_u64(), Some(7));
        let arr = v.get("a").unwrap().get("b").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_usize(), Some(1));
        assert_eq!(arr[1].as_str(), Some("x"));
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn parses_whitespace_and_escapes() {
        let v = Value::parse(" { \"k\\u0041\" : \"a\\tb\" } ").unwrap();
        assert_eq!(v.get("kA").unwrap().as_str(), Some("a\tb"));
    }
}
