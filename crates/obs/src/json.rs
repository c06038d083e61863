//! A minimal JSON value type and serializer.
//!
//! The workspace is intentionally dependency-free (offline builds are
//! part of the CI contract), so the `BENCH_*.json` artifacts are
//! produced with this hand-rolled serializer instead of serde. Only
//! what the bench reports need is implemented: objects preserve
//! insertion order, floats are emitted with enough precision to
//! round-trip nanosecond timings, and non-finite floats serialize as
//! `null` (JSON has no NaN/Infinity).

use std::fmt::Write as _;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (serialized without a decimal point).
    Int(i64),
    /// A float; NaN and infinities serialize as `null`.
    Float(f64),
    /// A string (escaped on serialization).
    Str(String),
    /// An ordered array.
    Array(Vec<Json>),
    /// An object; keys keep insertion order.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Convenience: a string value.
    #[must_use]
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Convenience: an unsigned integer (clamped to `i64::MAX`).
    #[must_use]
    pub fn uint(v: u64) -> Json {
        Json::Int(i64::try_from(v).unwrap_or(i64::MAX))
    }

    /// Parses a JSON document (strict: one value, only trailing
    /// whitespace after it, at most 128 levels of nesting). Integers without fraction/exponent become
    /// [`Json::Int`] (falling back to [`Json::Float`] on overflow);
    /// everything else numeric becomes [`Json::Float`]. Used by the
    /// golden tests to structurally validate Perfetto exports without
    /// pulling in serde.
    ///
    /// # Errors
    /// Returns a position-annotated message on malformed input.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, MAX_DEPTH)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(value)
    }

    /// Looks up `key` when this value is an object.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value as `f64`, for `Int` and `Float` alike.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Serializes with two-space indentation and a trailing newline —
    /// the format of the `BENCH_*.json` artifacts.
    #[must_use]
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Float(f) => {
                if f.is_finite() {
                    // {:?} prints the shortest representation that
                    // round-trips, and always includes a decimal point.
                    let _ = write!(out, "{f:?}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    item.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Json::Object(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    write_escaped(out, key);
                    out.push_str(": ");
                    value.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect_literal(bytes: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("expected `{lit}` at byte {pos}", pos = *pos))
    }
}

/// Arrays and objects nested deeper than this are rejected, so a
/// hostile document cannot overflow the parser's stack.
const MAX_DEPTH: usize = 128;

/// Parses one value; `depth` is how many more levels of nesting the
/// value may open.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    if matches!(bytes.get(*pos), Some(b'[' | b'{')) && depth == 0 {
        return Err(format!(
            "nesting deeper than {MAX_DEPTH} at byte {pos}",
            pos = *pos
        ));
    }
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'n') => expect_literal(bytes, pos, "null").map(|()| Json::Null),
        Some(b't') => expect_literal(bytes, pos, "true").map(|()| Json::Bool(true)),
        Some(b'f') => expect_literal(bytes, pos, "false").map(|()| Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Array(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth - 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Array(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Object(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(format!("expected `:` at byte {pos}", pos = *pos));
                }
                *pos += 1;
                fields.push((key, parse_value(bytes, pos, depth - 1)?));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Object(fields));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected `\"` at byte {pos}", pos = *pos));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                let esc = bytes
                    .get(*pos)
                    .copied()
                    .ok_or_else(|| "unterminated escape".to_string())?;
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        let hex = bytes
                            .get(*pos..*pos + 4)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or_else(|| "truncated \\u escape".to_string())?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| format!("bad \\u escape `{hex}`"))?;
                        *pos += 4;
                        // Surrogate pairs are not needed for our own
                        // output; map lone surrogates to U+FFFD.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    other => return Err(format!("bad escape `\\{}`", other as char)),
                }
            }
            Some(_) => {
                // Consume one UTF-8 scalar (input is a &str, so the
                // byte stream is valid UTF-8 by construction).
                let rest = &bytes[*pos..];
                let s = std::str::from_utf8(rest).map_err(|e| e.to_string())?;
                if let Some(c) = s.chars().next() {
                    out.push(c);
                    *pos += c.len_utf8();
                }
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
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
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    if text.is_empty() || text == "-" {
        return Err(format!("expected a number at byte {start}"));
    }
    if !is_float {
        if let Ok(i) = text.parse::<i64>() {
            return Ok(Json::Int(i));
        }
    }
    text.parse::<f64>()
        .map(Json::Float)
        .map_err(|_| format!("bad number `{text}` at byte {start}"))
}

fn push_indent(out: &mut String, levels: usize) {
    for _ in 0..levels {
        out.push_str("  ");
    }
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_serialize() {
        assert_eq!(Json::Null.pretty(), "null\n");
        assert_eq!(Json::Bool(true).pretty(), "true\n");
        assert_eq!(Json::Int(-7).pretty(), "-7\n");
        assert_eq!(Json::Float(1.5).pretty(), "1.5\n");
        assert_eq!(Json::uint(u64::MAX), Json::Int(i64::MAX));
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(Json::Float(f64::NAN).pretty(), "null\n");
        assert_eq!(Json::Float(f64::INFINITY).pretty(), "null\n");
        assert_eq!(Json::Float(f64::NEG_INFINITY).pretty(), "null\n");
    }

    #[test]
    fn strings_are_escaped() {
        let j = Json::str("a\"b\\c\nd\u{1}");
        assert_eq!(j.pretty(), "\"a\\\"b\\\\c\\nd\\u0001\"\n");
    }

    #[test]
    fn empty_containers_stay_compact() {
        assert_eq!(Json::Array(vec![]).pretty(), "[]\n");
        assert_eq!(Json::Object(vec![]).pretty(), "{}\n");
    }

    #[test]
    fn nested_structure_indents() {
        let j = Json::Object(vec![
            ("name".into(), Json::str("bitrev")),
            ("iters".into(), Json::uint(100)),
            (
                "samples".into(),
                Json::Array(vec![Json::Float(1.25), Json::Int(2)]),
            ),
        ]);
        let expected = "{\n  \"name\": \"bitrev\",\n  \"iters\": 100,\n  \"samples\": [\n    1.25,\n    2\n  ]\n}\n";
        assert_eq!(j.pretty(), expected);
    }

    #[test]
    fn parse_roundtrips_own_output() {
        let j = Json::Object(vec![
            ("name".into(), Json::str("a\"b\\c\nd")),
            ("n".into(), Json::Int(-42)),
            ("x".into(), Json::Float(1.25)),
            ("ok".into(), Json::Bool(true)),
            ("none".into(), Json::Null),
            (
                "arr".into(),
                Json::Array(vec![Json::Int(1), Json::str("two"), Json::Array(vec![])]),
            ),
            ("empty".into(), Json::Object(vec![])),
        ]);
        assert_eq!(Json::parse(&j.pretty()), Ok(j));
    }

    #[test]
    fn parse_rejects_malformed_input() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{\"a\" 1}").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("1 2").is_err());
        assert!(Json::parse("nulL").is_err());
    }

    #[test]
    fn parse_handles_numbers_and_escapes() {
        assert_eq!(Json::parse("-17"), Ok(Json::Int(-17)));
        assert_eq!(Json::parse("2.5e3"), Ok(Json::Float(2500.0)));
        assert_eq!(Json::parse("\"\\u0041\\t\\/\""), Ok(Json::str("A\t/")));
        // i64 overflow degrades to float rather than failing.
        assert_eq!(Json::parse("99999999999999999999"), Ok(Json::Float(1e20)));
    }

    #[test]
    fn get_and_as_f64_accessors() {
        let j = Json::parse("{\"ts\": 12, \"x\": 1.5}").unwrap();
        assert_eq!(j.get("ts").and_then(Json::as_f64), Some(12.0));
        assert_eq!(j.get("x").and_then(Json::as_f64), Some(1.5));
        assert_eq!(j.get("missing"), None);
        assert_eq!(Json::Null.get("ts"), None);
        assert_eq!(Json::str("s").as_f64(), None);
    }

    #[test]
    fn float_precision_roundtrips_nanoseconds() {
        let v = 1234.567891234;
        let s = Json::Float(v).pretty();
        let parsed: f64 = s.trim().parse().unwrap();
        assert_eq!(parsed, v);
    }
}
