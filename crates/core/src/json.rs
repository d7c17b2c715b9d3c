//! A minimal JSON value type with a writer and a recursive-descent parser,
//! and the scalar writers ([`write_u64`], [`write_f64`], [`write_str`]) the
//! codec appends its text with.
//!
//! The build environment vendors no external crates, so scenario
//! serialization cannot lean on serde; this module implements the small JSON
//! subset the [`crate::scenario`] types need: objects, arrays, strings,
//! booleans, null, and numbers. Unsigned integers are kept exact (they carry
//! picosecond timestamps and 64-bit seeds that would not survive an `f64`
//! round-trip).

use std::fmt::{self, Write};

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer literal (kept exact up to `u64::MAX`).
    UInt(u64),
    /// A negative integer literal.
    Int(i64),
    /// A fractional or exponent-form number.
    ///
    /// JSON has no representation for non-finite values: [`render`] emits
    /// `null` for `NaN`/`±inf` (so they re-parse as [`JsonValue::Null`],
    /// never as an invalid token a merging coordinator would choke on).
    /// Finite values round-trip bit-exactly: the writer uses Rust's
    /// shortest-round-trip formatting and the parser is correctly rounded.
    ///
    /// [`render`]: JsonValue::render
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object; insertion order is preserved.
    Object(Vec<(String, JsonValue)>),
}

/// Error produced when parsing or interpreting JSON.
#[derive(Clone, Debug, PartialEq)]
pub struct JsonError(pub String);

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error: {}", self.0)
    }
}

impl std::error::Error for JsonError {}

fn err<T>(msg: impl Into<String>) -> Result<T, JsonError> {
    Err(JsonError(msg.into()))
}

impl JsonValue {
    /// What this value is, for error messages: a number is shown (it is
    /// short), anything else is named and never echoed, so a message cannot
    /// grow with the input.
    pub fn kind(&self) -> String {
        match self {
            JsonValue::Null => "null".into(),
            JsonValue::Bool(_) => "bool".into(),
            JsonValue::UInt(_) | JsonValue::Int(_) | JsonValue::Float(_) => self.render(),
            JsonValue::Str(_) => "string".into(),
            JsonValue::Array(_) => "array".into(),
            JsonValue::Object(_) => "object".into(),
        }
    }

    /// Look up a key of an object.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Look up a key of an object, failing with a descriptive error.
    pub fn require(&self, key: &str) -> Result<&JsonValue, JsonError> {
        self.get(key)
            .ok_or_else(|| JsonError(format!("missing key {key:?}")))
    }

    /// Interpret as `u64` (integral floats are accepted).
    pub fn as_u64(&self) -> Result<u64, JsonError> {
        match self {
            JsonValue::UInt(n) => Ok(*n),
            JsonValue::Int(n) if *n >= 0 => Ok(*n as u64),
            JsonValue::Float(f) if *f >= 0.0 && f.fract() == 0.0 && *f <= 2f64.powi(53) => {
                Ok(*f as u64)
            }
            other => err(format!("expected unsigned integer, got {}", other.kind())),
        }
    }

    /// Interpret as `f64`.
    pub fn as_f64(&self) -> Result<f64, JsonError> {
        match self {
            JsonValue::UInt(n) => Ok(*n as f64),
            JsonValue::Int(n) => Ok(*n as f64),
            JsonValue::Float(f) => Ok(*f),
            other => err(format!("expected number, got {}", other.kind())),
        }
    }

    /// Interpret as a string slice.
    pub fn as_str(&self) -> Result<&str, JsonError> {
        match self {
            JsonValue::Str(s) => Ok(s),
            other => err(format!("expected string, got {}", other.kind())),
        }
    }

    /// Interpret as a bool.
    pub fn as_bool(&self) -> Result<bool, JsonError> {
        match self {
            JsonValue::Bool(b) => Ok(*b),
            other => err(format!("expected bool, got {}", other.kind())),
        }
    }

    /// Interpret as an array.
    pub fn as_array(&self) -> Result<&[JsonValue], JsonError> {
        match self {
            JsonValue::Array(items) => Ok(items),
            other => err(format!("expected array, got {}", other.kind())),
        }
    }

    /// Render to a compact JSON string.
    ///
    /// The output is always valid JSON: non-finite floats become `null`
    /// (see [`JsonValue::Float`]), and finite floats are written in a form
    /// that re-parses to the bit-identical `f64`. The scalars go through
    /// [`write_u64`], [`write_f64`] and [`write_str`], the writers the codec
    /// emits its text with, so the canonical form exists once.
    pub fn render(&self) -> String {
        let mut s = String::new();
        self.render_into(&mut s);
        s
    }

    fn render_into(&self, s: &mut String) {
        match self {
            JsonValue::Null => s.push_str("null"),
            JsonValue::Bool(b) => s.push_str(if *b { "true" } else { "false" }),
            JsonValue::UInt(n) => write_u64(*n, s),
            JsonValue::Int(n) => {
                let _ = write!(s, "{n}");
            }
            JsonValue::Float(f) => write_f64(*f, s),
            JsonValue::Str(text) => write_str(text, s),
            JsonValue::Array(items) => {
                s.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    item.render_into(s);
                }
                s.push(']');
            }
            JsonValue::Object(pairs) => {
                s.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    write_str(k, s);
                    s.push(':');
                    v.render_into(s);
                }
                s.push('}');
            }
        }
    }

    /// Parse a JSON document.
    pub fn parse(text: &str) -> Result<JsonValue, JsonError> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return err(format!("trailing data at byte {pos}"));
        }
        Ok(value)
    }
}

/// Build an object from key/value pairs (helper for serializers).
pub fn obj(pairs: Vec<(&str, JsonValue)>) -> JsonValue {
    JsonValue::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Append `n` as a JSON integer.
pub fn write_u64(n: u64, out: &mut String) {
    let _ = write!(out, "{n}");
}

/// Append `x` as a JSON number that re-parses to the bit-identical `f64`:
/// Rust's shortest round-trip form, with `.0` added when it has neither a
/// dot nor an exponent. NaN and ±inf have no JSON form and are written as
/// `null` (see [`JsonValue::Float`]).
pub fn write_f64(x: f64, out: &mut String) {
    if !x.is_finite() {
        out.push_str("null");
        return;
    }
    let start = out.len();
    let _ = write!(out, "{x}");
    if !out[start..].contains(['.', 'e', 'E']) {
        out.push_str(".0");
    }
}

/// Append `text` as a JSON string. `"`, `\` and the control bytes are
/// escaped (`\n`, `\r`, `\t`, else `\u00XX`); every other character is
/// copied as it is, so a string with nothing to escape is copied whole.
pub fn write_str(text: &str, out: &mut String) {
    out.push('"');
    let mut run = 0;
    for (i, b) in text.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        // Every escaped byte is ASCII, so `i` is a character boundary.
        out.push_str(&text[run..i]);
        if escape.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(escape);
        }
        run = i + 1;
    }
    out.push_str(&text[run..]);
    out.push('"');
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, c: u8) -> Result<(), JsonError> {
    skip_ws(bytes, pos);
    if *pos < bytes.len() && bytes[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        err(format!("expected {:?} at byte {}", c as char, *pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, JsonError> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => err("unexpected end of input"),
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => Ok(JsonValue::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", JsonValue::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", JsonValue::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    lit: &str,
    value: JsonValue,
) -> Result<JsonValue, JsonError> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, JsonError> {
    expect(bytes, pos, b'{')?;
    let mut pairs = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(JsonValue::Object(pairs));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos)?;
        pairs.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(JsonValue::Object(pairs));
            }
            _ => return err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, JsonError> {
    expect(bytes, pos, b'[')?;
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
            _ => return err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    if bytes.get(*pos) != Some(&b'"') {
        return err(format!("expected string at byte {}", *pos));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return err("unterminated string"),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let code = parse_u_escape(bytes, *pos)?;
                        *pos += 4;
                        if (0xD800..0xDC00).contains(&code) {
                            // High surrogate: must be followed by \uDC00-\uDFFF,
                            // the pair encodes one supplementary-plane char.
                            if bytes.get(*pos + 1..*pos + 3) != Some(b"\\u") {
                                return err("unpaired surrogate in \\u escape");
                            }
                            let low = parse_u_escape(bytes, *pos + 2)?;
                            if !(0xDC00..0xE000).contains(&low) {
                                return err("unpaired surrogate in \\u escape");
                            }
                            *pos += 6;
                            let combined = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                            out.push(
                                char::from_u32(combined)
                                    .ok_or_else(|| JsonError("bad surrogate pair".into()))?,
                            );
                        } else {
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| JsonError("unpaired surrogate".into()))?,
                            );
                        }
                    }
                    _ => return err("bad escape"),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the run up to the next quote or backslash in one
                // piece, validating only that run: both delimiters are
                // ASCII, so they never fall inside a multi-byte character.
                let rest = &bytes[*pos..];
                let len = rest
                    .iter()
                    .position(|b| matches!(b, b'"' | b'\\'))
                    .unwrap_or(rest.len());
                let run = std::str::from_utf8(&rest[..len])
                    .map_err(|_| JsonError("invalid utf-8".into()))?;
                out.push_str(run);
                *pos += len;
            }
        }
    }
}

/// Read the 4 hex digits of a `\uXXXX` escape; `pos_of_u` points at the
/// `u`.
fn parse_u_escape(bytes: &[u8], pos_of_u: usize) -> Result<u32, JsonError> {
    let hex = bytes
        .get(pos_of_u + 1..pos_of_u + 5)
        .ok_or_else(|| JsonError("truncated \\u escape".into()))?;
    let text = std::str::from_utf8(hex).map_err(|_| JsonError("bad \\u escape".into()))?;
    u32::from_str_radix(text, 16).map_err(|_| JsonError("bad \\u escape".into()))
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, JsonError> {
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
    let text = std::str::from_utf8(&bytes[start..*pos]).unwrap();
    if text.is_empty() || text == "-" {
        return err(format!("invalid number at byte {start}"));
    }
    if !is_float {
        if let Some(stripped) = text.strip_prefix('-') {
            if let Ok(n) = stripped.parse::<i64>() {
                return Ok(JsonValue::Int(-n));
            }
        } else if let Ok(n) = text.parse::<u64>() {
            return Ok(JsonValue::UInt(n));
        }
    }
    text.parse::<f64>()
        .map(JsonValue::Float)
        .map_err(|_| JsonError(format!("invalid number {text:?}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_documents() {
        let doc = obj(vec![
            ("name", JsonValue::Str("fig 11 \"Clos\"\n".into())),
            ("seed", JsonValue::UInt(u64::MAX)),
            ("load", JsonValue::Float(0.3)),
            ("offset", JsonValue::Int(-7)),
            ("incast", JsonValue::Bool(true)),
            ("nothing", JsonValue::Null),
            (
                "flows",
                JsonValue::Array(vec![JsonValue::UInt(1), JsonValue::UInt(2)]),
            ),
        ]);
        let text = doc.render();
        let back = JsonValue::parse(&text).unwrap();
        assert_eq!(back, doc);
        // u64::MAX survived exactly.
        assert_eq!(back.require("seed").unwrap().as_u64().unwrap(), u64::MAX);
        assert_eq!(back.get("load").unwrap().as_f64().unwrap(), 0.3);
        assert_eq!(back.get("offset").unwrap().as_f64().unwrap(), -7.0);
    }

    #[test]
    fn parses_whitespace_and_escapes() {
        let v = JsonValue::parse(" { \"a\" : [ 1 , 2.5e1 , \"x\\u0041\\n\" ] } ").unwrap();
        let arr = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(arr[0].as_u64().unwrap(), 1);
        assert_eq!(arr[1].as_f64().unwrap(), 25.0);
        assert_eq!(arr[2].as_str().unwrap(), "xA\n");
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "{\"a\":}", "[1,]", "tru", "\"unterminated", "1 2"] {
            assert!(JsonValue::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn surrogate_pairs_combine_and_unpaired_ones_error() {
        // A standard JSON surrogate-pair escape decodes to one char…
        let v = JsonValue::parse("\"\\ud83d\\ude80\"").unwrap();
        assert_eq!(v.as_str().unwrap(), "\u{1F680}");
        // …and that char round-trips through our writer (as raw UTF-8).
        assert_eq!(
            JsonValue::parse(&v.render()).unwrap().as_str().unwrap(),
            "\u{1F680}"
        );
        // Raw 2-, 3- and 4-byte characters directly against quotes, escapes
        // and \u pairs: every run boundary of the string parser.
        let mixed = "é\"€\\🚀\né\u{1}€🚀\"\\é";
        let text = JsonValue::Str(mixed.into()).render();
        assert_eq!(JsonValue::parse(&text).unwrap().as_str().unwrap(), mixed);
        let v = JsonValue::parse("\"é\\ud83d\\ude80€\\u00e9🚀\\\"é\"").unwrap();
        assert_eq!(v.as_str().unwrap(), "é🚀€é🚀\"é");
        // Unpaired surrogates are rejected instead of silently mangled.
        for bad in [
            "\"\\ud83d\"",
            "\"\\ud83d x\"",
            "\"\\ude80\"",
            "\"\\ud83d\\u0041\"",
        ] {
            assert!(JsonValue::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn parse_time_is_linear_in_the_input() {
        // ~8 MB of short strings. A string parser that validates the whole
        // remaining input once per character is quadratic and needs minutes
        // here, so the budget is two orders of magnitude from flaking.
        let doc = JsonValue::Array(
            (0..100_000)
                .map(|i| JsonValue::Str(format!("scenario {i:06} é {}", "x".repeat(64))))
                .collect(),
        );
        let text = doc.render();
        assert!(text.len() > 8_000_000, "{} bytes", text.len());
        let started = crate::timing::now();
        let back = JsonValue::parse(&text).unwrap();
        let took = started.elapsed();
        assert_eq!(back, doc);
        assert!(took.as_secs() < 10, "parsing 8 MB took {took:?}");
    }

    /// `write_str`'s rule one character at a time: the reference its
    /// whole-run copying is held to.
    fn reference_escape(text: &str) -> String {
        let mut out = String::from("\"");
        for c in text.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }

    #[test]
    fn write_str_escapes_every_byte_class() {
        let mut classes: Vec<String> = (0u8..0x20).map(|b| char::from(b).to_string()).collect();
        classes.extend(["\"", "\\", "/", "\u{7f}", "é", "€", "🚀", ""].map(String::from));
        let mut texts = vec![classes.concat()];
        for class in &classes {
            texts.push(class.clone());
            texts.push(format!("clean {class} text"));
            texts.push(format!("{class}{class}tail"));
            texts.push(format!("head{class}"));
        }
        for text in &texts {
            let mut out = String::new();
            write_str(text, &mut out);
            assert_eq!(out, reference_escape(text), "{text:?}");
            assert_eq!(JsonValue::parse(&out).unwrap().as_str().unwrap(), text);
            assert_eq!(JsonValue::Str(text.clone()).render(), out);
        }
        let mut out = String::from("[");
        write_str("", &mut out);
        assert_eq!(out, "[\"\"", "appends, and writes the empty string as \"\"");
    }

    #[test]
    fn write_f64_is_canonical_and_round_trips() {
        let text = |x: f64| {
            let mut out = String::new();
            write_f64(x, &mut out);
            out
        };
        for (x, want) in [
            (-0.0, "-0.0"),
            (1.0, "1.0"),
            (1e21, "1000000000000000000000.0"),
            (1e-7, "0.0000001"),
            (2f64.powi(53), "9007199254740992.0"),
            (0.3, "0.3"),
            (f64::NAN, "null"),
            (f64::INFINITY, "null"),
            (f64::NEG_INFINITY, "null"),
        ] {
            assert_eq!(text(x), want, "{x}");
        }
        // Shortest round-trip digits, never an exponent.
        assert_eq!(text(5e-324), format!("0.{}5", "0".repeat(323)));
        assert_eq!(
            text(f64::MAX),
            format!("17976931348623157{}.0", "0".repeat(292))
        );
        for x in [
            -0.0,
            1.0,
            1e21,
            1e-7,
            5e-324,
            f64::MAX,
            2f64.powi(53),
            0.1 + 0.2,
        ] {
            let written = text(x);
            let back = JsonValue::parse(&written).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x} -> {written}");
            assert_eq!(JsonValue::Float(x).render(), written);
        }
    }

    #[test]
    fn float_rendering_is_reparseable() {
        let v = JsonValue::Float(2.0);
        assert_eq!(v.render(), "2.0");
        assert_eq!(JsonValue::parse("2.0").unwrap().as_f64().unwrap(), 2.0);
    }

    #[test]
    fn non_finite_floats_render_as_null_not_invalid_tokens() {
        for f in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let doc = obj(vec![("x", JsonValue::Float(f))]);
            let text = doc.render();
            assert_eq!(text, "{\"x\":null}", "{f} must not leak into JSON");
            // The output re-parses (as null — the value does not survive,
            // the document does).
            let back = JsonValue::parse(&text).unwrap();
            assert_eq!(back.get("x"), Some(&JsonValue::Null));
        }
    }

    #[test]
    fn finite_floats_round_trip_bit_exactly() {
        for f in [
            0.0,
            -0.0,
            0.3,
            1.0 / 3.0,
            1e-12,
            6.02214076e23,
            1e300,
            -1e300,
            f64::MAX,
            f64::MIN,
            f64::MIN_POSITIVE,
            5e-324, // smallest subnormal
            -123_456_789.125,
        ] {
            let text = JsonValue::Float(f).render();
            let back = JsonValue::parse(&text)
                .unwrap_or_else(|e| panic!("{f} rendered as unparseable {text:?}: {e}"));
            let g = back.as_f64().unwrap();
            assert_eq!(g.to_bits(), f.to_bits(), "{f} -> {text} -> {g}");
        }
    }
}
