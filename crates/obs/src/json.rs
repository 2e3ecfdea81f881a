//! The workspace's JSON module: the `spa-serve` wire protocol, the
//! generated design manifests, the bench artifacts, the golden diff and
//! the obs reports all read and write JSON through it.
//!
//! The workspace has no external dependencies, so this module is a
//! small, std-only parser + serializer for objects, arrays, strings with
//! the standard escapes, `f64` numbers, booleans and null. Object keys
//! live in a `BTreeMap` so serialization order — and therefore the wire
//! bytes — are a deterministic function of the value. [`Json::render`]
//! writes one compact line; [`Json::pretty`] writes the indented layout
//! of the design manifests.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (stored as `f64`; integers up to 2^53 are exact,
    /// which covers every id/counter the protocol carries).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, key-sorted (deterministic serialization).
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// The object map, if this value is an object.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// The string payload, if this value is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number, if this value is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as a non-negative integer, if it is one exactly.
    pub fn as_u64(&self) -> Option<u64> {
        let n = self.as_f64()?;
        // Exact-zero fract is the integrality test, not an approximate
        // comparison. lint: allow(float-eq)
        if n.is_finite() && n >= 0.0 && n.fract() == 0.0 && n <= 9_007_199_254_740_992.0 {
            Some(n as u64) // integral and in range: exact
        } else {
            None
        }
    }

    /// The boolean, if this value is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Convenience: object field lookup (`None` on non-objects too).
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_obj()?.get(key)
    }

    /// Serializes the value on one line (no trailing newline).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    /// Serializes the value with 2-space indentation: one array element
    /// or object field per line, `"key": value` fields, empty containers
    /// as `[]` / `{}`, no trailing newline. Scalars are written as by
    /// [`Json::render`].
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.pretty_into(&mut out, 0);
        out
    }

    fn pretty_into(&self, out: &mut String, indent: usize) {
        let pad = "  ".repeat(indent + 1);
        let close = match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    out.push_str(&pad);
                    v.pretty_into(out, indent + 1);
                }
                ']'
            }
            Json::Obj(map) if !map.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    out.push_str(&pad);
                    render_str(k, out);
                    out.push_str(": ");
                    v.pretty_into(out, indent + 1);
                }
                '}'
            }
            _ => return self.render_into(out),
        };
        out.push('\n');
        out.push_str(&"  ".repeat(indent));
        out.push(close);
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(n) => {
                if n.is_finite() {
                    // `{}` on f64 is shortest-round-trip; integral values
                    // get an explicit `.0`-free integer form (exact-zero
                    // fract = integrality test). lint: allow(float-eq)
                    if n.fract() == 0.0 && n.abs() < 1e15 {
                        let _ = write!(out, "{n:.0}");
                    } else {
                        let _ = write!(out, "{n}");
                    }
                } else {
                    // JSON has no Inf/NaN; the protocol never produces
                    // them, but degrade to null rather than emit garbage.
                    out.push_str("null");
                }
            }
            Json::Str(s) => render_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_str(k, out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Self {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Self {
        Json::Str(s)
    }
}

impl From<f64> for Json {
    fn from(n: f64) -> Self {
        Json::Num(n)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Self {
        Json::Num(n as f64) // exact below 2^53
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Self {
        Json::Num(n as f64) // exact below 2^53
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Self {
        Json::Bool(b)
    }
}

/// Builder shorthand for object literals.
pub fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// `s` as a JSON string literal, quotes included — for the hand-laid
/// JSONL lines whose field order is fixed.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    render_str(s, &mut out);
    out
}

fn render_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A malformed JSON document handed to [`parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What went wrong.
    pub reason: &'static str,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json parse error at byte {}: {}", self.at, self.reason)
    }
}

impl std::error::Error for ParseError {}

/// Maximum container nesting depth accepted by [`parse`].
///
/// `value`/`object`/`array` are mutually recursive, so a hostile line of
/// a few hundred thousand `[` characters would otherwise exhaust the
/// parser thread's stack (an abort, not a typed error) — surfaced by the
/// `proto_fuzz` suite. 128 is far beyond anything the protocol nests
/// (requests are two levels deep) while keeping worst-case stack use in
/// the tens of kilobytes.
pub const MAX_DEPTH: usize = 128;

/// Parses one JSON document; trailing non-whitespace is an error.
pub fn parse(input: &str) -> Result<Json, ParseError> {
    let bytes = input.as_bytes();
    let mut p = Parser {
        src: input,
        bytes,
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, reason: &'static str) -> ParseError {
        ParseError {
            at: self.pos,
            reason,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Reads the 4 hex digits of a `\u` escape starting at byte `at`.
    fn hex4(&self, at: usize) -> Result<u32, ParseError> {
        let hex = self
            .bytes
            .get(at..at + 4)
            .ok_or_else(|| self.err("short \\u escape"))?;
        let hex = std::str::from_utf8(hex).map_err(|_| self.err("bad \\u escape"))?;
        u32::from_str_radix(hex, 16).map_err(|_| self.err("bad \\u escape"))
    }

    fn eat(&mut self, b: u8, reason: &'static str) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(reason))
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err("bad literal"))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'n') => self.lit("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn enter(&mut self) -> Result<(), ParseError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.err("too deeply nested"));
        }
        Ok(())
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.enter()?;
        let r = self.object_inner();
        self.depth -= 1;
        r
    }

    fn object_inner(&mut self) -> Result<Json, ParseError> {
        self.eat(b'{', "expected {")?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':', "expected : after key")?;
            self.skip_ws();
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(self.err("expected , or }")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.enter()?;
        let r = self.array_inner();
        self.depth -= 1;
        r
    }

    fn array_inner(&mut self) -> Result<Json, ParseError> {
        self.eat(b'[', "expected [")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected , or ]")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.eat(b'"', "expected string")?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let cp = self.hex4(self.pos + 1)?;
                            self.pos += 4;
                            let c = match cp {
                                // High surrogate: must be followed by a
                                // \u-escaped low surrogate; the pair
                                // encodes one astral code point (how
                                // ASCII-only serializers like Python's
                                // json.dumps emit e.g. emoji).
                                0xD800..=0xDBFF => {
                                    if self.bytes.get(self.pos + 1..self.pos + 3)
                                        != Some(br"\u")
                                    {
                                        return Err(self.err("unpaired surrogate \\u escape"));
                                    }
                                    let lo = self.hex4(self.pos + 3)?;
                                    if !(0xDC00..=0xDFFF).contains(&lo) {
                                        return Err(self.err("unpaired surrogate \\u escape"));
                                    }
                                    self.pos += 6;
                                    let astral =
                                        0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(astral)
                                        .ok_or_else(|| self.err("bad \\u code point"))?
                                }
                                0xDC00..=0xDFFF => {
                                    return Err(self.err("unpaired surrogate \\u escape"))
                                }
                                _ => char::from_u32(cp)
                                    .ok_or_else(|| self.err("bad \\u code point"))?,
                            };
                            out.push(c);
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run up to the next quote or backslash (or
                    // the end) in one step. Both are ASCII, so the run
                    // ends on a char boundary of the input.
                    let rest = &self.bytes[self.pos..];
                    let run = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(rest.len());
                    let text = self
                        .src
                        .get(self.pos..self.pos + run)
                        .ok_or_else(|| self.err("bad utf8"))?;
                    out.push_str(text);
                    self.pos += run;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("bad number"))?;
        let n = text.parse::<f64>().map_err(|_| ParseError {
            at: start,
            reason: "bad number",
        })?;
        // `"1e999".parse::<f64>()` succeeds as +Inf; JSON has no Inf/NaN
        // and letting one in would silently degrade to `null` on render
        // (surfaced by the `proto_fuzz` suite).
        if !n.is_finite() {
            return Err(ParseError {
                at: start,
                reason: "number out of range",
            });
        }
        Ok(Json::Num(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_scalars_and_containers() {
        for src in [
            "null",
            "true",
            "false",
            "0",
            "-17",
            "3.5",
            "\"hi\"",
            "[]",
            "[1,2,3]",
            "{}",
            "{\"a\":1,\"b\":[true,null]}",
        ] {
            let v = parse(src).expect(src);
            assert_eq!(parse(&v.render()).expect(src), v, "{src}");
        }
    }

    #[test]
    fn object_keys_serialize_sorted() {
        let v = parse("{\"z\":1,\"a\":2}").expect("parses");
        assert_eq!(v.render(), "{\"a\":2,\"z\":1}");
    }

    #[test]
    fn string_escapes_round_trip() {
        let v = Json::Str("a\"b\\c\nd\te\u{1}f".to_string());
        let rendered = v.render();
        assert_eq!(parse(&rendered).expect("parses"), v);
        assert!(rendered.contains("\\u0001"));
        let esc = parse("\"\\u0041\\/\\b\\f\"").expect("parses");
        assert_eq!(esc, Json::Str("A/\u{8}\u{c}".to_string()));
    }

    #[test]
    fn surrogate_pairs_decode_unpaired_reject() {
        // What an ASCII-escaping serializer (Python json.dumps) emits
        // for astral-plane characters.
        let v = parse("\"\\ud83d\\ude00\"").expect("surrogate pair parses");
        assert_eq!(v, Json::Str("\u{1f600}".to_string()));
        let v = parse("\"a\\uD83D\\uDE00b\"").expect("uppercase hex, embedded");
        assert_eq!(v, Json::Str("a\u{1f600}b".to_string()));
        for bad in [
            "\"\\ud83d\"",        // high surrogate at end of string
            "\"\\ud83dx\"",       // high surrogate followed by a raw char
            "\"\\ud83d\\n\"",     // high surrogate followed by a non-\u escape
            "\"\\ud83d\\u0041\"", // high surrogate paired with a non-surrogate
            "\"\\ude00\"",        // lone low surrogate
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // A scan that re-validated the rest of the input once per
        // character took 16.6 s on this in a release build.
        let body = "x".repeat(1 << 20);
        let doc = format!("{{\"s\":\"{body}\"}}");
        let t0 = std::time::Instant::now();
        let v = parse(&doc).expect("parses");
        let took = t0.elapsed();
        assert_eq!(v.get("s").and_then(Json::as_str), Some(body.as_str()));
        assert!(
            took < std::time::Duration::from_secs(2),
            "1 MiB string took {took:?}"
        );
    }

    #[test]
    fn mixed_strings_parse_run_by_run() {
        let plain = "plain run ".repeat(500);
        let src = format!(
            "\"{plain}\\\"\\\\\\/\\b\\f\\n\\r\\t\\u0041é\\ud83d\\ude00€\u{1f600}\t{plain}x\""
        );
        let want = format!("{plain}\"\\/\u{8}\u{c}\n\r\tAé\u{1f600}€\u{1f600}\t{plain}x");
        assert_eq!(parse(&src).expect("parses"), Json::Str(want));
        // An unterminated string still fails at the end of the input.
        let open = format!("\"{plain}é");
        let err = parse(&open).expect_err("unterminated");
        assert_eq!((err.at, err.reason), (open.len(), "unterminated string"));
    }

    #[test]
    fn accessors_and_integer_bounds() {
        let v = parse("{\"id\":42,\"x\":1.5,\"ok\":true,\"s\":\"y\"}").expect("parses");
        assert_eq!(v.get("id").and_then(Json::as_u64), Some(42));
        assert_eq!(v.get("x").and_then(Json::as_u64), None, "non-integer");
        assert_eq!(v.get("x").and_then(Json::as_f64), Some(1.5));
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("s").and_then(Json::as_str), Some("y"));
        assert_eq!(v.get("missing"), None);
        assert_eq!(parse("-1").expect("ok").as_u64(), None, "negative");
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\"}",
            "{\"a\":}",
            "tru",
            "\"unterminated",
            "1 2",
            "{\"a\":1}x",
            "\"\\q\"",
            "\"\\u12\"",
            "--1",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn deep_nesting_is_a_typed_error_not_a_stack_overflow() {
        // One level under the cap parses; one over errors; pathological
        // depth (the proto_fuzz regression) must not abort the process.
        let ok = format!("{}0{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok(), "depth == MAX_DEPTH parses");
        for deep in [MAX_DEPTH + 1, 100_000] {
            let src = "[".repeat(deep);
            let err = parse(&src).expect_err("too deep");
            assert_eq!(err.reason, "too deeply nested");
        }
        let objs = "{\"k\":".repeat(MAX_DEPTH + 1);
        assert_eq!(
            parse(&objs).expect_err("too deep").reason,
            "too deeply nested"
        );
        // Sibling containers do not accumulate depth.
        let wide = format!("[{}]", vec!["[0]"; 64].join(","));
        assert!(parse(&wide).is_ok(), "siblings stay shallow");
    }

    #[test]
    fn overflow_numbers_are_a_typed_error() {
        // f64 parsing accepts "1e999" as +Inf; the wire format must not
        // (proto_fuzz regression — Inf rendered back as null).
        for bad in ["1e999", "-1e999", "1e309", "123456789e400"] {
            let err = parse(bad).expect_err(bad);
            assert_eq!(err.reason, "number out of range", "{bad}");
        }
        assert!(parse("1e308").is_ok(), "large finite still parses");
        assert!(parse("1e-999").is_ok(), "underflow to 0.0 is fine");
    }

    #[test]
    fn large_exact_integers_render_without_exponent() {
        let v = Json::from(1_234_567_890_123u64);
        assert_eq!(v.render(), "1234567890123");
        assert_eq!(parse("1234567890123").expect("ok").as_u64(), Some(1_234_567_890_123));
    }

    #[test]
    fn scalars_format() {
        assert_eq!(Json::Null.pretty(), "null");
        assert_eq!(Json::from(true).pretty(), "true");
        assert_eq!(Json::from(42u64).pretty(), "42");
        assert_eq!(Json::from(2.5).pretty(), "2.5");
        assert_eq!(Json::from("hi").pretty(), "\"hi\"");
    }

    #[test]
    fn strings_escape() {
        let s = Json::from("a\"b\\c\nd\te");
        assert_eq!(s.pretty(), "\"a\\\"b\\\\c\\nd\\te\"");
        assert_eq!(Json::from("\u{1}").pretty(), "\"\\u0001\"");
        assert_eq!(
            quote("a\"b\\c\nd\te\u{1}"),
            "\"a\\\"b\\\\c\\nd\\te\\u0001\""
        );
    }

    #[test]
    fn nested_structure() {
        let doc = obj(vec![
            ("name", Json::from("spa")),
            ("pes", Json::from(256usize)),
            (
                "pus",
                Json::Arr(vec![Json::from(8usize), Json::from(16usize)]),
            ),
            ("inner", obj(vec![("ok", Json::from(true))])),
        ]);
        let text = doc.pretty();
        // Deterministic sorted keys.
        let inner = text.find("\"inner\"").unwrap();
        let name = text.find("\"name\"").unwrap();
        let pes = text.find("\"pes\"").unwrap();
        assert!(inner < name && name < pes);
        assert!(text.contains("\"pus\": [\n    8,\n    16\n  ]"));
    }

    #[test]
    fn empty_collections() {
        assert_eq!(Json::Arr(vec![]).pretty(), "[]");
        assert_eq!(obj(vec![]).pretty(), "{}");
    }
}
