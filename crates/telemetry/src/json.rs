//! Hand-rolled JSON emit and parse.
//!
//! The workspace builds with zero external crates, so result persistence
//! and telemetry traces use this emitter instead of serde; structs opt in
//! with one [`crate::impl_to_json!`] line. The emitter half moved here from
//! `qtaccel-bench::report` (which re-exports it for compatibility) when
//! the telemetry layer started writing JSON; the parser half is new,
//! added so run manifests, Perfetto traces and flight-recorder dumps can
//! be round-trip verified and so the bench guard can read the recorded
//! `BENCH_throughput.json` baseline.

use std::fmt::Write as _;

/// A JSON value tree (the emit side: object keys are `&'static str`
/// because they come from `stringify!`-ed struct fields).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Signed integers keep full precision (no f64 round-trip).
    Int(i64),
    /// Unsigned integers keep full precision.
    UInt(u64),
    /// A float; NaN/Inf emit as `null` (JSON has no spelling for them).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with static keys, in insertion order.
    Obj(Vec<(&'static str, Json)>),
}

impl Json {
    /// Pretty-print with 2-space indentation (the layout
    /// `serde_json::to_string_pretty` produced, so existing result
    /// consumers keep working).
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0, true);
        out
    }

    /// Compact single-line form (one line of a JSONL file).
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0, false);
        out
    }

    fn write(&self, out: &mut String, depth: usize, pretty: bool) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::UInt(u) => {
                let _ = write!(out, "{u}");
            }
            Json::Num(n) => {
                if n.is_finite() {
                    // Rust's shortest-roundtrip Display; keep a decimal
                    // point so the value reads back as a float.
                    let s = format!("{n}");
                    out.push_str(&s);
                    if !s.contains(['.', 'e', 'E']) {
                        out.push_str(".0");
                    }
                } else {
                    // JSON has no NaN/Inf; null is the conventional spelling.
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_json_string(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    if pretty {
                        out.push('\n');
                        out.push_str(&"  ".repeat(depth + 1));
                    }
                    item.write(out, depth + 1, pretty);
                }
                if pretty {
                    out.push('\n');
                    out.push_str(&"  ".repeat(depth));
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    if pretty {
                        out.push('\n');
                        out.push_str(&"  ".repeat(depth + 1));
                    }
                    write_json_string(out, k);
                    out.push_str(if pretty { ": " } else { ":" });
                    v.write(out, depth + 1, pretty);
                }
                if pretty {
                    out.push('\n');
                    out.push_str(&"  ".repeat(depth));
                }
                out.push('}');
            }
        }
    }
}

fn write_json_string(out: &mut String, s: &str) {
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

/// Conversion into the [`Json`] tree. Derived for experiment structs by
/// [`crate::impl_to_json!`].
pub trait ToJson {
    /// The JSON representation of `self`.
    fn to_json(&self) -> Json;
}

macro_rules! to_json_uint {
    ($($t:ty),+) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::UInt(*self as u64)
            }
        }
    )+};
}
to_json_uint!(u8, u16, u32, u64, usize);

macro_rules! to_json_int {
    ($($t:ty),+) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::Int(*self as i64)
            }
        }
    )+};
}
to_json_int!(i8, i16, i32, i64, isize);

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Num(*self)
    }
}

impl ToJson for f32 {
    fn to_json(&self) -> Json {
        Json::Num(f64::from(*self))
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl ToJson for &str {
    fn to_json(&self) -> Json {
        Json::Str((*self).to_string())
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson, const N: usize> ToJson for [T; N] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl<A: ToJson, B: ToJson, C: ToJson> ToJson for (A, B, C) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json(), self.2.to_json()])
    }
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl ToJson for qtaccel_hdl::pipeline::CycleStats {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("cycles", Json::UInt(self.cycles)),
            ("samples", Json::UInt(self.samples)),
            ("stalls", Json::UInt(self.stalls)),
            ("fill_bubbles", Json::UInt(self.fill_bubbles)),
            ("forwards", Json::UInt(self.forwards)),
        ])
    }
}

/// Derive [`ToJson`] for a struct by listing its fields: field order in
/// the emitted object matches the listing.
#[macro_export]
macro_rules! impl_to_json {
    ($ty:ty { $($field:ident),+ $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Json {
                $crate::json::Json::Obj(vec![
                    $((stringify!($field), $crate::json::ToJson::to_json(&self.$field)),)+
                ])
            }
        }
    };
}

/// A parsed JSON value tree (the read side: owned string keys, since
/// parsed keys cannot be `&'static str`).
#[derive(Debug, Clone, PartialEq)]
pub enum Parsed {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, held as f64 (all values this workspace emits
    /// round-trip exactly through f64 up to 2⁵³, far beyond any counter
    /// a test pins).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Parsed>),
    /// An object in source order.
    Obj(Vec<(String, Parsed)>),
}

impl Parsed {
    /// Member lookup on an object (first match); `None` on non-objects.
    pub fn get(&self, key: &str) -> Option<&Parsed> {
        match self {
            Parsed::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a float, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Parsed::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as an unsigned integer, if numeric and integral.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Parsed::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Parsed::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Parsed::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Parsed]> {
        match self {
            Parsed::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Deepest array/object nesting [`parse`] accepts. The parser recurses
/// once per level, so this bounds its stack; the deepest tracked report
/// nests 7 levels.
const MAX_DEPTH: usize = 128;

/// Parse one JSON document. Strict on structure (this is a verification
/// tool, not a lenient reader): trailing garbage, unterminated tokens,
/// malformed escapes and nesting deeper than 128 levels are errors
/// with a byte offset.
pub fn parse(src: &str) -> Result<Parsed, String> {
    let bytes = src.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", c as char, *pos))
    }
}

/// Parse the value at `pos`, which sits inside `depth` arrays/objects.
fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Parsed, String> {
    skip_ws(b, pos);
    if depth == MAX_DEPTH && matches!(b.get(*pos), Some(b'[' | b'{')) {
        return Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", *pos));
    }
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'n') => parse_lit(b, pos, "null", Parsed::Null),
        Some(b't') => parse_lit(b, pos, "true", Parsed::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Parsed::Bool(false)),
        Some(b'"') => Ok(Parsed::Str(parse_string(b, pos)?)),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Parsed::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos, depth + 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Parsed::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Parsed::Obj(fields));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                expect(b, pos, b':')?;
                let value = parse_value(b, pos, depth + 1)?;
                fields.push((key, value));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Parsed::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
                }
            }
        }
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(b, pos),
        Some(c) => Err(format!("unexpected byte '{}' at {}", *c as char, *pos)),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Parsed) -> Result<Parsed, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Parsed, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len()
        && (b[*pos].is_ascii_digit() || matches!(b[*pos], b'.' | b'e' | b'E' | b'+' | b'-'))
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|_| "non-utf8 number".to_string())?;
    text.parse::<f64>()
        .map(Parsed::Num)
        .map_err(|_| format!("invalid number '{text}' at byte {start}"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| "truncated \\u escape".to_string())?;
                        let hex = std::str::from_utf8(hex)
                            .map_err(|_| "non-utf8 \\u escape".to_string())?;
                        let cp = u32::from_str_radix(hex, 16)
                            .map_err(|_| format!("invalid \\u escape '{hex}'"))?;
                        // Surrogate pairs are never emitted by this
                        // workspace; reject rather than mis-decode.
                        let c = char::from_u32(cp)
                            .ok_or_else(|| format!("invalid codepoint \\u{hex}"))?;
                        out.push(c);
                        *pos += 4;
                    }
                    _ => return Err(format!("invalid escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (multi-byte sequences pass
                // through unchanged since the source is a &str).
                let s = &b[*pos..];
                let text = std::str::from_utf8(s).map_err(|_| "non-utf8 string".to_string())?;
                let c = text.chars().next().expect("non-empty by match");
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_scalars_and_escaping() {
        assert_eq!(Json::Null.pretty(), "null");
        assert_eq!(Json::Bool(true).pretty(), "true");
        assert_eq!(Json::UInt(u64::MAX).pretty(), "18446744073709551615");
        assert_eq!(Json::Int(-7).pretty(), "-7");
        assert_eq!(Json::Num(1.5).pretty(), "1.5");
        assert_eq!(
            Json::Num(3.0).pretty(),
            "3.0",
            "floats keep a decimal point"
        );
        assert_eq!(Json::Num(f64::NAN).pretty(), "null");
        assert_eq!(
            Json::Str("a\"b\\c\nd\u{1}".into()).pretty(),
            "\"a\\\"b\\\\c\\nd\\u0001\""
        );
    }

    #[test]
    fn json_pretty_layout_matches_serde_style() {
        let v = Json::Obj(vec![
            ("rows", Json::Arr(vec![Json::UInt(1), Json::UInt(2)])),
            ("empty", Json::Arr(vec![])),
            ("name", Json::Str("x".into())),
        ]);
        assert_eq!(
            v.pretty(),
            "{\n  \"rows\": [\n    1,\n    2\n  ],\n  \"empty\": [],\n  \"name\": \"x\"\n}"
        );
    }

    #[test]
    fn compact_is_single_line() {
        let v = Json::Obj(vec![
            ("t", Json::Str("stage".into())),
            ("cycle", Json::UInt(12)),
        ]);
        assert_eq!(v.compact(), r#"{"t":"stage","cycle":12}"#);
    }

    #[test]
    fn impl_to_json_macro_round_trip() {
        struct Demo {
            n: usize,
            rate: f64,
            label: String,
            maybe: Option<u64>,
            pair: (u64, f64),
        }
        impl_to_json!(Demo {
            n,
            rate,
            label,
            maybe,
            pair
        });
        let d = Demo {
            n: 3,
            rate: 0.25,
            label: "q".into(),
            maybe: None,
            pair: (2, 0.5),
        };
        let out = d.to_json().pretty();
        assert!(out.contains("\"n\": 3"));
        assert!(out.contains("\"rate\": 0.25"));
        assert!(out.contains("\"label\": \"q\""));
        assert!(out.contains("\"maybe\": null"));
        assert!(out.contains("0.5"));
    }

    #[test]
    fn parse_round_trips_emitter_output() {
        let v = Json::Obj(vec![
            ("rows", Json::Arr(vec![Json::UInt(1), Json::Int(-2)])),
            ("rate", Json::Num(0.25)),
            ("big", Json::UInt(1 << 52)),
            ("name", Json::Str("a\"b\\c\nd".into())),
            ("flag", Json::Bool(false)),
            ("none", Json::Null),
            ("empty_obj", Json::Obj(vec![])),
        ]);
        for text in [v.pretty(), v.compact()] {
            let p = parse(&text).expect("parses");
            assert_eq!(p.get("rate").unwrap().as_f64(), Some(0.25));
            assert_eq!(p.get("big").unwrap().as_u64(), Some(1 << 52));
            assert_eq!(p.get("name").unwrap().as_str(), Some("a\"b\\c\nd"));
            assert_eq!(p.get("flag").unwrap().as_bool(), Some(false));
            assert_eq!(p.get("none"), Some(&Parsed::Null));
            let rows = p.get("rows").unwrap().as_arr().unwrap();
            assert_eq!(rows[0].as_u64(), Some(1));
            assert_eq!(rows[1].as_f64(), Some(-2.0));
            assert_eq!(p.get("empty_obj"), Some(&Parsed::Obj(vec![])));
        }
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1, 2",
            "{\"a\": }",
            "tru",
            "\"unterminated",
            "{\"a\": 1} trailing",
            "{\"a\" 1}",
            "\"bad \\u12zz escape\"",
        ] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn nesting_is_bounded_without_exhausting_the_stack() {
        let hostile = "[".repeat(200_000);
        let err = parse(&hostile).expect_err("200 000 open brackets");
        assert!(err.contains("nesting deeper than 128"), "{err}");
        let deepest = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&deepest).is_ok(), "128 levels parse");
        let objects = format!("{}1{}", "{\"a\":".repeat(MAX_DEPTH), "}".repeat(MAX_DEPTH));
        assert!(parse(&objects).is_ok(), "128 object levels parse");
        let one_more = format!("[{deepest}]");
        assert!(parse(&one_more).is_err(), "129 levels do not");
    }

    #[test]
    fn parse_handles_unicode_escapes_and_multibyte() {
        let p = parse(r#""café λ""#).unwrap();
        assert_eq!(p.as_str(), Some("café λ"));
    }

    #[test]
    fn cycle_stats_serialize() {
        let s = qtaccel_hdl::pipeline::CycleStats {
            cycles: 103,
            samples: 100,
            stalls: 0,
            fill_bubbles: 3,
            forwards: 7,
        };
        let p = parse(&s.to_json().pretty()).unwrap();
        assert_eq!(p.get("cycles").unwrap().as_u64(), Some(103));
        assert_eq!(p.get("forwards").unwrap().as_u64(), Some(7));
    }
}
