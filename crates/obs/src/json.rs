//! The workspace's hand-rolled JSON value layer.
//!
//! The build environment is offline (no JSON crate), and three
//! subsystems need to *read* JSON — the serving layer's wire protocol,
//! the bench-report round-trip tests, and the CI telemetry validator —
//! so the small recursive-descent parser lives here, in the
//! zero-dependency observability crate, and everyone shares it.
//! (It originated in `mba-serve`'s protocol module, which now
//! re-exports it.)
//!
//! The parser is total: any input either parses or yields a
//! position-annotated error. Note that bare `NaN` / `Infinity` /
//! `inf` tokens are **not** valid JSON and do not parse — which is
//! exactly the property the `BENCH_*.json` validators lean on.

use std::collections::BTreeMap;

/// Maximum JSON nesting depth the parser accepts (the workspace's
/// documents are flat; the bound only stops adversarial `[[[[…` stack
/// growth).
const MAX_JSON_DEPTH: usize = 32;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (lossy for integers above 2^53, which the
    /// workspace's documents never use).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; key order is irrelevant to every consumer.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// The value as an object, if it is one.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is one exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }
}

/// Parses one JSON document, requiring it to consume the whole input.
///
/// # Errors
///
/// Returns a position-annotated message on any syntax error.
pub fn parse_json(input: &str) -> Result<Json, String> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    if depth > MAX_JSON_DEPTH {
        return Err("nesting too deep".into());
    }
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => parse_object(b, pos, depth),
        Some(b'[') => parse_array(b, pos, depth),
        Some(b'"') => parse_string(b, pos).map(Json::Str),
        Some(b't') => parse_literal(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(b, pos, "null", Json::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(b, pos),
        Some(c) => Err(format!("unexpected byte {:?} at {}", *c as char, *pos)),
    }
}

fn parse_literal(b: &[u8], pos: &mut usize, lit: &str, v: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("bad literal at byte {}", *pos))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len()
        && (b[*pos].is_ascii_digit() || matches!(b[*pos], b'.' | b'e' | b'E' | b'+' | b'-'))
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|_| "bad utf-8".to_string())?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("malformed number `{text}` at byte {start}"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(b.get(*pos), Some(&b'"'));
    *pos += 1;
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
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = b.get(*pos + 1..*pos + 5).ok_or("truncated \\u escape")?;
                        let hex =
                            std::str::from_utf8(hex).map_err(|_| "bad \\u escape".to_string())?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| format!("bad \\u escape `{hex}`"))?;
                        // Surrogates render as U+FFFD; no workspace
                        // producer emits them, so no pairing logic is
                        // warranted.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (multi-byte sequences were
                // validated when the document was decoded to &str).
                let s = std::str::from_utf8(&b[*pos..]).map_err(|_| "bad utf-8".to_string())?;
                let c = s.chars().next().unwrap();
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    *pos += 1; // '['
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos, depth + 1)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected `,` or `]` at byte {}", *pos)),
        }
    }
}

fn parse_object(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    *pos += 1; // '{'
    let mut map = BTreeMap::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(map));
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') {
            return Err(format!("expected string key at byte {}", *pos));
        }
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(format!("expected `:` at byte {}", *pos));
        }
        *pos += 1;
        let value = parse_value(b, pos, depth + 1)?;
        map.insert(key, value);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            _ => return Err(format!("expected `,` or `}}` at byte {}", *pos)),
        }
    }
}

/// Escapes a string for embedding in a JSON document.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
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
    out
}

/// Walks a parsed document and returns the path of the first offending
/// value under the telemetry contract: every number finite (guaranteed
/// by the grammar, asserted anyway) and **no `null`s** — the report
/// writers serialize non-finite floats as `null`, so a `null` in an
/// emitted `BENCH_*.json` means a non-finite aggregate slipped through
/// a producer. The CI `obs-smoke` validator is built on this.
pub fn find_non_finite(doc: &Json) -> Option<String> {
    fn walk(v: &Json, path: &str) -> Option<String> {
        match v {
            Json::Null => Some(format!("{path}: null (sanitized non-finite number)")),
            Json::Num(n) if !n.is_finite() => Some(format!("{path}: non-finite number")),
            Json::Arr(items) => items
                .iter()
                .enumerate()
                .find_map(|(i, item)| walk(item, &format!("{path}[{i}]"))),
            Json::Obj(map) => map
                .iter()
                .find_map(|(k, item)| walk(item, &format!("{path}.{k}"))),
            _ => None,
        }
    }
    walk(doc, "$")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_containers() {
        assert_eq!(parse_json("null").unwrap(), Json::Null);
        assert_eq!(parse_json("true").unwrap(), Json::Bool(true));
        assert_eq!(parse_json("-2.5e1").unwrap(), Json::Num(-25.0));
        assert_eq!(
            parse_json("\"a\\nb\\u0041\"").unwrap(),
            Json::Str("a\nbA".into())
        );
        assert_eq!(
            parse_json("[1, [2], {}]").unwrap(),
            Json::Arr(vec![
                Json::Num(1.0),
                Json::Arr(vec![Json::Num(2.0)]),
                Json::Obj(BTreeMap::new())
            ])
        );
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "}",
            "{\"a\"}",
            "{\"a\":}",
            "[1,]",
            "{\"a\":1,}",
            "tru",
            "\"open",
            "{\"a\":1} trailing",
            "{'a':1}",
            "{\"a\":01x}",
        ] {
            assert!(parse_json(bad).is_err(), "`{bad}` should not parse");
        }
    }

    #[test]
    fn rejects_non_finite_number_tokens() {
        // JSON has no spelling for non-finite numbers; a writer that
        // leaks one produces an unparseable file, never a silent NaN.
        for bad in [
            "NaN",
            "Infinity",
            "-Infinity",
            "inf",
            "{\"x\":NaN}",
            "{\"x\":inf}",
        ] {
            assert!(parse_json(bad).is_err(), "`{bad}` should not parse");
        }
    }

    #[test]
    fn deep_nesting_is_bounded() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(parse_json(&deep).is_err());
        let ok = "[".repeat(10) + &"]".repeat(10);
        assert!(parse_json(&ok).is_ok());
    }

    #[test]
    fn escaping_round_trips_hostile_strings() {
        let hostile = "a\"b\\c\nd\te\r\u{1}";
        let doc = format!("{{\"k\":\"{}\"}}", json_escape(hostile));
        let parsed = parse_json(&doc).unwrap();
        assert_eq!(parsed.as_obj().unwrap()["k"].as_str(), Some(hostile));
    }

    #[test]
    fn non_finite_detector_flags_nulls_with_paths() {
        let clean = parse_json("{\"a\": 1, \"b\": [2.5, {\"c\": 0}]}").unwrap();
        assert_eq!(find_non_finite(&clean), None);
        let dirty = parse_json("{\"a\": 1, \"b\": [2.5, {\"c\": null}]}").unwrap();
        let path = find_non_finite(&dirty).unwrap();
        assert!(path.starts_with("$.b[1].c"), "{path}");
    }
}
