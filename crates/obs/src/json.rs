//! A minimal, dependency-free JSON value type with a writer and parser.
//!
//! The build environment has no crates.io mirror, so the metrics export
//! cannot use `serde`. This module implements exactly the subset the
//! observability layer needs: a value tree, a pretty-printer with stable
//! (insertion-ordered) object keys, and a strict recursive-descent parser
//! used by the schema round-trip tests and the CI smoke check. The parser
//! runs in time linear in its input and refuses documents nested deeper
//! than 128 levels, so a hostile file cannot exhaust the stack.
//!
//! Integers are kept in a dedicated [`Json::U64`] variant so cycle counters
//! survive a write/parse round trip *exactly* — an `f64` mantissa would
//! silently lose precision past 2^53 cycles.

/// Deepest array/object nesting [`Json::parse`] accepts; anything deeper
/// is a [`JsonError`] rather than unbounded recursion.
const MAX_DEPTH: usize = 128;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer, written without a decimal point.
    U64(u64),
    /// A negative integer.
    I64(i64),
    /// A floating-point number (finite; NaN/inf are rendered as `null`).
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Keys keep insertion order so the export is byte-stable.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from key/value pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Looks up a key in an object (returns `None` for non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(v) => Some(*v),
            Json::I64(v) if *v >= 0 => Some(*v as u64),
            _ => None,
        }
    }

    /// The value as an `f64`, widening integers.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::U64(v) => Some(*v as f64),
            Json::I64(v) => Some(*v as f64),
            Json::F64(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Renders the value as pretty-printed JSON with a trailing newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        use std::fmt::Write as _;
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(v) => {
                let _ = write!(out, "{v}");
            }
            Json::I64(v) => {
                let _ = write!(out, "{v}");
            }
            Json::F64(v) => {
                if v.is_finite() {
                    if *v == v.trunc() && v.abs() < 1e15 {
                        // Keep a decimal point so the round trip stays F64.
                        let _ = write!(out, "{v:.1}");
                    } else {
                        let _ = write!(out, "{v}");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
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
                    out.push('\n');
                    push_indent(out, indent + 1);
                    item.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }

    /// Parses a JSON document (strict: exactly one value, full input, at
    /// most 128 levels of nesting).
    pub fn parse(src: &str) -> Result<Json, JsonError> {
        let bytes = src.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(JsonError { pos, reason: "trailing data after value" });
        }
        Ok(value)
    }
}

/// A parse failure: byte offset plus a static reason.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub pos: usize,
    /// What went wrong.
    pub reason: &'static str,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.pos, self.reason)
    }
}

impl std::error::Error for JsonError {}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    use std::fmt::Write as _;
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

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8, reason: &'static str) -> Result<(), JsonError> {
    if *pos < bytes.len() && bytes[*pos] == b {
        *pos += 1;
        Ok(())
    } else {
        Err(JsonError { pos: *pos, reason })
    }
}

/// Parses one value; `depth` counts the arrays and objects around it.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(JsonError { pos: *pos, reason: "unexpected end of input" }),
        Some(b'{' | b'[') if depth == MAX_DEPTH => {
            Err(JsonError { pos: *pos, reason: "nesting too deep" })
        }
        Some(b'{') => parse_obj(bytes, pos, depth + 1),
        Some(b'[') => parse_arr(bytes, pos, depth + 1),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_lit(
    bytes: &[u8],
    pos: &mut usize,
    lit: &'static str,
    value: Json,
) -> Result<Json, JsonError> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(JsonError { pos: *pos, reason: "invalid literal" })
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut float = false;
    while let Some(&b) = bytes.get(*pos) {
        match b {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                float = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos])
        .map_err(|_| JsonError { pos: start, reason: "invalid number" })?;
    if !float {
        if let Ok(v) = text.parse::<u64>() {
            return Ok(Json::U64(v));
        }
        if let Ok(v) = text.parse::<i64>() {
            return Ok(Json::I64(v));
        }
    }
    text.parse::<f64>()
        .map(Json::F64)
        .map_err(|_| JsonError { pos: start, reason: "invalid number" })
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    expect(bytes, pos, b'"', "expected string")?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(JsonError { pos: *pos, reason: "unterminated string" }),
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
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or(JsonError { pos: *pos, reason: "truncated \\u escape" })?;
                        let invalid = JsonError { pos: *pos, reason: "invalid \\u escape" };
                        // Exactly four hex digits: no sign, no spaces.
                        if !hex.iter().all(u8::is_ascii_hexdigit) {
                            return Err(invalid);
                        }
                        let code = hex
                            .iter()
                            .fold(0, |acc, &h| (acc << 4) | (h as char).to_digit(16).unwrap_or(0));
                        out.push(char::from_u32(code).ok_or(invalid)?);
                        *pos += 4;
                    }
                    _ => return Err(JsonError { pos: *pos, reason: "invalid escape" }),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the run up to the next quote or escape in one go.
                // Both are ASCII, so the run ends on a character boundary
                // of the (valid UTF-8) input.
                let start = *pos;
                while !matches!(bytes.get(*pos), None | Some(b'"' | b'\\')) {
                    *pos += 1;
                }
                let run = std::str::from_utf8(&bytes[start..*pos])
                    .map_err(|_| JsonError { pos: start, reason: "invalid UTF-8" })?;
                out.push_str(run);
            }
        }
    }
}

fn parse_arr(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    expect(bytes, pos, b'[', "expected array")?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(JsonError { pos: *pos, reason: "expected ',' or ']'" }),
        }
    }
}

fn parse_obj(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    expect(bytes, pos, b'{', "expected object")?;
    let mut pairs = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(pairs));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':', "expected ':'")?;
        let value = parse_value(bytes, pos, depth)?;
        pairs.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            _ => return Err(JsonError { pos: *pos, reason: "expected ',' or '}'" }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn round_trip_preserves_structure_and_integers() {
        let doc = Json::obj(vec![
            ("cycles", Json::U64(u64::MAX)),
            ("ratio", Json::F64(1.5)),
            ("name", Json::Str("net_read msg#0 → r9".into())),
            ("flags", Json::Arr(vec![Json::Bool(true), Json::Null, Json::I64(-3)])),
            ("nested", Json::obj(vec![("empty", Json::Obj(vec![]))])),
        ]);
        let text = doc.render();
        let back = Json::parse(&text).unwrap();
        assert_eq!(back, doc);
        // Exactness matters: u64::MAX does not fit in an f64 mantissa.
        assert_eq!(back.get("cycles").unwrap().as_u64(), Some(u64::MAX));
    }

    #[test]
    fn escapes_survive_round_trip() {
        let doc = Json::Str("a\"b\\c\nd\te\u{1}".into());
        assert_eq!(Json::parse(&doc.render()).unwrap(), doc);
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{\"a\":1} extra").is_err());
        assert!(Json::parse("trub").is_err());
    }

    #[test]
    fn unicode_escapes_take_exactly_four_hex_digits() {
        assert_eq!(Json::parse(r#""\u0041\u00e9""#).unwrap(), Json::Str("Aé".into()));
        for bad in [r#""\u+041""#, r#""\u 041""#, r#""\u00g1""#, r#""\u004""#] {
            assert!(Json::parse(bad).is_err(), "{bad} must be rejected");
        }
    }

    #[test]
    fn nesting_beyond_the_limit_is_an_error_not_a_crash() {
        let deep = "[".repeat(1_000_000);
        assert_eq!(Json::parse(&deep).unwrap_err().reason, "nesting too deep");
        let deep_obj = "{\"k\":".repeat(MAX_DEPTH + 1) + "0" + &"}".repeat(MAX_DEPTH + 1);
        assert_eq!(Json::parse(&deep_obj).unwrap_err().reason, "nesting too deep");
        // The limit itself is fine.
        let ok = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn non_ascii_strings_round_trip() {
        let doc = Json::obj(vec![("café ☕", Json::Str("naïve → 世界 🦀 \"q\" \\ end".into()))]);
        assert_eq!(Json::parse(&doc.render()).unwrap(), doc);
        assert_eq!(Json::parse("\"ß🦀\"").unwrap(), Json::Str("ß🦀".into()));
    }

    #[test]
    fn lookup_helpers() {
        let doc = Json::obj(vec![("k", Json::U64(7))]);
        assert_eq!(doc.get("k").and_then(Json::as_u64), Some(7));
        assert_eq!(doc.get("missing"), None);
        assert_eq!(Json::U64(2).as_f64(), Some(2.0));
        assert_eq!(Json::Str("x".into()).as_str(), Some("x"));
    }

    /// JSON-shaped text: structural tokens, escapes, numbers at the edges of
    /// their types, keywords and stray bytes, concatenated at random.
    fn json_ish() -> impl Strategy<Value = String> {
        const TOKENS: [&str; 24] = [
            "{",
            "}",
            "[",
            "]",
            ",",
            ":",
            "\"",
            "\\",
            "\\u",
            "\\ud800",
            "00e9",
            "1",
            "-",
            "0.5",
            "1e400",
            "18446744073709551616",
            "-9223372036854775809",
            "true",
            "nul",
            "null",
            " ",
            "\n",
            "é",
            "🦀",
        ];
        prop::collection::vec(
            prop_oneof![
                (0usize..TOKENS.len()).prop_map(|i| TOKENS[i].to_string()),
                any::<u8>().prop_map(|b| char::from(b).to_string()),
            ],
            0..48,
        )
        .prop_map(|parts| parts.concat())
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 1024, ..ProptestConfig::default() })]

        /// Arbitrary text returns `Ok` or `Err` from the parser, never a panic.
        #[test]
        fn parse_never_panics(text in json_ish()) {
            let _ = Json::parse(&text);
        }
    }
}
