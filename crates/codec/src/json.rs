//! A small JSON value model with a strict parser and a deterministic writer.
//!
//! It is the layer under every canonical metrics/policy document, the
//! store's catalog and the debugger CLI's spelling of a command and its
//! response (a debugger message crosses the wire as a binary fleet frame).
//! It is deliberately minimal:
//!
//! * integers are kept exact ([`Json::Int`] / [`Json::UInt`] — a `u64`
//!   step index or address never goes through an `f64`),
//! * object keys keep insertion order, so encoding is a pure function of
//!   the value (deterministic output is the house discipline),
//! * the parser is strict: no trailing garbage, no unescaped control
//!   characters, bounded nesting depth.

use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// A number that fits in `i64` (all negative integers land here).
    Int(i64),
    /// A non-negative integer too large for `i64`.
    UInt(u64),
    /// A number with a fraction or exponent part.
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Key-value pairs in insertion order (duplicates rejected on parse).
    Obj(Vec<(String, Json)>),
}

/// Parse or conversion failure: what went wrong and (for parse errors)
/// the byte offset it was noticed at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    pub msg: String,
    pub at: usize,
}

impl JsonError {
    pub fn new(msg: impl Into<String>) -> Self {
        Self {
            msg: msg.into(),
            at: 0,
        }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for JsonError {}

// ---------------------------------------------------------------------
// Value accessors.
// ---------------------------------------------------------------------

impl Json {
    pub fn as_bool(&self) -> Result<bool, JsonError> {
        match self {
            Json::Bool(b) => Ok(*b),
            other => Err(JsonError::new(format!("expected bool, got {other}"))),
        }
    }

    pub fn as_u64(&self) -> Result<u64, JsonError> {
        match self {
            Json::Int(v) if *v >= 0 => Ok(*v as u64),
            Json::UInt(v) => Ok(*v),
            other => Err(JsonError::new(format!(
                "expected unsigned int, got {other}"
            ))),
        }
    }

    pub fn as_i64(&self) -> Result<i64, JsonError> {
        match self {
            Json::Int(v) => Ok(*v),
            Json::UInt(v) => {
                i64::try_from(*v).map_err(|_| JsonError::new(format!("integer {v} overflows i64")))
            }
            other => Err(JsonError::new(format!("expected int, got {other}"))),
        }
    }

    pub fn as_str(&self) -> Result<&str, JsonError> {
        match self {
            Json::Str(s) => Ok(s),
            other => Err(JsonError::new(format!("expected string, got {other}"))),
        }
    }

    pub fn as_arr(&self) -> Result<&[Json], JsonError> {
        match self {
            Json::Arr(v) => Ok(v),
            other => Err(JsonError::new(format!("expected array, got {other}"))),
        }
    }

    pub fn as_obj(&self) -> Result<&[(String, Json)], JsonError> {
        match self {
            Json::Obj(v) => Ok(v),
            other => Err(JsonError::new(format!("expected object, got {other}"))),
        }
    }

    /// Look up a key in an object; `None` if absent (or not an object).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Look up a required key in an object.
    pub fn field(&self, key: &str) -> Result<&Json, JsonError> {
        self.get(key)
            .ok_or_else(|| JsonError::new(format!("missing field \"{key}\"")))
    }

    /// Build an object value from pairs (keys keep the given order).
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Recursively sort every object's keys, in place. Canonical form is
    /// the contract for telemetry output: two semantically equal values
    /// canonicalize to byte-identical encodings regardless of the order
    /// their fields were assembled in.
    pub fn canonicalize(&mut self) {
        match self {
            Json::Arr(items) => {
                for item in items {
                    item.canonicalize();
                }
            }
            Json::Obj(pairs) => {
                for (_, v) in pairs.iter_mut() {
                    v.canonicalize();
                }
                pairs.sort_by(|(a, _), (b, _)| a.cmp(b));
            }
            _ => {}
        }
    }

    /// Canonical (sorted-keys) one-line encoding; see [`Json::canonicalize`].
    pub fn to_canonical_string(&self) -> String {
        let mut c = self.clone();
        c.canonicalize();
        c.to_string()
    }
}

// ---------------------------------------------------------------------
// Writer.
// ---------------------------------------------------------------------

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

impl Json {
    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Int(v) => out.push_str(&v.to_string()),
            Json::UInt(v) => out.push_str(&v.to_string()),
            Json::Num(v) => {
                if v.is_finite() {
                    out.push_str(&format!("{v:?}"));
                } else {
                    // JSON has no NaN/Infinity; null is the least-bad spelling.
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
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
}

// ---------------------------------------------------------------------
// Parser — strict recursive descent over bytes.
// ---------------------------------------------------------------------

const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: impl Into<String>) -> JsonError {
        JsonError {
            msg: msg.into(),
            at: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.buf.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.bump() == Some(b) {
            Ok(())
        } else {
            self.pos = self.pos.saturating_sub(1);
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, val: Json) -> Result<Json, JsonError> {
        if self.buf[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(val)
        } else {
            Err(self.err(format!("invalid literal (expected {lit})")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(format!("unexpected character '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(Json::Arr(items)),
                _ => {
                    self.pos = self.pos.saturating_sub(1);
                    return Err(self.err("expected ',' or ']'"));
                }
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut pairs: Vec<(String, Json)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            if pairs.iter().any(|(k, _)| *k == key) {
                return Err(self.err(format!("duplicate key \"{key}\"")));
            }
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value(depth + 1)?;
            pairs.push((key, val));
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(Json::Obj(pairs)),
                _ => {
                    self.pos = self.pos.saturating_sub(1);
                    return Err(self.err("expected ',' or '}'"));
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u16, JsonError> {
        let mut v = 0u16;
        for _ in 0..4 {
            let b = self
                .bump()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let d = (b as char)
                .to_digit(16)
                .ok_or_else(|| self.err("bad hex digit in \\u escape"))?;
            v = (v << 4) | d as u16;
        }
        Ok(v)
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: copy a run of plain ASCII/UTF-8 bytes verbatim.
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.buf[start..self.pos])
                    .map_err(|_| self.err("invalid utf-8 in string"))?,
            );
            match self.bump() {
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{08}'),
                    Some(b'f') => out.push('\u{0C}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hi = self.hex4()?;
                        let c = if (0xD800..0xDC00).contains(&hi) {
                            // Surrogate pair: require \uXXXX for the low half.
                            self.expect(b'\\')?;
                            self.expect(b'u')?;
                            let lo = self.hex4()?;
                            if !(0xDC00..0xE000).contains(&lo) {
                                return Err(self.err("unpaired high surrogate"));
                            }
                            let cp =
                                0x10000 + (((hi - 0xD800) as u32) << 10) + (lo - 0xDC00) as u32;
                            char::from_u32(cp).ok_or_else(|| self.err("bad surrogate pair"))?
                        } else if (0xDC00..0xE000).contains(&hi) {
                            return Err(self.err("unpaired low surrogate"));
                        } else {
                            char::from_u32(hi as u32).ok_or_else(|| self.err("bad \\u escape"))?
                        };
                        out.push(c);
                    }
                    _ => return Err(self.err("bad escape")),
                },
                Some(_) => return Err(self.err("raw control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        let neg = self.peek() == Some(b'-');
        if neg {
            self.pos += 1;
        }
        let int_start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let int_digits = &self.buf[int_start..self.pos];
        if int_digits.is_empty() {
            return Err(self.err("expected digits"));
        }
        if int_digits.len() > 1 && int_digits[0] == b'0' {
            return Err(self.err("leading zero"));
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("expected fraction digits"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("expected exponent digits"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.buf[start..self.pos]).unwrap();
        if is_float {
            return text
                .parse::<f64>()
                .map(Json::Num)
                .map_err(|_| self.err("bad number"));
        }
        if neg {
            text.parse::<i64>()
                .map(Json::Int)
                .map_err(|_| self.err("integer overflows i64"))
        } else {
            match text.parse::<u64>() {
                Ok(v) => Ok(i64::try_from(v).map(Json::Int).unwrap_or(Json::UInt(v))),
                Err(_) => Err(self.err("integer overflows u64")),
            }
        }
    }
}

impl Json {
    /// Parse a complete JSON document; trailing non-whitespace is an error.
    pub fn parse(s: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            buf: s.as_bytes(),
            pos: 0,
        };
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.buf.len() {
            return Err(p.err("trailing characters"));
        }
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(j: &Json) {
        let s = j.to_string();
        assert_eq!(&Json::parse(&s).unwrap(), j, "encoded as {s}");
    }

    #[test]
    fn scalars_roundtrip() {
        roundtrip(&Json::Null);
        roundtrip(&Json::Bool(true));
        roundtrip(&Json::Bool(false));
        roundtrip(&Json::Int(0));
        roundtrip(&Json::Int(-42));
        roundtrip(&Json::Int(i64::MIN));
        roundtrip(&Json::Int(i64::MAX));
        roundtrip(&Json::UInt(u64::MAX));
        roundtrip(&Json::Str("hello".into()));
    }

    #[test]
    fn strings_with_escapes_roundtrip() {
        for s in [
            "",
            "plain",
            "quote \" backslash \\ slash /",
            "newline\ntab\tcr\r",
            "control \u{01} \u{1f}",
            "unicode: déjà vu — 既視感 🦀",
        ] {
            roundtrip(&Json::Str(s.into()));
        }
    }

    #[test]
    fn nested_structures_roundtrip() {
        roundtrip(&Json::obj(vec![
            ("cmd", Json::Str("break".into())),
            ("args", Json::Arr(vec![Json::Int(1), Json::Null])),
            (
                "inner",
                Json::obj(vec![("deep", Json::Arr(vec![Json::Obj(vec![])]))]),
            ),
        ]));
    }

    #[test]
    fn u64_max_survives_exactly() {
        let j = Json::parse("18446744073709551615").unwrap();
        assert_eq!(j.as_u64().unwrap(), u64::MAX);
    }

    #[test]
    fn floats_parse() {
        assert_eq!(Json::parse("1.5").unwrap(), Json::Num(1.5));
        assert_eq!(Json::parse("-2e3").unwrap(), Json::Num(-2000.0));
    }

    #[test]
    fn surrogate_pairs_decode() {
        assert_eq!(
            Json::parse("\"\\ud83e\\udd80\"").unwrap(),
            Json::Str("🦀".into())
        );
        assert!(Json::parse("\"\\ud83e\"").is_err());
        assert!(Json::parse("\"\\udd80\"").is_err());
    }

    #[test]
    fn whitespace_tolerated_between_tokens() {
        let j = Json::parse(" { \"a\" : [ 1 , 2 ] , \"b\" : null } ").unwrap();
        assert_eq!(j.field("a").unwrap().as_arr().unwrap().len(), 2);
    }

    #[test]
    fn malformed_inputs_rejected() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\":1,}",
            "01",
            "1.",
            "1e",
            "tru",
            "\"unterminated",
            "\"bad \\x escape\"",
            "[1] trailing",
            "{\"a\":1,\"a\":2}",
            "nan",
            "--1",
            "18446744073709551616",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn deep_nesting_bounded() {
        let s = "[".repeat(200) + &"]".repeat(200);
        assert!(Json::parse(&s).is_err());
        let ok = "[".repeat(50) + &"]".repeat(50);
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn object_key_order_is_stable() {
        let j = Json::obj(vec![("z", Json::Int(1)), ("a", Json::Int(2))]);
        assert_eq!(j.to_string(), "{\"z\":1,\"a\":2}");
    }

    #[test]
    fn canonicalize_sorts_keys_recursively() {
        let j = Json::obj(vec![
            ("z", Json::Int(1)),
            (
                "a",
                Json::Arr(vec![Json::obj(vec![
                    ("m", Json::Null),
                    ("b", Json::Bool(true)),
                ])]),
            ),
        ]);
        assert_eq!(
            j.to_canonical_string(),
            "{\"a\":[{\"b\":true,\"m\":null}],\"z\":1}"
        );
        // Two assembly orders, one canonical encoding.
        let k = Json::obj(vec![
            (
                "a",
                Json::Arr(vec![Json::obj(vec![
                    ("b", Json::Bool(true)),
                    ("m", Json::Null),
                ])]),
            ),
            ("z", Json::Int(1)),
        ]);
        assert_eq!(j.to_canonical_string(), k.to_canonical_string());
    }

    #[test]
    fn field_accessors_report_errors() {
        let j = Json::obj(vec![("n", Json::Int(-1))]);
        assert!(j.field("missing").is_err());
        assert!(j.field("n").unwrap().as_u64().is_err());
        assert_eq!(j.field("n").unwrap().as_i64().unwrap(), -1);
    }
}
