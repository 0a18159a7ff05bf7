//! Minimal JSON value model, parser and writer (pure `std`).
//!
//! The sealed build environment has no `serde_json`, so the value model
//! is written here and each message's [`ToJson`] / [`FromJson`] is
//! generated from the table in [`crate::message`]. The subset implemented
//! here is full JSON on the *read* side (objects, arrays, strings with
//! escapes, numbers, bools, null) and exactly what the protocol emits on
//! the *write* side: compact encoding, no whitespace, object keys in
//! insertion order — byte-for-byte the format `serde_json::to_string`
//! produced for these types, which `tests/golden/wire_messages.golden`
//! pins down.

use std::fmt;

/// A parsed JSON value. Object keys keep insertion order so encoding is
/// deterministic.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A non-negative integer (every number the protocol uses).
    U64(u64),
    /// A negative integer.
    I64(i64),
    /// Any other number (fraction or exponent).
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Look up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as `&str`, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Compact encoding with no whitespace.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(n) => out.push_str(&n.to_string()),
            Json::I64(n) => out.push_str(&n.to_string()),
            Json::F64(x) => {
                if x.is_finite() {
                    out.push_str(&x.to_string());
                } else {
                    // JSON has no Inf/NaN; encode as null like serde_json.
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(s, out),
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
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Error produced by [`parse`] or by typed decoding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError(pub String);

impl JsonError {
    /// Build an error from anything displayable.
    pub fn msg(m: impl fmt::Display) -> Self {
        JsonError(m.to_string())
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error: {}", self.0)
    }
}

impl std::error::Error for JsonError {}

/// Nesting depth cap: protocol messages are depth 3; 64 bounds a hostile
/// writer without recursing the parser off the stack.
const MAX_DEPTH: usize = 64;

/// Parse one JSON document; trailing non-whitespace is an error.
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(JsonError::msg(format!(
            "trailing bytes at offset {}",
            p.pos
        )));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(JsonError::msg(format!(
                "expected {:?} at offset {}",
                b as char, self.pos
            )))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(JsonError::msg("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.keyword("true", Json::Bool(true)),
            Some(b'f') => self.keyword("false", Json::Bool(false)),
            Some(b'n') => self.keyword("null", Json::Null),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            Some(other) => Err(JsonError::msg(format!(
                "unexpected byte {:?} at offset {}",
                other as char, self.pos
            ))),
            None => Err(JsonError::msg("unexpected end of input")),
        }
    }

    fn keyword(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(JsonError::msg(format!(
                "invalid literal at offset {}",
                self.pos
            )))
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => {
                    return Err(JsonError::msg(format!(
                        "expected ',' or '}}' at offset {}",
                        self.pos
                    )))
                }
            }
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
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => {
                    return Err(JsonError::msg(format!(
                        "expected ',' or ']' at offset {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(JsonError::msg("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(JsonError::msg("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{08}'),
                        b'f' => out.push('\u{0c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: expect \uXXXX low half.
                                self.expect(b'\\')?;
                                self.expect(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(JsonError::msg("bad low surrogate"));
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                hi
                            };
                            let c = char::from_u32(code)
                                .ok_or_else(|| JsonError::msg("bad unicode escape"))?;
                            out.push(c);
                        }
                        other => {
                            return Err(JsonError::msg(format!(
                                "invalid escape \\{}",
                                other as char
                            )))
                        }
                    }
                }
                _ => {
                    // Multi-byte UTF-8: step back and take the full char.
                    self.pos -= 1;
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest)
                        .map_err(|_| JsonError::msg("invalid utf-8 in string"))?;
                    let Some(c) = s.chars().next() else {
                        return Err(JsonError::msg("unterminated string"));
                    };
                    if (c as u32) < 0x20 {
                        return Err(JsonError::msg("raw control character in string"));
                    }
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(JsonError::msg("truncated \\u escape"));
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| JsonError::msg("bad \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| JsonError::msg("bad \\u escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| JsonError::msg("bad number"))?;
        if !float {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Json::U64(n));
            }
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Json::I64(n));
            }
        }
        text.parse::<f64>()
            .map(Json::F64)
            .map_err(|_| JsonError::msg(format!("bad number {text:?}")))
    }
}

/// Types that encode themselves as a [`Json`] value.
pub trait ToJson {
    /// Build the JSON representation.
    fn to_json(&self) -> Json;

    /// Compact string encoding (convenience).
    fn to_json_string(&self) -> String {
        self.to_json().encode()
    }
}

/// Types that decode themselves from a [`Json`] value.
pub trait FromJson: Sized {
    /// Decode, reporting a message naming the offending field on failure.
    fn from_json(v: &Json) -> Result<Self, JsonError>;
}

impl ToJson for u64 {
    fn to_json(&self) -> Json {
        Json::U64(*self)
    }
}

impl FromJson for u64 {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_u64()
            .ok_or_else(|| JsonError::msg("expected unsigned integer"))
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl FromJson for String {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_str()
            .map(str::to_owned)
            .ok_or_else(|| JsonError::msg("expected string"))
    }
}

impl ToJson for convgpu_sim_core::Bytes {
    fn to_json(&self) -> Json {
        Json::U64(self.as_u64())
    }
}

impl FromJson for convgpu_sim_core::Bytes {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(convgpu_sim_core::Bytes::new(u64::from_json(v)?))
    }
}

impl ToJson for convgpu_sim_core::ContainerId {
    fn to_json(&self) -> Json {
        Json::U64(self.as_u64())
    }
}

impl FromJson for convgpu_sim_core::ContainerId {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(convgpu_sim_core::ContainerId(u64::from_json(v)?))
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Arr(items) => items.iter().map(T::from_json).collect(),
            _ => Err(JsonError::msg("expected array")),
        }
    }
}

/// Fetch and decode a required object field.
pub fn field<T: FromJson>(obj: &Json, key: &str) -> Result<T, JsonError> {
    let v = obj
        .get(key)
        .ok_or_else(|| JsonError::msg(format!("missing field {key:?}")))?;
    T::from_json(v).map_err(|e| JsonError::msg(format!("field {key:?}: {}", e.0)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse("true").unwrap(), Json::Bool(true));
        assert_eq!(parse("false").unwrap(), Json::Bool(false));
        assert_eq!(parse("42").unwrap(), Json::U64(42));
        assert_eq!(parse("-7").unwrap(), Json::I64(-7));
        assert_eq!(parse("1.5").unwrap(), Json::F64(1.5));
        assert_eq!(parse("1e3").unwrap(), Json::F64(1000.0));
        assert_eq!(parse(r#""hi""#).unwrap(), Json::Str("hi".into()));
    }

    #[test]
    fn u64_precision_is_exact() {
        let big = u64::MAX;
        assert_eq!(parse(&big.to_string()).unwrap(), Json::U64(big));
        assert_eq!(Json::U64(big).encode(), big.to_string());
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a":[1,{"b":"c"},null], "d" : true}"#).unwrap();
        assert_eq!(v.get("d"), Some(&Json::Bool(true)));
        match v.get("a") {
            Some(Json::Arr(items)) => {
                assert_eq!(items.len(), 3);
                assert_eq!(items[1].get("b").and_then(Json::as_str), Some("c"));
            }
            other => panic!("bad array: {other:?}"),
        }
    }

    #[test]
    fn string_escapes_round_trip() {
        for s in [
            "plain",
            "q\"uote",
            "back\\slash",
            "new\nline",
            "tab\t",
            "Δ GPU 例",
        ] {
            let v = Json::Str(s.to_string());
            let encoded = v.encode();
            assert_eq!(parse(&encoded).unwrap(), v, "encoding {encoded}");
        }
    }

    #[test]
    fn unicode_escape_and_surrogates() {
        assert_eq!(parse(r#""A""#).unwrap(), Json::Str("A".into()));
        assert_eq!(parse(r#""😀""#).unwrap(), Json::Str("\u{1F600}".into()));
        assert!(parse(r#""\ud83d""#).is_err(), "lone high surrogate");
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "{\"a\"}",
            "[1,]",
            "{\"a\":1,}",
            "nul",
            "01x",
            "\"unterminated",
            "1 2",
            "{\"a\":1} extra",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn rejects_deep_nesting() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(parse(&deep).is_err());
    }

    #[test]
    fn object_encoding_preserves_insertion_order() {
        let v = Json::Obj(vec![("z".into(), Json::U64(1)), ("a".into(), Json::U64(2))]);
        assert_eq!(v.encode(), r#"{"z":1,"a":2}"#);
    }
}
