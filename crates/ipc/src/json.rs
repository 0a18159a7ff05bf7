//! JSON for the wire protocol (pure `std`: the sealed build environment
//! has no `serde_json`).
//!
//! The codec is the pair of traits every message in [`crate::message`]
//! implements, generated from its `wire!` table row. [`ToJson`] appends
//! a value's compact encoding straight to the frame buffer: no
//! whitespace, a message's `"type"` first, then its fields in table order,
//! byte for byte what `tests/golden/wire_messages.golden` pins. [`FromJson`]
//! pulls a value off a [`Parser`], a cursor over the received line: the
//! fields of an object are read by name in one pass, keys and unescaped
//! strings are borrowed from the line, plain digits are read in place.
//! Neither side builds a value tree. The decoder accepts any key order and
//! whitespace, skips unknown keys (their values are still checked to be
//! JSON, nesting cap included), and takes the first of duplicate keys;
//! `tests/golden/json_decode.golden` pins that accept set.
//!
//! [`Json`] and [`parse`] are for reading arbitrary JSON (perf records,
//! trace exports, tests). They run on the same cursor, and the decoder
//! falls back on them for what its fast paths leave: escaped strings,
//! numbers that are not plain digits, and unknown values.

use std::borrow::Cow;
use std::fmt;

/// A parsed JSON value. Object keys keep document order.
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
    /// An object, in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Look up a key in an object (the first, if it is duplicated).
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

/// Parse one JSON document into a [`Json`] tree; trailing non-whitespace
/// is an error.
pub fn parse(input: &str) -> Result<Json, JsonError> {
    decode(input)
}

/// Decode one JSON document as a `T`, pulling it off the text; trailing
/// non-whitespace is an error.
pub(crate) fn decode<T: FromJson>(input: &str) -> Result<T, JsonError> {
    let mut p = Parser {
        text: input,
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = T::from_json(&mut p)?;
    p.skip_ws();
    if p.pos != input.len() {
        return Err(JsonError::msg(format!(
            "trailing bytes at offset {}",
            p.pos
        )));
    }
    Ok(v)
}

/// A cursor over one JSON text. A [`FromJson`] impl pulls its value off
/// it: the `members` of an object, the `elements` of an array, a `str` or
/// a `u64`; what it does not want it `skip`s.
pub struct Parser<'a> {
    text: &'a str,
    pos: usize,
    /// Nesting depth of the value at the cursor; the document is depth 0.
    depth: usize,
}

impl<'a> Parser<'a> {
    /// Step through the members of the object at the cursor: `f` gets
    /// each key with the cursor on its value, and must consume the value.
    pub(crate) fn members(
        &mut self,
        mut f: impl FnMut(&mut Self, &str) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.enter(b'{')?;
        let mut first = true;
        while self.next_item(b'}', first)? {
            let key = self.key()?;
            f(self, &key)?;
            first = false;
        }
        self.depth -= 1;
        Ok(())
    }

    /// Step through the elements of the array at the cursor: `f` is called
    /// with the cursor on each element, and must consume it.
    pub(crate) fn elements(
        &mut self,
        mut f: impl FnMut(&mut Self) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.enter(b'[')?;
        let mut first = true;
        while self.next_item(b']', first)? {
            f(self)?;
            first = false;
        }
        self.depth -= 1;
        Ok(())
    }

    /// The string value of the first `"type"` member of the object at the
    /// cursor. The cursor is left where it was, so the object's members
    /// are then read in one pass, `type` among them.
    pub(crate) fn tag(&mut self) -> Result<Cow<'a, str>, JsonError> {
        let (pos, depth) = (self.pos, self.depth);
        self.enter(b'{')?;
        let mut first = true;
        let tag = loop {
            if !self.next_item(b'}', first)? {
                return Err(JsonError::msg("missing \"type\" tag"));
            }
            first = false;
            if self.key()? == "type" {
                break self.str()?;
            }
            self.skip()?;
        };
        (self.pos, self.depth) = (pos, depth);
        Ok(tag)
    }

    /// Decode the member value at the cursor into `slot`, unless an
    /// earlier member called `key` already filled it: the first of
    /// duplicate keys wins, and a later one is only checked to be JSON.
    pub(crate) fn fill<T: FromJson>(
        &mut self,
        key: &str,
        slot: &mut Option<T>,
    ) -> Result<(), JsonError> {
        if slot.is_some() {
            return self.skip();
        }
        let v =
            T::from_json(self).map_err(|e| JsonError::msg(format!("field {key:?}: {}", e.0)))?;
        *slot = Some(v);
        Ok(())
    }

    /// The string at the cursor, borrowed from the text unless it holds
    /// escapes.
    pub(crate) fn str(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.expect(b'"')?;
        let start = self.pos;
        while let Some(b) = self.peek() {
            match b {
                b'"' => {
                    let text = self.text;
                    self.pos += 1;
                    return Ok(Cow::Borrowed(&text[start..self.pos - 1]));
                }
                b'\\' => {
                    self.pos = start - 1;
                    return self.string().map(Cow::Owned);
                }
                0..=0x1f => return Err(JsonError::msg("raw control character in string")),
                _ => self.pos += 1,
            }
        }
        Err(JsonError::msg("unterminated string"))
    }

    /// The unsigned integer at the cursor. Plain digits are read in place;
    /// any other number text is read as [`parse`] reads it, so the same
    /// forms are accepted (leading zeros) and refused (signs, fractions,
    /// exponents, anything past `u64::MAX`).
    pub(crate) fn u64(&mut self) -> Result<u64, JsonError> {
        let start = self.pos;
        let mut n = 0u64;
        while let Some(d) = self.peek().filter(u8::is_ascii_digit) {
            let Some(next) = n
                .checked_mul(10)
                .and_then(|n| n.checked_add(u64::from(d - b'0')))
            else {
                break;
            };
            n = next;
            self.pos += 1;
        }
        let more = matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        );
        if self.pos > start && !more {
            return Ok(n);
        }
        self.pos = start;
        match self.value()? {
            Json::U64(n) => Ok(n),
            _ => Err(JsonError::msg("expected unsigned integer")),
        }
    }

    /// Step over the value at the cursor, checking that it is JSON.
    pub(crate) fn skip(&mut self) -> Result<(), JsonError> {
        if self.peek() == Some(b'"') {
            self.str().map(drop)
        } else {
            self.value().map(drop)
        }
    }

    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.peek() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
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

    /// Open the object or array at the cursor; its items are one deeper.
    fn enter(&mut self, open: u8) -> Result<(), JsonError> {
        self.expect(open)?;
        self.depth += 1;
        Ok(())
    }

    /// Move onto the next item of the object or array being read: `false`
    /// once past its `close`.
    fn next_item(&mut self, close: u8, first: bool) -> Result<bool, JsonError> {
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(false);
        }
        if !first {
            self.expect(b',')?;
            self.skip_ws();
        }
        Ok(true)
    }

    /// A member's key and its `:`, leaving the cursor on the value.
    fn key(&mut self) -> Result<Cow<'a, str>, JsonError> {
        let key = self.str()?;
        self.skip_ws();
        self.expect(b':')?;
        self.skip_ws();
        Ok(key)
    }

    /// The value at the cursor as a tree.
    fn value(&mut self) -> Result<Json, JsonError> {
        if self.depth > MAX_DEPTH {
            return Err(JsonError::msg("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => {
                let mut fields = Vec::new();
                self.members(|p, key| {
                    fields.push((key.to_owned(), p.value()?));
                    Ok(())
                })?;
                Ok(Json::Obj(fields))
            }
            Some(b'[') => {
                let mut items = Vec::new();
                self.elements(|p| {
                    items.push(p.value()?);
                    Ok(())
                })?;
                Ok(Json::Arr(items))
            }
            Some(b'"') => Ok(Json::Str(self.str()?.into_owned())),
            Some(b't') => self.keyword("true", Json::Bool(true)),
            Some(b'f') => self.keyword("false", Json::Bool(false)),
            Some(b'n') => self.keyword("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(JsonError::msg(format!(
                "unexpected byte {:?} at offset {}",
                other as char, self.pos
            ))),
            None => Err(JsonError::msg("unexpected end of input")),
        }
    }

    fn keyword(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(JsonError::msg(format!(
                "invalid literal at offset {}",
                self.pos
            )))
        }
    }

    /// The string at the cursor with its escapes decoded: the slow path
    /// of [`str`](Self::str).
    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(c) = self.text[self.pos..].chars().next() else {
                return Err(JsonError::msg("unterminated string"));
            };
            self.pos += c.len_utf8();
            match c {
                '"' => return Ok(out),
                '\\' => {
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
                                // Surrogate pair: a low-half escape follows.
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
                c if (c as u32) < 0x20 => {
                    return Err(JsonError::msg("raw control character in string"))
                }
                c => out.push(c),
            }
        }
    }

    /// Exactly four hex digits (no sign, unlike `u32::from_str_radix`).
    fn hex4(&mut self) -> Result<u32, JsonError> {
        let Some(quad) = self.text.as_bytes().get(self.pos..self.pos + 4) else {
            return Err(JsonError::msg("truncated \\u escape"));
        };
        let mut v = 0;
        for &b in quad {
            let digit = char::from(b)
                .to_digit(16)
                .ok_or_else(|| JsonError::msg("bad \\u escape"))?;
            v = v * 16 + digit;
        }
        self.pos += 4;
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
        let text = &self.text[start..self.pos];
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

/// A field [`Parser::fill`] filled, or the error naming it.
pub(crate) fn required<T>(slot: Option<T>, key: &str) -> Result<T, JsonError> {
    slot.ok_or_else(|| JsonError::msg(format!("missing field {key:?}")))
}

/// Types that write themselves as compact JSON.
pub trait ToJson {
    /// Append this value's encoding to `out`.
    fn write_json(&self, out: &mut Vec<u8>);

    /// The encoding as a `String` (convenience).
    fn to_json_string(&self) -> String {
        let mut out = Vec::new();
        self.write_json(&mut out);
        String::from_utf8(out).expect("the JSON writer emits UTF-8")
    }
}

/// Types that read themselves off a [`Parser`].
pub trait FromJson: Sized {
    /// Decode the value at the cursor and step past it, reporting a
    /// message naming the offending field on failure.
    fn from_json(p: &mut Parser<'_>) -> Result<Self, JsonError>;
}

impl FromJson for Json {
    fn from_json(p: &mut Parser<'_>) -> Result<Self, JsonError> {
        p.value()
    }
}

impl ToJson for u64 {
    fn write_json(&self, out: &mut Vec<u8>) {
        let mut digits = [0u8; 20];
        let mut start = digits.len();
        let mut n = *self;
        loop {
            start -= 1;
            digits[start] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        out.extend_from_slice(&digits[start..]);
    }
}

impl FromJson for u64 {
    fn from_json(p: &mut Parser<'_>) -> Result<Self, JsonError> {
        p.u64()
    }
}

impl ToJson for String {
    /// Quoted, with `"`, `\` and control characters escaped; every other
    /// byte is copied as is.
    fn write_json(&self, out: &mut Vec<u8>) {
        const HEX: &[u8; 16] = b"0123456789abcdef";
        let bytes = self.as_bytes();
        out.push(b'"');
        let mut copied = 0;
        for (i, &b) in bytes.iter().enumerate() {
            let control;
            let escape: &[u8] = match b {
                b'"' => b"\\\"",
                b'\\' => b"\\\\",
                b'\n' => b"\\n",
                b'\r' => b"\\r",
                b'\t' => b"\\t",
                0x08 => b"\\b",
                0x0c => b"\\f",
                0..=0x1f => {
                    let (hi, lo) = (HEX[usize::from(b >> 4)], HEX[usize::from(b & 0xf)]);
                    control = [b'\\', b'u', b'0', b'0', hi, lo];
                    &control
                }
                _ => continue,
            };
            out.extend_from_slice(&bytes[copied..i]);
            out.extend_from_slice(escape);
            copied = i + 1;
        }
        out.extend_from_slice(&bytes[copied..]);
        out.push(b'"');
    }
}

impl FromJson for String {
    fn from_json(p: &mut Parser<'_>) -> Result<Self, JsonError> {
        p.str().map(Cow::into_owned)
    }
}

impl ToJson for convgpu_sim_core::Bytes {
    fn write_json(&self, out: &mut Vec<u8>) {
        self.as_u64().write_json(out);
    }
}

impl FromJson for convgpu_sim_core::Bytes {
    fn from_json(p: &mut Parser<'_>) -> Result<Self, JsonError> {
        p.u64().map(convgpu_sim_core::Bytes::new)
    }
}

impl ToJson for convgpu_sim_core::ContainerId {
    fn write_json(&self, out: &mut Vec<u8>) {
        self.as_u64().write_json(out);
    }
}

impl FromJson for convgpu_sim_core::ContainerId {
    fn from_json(p: &mut Parser<'_>) -> Result<Self, JsonError> {
        p.u64().map(convgpu_sim_core::ContainerId)
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn write_json(&self, out: &mut Vec<u8>) {
        out.push(b'[');
        for (i, item) in self.iter().enumerate() {
            if i > 0 {
                out.push(b',');
            }
            item.write_json(out);
        }
        out.push(b']');
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(p: &mut Parser<'_>) -> Result<Self, JsonError> {
        let mut items = Vec::new();
        p.elements(|p| {
            items.push(T::from_json(p)?);
            Ok(())
        })?;
        Ok(items)
    }
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
        for n in [0, 7, 10, 4096, u64::MAX - 1, u64::MAX] {
            assert_eq!(parse(&n.to_string()).unwrap(), Json::U64(n));
            assert_eq!(n.to_json_string(), n.to_string());
            assert_eq!(decode::<u64>(&n.to_string()).unwrap(), n);
        }
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
            "\u{0}\u{1f}\u{7f}",
        ] {
            let encoded = s.to_string().to_json_string();
            assert_eq!(parse(&encoded).unwrap(), Json::Str(s.into()), "{encoded}");
            assert_eq!(decode::<String>(&encoded).unwrap(), s, "{encoded}");
        }
    }

    /// Control characters go out as the short escape JSON has for them,
    /// else as a lowercase six-character escape; DEL and non-ASCII as is.
    #[test]
    fn the_writer_escapes_exactly_the_control_characters() {
        let encoded = "\u{8}\u{c}\u{1}\u{1f}\u{7f}é".to_string().to_json_string();
        let want = [
            "\"",
            r"\b",
            r"\f",
            r"\u",
            "0001",
            r"\u",
            "001f",
            "\u{7f}é\"",
        ]
        .concat();
        assert_eq!(encoded, want);
    }

    /// A JSON string made of `\u` escapes, one per hex quad.
    fn escaped(quads: &[&str]) -> String {
        let body: String = quads.iter().map(|q| format!("\\u{q}")).collect();
        format!("\"{body}\"")
    }

    #[test]
    fn unicode_escape_and_surrogates() {
        let str_of = |s: &str| Json::Str(s.into());
        assert_eq!(parse(&escaped(&["0041"])).unwrap(), str_of("A"));
        assert_eq!(parse(&escaped(&["004a", "004A"])).unwrap(), str_of("JJ"));
        assert_eq!(
            parse(&escaped(&["d83d", "de00"])).unwrap(),
            str_of("\u{1F600}")
        );
        assert!(parse(&escaped(&["d83d"])).is_err(), "lone high surrogate");
        assert!(parse(&escaped(&["de00"])).is_err(), "lone low surrogate");
    }

    /// `\u` takes exactly four hex digits: no sign, which
    /// `u32::from_str_radix` would accept.
    #[test]
    fn unicode_escape_takes_four_hex_digits_and_no_sign() {
        for quad in ["+041", "-041", " 041", "04g1", "004"] {
            let bad = escaped(&[quad]);
            assert!(parse(&bad).is_err(), "{bad} should fail");
        }
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

    /// Plain digits are read in place and every other number form as the
    /// tree reads it: the two agree on what is an unsigned integer.
    #[test]
    fn u64_reads_what_parse_reads_as_unsigned() {
        for text in [
            "0",
            "007",
            "18446744073709551615",
            "18446744073709551616",
            "00000000000000000000000042",
            "-0",
            "-1",
            "1e2",
            "1.0",
            "1-2",
            "+1",
            "x",
            "",
        ] {
            let tree = parse(text).ok().and_then(|v| v.as_u64());
            assert_eq!(decode::<u64>(text).ok(), tree, "{text:?}");
        }
    }

    /// Strings without escapes are borrowed from the text.
    #[test]
    fn unescaped_strings_are_borrowed() {
        let text = r#"{"plain":"abc","escaped":"a\nb"}"#;
        let mut p = Parser {
            text,
            pos: 0,
            depth: 0,
        };
        let mut seen = Vec::new();
        p.members(|p, key| {
            seen.push((key.to_owned(), matches!(p.str()?, Cow::Borrowed(_))));
            Ok(())
        })
        .unwrap();
        assert_eq!(
            seen,
            [("plain".to_owned(), true), ("escaped".to_owned(), false)]
        );
    }
}
