//! Dependency-free JSON serialization for experiment artefacts.
//!
//! The experiment harness persists simulation reports, demand traces, and
//! whole video systems as JSON so runs are reproducible and diffable. The
//! build environment is offline (no serde available), so this module provides
//! a small self-contained JSON value type, parser, writer, and the
//! [`JsonCodec`] trait the artefact types implement by hand.
//!
//! Numbers are written with Rust's shortest-round-trip float formatting, so
//! `f64` fields survive a serialize → parse cycle bit-exactly.

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::hash::Hash;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (stored as `f64`; all persisted integers fit 2^53).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

/// Error produced by JSON parsing or decoding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError(String);

impl JsonError {
    /// Creates an error with the given message.
    pub fn new(msg: impl Into<String>) -> Self {
        JsonError(msg.into())
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error: {}", self.0)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Looks up a field of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The required field `key` of an object, or an error naming it.
    pub fn field(&self, key: &str) -> Result<&Json, JsonError> {
        self.get(key)
            .ok_or_else(|| JsonError(format!("missing field `{key}`")))
    }

    /// The value as a float.
    pub fn as_f64(&self) -> Result<f64, JsonError> {
        match self {
            Json::Num(x) => Ok(*x),
            other => Err(JsonError(format!("expected number, got {other:?}"))),
        }
    }

    /// The value as an unsigned integer.
    pub fn as_u64(&self) -> Result<u64, JsonError> {
        let x = self.as_f64()?;
        if x >= 0.0 && x.fract() == 0.0 && x <= 2f64.powi(53) {
            Ok(x as u64)
        } else {
            Err(JsonError(format!("expected unsigned integer, got {x}")))
        }
    }

    /// The value as a `usize`.
    pub fn as_usize(&self) -> Result<usize, JsonError> {
        Ok(self.as_u64()? as usize)
    }

    /// The value as a boolean.
    pub fn as_bool(&self) -> Result<bool, JsonError> {
        match self {
            Json::Bool(b) => Ok(*b),
            other => Err(JsonError(format!("expected bool, got {other:?}"))),
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Result<&str, JsonError> {
        match self {
            Json::Str(s) => Ok(s),
            other => Err(JsonError(format!("expected string, got {other:?}"))),
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Result<&[Json], JsonError> {
        match self {
            Json::Arr(items) => Ok(items),
            other => Err(JsonError(format!("expected array, got {other:?}"))),
        }
    }

    /// Parses a JSON document.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut parser = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        parser.skip_ws();
        let value = parser.value()?;
        parser.skip_ws();
        if parser.pos != parser.bytes.len() {
            return Err(JsonError(format!("trailing input at byte {}", parser.pos)));
        }
        Ok(value)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(x) => {
                if !x.is_finite() {
                    // JSON has no NaN/Infinity literal; `null` keeps the
                    // document parseable (decoding the field then fails
                    // with a clear "expected number" instead of the whole
                    // artefact being unreadable).
                    f.write_str("null")
                } else if x.fract() == 0.0 && x.abs() <= 2f64.powi(53) {
                    write!(f, "{}", *x as i64)
                } else {
                    // `{:?}` is Rust's shortest round-trip representation.
                    write!(f, "{x:?}")
                }
            }
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Obj(pairs) => {
                f.write_str("{")?;
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, key)?;
                    f.write_str(":")?;
                    write!(f, "{value}")?;
                }
                f.write_str("}")
            }
        }
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for ch in s.chars() {
        match ch {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len()
            && matches!(self.bytes[self.pos], b' ' | b'\t' | b'\n' | b'\r')
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(JsonError(format!(
                "expected `{}` at byte {}",
                byte as char, self.pos
            )))
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(JsonError(format!("invalid literal at byte {}", self.pos)))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(JsonError(format!("unexpected input at byte {}", self.pos))),
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| JsonError("invalid utf-8 in number".into()))?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| JsonError(format!("invalid number `{text}`")))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(byte) = self.peek() else {
                return Err(JsonError("unterminated string".into()));
            };
            match byte {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    let Some(esc) = self.peek() else {
                        return Err(JsonError("unterminated escape".into()));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let mut code = self.hex_escape()? as u32;
                            // Surrogate pair: a high surrogate must be
                            // followed by an escaped low surrogate (other
                            // JSON writers encode non-BMP characters so).
                            if (0xD800..0xDC00).contains(&code) {
                                if self.bytes.get(self.pos) != Some(&b'\\')
                                    || self.bytes.get(self.pos + 1) != Some(&b'u')
                                {
                                    return Err(JsonError("unpaired high surrogate".into()));
                                }
                                self.pos += 2;
                                let low = self.hex_escape()? as u32;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(JsonError("invalid low surrogate".into()));
                                }
                                code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                            }
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| JsonError("invalid codepoint".into()))?,
                            );
                        }
                        other => {
                            return Err(JsonError(format!("invalid escape `\\{}`", other as char)))
                        }
                    }
                }
                _ => {
                    // Consume one UTF-8 character.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| JsonError("invalid utf-8 in string".into()))?;
                    let ch = rest.chars().next().expect("non-empty by peek");
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    /// Reads the four hex digits of a `\u` escape (cursor past the `u`).
    fn hex_escape(&mut self) -> Result<u16, JsonError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(JsonError("truncated \\u escape".into()));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| JsonError("invalid \\u escape".into()))?;
        let code =
            u16::from_str_radix(hex, 16).map_err(|_| JsonError("invalid \\u escape".into()))?;
        self.pos += 4;
        Ok(code)
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
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
                _ => return Err(JsonError(format!("expected , or ] at byte {}", self.pos))),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(JsonError(format!("expected , or }} at byte {}", self.pos))),
            }
        }
    }
}

/// Types that convert to and from [`Json`]. Implemented by hand for the
/// artefact types the experiment harness persists.
pub trait JsonCodec: Sized {
    /// Converts the value into a JSON tree.
    fn to_json(&self) -> Json;

    /// Rebuilds a value from a JSON tree.
    fn from_json(json: &Json) -> Result<Self, JsonError>;

    /// Serializes to a compact JSON string.
    fn to_json_string(&self) -> String {
        self.to_json().to_string()
    }

    /// Parses a value from a JSON string.
    fn from_json_str(text: &str) -> Result<Self, JsonError> {
        Self::from_json(&Json::parse(text)?)
    }
}

macro_rules! codec_uint {
    ($($t:ty),*) => {$(
        impl JsonCodec for $t {
            fn to_json(&self) -> Json {
                Json::Num(*self as f64)
            }
            fn from_json(json: &Json) -> Result<Self, JsonError> {
                let x = json.as_u64()?;
                <$t>::try_from(x).map_err(|_| {
                    JsonError(format!("{x} does not fit in {}", stringify!($t)))
                })
            }
        }
    )*};
}

codec_uint!(u16, u32, u64, usize);

impl JsonCodec for f64 {
    fn to_json(&self) -> Json {
        Json::Num(*self)
    }
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        json.as_f64()
    }
}

impl JsonCodec for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        json.as_bool()
    }
}

impl JsonCodec for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        Ok(json.as_str()?.to_string())
    }
}

impl<T: JsonCodec> JsonCodec for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(JsonCodec::to_json).collect())
    }
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        json.as_arr()?.iter().map(T::from_json).collect()
    }
}

impl<T: JsonCodec> JsonCodec for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            None => Json::Null,
            Some(value) => value.to_json(),
        }
    }
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        match json {
            Json::Null => Ok(None),
            other => Ok(Some(T::from_json(other)?)),
        }
    }
}

/// Maps serialize as arrays of `[key, value]` pairs so non-string keys work.
impl<K: JsonCodec + Ord, V: JsonCodec> JsonCodec for BTreeMap<K, V> {
    fn to_json(&self) -> Json {
        Json::Arr(
            self.iter()
                .map(|(k, v)| Json::Arr(vec![k.to_json(), v.to_json()]))
                .collect(),
        )
    }
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        let mut out = BTreeMap::new();
        for pair in json.as_arr()? {
            let pair = pair.as_arr()?;
            if pair.len() != 2 {
                return Err(JsonError("expected [key, value] pair".into()));
            }
            out.insert(K::from_json(&pair[0])?, V::from_json(&pair[1])?);
        }
        Ok(out)
    }
}

/// Hash maps serialize like ordered maps; entries are sorted by the key's
/// JSON rendering so output is deterministic.
impl<K: JsonCodec + Eq + Hash, V: JsonCodec> JsonCodec for HashMap<K, V> {
    fn to_json(&self) -> Json {
        let mut entries: Vec<(String, Json)> = self
            .iter()
            .map(|(k, v)| {
                (
                    k.to_json().to_string(),
                    Json::Arr(vec![k.to_json(), v.to_json()]),
                )
            })
            .collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        Json::Arr(entries.into_iter().map(|(_, pair)| pair).collect())
    }
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        let mut out = HashMap::new();
        for pair in json.as_arr()? {
            let pair = pair.as_arr()?;
            if pair.len() != 2 {
                return Err(JsonError("expected [key, value] pair".into()));
            }
            out.insert(K::from_json(&pair[0])?, V::from_json(&pair[1])?);
        }
        Ok(out)
    }
}

/// Builds an object from `(key, value)` pairs (helper for codec impls).
pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        for text in ["0", "-17", "3.5", "true", "false", "null", "\"hi\""] {
            let value = Json::parse(text).unwrap();
            assert_eq!(Json::parse(&value.to_string()).unwrap(), value, "{text}");
        }
    }

    #[test]
    fn float_round_trip_is_exact() {
        for &x in &[1.3f64, 0.1, 1e-12, 1.000000000000002, -2.5e17] {
            let json = Json::Num(x);
            let back = Json::parse(&json.to_string()).unwrap();
            assert_eq!(back.as_f64().unwrap(), x);
        }
    }

    #[test]
    fn nested_structures_round_trip() {
        let value = obj(vec![
            ("list", Json::Arr(vec![Json::Num(1.0), Json::Null])),
            ("name", Json::Str("a \"quoted\"\nstring".into())),
            ("flag", Json::Bool(true)),
        ]);
        let text = value.to_string();
        assert_eq!(Json::parse(&text).unwrap(), value);
    }

    #[test]
    fn field_access_and_errors() {
        let value = obj(vec![("x", Json::Num(4.0))]);
        assert_eq!(value.field("x").unwrap().as_u64().unwrap(), 4);
        assert!(value.field("y").is_err());
        assert!(Json::Num(1.5).as_u64().is_err());
        assert!(Json::parse("[1, 2").is_err());
        assert!(Json::parse("{} trailing").is_err());
    }

    #[test]
    fn container_codecs() {
        let v: Vec<u32> = vec![1, 2, 3];
        assert_eq!(Vec::<u32>::from_json_str(&v.to_json_string()).unwrap(), v);

        let mut m: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
        m.insert(4, vec![9, 9]);
        m.insert(1, vec![]);
        let back = BTreeMap::<u64, Vec<u32>>::from_json_str(&m.to_json_string()).unwrap();
        assert_eq!(back, m);

        let opt: Option<u32> = None;
        assert_eq!(opt.to_json_string(), "null");
        assert_eq!(Option::<u32>::from_json_str("7").unwrap(), Some(7));
    }

    #[test]
    fn unicode_and_escapes() {
        let value = Json::Str("héllo \u{1}".into());
        let back = Json::parse(&value.to_string()).unwrap();
        assert_eq!(back, value);
        assert_eq!(Json::parse("\"\\u0041\"").unwrap(), Json::Str("A".into()));
        // Surrogate pairs (how other JSON writers escape non-BMP chars).
        assert_eq!(
            Json::parse("\"\\ud83d\\ude00\"").unwrap(),
            Json::Str("😀".into())
        );
        assert!(Json::parse("\"\\ud83d\"").is_err(), "unpaired surrogate");
        assert!(Json::parse("\"\\ud83d\\u0041\"").is_err(), "bad low half");
    }

    #[test]
    fn non_finite_floats_serialize_as_null() {
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_string(), "null");
        // The document stays parseable; decoding the field fails cleanly.
        let doc = obj(vec![("x", Json::Num(f64::NAN))]);
        let back = Json::parse(&doc.to_string()).unwrap();
        assert!(back.field("x").unwrap().as_f64().is_err());
    }
}
