//! A minimal JSON value type with a canonical writer and a
//! recursive-descent parser.
//!
//! The journal needs two properties ordinary ad-hoc formatting cannot
//! give us: **canonical serialization** (the hash chain covers the
//! serialized payload, so the same payload must always produce the same
//! bytes) and **round-trip parsing** (verification re-reads the JSONL
//! file). Objects are backed by `BTreeMap`, so key order — and therefore
//! the hash — is deterministic by construction.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::collections::BTreeMap;
use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// An integer (serialized without a decimal point).
    Int(i64),
    /// A non-integer number. Must be finite: JSON has no NaN/Infinity.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; `BTreeMap` keeps keys sorted, making output canonical.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Builds an object from key/value pairs.
    pub fn obj<const N: usize>(pairs: [(&str, Json); N]) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The integer value, if this is an integer.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Json::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The numeric value (integer or float), if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// A member of this object, if this is an object containing `key`.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl From<i64> for Json {
    fn from(i: i64) -> Json {
        Json::Int(i)
    }
}

impl From<u64> for Json {
    fn from(i: u64) -> Json {
        // Journal counters stay far below i64::MAX; saturate defensively.
        Json::Int(i64::try_from(i).unwrap_or(i64::MAX))
    }
}

impl From<u32> for Json {
    fn from(i: u32) -> Json {
        Json::Int(i64::from(i))
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<f64> for Json {
    fn from(n: f64) -> Json {
        Json::Num(n)
    }
}

/// A value that can write its own canonical JSON: the one form the
/// journal hashes and every reader re-derives. [`Json`] implements it
/// (sorted keys by construction); so do the scalars it is made of, so a
/// type with a fixed field list — a journal event — can write itself
/// through an [`ObjectWriter`] without building a tree first, and still
/// cannot disagree with the tree's bytes.
pub trait Canonical {
    /// Appends this value's canonical JSON to `out`.
    fn write_canonical(&self, out: &mut String);
}

impl<T: Canonical + ?Sized> Canonical for &T {
    fn write_canonical(&self, out: &mut String) {
        (**self).write_canonical(out);
    }
}

impl<T: Canonical> Canonical for Option<T> {
    fn write_canonical(&self, out: &mut String) {
        match self {
            Some(value) => value.write_canonical(out),
            None => out.push_str("null"),
        }
    }
}

impl Canonical for bool {
    fn write_canonical(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

/// The decimal digits of a `u64`, on the stack.
pub(crate) struct Digits {
    buf: [u8; 20],
    at: usize,
}

impl Digits {
    pub(crate) fn of(mut n: u64) -> Self {
        let mut buf = [0u8; 20];
        let mut at = buf.len();
        loop {
            at -= 1;
            buf[at] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                return Digits { buf, at };
            }
        }
    }

    pub(crate) fn as_str(&self) -> &str {
        // Decimal digits are ASCII, so this never falls back.
        std::str::from_utf8(&self.buf[self.at..]).unwrap_or_default()
    }
}

impl Canonical for i64 {
    fn write_canonical(&self, out: &mut String) {
        if *self < 0 {
            out.push('-');
        }
        out.push_str(Digits::of(self.unsigned_abs()).as_str());
    }
}

impl Canonical for u64 {
    /// Writes what `Json::from(u64)` would hold (saturating at
    /// `i64::MAX`).
    fn write_canonical(&self, out: &mut String) {
        out.push_str(Digits::of((*self).min(i64::MAX as u64)).as_str());
    }
}

impl Canonical for f64 {
    fn write_canonical(&self, out: &mut String) {
        let n = *self;
        debug_assert!(n.is_finite(), "JSON has no NaN/Infinity");
        if n.fract() == 0.0 && n.abs() < 1e15 {
            // Keep integral floats distinguishable from Int but stable:
            // always one decimal place (`{n:.1}`, sign of -0.0 included).
            if n.is_sign_negative() {
                out.push('-');
            }
            out.push_str(Digits::of(n.abs() as u64).as_str());
            out.push_str(".0");
        } else {
            use fmt::Write as _;
            // Writing to a String cannot fail.
            let _ = write!(out, "{n}");
        }
    }
}

impl Canonical for str {
    /// Quotes and escapes by byte runs: everything between two bytes
    /// that need an escape is copied in one piece. Those bytes are all
    /// ASCII, so every cut falls on a character boundary.
    fn write_canonical(&self, out: &mut String) {
        const HEX: &[u8; 16] = b"0123456789abcdef";
        out.push('"');
        let mut start = 0;
        for (i, &b) in self.as_bytes().iter().enumerate() {
            let escape = match b {
                b'"' | b'\\' => b,
                b'\n' => b'n',
                b'\r' => b'r',
                b'\t' => b't',
                0..=0x1f => b'u',
                _ => continue,
            };
            out.push_str(&self[start..i]);
            out.push('\\');
            out.push(escape as char);
            if escape == b'u' {
                out.push_str("00");
                out.push(HEX[(b >> 4) as usize] as char);
                out.push(HEX[(b & 0x0f) as usize] as char);
            }
            start = i + 1;
        }
        out.push_str(&self[start..]);
        out.push('"');
    }
}

impl Canonical for String {
    fn write_canonical(&self, out: &mut String) {
        self.as_str().write_canonical(out);
    }
}

/// Writes one canonical object field by field. The caller offers the
/// keys in ascending order — what a `BTreeMap` would do for it — and a
/// debug build checks that it did.
#[derive(Debug)]
pub struct ObjectWriter<'a> {
    out: &'a mut String,
    last_key: Option<&'a str>,
}

impl<'a> ObjectWriter<'a> {
    /// Opens an object in `out`.
    pub fn new(out: &'a mut String) -> Self {
        out.push('{');
        ObjectWriter {
            out,
            last_key: None,
        }
    }

    /// Writes the next member.
    pub fn field(&mut self, key: &'a str, value: impl Canonical) {
        debug_assert!(
            self.last_key.is_none_or(|last| last < key),
            "object keys must be written in ascending order: {key:?} after {:?}",
            self.last_key
        );
        if self.last_key.is_some() {
            self.out.push(',');
        }
        self.last_key = Some(key);
        key.write_canonical(self.out);
        self.out.push(':');
        value.write_canonical(self.out);
    }

    /// Closes the object.
    pub fn finish(self) {
        self.out.push('}');
    }
}

impl Canonical for Json {
    fn write_canonical(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => b.write_canonical(out),
            Json::Int(i) => i.write_canonical(out),
            Json::Num(n) => n.write_canonical(out),
            Json::Str(s) => s.write_canonical(out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_canonical(out);
                }
                out.push(']');
            }
            Json::Obj(map) => map.write_canonical(out),
        }
    }
}

impl<V: Canonical> Canonical for BTreeMap<String, V> {
    fn write_canonical(&self, out: &mut String) {
        let mut object = ObjectWriter::new(out);
        for (key, value) in self {
            object.field(key, value);
        }
        object.finish();
    }
}

/// Prints the canonical form: [`Canonical::write_canonical`] is the
/// crate's only serializer.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write_canonical(&mut out);
        f.write_str(&out)
    }
}

/// A parse failure, with a byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset where parsing failed.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Parses one complete JSON document (trailing whitespace allowed).
pub fn parse(input: &str) -> Result<Json, ParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after JSON value"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> ParseError {
        ParseError {
            offset: self.pos,
            message: message.to_string(),
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

    fn expect(&mut self, byte: u8) -> Result<(), ParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", byte as char)))
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
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
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000c}'),
                        Some(b'u') => {
                            if self.pos + 5 > self.bytes.len() {
                                return Err(self.err("truncated \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos + 1..self.pos + 5])
                                .map_err(|_| self.err("non-UTF-8 in \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad hex in \\u escape"))?;
                            // The journal writer never emits surrogate
                            // pairs (it escapes only control chars), so
                            // lone-surrogate handling is a parse error.
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("\\u escape is not a scalar value"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape character")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume the whole run up to the next quote or
                    // escape and validate just that slice — validating
                    // from `pos` to the end of input per character
                    // would make parsing quadratic in document size
                    // (ruinous for multi-megabyte checkpoint
                    // snapshots). Quote and backslash can't appear
                    // inside a multi-byte scalar (UTF-8 continuation
                    // bytes are ≥ 0x80), so the byte scan is safe.
                    let start = self.pos;
                    while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                        self.pos += 1;
                    }
                    let run = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    out.push_str(run);
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("bad number literal"))?;
        if is_float {
            // A literal that overflows (`1e999`) parses to infinity,
            // which has no JSON form: nothing read from a file or a
            // socket may become a value the writer cannot round-trip.
            match text.parse::<f64>() {
                Ok(n) if n.is_finite() => Ok(Json::Num(n)),
                _ => Err(self.err("bad float literal")),
            }
        } else {
            text.parse::<i64>()
                .map(Json::Int)
                .map_err(|_| self.err("bad integer literal"))
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
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
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{')?;
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
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

/// The serializer [`Canonical`] replaced — `fmt` machinery, one `char`
/// at a time — kept as the reference the byte-identity tests compare
/// the writer (and the journal's record encoder) against.
#[cfg(test)]
pub(crate) mod oracle {
    use super::Json;
    use std::fmt::{self, Write as _};

    fn escaped(f: &mut String, s: &str) -> fmt::Result {
        f.write_str("\"")?;
        for c in s.chars() {
            match c {
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

    fn value(f: &mut String, v: &Json) -> fmt::Result {
        match v {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(i) => write!(f, "{i}"),
            Json::Num(n) if n.fract() == 0.0 && n.abs() < 1e15 => write!(f, "{n:.1}"),
            Json::Num(n) => write!(f, "{n}"),
            Json::Str(s) => escaped(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    value(f, item)?;
                }
                f.write_str("]")
            }
            Json::Obj(map) => {
                f.write_str("{")?;
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    escaped(f, k)?;
                    f.write_str(":")?;
                    value(f, v)?;
                }
                f.write_str("}")
            }
        }
    }

    pub(crate) fn to_string(v: &Json) -> String {
        let mut out = String::new();
        value(&mut out, v).expect("writing to a String cannot fail");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_matches_the_fmt_oracle() {
        let strings = [
            "",
            "plain",
            "\"\\\"",
            "a\nb\rc\td",
            "\u{0}\u{1}\u{1f} \u{7f}\u{80}",
            "caf\u{e9}\"\u{4f4d}\\\u{1f512}\n",
        ];
        let floats = [
            0.0,
            -0.0,
            1.0,
            -1.0,
            2.5,
            1e15,
            -1e15,
            999_999_999_999_999.0,
            1e16,
            1e-7,
            5e-324,
            2.2250738585072014e-308,
            0.30000000000000004,
            250.125,
        ];
        let ints = [0, 1, -1, 9, 10, 99, 100, i64::MAX, i64::MIN];
        let mut items: Vec<Json> = strings.iter().map(|s| Json::from(*s)).collect();
        items.extend(floats.iter().map(|n| Json::Num(*n)));
        items.extend(ints.iter().map(|i| Json::Int(*i)));
        items.extend([Json::Null, Json::Bool(true), Json::Bool(false)]);
        items.push(Json::from(u64::MAX));
        items.push(Json::Arr(Vec::new()));
        items.push(Json::obj([]));
        items.push(Json::Obj(
            strings
                .iter()
                .map(|s| (s.to_string(), Json::from(*s)))
                .collect(),
        ));
        let doc = Json::obj([("items", Json::Arr(items.clone())), ("z", Json::Null)]);
        for v in items.iter().chain([&doc]) {
            let text = v.to_string();
            assert_eq!(text, oracle::to_string(v));
            // Printing is a fixed point of parsing. (Values need not be:
            // v1 prints an integral float of 1e15 or more without a
            // decimal point, so it reads back as an integer.)
            assert_eq!(parse(&text).unwrap().to_string(), text);
        }
        // Past i64 such a float does not read back at all (v1 again);
        // the writer still agrees with the oracle on its bytes.
        let max = Json::Num(f64::MAX);
        assert_eq!(max.to_string(), oracle::to_string(&max));
        // The scalar writers agree with the tree they stand in for.
        let mut out = String::new();
        u64::MAX.write_canonical(&mut out);
        assert_eq!(out, Json::from(u64::MAX).to_string());
    }

    #[test]
    fn object_writer_matches_the_tree() {
        let mut out = String::new();
        let mut object = ObjectWriter::new(&mut out);
        object.field("a", 1i64);
        object.field("b", Some("x\"y"));
        object.field("c", None::<&str>);
        object.field("d", -0.0f64);
        object.field("e", true);
        object.finish();
        let tree = Json::obj([
            ("e", Json::Bool(true)),
            ("d", Json::Num(-0.0)),
            ("c", Json::Null),
            ("b", Json::from("x\"y")),
            ("a", Json::Int(1)),
        ]);
        assert_eq!(out, tree.to_string());
    }

    #[test]
    fn overflowing_float_literals_are_rejected() {
        for text in ["1e999", "-1e999", "[1.0,1e999]", "{\"a\":-1.5e400}"] {
            let err = parse(text).unwrap_err();
            assert_eq!(err.message, "bad float literal", "{text}");
        }
        // The largest finite double still parses.
        assert_eq!(
            parse("1.7976931348623157e308").unwrap(),
            Json::Num(f64::MAX)
        );
    }

    #[test]
    fn canonical_object_ordering() {
        let v = Json::obj([("zeta", Json::Int(1)), ("alpha", Json::Int(2))]);
        assert_eq!(v.to_string(), r#"{"alpha":2,"zeta":1}"#);
    }

    #[test]
    fn round_trip_nested() {
        let v = Json::obj([
            ("user", Json::from("u-17")),
            ("ok", Json::Bool(true)),
            ("area", Json::Num(2.5)),
            ("cells", Json::Arr(vec![Json::Int(1), Json::Int(2)])),
            ("none", Json::Null),
        ]);
        let text = v.to_string();
        assert_eq!(parse(&text).unwrap(), v);
        // Serialization is a fixed point: parse → print is identity.
        assert_eq!(parse(&text).unwrap().to_string(), text);
    }

    #[test]
    fn escapes_round_trip() {
        let v = Json::Str("line\nbreak \"quoted\" \\ tab\t\u{0001}".into());
        assert_eq!(parse(&v.to_string()).unwrap(), v);
    }

    #[test]
    fn integral_floats_stay_floats() {
        let v = Json::Num(3.0);
        assert_eq!(v.to_string(), "3.0");
        assert_eq!(parse("3.0").unwrap(), v);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("01x").is_err());
        assert!(parse(r#"{"a":1} trailing"#).is_err());
    }

    #[test]
    fn parses_whitespace_and_exponents() {
        let v = parse(" { \"a\" : [ 1 , -2.5e2 , true ] } ").unwrap();
        assert_eq!(
            v.get("a").unwrap(),
            &Json::Arr(vec![Json::Int(1), Json::Num(-250.0), Json::Bool(true),])
        );
    }
}
