//! A minimal JSON reader for the repo's own serde-free writers.
//!
//! The workspace hand-rolls its JSON *output* (`RunResult::to_json`,
//! `MetricsReport::to_json`, the Chrome trace writer). The result cache
//! and the golden-run tests also need to read those documents back, so
//! this module adds the matching reader: a small recursive-descent
//! parser over the subset those writers emit — objects, arrays,
//! strings with `\\`/`\"` escapes, unsigned/negative integers, floats,
//! `true`/`false`/`null`.
//!
//! Integers are kept exact (`u64`/`i64` variants, no round-trip through
//! `f64`): cached results encode `f64` fields by IEEE-754 *bit
//! pattern*, and those bits must survive parsing unchanged.

use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer, kept exact.
    UInt(u64),
    /// A negative integer, kept exact.
    Int(i64),
    /// A number with a fraction or exponent.
    Float(f64),
    /// A string (escapes resolved).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order preserved, keys assumed unique.
    Obj(Vec<(String, Json)>),
}

/// Deepest array/object nesting [`Json::parse`] accepts. The parser
/// recurses once per level, so the cap keeps a hostile document (a
/// `/run` body of a million `[`) from overflowing the thread's stack;
/// the writers' own documents nest a handful of levels.
const MAX_DEPTH: usize = 128;

/// A parse error with byte offset context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset where parsing failed.
    pub at: usize,
    /// What went wrong.
    pub msg: &'static str,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.msg)
    }
}

impl Json {
    /// Parses a complete JSON document (trailing whitespace allowed).
    pub fn parse(text: &str) -> Result<Json, ParseError> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing garbage"));
        }
        Ok(v)
    }

    /// Member lookup on an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `u64` (exact integers only).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as `f64` (any numeric variant).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::UInt(v) => Some(*v as f64),
            Json::Int(v) => Some(*v as f64),
            Json::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as `bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
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

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Convenience: `self.get(key)?.as_u64()`.
    pub fn u64_field(&self, key: &str) -> Option<u64> {
        self.get(key)?.as_u64()
    }

    /// Convenience: `self.get(key)?.as_f64()`.
    pub fn f64_field(&self, key: &str) -> Option<f64> {
        self.get(key)?.as_f64()
    }

    /// Convenience: `self.get(key)?.as_str()`.
    pub fn str_field(&self, key: &str) -> Option<&str> {
        self.get(key)?.as_str()
    }
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &'static str) -> ParseError {
        ParseError { at: self.pos, msg }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err("unexpected character"))
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek().ok_or_else(|| self.err("unexpected end"))? {
            open @ (b'{' | b'[') => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err("nesting too deep"));
                }
                self.depth += 1;
                let v = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                v
            }
            b'"' => Ok(Json::Str(self.string()?)),
            b't' => self.literal("true", Json::Bool(true)),
            b'f' => self.literal("false", Json::Bool(false)),
            b'n' => self.literal("null", Json::Null),
            b'-' | b'0'..=b'9' => self.number(),
            _ => Err(self.err("unexpected character")),
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            members.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
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

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek().ok_or_else(|| self.err("unterminated string"))? {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    match self.peek().ok_or_else(|| self.err("unterminated escape"))? {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        // \b \f \uXXXX never appear in our writers.
                        _ => return Err(self.err("unsupported escape")),
                    }
                    self.pos += 1;
                }
                _ => {
                    // Consume one UTF-8 scalar: `pos` only ever moves
                    // over whole scalars, so it sits on a boundary.
                    let ch = self
                        .text
                        .get(self.pos..)
                        .and_then(|rest| rest.chars().next())
                        .ok_or_else(|| self.err("unexpected end"))?;
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut fractional = false;
        if self.peek() == Some(b'.') {
            fractional = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            fractional = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if fractional {
            text.parse::<f64>()
                .map(Json::Float)
                .map_err(|_| self.err("bad float"))
        } else if let Some(neg) = text.strip_prefix('-') {
            neg.parse::<i64>()
                .map(|v| Json::Int(-v))
                .map_err(|_| self.err("bad integer"))
        } else {
            text.parse::<u64>()
                .map(Json::UInt)
                .map_err(|_| self.err("bad integer"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_exactly() {
        assert_eq!(Json::parse("0").unwrap(), Json::UInt(0));
        assert_eq!(
            Json::parse("18446744073709551615").unwrap(),
            Json::UInt(u64::MAX),
            "u64::MAX must not round-trip through f64"
        );
        assert_eq!(Json::parse("-42").unwrap(), Json::Int(-42));
        assert_eq!(Json::parse("1.5").unwrap(), Json::Float(1.5));
        assert_eq!(Json::parse("2e3").unwrap(), Json::Float(2000.0));
        assert_eq!(Json::parse("true").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(
            Json::parse("\"a\\\"b\\\\c\"").unwrap(),
            Json::Str("a\"b\\c".into())
        );
    }

    #[test]
    fn parses_nested_structures() {
        let j = Json::parse(r#"{"a":[1,2,{"b":"x"}],"c":{},"d":[]}"#).unwrap();
        assert_eq!(j.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(
            j.get("a").unwrap().as_arr().unwrap()[2].str_field("b"),
            Some("x")
        );
        assert_eq!(j.get("c").unwrap(), &Json::Obj(vec![]));
        assert_eq!(j.get("d").unwrap(), &Json::Arr(vec![]));
        assert!(j.get("nope").is_none());
    }

    #[test]
    fn tolerates_whitespace_and_preserves_order() {
        let j = Json::parse(" {\n \"z\" : 1 ,\t\"a\" : 2 } ").unwrap();
        match &j {
            Json::Obj(m) => {
                assert_eq!(m[0].0, "z");
                assert_eq!(m[1].0, "a");
            }
            _ => panic!("not an object"),
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["{", "[1,", "\"open", "{\"a\":}", "1 2", "tru", "{'a':1}"] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn nesting_is_capped_and_long_strings_parse_in_one_pass() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.msg, "nesting too deep");
        // A million levels would overflow the stack without the cap.
        assert!(Json::parse(&"{\"a\":[".repeat(1 << 20)).is_err());
        // Multi-byte scalars survive, and a megabyte string is one pass
        // over its bytes, not one per character.
        let long = format!("\"{}é\"", "ü".repeat(1 << 19));
        let parsed = Json::parse(&long).unwrap();
        assert_eq!(
            parsed.as_str().map(|s| s.chars().count()),
            Some((1 << 19) + 1)
        );
    }

    #[test]
    fn reads_own_writers_output() {
        // The document shapes our writers emit parse cleanly.
        let metrics = "{\"metrics\":[\"a/b\"],\"snapshots\":[{\"label\":\"epoch-1\",\"t_ticks\":42,\"values\":[3]}]}";
        let j = Json::parse(metrics).unwrap();
        assert_eq!(
            j.get("snapshots").unwrap().as_arr().unwrap()[0].u64_field("t_ticks"),
            Some(42)
        );
    }
}
