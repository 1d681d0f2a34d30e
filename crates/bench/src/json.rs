//! A minimal JSON parser for validating the `BENCH_*.json` files the
//! `probe` binary emits.
//!
//! The bench files are written with hand-rolled formatting (the
//! workspace is dependency-free by design), so nothing would catch a
//! malformed emitter until a downstream consumer chokes. This module
//! closes the loop: `probe` re-reads every file it writes and fails
//! loudly if the JSON does not parse or does not cover both stacks —
//! which is what the CI `probe --check` step asserts.
//!
//! Strings support the common escapes (`\"`, `\\`, `\/`, `\n`, `\t`,
//! `\r`, `\b`, `\f`, `\uXXXX` with surrogate pairs); numbers are parsed
//! through `f64`. This is a *validator with accessors*, not a
//! general-purpose serde replacement.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, via `f64`.
    Number(f64),
    /// A string (escapes resolved).
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object. Keys are unique; a duplicate key is a parse error
    /// (the bench emitter must never produce one).
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// Member `key` of an object (`None` for other variants).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(m) => m.get(key),
            _ => None,
        }
    }

    /// The elements, when this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(v) => Some(v),
            _ => None,
        }
    }

    /// The string content, when this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value, when this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(x) => Some(*x),
            _ => None,
        }
    }
}

/// A parse error: byte offset plus message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the error in the input.
    pub at: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.at, self.msg)
    }
}

/// Parses `text` as a single JSON document (trailing whitespace only).
pub fn parse(text: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        b: text.as_bytes(),
        i: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.i != p.b.len() {
        return Err(p.err("trailing content after the document"));
    }
    Ok(v)
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> ParseError {
        ParseError {
            at: self.i,
            msg: msg.to_string(),
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&c) = self.b.get(self.i) {
            if matches!(c, b' ' | b'\t' | b'\n' | b'\r') {
                self.i += 1;
            } else {
                break;
            }
        }
    }

    fn eat(&mut self, c: u8) -> bool {
        if self.b.get(self.i) == Some(&c) {
            self.i += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), ParseError> {
        if self.eat(c) {
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", c as char)))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.b.get(self.i) {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b't') => self.literal(b"true", Value::Bool(true)),
            Some(b'f') => self.literal(b"false", Value::Bool(false)),
            Some(b'n') => self.literal(b"null", Value::Null),
            Some(c) if c.is_ascii_digit() || *c == b'-' => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, lit: &[u8], v: Value) -> Result<Value, ParseError> {
        if self.b[self.i..].starts_with(lit) {
            self.i += lit.len();
            Ok(v)
        } else {
            Err(self.err("malformed literal"))
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut m = BTreeMap::new();
        self.skip_ws();
        if self.eat(b'}') {
            return Ok(Value::Object(m));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            if m.insert(key, val).is_some() {
                return Err(self.err("duplicate object key"));
            }
            self.skip_ws();
            if self.eat(b',') {
                continue;
            }
            self.expect(b'}')?;
            return Ok(Value::Object(m));
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut v = Vec::new();
        self.skip_ws();
        if self.eat(b']') {
            return Ok(Value::Array(v));
        }
        loop {
            self.skip_ws();
            v.push(self.value()?);
            self.skip_ws();
            if self.eat(b',') {
                continue;
            }
            self.expect(b']')?;
            return Ok(Value::Array(v));
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.b.get(self.i) {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    match self.b.get(self.i) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let mut code = self.hex4()?;
                            // A character beyond U+FFFF is written as a
                            // surrogate pair of two escapes.
                            if (0xd800..0xdc00).contains(&code) {
                                if self.b.get(self.i + 1..self.i + 3) != Some(b"\\u") {
                                    return Err(self.err("lone surrogate in \\u escape"));
                                }
                                self.i += 2;
                                let low = self.hex4()?;
                                if !(0xdc00..0xe000).contains(&low) {
                                    return Err(self.err("lone surrogate in \\u escape"));
                                }
                                code = 0x1_0000 + ((code - 0xd800) << 10) + (low - 0xdc00);
                            }
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("lone surrogate in \\u escape"))?,
                            );
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                    self.i += 1;
                }
                Some(&c) if c < 0x20 => return Err(self.err("raw control character in string")),
                Some(&c) => {
                    // Multi-byte UTF-8 sequences pass through bytewise;
                    // the input is a &str so they are well-formed.
                    out.push_str(
                        std::str::from_utf8(&self.b[self.i..self.i + utf8_len(c)])
                            .expect("input is valid UTF-8"),
                    );
                    self.i += utf8_len(c);
                }
            }
        }
    }

    /// The four hex digits after the `u` at `self.i`, leaving `self.i`
    /// on the last of them.
    fn hex4(&mut self) -> Result<u32, ParseError> {
        let hex = self
            .b
            .get(self.i + 1..self.i + 5)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        if !hex.iter().all(u8::is_ascii_hexdigit) {
            return Err(self.err("malformed \\u escape"));
        }
        self.i += 4;
        let hex = std::str::from_utf8(hex).expect("hex digits");
        Ok(u32::from_str_radix(hex, 16).expect("hex digits"))
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.i;
        self.eat(b'-');
        while self
            .b
            .get(self.i)
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.i += 1;
        }
        let text = std::str::from_utf8(&self.b[start..self.i]).expect("ascii");
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| self.err("malformed number"))
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_bench_shaped_documents() {
        let doc = r#"{
  "benchmark": "stable_write",
  "seed": 7,
  "points": [
    {"stack": "modular", "n": 3, "latency_ms": {"mean": 12.5}, "ok": true},
    {"stack": "monolithic", "n": 3, "latency_ms": {"mean": -8.25e-1}, "note": null}
  ]
}"#;
        let v = parse(doc).expect("parses");
        assert_eq!(
            v.get("benchmark").and_then(Value::as_str),
            Some("stable_write")
        );
        let pts = v.get("points").and_then(Value::as_array).expect("array");
        assert_eq!(pts.len(), 2);
        assert_eq!(pts[0].get("stack").and_then(Value::as_str), Some("modular"));
        assert_eq!(
            pts[1]
                .get("latency_ms")
                .and_then(|l| l.get("mean"))
                .and_then(Value::as_f64),
            Some(-0.825)
        );
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1, 2,]",
            "{\"a\": 1,}",
            "{\"a\" 1}",
            "{\"a\": 1} trailing",
            "\"unterminated",
            "{\"dup\": 1, \"dup\": 2}",
            "nul",
            "01a",
        ] {
            assert!(parse(bad).is_err(), "accepted malformed input: {bad:?}");
        }
    }

    #[test]
    fn string_escapes_round_trip() {
        let v = parse(r#""a\"b\\c\nd""#).expect("escape parse");
        assert_eq!(v.as_str(), Some("a\"b\\c\nd"));
        let v = parse(r#""\u0001\u00e9\u2713\ud83d\ude00""#).expect("unicode escapes");
        assert_eq!(v.as_str(), Some("\u{1}é✓😀"));
        for bad in [
            r#""bad \u12g4 escape""#,
            r#""cut \u12"#,
            r#""\ud83d alone""#,
            r#""\ud83d\u0041""#,
            r#""\ude00""#,
        ] {
            assert!(parse(bad).is_err(), "accepted {bad}");
        }
    }
}
