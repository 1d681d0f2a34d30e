//! The workspace's JSON: one byte-level writer every artefact renders
//! through, and one parser that reads them back.
//!
//! **Writing.** A [`JsonWriter`] is a few kinds of append to one
//! `Vec<u8>` and nothing else. The trace exports are its hot path: fixed
//! text with integers and a few short tags spliced in, several per
//! event and tens of thousands of events per trace. So integers, tags
//! and Chrome timestamps go through no `core::fmt` (a `write!` with
//! eight `{}` arguments builds an argument table and makes a dynamic
//! call per argument), no intermediate `String` and no per-field
//! allocation. The buffer is checked to be UTF-8 once, when it is
//! handed back as a `String`. The bench records write floats too
//! ([`JsonWriter::float`], [`JsonWriter::fixed`]); those go through
//! `core::fmt`, once per field.
//!
//! **Reading.** [`parse`] reads one document into a [`Value`]. `probe`
//! re-reads every file it writes with it and fails loudly if the JSON
//! does not parse, and the tests read the exports, the coverage matrix
//! and the committed `BENCH_*.json` files through it. Strings support
//! the common escapes (`\"`, `\\`, `\/`, `\n`, `\t`, `\r`, `\b`, `\f`,
//! `\uXXXX` with surrogate pairs). Numbers follow RFC 8259's grammar and
//! are read through `f64`. Object keys are sorted and must be unique.
//! This is a *validator with accessors*, not a general-purpose serde
//! replacement.

use std::collections::BTreeMap;
use std::fmt;
use std::io::Write as _;

/// `"00" "01" … "99"`: two decimal digits per step of [`JsonWriter::u64`].
const DIGIT_PAIRS: &[u8; 200] = b"\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

const HEX: &[u8; 16] = b"0123456789abcdef";

/// True for the bytes JSON does not allow bare inside a string.
fn needs_escape(b: u8) -> bool {
    b < 0x20 || b == b'"' || b == b'\\'
}

/// An append-only JSON text buffer.
///
/// The caller writes the punctuation and keys with [`raw`](Self::raw);
/// the writer renders the values.
///
/// # Example
///
/// ```
/// use fortika_trace::json::JsonWriter;
///
/// let mut w = JsonWriter::with_capacity(64);
/// w.raw("{\"tags\": [");
/// w.join(&["a", "b\"c"], ", ", |w, tag| w.quoted("", tag));
/// w.num("], \"n\": ", 42u64);
/// w.fixed(", \"x\": ", 0.75, 4);
/// w.raw("}");
/// assert_eq!(w.finish(), r#"{"tags": ["a", "b\"c"], "n": 42, "x": 0.7500}"#);
/// ```
pub struct JsonWriter {
    buf: Vec<u8>,
}

impl JsonWriter {
    /// An empty writer with room for `bytes`.
    pub fn with_capacity(bytes: usize) -> Self {
        JsonWriter {
            buf: Vec::with_capacity(bytes),
        }
    }

    /// Fixed text — punctuation, keys, literals — copied as it is.
    pub fn raw(&mut self, text: &str) {
        self.buf.extend_from_slice(text.as_bytes());
    }

    /// The contents of a JSON string (the quotes around it are the
    /// caller's `raw` text, so several pieces can share one pair):
    /// `"`, `\` and control characters escaped, everything else —
    /// non-ASCII included — as it is.
    // `#[inline]` here and on `u64`, the two calls the exports do not
    // inline, keeps those calls direct. Without it a `pub` method that
    // the exports call from another codegen unit is reached through
    // the GOT, one indirect call per field.
    #[inline]
    pub fn str(&mut self, s: &str) {
        let bytes = s.as_bytes();
        if !bytes.iter().copied().any(needs_escape) {
            self.buf.extend_from_slice(bytes);
            return;
        }
        for &b in bytes {
            match b {
                b'"' => self.raw("\\\""),
                b'\\' => self.raw("\\\\"),
                b'\n' => self.raw("\\n"),
                b'\t' => self.raw("\\t"),
                b'\r' => self.raw("\\r"),
                0..=0x1f => {
                    self.raw("\\u00");
                    self.buf.push(HEX[usize::from(b >> 4)]);
                    self.buf.push(HEX[usize::from(b & 0xf)]);
                }
                _ => self.buf.push(b),
            }
        }
    }

    /// `before`, then `s` as a JSON string: quoted, with
    /// [`str`](Self::str)'s escapes.
    pub fn quoted(&mut self, before: &str, s: &str) {
        self.raw(before);
        self.raw("\"");
        self.str(s);
        self.raw("\"");
    }

    /// `v` in decimal.
    #[inline]
    pub fn u64(&mut self, mut v: u64) {
        // Half the fields of an event are one digit (pids, incarnations,
        // a zero queueing delay): no buffer, no copy.
        if v < 10 {
            self.buf.push(b'0' + v as u8);
            return;
        }
        // u64::MAX has 20 digits; filled from the right.
        let mut digits = [0u8; 20];
        let mut at = digits.len();
        while v >= 100 {
            let pair = (v % 100) as usize * 2;
            v /= 100;
            at -= 2;
            digits[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
        }
        if v >= 10 {
            let pair = v as usize * 2;
            at -= 2;
            digits[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
        } else {
            at -= 1;
            digits[at] = b'0' + v as u8;
        }
        self.buf.extend_from_slice(&digits[at..]);
    }

    /// `before`, then `v` in decimal — the usual `,"key":value`.
    pub fn num(&mut self, before: &str, v: impl Into<u64>) {
        self.raw(before);
        self.u64(v.into());
    }

    /// Nanoseconds as Chrome's microsecond `ts`: `µs.nnn`, always three
    /// sub-microsecond digits (deterministic, no float formatting).
    pub(crate) fn us(&mut self, ns: u64) {
        self.u64(ns / 1_000);
        let frac = (ns % 1_000) as usize;
        let pair = frac % 100 * 2;
        self.buf.extend_from_slice(&[
            b'.',
            b'0' + (frac / 100) as u8,
            DIGIT_PAIRS[pair],
            DIGIT_PAIRS[pair + 1],
        ]);
    }

    /// `before`, then `v` as `Display` renders it: the shortest text
    /// that reads back as `v`, with no fraction for a whole number
    /// (`2000`, `0.5`). A non-finite `v` renders as `NaN` or `inf`,
    /// which is not JSON.
    pub fn float(&mut self, before: &str, v: f64) {
        write!(self.buf, "{before}{v}").expect("a Vec takes any write");
    }

    /// `before`, then `v` rounded to exactly `decimals` digits after
    /// the point, as `{:.N}` renders it (`0.75` to four is `0.7500`).
    /// A non-finite `v` renders as `NaN` or `inf`, which is not JSON.
    pub fn fixed(&mut self, before: &str, v: f64, decimals: usize) {
        write!(self.buf, "{before}{v:.decimals$}").expect("a Vec takes any write");
    }

    /// `each` written for every item of `items`, with `sep` between
    /// two of them: the elements of an array or the members of an
    /// object.
    pub fn join<T>(&mut self, items: &[T], sep: &str, mut each: impl FnMut(&mut Self, &T)) {
        for (i, item) in items.iter().enumerate() {
            self.raw(if i == 0 { "" } else { sep });
            each(self, item);
        }
    }

    /// The text written so far.
    pub fn finish(self) -> String {
        String::from_utf8(self.buf).expect("the writer appends only &str contents and ASCII")
    }
}

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
    /// (no emitter of the workspace may produce one).
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
        text,
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
    text: &'a str,
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
                Some(_) => {
                    // One character of one to four bytes, copied whole.
                    let rest = &self.text[self.i..];
                    let c = rest.chars().next().expect("inside the input");
                    out.push(c);
                    self.i += c.len_utf8();
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

    /// RFC 8259's `number`: an optional `-`, then `0` or a digit run
    /// that does not start with `0`, then optionally `.` and at least
    /// one digit, then optionally `e`/`E`, a sign and at least one
    /// digit.
    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.i;
        self.eat(b'-');
        let int = self.i;
        let mut ok = self.digits() > 0 && (self.b[int] != b'0' || self.i == int + 1);
        if self.eat(b'.') {
            ok &= self.digits() > 0;
        }
        if self.eat(b'e') || self.eat(b'E') {
            let _sign = self.eat(b'+') || self.eat(b'-');
            ok &= self.digits() > 0;
        }
        if !ok {
            return Err(self.err("malformed number"));
        }
        let v = self.text[start..self.i]
            .parse()
            .expect("a JSON number reads as an f64");
        Ok(Value::Number(v))
    }

    /// Skips a run of ASCII digits, returning its length.
    fn digits(&mut self) -> usize {
        let from = self.i;
        while self.b.get(self.i).is_some_and(u8::is_ascii_digit) {
            self.i += 1;
        }
        self.i - from
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_rng::Rng;

    fn written(f: impl FnOnce(&mut JsonWriter)) -> String {
        let mut w = JsonWriter::with_capacity(0);
        f(&mut w);
        w.finish()
    }

    #[test]
    fn integers_render_as_display_does() {
        let mut values = vec![0, 9, 10, 99, 100, 999, 1_000, u64::MAX, u64::MAX - 1];
        let mut p = 1u64;
        for _ in 1..=19 {
            p *= 10;
            values.extend([p - 1, p, p + 1]);
        }
        for v in values {
            assert_eq!(written(|w| w.u64(v)), v.to_string());
            assert_eq!(
                written(|w| w.us(v)),
                format!("{}.{:03}", v / 1_000, v % 1_000)
            );
        }
    }

    #[test]
    fn strings_escape_what_json_forbids_and_nothing_else() {
        for (input, expected) in [
            ("consensus.ack", "consensus.ack"),
            ("", ""),
            ("naïve ✓ \u{7f}", "naïve ✓ \u{7f}"),
            ("a\"b", "a\\\"b"),
            ("a\\b", "a\\\\b"),
            ("l1\nl2\tc\rd", "l1\\nl2\\tc\\rd"),
            (
                "\u{0}\u{1}\u{8}\u{c}\u{1f} ",
                "\\u0000\\u0001\\u0008\\u000c\\u001f ",
            ),
            ("é\"é", "é\\\"é"),
        ] {
            assert_eq!(written(|w| w.str(input)), expected, "{input:?}");
        }
    }

    /// Whatever the writer renders, the parser reads back as the value
    /// that was written: strings byte for byte, integers up to 2^53 and
    /// fixed-decimal floats to the same number.
    #[test]
    fn writer_and_parser_agree() {
        // Every byte JSON escapes, the two it escapes by name, DEL and
        // characters of two, three and four UTF-8 bytes.
        let mut alphabet: Vec<char> = (0u8..0x20).map(char::from).collect();
        alphabet.extend(['"', '\\', '/', '\u{7f}', 'a', ' ', 'é', '✓', '😀']);
        let mut rng = Rng(0x6a73_6f6e);
        let whole: String = alphabet.iter().collect();
        let mut strings = vec![String::new(), whole];
        for _ in 0..500 {
            let len = rng.below(12) as usize;
            strings.push(
                (0..len)
                    .map(|_| alphabet[rng.below(alphabet.len() as u64) as usize])
                    .collect(),
            );
        }
        for s in &strings {
            let text = written(|w| {
                w.raw("\"");
                w.str(s);
                w.raw("\"");
            });
            assert_eq!(parse(&text).expect(&text).as_str(), Some(s.as_str()));
        }

        let mut integers = vec![0, 1, 9, 10, 1 << 53];
        integers.extend((0..500).map(|_| rng.below((1 << 53) + 1)));
        for v in integers {
            let text = written(|w| w.u64(v));
            assert_eq!(parse(&text).expect(&text).as_f64(), Some(v as f64));
        }

        for _ in 0..500 {
            let decimals = rng.below(6) as usize;
            let v = (rng.next() >> 11) as f64 / (1u64 << 40) as f64;
            let text = written(|w| w.fixed("", v, decimals));
            let read = parse(&text).expect(&text).as_f64().expect("a number");
            let rounded: f64 = format!("{v:.decimals$}").parse().expect("f64 text");
            assert_eq!(read, rounded, "{text}");
        }
    }

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
    fn reads_every_number_form() {
        for (text, v) in [
            ("0", 0.0),
            ("-0", 0.0),
            ("7", 7.0),
            ("-10", -10.0),
            ("0.5", 0.5),
            ("10.25", 10.25),
            ("1e3", 1e3),
            ("1E+3", 1e3),
            ("-2.5e-2", -0.025),
            ("0e0", 0.0),
        ] {
            assert_eq!(parse(text).map(|n| n.as_f64()), Ok(Some(v)), "{text}");
        }
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
            // Numbers RFC 8259 does not allow.
            "01",
            "-01",
            "00",
            "[07]",
            "1.",
            "1.e5",
            "-",
            "-.5",
            ".5",
            "1e",
            "1e+",
            "+1",
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
