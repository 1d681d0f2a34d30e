//! The byte-level JSON writer both exports render through.
//!
//! An export is fixed text with integers and a few short tags spliced
//! in, several per event and tens of thousands of events per trace, so
//! the writer is a few kinds of append to one `Vec<u8>` and nothing else: no
//! `core::fmt` (a `write!` with eight `{}` arguments builds an argument
//! table and makes a dynamic call per argument), no intermediate
//! `String`, no per-field allocation. The buffer is checked to be UTF-8
//! once, when it is handed back as a `String`.

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
pub(crate) struct JsonWriter {
    buf: Vec<u8>,
}

impl JsonWriter {
    /// An empty writer with room for `bytes`.
    pub(crate) fn with_capacity(bytes: usize) -> Self {
        JsonWriter {
            buf: Vec::with_capacity(bytes),
        }
    }

    /// Fixed text — punctuation, keys, literals — copied as it is.
    pub(crate) fn raw(&mut self, text: &str) {
        self.buf.extend_from_slice(text.as_bytes());
    }

    /// The contents of a JSON string (the quotes around it are the
    /// caller's `raw` text, so several pieces can share one pair):
    /// `"`, `\` and control characters escaped, everything else —
    /// non-ASCII included — as it is.
    pub(crate) fn str(&mut self, s: &str) {
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

    /// `v` in decimal.
    pub(crate) fn u64(&mut self, mut v: u64) {
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
    pub(crate) fn num(&mut self, before: &str, v: impl Into<u64>) {
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

    /// The text written so far.
    pub(crate) fn finish(self) -> String {
        String::from_utf8(self.buf).expect("the writer appends only &str contents and ASCII")
    }
}

#[cfg(test)]
mod tests {
    use super::JsonWriter;

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
}
