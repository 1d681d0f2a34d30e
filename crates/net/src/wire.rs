//! Minimal binary wire codec.
//!
//! No serialization *format* crate is in the approved offline dependency
//! set, so the stack ships its own small, explicit binary codec. This is
//! deliberate for a reproduction: the byte counts that drive the paper's
//! analytical model (§5.2.2) come straight out of [`Wire::encoded_len`],
//! with no hidden framing.
//!
//! Encoding rules: fixed-width little-endian integers, `u32`
//! length-prefixed byte strings and sequences, one tag byte for `Option`.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::fmt;

/// Errors produced while decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the value was complete.
    UnexpectedEof,
    /// A tag byte had no meaning for the target type.
    InvalidTag(u8),
    /// A length prefix exceeded the sanity limit.
    LengthOverflow(u64),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::UnexpectedEof => write!(f, "unexpected end of buffer"),
            WireError::InvalidTag(t) => write!(f, "invalid tag byte {t:#04x}"),
            WireError::LengthOverflow(l) => write!(f, "length prefix {l} exceeds limit"),
        }
    }
}

impl std::error::Error for WireError {}

/// Sanity cap on decoded collection lengths (codec-level DoS guard).
const MAX_LEN: u64 = 256 * 1024 * 1024;

/// Write half of the codec: appends values to a growable buffer — or, in
/// [counting](WireWriter::counting) mode, only adds up how long they are.
///
/// Counting is how a buffer gets its size: [`Wire::encoded_len`] runs
/// `encode` against a counting writer, which touches no payload byte and
/// allocates nothing, and the real pass then writes into a buffer of
/// exactly that capacity.
#[derive(Debug)]
pub struct WireWriter {
    sink: Sink,
}

#[derive(Debug)]
enum Sink {
    Buffer(BytesMut),
    Count(usize),
}

impl Default for WireWriter {
    fn default() -> Self {
        WireWriter::new()
    }
}

impl WireWriter {
    /// A writer with an empty buffer.
    pub fn new() -> Self {
        WireWriter::with_capacity(0)
    }

    /// A writer whose buffer holds `cap` bytes before it has to grow.
    pub fn with_capacity(cap: usize) -> Self {
        WireWriter {
            sink: Sink::Buffer(BytesMut::with_capacity(cap)),
        }
    }

    /// A writer that keeps no bytes, only their count ([`len`](Self::len)).
    pub fn counting() -> Self {
        WireWriter {
            sink: Sink::Count(0),
        }
    }

    fn put_slice(&mut self, bytes: &[u8]) {
        match &mut self.sink {
            Sink::Buffer(buf) => buf.put_slice(bytes),
            Sink::Count(n) => *n += bytes.len(),
        }
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Appends a little-endian `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends raw bytes with a `u32` length prefix.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is longer than `u32::MAX`.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        let len = u32::try_from(bytes.len()).expect("byte string too long for wire format");
        self.put_u32(len);
        self.put_slice(bytes);
    }

    /// Appends a value implementing [`Wire`].
    pub fn put<T: Wire>(&mut self, value: &T) {
        value.encode(self);
    }

    /// Bytes written (or counted) so far.
    pub fn len(&self) -> usize {
        match &self.sink {
            Sink::Buffer(buf) => buf.len(),
            Sink::Count(n) => *n,
        }
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Finishes writing and returns the immutable buffer.
    ///
    /// # Panics
    ///
    /// Panics on a [counting](Self::counting) writer, which kept no
    /// bytes to return.
    pub fn finish(self) -> Bytes {
        match self.sink {
            Sink::Buffer(buf) => buf.freeze(),
            Sink::Count(_) => panic!("finish() on a counting WireWriter"),
        }
    }
}

/// Read half of the codec: a consuming cursor over a [`Bytes`] buffer.
#[derive(Debug)]
pub struct WireReader {
    buf: Bytes,
}

impl WireReader {
    /// Wraps a buffer for reading.
    pub fn new(buf: Bytes) -> Self {
        WireReader { buf }
    }

    fn need(&self, n: usize) -> Result<(), WireError> {
        if self.buf.remaining() < n {
            Err(WireError::UnexpectedEof)
        } else {
            Ok(())
        }
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, WireError> {
        self.need(1)?;
        Ok(self.buf.get_u8())
    }

    /// Reads a little-endian `u16`.
    pub fn get_u16(&mut self) -> Result<u16, WireError> {
        self.need(2)?;
        Ok(self.buf.get_u16_le())
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, WireError> {
        self.need(4)?;
        Ok(self.buf.get_u32_le())
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, WireError> {
        self.need(8)?;
        Ok(self.buf.get_u64_le())
    }

    /// Reads a `u32`-length-prefixed byte string, zero-copy.
    pub fn get_bytes(&mut self) -> Result<Bytes, WireError> {
        let len = self.get_u32()? as u64;
        if len > MAX_LEN {
            return Err(WireError::LengthOverflow(len));
        }
        let len = len as usize;
        self.need(len)?;
        Ok(self.buf.split_to(len))
    }

    /// Reads a value implementing [`Wire`].
    pub fn get<T: Wire>(&mut self) -> Result<T, WireError> {
        T::decode(self)
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.remaining()
    }

    /// Takes all remaining bytes, zero-copy (used for envelope bodies
    /// whose length is implied by the enclosing message).
    pub fn take_rest(&mut self) -> Bytes {
        let len = self.buf.remaining();
        self.buf.split_to(len)
    }

    /// Errors unless the buffer was fully consumed (strict decoding).
    pub fn expect_end(&self) -> Result<(), WireError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(WireError::InvalidTag(0xFF))
        }
    }
}

/// Types with a defined binary wire representation.
///
/// # Example
///
/// ```
/// use fortika_net::wire::{decode, encode, Wire, WireError, WireReader, WireWriter};
///
/// #[derive(Debug, PartialEq)]
/// struct Point { x: u32, y: u32 }
///
/// impl Wire for Point {
///     fn encode(&self, w: &mut WireWriter) {
///         w.put_u32(self.x);
///         w.put_u32(self.y);
///     }
///     fn decode(r: &mut WireReader) -> Result<Self, WireError> {
///         Ok(Point { x: r.get_u32()?, y: r.get_u32()? })
///     }
/// }
///
/// let p = Point { x: 3, y: 9 };
/// let bytes = encode(&p);
/// assert_eq!(bytes.len(), 8);
/// assert_eq!(decode::<Point>(bytes).unwrap(), p);
/// ```
pub trait Wire: Sized {
    /// Appends this value to the writer.
    fn encode(&self, w: &mut WireWriter);
    /// Reads a value of this type from the reader.
    fn decode(r: &mut WireReader) -> Result<Self, WireError>;

    /// Exact size of the encoding in bytes.
    ///
    /// Runs [`encode`](Wire::encode) against a
    /// [counting](WireWriter::counting) writer: one step per field, no
    /// payload byte read, nothing allocated, and equal to the encoding's
    /// length by construction — so no type overrides it.
    fn encoded_len(&self) -> usize {
        let mut w = WireWriter::counting();
        self.encode(&mut w);
        w.len()
    }
}

/// Encodes a value into a fresh buffer of exactly its encoded length.
pub fn encode<T: Wire>(value: &T) -> Bytes {
    encode_with(|w| value.encode(w))
}

/// Encodes whatever `write` appends into a fresh buffer of exactly that
/// length — the one place an encode buffer is sized. `write` runs twice:
/// against a counting writer, then against the buffer the count sized,
/// so every byte is copied once. For messages that are not a single
/// [`Wire`] value: a frame header followed by a body, or an encoding
/// that depends on a table (`CatchUp::encode_tagged`).
pub fn encode_with(write: impl Fn(&mut WireWriter)) -> Bytes {
    let mut sizing = WireWriter::counting();
    write(&mut sizing);
    let mut w = WireWriter::with_capacity(sizing.len());
    write(&mut w);
    w.finish()
}

/// Decodes a value, requiring the buffer to be fully consumed.
///
/// # Errors
///
/// Returns [`WireError`] on truncation, bad tags or trailing garbage.
pub fn decode<T: Wire>(buf: Bytes) -> Result<T, WireError> {
    let mut r = WireReader::new(buf);
    let v = T::decode(&mut r)?;
    r.expect_end()?;
    Ok(v)
}

macro_rules! wire_int {
    ($t:ty, $put:ident, $get:ident) => {
        impl Wire for $t {
            fn encode(&self, w: &mut WireWriter) {
                w.$put(*self);
            }
            fn decode(r: &mut WireReader) -> Result<Self, WireError> {
                r.$get()
            }
        }
    };
}

wire_int!(u8, put_u8, get_u8);
wire_int!(u16, put_u16, get_u16);
wire_int!(u32, put_u32, get_u32);
wire_int!(u64, put_u64, get_u64);

/// The empty message: no bytes on the wire (a bare heartbeat).
impl Wire for () {
    fn encode(&self, _: &mut WireWriter) {}
    fn decode(_: &mut WireReader) -> Result<Self, WireError> {
        Ok(())
    }
}

impl Wire for bool {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u8(u8::from(*self));
    }
    fn decode(r: &mut WireReader) -> Result<Self, WireError> {
        match r.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(WireError::InvalidTag(t)),
        }
    }
}

impl Wire for Bytes {
    fn encode(&self, w: &mut WireWriter) {
        w.put_bytes(self);
    }
    fn decode(r: &mut WireReader) -> Result<Self, WireError> {
        r.get_bytes()
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.encode(w);
            }
        }
    }
    fn decode(r: &mut WireReader) -> Result<Self, WireError> {
        match r.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            t => Err(WireError::InvalidTag(t)),
        }
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, w: &mut WireWriter) {
        let len = u32::try_from(self.len()).expect("sequence too long for wire format");
        w.put_u32(len);
        for item in self {
            item.encode(w);
        }
    }
    fn decode(r: &mut WireReader) -> Result<Self, WireError> {
        let len = r.get_u32()? as u64;
        if len > MAX_LEN {
            return Err(WireError::LengthOverflow(len));
        }
        let mut out = Vec::with_capacity((len as usize).min(1024));
        for _ in 0..len {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = encode(&v);
        assert_eq!(bytes.len(), v.encoded_len(), "encoded_len mismatch");
        let back: T = decode(bytes).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn integers_round_trip() {
        round_trip(0u8);
        round_trip(255u8);
        round_trip(0xBEEFu16);
        round_trip(0xDEAD_BEEFu32);
        round_trip(u64::MAX);
    }

    #[test]
    fn bools_round_trip_and_reject_garbage() {
        round_trip(true);
        round_trip(false);
        let mut r = WireReader::new(Bytes::from_static(&[7]));
        assert_eq!(bool::decode(&mut r), Err(WireError::InvalidTag(7)));
    }

    #[test]
    fn bytes_round_trip() {
        round_trip(Bytes::from_static(b""));
        round_trip(Bytes::from(vec![42u8; 10_000]));
    }

    #[test]
    fn options_and_vecs_round_trip() {
        round_trip(Option::<u32>::None);
        round_trip(Some(17u32));
        round_trip(Vec::<u64>::new());
        round_trip(vec![1u64, 2, 3]);
        round_trip(vec![Some(1u8), None, Some(3)]);
    }

    #[test]
    fn counting_writer_counts_what_a_buffer_would_hold() {
        let v = vec![Some(Bytes::from(vec![7u8; 300])), None, Some(Bytes::new())];
        let mut counted = WireWriter::counting();
        let mut written = WireWriter::new();
        for w in [&mut counted, &mut written] {
            assert!(w.is_empty());
            w.put_u8(1);
            w.put_u16(2);
            w.put_u32(3);
            w.put_u64(4);
            w.put_bytes(b"abc");
            w.put(&v);
        }
        assert_eq!(counted.len(), written.len());
        assert_eq!(counted.len(), 15 + 7 + 4 + (1 + 4 + 300) + 1 + (1 + 4));
        assert_eq!(written.finish().len(), counted.len());
    }

    #[test]
    #[should_panic(expected = "counting WireWriter")]
    fn counting_writer_has_no_buffer_to_finish() {
        let _ = WireWriter::counting().finish();
    }

    #[test]
    fn encode_with_frames_header_and_body_in_one_buffer() {
        let body = Bytes::from(vec![5u8; 100]);
        let framed = encode_with(|w| {
            w.put_u16(0xABCD);
            body.encode(w);
        });
        assert_eq!(framed.len(), 2 + 4 + 100);
        let mut r = WireReader::new(framed);
        assert_eq!(r.get_u16(), Ok(0xABCD));
        assert_eq!(decode::<Bytes>(r.take_rest()), Ok(body));
    }

    #[test]
    fn unit_is_the_empty_message() {
        round_trip(());
        assert!(encode(&()).is_empty());
    }

    #[test]
    fn truncated_input_errors() {
        let bytes = encode(&0xAABBCCDDu32);
        let cut = bytes.slice(0..3);
        assert_eq!(decode::<u32>(cut), Err(WireError::UnexpectedEof));
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut w = WireWriter::new();
        w.put_u8(1);
        w.put_u8(99); // extra byte after the bool
        assert!(decode::<bool>(w.finish()).is_err());
    }

    #[test]
    fn hostile_length_prefix_rejected() {
        let mut w = WireWriter::new();
        w.put_u32(u32::MAX); // claims a ~4 GiB payload
        let err = decode::<Bytes>(w.finish()).unwrap_err();
        assert_eq!(err, WireError::LengthOverflow(u32::MAX as u64));
    }

    #[test]
    fn zero_copy_bytes_share_storage() {
        let payload = Bytes::from(vec![9u8; 4096]);
        let encoded = encode(&payload);
        let decoded: Bytes = decode(encoded).unwrap();
        assert_eq!(decoded.len(), 4096);
        assert_eq!(decoded[0], 9);
    }

    #[test]
    fn reader_expect_end() {
        let mut r = WireReader::new(Bytes::from_static(&[1, 2]));
        r.get_u8().unwrap();
        assert!(r.expect_end().is_err());
        r.get_u8().unwrap();
        assert!(r.expect_end().is_ok());
        assert_eq!(r.get_u8(), Err(WireError::UnexpectedEof));
    }

    #[test]
    fn error_display() {
        assert_eq!(
            WireError::UnexpectedEof.to_string(),
            "unexpected end of buffer"
        );
        assert!(WireError::InvalidTag(3).to_string().contains("0x03"));
    }
}
