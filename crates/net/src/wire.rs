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
//!
//! One `encode` per type serves three sinks ([`WireWriter`]): a
//! *buffer* (the bytes, contiguous — a value that is kept or measured
//! as one piece), a *count* (only how many there would be — how a
//! buffer gets its exact size) and a *gather list* (the bytes as a
//! [`Stored`] value whose long byte strings are the writer's own
//! [`Bytes`], shared instead of copied). The gather list is what both
//! byte paths of a process move: every network frame from
//! `NodeCtx::send` to the receiving handler — the scatter-gather send of
//! a real NIC, header buffers around payloads the sender already holds
//! — and every stable-store record as a restarted process reads it,
//! the `writev` of a real acceptor log (a record written as a value is
//! encoded into one only then: `fortika_net::StableRecord`). A value
//! with no byte string of [`SHARE_MIN`] bytes is a gather list of one
//! exact-sized buffer. [`WireReader`] reads a buffer or a gather list
//! through the same calls.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

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

/// The shortest byte string a [gathering](WireWriter::gathering) writer
/// shares instead of copying: half a KiB.
///
/// A constant, not a knob: it only has to lie below both payload sizes
/// the benchmark runs. Sharing costs a part — two 24-byte list entries
/// and a reference count, an allocation for the list — which a copy of
/// a few hundred bytes undercuts and one of a KiB does not. Copying the
/// 16 KiB payloads of `modular-sat-16k-n7` (threshold 32 768) is a
/// 164 KB buffer per voter per instance: 3.35 → 4.28 µs and 5.6 →
/// 21.8 KB allocated per delivered message, the higher in 5 of 5 pairs.
///
/// The 1 KiB payloads of the steady workloads were copied at 4 096 and
/// are shared at this value. Measured once the handlers' output lists
/// were kept warm and counters became array slots (seed 7, five
/// alternating pairs, 4 096 against 512, host µs per delivered message,
/// median and quartiles): `modular-steady-1k` 2.73 (2.70–2.92) → 2.51
/// (2.44–2.73), lower in 4 of 5; `mono-steady-1k` 2.05 (1.99–2.31) →
/// 1.84 (1.81–1.98), 5 of 5; peak RSS −14 % on both (a delivered 1 KiB
/// payload is held once per cluster, not once per process). A delivered
/// message asks for 3 allocations more — the part lists — but for 867
/// bytes where it asked for 2 236 on the modular stack (914 for 2 157 on
/// the monolith). `modular-sat-16k-n7`, whose payloads were shared at
/// either value, did not move: 2.28 → 2.30 µs, 1 of 3 pairs lower.
pub const SHARE_MIN: usize = 512;

/// Write half of the codec: appends values to a growable buffer — or, in
/// [counting](WireWriter::counting) mode, only adds up how long they
/// are, or, in [gathering](WireWriter::gathering) mode, keeps the long
/// byte strings by reference.
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
    /// `shared` of the `len` bytes are the `strings` byte strings a
    /// gathering writer would not copy.
    Count {
        len: usize,
        shared: usize,
        strings: usize,
    },
    /// Every copied byte, in order, in one buffer; `cuts` holds the
    /// shared byte strings, each with the offset in `copied` it goes in
    /// at.
    Gather {
        copied: BytesMut,
        cuts: Vec<(usize, Bytes)>,
    },
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
            sink: Sink::Count {
                len: 0,
                shared: 0,
                strings: 0,
            },
        }
    }

    /// A writer that builds a gather list
    /// ([`finish_stored`](Self::finish_stored)): a [`Bytes`] of at least
    /// [`SHARE_MIN`] bytes [put](Self::put) through it is kept as a
    /// reference-count clone, everything else is copied.
    pub fn gathering() -> Self {
        WireWriter::gathering_with_capacity(0, 0)
    }

    /// A gathering writer whose buffer for the copied bytes holds `cap`
    /// and whose list of shared byte strings holds `strings`.
    fn gathering_with_capacity(cap: usize, strings: usize) -> Self {
        WireWriter {
            sink: Sink::Gather {
                copied: BytesMut::with_capacity(cap),
                cuts: Vec::with_capacity(strings),
            },
        }
    }

    fn put_slice(&mut self, bytes: &[u8]) {
        match &mut self.sink {
            Sink::Buffer(buf) | Sink::Gather { copied: buf, .. } => buf.put_slice(bytes),
            Sink::Count { len, .. } => *len += bytes.len(),
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

    /// Appends a byte string the caller holds as [`Bytes`], with a `u32`
    /// length prefix: the same bytes as [`put_bytes`](Self::put_bytes),
    /// but a [gathering](Self::gathering) writer keeps a string of at
    /// least [`SHARE_MIN`] bytes by reference instead of copying it.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is longer than `u32::MAX`.
    pub fn put_shared(&mut self, bytes: &Bytes) {
        let n = bytes.len();
        self.put_u32(u32::try_from(n).expect("byte string too long for wire format"));
        match &mut self.sink {
            Sink::Gather { copied, cuts } if n >= SHARE_MIN => {
                cuts.push((copied.len(), bytes.clone()));
            }
            Sink::Count {
                len,
                shared,
                strings,
            } if n >= SHARE_MIN => {
                *len += n;
                *shared += n;
                *strings += 1;
            }
            _ => self.put_slice(bytes),
        }
    }

    /// Appends a value implementing [`Wire`].
    pub fn put<T: Wire>(&mut self, value: &T) {
        value.encode(self);
    }

    /// Bytes written (or counted) so far.
    pub fn len(&self) -> usize {
        match &self.sink {
            Sink::Buffer(buf) => buf.len(),
            Sink::Count { len, .. } => *len,
            Sink::Gather { copied, cuts } => {
                copied.len() + cuts.iter().map(|(_, part)| part.len()).sum::<usize>()
            }
        }
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Finishes writing and returns the immutable buffer (of a
    /// [gathering](Self::gathering) writer: the parts, flattened).
    ///
    /// # Panics
    ///
    /// Panics on a [counting](Self::counting) writer, which kept no
    /// bytes to return.
    pub fn finish(self) -> Bytes {
        match self.sink {
            Sink::Buffer(buf) => buf.freeze(),
            _ => self.finish_stored().to_bytes(),
        }
    }

    /// Finishes writing and returns the value as a gather list: the
    /// copied bytes cut where a shared byte string goes in, every cut a
    /// view of one buffer, collected into the list with one allocation
    /// of exactly its length. A writer that shared nothing returns its
    /// buffer as the single part.
    ///
    /// # Panics
    ///
    /// Panics on a [counting](Self::counting) writer, which kept no
    /// bytes to return.
    pub fn finish_stored(self) -> Stored {
        let (copied, cuts) = match self.sink {
            Sink::Buffer(buf) => (buf, Vec::new()),
            Sink::Gather { copied, cuts } => (copied, cuts),
            Sink::Count { .. } => panic!("finish() on a counting WireWriter"),
        };
        let copied = copied.freeze();
        let Some(&(end, _)) = cuts.last() else {
            return Stored::from(copied);
        };
        // `put_shared` copies a string's length prefix before it cuts, so
        // a copied run precedes every shared string: the parts alternate,
        // and the bytes copied after the last cut are one more.
        let count = 2 * cuts.len() + usize::from(end < copied.len());
        let mut cuts = cuts.into_iter();
        let mut at = 0;
        let mut pending = None;
        // Mapping a range is an iterator of trusted length, which `Arc`
        // collects in place.
        let parts = (0..count).map(|_| {
            if let Some(shared) = pending.take() {
                return shared;
            }
            match cuts.next() {
                Some((cut, shared)) => {
                    debug_assert!(cut > at, "a shared string without its prefix");
                    pending = Some(shared);
                    let run = copied.slice(at..cut);
                    at = cut;
                    run
                }
                None => copied.slice(at..),
            }
        });
        Stored(Parts::Many(parts.collect()))
    }
}

/// An encoded value as a short gather list: the bytes of each part, in
/// order. What a restarted process reads from its stable store
/// (`fortika_net::StableStore`) and what the simulated network carries
/// (`NodeCtx::send`): a value written through a
/// [gathering](WireWriter::gathering) writer holds its long byte strings
/// as the very [`Bytes`] the writing process already held, so sending a
/// 160 KiB batch copies ~150 bytes of framing. Most values are one part
/// (`From<Bytes>`) and hold no list at all.
///
/// The parts are immutable and fixed when the value is built; nothing is
/// encoded later. A list of several parts is held under one reference
/// count, so a clone — each of a broadcast's n − 1 unicasts, a
/// duplicated frame, a reader — shares it. The writer cuts only where a
/// shared byte string begins or ends, so no field of a well-formed value
/// lies across a cut, and [`WireReader`] reports one that does as an
/// error.
#[derive(Debug, Clone)]
pub struct Stored(Parts);

#[derive(Debug, Clone)]
enum Parts {
    One(Bytes),
    Many(Arc<[Bytes]>),
}

impl From<Bytes> for Stored {
    fn from(part: Bytes) -> Self {
        Stored(Parts::One(part))
    }
}

impl FromIterator<Bytes> for Stored {
    /// The value whose bytes are those of `parts`, in order.
    fn from_iter<I: IntoIterator<Item = Bytes>>(parts: I) -> Self {
        Stored(Parts::Many(parts.into_iter().collect()))
    }
}

impl Stored {
    /// Encodes whatever `write` appends as a gather list, sized by a
    /// counting pass like [`encode_with`] (so `write` runs twice). When
    /// the count finds no byte string long enough to share, the value is
    /// `encode_with`'s one exact-sized buffer, allocated exactly as
    /// there; otherwise the buffer holds exactly the bytes that are
    /// copied.
    pub fn encode_with(write: impl Fn(&mut WireWriter)) -> Stored {
        let mut sizing = WireWriter::counting();
        write(&mut sizing);
        let mut w = match sizing.sink {
            Sink::Count {
                len,
                shared,
                strings,
            } if strings > 0 => WireWriter::gathering_with_capacity(len - shared, strings),
            _ => WireWriter::with_capacity(sizing.len()),
        };
        write(&mut w);
        w.finish_stored()
    }

    /// The parts, in order.
    pub fn parts(&self) -> &[Bytes] {
        match &self.0 {
            Parts::One(part) => std::slice::from_ref(part),
            Parts::Many(parts) => parts,
        }
    }

    /// Length of the value in bytes, over all parts.
    pub fn len(&self) -> usize {
        match &self.0 {
            Parts::One(part) => part.len(),
            Parts::Many(parts) => parts.iter().map(Bytes::len).sum(),
        }
    }

    /// True if the value holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A reader over the whole value, part after part.
    pub fn reader(&self) -> WireReader {
        let (first, rest) = self.clone().into_chain();
        WireReader::chained(first, rest)
    }

    /// The value as an arriving frame is handed over: its first part,
    /// and the parts after it.
    pub(crate) fn into_chain(self) -> (Bytes, Tail) {
        match self.0 {
            Parts::One(part) => (part, Tail::default()),
            Parts::Many(parts) => (
                parts.first().cloned().unwrap_or_default(),
                Tail {
                    parts: Some(parts),
                    next: 1,
                },
            ),
        }
    }

    /// Decodes the value, requiring every part to be fully consumed.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on truncation, bad tags, trailing garbage
    /// or a field that lies across two parts.
    pub fn decode<T: Wire>(&self) -> Result<T, WireError> {
        self.reader().get_only()
    }

    /// The value as one contiguous buffer: the single part itself, or a
    /// copy of all of them (tests, diagnostics).
    pub fn to_bytes(&self) -> Bytes {
        if let [part] = self.parts() {
            return part.clone();
        }
        let mut flat = BytesMut::with_capacity(self.len());
        for part in self.parts() {
            flat.put_slice(part);
        }
        flat.freeze()
    }
}

/// The parts of a gather list from some part on, by reference (none by
/// default).
#[derive(Debug, Clone, Default)]
pub(crate) struct Tail {
    parts: Option<Arc<[Bytes]>>,
    next: usize,
}

impl Tail {
    fn as_slice(&self) -> &[Bytes] {
        let parts = self.parts.as_deref().unwrap_or_default();
        parts.get(self.next..).unwrap_or_default()
    }

    /// Takes the first of the parts (a reference-count clone of it).
    fn pop(&mut self) -> Option<Bytes> {
        let part = self.as_slice().first()?.clone();
        self.next += 1;
        Some(part)
    }
}

/// Read half of the codec: a consuming cursor over a [`Bytes`] buffer —
/// or over the parts of a gather list ([`Stored::reader`], an arriving
/// frame's `NodeCtx::reader`), one after another.
#[derive(Debug)]
pub struct WireReader {
    buf: Bytes,
    /// The parts after `buf` (none when reading a single buffer).
    rest: Tail,
}

impl WireReader {
    /// Wraps a buffer for reading.
    pub fn new(buf: Bytes) -> Self {
        WireReader::chained(buf, Tail::default())
    }

    /// A reader over `first`, then `rest`.
    pub(crate) fn chained(first: Bytes, rest: Tail) -> Self {
        WireReader { buf: first, rest }
    }

    fn need(&mut self, n: usize) -> Result<(), WireError> {
        if self.buf.remaining() < n {
            self.next_part(n)
        } else {
            Ok(())
        }
    }

    /// The current part cannot satisfy a read of `n` bytes: if it is
    /// used up, the read continues in the next one. A part with bytes
    /// left but fewer than `n` is an error even when more parts follow —
    /// the writer never cuts inside a field, so a read is never pieced
    /// together across a cut.
    #[cold]
    fn next_part(&mut self, n: usize) -> Result<(), WireError> {
        while self.buf.is_empty() {
            match self.rest.pop() {
                Some(part) => self.buf = part,
                None => break,
            }
        }
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

    /// Reads a value that must be all there is left to read (strict
    /// decoding of a message body behind a header already read).
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on truncation, bad tags, trailing garbage
    /// or a field that lies across two parts.
    pub fn get_only<T: Wire>(mut self) -> Result<T, WireError> {
        let v = T::decode(&mut self)?;
        self.expect_end()?;
        Ok(v)
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.remaining() + self.rest.as_slice().iter().map(Bytes::len).sum::<usize>()
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
    WireReader::new(buf).get_only()
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
        w.put_shared(self);
    }
    fn decode(r: &mut WireReader) -> Result<Self, WireError> {
        r.get_bytes()
    }
}

/// A half-open range as its two ends (a run of sequence numbers).
impl Wire for Range<u64> {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u64(self.start);
        w.put_u64(self.end);
    }
    fn decode(r: &mut WireReader) -> Result<Self, WireError> {
        Ok(r.get_u64()?..r.get_u64()?)
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
    fn gathering_writer_shares_long_byte_strings_and_copies_short_ones() {
        let short = Bytes::from(vec![1u8; SHARE_MIN - 1]);
        let long = Bytes::from(vec![2u8; SHARE_MIN]);
        let write = |w: &mut WireWriter| {
            w.put_u8(9);
            w.put(&short);
            w.put(&long);
            w.put_u16(7);
        };
        let mut gathering = WireWriter::gathering();
        write(&mut gathering);
        assert_eq!(gathering.len(), 1 + 4 + short.len() + 4 + long.len() + 2);
        let stored = gathering.finish_stored();
        let lens: Vec<usize> = stored.parts().iter().map(Bytes::len).collect();
        assert_eq!(lens, [1 + 4 + short.len() + 4, long.len(), 2]);
        assert_eq!(stored.parts()[1].as_ptr(), long.as_ptr());
        assert_eq!(stored.to_bytes(), encode_with(write));

        // Sized by the count, the copied bytes fill their buffer exactly;
        // with nothing to share the value is `encode_with`'s buffer.
        assert_eq!(Stored::encode_with(write).parts(), stored.parts());
        let plain = Stored::encode_with(|w| w.put(&short));
        assert_eq!(plain.parts(), [encode(&short)]);
    }

    #[test]
    fn reader_walks_the_parts_and_never_reads_across_a_cut() {
        let part = |bytes: &[u8]| Bytes::from(bytes.to_vec());
        let stored: Stored = [
            part(&[]),
            part(&[5]),
            part(&[]),
            part(&[1, 0, 2]),
            part(&[]),
        ]
        .into_iter()
        .collect();
        assert_eq!(stored.len(), 4);
        let mut r = stored.reader();
        assert_eq!(r.remaining(), 4);
        assert_eq!(r.get_u8(), Ok(5));
        assert_eq!(r.get_u16(), Ok(1));
        assert!(r.expect_end().is_err());
        assert_eq!(r.get_u8(), Ok(2));
        assert_eq!(r.expect_end(), Ok(()));
        assert_eq!(r.get_u8(), Err(WireError::UnexpectedEof));

        // Two bytes here and two there are not a `u32`, nor a byte
        // string whose prefix promised four.
        let split: Stored = [part(&[4, 0]), part(&[0, 0])].into_iter().collect();
        assert_eq!(split.decode::<u32>(), Err(WireError::UnexpectedEof));
        assert_eq!(split.to_bytes(), encode(&4u32));
        let split: Stored = [encode(&4u32), part(&[1, 2]), part(&[3, 4])]
            .into_iter()
            .collect();
        assert_eq!(split.decode::<Bytes>(), Err(WireError::UnexpectedEof));

        // A reader shares the list; the value stays whole for the next.
        let mut r = stored.reader();
        assert_eq!(r.get_u8(), Ok(5));
        assert_eq!(r.get_only::<u16>(), Err(WireError::InvalidTag(0xFF)));
        let mut r = stored.reader();
        assert_eq!((r.get_u8(), r.get_u16()), (Ok(5), Ok(1)));
        assert_eq!(r.get_only::<u8>(), Ok(2));
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
        assert_eq!(r.get_only::<Bytes>(), Ok(body));
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
