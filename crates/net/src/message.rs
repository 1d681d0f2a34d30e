//! Application-level messages.

use std::sync::Arc;

use bytes::Bytes;

use crate::id::MsgId;
use crate::wire::{Wire, WireError, WireReader, WireWriter};

/// An application message submitted through `abcast`.
///
/// Carries its globally unique [`MsgId`] and an opaque payload. Protocol
/// layers treat the payload as a black box; only its size matters to the
/// performance model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppMsg {
    /// Unique identity (sender + per-sender sequence number).
    pub id: MsgId,
    /// Opaque application payload.
    pub payload: Bytes,
}

impl AppMsg {
    /// Builds a message.
    pub fn new(id: MsgId, payload: Bytes) -> Self {
        AppMsg { id, payload }
    }

    /// Payload size in bytes (the paper's message size `l`).
    pub fn payload_len(&self) -> usize {
        self.payload.len()
    }
}

impl Wire for AppMsg {
    fn encode(&self, w: &mut WireWriter) {
        self.id.encode(w);
        self.payload.encode(w);
    }
    fn decode(r: &mut WireReader) -> Result<Self, WireError> {
        Ok(AppMsg {
            id: MsgId::decode(r)?,
            payload: Bytes::decode(r)?,
        })
    }
}

/// A batch of application messages ordered by one consensus instance.
///
/// Within a batch, delivery order is deterministic: ascending [`MsgId`]
/// (sender, then sequence number). [`Batch::normalize`] establishes that
/// order and drops duplicates, so that equal batches have equal encodings.
///
/// The message vector is shared behind an [`Arc`]: a decided batch is
/// held simultaneously by the decision cache, the in-order apply
/// buffer, per-instance protocol state and the snapshot fold, so
/// `clone()` must be a reference-count bump, not a deep copy of every
/// payload.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Batch {
    msgs: Arc<Vec<AppMsg>>,
}

impl Batch {
    /// An empty batch.
    pub fn empty() -> Self {
        Batch::default()
    }

    /// Builds a batch from messages, sorting by id and deduplicating.
    pub fn normalize(mut msgs: Vec<AppMsg>) -> Self {
        msgs.sort_by_key(|m| m.id);
        msgs.dedup_by_key(|m| m.id);
        Batch {
            msgs: Arc::new(msgs),
        }
    }

    /// Messages in delivery order.
    pub fn msgs(&self) -> &[AppMsg] {
        &self.msgs
    }

    /// Number of messages (the analytical model's `M`).
    pub fn len(&self) -> usize {
        self.msgs.len()
    }

    /// True if the batch orders no messages.
    pub fn is_empty(&self) -> bool {
        self.msgs.is_empty()
    }

    /// Sum of payload sizes.
    pub fn payload_bytes(&self) -> usize {
        self.msgs.iter().map(AppMsg::payload_len).sum()
    }
}

impl Wire for Batch {
    fn encode(&self, w: &mut WireWriter) {
        self.msgs.encode(w);
    }
    fn decode(r: &mut WireReader) -> Result<Self, WireError> {
        // Re-normalize on decode: a batch's invariants hold even against a
        // peer that serialized messages out of order.
        Ok(Batch::normalize(Vec::<AppMsg>::decode(r)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::ProcessId;
    use crate::wire::{decode, encode};

    fn msg(sender: u16, seq: u64, size: usize) -> AppMsg {
        AppMsg::new(
            MsgId::new(ProcessId(sender), seq),
            Bytes::from(vec![0u8; size]),
        )
    }

    #[test]
    fn normalize_sorts_and_dedups() {
        let b = Batch::normalize(vec![msg(1, 0, 1), msg(0, 2, 1), msg(1, 0, 1), msg(0, 1, 1)]);
        let ids: Vec<String> = b.msgs().iter().map(|m| m.id.to_string()).collect();
        assert_eq!(ids, ["p1#1", "p1#2", "p2#0"]);
        assert_eq!(b.len(), 3);
    }

    #[test]
    fn batch_round_trip() {
        let b = Batch::normalize(vec![msg(0, 0, 100), msg(1, 0, 200), msg(2, 5, 0)]);
        let bytes = encode(&b);
        assert_eq!(bytes.len(), b.encoded_len());
        let back: Batch = decode(bytes).unwrap();
        assert_eq!(back, b);
    }

    #[test]
    fn payload_accounting() {
        let b = Batch::normalize(vec![msg(0, 0, 100), msg(1, 0, 200)]);
        assert_eq!(b.payload_bytes(), 300);
        assert!(Batch::empty().is_empty());
        assert_eq!(Batch::empty().payload_bytes(), 0);
    }

    #[test]
    fn decode_renormalizes() {
        // Hand-encode a batch with out-of-order messages.
        let raw = vec![msg(1, 0, 1), msg(0, 0, 1)];
        let bytes = encode(&raw);
        let b: Batch = decode(bytes).unwrap();
        assert_eq!(b.msgs()[0].id.sender, ProcessId(0));
    }
}
