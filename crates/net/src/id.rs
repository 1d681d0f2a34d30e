//! Process and message identifiers.

use std::fmt;

use crate::wire::{Wire, WireError, WireReader, WireWriter};

/// Identity of a process in the static group `Π = {p1 … pn}`.
///
/// Stored zero-based: `ProcessId(0)` is the paper's `p1`, the round-1
/// coordinator of every consensus instance.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ProcessId(pub u16);

impl ProcessId {
    /// Zero-based index, convenient for indexing vectors of processes.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Iterator over all processes of a group of size `n`.
    pub fn all(n: usize) -> impl Iterator<Item = ProcessId> {
        (0..n as u16).map(ProcessId)
    }

    /// The deterministic relay set for a message first sent by `origin`
    /// in a group of size `n`: the `⌊(n−1)/2⌋` processes that follow it
    /// in ring order. With the origin they form a majority, so at least
    /// one of them is correct.
    pub fn relay_set(origin: ProcessId, n: usize) -> impl Iterator<Item = ProcessId> {
        let count = (n - 1) / 2;
        (1..=count as u16).map(move |i| ProcessId((origin.0 + i) % n as u16))
    }
}

impl fmt::Debug for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // One-based in output to match the paper's p1..pn.
        write!(f, "p{}", self.0 + 1)
    }
}

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl From<u16> for ProcessId {
    fn from(v: u16) -> Self {
        ProcessId(v)
    }
}

/// Globally unique identity of an application (abcast) message:
/// the sender plus a per-sender sequence number.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct MsgId {
    /// The process that abcast the message.
    pub sender: ProcessId,
    /// Position in the sender's abcast stream (0-based).
    pub seq: u64,
}

impl MsgId {
    /// Builds a message id.
    pub fn new(sender: ProcessId, seq: u64) -> Self {
        MsgId { sender, seq }
    }
}

impl fmt::Display for MsgId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.sender, self.seq)
    }
}

impl Wire for ProcessId {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u16(self.0);
    }
    fn decode(r: &mut WireReader) -> Result<Self, WireError> {
        Ok(ProcessId(r.get_u16()?))
    }
}

impl Wire for MsgId {
    fn encode(&self, w: &mut WireWriter) {
        self.sender.encode(w);
        w.put_u64(self.seq);
    }
    fn decode(r: &mut WireReader) -> Result<Self, WireError> {
        Ok(MsgId {
            sender: ProcessId::decode(r)?,
            seq: r.get_u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_id_display_is_one_based() {
        assert_eq!(format!("{}", ProcessId(0)), "p1");
        assert_eq!(format!("{:?}", ProcessId(6)), "p7");
    }

    #[test]
    fn all_enumerates_group() {
        let ids: Vec<ProcessId> = ProcessId::all(3).collect();
        assert_eq!(ids, vec![ProcessId(0), ProcessId(1), ProcessId(2)]);
    }

    #[test]
    fn relay_sets_are_ring_successors() {
        let relays: Vec<ProcessId> = ProcessId::relay_set(ProcessId(0), 7).collect();
        assert_eq!(relays, vec![ProcessId(1), ProcessId(2), ProcessId(3)]);
        let relays: Vec<ProcessId> = ProcessId::relay_set(ProcessId(6), 7).collect();
        assert_eq!(relays, vec![ProcessId(0), ProcessId(1), ProcessId(2)]);
        let relays: Vec<ProcessId> = ProcessId::relay_set(ProcessId(2), 3).collect();
        assert_eq!(relays, vec![ProcessId(0)]);
        assert_eq!(ProcessId::relay_set(ProcessId(0), 2).count(), 0);
        assert_eq!(ProcessId::relay_set(ProcessId(0), 1).count(), 0);
    }

    #[test]
    fn msg_id_ordering_is_sender_then_seq() {
        let a = MsgId::new(ProcessId(0), 5);
        let b = MsgId::new(ProcessId(1), 0);
        let c = MsgId::new(ProcessId(1), 1);
        assert!(a < b && b < c);
    }

    #[test]
    fn msg_id_display() {
        assert_eq!(format!("{}", MsgId::new(ProcessId(2), 17)), "p3#17");
    }
}
