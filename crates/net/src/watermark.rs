//! Per-origin delivery log with watermark-based garbage collection.
//!
//! Reliable broadcast must suppress duplicate deliveries forever, but a
//! long-running stack cannot keep one record per message. Each origin
//! rbcasts with consecutive sequence numbers, so completed entries are
//! compacted into a contiguous watermark; only a (normally tiny) set of
//! out-of-order completions lives above it.

use std::collections::BTreeMap;

use crate::id::{MsgId, ProcessId};
use crate::snapshot::SenderLog;

/// Compacted set of completed sequence numbers for one origin.
///
/// # Example
///
/// ```
/// use fortika_net::WatermarkSet;
///
/// let mut log = WatermarkSet::default();
/// assert!(log.is_new(0));
/// log.complete(0);
/// log.complete(2); // out of order: kept in the sparse set
/// assert!(!log.is_new(0));
/// assert!(!log.is_new(2));
/// assert!(log.is_new(1));
/// log.complete(1); // fills the gap: watermark jumps to 3
/// assert_eq!(log.watermark(), 3);
/// assert_eq!(log.sparse_len(), 0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct WatermarkSet {
    /// All sequence numbers `< watermark` are completed.
    watermark: u64,
    /// Completed sequence numbers `>= watermark`, ascending (sparse).
    /// Flat, not a tree: a snapshot copies it on every compaction, and
    /// completions arrive (nearly) in order, i.e. at its end.
    above: Vec<u64>,
}

impl WatermarkSet {
    /// True if `seq` has not been completed yet.
    pub fn is_new(&self, seq: u64) -> bool {
        seq >= self.watermark && self.above.binary_search(&seq).is_err()
    }

    /// Marks `seq` completed, compacting the watermark when possible.
    pub fn complete(&mut self, seq: u64) {
        if seq < self.watermark {
            return;
        }
        if let Err(at) = self.above.binary_search(&seq) {
            self.above.insert(at, seq);
        }
        self.compact();
    }

    /// Marks everything below `watermark` completed in one step
    /// (crash-recovery preload from a persisted watermark). No-op if
    /// the log is already past it.
    pub fn advance_to(&mut self, watermark: u64) {
        if watermark <= self.watermark {
            return;
        }
        self.watermark = watermark;
        let below = self.above.partition_point(|&s| s < watermark);
        self.above.drain(..below);
        self.compact();
    }

    /// Absorbs the sparse entries that continue the watermark.
    fn compact(&mut self) {
        let run = (self.above.iter().zip(self.watermark..))
            .take_while(|(s, w)| *s == w)
            .count();
        self.above.drain(..run);
        self.watermark += run as u64;
    }

    /// Everything below this is completed.
    pub fn watermark(&self) -> u64 {
        self.watermark
    }

    /// Number of completed entries retained above the watermark.
    pub fn sparse_len(&self) -> usize {
        self.above.len()
    }
}

/// The delivered message ids, one [`WatermarkSet`] per sender: the
/// duplicate suppression of every delivery path (both stacks' and the
/// snapshot fold's), and what a snapshot carries of it.
#[derive(Debug, Default)]
pub struct DeliveredSet {
    per_sender: BTreeMap<ProcessId, WatermarkSet>,
}

impl DeliveredSet {
    /// True if `id` has not been delivered yet.
    pub fn is_new(&self, id: MsgId) -> bool {
        self.per_sender
            .get(&id.sender)
            .is_none_or(|log| log.is_new(id.seq))
    }

    /// Marks `id` delivered.
    pub fn mark(&mut self, id: MsgId) {
        self.per_sender
            .entry(id.sender)
            .or_default()
            .complete(id.seq);
    }

    /// Marks everything a snapshot's `log` lists delivered: compacted
    /// messages must never re-deliver.
    pub fn seed(&mut self, log: &SenderLog) {
        let set = self.per_sender.entry(log.sender).or_default();
        set.advance_to(log.watermark);
        for &seq in &log.above {
            set.complete(seq);
        }
    }

    /// The set in its snapshot form, by sender.
    pub fn to_logs(&self) -> Vec<SenderLog> {
        self.per_sender
            .iter()
            .map(|(&sender, log)| SenderLog {
                sender,
                watermark: log.watermark(),
                above: log.above.clone(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_log_accepts_everything() {
        let log = WatermarkSet::default();
        assert!(log.is_new(0));
        assert!(log.is_new(u64::MAX));
        assert_eq!(log.watermark(), 0);
    }

    #[test]
    fn in_order_completion_keeps_log_empty() {
        let mut log = WatermarkSet::default();
        for seq in 0..10_000 {
            assert!(log.is_new(seq));
            log.complete(seq);
            assert_eq!(
                log.sparse_len(),
                0,
                "watermark should absorb in-order completions"
            );
        }
        assert_eq!(log.watermark(), 10_000);
    }

    #[test]
    fn out_of_order_completion_compacts_on_gap_fill() {
        let mut log = WatermarkSet::default();
        for seq in [5u64, 3, 1, 4, 2] {
            log.complete(seq);
        }
        assert_eq!(log.watermark(), 0);
        assert_eq!(log.sparse_len(), 5);
        log.complete(0);
        assert_eq!(log.watermark(), 6);
        assert_eq!(log.sparse_len(), 0);
    }

    #[test]
    fn advance_to_jumps_and_compacts() {
        let mut log = WatermarkSet::default();
        log.complete(7);
        log.complete(5);
        log.advance_to(5);
        assert_eq!(log.watermark(), 6, "sparse 5 absorbed");
        assert!(!log.is_new(7));
        assert!(log.is_new(6));
        log.advance_to(3); // backwards: no-op
        assert_eq!(log.watermark(), 6);
    }

    #[test]
    fn delivered_set_tracks_per_sender_and_round_trips_through_logs() {
        let mut set = DeliveredSet::default();
        let a0 = MsgId::new(ProcessId(0), 0);
        let b2 = MsgId::new(ProcessId(1), 2);
        assert!(set.is_new(a0));
        set.mark(a0);
        assert!(!set.is_new(a0));
        assert!(set.is_new(b2), "senders are independent");
        set.mark(b2);
        let logs = set.to_logs();
        assert_eq!(logs[0].watermark, 1);
        assert_eq!((logs[1].watermark, &logs[1].above), (0, &vec![2]));

        // Seeding merges into what is already there and compacts.
        let mut other = DeliveredSet::default();
        other.mark(MsgId::new(ProcessId(1), 0));
        other.mark(MsgId::new(ProcessId(1), 1));
        for log in &logs {
            other.seed(log);
        }
        assert!(!other.is_new(a0) && !other.is_new(b2));
        assert_eq!(other.to_logs()[1].watermark, 3);
    }

    #[test]
    fn duplicate_completion_is_idempotent() {
        let mut log = WatermarkSet::default();
        log.complete(0);
        log.complete(0);
        assert_eq!(log.watermark(), 1);
        assert!(!log.is_new(0));
    }
}
