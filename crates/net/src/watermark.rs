//! Per-origin delivery log with watermark-based garbage collection.
//!
//! Reliable broadcast must suppress duplicate deliveries forever, but a
//! long-running stack cannot keep one record per message. Each origin
//! rbcasts with consecutive sequence numbers, so completed entries are
//! compacted into a contiguous watermark; only the completions above a
//! hole in the sequence live above it, as runs of consecutive numbers.
//! A hole that never fills — a sequence number its origin burned and
//! never sent (a crash-lost admission, the rest of a counter block a
//! restart skipped) — therefore costs one run, however many completions
//! follow it.

use std::collections::BTreeMap;
use std::ops::Range;

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
/// log.complete(2); // out of order: a run above the watermark
/// log.complete(3); // extends that run
/// assert!(!log.is_new(0));
/// assert!(!log.is_new(3));
/// assert!(log.is_new(1));
/// assert_eq!(log.run_count(), 1);
/// log.complete(1); // fills the hole: watermark jumps to 4
/// assert_eq!(log.watermark(), 4);
/// assert_eq!(log.run_count(), 0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct WatermarkSet {
    /// All sequence numbers `< watermark` are completed.
    watermark: u64,
    /// Completed sequence numbers `>= watermark`, as half-open runs:
    /// ascending, non-empty, and neither overlapping nor touching one
    /// another or the watermark (such runs are merged). Flat, not a
    /// tree: a snapshot copies it on every compaction, and completions
    /// arrive (nearly) in order, i.e. at the end of its last run.
    above: Vec<Range<u64>>,
}

impl WatermarkSet {
    /// True if `seq` has not been completed yet.
    pub fn is_new(&self, seq: u64) -> bool {
        if seq < self.watermark {
            return false;
        }
        let at = self.above.partition_point(|run| run.end <= seq);
        self.above.get(at).is_none_or(|run| seq < run.start)
    }

    /// Marks `seq` completed, compacting the watermark when possible.
    pub fn complete(&mut self, seq: u64) {
        if seq == self.watermark && self.above.is_empty() {
            self.watermark += 1; // the in-order case
        } else {
            self.complete_run(seq..seq.saturating_add(1));
        }
    }

    /// Marks every number in `run` completed (a snapshot's runs, or one
    /// number): merges it with the runs it overlaps or touches, then
    /// compacts the watermark. An empty or inverted range is a no-op.
    fn complete_run(&mut self, run: Range<u64>) {
        let start = run.start.max(self.watermark);
        if start >= run.end {
            return;
        }
        // The runs `first..last` overlap or touch `start..run.end`.
        let first = self.above.partition_point(|r| r.end < start);
        let last = self.above.partition_point(|r| r.start <= run.end);
        let merged = if first < last {
            self.above[first].start.min(start)..self.above[last - 1].end.max(run.end)
        } else {
            start..run.end
        };
        self.above.splice(first..last, [merged]);
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
        let below = self.above.partition_point(|run| run.end <= watermark);
        self.above.drain(..below);
        self.compact();
    }

    /// Absorbs the run that continues the watermark, if any.
    fn compact(&mut self) {
        if self
            .above
            .first()
            .is_some_and(|run| run.start <= self.watermark)
        {
            self.watermark = self.above.remove(0).end;
        }
    }

    /// Everything below this is completed.
    pub fn watermark(&self) -> u64 {
        self.watermark
    }

    /// Number of runs of completed numbers retained above the watermark
    /// (one per hole below them).
    pub fn run_count(&self) -> usize {
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
        for run in &log.above {
            set.complete_run(run.clone());
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
// A list of one run is what a single hole leaves, not a mistyped range.
#[allow(clippy::single_range_in_vec_init)]
mod tests {
    use super::*;
    use fortika_sim::DetRng;
    use std::collections::BTreeSet;

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
                log.run_count(),
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
        assert_eq!(log.above, [1..6]);
        log.complete(0);
        assert_eq!(log.watermark(), 6);
        assert_eq!(log.run_count(), 0);
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

    /// A hole that never fills costs one run, whatever follows it.
    #[test]
    fn one_hole_then_ten_thousand_completions_is_one_run() {
        let mut log = WatermarkSet::default();
        log.complete(0);
        for seq in 2..10_002 {
            log.complete(seq);
        }
        assert_eq!((log.watermark(), &log.above[..]), (1, &[2..10_002][..]));
        // And in the snapshot it is one run, not 10 000 numbers.
        let mut set = DeliveredSet::default();
        for seq in (0..10_002).filter(|&s| s != 1) {
            set.mark(MsgId::new(ProcessId(3), seq));
        }
        let logs = set.to_logs();
        assert_eq!(logs[0].above, [2..10_002]);
    }

    /// Random `complete` / `advance_to` sequences against a `BTreeSet`
    /// of completed numbers: the same answers to `is_new`, and runs that
    /// stay sorted, disjoint, non-touching and above the watermark.
    #[test]
    fn matches_a_set_model_under_random_completions_and_advances() {
        for seed in 0..200 {
            let mut rng = DetRng::seed(seed);
            let span = 8 + rng.below(120);
            let mut log = WatermarkSet::default();
            let mut model = BTreeSet::new();
            for _ in 0..rng.below(300) {
                if rng.below(16) == 0 {
                    let to = rng.below(span);
                    log.advance_to(to);
                    model.extend(0..to);
                } else {
                    let seq = rng.below(span);
                    assert_eq!(log.is_new(seq), !model.contains(&seq), "seed {seed}");
                    log.complete(seq);
                    model.insert(seq);
                }
                for seq in 0..span + 2 {
                    assert_eq!(log.is_new(seq), !model.contains(&seq), "seed {seed} {seq}");
                }
                let w = log.watermark();
                assert!(log.is_new(w), "seed {seed}: the watermark is the first gap");
                let mut floor = w;
                for run in &log.above {
                    assert!(
                        floor < run.start && run.start < run.end,
                        "seed {seed}: {log:?}"
                    );
                    floor = run.end;
                }
            }
        }
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
        assert_eq!((logs[1].watermark, &logs[1].above), (0, &vec![2..3]));

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
    fn seeding_merges_overlapping_and_degenerate_runs() {
        let mut set = DeliveredSet::default();
        for seq in [4, 5, 9] {
            set.mark(MsgId::new(ProcessId(2), seq));
        }
        // Runs out of a damaged snapshot: overlapping, touching, empty,
        // inverted and below the watermark.
        #[allow(clippy::reversed_empty_ranges)]
        let log = SenderLog {
            sender: ProcessId(2),
            watermark: 1,
            above: vec![0..1, 3..5, 6..6, 8..7, 6..9, 12..14],
        };
        set.seed(&log);
        assert_eq!(
            set.to_logs()[0],
            SenderLog {
                sender: ProcessId(2),
                watermark: 1,
                above: vec![3..10, 12..14],
            }
        );
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
