//! The event model and the bounded ring buffer that records it.

use std::cell::OnceCell;
use std::collections::VecDeque;
use std::ops::Deref;

use crate::decompose::TimelineIndex;

/// Tracing knobs, carried by the cluster configuration.
///
/// Off by default: the default config records nothing and costs one
/// `Option` branch per record point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceConfig {
    /// Master switch. `false` (the default) means no buffer is ever
    /// allocated and no event is ever constructed.
    pub enabled: bool,
    /// Ring capacity in events; once full, the oldest events are
    /// evicted (and counted, see [`Trace::dropped`]).
    pub capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            enabled: false,
            capacity: 1 << 16,
        }
    }
}

impl TraceConfig {
    /// Tracing enabled at the default capacity (65 536 events).
    pub fn on() -> Self {
        TraceConfig {
            enabled: true,
            ..TraceConfig::default()
        }
    }

    /// Tracing enabled with an explicit ring capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "trace capacity must be positive");
        TraceConfig {
            enabled: true,
            capacity,
        }
    }
}

/// Payload of one trace event.
///
/// Process ids are raw `u16`s and labels are `&'static str` so this
/// crate can sit below the network crate in the dependency graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceData {
    /// A message left a process: NIC serialization, (possibly degraded)
    /// link queueing, propagation. Recorded at the sender's
    /// handler-completion instant.
    Send {
        /// Sending process.
        src: u16,
        /// Destination process.
        dst: u16,
        /// Message kind tag (e.g. `"consensus.ack"`).
        kind: &'static str,
        /// Wire bytes (payload + per-message overhead).
        bytes: u64,
        /// Sender incarnation at transmission time.
        inc: u32,
        /// Instant NIC (and, if degraded, link) serialization ends.
        tx_end_ns: u64,
        /// Scheduled arrival instant at `dst`.
        arrival_ns: u64,
        /// Extra serialization/queueing delay imposed by a degraded
        /// link (zero on healthy links).
        queue_ns: u64,
    },
    /// A message was destroyed by a fault or a fence instead of being
    /// handled.
    Drop {
        /// Sending process.
        src: u16,
        /// Destination process.
        dst: u16,
        /// Message kind tag (empty when the kind is unknown at the
        /// drop site).
        kind: &'static str,
        /// Wire bytes.
        bytes: u64,
        /// Why: `"partition"`, `"loss"`, `"stale_incarnation"` or
        /// `"crashed_sender"`.
        reason: &'static str,
    },
    /// A message arrived and was handed to the destination stack.
    Deliver {
        /// Destination process.
        dst: u16,
        /// Sending process.
        src: u16,
        /// Message kind tag.
        kind: &'static str,
        /// Wire bytes.
        bytes: u64,
    },
    /// One handler execution on a process's serial CPU: the busy
    /// interval is `[start_ns, start_ns + cpu_ns]`; `durability_ns` of
    /// it was stable-storage / snapshot work.
    Handler {
        /// The process whose CPU ran the handler.
        pid: u16,
        /// Process incarnation the handler ran under.
        inc: u32,
        /// Instant the handler started on the CPU.
        start_ns: u64,
        /// Total CPU time charged by the handler.
        cpu_ns: u64,
        /// Portion of `cpu_ns` that was durability work.
        durability_ns: u64,
    },
    /// A protocol lifecycle marker for one instance: `"proposed"`,
    /// `"voted"`, `"decided"`, `"applied"`, `"round_change"`,
    /// `"pull"`, `"snapshot_offer"`, `"snapshot_install"`, …
    Span {
        /// The process emitting the marker.
        pid: u16,
        /// Which layer emitted it (`"consensus"`, `"abcast"`,
        /// `"mono"`, `"rbcast"`, `"fd"`).
        stack: &'static str,
        /// Protocol instance (consensus slot, broadcast id; for `"fd"`,
        /// the process suspected or restored).
        instance: u64,
        /// Lifecycle phase label.
        phase: &'static str,
        /// Phase-specific detail (round number, batch size, snapshot
        /// instance); zero when unused.
        detail: u64,
    },
}

impl TraceData {
    /// The process this event is *about* — the one whose timeline it
    /// belongs to (sender for sends/drops, destination for delivers).
    pub fn pid(&self) -> u16 {
        match *self {
            TraceData::Send { src, .. } | TraceData::Drop { src, .. } => src,
            TraceData::Deliver { dst, .. } => dst,
            TraceData::Handler { pid, .. } | TraceData::Span { pid, .. } => pid,
        }
    }

    /// True if the event mentions `pid` in any role (source or
    /// destination) — used to anchor violation dump windows.
    pub fn involves(&self, pid: u16) -> bool {
        match *self {
            TraceData::Send { src, dst, .. }
            | TraceData::Drop { src, dst, .. }
            | TraceData::Deliver { dst, src, .. } => src == pid || dst == pid,
            TraceData::Handler { pid: p, .. } | TraceData::Span { pid: p, .. } => p == pid,
        }
    }
}

/// One recorded event: virtual-time instant, record-order sequence
/// number, payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Monotone sequence number assigned at record time (total order,
    /// breaks virtual-time ties deterministically).
    pub seq: u64,
    /// Virtual-time instant in nanoseconds.
    pub at_ns: u64,
    /// What happened.
    pub data: TraceData,
}

/// The live recording ring: bounded, eviction-counting.
#[derive(Debug)]
pub struct TraceBuffer {
    capacity: usize,
    events: VecDeque<TraceEvent>,
    next_seq: u64,
    dropped: u64,
}

impl TraceBuffer {
    /// An empty ring of the given capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "trace capacity must be positive");
        TraceBuffer {
            capacity,
            events: VecDeque::new(),
            next_seq: 0,
            dropped: 0,
        }
    }

    /// Records one event at virtual instant `at_ns`, evicting the
    /// oldest event if the ring is full.
    pub fn push(&mut self, at_ns: u64, data: TraceData) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(TraceEvent {
            seq: self.next_seq,
            at_ns,
            data,
        });
        self.next_seq += 1;
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if nothing has been recorded (or everything evicted).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Freezes the ring into an immutable [`Trace`].
    pub fn finish(self) -> Trace {
        Trace {
            events: TraceEvents::new(self.events.into(), self.dropped),
            dropped: self.dropped,
            capacity: self.capacity,
        }
    }
}

/// The frozen events of a [`Trace`]: reads as a `[TraceEvent]` slice in
/// record order, and owns the per-process timeline index that
/// [`decompose_window`](crate::decompose_window) answers from. The
/// index is built on first use and never invalidated, which is why the
/// events cannot be mutated once frozen.
#[derive(Clone)]
pub struct TraceEvents {
    events: Vec<TraceEvent>,
    /// Where retained history begins: the oldest retained event's
    /// instant if the ring evicted anything, else 0.
    retained_from_ns: u64,
    index: OnceCell<TimelineIndex>,
}

impl TraceEvents {
    /// `dropped` is how many events were evicted (or filtered out)
    /// ahead of these: any at all means windows opening before the
    /// first retained event see a truncated timeline.
    fn new(events: Vec<TraceEvent>, dropped: u64) -> Self {
        let retained_from_ns = match events.first() {
            Some(oldest) if dropped > 0 => oldest.at_ns,
            _ => 0,
        };
        TraceEvents {
            events,
            retained_from_ns,
            index: OnceCell::new(),
        }
    }

    /// The instant before which events may have been evicted.
    pub(crate) fn retained_from_ns(&self) -> u64 {
        self.retained_from_ns
    }

    /// The per-process timeline index, built on first call.
    pub(crate) fn index(&self) -> &TimelineIndex {
        self.index
            .get_or_init(|| TimelineIndex::build(&self.events))
    }
}

impl Deref for TraceEvents {
    type Target = [TraceEvent];

    fn deref(&self) -> &[TraceEvent] {
        &self.events
    }
}

impl<'a> IntoIterator for &'a TraceEvents {
    type Item = &'a TraceEvent;
    type IntoIter = std::slice::Iter<'a, TraceEvent>;

    fn into_iter(self) -> Self::IntoIter {
        self.events.iter()
    }
}

/// A complete history: nothing was evicted ahead of `events`.
impl From<Vec<TraceEvent>> for TraceEvents {
    fn from(events: Vec<TraceEvent>) -> Self {
        TraceEvents::new(events, 0)
    }
}

/// Prints as the event slice; the index is derived data.
impl std::fmt::Debug for TraceEvents {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.events.fmt(f)
    }
}

/// A frozen trace: the retained event window plus eviction accounting.
#[derive(Debug, Clone)]
pub struct Trace {
    /// Retained events, in record order (seq ascending).
    pub events: TraceEvents,
    /// Events evicted from the ring before the end of the run — the
    /// trace is the *last* `events.len()` of
    /// `events.len() + dropped` total.
    pub dropped: u64,
    /// The ring capacity the trace was recorded with.
    pub capacity: usize,
}

impl Trace {
    /// The sub-trace of events involving process `pid`, restricted to
    /// the last `window` such events — the bounded context used for
    /// violation dumps.
    pub fn around_pid(&self, pid: u16, window: usize) -> Trace {
        let involved: Vec<TraceEvent> = self
            .events
            .iter()
            .filter(|e| e.data.involves(pid))
            .cloned()
            .collect();
        let skip = involved.len().saturating_sub(window);
        let events: Vec<TraceEvent> = involved.into_iter().skip(skip).collect();
        let dropped = self.dropped + (self.events.len() - events.len()) as u64;
        Trace {
            events: TraceEvents::new(events, dropped),
            dropped,
            capacity: self.capacity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_off() {
        let cfg = TraceConfig::default();
        assert!(!cfg.enabled);
        assert!(TraceConfig::on().enabled);
        assert_eq!(TraceConfig::with_capacity(8).capacity, 8);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_rejected() {
        let _ = TraceConfig::with_capacity(0);
    }

    #[test]
    fn ring_evicts_oldest_and_counts() {
        let mut b = TraceBuffer::new(2);
        for i in 0..5u64 {
            b.push(
                i * 10,
                TraceData::Span {
                    pid: 0,
                    stack: "t",
                    instance: i,
                    phase: "p",
                    detail: 0,
                },
            );
        }
        assert_eq!(b.len(), 2);
        let t = b.finish();
        assert_eq!(t.dropped, 3);
        assert_eq!(t.events[0].seq, 3);
        assert_eq!(t.events[1].seq, 4);
        assert_eq!(t.events[1].at_ns, 40);
    }

    #[test]
    fn involves_covers_both_endpoints() {
        let d = TraceData::Send {
            src: 1,
            dst: 2,
            kind: "k",
            bytes: 0,
            inc: 0,
            tx_end_ns: 0,
            arrival_ns: 0,
            queue_ns: 0,
        };
        assert!(d.involves(1) && d.involves(2) && !d.involves(3));
        assert_eq!(d.pid(), 1);
    }

    #[test]
    fn around_pid_is_bounded() {
        let mut b = TraceBuffer::new(100);
        for i in 0..10u64 {
            b.push(
                i,
                TraceData::Span {
                    pid: (i % 2) as u16,
                    stack: "t",
                    instance: i,
                    phase: "p",
                    detail: 0,
                },
            );
        }
        let t = b.finish();
        let w = t.around_pid(0, 3);
        assert_eq!(w.events.len(), 3);
        assert!(w.events.iter().all(|e| e.data.pid() == 0));
        // 10 total − 3 kept = 7 accounted as outside the window.
        assert_eq!(w.dropped, 7);
    }
}
