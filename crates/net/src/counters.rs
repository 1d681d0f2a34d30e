//! Traffic and protocol counters.
//!
//! Counters are the bridge between the simulation and the paper's
//! analytical model (§5.2): the integration tests take steady-state
//! counter deltas and check them against the closed-form message and byte
//! counts, and the `analysis_*` benches print both side by side.

use std::collections::BTreeMap;
use std::fmt;

use crate::metrics::{Entry, Kind, Metric, ENTRIES};

/// Message/byte tally for one message kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KindCounter {
    /// Number of messages sent.
    pub msgs: u64,
    /// Total wire bytes sent (payload + per-message overhead).
    pub bytes: u64,
}

/// Cluster-wide counters: a tally per send [`Kind`] each message is sent
/// under (e.g. `"abcast.diffuse"`, `"consensus.ack"`) plus free-form
/// protocol counters ([`Metric`]s, e.g. `"consensus.decided"`).
///
/// Writes go by handle into dense arrays (see [`crate::metrics`]); an
/// entry exists from its first write on — a bump by 0 included — and
/// every by-name view (`event`, `kind`, the iterators, `delta_since`,
/// `Display`) lists exactly the entries that exist, in lexicographic
/// name order.
#[derive(Clone)]
pub struct Counters {
    /// Per counter: its value, and its entry once written.
    events: Box<[(u64, Option<&'static Entry>)]>,
    /// Per send kind: its tally, and its entry once written.
    sends: Box<[(KindCounter, Option<&'static Entry>)]>,
}

impl Default for Counters {
    fn default() -> Self {
        Counters {
            events: vec![(0, None); ENTRIES].into(),
            sends: vec![(KindCounter::default(), None); ENTRIES].into(),
        }
    }
}

/// The written entries of one array, in name order.
fn written<T: Copy>(
    entries: &[(T, Option<&'static Entry>)],
) -> impl Iterator<Item = (&'static str, T)> {
    let mut out: Vec<(&'static str, T)> = entries
        .iter()
        .filter_map(|&(v, e)| e.map(|e| (e.name(), v)))
        .collect();
    out.sort_unstable_by_key(|&(name, _)| name);
    out.into_iter()
}

/// The value of the written entry called `name`, if any.
fn by_name<T: Copy>(entries: &[(T, Option<&'static Entry>)], name: &str) -> Option<T> {
    entries
        .iter()
        .find(|(_, e)| e.is_some_and(|e| e.name() == name))
        .map(|&(v, _)| v)
}

impl Counters {
    /// Empty counters.
    pub fn new() -> Self {
        Counters::default()
    }

    /// Records a sent message of `bytes` wire bytes under `kind`.
    #[inline]
    pub fn record_send(&mut self, kind: Kind, bytes: u64) {
        let entry = kind.entry();
        let (c, written) = &mut self.sends[entry.at()];
        c.msgs += 1;
        c.bytes += bytes;
        *written = Some(entry);
    }

    /// Increments a free-form protocol counter.
    #[inline]
    pub fn bump(&mut self, metric: Metric, by: u64) {
        let entry = metric.entry();
        let (v, written) = &mut self.events[entry.at()];
        *v += by;
        *written = Some(entry);
    }

    /// Value of a free-form counter (zero if never written).
    pub fn count(&self, metric: Metric) -> u64 {
        self.events[metric.entry().at()].0
    }

    /// Tally for one send kind, by name (zero if never seen).
    pub fn kind(&self, kind: &str) -> KindCounter {
        by_name(&self.sends, kind).unwrap_or_default()
    }

    /// Value of a free-form counter, by name (zero if never seen).
    pub fn event(&self, name: &str) -> u64 {
        by_name(&self.events, name).unwrap_or_default()
    }

    /// Sum of messages across all kinds, excluding kinds whose name
    /// matches the `exclude` predicate.
    pub fn total_msgs_excluding(&self, exclude: impl Fn(&str) -> bool) -> u64 {
        self.iter_sends()
            .filter(|(k, _)| !exclude(k))
            .map(|(_, c)| c.msgs)
            .sum()
    }

    /// Sum of messages across all kinds.
    pub fn total_msgs(&self) -> u64 {
        self.sends.iter().map(|(c, _)| c.msgs).sum()
    }

    /// Sum of wire bytes across all kinds.
    pub fn total_bytes(&self) -> u64 {
        self.sends.iter().map(|(c, _)| c.bytes).sum()
    }

    /// Iterates over `(kind, tally)` pairs in lexicographic kind order.
    pub fn iter_sends(&self) -> impl Iterator<Item = (&'static str, KindCounter)> + '_ {
        written(&self.sends)
    }

    /// Iterates over free-form counters in lexicographic order.
    pub fn iter_events(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        written(&self.events)
    }

    /// Difference `self − earlier`, counter by counter (saturating).
    ///
    /// Used to isolate a measurement window: snapshot at window start,
    /// subtract from the totals at window end.
    pub fn delta_since(&self, earlier: &Counters) -> Counters {
        let mut out = self.clone();
        for ((c, _), (e, _)) in out.sends.iter_mut().zip(earlier.sends.iter()) {
            c.msgs = c.msgs.saturating_sub(e.msgs);
            c.bytes = c.bytes.saturating_sub(e.bytes);
        }
        for ((v, _), (e, _)) in out.events.iter_mut().zip(earlier.events.iter()) {
            *v = v.saturating_sub(*e);
        }
        out
    }
}

/// The written entries, as two name-ordered maps.
impl fmt::Debug for Counters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sends: BTreeMap<_, _> = self.iter_sends().collect();
        let events: BTreeMap<_, _> = self.iter_events().collect();
        f.debug_struct("Counters")
            .field("sends", &sends)
            .field("events", &events)
            .finish()
    }
}

impl fmt::Display for Counters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "sends:")?;
        for (k, c) in self.iter_sends() {
            writeln!(f, "  {k:<24} {:>10} msgs {:>14} bytes", c.msgs, c.bytes)?;
        }
        writeln!(f, "events:")?;
        for (k, v) in self.iter_events() {
            writeln!(f, "  {k:<24} {v:>10}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    crate::metric_table! {
        mod t in TEST {
            events {
                INSTANCES = "instances",
                N = "n",
                E = "e",
                ZETA = "z.last",
                ALPHA = "a.first",
                NEVER = "never.written",
            }
            kinds {
                AX = "a.x",
                BY = "b.y",
                HEARTBEAT = "fd.heartbeat",
                ACK = "consensus.ack",
                DIFFUSE = "abcast.diffuse",
                X = "x",
                Y = "y",
                EMPTY = "ctl.empty",
                K = "k",
                UNSENT = "never.sent",
            }
        }
    }

    #[test]
    fn record_and_query() {
        let mut c = Counters::new();
        c.record_send(t::AX, 100);
        c.record_send(t::AX, 50);
        c.record_send(t::BY, 10);
        assert_eq!(
            c.kind("a.x"),
            KindCounter {
                msgs: 2,
                bytes: 150
            }
        );
        assert_eq!(c.kind("missing"), KindCounter::default());
        assert_eq!(c.total_msgs(), 3);
        assert_eq!(c.total_bytes(), 160);
    }

    #[test]
    fn bump_events() {
        let mut c = Counters::new();
        c.bump(t::INSTANCES, 1);
        c.bump(t::INSTANCES, 2);
        assert_eq!(c.event("instances"), 3);
        assert_eq!(c.count(t::INSTANCES), 3);
        assert_eq!(c.event("other"), 0);
        assert_eq!(c.count(t::N), 0);
    }

    #[test]
    fn exclusion_filter() {
        let mut c = Counters::new();
        c.record_send(t::HEARTBEAT, 10);
        c.record_send(t::ACK, 20);
        assert_eq!(c.total_msgs_excluding(|k| k.starts_with("fd.")), 1);
    }

    #[test]
    fn delta_isolates_window() {
        let mut c = Counters::new();
        c.record_send(t::X, 5);
        c.bump(t::N, 1);
        let snap = c.clone();
        c.record_send(t::X, 7);
        c.record_send(t::Y, 1);
        c.bump(t::N, 4);
        let d = c.delta_since(&snap);
        assert_eq!(d.kind("x"), KindCounter { msgs: 1, bytes: 7 });
        assert_eq!(d.kind("y"), KindCounter { msgs: 1, bytes: 1 });
        assert_eq!(d.event("n"), 4);
    }

    #[test]
    fn zero_byte_sends_still_count_messages() {
        // Control messages can serialize to zero payload bytes; the
        // message tally must still move (the paper counts messages and
        // bytes as separate axes).
        let mut c = Counters::new();
        c.record_send(t::EMPTY, 0);
        c.record_send(t::EMPTY, 0);
        assert_eq!(c.kind("ctl.empty"), KindCounter { msgs: 2, bytes: 0 });
        assert_eq!(c.total_msgs(), 2);
        assert_eq!(c.total_bytes(), 0);
    }

    #[test]
    fn unknown_kind_lookups_are_zero_everywhere() {
        let c = Counters::new();
        assert_eq!(c.kind("never.seen"), KindCounter::default());
        assert_eq!(c.event("never.seen"), 0);
        assert_eq!(c.total_msgs_excluding(|_| false), 0);
        assert_eq!(c.iter_sends().count(), 0);
        assert_eq!(c.iter_events().count(), 0);
        // Delta against a counter that has keys we lack: saturates to
        // zero instead of underflowing.
        let mut later = Counters::new();
        later.record_send(t::X, 1);
        later.bump(t::N, 1);
        let d = c.delta_since(&later);
        assert_eq!(d.kind("x"), KindCounter::default());
        assert_eq!(d.event("n"), 0);
    }

    #[test]
    fn heartbeat_exclusion_drops_msgs_but_not_other_kinds() {
        let mut c = Counters::new();
        c.record_send(t::HEARTBEAT, 32);
        c.record_send(t::HEARTBEAT, 32);
        c.record_send(t::ACK, 20);
        c.record_send(t::DIFFUSE, 512);
        // The runner's convention: everything under "fd." is liveness
        // background noise, not protocol cost.
        assert_eq!(c.total_msgs_excluding(|k| k.starts_with("fd.")), 2);
        // The unfiltered totals still see the heartbeats.
        assert_eq!(c.total_msgs(), 4);
        // Excluding nothing matches total_msgs; excluding everything is 0.
        assert_eq!(c.total_msgs_excluding(|_| false), c.total_msgs());
        assert_eq!(c.total_msgs_excluding(|_| true), 0);
    }

    #[test]
    fn display_lists_counters() {
        let mut c = Counters::new();
        c.record_send(t::K, 9);
        c.bump(t::E, 2);
        let s = c.to_string();
        assert!(s.contains('k') && s.contains('e'));
    }

    /// Every by-name view after a fixed script of writes: entries in name
    /// order, present iff written (a bump by 0 included), deltas
    /// saturating.
    #[test]
    fn exports_keep_the_name_keyed_semantics() {
        let mut c = Counters::new();
        // Declaration order is not name order.
        c.bump(t::ZETA, 3);
        c.bump(t::ALPHA, 0);
        c.record_send(t::Y, 4);
        c.record_send(t::AX, 6);
        c.record_send(t::Y, 5);

        // Name order; a bump by 0 creates its entry; never-written
        // handles are absent from every listing.
        let events: Vec<_> = c.iter_events().collect();
        assert_eq!(events, [("a.first", 0), ("z.last", 3)]);
        let sends: Vec<_> = c.iter_sends().collect();
        assert_eq!(
            sends,
            [
                ("a.x", KindCounter { msgs: 1, bytes: 6 }),
                ("y", KindCounter { msgs: 2, bytes: 9 }),
            ]
        );
        let send = |k: &str, m: u64, b: u64| format!("  {k:<24} {m:>10} msgs {b:>14} bytes\n");
        let event = |k: &str, v: u64| format!("  {k:<24} {v:>10}\n");
        assert_eq!(
            c.to_string(),
            [
                "sends:\n",
                &send("a.x", 1, 6),
                &send("y", 2, 9),
                "events:\n"
            ]
            .concat()
                + &event("a.first", 0)
                + &event("z.last", 3)
        );
        assert_eq!(
            format!("{c:?}"),
            "Counters { sends: {\"a.x\": KindCounter { msgs: 1, bytes: 6 }, \"y\": \
             KindCounter { msgs: 2, bytes: 9 }}, events: {\"a.first\": 0, \"z.last\": 3} }"
        );
        assert_eq!(c.total_msgs_excluding(|k| k == "y"), 1);

        // A delta lists what the later side lists, saturating below zero
        // — an entry the earlier side has and this one lacks stays absent.
        let mut earlier = Counters::new();
        earlier.bump(t::ZETA, 5);
        earlier.bump(t::NEVER, 1);
        earlier.record_send(t::Y, 100);
        earlier.record_send(t::UNSENT, 1);
        let d = c.delta_since(&earlier);
        let events: Vec<_> = d.iter_events().collect();
        assert_eq!(events, [("a.first", 0), ("z.last", 0)]);
        let sends: Vec<_> = d.iter_sends().collect();
        assert_eq!(
            sends,
            [
                ("a.x", KindCounter { msgs: 1, bytes: 6 }),
                ("y", KindCounter { msgs: 1, bytes: 0 }),
            ]
        );
        assert!(!d.to_string().contains("never"));
    }
}
