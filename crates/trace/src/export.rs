//! Trace exports: JSON Lines and Chrome trace-event format.
//!
//! Both are string producers (no filesystem access here) and both are
//! deterministic: same trace, same bytes. Both render through the one
//! [`JsonWriter`]: fixed text, integers and escaped tags appended to a
//! single buffer sized up front. Nothing on the per-event path goes
//! through `core::fmt` — an event is 120–140 bytes with six to ten
//! fields, and a `write!` of that shape costs more than recording the
//! event did. Tags (`kind`, `stack`, `phase`, `reason`) go through
//! [`JsonWriter::str`], so the output is JSON whatever they contain.

use std::collections::BTreeMap;

use crate::event::{Trace, TraceData, TraceEvent};
use crate::json::JsonWriter;

/// Bytes reserved per event so that an export is written into one
/// allocation instead of a multi-megabyte buffer grown by doubling.
/// Traced runs of both stacks render 118–125 (JSONL) and 127–140
/// (Chrome, async pairs included) bytes per event; these leave a third
/// on top. Only an estimate: an export that outgrows it reallocates as
/// any `Vec` does, the bytes are the same.
const JSONL_BYTES_PER_EVENT: usize = 160;
const CHROME_BYTES_PER_EVENT: usize = 184;

impl Trace {
    /// Renders the trace as JSON Lines: one object per event, in record
    /// order, followed by a trailing `meta` line with eviction
    /// accounting. Deterministic — same trace, same bytes.
    pub fn to_jsonl(&self) -> String {
        let mut w = JsonWriter::with_capacity((self.events.len() + 1) * JSONL_BYTES_PER_EVENT);
        for e in &self.events {
            jsonl_line(&mut w, e);
        }
        w.num("{\"meta\":true,\"events\":", self.events.len() as u64);
        w.num(",\"dropped\":", self.dropped);
        w.num(",\"capacity\":", self.capacity as u64);
        w.raw("}\n");
        w.finish()
    }

    /// Renders the trace in Chrome trace-event format (a JSON object
    /// with a `traceEvents` array), loadable in Perfetto or
    /// `chrome://tracing`.
    ///
    /// * Handler executions become complete (`"X"`) slices on the
    ///   process's CPU track.
    /// * Lifecycle spans become instant events, plus one async
    ///   begin/end pair per `(stack, instance)` stretching from its
    ///   first to its last recorded phase.
    /// * Wire events (send / deliver / drop) become instant events on
    ///   the process they concern.
    pub fn to_chrome_json(&self) -> String {
        let mut w = JsonWriter::with_capacity((self.events.len() + 1) * CHROME_BYTES_PER_EVENT);
        w.raw("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        // Every element is preceded by its separator: "\n" for the
        // first, ",\n" for the rest.
        let mut sep = "\n";
        for (stack, groups) in &async_groups(&self.events) {
            for (&instance, group) in groups {
                for (ph, ts) in [("b", group.first_ns), ("e", group.last_ns)] {
                    w.raw(std::mem::replace(&mut sep, ",\n"));
                    w.raw("{\"name\":\"");
                    w.str(stack);
                    w.num(" #", instance);
                    w.raw("\",\"cat\":\"");
                    w.str(stack);
                    w.raw("\",\"ph\":\"");
                    w.raw(ph);
                    w.num("\",\"id\":", instance);
                    w.num(",\"pid\":", group.pid);
                    w.raw(",\"tid\":0,\"ts\":");
                    w.us(ts);
                    w.raw("}");
                }
            }
        }
        for e in &self.events {
            w.raw(std::mem::replace(&mut sep, ",\n"));
            chrome_event(&mut w, e);
        }
        w.raw("\n]}\n");
        w.finish()
    }
}

/// One async begin/end pair of the Chrome export: the first and last
/// span event of a `(stack, instance)`, on the process that recorded
/// the first.
struct AsyncGroup {
    first_ns: u64,
    last_ns: u64,
    pid: u16,
}

/// The async groups of `events`, in emission order: stacks by name,
/// instances ascending within a stack.
///
/// A run has two or three distinct stack names: each span event finds
/// its stack among those few and only its instance goes through a tree,
/// instead of a string comparison per level of one tree keyed by
/// `(name, instance)`.
fn async_groups(events: &[TraceEvent]) -> Vec<(&'static str, BTreeMap<u64, AsyncGroup>)> {
    let mut stacks: Vec<(&'static str, BTreeMap<u64, AsyncGroup>)> = Vec::new();
    for e in events {
        if let TraceData::Span {
            pid,
            stack,
            instance,
            ..
        } = e.data
        {
            let at = stacks
                .iter()
                .position(|&(known, _)| known == stack)
                .unwrap_or_else(|| {
                    stacks.push((stack, BTreeMap::new()));
                    stacks.len() - 1
                });
            stacks[at]
                .1
                .entry(instance)
                .and_modify(|group| group.last_ns = e.at_ns)
                .or_insert(AsyncGroup {
                    first_ns: e.at_ns,
                    last_ns: e.at_ns,
                    pid,
                });
        }
    }
    stacks.sort_unstable_by_key(|&(stack, _)| stack);
    stacks
}

fn chrome_event(w: &mut JsonWriter, e: &TraceEvent) {
    match e.data {
        TraceData::Handler {
            pid,
            inc,
            start_ns,
            cpu_ns,
            durability_ns,
        } => {
            w.num(
                "{\"name\":\"handler\",\"cat\":\"cpu\",\"ph\":\"X\",\"pid\":",
                pid,
            );
            w.raw(",\"tid\":0,\"ts\":");
            w.us(start_ns);
            w.raw(",\"dur\":");
            w.us(cpu_ns);
            w.num(",\"args\":{\"inc\":", inc);
            w.num(",\"durability_ns\":", durability_ns);
            w.raw("}}");
        }
        TraceData::Span {
            pid,
            stack,
            instance,
            phase,
            detail,
        } => {
            w.raw("{\"name\":\"");
            w.str(stack);
            w.num(" #", instance);
            w.raw(": ");
            w.str(phase);
            w.raw("\",\"cat\":\"");
            w.str(stack);
            w.num("\",\"ph\":\"i\",\"s\":\"t\",\"pid\":", pid);
            w.raw(",\"tid\":0,\"ts\":");
            w.us(e.at_ns);
            w.num(",\"args\":{\"detail\":", detail);
            w.raw("}}");
        }
        TraceData::Send {
            src,
            dst,
            kind,
            bytes,
            queue_ns,
            ..
        } => {
            w.raw("{\"name\":\"send ");
            w.str(kind);
            w.num("\",\"cat\":\"wire\",\"ph\":\"i\",\"s\":\"t\",\"pid\":", src);
            w.raw(",\"tid\":1,\"ts\":");
            w.us(e.at_ns);
            w.num(",\"args\":{\"dst\":", dst);
            w.num(",\"bytes\":", bytes);
            w.num(",\"queue_ns\":", queue_ns);
            w.raw("}}");
        }
        TraceData::Deliver {
            dst,
            src,
            kind,
            bytes,
        } => {
            w.raw("{\"name\":\"recv ");
            w.str(kind);
            w.num("\",\"cat\":\"wire\",\"ph\":\"i\",\"s\":\"t\",\"pid\":", dst);
            w.raw(",\"tid\":1,\"ts\":");
            w.us(e.at_ns);
            w.num(",\"args\":{\"src\":", src);
            w.num(",\"bytes\":", bytes);
            w.raw("}}");
        }
        TraceData::Drop {
            src,
            dst,
            kind,
            bytes,
            reason,
        } => {
            w.raw("{\"name\":\"drop ");
            w.str(kind);
            w.raw(" (");
            w.str(reason);
            w.num(
                ")\",\"cat\":\"fault\",\"ph\":\"i\",\"s\":\"t\",\"pid\":",
                src,
            );
            w.raw(",\"tid\":1,\"ts\":");
            w.us(e.at_ns);
            w.num(",\"args\":{\"dst\":", dst);
            w.num(",\"bytes\":", bytes);
            w.raw("}}");
        }
    }
}

fn jsonl_line(w: &mut JsonWriter, e: &TraceEvent) {
    w.num("{\"seq\":", e.seq);
    w.num(",\"at_ns\":", e.at_ns);
    match e.data {
        TraceData::Send {
            src,
            dst,
            kind,
            bytes,
            inc,
            tx_end_ns,
            arrival_ns,
            queue_ns,
        } => {
            w.num(",\"ev\":\"send\",\"src\":", src);
            w.num(",\"dst\":", dst);
            w.raw(",\"kind\":\"");
            w.str(kind);
            w.num("\",\"bytes\":", bytes);
            w.num(",\"inc\":", inc);
            w.num(",\"tx_end_ns\":", tx_end_ns);
            w.num(",\"arrival_ns\":", arrival_ns);
            w.num(",\"queue_ns\":", queue_ns);
            w.raw("}\n");
        }
        TraceData::Drop {
            src,
            dst,
            kind,
            bytes,
            reason,
        } => {
            w.num(",\"ev\":\"drop\",\"src\":", src);
            w.num(",\"dst\":", dst);
            w.raw(",\"kind\":\"");
            w.str(kind);
            w.num("\",\"bytes\":", bytes);
            w.raw(",\"reason\":\"");
            w.str(reason);
            w.raw("\"}\n");
        }
        TraceData::Deliver {
            dst,
            src,
            kind,
            bytes,
        } => {
            w.num(",\"ev\":\"deliver\",\"dst\":", dst);
            w.num(",\"src\":", src);
            w.raw(",\"kind\":\"");
            w.str(kind);
            w.num("\",\"bytes\":", bytes);
            w.raw("}\n");
        }
        TraceData::Handler {
            pid,
            inc,
            start_ns,
            cpu_ns,
            durability_ns,
        } => {
            w.num(",\"ev\":\"handler\",\"pid\":", pid);
            w.num(",\"inc\":", inc);
            w.num(",\"start_ns\":", start_ns);
            w.num(",\"cpu_ns\":", cpu_ns);
            w.num(",\"durability_ns\":", durability_ns);
            w.raw("}\n");
        }
        TraceData::Span {
            pid,
            stack,
            instance,
            phase,
            detail,
        } => {
            w.num(",\"ev\":\"span\",\"pid\":", pid);
            w.raw(",\"stack\":\"");
            w.str(stack);
            w.num("\",\"instance\":", instance);
            w.raw(",\"phase\":\"");
            w.str(phase);
            w.num("\",\"detail\":", detail);
            w.raw("}\n");
        }
    }
}

/// The exports as they were rendered through `core::fmt`, kept as the
/// definition the writer-based ones are compared with: same bytes on
/// every trace whose tags need no escaping (these splice tags in as
/// they are).
#[cfg(test)]
mod reference {
    use std::collections::BTreeMap;
    use std::fmt::Write;

    use super::{CHROME_BYTES_PER_EVENT, JSONL_BYTES_PER_EVENT};
    use crate::event::{Trace, TraceData, TraceEvent};

    pub(crate) fn to_jsonl(t: &Trace) -> String {
        let mut out = String::with_capacity((t.events.len() + 1) * JSONL_BYTES_PER_EVENT);
        for e in &t.events {
            jsonl_line(&mut out, e);
        }
        let _ = writeln!(
            out,
            "{{\"meta\":true,\"events\":{},\"dropped\":{},\"capacity\":{}}}",
            t.events.len(),
            t.dropped,
            t.capacity
        );
        out
    }

    pub(crate) fn to_chrome_json(t: &Trace) -> String {
        let mut out = String::with_capacity((t.events.len() + 1) * CHROME_BYTES_PER_EVENT);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        let mut first = true;
        let mut sep = |out: &mut String| {
            if !std::mem::take(&mut first) {
                out.push(',');
            }
            out.push('\n');
        };
        // Async begin/end per (stack, instance): first and last span
        // event of the group. BTreeMap keeps emission order
        // deterministic.
        let mut groups: BTreeMap<(&'static str, u64), (u64, u64, u16)> = BTreeMap::new();
        for e in &t.events {
            if let TraceData::Span {
                pid,
                stack,
                instance,
                ..
            } = e.data
            {
                groups
                    .entry((stack, instance))
                    .and_modify(|(_, last, _)| *last = e.at_ns)
                    .or_insert((e.at_ns, e.at_ns, pid));
            }
        }
        for (&(stack, instance), &(first_ns, last_ns, pid)) in &groups {
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"name\":\"{stack} #{instance}\",\"cat\":\"{stack}\",\"ph\":\"b\",\
                 \"id\":{instance},\"pid\":{pid},\"tid\":0,\"ts\":{}}}",
                Us(first_ns)
            );
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"name\":\"{stack} #{instance}\",\"cat\":\"{stack}\",\"ph\":\"e\",\
                 \"id\":{instance},\"pid\":{pid},\"tid\":0,\"ts\":{}}}",
                Us(last_ns)
            );
        }
        for e in &t.events {
            match e.data {
                TraceData::Handler {
                    pid,
                    inc,
                    start_ns,
                    cpu_ns,
                    durability_ns,
                } => {
                    sep(&mut out);
                    let _ = write!(
                        out,
                        "{{\"name\":\"handler\",\"cat\":\"cpu\",\"ph\":\"X\",\"pid\":{pid},\
                         \"tid\":0,\"ts\":{},\"dur\":{},\"args\":{{\"inc\":{inc},\
                         \"durability_ns\":{durability_ns}}}}}",
                        Us(start_ns),
                        Us(cpu_ns)
                    );
                }
                TraceData::Span {
                    pid,
                    stack,
                    instance,
                    phase,
                    detail,
                } => {
                    sep(&mut out);
                    let _ = write!(
                        out,
                        "{{\"name\":\"{stack} #{instance}: {phase}\",\"cat\":\"{stack}\",\
                         \"ph\":\"i\",\"s\":\"t\",\"pid\":{pid},\"tid\":0,\"ts\":{},\
                         \"args\":{{\"detail\":{detail}}}}}",
                        Us(e.at_ns)
                    );
                }
                TraceData::Send {
                    src,
                    dst,
                    kind,
                    bytes,
                    queue_ns,
                    ..
                } => {
                    sep(&mut out);
                    let _ = write!(
                        out,
                        "{{\"name\":\"send {kind}\",\"cat\":\"wire\",\"ph\":\"i\",\"s\":\"t\",\
                         \"pid\":{src},\"tid\":1,\"ts\":{},\"args\":{{\"dst\":{dst},\
                         \"bytes\":{bytes},\"queue_ns\":{queue_ns}}}}}",
                        Us(e.at_ns)
                    );
                }
                TraceData::Deliver {
                    dst,
                    src,
                    kind,
                    bytes,
                } => {
                    sep(&mut out);
                    let _ = write!(
                        out,
                        "{{\"name\":\"recv {kind}\",\"cat\":\"wire\",\"ph\":\"i\",\"s\":\"t\",\
                         \"pid\":{dst},\"tid\":1,\"ts\":{},\"args\":{{\"src\":{src},\
                         \"bytes\":{bytes}}}}}",
                        Us(e.at_ns)
                    );
                }
                TraceData::Drop {
                    src,
                    dst,
                    kind,
                    bytes,
                    reason,
                } => {
                    sep(&mut out);
                    let _ = write!(
                        out,
                        "{{\"name\":\"drop {kind} ({reason})\",\"cat\":\"fault\",\"ph\":\"i\",\
                         \"s\":\"t\",\"pid\":{src},\"tid\":1,\"ts\":{},\"args\":{{\"dst\":{dst},\
                         \"bytes\":{bytes}}}}}",
                        Us(e.at_ns)
                    );
                }
            }
        }
        out.push_str("\n]}\n");
        out
    }

    /// Nanoseconds rendered as Chrome's microsecond `ts` with fixed 3-digit
    /// sub-microsecond precision (deterministic, no float formatting).
    struct Us(u64);

    impl std::fmt::Display for Us {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "{}.{:03}", self.0 / 1_000, self.0 % 1_000)
        }
    }

    fn jsonl_line(out: &mut String, e: &TraceEvent) {
        let seq = e.seq;
        let at = e.at_ns;
        let _ = match e.data {
            TraceData::Send {
                src,
                dst,
                kind,
                bytes,
                inc,
                tx_end_ns,
                arrival_ns,
                queue_ns,
            } => writeln!(
                out,
                "{{\"seq\":{seq},\"at_ns\":{at},\"ev\":\"send\",\"src\":{src},\"dst\":{dst},\
                 \"kind\":\"{kind}\",\"bytes\":{bytes},\"inc\":{inc},\"tx_end_ns\":{tx_end_ns},\
                 \"arrival_ns\":{arrival_ns},\"queue_ns\":{queue_ns}}}"
            ),
            TraceData::Drop {
                src,
                dst,
                kind,
                bytes,
                reason,
            } => writeln!(
                out,
                "{{\"seq\":{seq},\"at_ns\":{at},\"ev\":\"drop\",\"src\":{src},\"dst\":{dst},\
                 \"kind\":\"{kind}\",\"bytes\":{bytes},\"reason\":\"{reason}\"}}"
            ),
            TraceData::Deliver {
                dst,
                src,
                kind,
                bytes,
            } => writeln!(
                out,
                "{{\"seq\":{seq},\"at_ns\":{at},\"ev\":\"deliver\",\"dst\":{dst},\"src\":{src},\
                 \"kind\":\"{kind}\",\"bytes\":{bytes}}}"
            ),
            TraceData::Handler {
                pid,
                inc,
                start_ns,
                cpu_ns,
                durability_ns,
            } => writeln!(
                out,
                "{{\"seq\":{seq},\"at_ns\":{at},\"ev\":\"handler\",\"pid\":{pid},\"inc\":{inc},\
                 \"start_ns\":{start_ns},\"cpu_ns\":{cpu_ns},\"durability_ns\":{durability_ns}}}"
            ),
            TraceData::Span {
                pid,
                stack,
                instance,
                phase,
                detail,
            } => writeln!(
                out,
                "{{\"seq\":{seq},\"at_ns\":{at},\"ev\":\"span\",\"pid\":{pid},\"stack\":\"{stack}\",\
                 \"instance\":{instance},\"phase\":\"{phase}\",\"detail\":{detail}}}"
            ),
        };
    }
}

#[cfg(test)]
mod tests {
    use super::reference;
    use crate::event::{Trace, TraceBuffer, TraceData, TraceEvent};
    use crate::test_rng::Rng;

    fn sample() -> crate::Trace {
        let mut b = TraceBuffer::new(16);
        b.push(
            1_000,
            TraceData::Handler {
                pid: 0,
                inc: 0,
                start_ns: 500,
                cpu_ns: 400,
                durability_ns: 100,
            },
        );
        b.push(
            1_000,
            TraceData::Send {
                src: 0,
                dst: 1,
                kind: "consensus.ack",
                bytes: 74,
                inc: 0,
                tx_end_ns: 1_100,
                arrival_ns: 1_400,
                queue_ns: 0,
            },
        );
        b.push(
            1_400,
            TraceData::Deliver {
                dst: 1,
                src: 0,
                kind: "consensus.ack",
                bytes: 74,
            },
        );
        b.push(
            1_500,
            TraceData::Span {
                pid: 1,
                stack: "consensus",
                instance: 3,
                phase: "decided",
                detail: 0,
            },
        );
        b.push(
            1_600,
            TraceData::Drop {
                src: 1,
                dst: 2,
                kind: "abcast.diffuse",
                bytes: 90,
                reason: "partition",
            },
        );
        b.finish()
    }

    #[test]
    fn jsonl_is_one_object_per_line_plus_meta() {
        let t = sample();
        let s = t.to_jsonl();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), t.events.len() + 1);
        for l in &lines {
            assert!(l.starts_with('{') && l.ends_with('}'), "bad line: {l}");
        }
        assert!(lines[0].contains("\"ev\":\"handler\""));
        assert!(lines[1].contains("\"kind\":\"consensus.ack\""));
        assert!(lines.last().unwrap().contains("\"meta\":true"));
        assert!(lines.last().unwrap().contains("\"dropped\":0"));
    }

    /// The exact bytes of both exports, every event class once.
    #[test]
    fn exports_match_golden_bytes() {
        let t = sample();
        assert_eq!(
            t.to_jsonl(),
            concat!(
                "{\"seq\":0,\"at_ns\":1000,\"ev\":\"handler\",\"pid\":0,\"inc\":0,",
                "\"start_ns\":500,\"cpu_ns\":400,\"durability_ns\":100}\n",
                "{\"seq\":1,\"at_ns\":1000,\"ev\":\"send\",\"src\":0,\"dst\":1,",
                "\"kind\":\"consensus.ack\",\"bytes\":74,\"inc\":0,\"tx_end_ns\":1100,",
                "\"arrival_ns\":1400,\"queue_ns\":0}\n",
                "{\"seq\":2,\"at_ns\":1400,\"ev\":\"deliver\",\"dst\":1,\"src\":0,",
                "\"kind\":\"consensus.ack\",\"bytes\":74}\n",
                "{\"seq\":3,\"at_ns\":1500,\"ev\":\"span\",\"pid\":1,\"stack\":\"consensus\",",
                "\"instance\":3,\"phase\":\"decided\",\"detail\":0}\n",
                "{\"seq\":4,\"at_ns\":1600,\"ev\":\"drop\",\"src\":1,\"dst\":2,",
                "\"kind\":\"abcast.diffuse\",\"bytes\":90,\"reason\":\"partition\"}\n",
                "{\"meta\":true,\"events\":5,\"dropped\":0,\"capacity\":16}\n",
            )
        );
        assert_eq!(
            t.to_chrome_json(),
            concat!(
                "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n",
                "{\"name\":\"consensus #3\",\"cat\":\"consensus\",\"ph\":\"b\",\"id\":3,",
                "\"pid\":1,\"tid\":0,\"ts\":1.500},\n",
                "{\"name\":\"consensus #3\",\"cat\":\"consensus\",\"ph\":\"e\",\"id\":3,",
                "\"pid\":1,\"tid\":0,\"ts\":1.500},\n",
                "{\"name\":\"handler\",\"cat\":\"cpu\",\"ph\":\"X\",\"pid\":0,\"tid\":0,",
                "\"ts\":0.500,\"dur\":0.400,\"args\":{\"inc\":0,\"durability_ns\":100}},\n",
                "{\"name\":\"send consensus.ack\",\"cat\":\"wire\",\"ph\":\"i\",\"s\":\"t\",",
                "\"pid\":0,\"tid\":1,\"ts\":1.000,\"args\":{\"dst\":1,\"bytes\":74,",
                "\"queue_ns\":0}},\n",
                "{\"name\":\"recv consensus.ack\",\"cat\":\"wire\",\"ph\":\"i\",\"s\":\"t\",",
                "\"pid\":1,\"tid\":1,\"ts\":1.400,\"args\":{\"src\":0,\"bytes\":74}},\n",
                "{\"name\":\"consensus #3: decided\",\"cat\":\"consensus\",\"ph\":\"i\",",
                "\"s\":\"t\",\"pid\":1,\"tid\":0,\"ts\":1.500,\"args\":{\"detail\":0}},\n",
                "{\"name\":\"drop abcast.diffuse (partition)\",\"cat\":\"fault\",\"ph\":\"i\",",
                "\"s\":\"t\",\"pid\":1,\"tid\":1,\"ts\":1.600,\"args\":{\"dst\":2,\"bytes\":90}}",
                "\n]}\n",
            )
        );
    }

    #[test]
    fn jsonl_is_deterministic() {
        assert_eq!(sample().to_jsonl(), sample().to_jsonl());
    }

    #[test]
    fn chrome_json_has_expected_events() {
        let s = sample().to_chrome_json();
        assert!(s.starts_with('{') && s.ends_with("]}\n"));
        // One async pair for the (consensus, 3) span group.
        assert!(s.contains("\"ph\":\"b\""));
        assert!(s.contains("\"ph\":\"e\""));
        // Handler slice with microsecond timestamps: 500 ns = 0.500 µs.
        assert!(s.contains("\"ph\":\"X\""));
        assert!(s.contains("\"ts\":0.500"));
        assert!(s.contains("drop abcast.diffuse (partition)"));
    }

    /// Both exports of `t`, new against reference.
    fn assert_same_as_reference(t: &Trace) {
        assert_eq!(t.to_jsonl(), reference::to_jsonl(t));
        assert_eq!(t.to_chrome_json(), reference::to_chrome_json(t));
    }

    /// One event of each class with `v` in every numeric field (cut to
    /// the field's width) and `at` as its instant.
    fn one_of_each(seq: u64, at: u64, v: u64) -> [TraceEvent; 5] {
        let pid = v.min(u64::from(u16::MAX)) as u16;
        let inc = v.min(u64::from(u32::MAX)) as u32;
        [
            TraceData::Handler {
                pid,
                inc,
                start_ns: v,
                cpu_ns: v,
                durability_ns: v,
            },
            TraceData::Send {
                src: pid,
                dst: pid,
                kind: "consensus.ack",
                bytes: v,
                inc,
                tx_end_ns: v,
                arrival_ns: v,
                queue_ns: v,
            },
            TraceData::Deliver {
                dst: pid,
                src: pid,
                kind: "",
                bytes: v,
            },
            TraceData::Span {
                pid,
                stack: "mono",
                instance: v,
                phase: "round_change",
                detail: v,
            },
            TraceData::Drop {
                src: pid,
                dst: pid,
                kind: "abcast.diffuse",
                bytes: v,
                reason: "stale_incarnation",
            },
        ]
        .map(|data| TraceEvent {
            seq,
            at_ns: at,
            data,
        })
    }

    #[test]
    fn sample_renders_as_the_reference_does() {
        assert_same_as_reference(&sample());
    }

    /// Every digit count, both sides of every power of ten, the widest
    /// pids and incarnations, and every shape of the sub-microsecond
    /// part, in every numeric field of every event class.
    #[test]
    fn edge_values_render_as_the_reference_does() {
        let mut values = vec![0, 9, 10, 99, 100, 999, 1_000, u64::MAX];
        values.extend((1..=19).flat_map(|k| [10u64.pow(k) - 1, 10u64.pow(k)]));
        values.extend([u64::from(u16::MAX), u64::from(u32::MAX)]);
        for frac in [0, 5, 50, 999] {
            values.extend([
                frac,
                1_000 + frac,
                7_000_000 + frac,
                (u64::MAX / 1_000 - 1) * 1_000 + frac,
            ]);
        }
        // Each value as the sequence number and instant of events
        // carrying each of the others.
        let mut events = Vec::new();
        for &at in &values {
            for &v in &values {
                events.extend(one_of_each(at, at, v));
            }
        }
        let t = Trace {
            events: events.into(),
            dropped: u64::MAX,
            capacity: usize::MAX,
        };
        assert_same_as_reference(&t);
    }

    /// 10 000 events with every field drawn at a random magnitude, a
    /// few stacks and instances meeting in shared async groups.
    #[test]
    fn random_events_render_as_the_reference_does() {
        const KINDS: [&str; 4] = ["", "consensus.ack", "abcast.diffuse", "mono.decision"];
        const STACKS: [&str; 4] = ["rbcast", "consensus", "abcast", "mono"];
        const PHASES: [&str; 4] = ["proposed", "voted", "decided", "applied"];
        const REASONS: [&str; 3] = ["partition", "loss", "crashed_sender"];
        let mut rng = Rng(0x7e57_0e21);
        // A value of any length: 64 random bits cut to a random width.
        fn any(rng: &mut Rng) -> u64 {
            rng.next() >> rng.below(64)
        }
        fn pick(rng: &mut Rng, from: &[&'static str]) -> &'static str {
            from[rng.below(from.len() as u64) as usize]
        }
        let events: Vec<TraceEvent> = (0..10_000)
            .map(|_| {
                let (src, dst) = (any(&mut rng) as u16, any(&mut rng) as u16);
                let data = match rng.below(5) {
                    0 => TraceData::Send {
                        src,
                        dst,
                        kind: pick(&mut rng, &KINDS),
                        bytes: any(&mut rng),
                        inc: any(&mut rng) as u32,
                        tx_end_ns: any(&mut rng),
                        arrival_ns: any(&mut rng),
                        queue_ns: any(&mut rng),
                    },
                    1 => TraceData::Drop {
                        src,
                        dst,
                        kind: pick(&mut rng, &KINDS),
                        bytes: any(&mut rng),
                        reason: pick(&mut rng, &REASONS),
                    },
                    2 => TraceData::Deliver {
                        dst,
                        src,
                        kind: pick(&mut rng, &KINDS),
                        bytes: any(&mut rng),
                    },
                    3 => TraceData::Handler {
                        pid: src,
                        inc: any(&mut rng) as u32,
                        start_ns: any(&mut rng),
                        cpu_ns: any(&mut rng),
                        durability_ns: any(&mut rng),
                    },
                    _ => TraceData::Span {
                        pid: src,
                        stack: pick(&mut rng, &STACKS),
                        // Few enough instances that groups are shared.
                        instance: any(&mut rng) % 97,
                        phase: pick(&mut rng, &PHASES),
                        detail: any(&mut rng),
                    },
                };
                TraceEvent {
                    seq: any(&mut rng),
                    at_ns: any(&mut rng),
                    data,
                }
            })
            .collect();
        let t = Trace {
            events: events.into(),
            dropped: any(&mut rng),
            capacity: 1 << 16,
        };
        assert_same_as_reference(&t);
    }

    /// No events, and events with evictions ahead of them: the meta
    /// line and the empty array keep their exact shape.
    #[test]
    fn empty_and_overflowed_traces_keep_their_shape() {
        let empty = TraceBuffer::new(8).finish();
        assert_eq!(
            empty.to_jsonl(),
            "{\"meta\":true,\"events\":0,\"dropped\":0,\"capacity\":8}\n"
        );
        assert_eq!(
            empty.to_chrome_json(),
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n]}\n"
        );
        assert_same_as_reference(&empty);

        let mut b = TraceBuffer::new(2);
        for at in [1, 2, 3, 4, 5] {
            b.push(
                at,
                TraceData::Deliver {
                    dst: 1,
                    src: 0,
                    kind: "fd.heartbeat",
                    bytes: 40,
                },
            );
        }
        let tail = b.finish();
        assert!(tail
            .to_jsonl()
            .ends_with("{\"meta\":true,\"events\":2,\"dropped\":3,\"capacity\":2}\n"));
        assert_same_as_reference(&tail);
    }
}
