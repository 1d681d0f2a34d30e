//! Trace exports: JSON Lines and Chrome trace-event format.
//!
//! Both are string producers (no filesystem access here) and both are
//! deterministic: same trace, same bytes.

use std::collections::BTreeMap;
use std::fmt::Write;

use crate::event::{Trace, TraceData, TraceEvent};

/// Bytes reserved per event so that an export is written into one
/// allocation instead of a multi-megabyte `String` grown by doubling.
/// Traced runs of both stacks render 118–125 (JSONL) and 127–140
/// (Chrome, async pairs included) bytes per event; these leave a third
/// on top. Only an estimate: an export that outgrows it reallocates as
/// any `String` does, the bytes are the same.
const JSONL_BYTES_PER_EVENT: usize = 160;
const CHROME_BYTES_PER_EVENT: usize = 184;

impl Trace {
    /// Renders the trace as JSON Lines: one object per event, in record
    /// order, followed by a trailing `meta` line with eviction
    /// accounting. Deterministic — same trace, same bytes.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity((self.events.len() + 1) * JSONL_BYTES_PER_EVENT);
        for e in &self.events {
            jsonl_line(&mut out, e);
        }
        let _ = writeln!(
            out,
            "{{\"meta\":true,\"events\":{},\"dropped\":{},\"capacity\":{}}}",
            self.events.len(),
            self.dropped,
            self.capacity
        );
        out
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
        let mut out = String::with_capacity((self.events.len() + 1) * CHROME_BYTES_PER_EVENT);
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
        for e in &self.events {
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
        for e in &self.events {
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

#[cfg(test)]
mod tests {
    use crate::event::{TraceBuffer, TraceData};

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
}
