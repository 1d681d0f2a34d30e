//! Host-time spans recorded around the calls into each layer.
//!
//! Spans live in the benchmark's own files: the program under test is
//! not instrumented, so a layer is what can be seen from outside it — a
//! `Node` callback, a `Harness` callback, a library call. Spans are kept
//! in memory and written out (Chrome trace-event format) when the
//! traced repetition ends. A span's *self time* is its duration minus
//! the part of that interval its children cover.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use crate::json::Json;

/// What a span measures. `Node*` spans carry the process id; a stack's
/// layer name (`framework` or `mono`) is chosen by the workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum SpanKind {
    /// One whole repetition (the root).
    Run,
    /// `Cluster::run_until`.
    ClusterRunUntil,
    /// `Node::on_start` of one process.
    NodeOnStart,
    /// `Node::on_message` of one process.
    NodeOnMessage,
    /// `Node::on_timer` of one process.
    NodeOnTimer,
    /// `Node::on_request` of one process.
    NodeOnRequest,
    /// `Harness::on_delivery`.
    HarnessOnDelivery,
    /// `Harness::on_tick`.
    HarnessOnTick,
    /// `Harness::on_app_ready`.
    HarnessOnAppReady,
    /// `Harness::on_restart`.
    HarnessOnRestart,
    /// `Harness::on_snapshot`.
    HarnessOnSnapshot,
    /// Time inside `WorkloadDriver`.
    Driver,
    /// Time inside `DeliveryOracle`.
    Oracle,
    /// `Cluster::take_trace`.
    TraceTake,
    /// `decompose_window` over every latency sample.
    TraceDecompose,
    /// `Trace::to_jsonl` + `Trace::to_chrome_json`.
    TraceExport,
}

impl SpanKind {
    /// Every kind, in declaration order.
    pub const ALL: [SpanKind; 16] = [
        SpanKind::Run,
        SpanKind::ClusterRunUntil,
        SpanKind::NodeOnStart,
        SpanKind::NodeOnMessage,
        SpanKind::NodeOnTimer,
        SpanKind::NodeOnRequest,
        SpanKind::HarnessOnDelivery,
        SpanKind::HarnessOnTick,
        SpanKind::HarnessOnAppReady,
        SpanKind::HarnessOnRestart,
        SpanKind::HarnessOnSnapshot,
        SpanKind::Driver,
        SpanKind::Oracle,
        SpanKind::TraceTake,
        SpanKind::TraceDecompose,
        SpanKind::TraceExport,
    ];

    /// The span's name in the trace file.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Run => "run",
            SpanKind::ClusterRunUntil => "cluster.run_until",
            SpanKind::NodeOnStart => "node.on_start",
            SpanKind::NodeOnMessage => "node.on_message",
            SpanKind::NodeOnTimer => "node.on_timer",
            SpanKind::NodeOnRequest => "node.on_request",
            SpanKind::HarnessOnDelivery => "harness.on_delivery",
            SpanKind::HarnessOnTick => "harness.on_tick",
            SpanKind::HarnessOnAppReady => "harness.on_app_ready",
            SpanKind::HarnessOnRestart => "harness.on_restart",
            SpanKind::HarnessOnSnapshot => "harness.on_snapshot",
            SpanKind::Driver => "driver",
            SpanKind::Oracle => "oracle",
            SpanKind::TraceTake => "trace.take",
            SpanKind::TraceDecompose => "trace.decompose",
            SpanKind::TraceExport => "trace.export",
        }
    }

    /// True for the four `Node` callbacks.
    pub fn is_node(self) -> bool {
        matches!(
            self,
            SpanKind::NodeOnStart
                | SpanKind::NodeOnMessage
                | SpanKind::NodeOnTimer
                | SpanKind::NodeOnRequest
        )
    }

    /// True for the `Harness` callbacks.
    pub fn is_harness(self) -> bool {
        matches!(
            self,
            SpanKind::HarnessOnDelivery
                | SpanKind::HarnessOnTick
                | SpanKind::HarnessOnAppReady
                | SpanKind::HarnessOnRestart
                | SpanKind::HarnessOnSnapshot
        )
    }
}

/// No parent: the span is a root.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span. Times are nanoseconds since the log was created.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// What was measured.
    pub kind: SpanKind,
    /// Process id for `Node*` spans, 0 otherwise.
    pub pid: u16,
    /// Index of the span that caused this one, or [`NO_PARENT`].
    pub parent: u32,
    /// Which repetition the span belongs to.
    pub run: u32,
    /// Start instant.
    pub start_ns: u64,
    /// End instant.
    pub end_ns: u64,
}

/// The in-memory span log of one traced repetition.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    run: u32,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl SpanLog {
    /// An empty log whose clock starts now.
    pub fn new(run: u32) -> Self {
        SpanLog {
            epoch: Instant::now(),
            run,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn enter(&mut self, kind: SpanKind, pid: u16) {
        let idx = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            kind,
            pid,
            parent,
            run: self.run,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
    }

    fn exit(&mut self) {
        let end_ns = self.now_ns();
        let idx = self.open.pop().expect("span exit without enter");
        self.spans[idx as usize].end_ns = end_ns;
    }

    /// The recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// A shareable handle to an optional span log: the node wrappers, the
/// harness and the repetition runner all record into the same log, and
/// with no log (every timed repetition) `span` costs one branch and
/// reads no clock.
#[derive(Debug, Clone, Default)]
pub struct Spans(Option<Rc<RefCell<SpanLog>>>);

impl Spans {
    /// Recording off.
    pub fn off() -> Self {
        Spans(None)
    }

    /// Recording on, into a fresh log.
    pub fn on(run: u32) -> Self {
        Spans(Some(Rc::new(RefCell::new(SpanLog::new(run)))))
    }

    /// True when recording.
    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Runs `f` inside a span of `kind`. The log is not borrowed while
    /// `f` runs, so spans nest freely.
    pub fn span<R>(&self, kind: SpanKind, pid: u16, f: impl FnOnce() -> R) -> R {
        match &self.0 {
            None => f(),
            Some(log) => {
                log.borrow_mut().enter(kind, pid);
                let out = f();
                log.borrow_mut().exit();
                out
            }
        }
    }

    /// Takes the log out (None when recording was off).
    ///
    /// # Panics
    ///
    /// Panics if another handle still shares the log: every wrapper
    /// must be dropped before the log is analysed.
    pub fn finish(self) -> Option<SpanLog> {
        self.0.map(|rc| {
            Rc::try_unwrap(rc)
                .expect("span log still shared")
                .into_inner()
        })
    }
}

/// Per-kind totals over a span log.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct KindTotals {
    /// Number of spans.
    pub calls: u64,
    /// Sum of durations.
    pub total_ns: u64,
    /// Sum of self times.
    pub self_ns: u64,
    /// Median duration of one span (0 with no spans).
    pub median_ns: f64,
}

/// Self time of every span: its duration minus the union of its
/// children's intervals (clipped to the span). `spans` must be in start
/// order with parents before children, as [`SpanLog`] records them;
/// children may overlap each other.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    // Per parent: nanoseconds covered so far and the right edge of that
    // cover. Children arrive in start order, so one sweep suffices.
    let mut covered = vec![0u64; spans.len()];
    let mut edge: Vec<u64> = spans.iter().map(|s| s.start_ns).collect();
    for s in spans {
        if s.parent == NO_PARENT {
            continue;
        }
        let p = s.parent as usize;
        let from = s.start_ns.max(edge[p]);
        let to = s.end_ns.min(spans[p].end_ns);
        if to > from {
            covered[p] += to - from;
            edge[p] = to;
        }
    }
    spans
        .iter()
        .zip(&covered)
        .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(*c))
        .collect()
}

/// Totals per span kind, indexed by `SpanKind as usize`.
pub fn totals(spans: &[Span]) -> Vec<KindTotals> {
    let selfs = self_times(spans);
    let mut out = vec![KindTotals::default(); SpanKind::ALL.len()];
    let mut durations: Vec<Vec<f64>> = vec![Vec::new(); SpanKind::ALL.len()];
    for (s, self_ns) in spans.iter().zip(selfs) {
        let k = s.kind as usize;
        let dur = s.end_ns - s.start_ns;
        out[k].calls += 1;
        out[k].total_ns += dur;
        out[k].self_ns += self_ns;
        durations[k].push(dur as f64);
    }
    for (t, d) in out.iter_mut().zip(&durations) {
        if !d.is_empty() {
            t.median_ns = crate::stats::median(d);
        }
    }
    out
}

/// At most this many spans are written to a trace file (the first
/// ones): a 60-virtual-second repetition records over a million, and a
/// viewer needs a few thousand to show the shape. Totals always cover
/// every span.
pub const TRACE_FILE_SPAN_CAP: usize = 100_000;

/// Renders spans as a Chrome trace-event document (load it in
/// `chrome://tracing` or <https://ui.perfetto.dev>): complete (`"X"`)
/// events in microseconds, one track per process for `node.*` spans and
/// track 1000 for everything else; `args` carries the parent index and
/// the repetition id.
pub fn to_chrome_trace(workload: &str, spans: &[Span]) -> String {
    let written = &spans[..spans.len().min(TRACE_FILE_SPAN_CAP)];
    let events: Vec<Json> = written
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let tid = if s.kind.is_node() {
                f64::from(s.pid)
            } else {
                1000.0
            };
            let parent = if s.parent == NO_PARENT {
                Json::Null
            } else {
                Json::Num(f64::from(s.parent))
            };
            Json::obj([
                ("name", Json::str(s.kind.name())),
                ("ph", Json::str("X")),
                ("ts", Json::Num(s.start_ns as f64 / 1000.0)),
                ("dur", Json::Num((s.end_ns - s.start_ns) as f64 / 1000.0)),
                ("pid", Json::Num(0.0)),
                ("tid", Json::Num(tid)),
                (
                    "args",
                    Json::obj([
                        ("id", Json::Num(i as f64)),
                        ("parent", parent),
                        ("run", Json::Num(f64::from(s.run))),
                    ]),
                ),
            ])
        })
        .collect();
    Json::obj([
        ("displayTimeUnit", Json::str("ns")),
        (
            "otherData",
            Json::obj([
                ("workload", Json::str(workload)),
                ("spans_recorded", Json::Num(spans.len() as f64)),
                ("spans_written", Json::Num(written.len() as f64)),
            ]),
        ),
        ("traceEvents", Json::Arr(events)),
    ])
    .to_line()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(kind: SpanKind, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            kind,
            pid: 0,
            parent,
            run: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = [
            span(SpanKind::Run, NO_PARENT, 0, 100),
            // Two children overlapping on [20, 30): union is [10, 40).
            span(SpanKind::Driver, 0, 10, 30),
            span(SpanKind::Oracle, 0, 20, 40),
            // A child running past its parent's end is clipped: [90, 100).
            span(SpanKind::Driver, 0, 90, 120),
            // A grandchild only reduces its own parent.
            span(SpanKind::NodeOnRequest, 3, 95, 99),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[0], 100 - 30 - 10);
        assert_eq!(selfs[1], 20);
        assert_eq!(selfs[2], 20);
        assert_eq!(selfs[3], 30 - 4);
        assert_eq!(selfs[4], 4);
    }

    #[test]
    fn a_child_inside_an_earlier_sibling_adds_nothing() {
        let spans = [
            span(SpanKind::Run, NO_PARENT, 0, 50),
            span(SpanKind::Driver, 0, 5, 45),
            span(SpanKind::Oracle, 0, 10, 20),
        ];
        assert_eq!(self_times(&spans)[0], 10);
    }

    #[test]
    fn totals_group_by_kind() {
        let spans = [
            span(SpanKind::Run, NO_PARENT, 0, 100),
            span(SpanKind::Driver, 0, 0, 10),
            span(SpanKind::Driver, 0, 10, 40),
            span(SpanKind::Driver, 0, 40, 60),
        ];
        let t = totals(&spans);
        let d = &t[SpanKind::Driver as usize];
        assert_eq!((d.calls, d.total_ns, d.self_ns), (3, 60, 60));
        assert_eq!(d.median_ns, 20.0);
        assert_eq!(t[SpanKind::Run as usize].self_ns, 40);
        assert_eq!(t[SpanKind::Oracle as usize], KindTotals::default());
    }

    #[test]
    fn handle_nests_and_records_parents() {
        let spans = Spans::on(3);
        let inner = spans.clone();
        let out = spans.span(SpanKind::Run, 0, || {
            inner.span(SpanKind::NodeOnMessage, 2, || 7)
        });
        drop(inner);
        assert_eq!(out, 7);
        let log = spans.finish().expect("recording was on");
        let s = log.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(
            (s[0].kind, s[0].parent, s[0].run),
            (SpanKind::Run, NO_PARENT, 3)
        );
        assert_eq!(
            (s[1].kind, s[1].parent, s[1].pid),
            (SpanKind::NodeOnMessage, 0, 2)
        );
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert!(Spans::off().finish().is_none());
        assert_eq!(Spans::off().span(SpanKind::Run, 0, || 1), 1);
    }

    #[test]
    fn chrome_trace_is_valid_json_and_capped() {
        let spans = [
            span(SpanKind::Run, NO_PARENT, 0, 2_000),
            span(SpanKind::NodeOnTimer, 0, 500, 1_500),
        ];
        let doc = Json::parse(&to_chrome_trace("w", &spans)).expect("valid JSON");
        let events = doc.get("traceEvents").unwrap().elements();
        assert_eq!(events.len(), 2);
        assert_eq!(
            events[1].get("name").unwrap().as_str(),
            Some("node.on_timer")
        );
        assert_eq!(events[1].get("ts").unwrap().as_f64(), Some(0.5));
        assert_eq!(events[1].get("dur").unwrap().as_f64(), Some(1.0));
        assert_eq!(
            events[1]
                .get("args")
                .unwrap()
                .get("parent")
                .unwrap()
                .as_f64(),
            Some(0.0)
        );
    }
}
