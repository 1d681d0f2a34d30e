//! End-to-end checks of the tracing subsystem: determinism, zero
//! interference with simulated timing, latency decomposition, and
//! violation dumps.
//!
//! These run against both stacks through the public `Experiment` API —
//! the same path `probe --trace` and the examples use.

use fortika::chaos::Scenario;
use fortika::core::workload::{Workload, WorkloadDriver};
use fortika::core::{scenario_cluster, CostModel, Experiment, StackConfig, StackKind, TraceConfig};
use fortika::net::{ClusterConfig, ProcessId};
use fortika::sim::{VDur, VTime};
use fortika::trace::{
    decompose_window, DecompSample, LatencyDecomposition, Trace, TraceData, TraceEvent, WindowSpec,
};

fn traced_report(kind: StackKind, seed: u64) -> fortika::core::RunReport {
    traced_report_of(kind, seed, 0.6)
}

fn traced_report_of(kind: StackKind, seed: u64, measure_secs: f64) -> fortika::core::RunReport {
    Experiment::builder(kind, 3)
        .workload(Workload::constant_rate(300.0, 256))
        .seed(seed)
        .warmup_secs(0.2)
        .measure_secs(measure_secs)
        .trace(TraceConfig::on())
        .build()
        .run()
}

#[test]
fn same_seed_same_jsonl_on_both_stacks() {
    for kind in [StackKind::Modular, StackKind::Monolithic] {
        let a = traced_report(kind, 11).trace.expect("tracing on");
        let b = traced_report(kind, 11).trace.expect("tracing on");
        assert_eq!(
            a.to_jsonl(),
            b.to_jsonl(),
            "{kind:?}: same seed must replay to byte-identical JSONL"
        );
        assert_eq!(a.to_chrome_json(), b.to_chrome_json());
        // And a different seed must not (the trace actually reflects
        // the run, it is not a constant).
        let c = traced_report(kind, 12).trace.expect("tracing on");
        assert_ne!(a.to_jsonl(), c.to_jsonl());
    }
}

#[test]
fn tracing_does_not_change_measurements() {
    for kind in [StackKind::Modular, StackKind::Monolithic] {
        let base = Experiment::builder(kind, 3)
            .workload(Workload::constant_rate(300.0, 256))
            .seed(21)
            .warmup_secs(0.2)
            .measure_secs(0.6)
            .build()
            .run();
        let traced = traced_report(kind, 21);
        // Bit-identical metrics: tracing must be observation only.
        assert_eq!(
            base.early_latency_ms.mean, traced.early_latency_ms.mean,
            "{kind:?}: tracing changed latency"
        );
        assert_eq!(base.throughput_msgs_per_sec, traced.throughput_msgs_per_sec);
        assert_eq!(base.delivered_total, traced.delivered_total);
        assert_eq!(base.msgs_in_window, traced.msgs_in_window);
        assert_eq!(base.bytes_in_window, traced.bytes_in_window);
        assert!(base.trace.is_none() && base.latency_decomposition.is_none());
    }
}

#[test]
fn decomposition_components_sum_to_end_to_end() {
    for kind in [StackKind::Modular, StackKind::Monolithic] {
        let report = traced_report(kind, 31);
        let d = report
            .latency_decomposition
            .expect("tracing yields a decomposition");
        assert!(d.samples > 50, "{kind:?}: too few samples ({})", d.samples);
        // queueing + transmission + cpu + durability must equal the
        // end-to-end mean. The per-sample identity is exact in integer
        // nanoseconds; the mean only rounds through f64.
        let sum = d.component_mean_sum_ms();
        assert!(
            (sum - d.total.mean_ms).abs() < 1e-6,
            "{kind:?}: components sum {sum} != total {}",
            d.total.mean_ms
        );
        // The decomposition mean must also match the run's reported
        // early latency — both average the same samples.
        assert!(
            (d.total.mean_ms - report.early_latency_ms.mean).abs() < 1e-6,
            "{kind:?}: decomposition total {} != early latency {}",
            d.total.mean_ms,
            report.early_latency_ms.mean
        );
        // Sanity on the shape: some time is spent on CPU and some on
        // the wire in every real run.
        assert!(d.cpu.mean_ms > 0.0, "{kind:?}: zero CPU time");
        assert!(d.transmission.mean_ms > 0.0, "{kind:?}: zero wire time");
        assert!(d.total.p99_ms >= d.total.p50_ms);
    }
}

/// Inputs of one traced run, for `Experiment` and for `replay`.
struct TracedRun {
    kind: StackKind,
    seed: u64,
    cost: CostModel,
    scenario: Option<Scenario>,
    trace: TraceConfig,
}

const REPLAY_WARMUP: VDur = VDur::millis(200);
const REPLAY_MEASURE: VDur = VDur::millis(800);

impl TracedRun {
    fn workload() -> Workload {
        Workload::constant_rate(300.0, 256)
    }

    fn report(&self) -> fortika::core::RunReport {
        let mut b = Experiment::builder(self.kind, 3)
            .workload(Self::workload())
            .seed(self.seed)
            .warmup_secs(REPLAY_WARMUP.as_secs_f64())
            .measure_secs(REPLAY_MEASURE.as_secs_f64())
            .cost(self.cost.clone())
            .trace(self.trace.clone());
        if let Some(scenario) = &self.scenario {
            b = b.scenario(scenario.clone());
        }
        b.build().run()
    }

    /// The same run assembled from the pieces `Experiment::run` uses,
    /// which is the only way to see the latency windows it decomposed:
    /// returns the trace and one window per latency sample.
    fn replay(&self) -> (Trace, Vec<WindowSpec>) {
        let n = 3;
        let mut cfg = ClusterConfig::new(n, self.seed);
        cfg.cost = self.cost.clone();
        cfg.trace = self.trace.clone();
        let scenario = self.scenario.clone().unwrap_or_default();
        let (mut cluster, _) = scenario_cluster(self.kind, &StackConfig::default(), cfg, &scenario);
        let window_start = VTime::ZERO + REPLAY_WARMUP;
        let window_end = window_start + REPLAY_MEASURE;
        let end =
            (window_end + VDur::millis(500)).max(VTime::ZERO + scenario.horizon() + VDur::secs(1));
        let mut driver =
            WorkloadDriver::with_seed(Self::workload(), n, window_start, window_end, self.seed);
        driver.enable_sample_log();
        driver.start(&mut cluster);
        cluster.run_until(end, &mut driver);
        let trace = cluster.take_trace().expect("tracing on");
        let windows = driver
            .finish()
            .samples
            .iter()
            .map(|s| WindowSpec {
                pid: s.earliest_pid.0,
                t0_ns: s.t0.as_nanos(),
                te_ns: s.earliest.as_nanos(),
            })
            .collect();
        (trace, windows)
    }
}

/// Total length of the union of `intervals`.
fn union_len(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let (mut len, mut reach) = (0, 0);
    for (s, t) in intervals {
        let s = s.max(reach);
        if s < t {
            len += t - s;
            reach = t;
        }
    }
    len
}

/// The decomposition by its definition, one linear scan of the events
/// per window: what `decompose_window` answers from its index.
fn scan_window(events: &[TraceEvent], retained_from_ns: u64, w: &WindowSpec) -> DecompSample {
    let (lo, hi) = (w.t0_ns, w.te_ns.max(w.t0_ns));
    let clip = |s: u64, t: u64| (s.max(lo), t.min(hi));
    let (mut busy, mut covered) = (Vec::new(), Vec::new());
    let mut durability = 0;
    for e in events {
        match e.data {
            TraceData::Handler {
                pid,
                start_ns,
                cpu_ns,
                durability_ns,
                ..
            } if pid == w.pid && cpu_ns > 0 => {
                let (s, t) = clip(start_ns, start_ns + cpu_ns);
                if s < t {
                    busy.push((s, t));
                    durability +=
                        (u128::from(durability_ns) * u128::from(t - s) / u128::from(cpu_ns)) as u64;
                }
            }
            TraceData::Send {
                dst, arrival_ns, ..
            } if dst == w.pid => covered.push(clip(e.at_ns, arrival_ns)),
            _ => {}
        }
    }
    covered.extend_from_slice(&busy);
    let cpu_total = union_len(busy);
    // In flight but not busy = (in flight or busy) − busy.
    let transmission = union_len(covered) - cpu_total;
    let durability = durability.min(cpu_total);
    DecompSample {
        total_ns: hi - lo,
        queueing_ns: hi - lo - cpu_total - transmission,
        transmission_ns: transmission,
        cpu_ns: cpu_total - durability,
        durability_ns: durability,
        truncated: w.t0_ns < retained_from_ns,
    }
}

/// Runs `run` through `Experiment` and by hand, and checks the
/// report's decomposition, sample by sample, against the linear scan.
fn decomposition_checked_against_scan(run: &TracedRun) -> LatencyDecomposition {
    let report = run.report();
    let (trace, windows) = run.replay();
    let reported = report.trace.expect("tracing on");
    assert_eq!(reported.to_jsonl(), trace.to_jsonl(), "replay diverged");
    assert!(!windows.is_empty());

    let retained_from_ns = if trace.dropped > 0 {
        trace.events[0].at_ns
    } else {
        0
    };
    let scanned: Vec<DecompSample> = windows
        .iter()
        .map(|w| scan_window(&reported.events, retained_from_ns, w))
        .collect();
    for (w, expected) in windows.iter().zip(&scanned) {
        assert_eq!(decompose_window(&reported.events, w), *expected, "{w:?}");
    }
    let d = report.latency_decomposition.expect("tracing on");
    assert_eq!(d, LatencyDecomposition::from_samples(&scanned));
    assert!(
        (d.component_mean_sum_ms() - d.total.mean_ms).abs() < 1e-6,
        "four addends sum to {} != total {}",
        d.component_mean_sum_ms(),
        d.total.mean_ms
    );
    d
}

#[test]
fn priced_durability_is_a_fourth_addend_and_matches_the_scan() {
    for kind in [StackKind::Modular, StackKind::Monolithic] {
        let d = decomposition_checked_against_scan(&TracedRun {
            kind,
            seed: 71,
            cost: CostModel::with_durability(VDur::micros(200), VDur::micros(40)),
            // The coordinator goes down inside the window and rejoins:
            // round change, stable-store recovery, catch-up.
            scenario: Some(
                Scenario::new()
                    .crash(ProcessId(0), VDur::millis(400))
                    .restart(ProcessId(0), VDur::millis(650)),
            ),
            trace: TraceConfig::on(),
        });
        assert!(d.durability.mean_ms > 0.0, "{kind:?}: no durability time");
        assert!(d.cpu.mean_ms > 0.0, "{kind:?}: no CPU time");
        // Three addends are no longer enough.
        let three = d.queueing.mean_ms + d.transmission.mean_ms + d.cpu.mean_ms;
        assert!(three < d.total.mean_ms - 1e-6, "{kind:?}");
        assert_eq!(d.truncated_samples, 0, "{kind:?}: the ring held the run");
    }
}

#[test]
fn ring_overflow_is_reported_not_hidden() {
    for kind in [StackKind::Modular, StackKind::Monolithic] {
        let run = |trace| TracedRun {
            kind,
            seed: 51,
            cost: CostModel::default(),
            scenario: None,
            trace,
        };
        let whole = decomposition_checked_against_scan(&run(TraceConfig::on()));
        let tail = decomposition_checked_against_scan(&run(TraceConfig::with_capacity(256)));
        assert_eq!(whole.truncated_samples, 0, "{kind:?}");
        // 256 events hold the last few milliseconds: nearly every
        // sample opens before them, and says so.
        assert!(
            tail.truncated_samples > tail.samples / 2 && tail.truncated_samples <= tail.samples,
            "{kind:?}: {} of {} truncated",
            tail.truncated_samples,
            tail.samples
        );
        // The flag changes no number: same samples, same totals, and
        // the evicted CPU and wire time still reads as queueing.
        assert_eq!(tail.samples, whole.samples);
        assert_eq!(tail.total, whole.total);
        assert!(tail.queueing.mean_ms > whole.queueing.mean_ms, "{kind:?}");
    }
}

/// FNV-1a, 64 bit.
fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// Length and hash of both exports of a whole traced run, as rendered
/// through `core::fmt`, before the exports had a writer of their own.
/// A change to the protocols' timing moves these too: regenerating
/// them then can only pin what the writer renders, so what guards the
/// format from there on is the reference renderer in
/// `fortika-trace`'s own tests.
#[test]
fn export_bytes_match_golden() {
    for (kind, jsonl, chrome) in [
        (
            StackKind::Modular,
            (1_846_229, 0xdb26_f8a0_3285_232e),
            (2_062_208, 0x0e79_f344_489e_5467),
        ),
        (
            StackKind::Monolithic,
            (1_276_735, 0xeb60_acbe_f768_e1d5),
            (1_366_193, 0x6d90_42ed_b16a_497c),
        ),
    ] {
        let trace = traced_report(kind, 11).trace.expect("tracing on");
        let rendered = trace.to_jsonl();
        assert_eq!((rendered.len(), fnv1a(&rendered)), jsonl, "{kind:?} JSONL");
        let rendered = trace.to_chrome_json();
        assert_eq!(
            (rendered.len(), fnv1a(&rendered)),
            chrome,
            "{kind:?} Chrome JSON"
        );
    }
}

/// A run long enough to record more than 20 000 events on either
/// stack, checked without goldens: every JSONL line parses and carries
/// its event's sequence number and instant, the meta line counts them,
/// and the Chrome document parses into one element per event plus a
/// begin/end pair per `(stack, instance)`.
#[test]
fn long_run_exports_parse_and_hold_every_event() {
    use fortika::trace::json::{parse, Value};
    use std::collections::BTreeSet;

    let number = |v: &Value, key: &str| v.get(key).and_then(Value::as_f64);
    for kind in [StackKind::Modular, StackKind::Monolithic] {
        let trace = traced_report_of(kind, 11, 2.0).trace.expect("tracing on");
        assert!(trace.events.len() >= 20_000, "{kind:?}");

        let jsonl = trace.to_jsonl();
        let mut lines = jsonl.lines();
        for e in &trace.events {
            let line = lines.next().expect("a line per event");
            let v = parse(line).unwrap_or_else(|err| panic!("{err} in {line}"));
            assert_eq!(number(&v, "seq"), Some(e.seq as f64), "{line}");
            assert_eq!(number(&v, "at_ns"), Some(e.at_ns as f64), "{line}");
        }
        let meta = parse(lines.next().expect("meta line")).expect("meta line is JSON");
        assert_eq!(number(&meta, "events"), Some(trace.events.len() as f64));
        assert_eq!(lines.next(), None);

        let groups: BTreeSet<(&str, u64)> = trace
            .events
            .iter()
            .filter_map(|e| match e.data {
                TraceData::Span {
                    stack, instance, ..
                } => Some((stack, instance)),
                _ => None,
            })
            .collect();
        let doc = parse(&trace.to_chrome_json()).expect("Chrome document is JSON");
        let elements = doc.get("traceEvents").and_then(Value::as_array);
        assert_eq!(
            elements.map(<[Value]>::len),
            Some(trace.events.len() + 2 * groups.len()),
            "{kind:?}"
        );
    }
}

/// Tags that hold every character JSON cannot carry bare still export
/// as JSON: each JSONL line and the Chrome document parse, and read
/// back the strings that went in.
#[test]
fn exports_escape_their_tags() {
    use fortika::trace::json::{parse, Value};
    use fortika::trace::TraceBuffer;

    const KIND: &str = "ki\"nd\\1\n";
    const REASON: &str = "rea\tson\r\u{1}";
    const STACK: &str = "st\u{1f}a\"ck";
    const PHASE: &str = "pha\\se\u{0}é";
    let mut b = TraceBuffer::new(8);
    b.push(
        1_000,
        TraceData::Send {
            src: 0,
            dst: 1,
            kind: KIND,
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
            kind: KIND,
            bytes: 74,
        },
    );
    b.push(
        1_500,
        TraceData::Drop {
            src: 1,
            dst: 2,
            kind: KIND,
            bytes: 90,
            reason: REASON,
        },
    );
    b.push(
        1_600,
        TraceData::Span {
            pid: 1,
            stack: STACK,
            instance: 3,
            phase: PHASE,
            detail: 0,
        },
    );
    let trace = b.finish();

    let jsonl = trace.to_jsonl();
    let lines: Vec<Value> = jsonl
        .lines()
        .map(|l| parse(l).unwrap_or_else(|e| panic!("{e} in {l}")))
        .collect();
    assert_eq!(lines.len(), 5);
    let field = |line: usize, key: &str| lines[line].get(key).and_then(Value::as_str);
    for line in 0..3 {
        assert_eq!(field(line, "kind"), Some(KIND), "line {line}");
    }
    assert_eq!(field(2, "reason"), Some(REASON));
    assert_eq!(field(3, "stack"), Some(STACK));
    assert_eq!(field(3, "phase"), Some(PHASE));

    let chrome = trace.to_chrome_json();
    let doc = parse(&chrome).unwrap_or_else(|e| panic!("{e} in {chrome}"));
    let names: Vec<&str> = doc
        .get("traceEvents")
        .and_then(Value::as_array)
        .expect("traceEvents")
        .iter()
        .map(|e| e.get("name").and_then(Value::as_str).expect("name"))
        .collect();
    assert_eq!(
        names,
        [
            format!("{STACK} #3"),
            format!("{STACK} #3"),
            format!("send {KIND}"),
            format!("recv {KIND}"),
            format!("drop {KIND} ({REASON})"),
            format!("{STACK} #3: {PHASE}"),
        ]
    );
}

#[test]
fn trace_contains_all_event_classes_and_spans() {
    for kind in [StackKind::Modular, StackKind::Monolithic] {
        let trace = traced_report(kind, 41).trace.expect("tracing on");
        let mut sends = 0u64;
        let mut delivers = 0u64;
        let mut handlers = 0u64;
        let mut phases: Vec<&'static str> = Vec::new();
        for e in &trace.events {
            match e.data {
                TraceData::Send { .. } => sends += 1,
                TraceData::Deliver { .. } => delivers += 1,
                TraceData::Handler { .. } => handlers += 1,
                TraceData::Span { phase, .. } => phases.push(phase),
                TraceData::Drop { .. } => {}
            }
        }
        assert!(sends > 0 && delivers > 0 && handlers > 0, "{kind:?}");
        for expected in ["proposed", "voted", "decided", "applied"] {
            assert!(
                phases.contains(&expected),
                "{kind:?}: no {expected:?} span in {phases:?}"
            );
        }
    }
}

#[test]
fn violation_dump_is_bounded_and_carries_spans() {
    use fortika::chaos::{dump_violation_trace, OracleReport, Violation, DUMP_WINDOW};
    use fortika::net::{MsgId, ProcessId};

    let trace = traced_report(StackKind::Modular, 61).trace.expect("on");
    // The stacks are correct, so no real run violates; fabricate the
    // oracle outcome — the dump path only looks at the first violation's
    // offending process.
    let report = OracleReport {
        violations: vec![Violation::DuplicateDelivery {
            process: ProcessId(1),
            id: MsgId::new(ProcessId(0), 3),
        }],
        deliveries: 1,
        common_order: vec![],
    };
    let dir = std::env::temp_dir().join("fortika-trace-e2e");
    let written = dump_violation_trace(&trace, &report, &dir, "e2e").unwrap();
    assert_eq!(written.len(), 2);
    let jsonl = std::fs::read_to_string(&written[0]).unwrap();
    let lines: Vec<&str> = jsonl.lines().collect();
    // Bounded: at most the dump window plus the meta line.
    assert!(lines.len() <= DUMP_WINDOW + 1);
    // Every event involves the offending process, and its lifecycle
    // spans are present.
    assert!(lines.iter().any(|l| l.contains("\"ev\":\"span\"")));
    assert!(lines
        .iter()
        .filter(|l| l.contains("\"ev\":\"span\""))
        .all(|l| l.contains("\"pid\":1")));
    let chrome = std::fs::read_to_string(&written[1]).unwrap();
    assert!(chrome.contains("\"traceEvents\""));
    assert!(chrome.contains("abcast #"));
}

#[test]
fn trace_buffer_is_bounded() {
    let report = Experiment::builder(StackKind::Modular, 3)
        .workload(Workload::constant_rate(300.0, 256))
        .seed(51)
        .warmup_secs(0.2)
        .measure_secs(0.6)
        .trace(TraceConfig::with_capacity(256))
        .build()
        .run();
    let trace = report.trace.expect("tracing on");
    assert_eq!(trace.capacity, 256);
    assert!(trace.events.len() <= 256);
    assert!(trace.dropped > 0, "a real run overflows 256 events");
    // The meta line reports the eviction accounting.
    let jsonl = trace.to_jsonl();
    let meta = jsonl.lines().last().unwrap();
    assert!(meta.contains("\"meta\":true"));
    assert!(meta.contains(&format!("\"dropped\":{}", trace.dropped)));
}
