//! Measures one workload inside one process: the end-to-end metrics
//! from span-free repetitions, or the per-layer metrics from a traced
//! repetition plus the layer kernels. Both run the correctness gate.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use fortika::core::{Experiment, RunReport, StackKind};

use crate::harness::run_rep;
use crate::kernels;
use crate::metrics::{
    send_rows, sends_with_prefix, Audit, LibraryNumbers, Model, END_TO_END, PER_LAYER,
};
use crate::spans::{totals, KindTotals, SpanKind, SpanLog, Spans};
use crate::stats::{median, Summary};
use crate::workloads::Spec;

/// Reads the allocator's running totals: `(allocations, bytes)`. Only
/// the traced binary has one.
pub type AllocCounter = fn() -> (u64, u64);

/// Set-ups per end-to-end run; their median is `setup_s`.
const SETUPS: usize = 3;
/// Fewest timed repetitions, however short `--seconds` is.
const MIN_REPS: usize = 5;
/// Span-free repetitions in a per-layer run (the base of
/// `core.span_overhead_share`).
const BASE_REPS: usize = 3;
/// Largest log the oracle kernels are run on.
const ORACLE_KERNEL_CAP: u64 = 300_000;

/// The verdict every run carries, whatever it measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Gate {
    /// Messages admitted up to the end of the window.
    pub attempted: u64,
    /// Failed messages (see `metrics::failed_messages`).
    pub failed: u64,
    /// Everything the correctness gate objected to (empty = correct).
    pub problems: Vec<String>,
}

impl Gate {
    /// True when the gate found nothing wrong.
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// Opens the gate with the audited warm-up repetition.
    fn open(reference: &Model, audit: &Audit) -> Gate {
        let mut gate = Gate {
            attempted: reference.attempted,
            failed: audit.failed,
            problems: Vec::new(),
        };
        for v in &audit.violations {
            gate.problems.push(format!("oracle violation: {v}"));
        }
        if audit.failed > 0 {
            gate.problems.push(format!(
                "{} of {} messages failed",
                audit.failed, reference.attempted
            ));
        }
        if reference.attempted == 0 {
            gate.problems.push("no message was admitted".into());
        }
        gate
    }

    /// Requires `model` to equal the reference bit for bit.
    fn same_model(&mut self, what: &str, reference: &Model, model: &Model) {
        if model != reference {
            self.problems.push(format!(
                "{what} differs from the warm-up repetition in its modelled numbers: {}",
                first_difference(reference, model)
            ));
        }
    }

    /// Requires an audited repetition to agree with the first audit.
    fn same_audit(&mut self, what: &str, reference: &Audit, audit: &Audit) {
        if audit != reference {
            self.problems.push(format!(
                "{what} differs from the warm-up repetition in its audit"
            ));
        }
    }
}

/// Names the first field in which two models differ.
fn first_difference(a: &Model, b: &Model) -> String {
    macro_rules! check {
        ($($field:ident).+) => {
            if a.$($field).+ != b.$($field).+ {
                return format!(
                    "{} {:?} vs {:?}",
                    stringify!($($field).+),
                    a.$($field).+,
                    b.$($field).+
                );
            }
        };
    }
    check!(latency_p50_ns);
    check!(latency_p99_ns);
    check!(max_gap_ns);
    check!(rejoin_catchup_ns);
    check!(deliveries);
    check!(attempted);
    check!(survivors);
    check!(trace_work);
    check!(library.samples);
    check!(library.latency_hist_ms);
    check!(library.throughput);
    check!(library.delivered_total);
    check!(library.admitted_in_window);
    check!(library.lost_samples);
    check!(library.instances_per_proc);
    check!(library.avg_batch_m);
    check!(library.msgs_in_window);
    check!(library.bytes_in_window);
    check!(library.cpu_util);
    check!(library.durability_util_max);
    check!(library.sends);
    check!(library.events);
    "nothing (models are equal)".into()
}

/// The library's own report of the same inputs, for the fault-free,
/// untraced workloads: proves the hand-built run is the library's run.
fn library_report(spec: &Spec, seed: u64) -> RunReport {
    Experiment::builder(spec.kind, spec.n)
        .workload(spec.workload())
        .seed(seed)
        .warmup_secs(spec.warmup.as_secs_f64())
        .measure_secs(spec.window.as_secs_f64())
        .build()
        .run()
}

impl LibraryNumbers {
    /// The same numbers, read off a `RunReport`.
    pub fn from_report(r: &RunReport) -> LibraryNumbers {
        LibraryNumbers {
            latency_hist_ms: [
                r.early_latency_ms.p50,
                r.early_latency_ms.p90,
                r.early_latency_ms.p99,
            ],
            samples: r.early_latency_ms.samples,
            throughput: r.throughput_msgs_per_sec,
            delivered_total: r.delivered_total,
            admitted_in_window: r.admitted_in_window,
            lost_samples: r.lost_samples,
            instances_per_proc: r.instances_per_proc,
            avg_batch_m: r.avg_batch_m,
            msgs_in_window: r.msgs_in_window,
            bytes_in_window: r.bytes_in_window,
            cpu_util: [r.max_cpu_utilization, r.mean_cpu_utilization],
            durability_util_max: r.max_durability_utilization,
            sends: send_rows(&r.counters),
            events: r.counters.iter_events().collect(),
        }
    }
}

/// The end-to-end metrics of one workload, in `END_TO_END` order.
#[derive(Debug, Clone, PartialEq)]
pub struct EndToEndRun {
    /// The correctness verdict.
    pub gate: Gate,
    /// One summary per end-to-end metric.
    pub metrics: Vec<(&'static str, Summary)>,
    /// Timed repetitions behind the host medians.
    pub reps: usize,
    /// Latency samples behind the percentiles.
    pub latency_samples: u64,
}

/// Peak resident set size of this process so far, MiB (`VmHWM`).
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Measures the end-to-end metrics: `SETUPS` set-ups (each builds the
/// inputs and stacks and runs the audited warm-up repetition), then
/// span-free repetitions of the same seed for `seconds` of host time.
pub fn end_to_end(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    quick: bool,
    process_start: Instant,
) -> EndToEndRun {
    let mut setup_s = Vec::new();
    let mut set_up = |started: Instant| {
        let raw = run_rep(spec, seed, true, &Spans::off());
        setup_s.push(started.elapsed().as_secs_f64());
        (Model::of(spec, &raw), Audit::of(&raw))
    };
    let (reference, reference_audit) = set_up(process_start);
    let mut gate = Gate::open(&reference, &reference_audit);
    for i in 1..if quick { 1 } else { SETUPS } {
        let (model, audit) = set_up(Instant::now());
        gate.same_model(&format!("set-up {}", i + 1), &reference, &model);
        gate.same_audit(&format!("set-up {}", i + 1), &reference_audit, &audit);
    }

    let mut host_us = Vec::new();
    let timed = Instant::now();
    let min_reps = if quick { 1 } else { MIN_REPS };
    while host_us.len() < min_reps || (!quick && timed.elapsed().as_secs_f64() < seconds) {
        let raw = run_rep(spec, seed, spec.faults, &Spans::off());
        host_us.push(raw.host_ns as f64 / 1e3 / raw.log.len().max(1) as f64);
        let what = format!("timed repetition {}", host_us.len());
        gate.same_model(&what, &reference, &Model::of(spec, &raw));
        if spec.faults {
            gate.same_audit(&what, &reference_audit, &Audit::of(&raw));
        }
    }
    let rss = peak_rss_mib();

    if !spec.faults && !spec.tracing {
        let library = LibraryNumbers::from_report(&library_report(spec, seed));
        if library != reference.library {
            gate.problems.push(
                "the benchmark's assembly of the run does not reproduce Experiment::run".into(),
            );
        }
    }

    let ms = |ns: u64| Summary::exact(ns as f64 / 1e6);
    let metrics = vec![
        ("setup_s", Summary::of(&setup_s)),
        ("model_latency_p50_ms", ms(reference.latency_p50_ns)),
        ("model_latency_p99_ms", ms(reference.latency_p99_ns)),
        (
            "model_throughput_msgs_s",
            Summary::exact(reference.library.throughput),
        ),
        ("model_max_delivery_gap_ms", ms(reference.max_gap_ns)),
        ("host_us_per_delivered_msg", Summary::of(&host_us)),
        ("host_peak_rss_mib", Summary::exact(rss)),
    ];
    assert!(
        metrics
            .iter()
            .map(|(name, _)| *name)
            .eq(END_TO_END.iter().map(|m| m.name)),
        "metrics are reported in END_TO_END order"
    );
    EndToEndRun {
        gate,
        metrics,
        reps: host_us.len(),
        latency_samples: reference.library.samples,
    }
}

/// The per-layer metrics of one workload, in `PER_LAYER` order, and
/// the traced repetition's spans.
#[derive(Debug)]
pub struct PerLayerRun {
    /// The correctness verdict.
    pub gate: Gate,
    /// One value per per-layer metric.
    pub metrics: Vec<(&'static str, f64)>,
    /// The spans behind the span-kind metrics.
    pub spans: SpanLog,
}

/// `num / den`, or 0 when the layer did nothing.
fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Measures the per-layer metrics: audited warm-up, `BASE_REPS`
/// span-free repetitions, one traced repetition, then the kernels (each
/// for `seconds / 32`).
pub fn per_layer(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    quick: bool,
    alloc: Option<AllocCounter>,
) -> PerLayerRun {
    let (reference, audit) = {
        let raw = run_rep(spec, seed, true, &Spans::off());
        (Model::of(spec, &raw), Audit::of(&raw))
    };
    let mut gate = Gate::open(&reference, &audit);

    let mut base_ns = Vec::new();
    let mut allocs = (0, 0);
    for i in 0..if quick { 1 } else { BASE_REPS } {
        let before = alloc.map(|read| read());
        let raw = run_rep(spec, seed, spec.faults, &Spans::off());
        if let (Some(read), Some(before)) = (alloc, before) {
            let after = read();
            allocs = (after.0 - before.0, after.1 - before.1);
        }
        base_ns.push(raw.host_ns as f64);
        let what = format!("span-free repetition {}", i + 1);
        gate.same_model(&what, &reference, &Model::of(spec, &raw));
    }

    let spans = Spans::on(1);
    let raw = run_rep(spec, seed, spec.faults, &spans);
    gate.same_model("the traced repetition", &reference, &Model::of(spec, &raw));
    let traced_ns = raw.host_ns as f64;
    drop(raw);
    let log = spans.finish().expect("recording was on");
    let t = totals(log.spans());
    let of = |k: SpanKind| -> &KindTotals { &t[k as usize] };
    let run_ns = of(SpanKind::Run).total_ns as f64;
    let sum = |pick: fn(SpanKind) -> bool, field: fn(&KindTotals) -> u64| -> f64 {
        SpanKind::ALL
            .iter()
            .filter(|k| pick(**k))
            .map(|k| field(of(*k)) as f64)
            .sum()
    };

    let lib = &reference.library;
    let deliveries = reference.deliveries as f64;
    let window_deliveries = lib.delivered_total as f64;
    let event = |name: &str| {
        lib.events
            .iter()
            .find(|(k, _)| *k == name)
            .map_or(0.0, |(_, v)| *v as f64)
    };
    let budget = Duration::from_secs_f64(if quick { 0.002 } else { seconds / 32.0 });
    let batch_m = lib.avg_batch_m.round().max(1.0) as usize;

    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    let mut set = |name: &str, value: f64| {
        let previous = values.insert(name.to_string(), value);
        assert!(previous.is_none(), "{name} measured twice");
    };

    // Counts: read from the run, exactly repeatable.
    let (all_msgs, all_bytes) = sends_with_prefix(&lib.sends, "");
    set(
        "net.wire_msgs_per_delivered_msg",
        ratio(all_msgs as f64, window_deliveries),
    );
    set(
        "net.wire_bytes_per_delivered_msg",
        ratio(all_bytes as f64, window_deliveries),
    );
    set("net.model_cpu_util_max", lib.cpu_util[0]);
    set("net.model_cpu_util_mean", lib.cpu_util[1]);
    set("net.model_durability_util_max", lib.durability_util_max);
    set(
        "net.fault_drops",
        lib.events
            .iter()
            .filter(|(k, _)| k.starts_with("chaos.dropped_"))
            .map(|(_, v)| *v)
            .sum::<u64>() as f64,
    );
    for (layer, prefix) in [
        ("abcast", "abcast."),
        ("consensus", "consensus."),
        ("rbcast", "rb."),
        ("mono", "mono."),
    ] {
        let (msgs, bytes) = sends_with_prefix(&lib.sends, prefix);
        set(
            &format!("{layer}.msgs_per_instance"),
            ratio(msgs as f64, lib.instances_per_proc),
        );
        set(
            &format!("{layer}.bytes_per_instance"),
            ratio(bytes as f64, lib.instances_per_proc),
        );
    }
    set("abcast.batch_m", lib.avg_batch_m);
    set("abcast.retransmits", event("abcast.retransmits"));
    let modular = spec.kind == StackKind::Modular;
    let catchup_ms = reference.rejoin_catchup_ns as f64 / 1e6;
    for (layer, present) in [("consensus", modular), ("mono", !modular)] {
        set(
            &format!("{layer}.round_changes"),
            event(&format!("{layer}.round_changes")),
        );
        set(
            &format!("{layer}.gap_requests"),
            event(&format!("{layer}.gap_requests")),
        );
        set(
            &format!("{layer}.rejoin_catchup_ms"),
            if present { catchup_ms } else { 0.0 },
        );
    }
    set(
        "fd.msgs_per_sim_s",
        ratio(
            sends_with_prefix(&lib.sends, "fd.").0 as f64,
            spec.window.as_secs_f64(),
        ),
    );
    set("fd.suspicions", event("fd.suspicions"));
    set(
        "core.admitted_share",
        ratio(
            lib.admitted_in_window as f64,
            spec.offered * spec.window.as_secs_f64(),
        ),
    );
    set(
        "core.allocs_per_delivered_msg",
        ratio(allocs.0 as f64, deliveries),
    );
    set(
        "core.alloc_bytes_per_delivered_msg",
        ratio(allocs.1 as f64, deliveries),
    );
    let tw = reference.trace_work.as_ref();
    set("trace.events_dropped", tw.map_or(0.0, |w| w.dropped as f64));

    // Spans: host time from the traced repetition.
    let cluster_self = of(SpanKind::ClusterRunUntil).self_ns as f64;
    let node_calls = sum(SpanKind::is_node, |k| k.calls);
    // The cluster calls on_start/on_message/on_timer and the harness;
    // on_request is called from inside the driver's span.
    let cluster_callbacks = node_calls - of(SpanKind::NodeOnRequest).calls as f64
        + sum(SpanKind::is_harness, |k| k.calls);
    set("net.cluster_self_share", ratio(cluster_self, run_ns));
    set(
        "net.cluster_self_ns_per_callback",
        ratio(cluster_self, cluster_callbacks),
    );
    for (layer, present) in [("framework", modular), ("mono", !modular)] {
        let mut handler = |name: &str, value: f64| {
            set(
                &format!("{layer}.{name}"),
                if present { value } else { 0.0 },
            );
        };
        handler(
            "handler_share",
            ratio(sum(SpanKind::is_node, |k| k.total_ns), run_ns),
        );
        handler("on_message_ns", of(SpanKind::NodeOnMessage).median_ns);
        handler("on_timer_ns", of(SpanKind::NodeOnTimer).median_ns);
        handler("on_request_ns", of(SpanKind::NodeOnRequest).median_ns);
        handler("calls_per_delivered_msg", ratio(node_calls, deliveries));
    }
    set(
        "chaos.oracle_share",
        ratio(of(SpanKind::Oracle).total_ns as f64, run_ns),
    );
    set(
        "core.driver_share",
        ratio(of(SpanKind::Driver).self_ns as f64, run_ns),
    );
    let [take_ns, decompose_ns, export_ns] = [
        SpanKind::TraceTake,
        SpanKind::TraceDecompose,
        SpanKind::TraceExport,
    ]
    .map(|k| of(k).total_ns as f64);
    // `trace.take` runs on every workload (it returns None when the
    // library's tracing is off); only the tracing workload does work.
    set(
        "trace.share",
        if tw.is_some() {
            ratio(take_ns + decompose_ns + export_ns, run_ns)
        } else {
            0.0
        },
    );
    set(
        "trace.decompose_us_per_sample",
        ratio(decompose_ns / 1e3, tw.map_or(0.0, |w| w.samples as f64)),
    );
    set(
        "trace.export_mb_per_s",
        ratio(tw.map_or(0.0, |w| w.export_bytes as f64) * 1e3, export_ns),
    );
    set(
        "core.span_overhead_share",
        traced_ns / median(&base_ns) - 1.0,
    );

    // Kernels: timed loops over one layer's public functions.
    set(
        "sim.queue_ns_per_event",
        kernels::queue_ns_per_event(budget),
    );
    let (encode, decode) = kernels::wire_ns_per_kib(budget, batch_m, spec.msg_size);
    set("net.wire_encode_ns_per_kib", encode);
    set("net.wire_decode_ns_per_kib", decode);
    set(
        "net.snapshot_fold_ns_per_msg",
        kernels::snapshot_fold_ns_per_msg(
            budget,
            batch_m,
            spec.msg_size,
            spec.stack().snapshot_interval.clamp(1, 64),
        ),
    );
    set(
        "framework.dispatch_ns_per_event",
        kernels::dispatch_ns_per_event(budget),
    );
    let (record, check) =
        kernels::oracle_costs(budget, reference.deliveries.min(ORACLE_KERNEL_CAP), spec.n);
    set("chaos.oracle_record_ns", record);
    set("chaos.oracle_check_ms", check);

    assert_eq!(
        values.len(),
        PER_LAYER.len(),
        "a metric outside PER_LAYER was measured"
    );
    PerLayerRun {
        gate,
        metrics: PER_LAYER
            .iter()
            .map(|m| {
                let value = values.get(m.name);
                (
                    m.name,
                    *value.unwrap_or_else(|| panic!("{} was not measured", m.name)),
                )
            })
            .collect(),
        spans: log,
    }
}
