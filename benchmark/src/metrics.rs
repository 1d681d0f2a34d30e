//! Metric definitions and the modelled (virtual-clock) numbers derived
//! from one repetition's raw observations.
//!
//! Everything here is a pure function of the run, so it must come out
//! bit-identical on every repetition of one seed — [`Model`] is the
//! fingerprint the correctness gate compares.

use std::collections::{BTreeSet, HashMap};

use fortika::chaos::{OracleReport, Violation};
use fortika::net::{Counters, MsgId, ProcessId};
use fortika::sim::{VDur, VTime};

use crate::harness::{Admitted, Delivered, Raw, TraceWork};
use crate::stats::percentile_sorted;
use crate::workloads::Spec;

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// `"lower"` / `"higher"`, as in `BENCHMARK.json`.
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: something a user of the system would see.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the baseline median by which the metric may get worse
    /// before a change counts as a regression.
    pub bound: f64,
    /// Measured on the host clock (repeats with noise) rather than the
    /// virtual clock (repeats exactly).
    pub host: bool,
}

/// The end-to-end metrics, in reporting order. Bounds are sized for
/// comparing *medians over seeds* on a shared two-core box: one seed
/// repeats a modelled metric exactly, but a different seed moves it by
/// the Poisson noise of the inputs and the protocol state the crash
/// happens to catch, and host metrics move with the neighbours. Each
/// bound is about three times the widest inter-quartile spread seen
/// over ten seeds on any workload.
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        host: true,
    },
    EndToEnd {
        name: "model_latency_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.1,
        host: false,
    },
    EndToEnd {
        name: "model_latency_p99_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.15,
        host: false,
    },
    EndToEnd {
        name: "model_throughput_msgs_s",
        unit: "msgs/s",
        better: Better::Higher,
        bound: 0.1,
        host: false,
    },
    EndToEnd {
        name: "model_max_delivery_gap_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        host: false,
    },
    EndToEnd {
        name: "host_us_per_delivered_msg",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        host: true,
    },
    EndToEnd {
        name: "host_peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.25,
        host: true,
    },
];

/// How a per-layer number is obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LayerKind {
    /// Host time from the traced repetition's spans.
    Span,
    /// A timed loop over the layer's public functions.
    Kernel,
    /// Read from the run; repeats exactly.
    Count,
}

impl LayerKind {
    /// `"span"` / `"kernel"` / `"count"`.
    pub fn label(self) -> &'static str {
        match self {
            LayerKind::Span => "span",
            LayerKind::Kernel => "kernel",
            LayerKind::Count => "count",
        }
    }
}

/// A single-layer metric and the end-to-end metric it should move.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// `layer.metric`; the layer is a crate name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Span, kernel or count.
    pub kind: LayerKind,
    /// Which end-to-end metric it should move, and on which workloads;
    /// on the others the prediction is no change.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    kind: LayerKind,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        kind,
        moves,
    }
}

use Better::{Higher, Lower};
use LayerKind::{Count, Kernel, Span};

const HOST_ALL: &str = "host_us_per_delivered_msg everywhere, most on *-sat-16k-n7";
const HOST_SAT: &str = "host_us_per_delivered_msg on *-sat-16k-n7; not on *-steady-1k";
const HOST_CRASH: &str = "host_us_per_delivered_msg on *-crash-1k";
const HOST_MODULAR: &str = "host_us_per_delivered_msg on modular-*; 0 on mono-*";
const HOST_MONO: &str = "host_us_per_delivered_msg on mono-*; 0 on modular-*";
const HOST_TRACING: &str =
    "host_us_per_delivered_msg, host_peak_rss_mib on modular-steady-1k-tracing only";
const MSGS_MODULAR: &str = "model_latency_p50_ms on modular-steady-1k";
const BYTES_MODULAR: &str = "model_throughput_msgs_s on modular-sat-16k-n7";
const RECOVERY_MODULAR: &str =
    "model_max_delivery_gap_ms, model_latency_p99_ms on modular-crash-1k; 0 on fault-free workloads";
const RECOVERY_MONO: &str =
    "model_max_delivery_gap_ms, model_latency_p99_ms on mono-crash-1k; 0 on fault-free workloads";

/// The per-layer metrics, in reporting order. A layer that does not
/// exist on a workload (`framework.*` on `mono-*`, `mono.*` on
/// `modular-*`, `trace.*` off the tracing workload) reports 0.
pub const PER_LAYER: [PerLayer; 53] = [
    layer("sim.queue_ns_per_event", "ns", Lower, Kernel, "host_us_per_delivered_msg on *-steady-1k"),
    layer("net.cluster_self_share", "ratio", Lower, Span, HOST_ALL),
    layer("net.cluster_self_ns_per_callback", "ns", Lower, Span, HOST_ALL),
    layer("net.wire_encode_ns_per_kib", "ns/KiB", Lower, Kernel, HOST_SAT),
    layer("net.wire_decode_ns_per_kib", "ns/KiB", Lower, Kernel, HOST_SAT),
    layer("net.snapshot_fold_ns_per_msg", "ns", Lower, Kernel, HOST_CRASH),
    layer("net.wire_msgs_per_delivered_msg", "count", Lower, Count,
        "model_throughput_msgs_s on *-sat-16k-n7, model_latency_p50_ms on *-steady-1k, host everywhere"),
    layer("net.wire_bytes_per_delivered_msg", "bytes", Lower, Count,
        "model_throughput_msgs_s on *-sat-16k-n7, host everywhere"),
    layer("net.model_cpu_util_max", "ratio", Lower, Count,
        "as it nears 1, model_latency_p99_ms rises before model_throughput_msgs_s stops rising"),
    layer("net.model_cpu_util_mean", "ratio", Lower, Count,
        "as it nears 1, model_latency_p99_ms rises before model_throughput_msgs_s stops rising"),
    layer("net.model_durability_util_max", "ratio", Lower, Count,
        "model_latency_p50_ms on *-crash-1k (only priced there)"),
    layer("net.fault_drops", "count", Lower, Count, "wasted work on *-crash-1k; 0 elsewhere"),
    layer("framework.handler_share", "ratio", Lower, Span, HOST_MODULAR),
    layer("framework.on_message_ns", "ns", Lower, Span, HOST_MODULAR),
    layer("framework.on_timer_ns", "ns", Lower, Span, HOST_MODULAR),
    layer("framework.on_request_ns", "ns", Lower, Span, HOST_MODULAR),
    layer("framework.calls_per_delivered_msg", "count", Lower, Span, HOST_MODULAR),
    layer("framework.dispatch_ns_per_event", "ns", Lower, Kernel,
        "host_us_per_delivered_msg on modular-steady-1k"),
    layer("mono.handler_share", "ratio", Lower, Span, HOST_MONO),
    layer("mono.on_message_ns", "ns", Lower, Span, HOST_MONO),
    layer("mono.on_timer_ns", "ns", Lower, Span, HOST_MONO),
    layer("mono.on_request_ns", "ns", Lower, Span, HOST_MONO),
    layer("mono.calls_per_delivered_msg", "count", Lower, Span, HOST_MONO),
    layer("abcast.msgs_per_instance", "count", Lower, Count, MSGS_MODULAR),
    layer("abcast.bytes_per_instance", "bytes", Lower, Count, BYTES_MODULAR),
    layer("abcast.batch_m", "msgs", Higher, Count,
        "larger M raises model_throughput_msgs_s on modular-sat-16k-n7 and delays a batch's first message on *-steady-1k"),
    layer("abcast.retransmits", "count", Lower, Count, RECOVERY_MODULAR),
    layer("consensus.msgs_per_instance", "count", Lower, Count, MSGS_MODULAR),
    layer("consensus.bytes_per_instance", "bytes", Lower, Count, BYTES_MODULAR),
    layer("consensus.round_changes", "count", Lower, Count, RECOVERY_MODULAR),
    layer("consensus.gap_requests", "count", Lower, Count, RECOVERY_MODULAR),
    layer("consensus.rejoin_catchup_ms", "ms", Lower, Count, RECOVERY_MODULAR),
    layer("rbcast.msgs_per_instance", "count", Lower, Count,
        "model_throughput_msgs_s on modular-sat-16k-n7 (O(n^2) fan-out)"),
    layer("rbcast.bytes_per_instance", "bytes", Lower, Count, BYTES_MODULAR),
    layer("mono.msgs_per_instance", "count", Lower, Count, "model_latency_p50_ms on mono-steady-1k"),
    layer("mono.bytes_per_instance", "bytes", Lower, Count, "model_throughput_msgs_s on mono-sat-16k-n7"),
    layer("mono.round_changes", "count", Lower, Count, RECOVERY_MONO),
    layer("mono.gap_requests", "count", Lower, Count, RECOVERY_MONO),
    layer("mono.rejoin_catchup_ms", "ms", Lower, Count, RECOVERY_MONO),
    layer("fd.msgs_per_sim_s", "1/s", Lower, Count, "host_us_per_delivered_msg on *-n7"),
    layer("fd.suspicions", "count", Lower, Count,
        "model_max_delivery_gap_ms on *-crash-1k; 0 on fault-free workloads"),
    layer("chaos.oracle_share", "ratio", Lower, Span, HOST_CRASH),
    layer("chaos.oracle_record_ns", "ns", Lower, Kernel, HOST_CRASH),
    layer("chaos.oracle_check_ms", "ms", Lower, Kernel, HOST_CRASH),
    layer("trace.share", "ratio", Lower, Span, HOST_TRACING),
    layer("trace.decompose_us_per_sample", "us", Lower, Span, HOST_TRACING),
    layer("trace.export_mb_per_s", "MB/s", Higher, Span, HOST_TRACING),
    layer("trace.events_dropped", "count", Lower, Count, HOST_TRACING),
    layer("core.driver_share", "ratio", Lower, Span, HOST_ALL),
    layer("core.admitted_share", "ratio", Higher, Count,
        "~1 on *-steady-1k (open loop), <0.5 on *-sat-16k-n7 (back-pressured); a drop on steady means model_throughput_msgs_s fell"),
    layer("core.allocs_per_delivered_msg", "count", Lower, Count,
        "host_us_per_delivered_msg, host_peak_rss_mib; largest on *-sat-16k-n7"),
    layer("core.alloc_bytes_per_delivered_msg", "bytes", Lower, Count,
        "host_us_per_delivered_msg, host_peak_rss_mib; largest on *-sat-16k-n7"),
    layer("core.span_overhead_share", "ratio", Lower, Span,
        "none: it is the cost of the benchmark's own spans"),
];

/// Message ids named by oracle violations (a violation that names no
/// message contributes nothing here; it is counted on its own).
pub fn violation_ids(violations: &[Violation]) -> BTreeSet<MsgId> {
    let mut ids = BTreeSet::new();
    for v in violations {
        match v {
            Violation::DuplicateDelivery { id, .. }
            | Violation::UnknownDelivery { id, .. }
            | Violation::MissingDelivery { id } => {
                ids.insert(*id);
            }
            Violation::Disagreement { expected, got, .. } => {
                ids.extend(expected.iter().chain(got.iter()).copied());
            }
            Violation::NonPrefixLog { .. }
            | Violation::ReplayDivergence { .. }
            | Violation::SnapshotDivergence { .. }
            | Violation::ConfigDivergence { .. } => {}
        }
    }
    ids
}

/// Position of every message in the order of first adeliver anywhere —
/// the common order, given that the oracle found total order intact.
fn first_delivery_positions(sorted_log: &[Delivered]) -> HashMap<MsgId, u32> {
    let mut pos = HashMap::new();
    for d in sorted_log {
        let next = pos.len() as u32;
        pos.entry(d.id).or_insert(next);
    }
    pos
}

/// Messages that must be adelivered: admitted no later than `cutoff`
/// by a sender incarnation that is still alive at the end of the run.
/// A message whose sender crashed afterwards is exempt — atomic
/// broadcast promises nothing for it — and so is one admitted during
/// the drain, which the run ends too early to see through.
/// `survivors[p]` is `Some(incarnation)` if `p` is alive at the end.
pub fn must_deliver(
    admissions: &[Admitted],
    cutoff: VTime,
    survivors: &[Option<u32>],
) -> Vec<MsgId> {
    admissions
        .iter()
        .filter(|a| a.at <= cutoff && survivors[a.id.sender.index()] == Some(a.incarnation))
        .map(|a| a.id)
        .collect()
}

/// The failed messages of an audited repetition: every must-deliver
/// message that some correct process had not adelivered by the end of
/// the run, plus every message an oracle violation names.
///
/// A correct process has adelivered (or holds in an installed snapshot)
/// everything up to its last delivery in the common order, so a message
/// counts as delivered everywhere when its position is at most the
/// smallest such last position over `correct`.
pub fn failed_messages(
    must: &[MsgId],
    report: &OracleReport,
    last_delivered: &[Option<MsgId>],
    correct: &[ProcessId],
) -> BTreeSet<MsgId> {
    let pos: HashMap<MsgId, usize> = report
        .common_order
        .iter()
        .enumerate()
        .map(|(i, id)| (*id, i))
        .collect();
    // Smallest last-delivered position over the correct processes;
    // `None` when one of them delivered nothing (or something outside
    // the common order), in which case nothing is delivered everywhere.
    let everywhere: Option<usize> = correct
        .iter()
        .map(|p| last_delivered[p.index()].and_then(|id| pos.get(&id).copied()))
        .min()
        .flatten();
    let mut failed = violation_ids(&report.violations);
    failed.extend(
        must.iter()
            .copied()
            .filter(|id| !matches!((pos.get(id), everywhere), (Some(&p), Some(e)) if p <= e)),
    );
    failed
}

/// Every delivery-free waiting stretch inside `window`, in nanoseconds:
/// the maximal intervals during which some admitted message was waiting
/// for its first adeliver and no process adelivered anything.
///
/// `deliveries` are adeliver instants (any order); `waiting` holds one
/// `(admitted, first adelivered)` interval per message. Idle stretches —
/// nothing admitted, so nothing to deliver — are not outages and are
/// left out; a stretch that straddles a window edge is cut at the edge.
pub fn waiting_stretches_ns(
    deliveries: &[u64],
    waiting: &[(u64, u64)],
    window: (u64, u64),
) -> Vec<u64> {
    let (lo, hi) = window;
    let mut cuts: Vec<u64> = deliveries
        .iter()
        .copied()
        .filter(|&t| t > lo && t < hi)
        .collect();
    cuts.sort_unstable();
    let mut spans: Vec<(u64, u64)> = waiting
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| a < b)
        .collect();
    spans.sort_unstable();
    let mut stretches = Vec::new();
    let mut next_cut = 0;
    let mut i = 0;
    while i < spans.len() {
        // Merge overlapping waiting intervals into one busy period.
        let (start, mut end) = spans[i];
        i += 1;
        while i < spans.len() && spans[i].0 <= end {
            end = end.max(spans[i].1);
            i += 1;
        }
        // Deliveries inside the period cut it into stretches.
        while next_cut < cuts.len() && cuts[next_cut] <= start {
            next_cut += 1;
        }
        let mut from = start;
        while next_cut < cuts.len() && cuts[next_cut] < end {
            stretches.push(cuts[next_cut] - from);
            from = cuts[next_cut];
            next_cut += 1;
        }
        stretches.push(end - from);
    }
    stretches
}

/// How many of the longest stretches `model_max_delivery_gap_ms`
/// averages. The single longest is an extreme-value statistic: over
/// twenty seeds its inter-quartile spread is 15 % of its median on
/// `modular-steady-1k` and 13 % on `mono-crash-1k` (where the failure
/// detector's heartbeat phase at the crash moves the one outage between
/// 450 and 575 ms); the mean of the 50 longest stays within 8 % on every
/// workload, and an outage twice as long still raises it by 40 % there.
pub const LONGEST_STRETCHES: usize = 50;

/// Mean of the [`LONGEST_STRETCHES`] longest of `stretches` (of all of
/// them when there are fewer; 0 when there are none): the service
/// outage on the fault workloads, about one consensus instance
/// elsewhere.
pub fn max_delivery_gap_ns(mut stretches: Vec<u64>) -> u64 {
    stretches.sort_unstable_by(|a, b| b.cmp(a));
    stretches.truncate(LONGEST_STRETCHES);
    match stretches.len() as u64 {
        0 => 0,
        k => stretches.iter().sum::<u64>() / k,
    }
}

/// Time from each restart until the restarted process has adelivered
/// as far as any other process had at that moment; the longest one, in
/// nanoseconds (0 with no restart, `u64::MAX` if it never caught up).
pub fn rejoin_catchup_ns(
    sorted_log: &[Delivered],
    restarts: &[(ProcessId, VTime)],
    n: usize,
) -> u64 {
    if restarts.is_empty() {
        return 0;
    }
    let pos = first_delivery_positions(sorted_log);
    let mut longest = 0;
    for &(pid, restarted_at) in restarts {
        let mut reached: Vec<Option<u32>> = vec![None; n];
        let mut caught_up = None;
        for d in sorted_log {
            let p = pos[&d.id];
            let slot = &mut reached[d.pid.index()];
            *slot = Some(slot.map_or(p, |q: u32| q.max(p)));
            if d.pid == pid && d.at >= restarted_at {
                let others = (0..n)
                    .filter(|&q| q != pid.index())
                    .filter_map(|q| reached[q])
                    .max();
                if others.is_none_or(|o| p >= o) {
                    caught_up = Some(d.at.since(restarted_at).as_nanos());
                    break;
                }
            }
        }
        longest = longest.max(caught_up.unwrap_or(u64::MAX));
    }
    longest
}

/// The numbers `Experiment::run` reports, recomputed from this
/// benchmark's own assembly of the run with the library's formulas.
///
/// The mean latency is left out: the library sums it in the order the
/// driver finalises samples, and samples still pending at the end of a
/// run (a crashed sender's, on the crash workloads) are finalised in
/// hash-map order, so its last bits differ between identical runs.
#[derive(Debug, Clone, PartialEq)]
pub struct LibraryNumbers {
    /// Histogram percentiles (ms): p50, p90, p99.
    pub latency_hist_ms: [f64; 3],
    /// Latency samples.
    pub samples: u64,
    /// T = (1/n) Σ adeliver rate.
    pub throughput: f64,
    /// Adeliver events in the window.
    pub delivered_total: u64,
    /// Messages admitted in the window.
    pub admitted_in_window: u64,
    /// Admitted in the window, never seen delivered.
    pub lost_samples: u64,
    /// Instances decided per process in the window.
    pub instances_per_proc: f64,
    /// Messages ordered per instance.
    pub avg_batch_m: f64,
    /// Protocol messages in the window, heartbeats excluded.
    pub msgs_in_window: u64,
    /// Protocol bytes in the window, heartbeats excluded.
    pub bytes_in_window: u64,
    /// Per-process CPU utilisation in the window: max, mean.
    pub cpu_util: [f64; 2],
    /// Highest per-process durability utilisation in the window.
    pub durability_util_max: f64,
    /// Window send counters: `(kind, msgs, bytes)`.
    pub sends: Vec<(&'static str, u64, u64)>,
    /// Window event counters: `(name, value)`.
    pub events: Vec<(&'static str, u64)>,
}

/// The send half of a counter table as comparable rows.
pub fn send_rows(c: &Counters) -> Vec<(&'static str, u64, u64)> {
    c.iter_sends().map(|(k, v)| (k, v.msgs, v.bytes)).collect()
}

fn utilisation(start: &[VDur], end: &[VDur], secs: f64) -> Vec<f64> {
    start
        .iter()
        .zip(end)
        .map(|(&s, &e)| (e.saturating_sub(s).as_secs_f64() / secs).clamp(0.0, 1.0))
        .collect()
}

impl LibraryNumbers {
    fn of(spec: &Spec, raw: &Raw) -> Self {
        let stats = &raw.stats;
        let window = &raw.window_counters;
        let n = spec.n as f64;
        let secs = spec.window.as_secs_f64();
        let throughput = stats
            .delivered_per_proc
            .iter()
            .map(|&c| c as f64 / secs)
            .sum::<f64>()
            / n;
        let decided = window.event("consensus.decided") as f64 / n;
        let delivered = window.event("abcast.delivered") as f64 / n;
        let cpu = utilisation(&raw.busy_start.cpu, &raw.busy_end.cpu, secs);
        let durability = utilisation(&raw.busy_start.durability, &raw.busy_end.durability, secs);
        LibraryNumbers {
            latency_hist_ms: [50.0, 90.0, 99.0].map(|q| stats.latency_hist.percentile(q)),
            samples: stats.latency_ms.count(),
            throughput,
            delivered_total: stats.delivered_per_proc.iter().sum(),
            admitted_in_window: stats.admitted,
            lost_samples: stats.lost_samples,
            instances_per_proc: decided,
            avg_batch_m: if decided > 0.0 {
                delivered / decided
            } else {
                0.0
            },
            msgs_in_window: window.total_msgs_excluding(|k| k.starts_with("fd.")),
            bytes_in_window: window
                .iter_sends()
                .filter(|(k, _)| !k.starts_with("fd."))
                .map(|(_, c)| c.bytes)
                .sum(),
            cpu_util: [
                cpu.iter().cloned().fold(0.0, f64::max),
                cpu.iter().sum::<f64>() / n,
            ],
            durability_util_max: durability.iter().cloned().fold(0.0, f64::max),
            sends: send_rows(window),
            events: window.iter_events().collect(),
        }
    }
}

/// Every virtual-clock number of one repetition. Two repetitions of
/// one seed must compare equal, spans and oracle on or off.
#[derive(Debug, Clone, PartialEq)]
pub struct Model {
    /// The library's own report, recomputed.
    pub library: LibraryNumbers,
    /// Exact median early latency, nanoseconds.
    pub latency_p50_ns: u64,
    /// Exact 99th-percentile early latency, nanoseconds.
    pub latency_p99_ns: u64,
    /// See [`max_delivery_gap_ns`] and [`waiting_stretches_ns`].
    pub max_gap_ns: u64,
    /// See [`rejoin_catchup_ns`].
    pub rejoin_catchup_ns: u64,
    /// Adeliver events in the whole repetition.
    pub deliveries: u64,
    /// Messages admitted up to the end of the window.
    pub attempted: u64,
    /// Per process at the end: `Some(incarnation)` if alive.
    pub survivors: Vec<Option<u32>>,
    /// Tracer output (tracing workload only).
    pub trace_work: Option<TraceWork>,
}

impl Model {
    /// Derives the modelled numbers of one repetition.
    pub fn of(spec: &Spec, raw: &Raw) -> Model {
        let mut latencies: Vec<u64> = raw
            .stats
            .samples
            .iter()
            .map(|s| s.earliest.since(s.t0).as_nanos())
            .collect();
        latencies.sort_unstable();
        let pct = |q| {
            if latencies.is_empty() {
                0
            } else {
                percentile_sorted(&latencies, q)
            }
        };
        let window = (spec.window_start().as_nanos(), spec.window_end().as_nanos());
        let deliveries: Vec<u64> = raw.log.iter().map(|d| d.at.as_nanos()).collect();
        let waiting: Vec<(u64, u64)> = raw
            .stats
            .samples
            .iter()
            .map(|s| (s.t0.as_nanos(), s.earliest.as_nanos()))
            .collect();
        let mut sorted_log = raw.log.clone();
        sorted_log.sort_by_key(|d| d.at);
        let cutoff = VTime::ZERO + spec.window_end();
        Model {
            library: LibraryNumbers::of(spec, raw),
            latency_p50_ns: pct(50.0),
            latency_p99_ns: pct(99.0),
            max_gap_ns: max_delivery_gap_ns(waiting_stretches_ns(&deliveries, &waiting, window)),
            rejoin_catchup_ns: rejoin_catchup_ns(&sorted_log, &raw.restarts, spec.n),
            deliveries: raw.log.len() as u64,
            attempted: raw.admissions.iter().filter(|a| a.at <= cutoff).count() as u64,
            survivors: raw.survivors.clone(),
            trace_work: raw.trace_work.clone(),
        }
    }
}

/// The outcome of auditing one repetition with the oracle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Audit {
    /// Oracle violations, rendered.
    pub violations: Vec<String>,
    /// Failed messages (see [`failed_messages`]) plus violations that
    /// name no message.
    pub failed: u64,
}

impl Audit {
    /// Audits an oracle-on repetition.
    ///
    /// # Panics
    ///
    /// Panics if the repetition ran without the oracle.
    pub fn of(raw: &Raw) -> Audit {
        let a = raw.audit.as_ref().expect("repetition ran with the oracle");
        let last: Vec<Option<MsgId>> = a
            .oracle
            .logs()
            .iter()
            .map(|log| log.last().map(|(id, _)| *id))
            .collect();
        let failed = failed_messages(&a.must, &a.report, &last, &a.correct);
        let unnamed = a
            .report
            .violations
            .iter()
            .filter(|v| violation_ids(std::slice::from_ref(v)).is_empty())
            .count();
        Audit {
            violations: a
                .report
                .violations
                .iter()
                .map(ToString::to_string)
                .collect(),
            failed: (failed.len() + unnamed) as u64,
        }
    }
}

/// Sum of `(msgs, bytes)` over the send kinds starting with `prefix`.
pub fn sends_with_prefix(sends: &[(&'static str, u64, u64)], prefix: &str) -> (u64, u64) {
    sends
        .iter()
        .filter(|(k, _, _)| k.starts_with(prefix))
        .fold((0, 0), |(m, b), (_, msgs, bytes)| (m + msgs, b + bytes))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(sender: u16, seq: u64) -> MsgId {
        MsgId::new(ProcessId(sender), seq)
    }

    fn at(ns: u64) -> VTime {
        VTime::from_nanos(ns)
    }

    #[test]
    fn tables_are_consistent() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "metric names are unique");
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert_eq!(END_TO_END[0].name, "setup_s");
        let largest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(
            END_TO_END[0].bound, largest,
            "setup_s has the largest bound"
        );
        for m in &PER_LAYER {
            let layer = m.name.split('.').next().unwrap();
            assert!(
                [
                    "sim",
                    "net",
                    "framework",
                    "mono",
                    "abcast",
                    "consensus",
                    "rbcast",
                    "fd",
                    "chaos",
                    "trace",
                    "core"
                ]
                .contains(&layer),
                "{} is not named after a crate",
                m.name
            );
        }
    }

    #[test]
    fn stretches_are_delivery_free_and_only_while_a_message_waits() {
        let window = (100, 1_000);
        let deliveries = [900, 150, 300, 1_500];
        let waiting = [
            (50, 150),    // straddles the window start: counts from 100
            (200, 300),   // 100 ns
            (250, 300),   // overlaps the previous one
            (600, 900),   // 300 ns
            (950, 1_500), // straddles the window end: counts up to 1 000
        ];
        // The idle stretch 300..600 (nothing admitted) is no outage.
        assert_eq!(
            waiting_stretches_ns(&deliveries, &waiting, window),
            vec![50, 100, 300, 50]
        );
        // A stretch that straddles the window edge counts for its part
        // inside only: admitted at 400, first delivered at 1 500.
        assert_eq!(
            waiting_stretches_ns(&[1_500], &[(400, 1_500)], window),
            vec![600]
        );
        assert!(waiting_stretches_ns(&[90], &[(20, 90)], window).is_empty());
        // One message waits 100..500 while others are delivered at 200
        // and 260: deliveries of other messages cut the stretch.
        assert_eq!(
            waiting_stretches_ns(&[200, 260, 500], &[(100, 500)], (0, 1_000)),
            vec![100, 60, 240]
        );
        // With nothing waiting there is no outage, whatever the log.
        assert!(waiting_stretches_ns(&[200, 260], &[], (0, 1_000)).is_empty());
    }

    #[test]
    fn gap_is_the_mean_of_the_longest_stretches() {
        assert_eq!(max_delivery_gap_ns(vec![]), 0);
        assert_eq!(max_delivery_gap_ns(vec![50, 100, 300, 50]), 125);
        // Only the LONGEST_STRETCHES longest count: one outage of
        // 1 000 among many short stretches.
        let mut stretches = vec![10; 500];
        stretches.push(1_000);
        let k = LONGEST_STRETCHES as u64;
        assert_eq!(max_delivery_gap_ns(stretches), (1_000 + 10 * (k - 1)) / k);
    }

    #[test]
    fn a_crashed_senders_last_message_is_exempt() {
        let admissions = [
            Admitted {
                id: id(0, 0),
                incarnation: 0,
                at: at(10),
            },
            // p0's last message before it crashed: never delivered.
            Admitted {
                id: id(0, 1),
                incarnation: 0,
                at: at(20),
            },
            // p0 again, after its restart.
            Admitted {
                id: id(0, 2),
                incarnation: 1,
                at: at(60),
            },
            Admitted {
                id: id(1, 0),
                incarnation: 0,
                at: at(30),
            },
            // Admitted during the drain: the run ends too early to tell.
            Admitted {
                id: id(1, 1),
                incarnation: 0,
                at: at(101),
            },
            // p2 crashed for good.
            Admitted {
                id: id(2, 0),
                incarnation: 0,
                at: at(40),
            },
        ];
        let survivors = [Some(1), Some(0), None];
        let must = must_deliver(&admissions, at(100), &survivors);
        assert_eq!(must, vec![id(0, 2), id(1, 0)]);

        let report = OracleReport {
            violations: vec![],
            deliveries: 0,
            common_order: vec![id(0, 0), id(1, 0), id(0, 2)],
        };
        let correct = [ProcessId(0), ProcessId(1)];
        // Both correct processes reached the end of the common order.
        let last = [Some(id(0, 2)), Some(id(0, 2)), None];
        assert!(failed_messages(&must, &report, &last, &correct).is_empty());
        // p1 stopped one short: p0's post-restart message has failed,
        // even though it is in the common order.
        let last = [Some(id(0, 2)), Some(id(1, 0)), None];
        let failed = failed_messages(&must, &report, &last, &correct);
        assert_eq!(failed.into_iter().collect::<Vec<_>>(), vec![id(0, 2)]);
        // Had the crashed sender's last message been owed, it would
        // have counted: it is nowhere in the common order.
        let owed = [id(0, 1)];
        let last = [Some(id(0, 2)), Some(id(0, 2)), None];
        assert_eq!(failed_messages(&owed, &report, &last, &correct).len(), 1);
    }

    #[test]
    fn messages_named_by_violations_have_failed() {
        let report = OracleReport {
            violations: vec![
                Violation::DuplicateDelivery {
                    process: ProcessId(1),
                    id: id(0, 0),
                },
                Violation::MissingDelivery { id: id(1, 5) },
                Violation::NonPrefixLog {
                    process: ProcessId(2),
                    index: 3,
                },
            ],
            deliveries: 0,
            common_order: vec![id(0, 0)],
        };
        let last = [Some(id(0, 0)), Some(id(0, 0))];
        let correct = [ProcessId(0), ProcessId(1)];
        let failed = failed_messages(&[id(0, 0)], &report, &last, &correct);
        assert_eq!(
            failed.into_iter().collect::<Vec<_>>(),
            vec![id(0, 0), id(1, 5)]
        );
        // A correct process that delivered nothing leaves everything owed.
        let failed = failed_messages(
            &[id(0, 0)],
            &OracleReport {
                violations: vec![],
                ..report
            },
            &[None, None],
            &correct,
        );
        assert_eq!(failed.len(), 1);
    }

    #[test]
    fn catch_up_ends_when_the_restarted_process_reaches_the_group() {
        let d = |ns, pid, seq| Delivered {
            at: at(ns),
            pid: ProcessId(pid),
            id: id(9, seq),
        };
        let mut log = vec![];
        for seq in 0..4 {
            log.push(d(1 + seq, 1, seq));
            log.push(d(1 + seq, 2, seq));
        }
        // p0 restarts at 10 and replays; the others move on meanwhile.
        log.extend([
            d(11, 0, 0),
            d(12, 0, 1),
            d(13, 0, 2),
            d(14, 0, 3),
            d(15, 0, 4),
        ]);
        log.extend([d(12, 1, 4), d(12, 2, 4)]);
        log.sort_by_key(|d| d.at);
        let restarts = [(ProcessId(0), at(10))];
        assert_eq!(rejoin_catchup_ns(&log, &restarts, 3), 5);
        assert_eq!(rejoin_catchup_ns(&log, &[], 3), 0);
        // Never caught up: the log ends with p0 still behind.
        let short: Vec<_> = log.iter().copied().filter(|d| d.at < at(15)).collect();
        assert_eq!(rejoin_catchup_ns(&short, &restarts, 3), u64::MAX);
    }

    #[test]
    fn sends_are_grouped_by_prefix() {
        let sends = [
            ("abcast.diffuse", 4, 400),
            ("consensus.ack", 2, 20),
            ("consensus.proposal", 1, 100),
        ];
        assert_eq!(sends_with_prefix(&sends, "consensus."), (3, 120));
        assert_eq!(sends_with_prefix(&sends, "rb."), (0, 0));
        assert_eq!(sends_with_prefix(&sends, ""), (7, 520));
    }
}
