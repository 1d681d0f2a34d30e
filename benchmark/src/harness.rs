//! Runs one repetition of a workload from the same public pieces
//! `Experiment::run` uses, behind one tee [`Harness`] that can see every
//! adeliver instant.
//!
//! A repetition is: build the stacks and the cluster, schedule the
//! fault timeline, run warm-up → window → drain, and (on the tracing
//! workload) take the trace, decompose every latency sample and render
//! both exports. Its host time is the wall time of exactly that.
//! Everything derived afterwards (gap, catch-up, failed messages) is
//! outside the timed region.

use std::hint::black_box;
use std::time::Instant;

use bytes::Bytes;
use fortika::chaos::{DeliveryOracle, OracleReport};
use fortika::core::workload::{LatencySample, WindowStats, WorkloadDriver};
use fortika::core::{build_nodes_with_windows, node_factory};
use fortika::net::{
    Admission, AppRequest, Cluster, ClusterApi, ClusterConfig, ConfigStamp, Counters, Delivery,
    Harness, MsgId, Node, NodeCtx, ProcessId, SnapshotStamp, TimerId,
};
use fortika::sim::{VDur, VTime};
use fortika::trace::{decompose_window, LatencyDecomposition, WindowSpec};

use crate::metrics;
use crate::spans::{SpanKind, Spans};
use crate::workloads::Spec;

/// One accepted `abcast`: which message, which incarnation of its
/// sender admitted it, and when.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Admitted {
    /// The message.
    pub id: MsgId,
    /// Incarnation of the sender at admission.
    pub incarnation: u32,
    /// Virtual instant of the callback that submitted it.
    pub at: VTime,
}

/// One adeliver event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivered {
    /// Virtual instant of the adeliver.
    pub at: VTime,
    /// The delivering process.
    pub pid: ProcessId,
    /// The delivered message.
    pub id: MsgId,
}

/// A [`Node`] that records a span around every callback of the stack
/// it wraps. Installed only in the traced repetition.
struct SpanNode {
    inner: Box<dyn Node>,
    pid: u16,
    spans: Spans,
}

impl Node for SpanNode {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        let SpanNode { inner, pid, spans } = self;
        spans.span(SpanKind::NodeOnStart, *pid, || inner.on_start(ctx));
    }

    fn on_message(&mut self, ctx: &mut NodeCtx<'_>, from: ProcessId, bytes: Bytes) {
        let SpanNode { inner, pid, spans } = self;
        spans.span(SpanKind::NodeOnMessage, *pid, || {
            inner.on_message(ctx, from, bytes)
        });
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, timer: TimerId, tag: u64) {
        let SpanNode { inner, pid, spans } = self;
        spans.span(SpanKind::NodeOnTimer, *pid, || {
            inner.on_timer(ctx, timer, tag)
        });
    }

    fn on_request(&mut self, ctx: &mut NodeCtx<'_>, req: AppRequest) -> Admission {
        let SpanNode { inner, pid, spans } = self;
        spans.span(SpanKind::NodeOnRequest, *pid, || inner.on_request(ctx, req))
    }
}

/// Wraps `node` in a [`SpanNode`] when recording, else returns it as is.
fn wrap(node: Box<dyn Node>, pid: ProcessId, spans: &Spans) -> Box<dyn Node> {
    if spans.enabled() {
        Box::new(SpanNode {
            inner: node,
            pid: pid.0,
            spans: spans.clone(),
        })
    } else {
        node
    }
}

/// True if p0, having just admitted a message at `at` (the `admitted`-th
/// of the run), is to crash (see `Spec::crash_window`): inside the
/// window if the system is quiescent — every earlier message adelivered
/// by every process — and after it regardless.
fn crash_now(window: Option<(VTime, VTime)>, at: VTime, delivered: &[u64], admitted: u64) -> bool {
    window.is_some_and(|(from, until)| {
        at >= until || (at >= from && delivered.iter().all(|d| d + 1 == admitted))
    })
}

/// The tee: forwards every callback to the workload driver, feeds the
/// oracle when one is attached, and keeps the delivery log, the
/// admission log and the restart instants.
struct Tee {
    driver: WorkloadDriver,
    oracle: Option<DeliveryOracle>,
    spans: Spans,
    log: Vec<Delivered>,
    admissions: Vec<Admitted>,
    restarts: Vec<(ProcessId, VTime)>,
    /// When to crash p0 at an admission (see `Spec::crash_window`);
    /// cleared once done.
    crash_window: Option<(VTime, VTime)>,
    /// Adeliver events per process and accepted abcasts so far: enough
    /// to tell whether the system is quiescent.
    delivered: Vec<u64>,
    admitted: u64,
}

impl Tee {
    /// Moves the ids the driver just got accepted into the admission
    /// log (and arms the oracle's unknown-delivery check with them).
    fn sync_admissions(&mut self, api: &mut ClusterApi<'_>) {
        let at = api.now();
        for id in self.driver.drain_accepted_ids() {
            self.admissions.push(Admitted {
                id,
                incarnation: api.incarnation(id.sender),
                at,
            });
            if let Some(oracle) = self.oracle.as_mut() {
                oracle.note_submission(id);
            }
            self.admitted += 1;
            let crash = id.sender == ProcessId(0)
                && crash_now(self.crash_window, at, &self.delivered, self.admitted);
            if crash {
                // The admitting handler's sends are still in the NIC:
                // crashing now loses them all.
                api.crash(ProcessId(0));
                self.crash_window = None;
            }
        }
    }

    /// Runs `f` on the oracle inside an `oracle` span, if one is attached.
    fn with_oracle(&mut self, f: impl FnOnce(&mut DeliveryOracle)) {
        let Tee { oracle, spans, .. } = self;
        if let Some(oracle) = oracle.as_mut() {
            spans.span(SpanKind::Oracle, 0, || f(oracle));
        }
    }

    /// Runs `f` on the driver inside a `driver` span, then collects what
    /// it got admitted.
    fn with_driver(
        &mut self,
        api: &mut ClusterApi<'_>,
        f: impl FnOnce(&mut WorkloadDriver, &mut ClusterApi<'_>),
    ) {
        let Tee { driver, spans, .. } = self;
        spans.span(SpanKind::Driver, 0, || f(driver, api));
        self.sync_admissions(api);
    }
}

impl Harness for Tee {
    fn on_delivery(&mut self, api: &mut ClusterApi<'_>, pid: ProcessId, d: Delivery, at: VTime) {
        let spans = self.spans.clone();
        spans.span(SpanKind::HarnessOnDelivery, 0, || {
            self.with_oracle(|o| o.record(pid, d.msg, at));
            self.log.push(Delivered { at, pid, id: d.msg });
            self.delivered[pid.index()] += 1;
            self.with_driver(api, |drv, api| drv.on_delivery(api, pid, d, at));
        });
    }

    fn on_app_ready(&mut self, api: &mut ClusterApi<'_>, pid: ProcessId, at: VTime) {
        let spans = self.spans.clone();
        spans.span(SpanKind::HarnessOnAppReady, 0, || {
            self.with_driver(api, |drv, api| drv.on_app_ready(api, pid, at));
        });
    }

    fn on_tick(&mut self, api: &mut ClusterApi<'_>, tick: u64, at: VTime) {
        let spans = self.spans.clone();
        spans.span(SpanKind::HarnessOnTick, 0, || {
            self.with_driver(api, |drv, api| drv.on_tick(api, tick, at));
        });
    }

    fn on_restart(&mut self, api: &mut ClusterApi<'_>, pid: ProcessId, at: VTime) {
        let spans = self.spans.clone();
        spans.span(SpanKind::HarnessOnRestart, 0, || {
            self.restarts.push((pid, at));
            self.with_oracle(|o| o.note_restart(pid));
            self.with_driver(api, |drv, api| drv.on_restart(api, pid, at));
        });
    }

    fn on_snapshot(
        &mut self,
        _api: &mut ClusterApi<'_>,
        pid: ProcessId,
        stamp: SnapshotStamp,
        _at: VTime,
    ) {
        if self.oracle.is_some() {
            let spans = self.spans.clone();
            spans.span(SpanKind::HarnessOnSnapshot, 0, || {
                self.with_oracle(|o| o.note_snapshot(pid, &stamp));
            });
        }
    }

    fn on_config(
        &mut self,
        _api: &mut ClusterApi<'_>,
        pid: ProcessId,
        stamp: ConfigStamp,
        _at: VTime,
    ) {
        // No workload reconfigures; forwarded so the oracle stays sound
        // if one ever does.
        self.with_oracle(|o| o.note_config(pid, stamp));
    }
}

/// Per-process resource clocks at one instant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Busy {
    /// Modelled CPU busy time per process.
    pub cpu: Vec<VDur>,
    /// Modelled durability time per process (a subset of `cpu`).
    pub durability: Vec<VDur>,
}

impl Busy {
    fn read(cluster: &Cluster, n: usize) -> Busy {
        Busy {
            cpu: ProcessId::all(n).map(|p| cluster.cpu_busy(p)).collect(),
            durability: ProcessId::all(n)
                .map(|p| cluster.durability_busy(p))
                .collect(),
        }
    }
}

/// What the library's tracer produced on the tracing workload.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceWork {
    /// Events retained in the ring.
    pub events: u64,
    /// Events evicted from the ring.
    pub dropped: u64,
    /// Latency samples decomposed.
    pub samples: u64,
    /// Bytes of JSONL + Chrome JSON rendered.
    pub export_bytes: u64,
    /// Mean total of the decomposition (ms): ties the decomposition to
    /// the run so it cannot be optimised into a no-op unnoticed.
    pub decomposed_total_mean_ms: f64,
}

/// An audited repetition: the oracle, what it was asked, what it found.
pub struct Audited {
    /// The oracle, holding every process's delivery log.
    pub oracle: DeliveryOracle,
    /// The processes that are correct at the end of the run.
    pub correct: Vec<ProcessId>,
    /// The messages that had to be adelivered (see
    /// `metrics::must_deliver`).
    pub must: Vec<MsgId>,
    /// Safety of the whole log, plus validity of `must`.
    pub report: OracleReport,
}

/// Everything one repetition observed, before any metric is derived.
pub struct Raw {
    /// Wall time of the repetition, nanoseconds.
    pub host_ns: u64,
    /// The driver's window statistics (with the per-message sample log).
    pub stats: WindowStats,
    /// Every adeliver, in notification order.
    pub log: Vec<Delivered>,
    /// Every accepted abcast.
    pub admissions: Vec<Admitted>,
    /// Every restart.
    pub restarts: Vec<(ProcessId, VTime)>,
    /// Counter deltas over the window.
    pub window_counters: Counters,
    /// Resource clocks at window start.
    pub busy_start: Busy,
    /// Resource clocks at window end.
    pub busy_end: Busy,
    /// Per process at the end of the run: `Some(incarnation)` if alive.
    pub survivors: Vec<Option<u32>>,
    /// The oracle's findings, when the repetition was audited.
    pub audit: Option<Audited>,
    /// Tracer output (tracing workload only).
    pub trace_work: Option<TraceWork>,
}

/// Runs one repetition of `spec` with inputs made from `seed`.
///
/// `oracle` attaches the delivery oracle (recording every adeliver and
/// checking the log at the end, inside the timed region); `spans`
/// records host-time spans around every layer boundary.
pub fn run_rep(spec: &Spec, seed: u64, oracle: bool, spans: &Spans) -> Raw {
    let started = Instant::now();
    let mut raw = spans.span(SpanKind::Run, 0, || run_inner(spec, seed, oracle, spans));
    raw.host_ns = started.elapsed().as_nanos() as u64;
    raw
}

fn run_inner(spec: &Spec, seed: u64, oracle: bool, spans: &Spans) -> Raw {
    let n = spec.n;
    let scenario = spec.scenario();
    let stack = spec.stack();
    let windows = scenario
        .as_ref()
        .map(|s| s.suspicion_windows())
        .unwrap_or_default();

    let mut cluster_cfg = ClusterConfig::new(n, seed);
    cluster_cfg.cost = spec.cost();
    cluster_cfg.trace = spec.trace();
    let nodes = build_nodes_with_windows(spec.kind, n, &stack, &windows)
        .into_iter()
        .zip(ProcessId::all(n))
        .map(|(node, pid)| wrap(node, pid, spans))
        .collect();
    let mut cluster = Cluster::new(cluster_cfg, nodes);
    if let Some(scenario) = &scenario {
        let mut rebuild = node_factory(spec.kind, n, stack.clone(), windows.clone());
        let factory_spans = spans.clone();
        cluster.set_node_factory(Box::new(move |pid, now, stable| {
            wrap(rebuild(pid, now, stable), pid, &factory_spans)
        }));
        scenario.apply(&mut cluster);
    }

    let window_start = VTime::ZERO + spec.window_start();
    let window_end = VTime::ZERO + spec.window_end();
    let mut driver = WorkloadDriver::with_seed(spec.workload(), n, window_start, window_end, seed);
    // Exact percentiles need the per-message observations; the library
    // histogram has ~1.5 % buckets.
    driver.enable_sample_log();
    driver.start(&mut cluster);
    let mut tee = Tee {
        driver,
        oracle: oracle.then(|| DeliveryOracle::new(n)),
        spans: spans.clone(),
        log: Vec::new(),
        admissions: Vec::new(),
        restarts: Vec::new(),
        crash_window: spec
            .crash_window()
            .map(|(from, until)| (VTime::ZERO + from, VTime::ZERO + until)),
        delivered: vec![0; n],
        admitted: 0,
    };

    let run_until = |cluster: &mut Cluster, tee: &mut Tee, until: VTime| {
        spans.span(SpanKind::ClusterRunUntil, 0, || {
            cluster.run_until(until, tee)
        });
    };
    run_until(&mut cluster, &mut tee, window_start);
    let counters_start = cluster.counters().clone();
    let busy_start = Busy::read(&cluster, n);
    run_until(&mut cluster, &mut tee, window_end);
    let window_counters = cluster.counters().delta_since(&counters_start);
    let busy_end = Busy::read(&cluster, n);
    run_until(&mut cluster, &mut tee, VTime::ZERO + spec.end_of_run());

    let trace = spans.span(SpanKind::TraceTake, 0, || cluster.take_trace());
    let survivors: Vec<Option<u32>> = ProcessId::all(n)
        .map(|p| cluster.alive(p).then(|| cluster.incarnation(p)))
        .collect();
    let Tee {
        driver,
        oracle,
        log,
        admissions,
        restarts,
        ..
    } = tee;
    let stats = driver.finish();

    let trace_work = trace.map(|trace| {
        let decomposition = spans.span(SpanKind::TraceDecompose, 0, || {
            let samples: Vec<_> = stats
                .samples
                .iter()
                .map(|s| decompose_window(&trace.events, &window_of(s)))
                .collect();
            LatencyDecomposition::from_samples(&samples)
        });
        let export_bytes = spans.span(SpanKind::TraceExport, 0, || {
            // One after the other, as a caller writing each to disk
            // would: the two renderings never coexist.
            let jsonl = black_box(trace.to_jsonl()).len();
            let chrome = black_box(trace.to_chrome_json()).len();
            (jsonl + chrome) as u64
        });
        TraceWork {
            events: trace.events.len() as u64,
            dropped: trace.dropped,
            samples: decomposition.samples as u64,
            export_bytes,
            decomposed_total_mean_ms: decomposition.total.mean_ms,
        }
    });

    let audit = oracle.map(|oracle| {
        let correct = scenario
            .as_ref()
            .map(|s| s.correct(n))
            .unwrap_or_else(|| ProcessId::all(n).collect());
        let must = metrics::must_deliver(&admissions, window_end, &survivors);
        let report = spans.span(SpanKind::Oracle, 0, || {
            oracle.check_with_validity(&correct, &must)
        });
        Audited {
            oracle,
            correct,
            must,
            report,
        }
    });

    Raw {
        host_ns: 0,
        stats,
        log,
        admissions,
        restarts,
        window_counters,
        busy_start,
        busy_end,
        survivors,
        audit,
        trace_work,
    }
}

fn window_of(s: &LatencySample) -> WindowSpec {
    WindowSpec {
        pid: s.earliest_pid.0,
        t0_ns: s.t0.as_nanos(),
        te_ns: s.earliest.as_nanos(),
    }
}
