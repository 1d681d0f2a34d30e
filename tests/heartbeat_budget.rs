//! Any message is a heartbeat.
//!
//! Both stacks' failure detectors time silence from the last message of
//! any kind that arrived from a peer, and their hosts heartbeat only
//! the links they sent nothing on within the heartbeat interval. So a
//! saturated run, whose links all carry protocol traffic every few
//! milliseconds, spends nothing on liveness it already proves: the
//! modular stack, whose processes all talk to each other, sends no
//! heartbeat at all, and the monolith heartbeats only between
//! followers, which talk to the coordinator alone. An idle cluster, in
//! which no link carries anything else, still heartbeats every link at
//! the configured rate, each at its own deadline: one interval after
//! the link last carried anything — half an interval on the links of
//! the coordinator every process waits on, which it times out at half
//! the timeout. Heartbeating every link regardless, as a detector that
//! ignores protocol traffic must, costs the saturated modular
//! coordinator ~4 % of its CPU.

use std::collections::BTreeMap;

use fortika::core::{build_nodes, Experiment, FdConfig, StackConfig, StackKind, Workload};
use fortika::fd::TRACE_STACK;
use fortika::net::{Cluster, ClusterConfig, Trace, TraceConfig, TraceData};
use fortika::sim::{VDur, VTime};

const HEARTBEAT: &str = "fd.heartbeat";

/// What a silence may run over one heartbeat interval: the CPU of the
/// tick that sends the heartbeat and of the handlers queued ahead of
/// it, on an otherwise idle process.
const TICK_CPU: VDur = VDur::millis(5);

/// The arrivals on each directed link `(src, dst)` — of messages of
/// kind `kind`, or of any kind — in trace order.
fn arrivals_by_link(trace: &Trace, kind: Option<&str>) -> BTreeMap<(u16, u16), Vec<VTime>> {
    let mut links: BTreeMap<_, Vec<_>> = BTreeMap::new();
    for e in &trace.events {
        if let TraceData::Deliver {
            src, dst, kind: k, ..
        } = e.data
        {
            if kind.is_none_or(|kind| kind == k) {
                let at = VTime::ZERO + VDur::nanos(e.at_ns);
                links.entry((src, dst)).or_default().push(at);
            }
        }
    }
    links
}

/// The longest gap between two consecutive arrivals in `arrivals`.
fn longest_gap(arrivals: &[VTime]) -> VDur {
    arrivals
        .windows(2)
        .map(|w| w[1].since(w[0]))
        .max()
        .unwrap_or(VDur::ZERO)
}

/// The directed links `(src, dst)` that carried heartbeats in
/// `[from, until)`, with their counts.
fn heartbeats_by_link(trace: &Trace, from: VTime, until: VTime) -> BTreeMap<(u16, u16), u64> {
    let mut links = BTreeMap::new();
    for e in &trace.events {
        if let TraceData::Send { src, dst, kind, .. } = e.data {
            if kind == HEARTBEAT && (from.as_nanos()..until.as_nanos()).contains(&e.at_ns) {
                *links.entry((src, dst)).or_insert(0) += 1;
            }
        }
    }
    links
}

#[test]
fn a_saturated_run_heartbeats_only_its_idle_links() {
    let n = 7;
    let fd = FdConfig::default();
    let interval = fd.heartbeat_interval;
    let (warmup, window) = (VDur::secs(1), VDur::secs(2));
    let per_idle_link = window.as_nanos() / interval.as_nanos();
    for kind in [StackKind::Modular, StackKind::Monolithic] {
        let label = kind.label();
        // The benchmark's saturated point: 16 KiB at four times
        // capacity, seven processes.
        let report = Experiment::builder(kind, n)
            .workload(Workload::constant_rate(2000.0, 16 * 1024))
            .seed(7)
            .warmup_secs(warmup.as_secs_f64())
            .measure_secs(window.as_secs_f64())
            .trace(TraceConfig::with_capacity(1 << 20))
            .build()
            .run();
        assert!(
            report.throughput_msgs_per_sec > 400.0,
            "{label}: {:.1} msgs/s is not saturation",
            report.throughput_msgs_per_sec
        );
        assert_eq!(report.counters.event("fd.suspicions"), 0, "{label}");
        let trace = report.trace.expect("tracing on");
        assert_eq!(trace.dropped, 0, "{label}: the ring must hold the run");
        let start = VTime::ZERO + warmup;
        let suspected = trace
            .events
            .iter()
            .any(|e| matches!(e.data, TraceData::Span { stack, .. } if stack == TRACE_STACK));
        assert!(!suspected, "{label}: a process was suspected");
        // Every link carries evidence well inside its timeout — half
        // of it on the coordinator's — its longest silence leaving more
        // than 25 ms of it unused.
        let arrivals = arrivals_by_link(&trace, None);
        assert_eq!(
            arrivals.len(),
            n * (n - 1),
            "{label}: a link carried nothing"
        );
        for (&(src, dst), at) in &arrivals {
            let longest = longest_gap(at);
            let timeout = if src == 0 {
                fd.coordinator_timeout()
            } else {
                fd.timeout
            };
            assert!(
                longest < timeout - VDur::millis(25),
                "{label}: ({src}, {dst}) was silent for {longest}, timeout {timeout}"
            );
        }
        let links = heartbeats_by_link(&trace, start, start + window);
        let total: u64 = links.values().sum();
        assert_eq!(
            total,
            report.counters.kind(HEARTBEAT).msgs,
            "{label}: the trace and the counters disagree"
        );
        match kind {
            // Every process rbcasts to every other: no link is idle.
            StackKind::Modular => assert!(links.is_empty(), "{label}: heartbeats on {links:?}"),
            // The coordinator, p0, exchanges a step and an ack with each
            // follower per instance; followers never talk to each other,
            // and heartbeat each other at the member interval.
            StackKind::Monolithic => {
                let followers = (1..n as u16)
                    .flat_map(|s| (1..n as u16).filter(move |&d| d != s).map(move |d| (s, d)));
                assert_eq!(
                    links.keys().copied().collect::<Vec<_>>(),
                    followers.collect::<Vec<_>>(),
                    "{label}: heartbeats off the follower-to-follower links"
                );
                // Exactly one per member interval: watching the
                // coordinator closely adds nothing to a loaded run.
                for (link, &count) in &links {
                    assert_eq!(
                        count, per_idle_link,
                        "{label}: {link:?} carried {count} heartbeats in {window}, \
                         not one per {interval}"
                    );
                }
            }
        }
    }
}

#[test]
fn an_idle_cluster_heartbeats_every_link_at_the_configured_rate() {
    let n = 3;
    let fd = FdConfig::default();
    // p0, the round-0 coordinator, paces its links at the coordinator
    // interval; every other process at the heartbeat interval.
    let interval_of = |src: u16| {
        if src == 0 {
            fd.coordinator_interval()
        } else {
            fd.heartbeat_interval
        }
    };
    let run = VDur::secs(2);
    // One message per link per interval, less what the ticks' own CPU
    // time adds to their spacing over the run.
    let per_link = |src: u16| run.as_nanos() / interval_of(src).as_nanos();
    let expected: u64 = (0..n as u16)
        .map(|src| (n - 1) as u64 * per_link(src))
        .sum();
    for kind in [StackKind::Modular, StackKind::Monolithic] {
        let label = kind.label();
        let nodes = build_nodes(kind, n, &StackConfig::default());
        let mut cfg = ClusterConfig::new(n, 7);
        cfg.trace = TraceConfig::with_capacity(1 << 16);
        let mut cluster = Cluster::new(cfg, nodes);
        cluster.run_idle(VTime::ZERO + run);
        let trace = cluster.take_trace().expect("tracing on");
        assert_eq!(trace.dropped, 0, "{label}: the ring must hold the run");
        // Each link is heartbeat at its own deadline: never twice
        // within its interval, and no link — the stacks' idle chatter
        // included — waits longer than its interval plus the sending
        // tick's CPU for evidence. Pacing on a fixed cadence left a
        // link that fell idle between two ticks silent for up to two
        // intervals.
        let heartbeats = arrivals_by_link(&trace, Some(HEARTBEAT));
        assert_eq!(
            heartbeats.len(),
            n * (n - 1),
            "{label}: a link got no heartbeat"
        );
        for (&(src, dst), at) in &heartbeats {
            let interval = interval_of(src);
            for w in at.windows(2) {
                assert!(
                    w[1].since(w[0]) >= interval,
                    "{label}: ({src}, {dst}) heartbeats at {} and {}",
                    w[0],
                    w[1]
                );
            }
            // The idle chatter stands in for a heartbeat or two, and
            // the first tick may come up to an interval late.
            let count = at.len() as u64;
            assert!(
                (per_link(src) - 2..=per_link(src) + 1).contains(&count),
                "{label}: ({src}, {dst}) carried {count} heartbeats in {run}, not one per \
                 {interval}"
            );
        }
        for (&(src, dst), at) in &arrivals_by_link(&trace, None) {
            let longest = longest_gap(at);
            assert!(
                longest <= interval_of(src) + TICK_CPU,
                "{label}: ({src}, {dst}) was silent for {longest}"
            );
        }
        let counters = cluster.counters();
        let heartbeats = counters.kind(HEARTBEAT).msgs;
        // The stacks' own idle chatter (the modular stack opens one
        // empty instance) stands in for at most one heartbeat each.
        let others: u64 = counters
            .iter_sends()
            .filter(|&(kind, _)| kind != HEARTBEAT)
            .map(|(_, sent)| sent.msgs)
            .sum();
        assert!(others * 10 < expected, "{label}: {others} other messages");
        assert!(
            (heartbeats + others) * 100 >= expected * 95 && heartbeats <= expected + 2,
            "{label}: {heartbeats} heartbeats and {others} other messages in {run}, \
             expected about {expected} in all"
        );
        assert_eq!(counters.event("fd.suspicions"), 0, "{label}");
    }
}
