//! Fail-over costs one detector timeout, not one progress timeout per
//! instance: once the survivors suspect a crashed coordinator, a message
//! submitted afterwards is ordered within a few round trips on both
//! stacks. The instance that carries it opens in a round whose
//! coordinator is already suspected and moves on at once; the progress
//! timeout (the liveness backstop) is never needed.
//!
//! And the outage costs a fixed amount, not an amount per instance: the
//! survivors promise the new coordinator's round once for every instance
//! they have not opened, so only the instances live at the suspicion pay
//! an estimate round, and every later one runs as round 0 did.
//!
//! An outage too short to suspect costs no message: what a sender
//! handed the coordinator while it was down is sent again once
//! [`RESEND_INTERVAL`] has passed.
//!
//! The coordinator each process waits on is timed out at
//! [`FdConfig::coordinator_timeout`], half the timeout every other peer
//! gets, and heartbeats its idle links at
//! [`FdConfig::coordinator_interval`]: a crashed coordinator costs half
//! the outage, and a new one is watched as closely from the hand-off
//! without ever being suspected for the slower pacing it had before.

use bytes::Bytes;
use fortika::chaos::Scenario;
use fortika::core::{build_nodes, scenario_cluster, FdConfig, StackConfig, StackKind};
use fortika::fd::TRACE_STACK;
use fortika::mono::MonoOptimizations;
use fortika::net::flow::RESEND_INTERVAL;
use fortika::net::metrics::{consensus, mono};
use fortika::net::{
    Admission, AppMsg, AppRequest, Cluster, ClusterConfig, CollectingHarness, Counters, MsgId,
    ProcessId, Trace, TraceConfig, TraceData,
};
use fortika::sim::{VDur, VTime};

/// A few round trips of the default cost model, with room to spare.
const FEW_ROUND_TRIPS: VDur = VDur::millis(25);

#[test]
fn a_message_submitted_after_the_coordinator_is_suspected_is_ordered_in_round_trips() {
    let n = 3;
    let fd = FdConfig::default();
    let p0 = ProcessId(0);
    let crash = VTime::ZERO + VDur::millis(150);
    // p0 coordinates, so its idle links carried a heartbeat within a
    // coordinator interval of the crash: the survivors suspect it one
    // coordinator timeout after that at the latest, a few round trips
    // before this.
    let submit_at = crash + fd.coordinator_timeout() + FEW_ROUND_TRIPS;
    for kind in [StackKind::Modular, StackKind::Monolithic] {
        let label = kind.label();
        let nodes = build_nodes(kind, n, &StackConfig::default());
        let mut cluster = Cluster::new(ClusterConfig::new(n, 7), nodes);
        cluster.schedule_crash(p0, crash);
        let mut harness = CollectingHarness::new(n);
        cluster.run_until(submit_at, &mut harness);
        assert_eq!(
            cluster.counters().event("fd.suspicions"),
            2,
            "{label}: both survivors suspect p0 before the submission"
        );

        let sender = ProcessId(1);
        let id = MsgId::new(sender, 0);
        let msg = AppMsg::new(id, Bytes::from_static(b"after the crash"));
        let (admission, t0) = cluster.submit(sender, AppRequest::Abcast(msg));
        assert_eq!(admission, Admission::Accepted, "{label}");
        cluster.run_until(submit_at + fd.timeout * 4, &mut harness);

        for p in [ProcessId(1), ProcessId(2)] {
            let at = harness.logs[p.index()]
                .iter()
                .find(|(m, _)| *m == id)
                .map(|(_, at)| *at)
                .unwrap_or_else(|| panic!("{label}: {p} never delivered the message"));
            let latency = at.since(t0);
            assert!(
                latency < FEW_ROUND_TRIPS,
                "{label}: {p} delivered {latency} after submission, more than a few round trips"
            );
        }
        let rotations = cluster.counters().count(consensus::PROGRESS_ROTATIONS)
            + cluster.counters().count(mono::PROGRESS_ROTATIONS);
        assert_eq!(rotations, 0, "{label}: the progress timeout fired");
    }
}

/// What one run of [`outage_load`] shows over its measured window.
struct Window {
    /// Instances decided, per process that stayed up.
    decided: u64,
    /// Protocol messages sent (heartbeats excluded) per decided instance.
    msgs_per_instance: f64,
    /// `mono.combined_steps` over the window.
    combined_steps: u64,
    /// The run's counters at its end.
    totals: Counters,
}

/// p1 and p2 each submit a 1 KiB message every 4 ms, alternating, for
/// 2.1 s, on a group of three; with `crash`, p0 — the round-0
/// coordinator — crashes at 100 ms. The window opens at 800 ms, well
/// after the detector has suspected it, and closes with the load.
fn outage_load(kind: StackKind, crash: bool) -> Window {
    let n = 3;
    let nodes = build_nodes(kind, n, &StackConfig::default());
    let mut cluster = Cluster::new(ClusterConfig::new(n, 7), nodes);
    if crash {
        cluster.schedule_crash(ProcessId(0), VTime::ZERO + VDur::millis(100));
    }
    let mut harness = CollectingHarness::new(n);
    let payload = Bytes::from(vec![0x42; 1024]);
    let window_opens = VTime::ZERO + VDur::millis(800);
    let mut next_seq = [0u64; 3];
    let mut now = VTime::ZERO;
    let mut opened: Option<Counters> = None;
    for step in 0..1050u16 {
        let p = ProcessId(1 + step % 2);
        let msg = AppMsg::new(MsgId::new(p, next_seq[p.index()]), payload.clone());
        if cluster.submit(p, AppRequest::Abcast(msg)).0 == Admission::Accepted {
            next_seq[p.index()] += 1;
        }
        now += VDur::millis(2);
        cluster.run_until(now, &mut harness);
        if opened.is_none() && now >= window_opens {
            opened = Some(cluster.counters().clone());
        }
    }
    let totals = cluster.counters().clone();
    let window = totals.delta_since(&opened.expect("the window opened"));
    let up = if crash { n - 1 } else { n } as u64;
    let decided = window.count(consensus::DECIDED) / up;
    let msgs: u64 = window
        .iter_sends()
        .filter(|(kind, _)| !kind.starts_with("fd."))
        .map(|(_, sent)| sent.msgs)
        .sum();
    Window {
        decided,
        msgs_per_instance: msgs as f64 / decided as f64,
        combined_steps: window.count(mono::COMBINED_STEPS),
        totals,
    }
}

#[test]
fn a_coordinator_outage_costs_one_estimate_round_not_one_per_instance() {
    for kind in [StackKind::Modular, StackKind::Monolithic] {
        let label = kind.label();
        let outage = outage_load(kind, true);
        let fault_free = outage_load(kind, false);
        assert!(
            outage.decided > 200,
            "{label}: only {} instances decided over the outage",
            outage.decided
        );
        // Each survivor rotates only what was live when it suspected p0
        // (one instance at pipeline depth 1, give or take the one it was
        // opening), and sends an estimate for those alone.
        let t = &outage.totals;
        let round_changes = t.count(consensus::ROUND_CHANGES) + t.count(mono::ROUND_CHANGES);
        let estimates = t.kind("consensus.estimate").msgs + t.kind("mono.estimate").msgs;
        let promises = t.count(consensus::PROMISES) + t.count(mono::PROMISES);
        let direct = t.count(consensus::DIRECT_PROPOSALS) + t.count(mono::DIRECT_PROPOSALS);
        assert!(
            round_changes <= 2 * 2,
            "{label}: {round_changes} round changes for {} instances",
            outage.decided
        );
        assert!(estimates <= 2 * 2, "{label}: {estimates} estimates sent");
        assert!(
            (1..=2).contains(&promises),
            "{label}: {promises} promises (one per survivor at most)"
        );
        assert!(
            direct >= outage.decided,
            "{label}: {direct} direct proposals for {} instances",
            outage.decided
        );
        // O1 is back: the new coordinator combines each decision with
        // the next proposal, as p0 did.
        if kind == StackKind::Monolithic {
            assert!(
                outage.combined_steps * 2 >= outage.decided,
                "{label}: {} combined steps over {} instances",
                outage.combined_steps,
                outage.decided
            );
        }
        // No more messages per instance than with p0 up: one process
        // fewer acks, and nothing pays an estimate phase.
        assert!(
            outage.msgs_per_instance <= fault_free.msgs_per_instance * 1.05,
            "{label}: {:.3} msgs/instance over the outage against {:.3} fault-free",
            outage.msgs_per_instance,
            fault_free.msgs_per_instance
        );
    }
}

/// Handlers queued ahead of a survivor's detector tick, and the tick's
/// own heartbeat sends before it reports the suspicion.
const TICK_SLACK: VDur = VDur::millis(5);

/// When the survivors suspected process `p`, per survivor, and when the
/// last message from `p` arrived at each: `(survivor, last arrival,
/// suspicions)`, read off the trace.
fn suspicions_of(trace: &Trace, p: u16, survivors: &[u16]) -> Vec<(u16, VTime, Vec<VTime>)> {
    let at = |ns| VTime::ZERO + VDur::nanos(ns);
    survivors
        .iter()
        .map(|&survivor| {
            let mut last_arrival = None;
            let mut suspected = Vec::new();
            for e in &trace.events {
                match e.data {
                    TraceData::Deliver { src, dst, .. } if src == p && dst == survivor => {
                        last_arrival = Some(at(e.at_ns));
                    }
                    TraceData::Span {
                        pid,
                        stack,
                        instance,
                        phase: "suspect",
                        ..
                    } if pid == survivor && stack == TRACE_STACK && instance == u64::from(p) => {
                        suspected.push(at(e.at_ns))
                    }
                    _ => {}
                }
            }
            let last = last_arrival.unwrap_or_else(|| panic!("p{survivor} never heard p{p}"));
            (survivor, last, suspected)
        })
        .collect()
}

/// The detection bound, on a loaded group whose links to the
/// coordinator were busy until it crashed: every survivor suspects p0
/// one coordinator timeout after the last message that arrived from it
/// — of any kind, since every message is a heartbeat — whatever the
/// crash's phase against the survivors' heartbeat ticks, because the
/// detector ticks at the deadline. The tick may run late by the CPU
/// time queued ahead of it, which [`TICK_SLACK`] covers.
#[test]
fn a_crashed_coordinator_is_suspected_one_timeout_after_its_last_message() {
    let n = 3;
    let fd = FdConfig::default();
    // Four phases across one heartbeat interval.
    let crashes =
        (0..4u64).map(|k| VTime::ZERO + VDur::millis(300) + fd.heartbeat_interval / 4 * k);
    for (kind, crash) in [StackKind::Modular, StackKind::Monolithic]
        .into_iter()
        .flat_map(|kind| crashes.clone().map(move |crash| (kind, crash)))
    {
        let label = format!("{}, crash at {crash}", kind.label());
        let nodes = build_nodes(kind, n, &StackConfig::default());
        let mut cfg = ClusterConfig::new(n, 7);
        cfg.trace = TraceConfig::with_capacity(1 << 20);
        let mut cluster = Cluster::new(cfg, nodes);
        cluster.schedule_crash(ProcessId(0), crash);
        let mut harness = CollectingHarness::new(n);
        // p1 and p2 each submit a 1 KiB message every 4 ms.
        let payload = Bytes::from(vec![0x42; 1024]);
        let mut next_seq = [0u64; 3];
        let mut now = VTime::ZERO;
        while now < crash + fd.timeout * 2 {
            let p = ProcessId(1 + (next_seq[1] + next_seq[2]) as u16 % 2);
            let msg = AppMsg::new(MsgId::new(p, next_seq[p.index()]), payload.clone());
            if cluster.submit(p, AppRequest::Abcast(msg)).0 == Admission::Accepted {
                next_seq[p.index()] += 1;
            }
            now += VDur::millis(2);
            cluster.run_until(now, &mut harness);
        }
        let trace = cluster.take_trace().expect("tracing on");
        assert_eq!(trace.dropped, 0, "{label}: the ring must hold the run");
        for (survivor, last, suspected) in suspicions_of(&trace, 0, &[1, 2]) {
            assert!(
                last + fd.coordinator_interval() > crash,
                "{label}: p{survivor}'s link from p0 was idle before the crash"
            );
            let [at] = suspected[..] else {
                panic!("{label}: p{survivor} suspected p0 at {suspected:?}");
            };
            let after = at.since(last);
            let timeout = fd.coordinator_timeout();
            assert!(
                after > timeout && after <= timeout + TICK_SLACK,
                "{label}: p{survivor} suspected p0 {after} after its last message"
            );
        }
    }
}

/// On an idle group of five, p0 — the round-0 coordinator — crashes,
/// at four phases across its heartbeat interval, and p1, which takes
/// over, crashes 1 s later. Every survivor times p1 out at the
/// coordinator timeout from the hand-off on: it suspects p1 one
/// coordinator timeout after p1's last message, and never before p1
/// crashed, although p1 heartbeat it at the member interval until the
/// hand-off. Nobody but the two coordinators is ever suspected.
#[test]
fn the_next_coordinator_is_watched_from_the_hand_off_and_never_suspected() {
    let n = 5;
    let fd = FdConfig::default();
    let crashes =
        (0..4u64).map(|k| VTime::ZERO + VDur::millis(300) + fd.heartbeat_interval / 4 * k);
    for (kind, crash) in [StackKind::Modular, StackKind::Monolithic]
        .into_iter()
        .flat_map(|kind| crashes.clone().map(move |crash| (kind, crash)))
    {
        let label = format!("{}, p0 crashes at {crash}", kind.label());
        let nodes = build_nodes(kind, n, &StackConfig::default());
        let mut cfg = ClusterConfig::new(n, 7);
        cfg.trace = TraceConfig::with_capacity(1 << 20);
        let mut cluster = Cluster::new(cfg, nodes);
        let handed_over = crash + VDur::secs(1);
        cluster.schedule_crash(ProcessId(0), crash);
        cluster.schedule_crash(ProcessId(1), handed_over);
        cluster.run_idle(handed_over + VDur::secs(1));
        let trace = cluster.take_trace().expect("tracing on");
        assert_eq!(trace.dropped, 0, "{label}: the ring must hold the run");
        for (survivor, _, suspected) in suspicions_of(&trace, 0, &[1, 2, 3, 4]) {
            assert_eq!(suspected.len(), 1, "{label}: p{survivor} suspected p0");
        }
        for (survivor, last, suspected) in suspicions_of(&trace, 1, &[2, 3, 4]) {
            let [at] = suspected[..] else {
                panic!("{label}: p{survivor} suspected p1 at {suspected:?}");
            };
            assert!(
                at > handed_over,
                "{label}: p{survivor} suspected p1 at {at}"
            );
            let after = at.since(last);
            let timeout = fd.coordinator_timeout();
            assert!(
                after > timeout && after <= timeout + TICK_SLACK,
                "{label}: p{survivor} suspected p1 {after} after its last message"
            );
        }
        assert_eq!(
            cluster.counters().event("fd.suspicions"),
            4 + 3,
            "{label}: someone else was suspected"
        );
    }
}

/// Submits `p`'s next message; its id if it was admitted.
fn submit_next(cluster: &mut Cluster, next_seq: &mut [u64], p: ProcessId) -> Option<MsgId> {
    let id = MsgId::new(p, next_seq[p.index()]);
    let msg = AppMsg::new(id, Bytes::from_static(b"load"));
    let admitted = cluster.submit(p, AppRequest::Abcast(msg)).0 == Admission::Accepted;
    admitted.then(|| {
        next_seq[p.index()] += 1;
        id
    })
}

/// p0 — the round-0 coordinator — crashes at 500 ms and restarts 25
/// ms, half the coordinator timeout, or 300 ms later. Its links have
/// been idle since the load stopped, so it heartbeat each of them one
/// coordinator interval or less before the crash, and a survivor's
/// silence from p0 is the outage plus the time from p0's last arrival
/// there to the crash. A survivor suspects p0 exactly when that silence
/// exceeds the coordinator timeout, read off the run's trace: the
/// 300 ms outage always does,
/// and at least one shorter one does not, so nobody suspects p0 or
/// rotates a round there. p1 submits one message at 520 ms, into the
/// outage; after the restart only p0 submits, so progress never stalls
/// long enough for an idle kick either. Suspected or not, the message
/// reaches every process within two resend intervals: the first resend
/// check may come too early to find it overdue, the second does not.
#[test]
fn a_message_sent_into_an_unsuspected_coordinator_outage_is_delivered_within_one_resend() {
    let n = 3;
    let fd = FdConfig::default();
    let p0 = ProcessId(0);
    let crash = VDur::millis(500);
    let submit_at = VTime::ZERO + VDur::millis(520);
    let deadline = submit_at + RESEND_INTERVAL * 2 + FEW_ROUND_TRIPS;
    let mono_none = StackConfig {
        mono_opts: MonoOptimizations::none(),
        ..StackConfig::default()
    };
    let rows = [
        ("modular", StackKind::Modular, StackConfig::default()),
        ("monolithic", StackKind::Monolithic, StackConfig::default()),
        ("mono-none", StackKind::Monolithic, mono_none),
    ];
    for (label, kind, stack) in rows {
        let mut outcomes = Vec::new();
        let downs = [
            VDur::millis(25),
            fd.coordinator_timeout() / 2,
            VDur::millis(300),
        ];
        for down in downs {
            let scenario = Scenario::new().crash(p0, crash).restart(p0, crash + down);
            let mut cfg = ClusterConfig::new(n, 1);
            cfg.trace = TraceConfig::with_capacity(1 << 20);
            let (mut cluster, _) = scenario_cluster(kind, &stack, cfg, &scenario);
            let mut harness = CollectingHarness::new(n);
            let mut next_seq = [0u64; 3];
            for k in 0..9u16 {
                cluster.run_until(VTime::ZERO + VDur::millis(30) * u64::from(k), &mut harness);
                submit_next(&mut cluster, &mut next_seq, ProcessId(k % 3));
            }
            cluster.run_until(submit_at, &mut harness);
            let id = submit_next(&mut cluster, &mut next_seq, ProcessId(1))
                .unwrap_or_else(|| panic!("{label}: p1 admits its message"));
            let mut now = VTime::ZERO + crash + down;
            while now < VTime::ZERO + VDur::secs(8) {
                now += VDur::millis(10);
                cluster.run_until(now, &mut harness);
                submit_next(&mut cluster, &mut next_seq, p0);
            }
            cluster.run_until(VTime::ZERO + VDur::secs(10), &mut harness);

            let trace = cluster.take_trace().expect("tracing on");
            assert_eq!(trace.dropped, 0, "{label}: the ring must hold the run");
            let crashed_at = VTime::ZERO + crash;
            for survivor in [1u16, 2] {
                let mut last_arrival = None;
                let mut suspected = false;
                for e in &trace.events {
                    match e.data {
                        TraceData::Deliver { src: 0, dst, .. }
                            if dst == survivor && e.at_ns <= crashed_at.as_nanos() =>
                        {
                            last_arrival = Some(VTime::ZERO + VDur::nanos(e.at_ns));
                        }
                        TraceData::Span {
                            pid,
                            stack,
                            instance: 0,
                            phase: "suspect",
                            ..
                        } if pid == survivor && stack == TRACE_STACK => suspected = true,
                        _ => {}
                    }
                }
                let last = last_arrival.expect("p0 was heard before the crash");
                let silence = down + crashed_at.since(last);
                assert_eq!(
                    suspected,
                    silence > fd.coordinator_timeout(),
                    "{label}, down {down}: p{survivor} heard p0 last {} before the crash, \
                     {silence} of silence",
                    crashed_at.since(last)
                );
                outcomes.push(suspected);
            }
            let suspicions = cluster.counters().event("fd.suspicions");
            let suspected_here = outcomes[outcomes.len() - 2..].iter().any(|&s| s);
            assert_eq!(
                suspicions > 0,
                suspected_here,
                "{label}, down {down}: {suspicions} suspicion(s)"
            );
            for (p, log) in harness.logs.iter().enumerate() {
                let at = log.iter().find(|(m, _)| *m == id).map(|(_, at)| *at);
                let at = at.unwrap_or_else(|| {
                    panic!("{label}, down {down}: p{p} never delivered p1's message")
                });
                assert!(
                    at <= deadline,
                    "{label}, down {down}: p{p} delivered p1's message at {at}, after {deadline}"
                );
            }
        }
        // The premise holds both ways: some outage went unsuspected,
        // and the longest was suspected by both survivors.
        assert!(
            outcomes.contains(&false),
            "{label}: every outage was suspected"
        );
        assert_eq!(outcomes[4..], [true, true], "{label}: the 300 ms outage");
    }
}
