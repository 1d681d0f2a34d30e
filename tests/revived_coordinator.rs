//! A revived coordinator honours the lock it recovered above its voting
//! fence, and rejoins behind the coordinator its peers promised, on both
//! stacks.
//!
//! The fence is persisted with each snapshot, so it lags the decided
//! prefix: a process revived behind it re-enters instances that may
//! already be decided, holding the vote records it cast there. As their
//! round-0 coordinator it must re-propose its recovered lock — the value
//! it may already have helped decide — and not its pool, or the lag
//! could decide a second value. Here p0 is revived at time zero over a
//! store holding only a round-0 lock on a message nobody submits, with
//! no fence at all, and is handed a fresh message; its fresh peers ack
//! whatever it proposes, so the delivery order shows which one it was.

use bytes::Bytes;
use fortika::chaos::Scenario;
use fortika::core::{build_nodes, node_factory, scenario_cluster, StackConfig, StackKind};
use fortika::net::metrics::{consensus, mono};
use fortika::net::replica::keys;
use fortika::net::wire::encode;
use fortika::net::{
    Admission, AppMsg, AppRequest, Batch, Cluster, ClusterConfig, CollectingHarness, MsgId,
    ProcessId, StableStore, TraceConfig, VoteRecord,
};
use fortika::sim::{VDur, VTime};
use fortika::trace::TraceData;

/// A few round trips of the default cost model, with room to spare.
const FEW_ROUND_TRIPS: VDur = VDur::millis(25);

#[test]
fn a_revived_coordinator_proposes_its_recovered_lock_not_its_pool() {
    let n = 3;
    let p0 = ProcessId(0);
    let locked = AppMsg::new(MsgId::new(ProcessId(2), 0), Bytes::from_static(b"locked"));
    let fresh = AppMsg::new(MsgId::new(p0, 0), Bytes::from_static(b"fresh"));
    // p0's previous incarnation locked `locked` in round 0 of instance
    // 0, which it coordinates; its fence never moved.
    let vote = VoteRecord {
        round: 0,
        ts: 1,
        value: Batch::normalize(vec![locked.clone()]),
    };
    let mut store = StableStore::new();
    store.insert(keys::vote(0), encode(&vote).into());
    assert!(!store.contains_key(&keys::WATERMARK));

    for kind in [StackKind::Modular, StackKind::Monolithic] {
        let label = kind.label();
        let cfg = StackConfig::default();
        let mut nodes = build_nodes(kind, n, &cfg);
        let mut revive = node_factory(kind, n, cfg, Vec::new());
        nodes[0] = revive(p0, VTime::ZERO, &store);
        let mut cluster = Cluster::new(ClusterConfig::new(n, 5), nodes);
        let mut harness = CollectingHarness::new(n);
        cluster.run_until(VTime::ZERO + VDur::millis(10), &mut harness);
        let (admission, _) = cluster.submit(p0, AppRequest::Abcast(fresh.clone()));
        assert_eq!(admission, Admission::Accepted, "{label}");
        cluster.run_until(VTime::ZERO + VDur::secs(1), &mut harness);

        for (p, log) in harness.logs.iter().enumerate() {
            let order: Vec<MsgId> = log.iter().map(|(id, _)| *id).collect();
            assert_eq!(
                order,
                [locked.id, fresh.id],
                "{label}: p{p} did not decide the recovered lock first"
            );
        }
    }
}

/// p0 — the round-0 coordinator — crashes at 100 ms, the survivors fail
/// over to p1 and promise it their round, and p0 restarts at 1.5 s while
/// p1 and p2 keep submitting. The revived p0 learns the promised round
/// from its peers (their promises, their proposals) instead of proposing
/// round 0 into instances they promised away: its first message, handed
/// to it once it has caught up, is ordered in a few round trips;
/// coordination stays with p1; no survivor acks a round-0 proposal after
/// the fail-over; and the progress timeout never fires.
#[test]
fn a_revived_coordinator_rejoins_behind_the_promised_one_without_churn() {
    let n = 3;
    let (p0, p1) = (ProcessId(0), ProcessId(1));
    let crash = VTime::ZERO + VDur::millis(100);
    let restart = VTime::ZERO + VDur::millis(1500);
    let submit_at = restart + VDur::millis(500);
    let end = submit_at + VDur::millis(500);
    for kind in [StackKind::Modular, StackKind::Monolithic] {
        let label = kind.label();
        let mut cluster_cfg = ClusterConfig::new(n, 3);
        cluster_cfg.trace = TraceConfig::on();
        let scenario = Scenario::new()
            .crash(p0, crash.since(VTime::ZERO))
            .restart(p0, restart.since(VTime::ZERO));
        let (mut cluster, _) =
            scenario_cluster(kind, &StackConfig::default(), cluster_cfg, &scenario);
        let mut harness = CollectingHarness::new(n);
        let mut next_seq = [0u64; 3];
        let mut now = VTime::ZERO;
        let mut first = None;
        while now < end {
            let p = ProcessId(1 + (next_seq[1] + next_seq[2]) as u16 % 2);
            let msg = AppMsg::new(
                MsgId::new(p, next_seq[p.index()]),
                Bytes::from_static(b"load"),
            );
            if cluster.submit(p, AppRequest::Abcast(msg)).0 == Admission::Accepted {
                next_seq[p.index()] += 1;
            }
            if first.is_none() && now >= submit_at {
                let id = MsgId::new(p0, 0);
                let msg = AppMsg::new(id, Bytes::from_static(b"p0 is back"));
                let (admission, at) = cluster.submit(p0, AppRequest::Abcast(msg));
                assert_eq!(admission, Admission::Accepted, "{label}");
                first = Some((id, at));
            }
            now += VDur::millis(10);
            cluster.run_until(now, &mut harness);
        }
        cluster.run_until(end + VDur::secs(1), &mut harness);

        let (id, admitted) = first.expect("submitted");
        for (p, log) in harness.logs.iter().enumerate() {
            let at = log.iter().find(|(m, _)| *m == id).map(|(_, at)| *at);
            let at = at.unwrap_or_else(|| panic!("{label}: p{p} never delivered p0's message"));
            assert!(
                at.since(admitted) < FEW_ROUND_TRIPS,
                "{label}: p{p} delivered p0's first message {} after its admission",
                at.since(admitted)
            );
        }
        let counters = cluster.counters();
        let rotations = counters.count(consensus::PROGRESS_ROTATIONS)
            + counters.count(mono::PROGRESS_ROTATIONS);
        assert_eq!(rotations, 0, "{label}: the progress timeout fired");

        let trace = cluster.take_trace().expect("tracing on");
        assert_eq!(trace.dropped, 0, "{label}: the trace ring overflowed");
        let after = |at_ns: u64, t: VTime| at_ns >= t.since(VTime::ZERO).as_nanos();
        let mut proposers = std::collections::BTreeSet::new();
        for event in &trace.events {
            let TraceData::Span {
                pid,
                stack,
                phase,
                detail,
                ..
            } = event.data
            else {
                continue;
            };
            if stack == "abcast" {
                continue; // the layer above proposes on every process
            }
            // Once p0 caught up, every instance is p1's to propose in.
            if phase == "proposed" && after(event.at_ns, submit_at) {
                proposers.insert(pid);
            }
            // After the fail-over nobody acks round 0.
            if phase == "voted" && detail == 0 && after(event.at_ns, crash + VDur::secs(1)) {
                panic!("{label}: p{pid} voted in round 0 after the fail-over");
            }
        }
        assert_eq!(
            proposers.into_iter().collect::<Vec<_>>(),
            [p1.0],
            "{label}: coordination moved off p1"
        );
    }
}
