//! Fail-over costs one detector timeout, not one progress timeout per
//! instance: once the survivors suspect a crashed coordinator, a message
//! submitted afterwards is ordered within a few round trips on both
//! stacks. The instance that carries it opens in a round whose
//! coordinator is already suspected and moves on at once; the progress
//! timeout (the liveness backstop) is never needed.

use bytes::Bytes;
use fortika::core::{build_nodes, FdConfig, StackConfig, StackKind};
use fortika::net::metrics::{consensus, mono};
use fortika::net::{
    Admission, AppMsg, AppRequest, Cluster, ClusterConfig, CollectingHarness, MsgId, ProcessId,
};
use fortika::sim::{VDur, VTime};

/// A few round trips of the default cost model, with room to spare.
const FEW_ROUND_TRIPS: VDur = VDur::millis(25);

#[test]
fn a_message_submitted_after_the_coordinator_is_suspected_is_ordered_in_round_trips() {
    let n = 3;
    let fd = FdConfig::default();
    let p0 = ProcessId(0);
    let crash = VTime::ZERO + VDur::millis(100);
    // Two heartbeat periods past the detector's timeout.
    let submit_at = crash + fd.timeout + fd.heartbeat_interval * 2;
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
