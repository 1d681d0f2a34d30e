//! A priced decision pays for its votes and nothing else.
//!
//! On a fault-free run every process casts one vote per instance — the
//! coordinator's lock or a follower's adoption — and Chandra–Toueg
//! safety needs that vote on stable storage before it is sent. Nothing
//! else may be written per decision: the voting fence and the range
//! tombstone over the vote records it retires ride each snapshot, and
//! the rbcast sequence counter reserves a block of numbers per write.
//! So with every stable write priced and snapshot encoding free,
//! durability time per decided instance per process, in units of one
//! stable write, is the vote plus those amortised writes: ≤ 1.1. A
//! write per decision that comes back (a fence on every advance, a
//! counter on every broadcast) puts it at 2 or more.

use bytes::Bytes;
use fortika::core::{build_nodes, StackConfig, StackKind};
use fortika::net::metrics::consensus;
use fortika::net::{
    Admission, AppMsg, AppRequest, Cluster, ClusterConfig, CollectingHarness, CostModel, MsgId,
    ProcessId,
};
use fortika::sim::{VDur, VTime};

/// Stable writes per decided instance per process a run may average.
const MAX_WRITES_PER_DECISION: f64 = 1.1;

#[test]
fn stable_writes_per_decision_are_the_vote_and_amortised_bookkeeping() {
    let n = 3;
    let stable_write = VDur::micros(100);
    for kind in [StackKind::Modular, StackKind::Monolithic] {
        let label = kind.label();
        let mut cfg = ClusterConfig::new(n, 11);
        cfg.cost = CostModel::with_durability(stable_write, VDur::ZERO);
        let mut cluster = Cluster::new(cfg, build_nodes(kind, n, &StackConfig::default()));
        let mut harness = CollectingHarness::new(n);
        // 1 KiB messages round-robin from every process, one every
        // 4 ms, for two virtual seconds; then a drain.
        let payload = Bytes::from(vec![0x42; 1024]);
        let mut next_seq = vec![0u64; n];
        let mut now = VTime::ZERO;
        for step in 0..500 {
            let p = ProcessId(step % n as u16);
            let id = MsgId::new(p, next_seq[p.index()]);
            let msg = AppMsg::new(id, payload.clone());
            if cluster.submit(p, AppRequest::Abcast(msg)).0 == Admission::Accepted {
                next_seq[p.index()] += 1;
            }
            now += VDur::millis(4);
            cluster.run_until(now, &mut harness);
        }
        cluster.run_until(now + VDur::secs(1), &mut harness);

        let submitted: u64 = next_seq.iter().sum();
        for log in &harness.logs {
            assert_eq!(
                log.len() as u64,
                submitted,
                "{label}: a message went missing"
            );
        }
        let decided = cluster.counters().count(consensus::DECIDED) / n as u64;
        assert!(decided > 300, "{label}: only {decided} instances");
        for p in ProcessId::all(n) {
            let writes = cluster.durability_busy(p).as_nanos() / stable_write.as_nanos();
            let per_decision = writes as f64 / decided as f64;
            assert!(
                per_decision <= MAX_WRITES_PER_DECISION,
                "{label}: {p} made {writes} stable writes over {decided} decided instances \
                 ({per_decision:.3} per decision, budget {MAX_WRITES_PER_DECISION})"
            );
            // Not fewer than the votes themselves.
            assert!(per_decision >= 1.0, "{label}: {p} {per_decision:.3}");
        }
    }
}
