//! A revived coordinator honours the lock it recovered above its voting
//! fence, on both stacks.
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
use fortika::core::{build_nodes, node_factory, StackConfig, StackKind};
use fortika::net::replica::keys;
use fortika::net::wire::encode;
use fortika::net::{
    Admission, AppMsg, AppRequest, Batch, Cluster, ClusterConfig, CollectingHarness, MsgId,
    ProcessId, StableStore, VoteRecord,
};
use fortika::sim::{VDur, VTime};

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
