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
//! counter on every broadcast) puts it at 2 or more. The snapshots
//! those writes ride are themselves held to their cadence.

use bytes::Bytes;
use fortika::core::{build_nodes, StackConfig, StackKind};
use fortika::net::metrics::consensus;
use fortika::net::{
    Admission, AppMsg, AppRequest, Cluster, ClusterApi, ClusterConfig, CollectingHarness,
    CostModel, Delivery, Harness, MsgId, ProcessId, SnapshotStamp,
};
use fortika::sim::{VDur, VTime};

/// Stable writes per decided instance per process a run may average.
const MAX_WRITES_PER_DECISION: f64 = 1.1;

/// Collects every delivery, and counts the snapshots each process
/// materializes.
struct Recorder {
    deliveries: CollectingHarness,
    snapshots: Vec<u64>,
}

impl Harness for Recorder {
    fn on_delivery(&mut self, api: &mut ClusterApi<'_>, pid: ProcessId, d: Delivery, at: VTime) {
        self.deliveries.on_delivery(api, pid, d, at);
    }

    fn on_snapshot(
        &mut self,
        _: &mut ClusterApi<'_>,
        pid: ProcessId,
        stamp: SnapshotStamp,
        _: VTime,
    ) {
        if !stamp.installed {
            self.snapshots[pid.index()] += 1;
        }
    }
}

/// Runs a fault-free `kind` cluster of `n` under `cost` and `stack`:
/// 1 KiB messages round-robin from every process, one every 4 ms, for
/// two virtual seconds; then a drain. Checks that every process
/// delivered every admitted message, and returns the cluster, its
/// recorder and the instances each process decided.
fn run(
    n: usize,
    kind: StackKind,
    cost: CostModel,
    stack: &StackConfig,
) -> (Cluster, Recorder, u64) {
    let label = kind.label();
    let mut cfg = ClusterConfig::new(n, 11);
    cfg.cost = cost;
    let mut cluster = Cluster::new(cfg, build_nodes(kind, n, stack));
    let mut recorder = Recorder {
        deliveries: CollectingHarness::new(n),
        snapshots: vec![0; n],
    };
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
        cluster.run_until(now, &mut recorder);
    }
    cluster.run_until(now + VDur::secs(1), &mut recorder);

    let submitted: u64 = next_seq.iter().sum();
    for log in &recorder.deliveries.logs {
        assert_eq!(
            log.len() as u64,
            submitted,
            "{label}: a message went missing"
        );
    }
    let decided = cluster.counters().count(consensus::DECIDED) / n as u64;
    assert!(decided > 300, "{label}: only {decided} instances");
    (cluster, recorder, decided)
}

#[test]
fn stable_writes_per_decision_are_the_vote_and_amortised_bookkeeping() {
    let n = 3;
    let stable_write = VDur::micros(100);
    for kind in [StackKind::Modular, StackKind::Monolithic] {
        let label = kind.label();
        let cost = CostModel::with_durability(stable_write, VDur::ZERO);
        let (cluster, _, decided) = run(n, kind, cost, &StackConfig::default());
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

/// Compaction follows its cadence: a process cuts one snapshot per
/// `min(snapshot_interval, decision_cache + 1)` decisions (the steady
/// state `maybe_compact` states), give or take the run's two edges. A
/// full decision cache must cost an eviction, not a snapshot per
/// decision.
#[test]
fn snapshots_follow_their_cadence() {
    let n = 3;
    for kind in [StackKind::Modular, StackKind::Monolithic] {
        let label = kind.label();
        for decision_cache in [StackConfig::default().decision_cache, 16] {
            let stack = StackConfig {
                snapshot_interval: 32,
                decision_cache,
                ..StackConfig::default()
            };
            let (_, recorder, decided) = run(n, kind, CostModel::default(), &stack);
            let every = stack.snapshot_interval.min(decision_cache as u64 + 1);
            let bound = n as f64 * (decided as f64 / every as f64 + 2.0);
            let snapshots: u64 = recorder.snapshots.iter().sum();
            assert!(
                snapshots as f64 <= bound,
                "{label}, cache {decision_cache}: {snapshots} snapshots over {decided} decided \
                 instances, at most {bound:.1} on a cadence of {every}"
            );
            for (p, &cut) in recorder.snapshots.iter().enumerate() {
                assert!(
                    cut >= 1,
                    "{label}, cache {decision_cache}: p{p} never compacted"
                );
            }
        }
    }
}
