//! Replicated key-value store — the paper's motivating use case, now
//! the flagship **snapshotting** application.
//!
//! Atomic broadcast exists to keep replicas consistent (§1): if every
//! replica applies the same commands in the same order, their states
//! never diverge. This example replicates a small key-value store over
//! the *modular* stack and adds the crash-recovery twist that
//! motivates log compaction: the decision cache is tiny (8 instances),
//! the prefix is folded into an application-state snapshot every 4
//! instances via the [`AppState`] hook, and one replica crashes with
//! total volatile-state loss after the history has outgrown every
//! peer's cache.
//!
//! Without snapshots the revived replica could never catch up (its
//! missing prefix is evicted everywhere — the `join_unservable` stall).
//! With them, a peer ships its snapshot in chunked `SnapshotTransfer`
//! messages; the replica installs it — the *application state* arrives
//! through the harness `on_snapshot` callback, no replay needed — and
//! resumes ordering at the live frontier. All replicas converge to the
//! identical store.
//!
//! Run with: `cargo run --release --example replicated_kv`

use std::collections::BTreeMap;

use bytes::Bytes;
use fortika::chaos::Scenario;
use fortika::core::{scenario_cluster, AppState, AppStateFactory, StackConfig, StackKind};
use fortika::net::{
    Admission, AppMsg, AppRequest, ClusterApi, ClusterConfig, Delivery, Harness, MsgId, ProcessId,
    SnapshotStamp,
};
use fortika::sim::{VDur, VTime};

/// A SET command with a tiny `key=value` text format.
#[derive(Debug, Clone)]
struct SetCmd {
    key: String,
    value: String,
}

impl SetCmd {
    fn encode(&self) -> Bytes {
        Bytes::from(format!("{}={}", self.key, self.value))
    }

    fn decode(bytes: &[u8]) -> Option<SetCmd> {
        let text = std::str::from_utf8(bytes).ok()?;
        let (key, value) = text.split_once('=')?;
        Some(SetCmd {
            key: key.to_string(),
            value: value.to_string(),
        })
    }
}

/// The replicated store as a deterministic state machine: applied on
/// every delivered command, encoded into snapshots, restored on
/// install. This is the node-side half — what travels inside
/// `SnapshotTransfer`.
#[derive(Default)]
struct KvState {
    store: BTreeMap<String, String>,
}

impl KvState {
    fn encode_store(store: &BTreeMap<String, String>) -> Bytes {
        let lines: Vec<String> = store.iter().map(|(k, v)| format!("{k}={v}")).collect();
        Bytes::from(lines.join("\n"))
    }

    fn decode_store(state: &Bytes) -> BTreeMap<String, String> {
        let text = std::str::from_utf8(state.as_slice()).unwrap_or_default();
        text.lines()
            .filter_map(|l| l.split_once('='))
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }
}

impl AppState for KvState {
    fn apply(&mut self, msg: &AppMsg) {
        if let Some(cmd) = SetCmd::decode(&msg.payload) {
            self.store.insert(cmd.key, cmd.value);
        }
    }

    fn encode(&self) -> Bytes {
        KvState::encode_store(&self.store)
    }

    fn restore(&mut self, state: &Bytes) {
        self.store = KvState::decode_store(state);
    }
}

/// Harness-side application mirror: one store per replica, driven by
/// deliveries — and by installed snapshots, which carry the compacted
/// state the replica will never see as deliveries.
struct KvMirror {
    stores: Vec<BTreeMap<String, String>>,
    payloads: BTreeMap<MsgId, SetCmd>,
    installs: u64,
}

impl KvMirror {
    fn new(n: usize) -> Self {
        KvMirror {
            stores: vec![BTreeMap::new(); n],
            payloads: BTreeMap::new(),
            installs: 0,
        }
    }
}

impl Harness for KvMirror {
    fn on_delivery(&mut self, _api: &mut ClusterApi<'_>, pid: ProcessId, d: Delivery, _at: VTime) {
        let cmd = &self.payloads[&d.msg];
        self.stores[pid.index()].insert(cmd.key.clone(), cmd.value.clone());
    }

    fn on_restart(&mut self, _api: &mut ClusterApi<'_>, pid: ProcessId, _at: VTime) {
        // The revived replica lost its volatile state; so does its mirror.
        self.stores[pid.index()].clear();
    }

    fn on_snapshot(
        &mut self,
        _api: &mut ClusterApi<'_>,
        pid: ProcessId,
        stamp: SnapshotStamp,
        _at: VTime,
    ) {
        if stamp.installed {
            // The compacted prefix arrives as application state, not as
            // replayed deliveries: restore the mirror from it.
            self.installs += 1;
            self.stores[pid.index()] = KvState::decode_store(&stamp.app_state);
        }
    }
}

pub fn main() {
    let n = 5;
    let victim = ProcessId(1);
    // Tiny cache + aggressive compaction: history outgrows the log
    // fast, so the rejoin *must* go through a snapshot.
    let stack_cfg = StackConfig {
        decision_cache: 8,
        snapshot_interval: 4,
        app_state: Some(AppStateFactory::new(|| Box::<KvState>::default())),
        ..StackConfig::default()
    };
    let outage = Scenario::new()
        .crash(victim, VDur::millis(600))
        .restart(victim, VDur::millis(1400));
    let (mut cluster, _) = scenario_cluster(
        StackKind::Modular,
        &stack_cfg,
        ClusterConfig::new(n, 7),
        &outage,
    );

    let mut harness = KvMirror::new(n);
    cluster.run_until(VTime::ZERO + VDur::millis(1), &mut harness);

    // 120 racing writes, round-robin across replicas, 16 keys — far
    // more instances than the 8-deep decision cache holds.
    let mut seqs = vec![0u64; n];
    for i in 0..120u64 {
        let replica = ProcessId((i % n as u64) as u16);
        if !cluster.alive(replica) {
            let next = cluster.now() + VDur::millis(15);
            cluster.run_until(next, &mut harness);
            continue;
        }
        let cmd = SetCmd {
            key: format!("key{:02}", i % 16),
            value: format!("v{i}-from-p{}", replica.0 + 1),
        };
        let id = MsgId::new(replica, seqs[replica.index()]);
        seqs[replica.index()] += 1;
        harness.payloads.insert(id, cmd.clone());
        let (adm, _) = cluster.submit(replica, AppRequest::Abcast(AppMsg::new(id, cmd.encode())));
        assert_eq!(adm, Admission::Accepted);
        let next = cluster.now() + VDur::millis(15);
        cluster.run_until(next, &mut harness);
    }

    // Drain: the revived replica finishes its snapshot rejoin and the
    // cluster goes quiet.
    let end = cluster.now() + VDur::secs(3);
    cluster.run_until(end, &mut harness);

    let transfers = cluster.counters().event("consensus.snapshot_transfers");
    let unservable = cluster.counters().event("consensus.join_unservable");
    let made = cluster.counters().event("consensus.snapshots");
    let decided = cluster.counters().event("consensus.decided") / n as u64;

    println!("Final state at each replica:");
    for (i, s) in harness.stores.iter().enumerate() {
        let view: Vec<String> = s.iter().take(4).map(|(k, v)| format!("{k}={v}")).collect();
        println!(
            "  p{}: {} keys {{{}, ...}}",
            i + 1,
            s.len(),
            view.join(", ")
        );
    }
    println!(
        "\nhistory:  ~{decided} instances decided against a decision cache of 8; \
         {made} snapshots folded"
    );
    println!(
        "recovery: p2 crashed at 0.6 s, revived at 1.4 s (incarnation {}), rejoined via \
         {transfers} snapshot-transfer chunks, {} snapshot installs, {unservable} unservable joins",
        cluster.incarnation(victim),
        harness.installs,
    );

    // The whole point: every replica — including the one that skipped
    // the compacted prefix and restored it from a snapshot — ends in
    // the identical store.
    assert!(decided > 8, "history must outgrow the decision cache");
    assert!(transfers > 0, "the rejoin must use snapshot transfer");
    assert_eq!(unservable, 0, "compaction retires the unservable stall");
    assert!(
        harness.installs > 0,
        "the mirror must see a snapshot install"
    );
    for s in &harness.stores[1..] {
        assert_eq!(s, &harness.stores[0], "replicas diverged!");
    }
    println!(
        "\nAll {n} replicas converged ({} keys) — snapshot state transfer works end to end.",
        harness.stores[0].len()
    );
}
