//! Snapshot-based state transfer: rejoin catch-up under unbounded
//! history.
//!
//! The acceptance scenario of the log-compaction feature, on **both**
//! stacks: the cluster runs long enough that the decided prefix exceeds
//! every live peer's decision cache, a process crashes with total
//! volatile-state loss and restarts, and the revived process must rejoin
//! via chunked `SnapshotTransfer` — with `*.join_unservable == 0`, zero
//! oracle violations (including snapshot digest agreement), full drained
//! equality with the common order, and deterministic replay. A
//! regression test shows the pre-snapshot behaviour: with snapshotting
//! disabled, the same scenario stalls forever and the unservable-join
//! counters grow.

use bytes::Bytes;
use fortika::chaos::{LoadPlan, Scenario, ScriptedDriver};
use fortika::core::{run_scripted, AppState, AppStateFactory, StackConfig, StackKind};
use fortika::net::{AppMsg, Cluster, ClusterConfig, MsgId, ProcessId};
use fortika::sim::{VDur, VTime};

/// Deep-history stack configuration: a tiny decision cache so the run
/// outgrows it quickly, compacted every 8 instances.
fn deep_history_config(snapshot_interval: u64) -> StackConfig {
    StackConfig {
        decision_cache: 16,
        snapshot_interval,
        ..StackConfig::default()
    }
}

fn scenario() -> Scenario {
    Scenario::new()
        .crash(ProcessId(1), VDur::secs(1))
        .restart(ProcessId(1), VDur::secs(3))
}

const N: usize = 3;

/// Runs `scenario` for 12 s on [`N`] stacks under a load spanning the
/// outage: enough messages that far more instances than
/// `decision_cache` decide before the victim returns.
fn run_deep(
    kind: StackKind,
    seed: u64,
    stack_cfg: &StackConfig,
    scenario: &Scenario,
) -> (Cluster, ScriptedDriver) {
    run_scripted(
        kind,
        stack_cfg,
        ClusterConfig::new(N, seed),
        scenario,
        LoadPlan::round_robin(N, 150, VDur::millis(25), 64),
        VTime::ZERO + VDur::secs(12),
    )
}

struct RunOutcome {
    logs: Vec<Vec<(MsgId, VTime)>>,
    common_order: Vec<MsgId>,
    snapshot_transfers: u64,
    join_unservable: u64,
    instances_decided: u64,
}

fn run_deep_rejoin(kind: StackKind, seed: u64, snapshot_interval: u64) -> RunOutcome {
    let n = N;
    let stack_cfg = deep_history_config(snapshot_interval);
    let (cluster, driver) = run_deep(kind, seed, &stack_cfg, &scenario());

    assert!(cluster.alive(ProcessId(1)), "p2 should be revived");
    // Safety always; drained equality + validity only when snapshots
    // make catch-up possible (the disabled variant stalls by design).
    let correct = scenario().correct(n);
    let (report, what) = if snapshot_interval > 0 {
        let must = driver.accepted_at(&correct);
        (
            driver.oracle().check_drained(&correct, &must),
            "deep rejoin",
        )
    } else {
        let safety = driver.oracle().check(&correct);
        (safety, "stalled rejoin (safety only)")
    };
    report.assert_ok(&format!("{} {what}", kind.label()));
    let counters = cluster.counters();
    RunOutcome {
        logs: driver.oracle().logs().to_vec(),
        common_order: report.common_order,
        snapshot_transfers: counters.event("consensus.snapshot_transfers")
            + counters.event("mono.snapshot_transfers"),
        join_unservable: counters.event("consensus.join_unservable")
            + counters.event("mono.join_unservable"),
        instances_decided: counters.event("consensus.decided") / n as u64,
    }
}

/// Acceptance: the decided prefix outgrows every peer's cache, the
/// victim restarts, and rejoins via `SnapshotTransfer` with zero
/// unservable joins, zero violations and deterministic replay.
#[test]
fn deep_rejoin_via_snapshot_transfer_on_both_stacks() {
    for kind in [StackKind::Modular, StackKind::Monolithic] {
        let a = run_deep_rejoin(kind, 42, 8);
        assert!(
            a.instances_decided > 16,
            "{}: run must outgrow the decision cache (decided {} instances)",
            kind.label(),
            a.instances_decided
        );
        assert!(
            a.snapshot_transfers > 0,
            "{}: rejoin should go through SnapshotTransfer",
            kind.label()
        );
        assert_eq!(
            a.join_unservable,
            0,
            "{}: every join must be servable with compaction on",
            kind.label()
        );
        // The revived process's final incarnation reaches the frontier
        // (check_drained in run_deep_rejoin already pinned it to the
        // common order).
        assert!(
            a.common_order.len() >= 120,
            "{}: load should survive the outage ({} ordered)",
            kind.label(),
            a.common_order.len()
        );
        let b = run_deep_rejoin(kind, 42, 8);
        assert_eq!(
            a.logs,
            b.logs,
            "{}: same seed must replay identically",
            kind.label()
        );
    }
}

/// Regression (the documented pre-snapshot stall): with snapshotting
/// disabled the same scenario leaves the victim unservable — the
/// `*.join_unservable` counters grow and its log never reaches the
/// frontier.
#[test]
fn deep_rejoin_stalls_with_snapshots_disabled() {
    for kind in [StackKind::Modular, StackKind::Monolithic] {
        let out = run_deep_rejoin(kind, 42, 0);
        assert!(
            out.instances_decided > 16,
            "{}: run must outgrow the decision cache",
            kind.label()
        );
        assert!(
            out.join_unservable > 0,
            "{}: rejoins below the eviction horizon must be reported unservable",
            kind.label()
        );
        // The victim's final incarnation is stuck near instance 0 while
        // the survivors kept ordering.
        let victim_final = out.logs[1].len();
        assert!(
            victim_final < out.common_order.len() / 2,
            "{}: expected a stalled victim, but it delivered {victim_final} of {}",
            kind.label(),
            out.common_order.len()
        );
    }
}

/// A **live** lagging process — a partitioned minority that never
/// crashed — must also recover once its gap falls below every peer's
/// compaction horizon: peers answer a pull from a compacted instance
/// with a snapshot offer, whether a revived process's announcement or a
/// live one's sighting sent it.
#[test]
fn live_laggard_recovers_past_the_compaction_horizon() {
    for kind in [StackKind::Modular, StackKind::Monolithic] {
        // Nobody crashes: p3 is isolated from 0.5 s to 4 s while the
        // majority keeps ordering far past cache + snapshot interval.
        let scenario = Scenario::new().partition(
            vec![vec![ProcessId(0), ProcessId(1)], vec![ProcessId(2)]],
            VDur::millis(500),
            VDur::secs(4),
        );
        let (cluster, driver) = run_deep(kind, 11, &deep_history_config(8), &scenario);

        let counters = cluster.counters();
        let installs = counters.event("consensus.snapshots_installed")
            + counters.event("mono.snapshots_installed");
        assert!(
            installs > 0,
            "{}: the healed minority should leap the compaction horizon via a snapshot",
            kind.label()
        );
        let report = driver
            .oracle()
            .check_drained(&scenario.correct(N), driver.accepted());
        report.assert_ok(&format!("{} live laggard", kind.label()));
        assert!(
            report.common_order.len() >= 120,
            "{}: load should survive the partition ({} ordered)",
            kind.label(),
            report.common_order.len()
        );
    }
}

/// A bulky application state forces the snapshot across several
/// chunks: the joiner must pull them at round-trip pace and install the
/// reassembled snapshot intact.
#[test]
fn chunked_snapshot_download_reassembles() {
    /// Counts applied messages and pads its encoding to ~16 KiB so the
    /// encoded snapshot spans multiple 4 KiB chunks.
    #[derive(Default)]
    struct PaddedCounter {
        applied: u64,
    }
    impl AppState for PaddedCounter {
        fn apply(&mut self, _msg: &AppMsg) {
            self.applied += 1;
        }
        fn encode(&self) -> Bytes {
            let mut v = vec![0u8; 16 * 1024];
            v[..8].copy_from_slice(&self.applied.to_le_bytes());
            Bytes::from(v)
        }
        fn restore(&mut self, state: &Bytes) {
            let mut raw = [0u8; 8];
            raw.copy_from_slice(&state.as_slice()[..8]);
            self.applied = u64::from_le_bytes(raw);
        }
    }

    for kind in [StackKind::Modular, StackKind::Monolithic] {
        let stack_cfg = StackConfig {
            app_state: Some(AppStateFactory::new(|| Box::new(PaddedCounter::default()))),
            ..deep_history_config(8)
        };
        let (cluster, driver) = run_deep(kind, 7, &stack_cfg, &scenario());

        let pulls = cluster.counters().event("consensus.snapshot_pulls")
            + cluster.counters().event("mono.snapshot_pulls");
        assert!(
            pulls > 0,
            "{}: a 16 KiB snapshot must need chained chunk pulls",
            kind.label()
        );
        let correct = scenario().correct(N);
        driver
            .oracle()
            .check_drained(&correct, &driver.accepted_at(&correct))
            .assert_ok(&format!("{} chunked snapshot rejoin", kind.label()));
    }
}
