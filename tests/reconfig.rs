//! Dynamic membership acceptance: log-decided reconfiguration.
//!
//! The paper's stacks run with a fixed group; this suite exercises the
//! reconfiguration extension on **both** stacks: `Add`/`Remove`
//! commands are submitted through the log like any abcast (the run's
//! audit tap submits the scenario's reserved ticks), take effect a
//! fixed instance offset after they are decided, and the config-aware
//! oracle audits the run — every process must derive the identical
//! versioned configuration history from the decided prefix, every
//! correct process must catch up to the group's latest version, and all
//! delivery invariants must hold across the membership changes.
//!
//! Covered here: growing 3 → 5 and shrinking back under load (both
//! stacks × pipeline depth {1, 4}, byte-identical replay), a freshly
//! added node catching up via chunked snapshot transfer, removing a
//! member and then crashing another so the *new* quorum math is what
//! keeps the group live, and a reconfiguration racing a partition and a
//! crash-restart.

use fortika::chaos::{LoadPlan, Scenario};
use fortika::core::{run_scripted, StackConfig, StackKind};
use fortika::net::{Cluster, ClusterConfig, MsgId, ProcessId};
use fortika::sim::{VDur, VTime};

/// Stack configuration for a reconfiguration run. Who votes is the
/// assembly's business: the initial group does, everyone above it is
/// standby capacity.
fn reconfig_stack(pipeline_depth: usize) -> StackConfig {
    StackConfig {
        pipeline_depth,
        ..StackConfig::default()
    }
}

struct RunOutcome {
    logs: Vec<Vec<(MsgId, VTime)>>,
    common_order: Vec<MsgId>,
    reconfigs: u64,
    fd_member_updates: u64,
    snapshots_installed: u64,
    snapshot_transfers: u64,
}

/// Runs `scenario` against a group of `n` (standbys boot crashed and
/// join only when a log-decided `Add` revives them). Checks the drained
/// oracle — agreement, total order, integrity, validity, byte-identical
/// replay across incarnations, *and* config agreement + completeness —
/// and returns the run's observable state for determinism comparisons.
fn run_reconfig(
    kind: StackKind,
    n: usize,
    stack_cfg: &StackConfig,
    scenario: &Scenario,
    plan: LoadPlan,
    seed: u64,
    until: VDur,
) -> RunOutcome {
    let (cluster, driver) = run_scripted(
        kind,
        stack_cfg,
        ClusterConfig::new(n, seed),
        scenario,
        plan,
        VTime::ZERO + until,
    );

    let correct = scenario.correct(cluster.n());
    let report = driver
        .oracle()
        .check_drained(&correct, &driver.accepted_at(&correct));
    report.assert_ok(&format!("{} reconfig run", kind.label()));
    let counters = cluster.counters();
    RunOutcome {
        logs: driver.oracle().logs().to_vec(),
        common_order: report.common_order,
        reconfigs: counters.event("consensus.reconfigs") + counters.event("mono.reconfigs"),
        fd_member_updates: counters.event("fd.member_updates"),
        snapshots_installed: counters.event("consensus.snapshots_installed")
            + counters.event("mono.snapshots_installed"),
        snapshot_transfers: counters.event("consensus.snapshot_transfers")
            + counters.event("mono.snapshot_transfers"),
    }
}

/// Grow 3 → 5 through two log-decided `Add`s, then shrink back by one —
/// all mid-load, on both stacks, at pipeline depth 1 and 4, with the
/// drained config-aware oracle clean and the whole run replaying
/// byte-identically.
#[test]
fn grow_to_five_then_shrink_under_load_on_both_stacks() {
    let n = 3;
    let scenario = Scenario::new()
        .add_node(ProcessId(3), VDur::millis(600))
        .add_node(ProcessId(4), VDur::millis(1400))
        .remove_node(ProcessId(1), VDur::millis(2200));
    for kind in [StackKind::Modular, StackKind::Monolithic] {
        for depth in [1usize, 4] {
            let stack_cfg = reconfig_stack(depth);
            let run = |seed| {
                run_reconfig(
                    kind,
                    n,
                    &stack_cfg,
                    &scenario,
                    LoadPlan::round_robin(n, 150, VDur::millis(20), 64),
                    seed,
                    VDur::secs(10),
                )
            };
            let a = run(42);
            assert!(
                a.reconfigs >= 3 * n as u64,
                "{} depth {depth}: every original member must register all 3 changes \
                 (saw {} registrations)",
                kind.label(),
                a.reconfigs
            );
            assert!(
                a.fd_member_updates > 0,
                "{} depth {depth}: the failure detectors must re-point their monitor sets",
                kind.label()
            );
            assert!(
                a.common_order.len() >= 120,
                "{} depth {depth}: load should survive the reconfigurations ({} ordered)",
                kind.label(),
                a.common_order.len()
            );
            // The added nodes ended the run alive and fully caught up
            // (check_drained already pinned every correct process —
            // including pids 3 and 4 — to the common order).
            let b = run(42);
            assert_eq!(
                a.logs,
                b.logs,
                "{} depth {depth}: same seed must replay identically",
                kind.label()
            );
            assert_eq!(a.common_order, b.common_order);
        }
    }
}

/// A node added long after the prefix was compacted everywhere must
/// catch up via snapshot transfer: deep history (tiny decision cache,
/// aggressive compaction), the `Add` lands at 3 s after well over
/// `decision_cache` instances decided.
/// A standby is no member until a log-decided `Add` admits it, so
/// nobody monitors its silence before then: a fault-free run that
/// grows a group of three by its standby suspects nobody, before the
/// `Add` or after it.
#[test]
fn a_standby_is_not_suspected_before_it_joins() {
    let add_at = VDur::millis(1300);
    let scenario = Scenario::new().add_node(ProcessId(3), add_at);
    let stack = StackConfig {
        initial_members: 3,
        ..StackConfig::default()
    };
    for kind in [StackKind::Modular, StackKind::Monolithic] {
        let label = kind.label();
        let plan = LoadPlan::round_robin(3, 100, VDur::millis(20), 64);
        let (mut cluster, mut driver) = run_scripted(
            kind,
            &stack,
            ClusterConfig::new(3, 7),
            &scenario,
            plan,
            VTime::ZERO + add_at,
        );
        let suspicions = |cluster: &Cluster| cluster.counters().event("fd.suspicions");
        assert_eq!(suspicions(&cluster), 0, "{label}: before the Add");
        cluster.run_until(VTime::ZERO + VDur::secs(4), &mut driver);
        assert!(
            cluster.counters().event("fd.member_updates") > 0,
            "{label}: the Add was registered"
        );
        assert_eq!(suspicions(&cluster), 0, "{label}: after the Add");
    }
}

#[test]
fn added_node_catches_up_via_snapshot_transfer() {
    let n = 3;
    let scenario = Scenario::new().add_node(ProcessId(3), VDur::secs(3));
    for kind in [StackKind::Modular, StackKind::Monolithic] {
        let stack_cfg = StackConfig {
            decision_cache: 16,
            snapshot_interval: 8,
            ..reconfig_stack(1)
        };
        let out = run_reconfig(
            kind,
            n,
            &stack_cfg,
            &scenario,
            LoadPlan::round_robin(n, 150, VDur::millis(25), 64),
            7,
            VDur::secs(12),
        );
        assert!(
            out.snapshot_transfers > 0,
            "{}: the joiner's prefix was compacted away — catch-up must go \
             through SnapshotTransfer",
            kind.label()
        );
        assert!(
            out.snapshots_installed > 0,
            "{}: the joiner must install the snapshot it pulled",
            kind.label()
        );
        assert!(
            out.reconfigs >= n as u64,
            "{}: every original member must register the add",
            kind.label()
        );
    }
}

/// Remove a member, then crash another: with 5 → 4 members the group
/// tolerates one more crash only under the *new* quorum math
/// (⌈5/2⌉ = 3 of the remaining 3 voters would be every one of them; the
/// post-remove majority is 3 of 4). The removed process stays up as a
/// learner and must still track the configuration history.
#[test]
fn remove_then_crash_keeps_the_new_quorum_live() {
    let n = 5;
    let scenario = Scenario::new()
        .remove_node(ProcessId(4), VDur::millis(600))
        .crash(ProcessId(3), VDur::millis(2500));
    for kind in [StackKind::Modular, StackKind::Monolithic] {
        let stack_cfg = reconfig_stack(1);
        let out = run_reconfig(
            kind,
            n,
            &stack_cfg,
            &scenario,
            LoadPlan::round_robin(n, 150, VDur::millis(20), 64),
            11,
            VDur::secs(10),
        );
        assert!(
            out.common_order.len() >= 100,
            "{}: the post-remove majority must keep ordering after the crash \
             ({} ordered)",
            kind.label(),
            out.common_order.len()
        );
    }
}

/// A reconfiguration racing a partition and a crash-restart: the `Add`
/// is decided while a minority is isolated, the healed minority and the
/// restarted member must both converge on the same config history.
#[test]
fn reconfig_races_partition_and_restart() {
    let n = 3;
    let scenario = Scenario::new()
        .partition(
            vec![vec![ProcessId(0), ProcessId(1)], vec![ProcessId(2)]],
            VDur::millis(400),
            VDur::millis(1600),
        )
        .add_node(ProcessId(3), VDur::millis(600))
        .crash(ProcessId(1), VDur::millis(2000))
        .restart(ProcessId(1), VDur::millis(2600));
    for kind in [StackKind::Modular, StackKind::Monolithic] {
        let stack_cfg = reconfig_stack(2);
        let run = |seed| {
            run_reconfig(
                kind,
                n,
                &stack_cfg,
                &scenario,
                LoadPlan::round_robin(n, 120, VDur::millis(25), 64),
                seed,
                VDur::secs(12),
            )
        };
        let a = run(5);
        assert!(
            a.reconfigs >= n as u64,
            "{}: the add must be registered by every original member",
            kind.label()
        );
        let b = run(5);
        assert_eq!(
            a.logs,
            b.logs,
            "{}: racing faults must not break deterministic replay",
            kind.label()
        );
    }
}
