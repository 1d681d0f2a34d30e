//! Pipelined instance execution: acceptance tests for the windowed
//! sequencer (`StackConfig::pipeline_depth`) on both stacks, plus the
//! ROADMAP "crash-recovery depth" item — repeated restart cycles of
//! the same process under load.
//!
//! The contract under test: pipelining is a *performance* knob. At any
//! depth the full atomic-broadcast obligations hold — uniform
//! agreement, total order, integrity, validity after healing — and the
//! same seed replays byte-identically. The windowed sequencer must
//! actually engage (instances genuinely overlap), and keep-alive idle
//! proposals must not eat window slots under load.

use fortika::chaos::{LoadPlan, Scenario};
use fortika::core::{run_scripted, StackConfig, StackKind};
use fortika::net::{ClusterConfig, MsgId, ProcessId};
use fortika::sim::{VDur, VTime};

/// Per-process delivery logs with virtual timestamps.
type DeliveryLogs = Vec<Vec<(MsgId, VTime)>>;

/// Runs `scenario` against one stack at the given pipeline depth and
/// drains; returns the logs, the common order and the windowed-
/// sequencer engagement count (pipelined proposals).
fn run_pipelined(
    kind: StackKind,
    n: usize,
    seed: u64,
    depth: usize,
    scenario: &Scenario,
    plan: LoadPlan,
    horizon: VDur,
) -> (DeliveryLogs, Vec<MsgId>, u64) {
    let stack_cfg = StackConfig {
        pipeline_depth: depth,
        // A wide flow window so the load (not admission) decides how
        // many disjoint batches are available to fill the pipeline.
        window: 8,
        ..StackConfig::default()
    };
    let (cluster, driver) = run_scripted(
        kind,
        &stack_cfg,
        ClusterConfig::new(n, seed),
        scenario,
        plan,
        VTime::ZERO + horizon,
    );

    let correct = scenario.correct(n);
    let report = driver
        .oracle()
        .check_drained(&correct, &driver.accepted_at(&correct));
    report.assert_ok(&format!("{} depth={depth} seed={seed}", kind.label()));
    let pipelined = cluster.counters().event("abcast.pipelined_proposals")
        + cluster.counters().event("mono.pipelined_proposals");
    (
        driver.oracle().logs().to_vec(),
        report.common_order,
        pipelined,
    )
}

/// Fault-free runs at depth 4 on both stacks: the window must engage
/// (instances overlap), every obligation must hold after the drain,
/// and the same seed must replay byte-identically.
#[test]
fn pipelined_stacks_preserve_the_full_contract() {
    for kind in [StackKind::Modular, StackKind::Monolithic] {
        let run = |seed: u64| {
            // A brisk round-robin load (well under an instance's
            // round-trip) so several disjoint batches are available to
            // fill the window.
            run_pipelined(
                kind,
                3,
                seed,
                4,
                &Scenario::new(),
                LoadPlan::round_robin(3, 60, VDur::millis(1), 512),
                VDur::secs(8),
            )
        };
        let (logs_a, common_a, pipelined_a) = run(5);
        let (logs_b, common_b, _) = run(5);
        assert_eq!(
            logs_a,
            logs_b,
            "{}: same seed must replay identically at depth 4",
            kind.label()
        );
        assert_eq!(common_a, common_b);
        assert_eq!(common_a.len(), 60, "{}: every message lands", kind.label());
        assert!(
            pipelined_a > 0,
            "{}: depth 4 never actually overlapped instances",
            kind.label()
        );
    }
}

/// Depth 1 must stay the seed-faithful sequential regime: the windowed
/// sequencer never emits a pipelined (overlapping) proposal.
#[test]
fn depth_one_never_overlaps_instances() {
    for kind in [StackKind::Modular, StackKind::Monolithic] {
        let (_, common, pipelined) = run_pipelined(
            kind,
            3,
            9,
            1,
            &Scenario::new(),
            LoadPlan::round_robin(3, 30, VDur::millis(20), 512),
            VDur::secs(8),
        );
        assert_eq!(common.len(), 30);
        assert_eq!(
            pipelined,
            0,
            "{}: depth 1 must not overlap instances",
            kind.label()
        );
    }
}

/// ROADMAP "crash-recovery depth": the **same** process crash-restarts
/// three times while the cluster is under load. Each incarnation loses
/// all volatile state, rejoins through state transfer, and the oracle's
/// recovery-aware checks must stay green — with zero violations and
/// deterministic replay, on both stacks, sequential and pipelined.
#[test]
fn repeated_restart_cycles_of_the_same_process_under_load() {
    let victim = ProcessId(1);
    let scenario = || {
        Scenario::new()
            .crash(victim, VDur::millis(1000))
            .restart(victim, VDur::millis(1500))
            .crash(victim, VDur::millis(2500))
            .restart(victim, VDur::millis(3000))
            .crash(victim, VDur::millis(4000))
            .restart(victim, VDur::millis(4500))
    };
    assert_eq!(scenario().crashed(), vec![], "every cycle revives");
    for kind in [StackKind::Modular, StackKind::Monolithic] {
        for depth in [1usize, 4] {
            let run = |seed: u64| {
                let n = 3;
                let stack_cfg = StackConfig {
                    pipeline_depth: depth,
                    ..StackConfig::default()
                };
                let (cluster, driver) = run_scripted(
                    kind,
                    &stack_cfg,
                    ClusterConfig::new(n, seed),
                    &scenario(),
                    // Load spans all three outages, so every incarnation
                    // has a frontier to chase.
                    LoadPlan::round_robin(n, 50, VDur::millis(100), 512),
                    VTime::ZERO + VDur::secs(12),
                );
                assert!(cluster.alive(victim), "the victim ends up revived");
                assert_eq!(
                    cluster.incarnation(victim),
                    3,
                    "{} depth={depth}: three restart cycles",
                    kind.label()
                );
                let correct = scenario().correct(n);
                assert_eq!(correct.len(), n, "a restarted process is correct");
                let report = driver
                    .oracle()
                    .check_drained(&correct, &driver.accepted_at(&correct));
                report.assert_ok(&format!(
                    "{} depth={depth} repeated restart cycles",
                    kind.label()
                ));
                (driver.oracle().logs().to_vec(), report.common_order)
            };
            let (logs_a, common_a) = run(31);
            let (logs_b, common_b) = run(31);
            assert_eq!(
                logs_a,
                logs_b,
                "{} depth={depth}: same seed must replay identically",
                kind.label()
            );
            assert_eq!(common_a, common_b);
            // The driver skips submissions scheduled at a crashed
            // sender, so not all 50 land — but the surviving majority
            // must keep ordering through all three outages.
            assert!(
                common_a.len() >= 35,
                "{} depth={depth}: repeated outages sank the run ({} delivered)",
                kind.label(),
                common_a.len()
            );
        }
    }
}
