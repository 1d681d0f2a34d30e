//! Scenario fuzzing through the delivery-invariant oracle: seeded
//! random fault timelines (crashes + partitions + loss + duplication +
//! delay spikes + false suspicions) run against **both** stacks, with
//! two guarantees asserted per scenario:
//!
//! * zero safety violations — uniform agreement, total order,
//!   integrity, prefix-consistency of crashed processes;
//! * deterministic replay — the same seed reproduces byte-identical
//!   delivery logs (ids *and* virtual timestamps).
//!
//! Message loss suspends the quasi-reliable-channel assumption, so
//! validity (a liveness property) is *not* asserted here; the
//! `random_schedules` suite covers it with loss-free scenarios.

use fortika::chaos::{ChaosProfile, CoverageReport, LoadPlan, Scenario};
use fortika::core::{run_scripted, StackConfig, StackKind};
use fortika::net::{ClusterConfig, MsgId, ProcessId};
use fortika::sim::{VDur, VTime};

const SCENARIOS: u64 = 24;

fn profile() -> ChaosProfile {
    ChaosProfile {
        horizon: VDur::secs(2),
        ..ChaosProfile::default()
    }
}

/// Per-process delivery logs with virtual timestamps.
type DeliveryLogs = Vec<Vec<(MsgId, VTime)>>;

/// Runs one seeded scenario on one stack; returns the full delivery
/// logs (with timestamps) and the scenario's correct set.
fn run_once(kind: StackKind, n: usize, seed: u64) -> (DeliveryLogs, Vec<ProcessId>, Scenario) {
    let scenario = Scenario::random(n, seed, &profile());
    run_once_with(kind, n, seed, &scenario, None)
}

/// Like [`run_once`] with an explicit scenario, optionally folding the
/// run's protocol counters into a campaign-wide coverage report. The
/// assembly adopts the scenario's drawn pipeline depth, so the random
/// campaigns fuzz pipelined instance execution too.
fn run_once_with(
    kind: StackKind,
    n: usize,
    seed: u64,
    scenario: &Scenario,
    coverage: Option<&mut CoverageReport>,
) -> (DeliveryLogs, Vec<ProcessId>, Scenario) {
    let (cluster, driver) = run_scripted(
        kind,
        &StackConfig::default(),
        ClusterConfig::new(n, seed),
        scenario,
        LoadPlan::random(n, seed, 30, VDur::millis(1800), 1024),
        VTime::ZERO + scenario.horizon() + VDur::secs(5),
    );

    let correct = scenario.correct(cluster.n());
    driver.oracle().check(&correct).assert_ok(&format!(
        "{} n={n} seed={seed}\nscenario: {scenario:?}",
        kind.label()
    ));
    if let Some(report) = coverage {
        report.absorb(cluster.counters());
    }
    (driver.oracle().logs().to_vec(), correct, scenario.clone())
}

/// Runs a pinned scenario twice on one seed: three default stacks under
/// a round-robin load of `msgs` messages, one every 100 ms. Each run
/// must end with `revived` (if any) up in its second incarnation and
/// pass the drained check — every process correct again, everything
/// accepted in a final incarnation delivered everywhere — and the two
/// must replay byte for byte. Returns the logs and the common order.
fn replay_pinned(
    kind: StackKind,
    seed: u64,
    scenario: &Scenario,
    msgs: usize,
    until: VDur,
    revived: Option<ProcessId>,
) -> (DeliveryLogs, Vec<MsgId>) {
    let n = 3;
    let run = || {
        let (cluster, driver) = run_scripted(
            kind,
            &StackConfig::default(),
            ClusterConfig::new(n, seed),
            scenario,
            LoadPlan::round_robin(n, msgs, VDur::millis(100), 512),
            VTime::ZERO + until,
        );
        if let Some(p) = revived {
            assert!(cluster.alive(p), "{p} should be revived");
            assert_eq!(cluster.incarnation(p), 1);
        }
        let correct = scenario.correct(n);
        assert_eq!(correct.len(), n, "a restarted process is correct");
        let report = driver
            .oracle()
            .check_drained(&correct, &driver.accepted_at(&correct));
        report.assert_ok(&format!("{} seed={seed}\n{scenario:?}", kind.label()));
        (driver.oracle().logs().to_vec(), report.common_order)
    };
    let (a, b) = (run(), run());
    assert_eq!(a, b, "{}: same seed must replay identically", kind.label());
    a
}

#[test]
fn random_fault_scenarios_preserve_safety_on_both_stacks() {
    let mut coverage = CoverageReport::new();
    let mut pipelined = 0u64;
    for seed in 0..SCENARIOS {
        let n = 3 + (seed % 3) as usize; // 3, 4, 5
        let scenario = Scenario::random(n, seed, &profile());
        pipelined += u64::from(scenario.pipeline_depth() > 1);
        for kind in [StackKind::Modular, StackKind::Monolithic] {
            let (logs, correct, _) = run_once_with(kind, n, seed, &scenario, Some(&mut coverage));
            assert!(!correct.is_empty());
            // The fuzz must actually exercise delivery, not vacuously pass.
            let delivered: usize = logs.iter().map(Vec::len).sum();
            assert!(
                delivered > 0,
                "{} n={n} seed={seed}: nothing was delivered",
                kind.label()
            );
        }
    }
    // Scenario coverage (ROADMAP metric): show which protocol branches
    // this campaign actually reached, and pin the ones it must reach —
    // a campaign with crashes, partitions and restarts that never
    // round-changes or pulls a gap is auditing nothing.
    println!("{coverage}");
    // Archive the campaign's coverage for CI (best-effort: the asserts
    // below are the gate, the file is evidence).
    let _ = coverage.write_json(std::path::Path::new(
        "target/coverage-partition-invariants.json",
    ));
    assert!(pipelined > 0, "the generator never drew a pipelined run");
    for must in ["round_changes", "gap_pulls", "idle_proposals"] {
        assert!(coverage.reached(must), "campaign never reached {must}");
    }
}

#[test]
fn identical_seeds_replay_byte_identical_logs() {
    for seed in 0..8u64 {
        let n = 3 + (seed % 3) as usize;
        for kind in [StackKind::Modular, StackKind::Monolithic] {
            let (a, _, _) = run_once(kind, n, seed);
            let (b, _, _) = run_once(kind, n, seed);
            assert_eq!(
                a,
                b,
                "{} n={n} seed={seed}: replay diverged (ids or timestamps)",
                kind.label()
            );
        }
    }
}

#[test]
fn different_seeds_explore_different_schedules() {
    let (a, _, sa) = run_once(StackKind::Monolithic, 3, 100);
    let (b, _, sb) = run_once(StackKind::Monolithic, 3, 101);
    assert!(
        a != b || format!("{sa:?}") != format!("{sb:?}"),
        "seeds 100/101 produced identical scenarios and logs"
    );
}

/// The crash-recovery acceptance scenario: p2 crashes at t = 1 s with
/// total volatile-state loss and restarts at t = 3 s. On both stacks
/// the revived process must catch up to the live frontier (drained
/// equality with the common order), re-deliver its pre-crash prefix
/// byte-identically across incarnations, and the oracle must report
/// zero violations; the same seed must replay deterministically.
#[test]
fn crash_restart_catches_up_on_both_stacks() {
    let scenario = Scenario::new()
        .crash(ProcessId(1), VDur::secs(1))
        .restart(ProcessId(1), VDur::secs(3));
    for kind in [StackKind::Modular, StackKind::Monolithic] {
        // Load spans the outage so the survivors build up a frontier the
        // revived process has to chase.
        let (logs_a, common_a) =
            replay_pinned(kind, 42, &scenario, 36, VDur::secs(10), Some(ProcessId(1)));
        // 36 planned, minus the ~7 submissions p2's outage swallows
        // (the driver skips dead senders): everything accepted lands.
        assert!(
            common_a.len() >= 28,
            "{}: outage should not sink the run ({} delivered)",
            kind.label(),
            common_a.len()
        );
        // The revived process's full log contains its pre-crash segment
        // followed by a byte-identical replay reaching the frontier: it
        // must end delivering at least as much as it ever saw, and the
        // drained check above already pinned the final segment to the
        // common order.
        let p2_total = logs_a[1].len();
        assert!(
            p2_total > common_a.len(),
            "{}: expected pre-crash deliveries plus a full replay, got {p2_total}",
            kind.label()
        );
    }
}

/// Random restart-bearing scenarios (restart probability forced to 1)
/// across both stacks: every crash comes back, the oracle's
/// recovery-aware checks must stay green, and replay must be
/// deterministic.
#[test]
fn random_restart_scenarios_preserve_safety_on_both_stacks() {
    let profile = ChaosProfile {
        horizon: VDur::secs(2),
        restart_prob: 1.0,
        crash_prob: 0.9,
        // This suite is about pure crash-restart cycles; the
        // crash-restart-crash variant is fuzzed via the default profile
        // in `random_fault_scenarios_preserve_safety_on_both_stacks`.
        recrash_prob: 0.0,
        ..ChaosProfile::default()
    };
    for seed in 100..112u64 {
        let n = 3 + (seed % 3) as usize;
        let scenario = Scenario::random(n, seed, &profile);
        if scenario.restarted().is_empty() {
            continue;
        }
        assert!(scenario.crashed().is_empty(), "restart_prob 1: all revive");
        for kind in [StackKind::Modular, StackKind::Monolithic] {
            let (logs, correct, _) = run_once_with(kind, n, seed, &scenario, None);
            assert_eq!(correct.len(), n);
            let delivered: usize = logs.iter().map(Vec::len).sum();
            assert!(
                delivered > 0,
                "{} seed={seed}: nothing delivered",
                kind.label()
            );
        }
    }
}

/// Crash-recovery depth (ROADMAP): a process restarts **while a
/// partition is still active**. The victim is revived inside the
/// isolated minority, so its rejoin announcements go unanswered until
/// the network heals — after healing it must catch up with zero
/// violations, drained equality with the common order, and
/// deterministic replay, on both stacks.
#[test]
fn restart_during_active_partition_catches_up_after_heal() {
    let scenario = Scenario::new()
        // {p1, p2} vs {p3} from 0.5 s to 3 s.
        .partition(
            vec![vec![ProcessId(0), ProcessId(1)], vec![ProcessId(2)]],
            VDur::millis(500),
            VDur::secs(3),
        )
        // The isolated p3 dies at 1 s and is revived at 1.5 s — still
        // partitioned away, with nobody able to serve its rejoin until
        // the heal.
        .crash(ProcessId(2), VDur::secs(1))
        .restart(ProcessId(2), VDur::millis(1500));
    for kind in [StackKind::Modular, StackKind::Monolithic] {
        let (_, common_a) =
            replay_pinned(kind, 21, &scenario, 36, VDur::secs(10), Some(ProcessId(2)));
        assert!(
            common_a.len() >= 25,
            "{}: the majority should keep ordering through the outage ({} delivered)",
            kind.label(),
            common_a.len()
        );
    }
}

/// The acceptance scenario: a minority `{p2}` partitioned away from
/// `{p0, p1}` for 2 s, then healed — on both stacks the oracle must
/// report zero violations of uniform agreement and total order, and the
/// same seed must reproduce byte-identical delivery order.
#[test]
fn minority_partition_heals_cleanly_on_both_stacks() {
    let scenario = Scenario::new().partition(
        vec![vec![ProcessId(0), ProcessId(1)], vec![ProcessId(2)]],
        VDur::millis(500),
        VDur::millis(2500),
    );
    for kind in [StackKind::Modular, StackKind::Monolithic] {
        // Fully drained and healed: strict identical-sequence agreement
        // plus validity for everything accepted.
        let (_, common_a) = replay_pinned(kind, 77, &scenario, 30, VDur::secs(9), None);
        assert!(
            common_a.len() >= 25,
            "{}: partition should not stop the majority ({} delivered)",
            kind.label(),
            common_a.len()
        );
    }
}

/// A partition racing a crash-restart, at pipeline depth 2: the
/// minority `{p3}` is cut off from 0.4 s to 1.6 s, then `p2` of the
/// majority crashes at 2.0 s and restarts at 2.6 s. The healed `p3` must
/// catch up while the group is down to two, and the revived `p2` after
/// it; the drained oracle must stay clean and the same seed must replay
/// byte for byte, on both stacks.
#[test]
fn partition_races_restart_on_both_stacks() {
    let n = 3;
    let scenario = Scenario::new()
        .partition(
            vec![vec![ProcessId(0), ProcessId(1)], vec![ProcessId(2)]],
            VDur::millis(400),
            VDur::millis(1600),
        )
        .crash(ProcessId(1), VDur::millis(2000))
        .restart(ProcessId(1), VDur::millis(2600));
    let stack = StackConfig {
        pipeline_depth: 2,
        ..StackConfig::default()
    };
    for kind in [StackKind::Modular, StackKind::Monolithic] {
        let run = || {
            let (cluster, driver) = run_scripted(
                kind,
                &stack,
                ClusterConfig::new(n, 5),
                &scenario,
                LoadPlan::round_robin(n, 120, VDur::millis(25), 64),
                VTime::ZERO + VDur::secs(12),
            );
            assert_eq!(cluster.incarnation(ProcessId(1)), 1);
            let correct = scenario.correct(n);
            let report = driver
                .oracle()
                .check_drained(&correct, &driver.accepted_at(&correct));
            report.assert_ok(&format!("{} racing faults\n{scenario:?}", kind.label()));
            driver.oracle().logs().to_vec()
        };
        let a = run();
        assert_eq!(
            a,
            run(),
            "{}: racing faults must not break deterministic replay",
            kind.label()
        );
    }
}
