//! Randomized fault injection with the full atomic-broadcast contract:
//! random workloads, group sizes, seeds and crash/suspicion/duplication
//! schedules must never violate safety — and, because these scenarios
//! keep channels quasi-reliable (no loss windows), **validity** is
//! asserted too: every message accepted at a process that stays correct
//! must be delivered everywhere.
//!
//! Built on `fortika-chaos`: scenarios come from the seeded generator,
//! the load from [`LoadPlan::random`], and the checks from the
//! delivery-invariant oracle. Failures print the offending scenario;
//! paste its seed into a new pinned test to make it a regression.

use fortika::chaos::{ChaosProfile, CoverageReport, LoadPlan, Scenario};
use fortika::core::{run_scripted, StackConfig, StackKind};
use fortika::net::{ClusterConfig, ProcessId};
use fortika::sim::{VDur, VTime};

/// Liveness-preserving chaos: crashes (minority), duplication, delay
/// spikes and false suspicions — no loss, no partitions, so every
/// accepted message from a correct sender must eventually land.
fn liveness_preserving_profile() -> ChaosProfile {
    ChaosProfile {
        horizon: VDur::millis(1500),
        partition_prob: 0.0,
        loss_prob: 0.0,
        dup_prob: 0.5,
        delay_prob: 0.5,
        false_suspicion_prob: 0.5,
        ..ChaosProfile::default()
    }
}

fn run_scenario(kind: StackKind, n: usize, seed: u64, scenario: &Scenario, plan: LoadPlan) {
    run_scenario_covered(kind, n, seed, scenario, plan, None);
}

/// Like [`run_scenario`], optionally folding the run's counters into a
/// campaign coverage report. The assembly adopts the scenario's drawn
/// pipeline depth, so random campaigns also fuzz pipelined runs —
/// under the unchanged oracle, including validity.
fn run_scenario_covered(
    kind: StackKind,
    n: usize,
    seed: u64,
    scenario: &Scenario,
    plan: LoadPlan,
    coverage: Option<&mut CoverageReport>,
) {
    // Long drain: liveness within the run (suspicion timeouts, round
    // changes and decision recovery all need wall-clock room).
    let (cluster, driver) = run_scripted(
        kind,
        &StackConfig::default(),
        ClusterConfig::new(n, seed),
        scenario,
        plan,
        VTime::ZERO + scenario.horizon() + VDur::secs(8),
    );

    let correct = scenario.correct(n);
    let must_deliver = driver.accepted_at(&correct);
    driver
        .oracle()
        .check_drained(&correct, &must_deliver)
        .assert_ok(&format!(
            "{} n={n} seed={seed}\nscenario: {scenario:?}",
            kind.label()
        ));
    if let Some(report) = coverage {
        report.absorb(cluster.counters());
    }
}

#[test]
fn atomic_broadcast_properties_hold_under_random_faults() {
    let mut coverage = CoverageReport::new();
    for seed in 0..12u64 {
        let n = 3 + (seed % 3) as usize; // 3, 4, 5
        let scenario = Scenario::random(n, seed, &liveness_preserving_profile());
        for kind in [StackKind::Modular, StackKind::Monolithic] {
            let plan = LoadPlan::random(n, seed, 24, VDur::millis(1200), 2048);
            run_scenario_covered(kind, n, seed, &scenario, plan, Some(&mut coverage));
        }
    }
    // Scenario coverage report (ROADMAP metric): what did this
    // validity-preserving campaign actually reach?
    println!("{coverage}");
    // Archive the campaign's coverage for CI (best-effort: the assert
    // below is the gate, the file is evidence).
    let _ = coverage.write_json(std::path::Path::new(
        "target/coverage-random-schedules.json",
    ));
    assert!(
        coverage.reached("idle_proposals"),
        "campaign never exercised the idle-consensus keep-alive"
    );
}

/// Hand-picked nasty schedules, pinned as regressions.
#[test]
fn pinned_adversarial_schedules() {
    // Crash the round-0 coordinator immediately, second crash later.
    let coordinator_then_peer = Scenario::new()
        .crash(ProcessId(0), VDur::millis(10))
        .crash(ProcessId(1), VDur::millis(60));
    run_scenario(
        StackKind::Monolithic,
        5,
        1234,
        &coordinator_then_peer,
        LoadPlan::random(5, 1234, 20, VDur::millis(100), 700),
    );
    run_scenario(
        StackKind::Modular,
        5,
        4321,
        &Scenario::new()
            .crash(ProcessId(0), VDur::millis(11))
            .crash(ProcessId(2), VDur::millis(25)),
        LoadPlan::random(5, 4321, 12, VDur::millis(80), 128),
    );
    // A slandered coordinator: every process wrongly suspects p1 while
    // the load is in full flight, then the lie stops.
    let slander = Scenario::new()
        .false_suspicion(
            ProcessId(1),
            ProcessId(0),
            VDur::millis(20),
            VDur::millis(400),
        )
        .false_suspicion(
            ProcessId(2),
            ProcessId(0),
            VDur::millis(20),
            VDur::millis(400),
        );
    for kind in [StackKind::Modular, StackKind::Monolithic] {
        run_scenario(
            kind,
            3,
            777,
            &slander,
            LoadPlan::round_robin(3, 18, VDur::millis(15), 256),
        );
    }
    // Heavy duplication across the whole run plus a mid-run crash.
    let dup_and_crash = Scenario::new()
        .duplicate(
            fortika::chaos::LinkSelector::All,
            0.5,
            VDur::ZERO,
            VDur::millis(1500),
        )
        .crash(ProcessId(2), VDur::millis(33));
    for kind in [StackKind::Modular, StackKind::Monolithic] {
        run_scenario(
            kind,
            5,
            778,
            &dup_and_crash,
            LoadPlan::random(5, 778, 20, VDur::millis(90), 64),
        );
    }
}
