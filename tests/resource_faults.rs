//! Resource-fault regression suite: degraded links (bandwidth shrunk,
//! traffic serializes at the reduced rate) and slow nodes (every CPU
//! cost multiplied) against **both** stacks.
//!
//! Resource faults are not omission faults: no message is ever lost and
//! no process crashes, so the full atomic-broadcast contract — safety
//! *and* validity — must hold under them; they are only allowed to make
//! runs slower. The suite pins both directions:
//!
//! * a degraded-link window must actually stretch delivery latency
//!   (the fault is real, not a no-op), and
//! * neither fault family may ever produce an oracle violation, and
//!   runs must replay deterministically under a fixed seed.

use fortika::chaos::{ChaosProfile, LoadPlan, Scenario};
use fortika::core::workload::Workload;
use fortika::core::{run_scripted, Experiment, RunReport, StackConfig, StackKind};
use fortika::net::{ClusterConfig, CostModel, LinkSelector, ProcessId};
use fortika::sim::{VDur, VTime};

/// Runs one experiment at a fixed operating point, optionally under a
/// scenario, and returns the report (oracle already asserted clean).
fn run(kind: StackKind, scenario: Option<Scenario>, label: &str) -> RunReport {
    let mut builder = Experiment::builder(kind, 3)
        .workload(Workload::constant_rate(500.0, 16 * 1024))
        .warmup_secs(0.5)
        .measure_secs(1.5)
        .seed(11);
    if let Some(s) = scenario {
        builder = builder.scenario(s);
    }
    let r = builder.build().run();
    if let Some(oracle) = &r.oracle {
        oracle.assert_ok(label);
    }
    r
}

/// A degraded-link window spanning the whole measurement window.
fn degraded_scenario() -> Scenario {
    // Warm-up 0.5 s + measure 1.5 s: links at 10 % of nominal from
    // 0.5 s to 2 s, so every measured message crosses a degraded link.
    Scenario::new().degrade_link(
        LinkSelector::All,
        100,
        VDur::millis(500),
        VDur::millis(2000),
    )
}

/// A slow-node window spanning the whole measurement window: p0 (the
/// initial consensus coordinator) runs 5× slower.
fn slow_scenario() -> Scenario {
    Scenario::new().slow_node(ProcessId(0), 5000, VDur::millis(500), VDur::millis(2000))
}

#[test]
fn degraded_link_window_stretches_delivery_latency_on_both_stacks() {
    for kind in [StackKind::Modular, StackKind::Monolithic] {
        let baseline = run(kind, None, "baseline");
        let degraded = run(
            kind,
            Some(degraded_scenario()),
            &format!("degraded links, {}", kind.label()),
        );
        assert!(
            degraded.counters.event("chaos.degraded_tx") > 0,
            "{}: the degraded-link stage never engaged",
            kind.label()
        );
        assert!(
            degraded.early_latency_ms.mean > baseline.early_latency_ms.mean,
            "{}: degraded links must stretch mean latency ({:.3} ms !> {:.3} ms)",
            kind.label(),
            degraded.early_latency_ms.mean,
            baseline.early_latency_ms.mean
        );
        assert!(
            degraded.early_latency_ms.p50 > baseline.early_latency_ms.p50,
            "{}: degraded links must stretch median latency",
            kind.label()
        );
        // A resource fault heals: the run still delivers and the oracle
        // (asserted in `run`) saw no violation.
        assert!(degraded.delivered_total > 0);
    }
}

#[test]
fn slow_node_window_cannot_violate_the_oracle_on_both_stacks() {
    for kind in [StackKind::Modular, StackKind::Monolithic] {
        let slow = run(
            kind,
            Some(slow_scenario()),
            &format!("slow node, {}", kind.label()),
        );
        let violations = slow.oracle.as_ref().expect("scenario attached");
        assert!(
            violations.violations.is_empty(),
            "{}: slow node produced violations: {:?}",
            kind.label(),
            violations.violations
        );
        assert!(
            slow.delivered_total > 0,
            "{}: nothing delivered",
            kind.label()
        );
        // Determinism: the same seed replays bit-identically, resource
        // faults included.
        let replay = run(kind, Some(slow_scenario()), "slow node, replay");
        assert_eq!(
            slow.early_latency_ms.mean.to_bits(),
            replay.early_latency_ms.mean.to_bits(),
            "{}: slow-node run did not replay deterministically",
            kind.label()
        );
        assert_eq!(slow.delivered_total, replay.delivered_total);
    }
}

#[test]
fn combined_resource_faults_hold_the_full_contract_on_both_stacks() {
    // Both families at once, overlapping mid-window.
    let scenario = Scenario::new()
        .slow_node(ProcessId(1), 3000, VDur::millis(600), VDur::millis(1600))
        .degrade_link(
            LinkSelector::From(ProcessId(2)),
            200,
            VDur::millis(800),
            VDur::millis(1800),
        );
    for kind in [StackKind::Modular, StackKind::Monolithic] {
        let r = run(
            kind,
            Some(scenario.clone()),
            &format!("combined resource faults, {}", kind.label()),
        );
        assert_eq!(
            r.lost_samples,
            0,
            "{}: resource faults may not lose messages",
            kind.label()
        );
    }
}

#[test]
fn random_resource_only_scenarios_preserve_safety_and_validity_on_both_stacks() {
    // Fuzz the new scenario family: resource faults never break the
    // quasi-reliable channel assumption, so validity is fair to assert
    // on every seed (unlike the lossy fuzz suites).
    for seed in 0..8u64 {
        let n = 3 + (seed % 2) as usize; // 3, 4
        let scenario = Scenario::random(n, seed, &ChaosProfile::resource_only());
        for kind in [StackKind::Modular, StackKind::Monolithic] {
            let (_, driver) = run_scripted(
                kind,
                &StackConfig::default(),
                ClusterConfig::new(n, seed),
                &scenario,
                LoadPlan::random(n, seed, 24, VDur::millis(1500), 1024),
                VTime::ZERO + scenario.horizon() + VDur::secs(5),
            );
            let correct = scenario.correct(n);
            assert_eq!(correct.len(), n, "resource faults crash nobody");
            driver
                .oracle()
                .check_with_validity(&correct, &driver.accepted_at(&correct))
                .assert_ok(&format!(
                    "{} n={n} seed={seed}\nscenario: {scenario:?}",
                    kind.label()
                ));
        }
    }
}

#[test]
fn stable_write_cost_surfaces_in_utilization_accounting() {
    // Regression: durability time must be folded into the utilization
    // numbers a sweep reports — both into `max_cpu_utilization` and
    // into the dedicated `max_durability_utilization` breakdown.
    let point = |cost: CostModel| -> RunReport {
        Experiment::builder(StackKind::Modular, 3)
            .workload(Workload::constant_rate(200.0, 1024))
            .warmup_secs(0.5)
            .measure_secs(1.5)
            .seed(11)
            .cost(cost)
            .build()
            .run()
    };
    let free = point(CostModel::default());
    assert_eq!(
        free.max_durability_utilization, 0.0,
        "free durability must report a zero durability share"
    );
    let priced = point(CostModel {
        stable_write: VDur::micros(500),
        ..CostModel::default()
    });
    assert!(
        priced.max_durability_utilization > 0.01,
        "priced stable writes must surface in the durability share (got {})",
        priced.max_durability_utilization
    );
    assert!(
        priced.max_durability_utilization <= priced.max_cpu_utilization + 1e-9,
        "durability time is a subset of CPU time"
    );
    assert!(
        priced.max_cpu_utilization > free.max_cpu_utilization,
        "durability work must be folded into CPU utilization \
         ({:.4} !> {:.4})",
        priced.max_cpu_utilization,
        free.max_cpu_utilization
    );
}
