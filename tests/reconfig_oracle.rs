//! Planted-bug detection: a node voting with stale-config quorum math.
//!
//! `FaultHooks::skip_config_fence` (debug builds only) makes a stack
//! ignore decided reconfigurations entirely: it keeps the initial
//! configuration's quorum and coordinator math and never reports a
//! config activation. This is the classic dynamic-membership bug — a
//! replica that missed the config fence — and the config-aware oracle
//! must catch it on **both** stacks: the healthy majority reports the
//! decided config versions, the stale node reports none, and the
//! drained completeness check flags it with `ConfigDivergence`.
//! `fortika_chaos::minimize` then ddmin-shrinks a noisy failing
//! scenario down to the single `RemoveNode` event that plants the bug's
//! trigger.
//!
//! The planted knob compiles to a no-op in release builds (same
//! `debug_assertions` gate as the lost-vote bug in
//! `tests/minimizer.rs`), so this suite is debug-only.

#![cfg(debug_assertions)]

use fortika::chaos::{minimize, LinkSelector, LoadPlan, Scenario, ScriptedDriver, Violation};
use fortika::core::{build_nodes, run_scripted, FaultHooks, StackConfig, StackKind};
use fortika::net::{Cluster, ClusterConfig, ProcessId};
use fortika::sim::{VDur, VTime};

const STALE: ProcessId = ProcessId(2);

/// Runs `scenario` on `n` processes where every node is healthy except
/// [`STALE`], which is built with `skip_config_fence` planted. Returns
/// the drained oracle's violations.
///
/// The one run assembled by hand rather than by `scenario_cluster`:
/// that function builds every process from one `StackConfig`, and the
/// bug planted here lives in a single process's.
fn run_with_stale_node(
    kind: StackKind,
    n: usize,
    scenario: &Scenario,
    seed: u64,
) -> Vec<Violation> {
    let healthy = StackConfig {
        initial_members: n,
        ..StackConfig::default()
    };
    let planted = StackConfig {
        faults: FaultHooks {
            skip_config_fence: true,
            ..FaultHooks::default()
        },
        ..healthy.clone()
    };
    let mut nodes = build_nodes(kind, n, &healthy);
    nodes[STALE.index()] = build_nodes(kind, n, &planted).swap_remove(STALE.index());
    let mut cluster = Cluster::new(ClusterConfig::new(n, seed), nodes);
    scenario.apply(&mut cluster);

    let mut driver = ScriptedDriver::new(n, LoadPlan::round_robin(n, 80, VDur::millis(20), 64));
    driver.start(&mut cluster);
    cluster.run_until(VTime::ZERO + VDur::secs(8), &mut driver);

    let correct = scenario.correct(n);
    driver
        .oracle()
        .check_drained(&correct, &driver.accepted_at(&correct))
        .violations
}

fn remove_scenario() -> Scenario {
    Scenario::new().remove_node(ProcessId(0), VDur::millis(600))
}

/// The stale node never registers the decided remove: on both stacks
/// the drained oracle reports `ConfigDivergence` naming exactly it.
/// The stale quorum math has real blast radius too — the planted node
/// keeps rotating coordinators over the *old* member set, so instances
/// it believes belong to the removed (now silent) learner stall and the
/// tail of the load shows up as `MissingDelivery` — but only the
/// config-aware check pinpoints which process is broken.
#[test]
fn stale_quorum_node_is_caught_on_both_stacks() {
    for kind in [StackKind::Modular, StackKind::Monolithic] {
        let violations = run_with_stale_node(kind, 3, &remove_scenario(), 42);
        assert!(
            violations
                .iter()
                .any(|v| v.kind() == "ConfigDivergence" && v.process() == Some(STALE)),
            "{}: expected ConfigDivergence at {STALE}, got {violations:?}",
            kind.label()
        );
        assert!(
            violations
                .iter()
                .filter(|v| v.kind() == "ConfigDivergence")
                .all(|v| v.process() == Some(STALE)),
            "{}: only the planted node may diverge on configs, got {violations:?}",
            kind.label()
        );
    }
}

/// The same run without the planted knob is clean — the detector fires
/// on the bug, not on reconfiguration itself.
#[test]
fn healthy_run_reports_no_config_divergence() {
    for kind in [StackKind::Modular, StackKind::Monolithic] {
        let scenario = remove_scenario();
        let (_, driver) = run_scripted(
            kind,
            &StackConfig::default(),
            ClusterConfig::new(3, 42),
            &scenario,
            LoadPlan::round_robin(3, 80, VDur::millis(20), 64),
            VTime::ZERO + VDur::secs(8),
        );
        let correct = scenario.correct(3);
        driver
            .oracle()
            .check_drained(&correct, &driver.accepted_at(&correct))
            .assert_ok(&format!("{} healthy reconfig", kind.label()));
    }
}

/// ddmin shrinks a noisy failing scenario to the single event that
/// triggers the planted bug: the fault noise (lossy window, delay
/// spike, scripted suspicion) is stripped, the `RemoveNode` survives,
/// and the minimized scenario still reproduces `ConfigDivergence` on
/// both stacks.
#[test]
fn minimizer_shrinks_the_reproducer_to_the_reconfig() {
    let noisy = remove_scenario()
        .lossy(
            LinkSelector::All,
            0.05,
            VDur::millis(200),
            VDur::millis(900),
        )
        .delay_spike(
            LinkSelector::All,
            2000,
            VDur::millis(300),
            VDur::millis(800),
        )
        .false_suspicion(
            ProcessId(1),
            ProcessId(0),
            VDur::millis(400),
            VDur::millis(700),
        );
    for kind in [StackKind::Modular, StackKind::Monolithic] {
        let trips = |candidate: &Scenario| {
            run_with_stale_node(kind, 3, candidate, 42)
                .iter()
                .any(|v| v.kind() == "ConfigDivergence")
        };
        assert!(
            trips(&noisy),
            "{}: the noisy scenario must fail",
            kind.label()
        );
        let report = minimize(&noisy, trips);
        assert_eq!(report.original_events, 4, "{}", kind.label());
        assert_eq!(
            report.scenario.events().len(),
            1,
            "{}: only the RemoveNode should survive ddmin, got {:?}",
            kind.label(),
            report.scenario.events()
        );
        assert!(
            trips(&report.scenario),
            "{}: the minimized scenario must still reproduce",
            kind.label()
        );
    }
}
