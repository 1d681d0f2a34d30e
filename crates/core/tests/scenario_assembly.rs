//! `scenario_cluster` is the one way a `Scenario` gets onto a cluster:
//! these pin its provisioning and its upgrade-only adoption of the
//! scenario's configuration axes, and the tick-id boundary between a
//! scenario's reserved reconfiguration ticks and a workload's own.

use fortika_chaos::{reconfig_tick, Scenario};
use fortika_core::workload::{Workload, WorkloadDriver};
use fortika_core::{build_nodes, scenario_cluster};
use fortika_core::{StackConfig, StackKind};
use fortika_net::{Cluster, ClusterConfig, ConfigChange, NoopHarness, ProcessId};
use fortika_sim::{VDur, VTime};

const N: usize = 3;
const STANDBY: ProcessId = ProcessId(N as u16);

/// Every axis a generated scenario can carry: a grow, a scripted
/// suspicion and a drawn depth.
fn drawn() -> Scenario {
    Scenario::new()
        .add_node(STANDBY, VDur::millis(300))
        .false_suspicion(
            ProcessId(1),
            ProcessId(0),
            VDur::millis(50),
            VDur::millis(150),
        )
        .with_pipeline_depth(3)
}

fn assemble(kind: StackKind, stack: &StackConfig) -> (Cluster, StackConfig) {
    scenario_cluster(kind, stack, ClusterConfig::new(N, 1), &drawn())
}

#[test]
fn scenario_cluster_provisions_standbys_and_adopts_the_drawn_axes() {
    for kind in [StackKind::Modular, StackKind::Monolithic] {
        let (mut cluster, stack) = assemble(kind, &StackConfig::default());
        assert_eq!(cluster.n(), N + 1, "one slot per AddNode standby");
        assert_eq!(stack.pipeline_depth, 3);
        assert_eq!(stack.initial_members, N, "only the original group votes");

        // The standby is down from t = 0 and everyone else is up; the
        // scripted suspicion reached p2's detector.
        cluster.run_until(VTime::ZERO + VDur::millis(200), &mut NoopHarness);
        assert!(!cluster.alive(STANDBY));
        assert!(ProcessId::all(N).all(|p| cluster.alive(p)));
        assert!(cluster.counters().event("fd.suspicions") > 0, "{kind:?}");
        // Its AddNode revives it through the registered factory.
        cluster.run_until(VTime::ZERO + VDur::millis(400), &mut NoopHarness);
        assert!(cluster.alive(STANDBY));
        assert_eq!(cluster.incarnation(STANDBY), 1);
    }
}

#[test]
fn explicit_stack_settings_are_never_weakened() {
    let explicit = StackConfig {
        pipeline_depth: 5,
        initial_members: 2,
        ..StackConfig::default()
    };
    let (_, stack) = assemble(StackKind::Modular, &explicit);
    assert_eq!(stack.pipeline_depth, 5);
    assert_eq!(stack.initial_members, 2);
}

/// A reserved tick that reaches a bare `WorkloadDriver` (no `AuditTap`
/// in front of it) is refused in debug builds and ignored in release
/// builds, never read as the sender its low 16 bits happen to name.
#[test]
#[cfg_attr(debug_assertions, should_panic(expected = "names no sender"))]
fn reserved_tick_is_not_read_as_a_sender() {
    let nodes = build_nodes(StackKind::Monolithic, N, &StackConfig::default());
    let mut cluster = Cluster::new(ClusterConfig::new(N, 1), nodes);
    let end = VTime::ZERO + VDur::millis(100);
    let mut driver = WorkloadDriver::new(Workload::constant_rate(100.0, 8), N, VTime::ZERO, end);
    // Never started, so the only tick is the foreign one.
    let foreign = reconfig_tick(ConfigChange::Add(ProcessId(1)));
    cluster.schedule_tick(VTime::ZERO + VDur::millis(1), foreign);
    cluster.run_until(end, &mut driver);
    assert_eq!(driver.finish().admitted, 0);
}
