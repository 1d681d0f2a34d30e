//! `scenario_cluster` is the one way a `Scenario` gets onto a cluster:
//! these pin its upgrade-only adoption of the scenario's configuration
//! axes, its suspicion windows and its restart factory.

use fortika_chaos::Scenario;
use fortika_core::scenario_cluster;
use fortika_core::{StackConfig, StackKind};
use fortika_net::{Cluster, ClusterConfig, NoopHarness, ProcessId};
use fortika_sim::{VDur, VTime};

const N: usize = 3;
const REVIVED: ProcessId = ProcessId(2);

/// Every axis a generated scenario can carry: a crash-restart, a
/// scripted suspicion and a drawn depth.
fn drawn() -> Scenario {
    Scenario::new()
        .crash(REVIVED, VDur::millis(250))
        .restart(REVIVED, VDur::millis(300))
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
fn scenario_cluster_adopts_the_drawn_axes() {
    for kind in [StackKind::Modular, StackKind::Monolithic] {
        let (mut cluster, stack) = assemble(kind, &StackConfig::default());
        assert_eq!(cluster.n(), N);
        assert_eq!(stack.pipeline_depth, 3);

        // Everyone is up; the scripted suspicion reached p2's detector.
        cluster.run_until(VTime::ZERO + VDur::millis(200), &mut NoopHarness);
        assert!(ProcessId::all(N).all(|p| cluster.alive(p)));
        assert!(cluster.counters().event("fd.suspicions") > 0, "{kind:?}");
        // The restart revives p3 through the registered factory.
        cluster.run_until(VTime::ZERO + VDur::millis(400), &mut NoopHarness);
        assert!(cluster.alive(REVIVED));
        assert_eq!(cluster.incarnation(REVIVED), 1);
    }
}

#[test]
fn explicit_stack_settings_are_never_weakened() {
    let explicit = StackConfig {
        pipeline_depth: 5,
        ..StackConfig::default()
    };
    let (_, stack) = assemble(StackKind::Modular, &explicit);
    assert_eq!(stack.pipeline_depth, 5);
}
