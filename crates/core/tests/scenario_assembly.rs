//! `scenario_cluster` is the one way a `Scenario` gets onto a cluster:
//! these pin its upgrade-only adoption of the scenario's configuration
//! axes, its suspicion windows and its restart factory, and that no
//! other source applies a scenario or registers a restart factory by
//! hand.

use std::path::{Path, PathBuf};

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

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("source directory readable") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// `scenario_cluster` itself (in `crates/core/src/stack.rs`) is the one
/// place allowed to apply a scenario to a cluster or register a restart
/// factory; the library, the root tests and the examples call it (or
/// `run_scripted` on top of it) instead.
#[test]
fn no_source_assembles_a_scenario_cluster_by_hand() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let exempt = root.join("crates/core/src/stack.rs");
    let mut files = Vec::new();
    for dir in ["crates/core/src", "tests", "examples"] {
        rust_files(&root.join(dir), &mut files);
    }
    assert!(files.len() > 20, "only {} files scanned", files.len());
    let mut copies = Vec::new();
    for file in files.iter().filter(|f| **f != exempt) {
        let text = std::fs::read_to_string(file).expect("source readable");
        for (i, line) in text.lines().enumerate() {
            if line.contains(".apply(&mut cluster)") || line.contains("set_node_factory") {
                let rel = file.strip_prefix(&root).unwrap_or(file);
                copies.push(format!("{}:{}: {}", rel.display(), i + 1, line.trim()));
            }
        }
    }
    assert!(
        copies.is_empty(),
        "hand-assembled scenario cluster: call fortika_core::scenario_cluster / \
         run_scripted instead\n{}",
        copies.join("\n")
    );
}
