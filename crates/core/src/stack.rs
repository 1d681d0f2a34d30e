//! Stack construction: the two atomic broadcast implementations, plus
//! the shared flow-control microprotocol.

use fortika_abcast::{AbcastConfig, AbcastModule};
use fortika_chaos::{LoadPlan, Scenario, ScriptedDriver};
use fortika_consensus::ConsensusModule;
use fortika_fd::{FdConfig, FdModule, HeartbeatFd, OverlayFd, SuspicionWindow};
use fortika_framework::CompositeStack;
use fortika_mono::{MonoConfig, MonoNode, MonoOptimizations};
#[cfg(debug_assertions)]
pub use fortika_net::replica::FaultHooks;
use fortika_net::{
    AppStateFactory, Cluster, ClusterConfig, Dissemination, Node, NodeFactory, ProcessId,
    ReplicaConfig, StableStore,
};
use fortika_rbcast::{RbcastConfig, RbcastModule};
use fortika_sim::VTime;

pub use crate::flow::FlowControlModule;

/// Which of the paper's two implementations to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StackKind {
    /// Microprotocol composition: flow control / abcast / consensus /
    /// rbcast / failure detector, each a black box to its neighbours.
    Modular,
    /// Everything merged in one module, optimizations O1–O3 enabled.
    Monolithic,
}

impl StackKind {
    /// Short lowercase label for tables (`"modular"`, `"monolithic"`).
    pub fn label(&self) -> &'static str {
        match self {
            StackKind::Modular => "modular",
            StackKind::Monolithic => "monolithic",
        }
    }
}

/// Protocol-level tunables shared by both stacks.
#[derive(Debug, Clone)]
pub struct StackConfig {
    /// Flow-control window (outstanding own messages per process). The
    /// default of 3 yields the paper's ~M = 4 messages ordered per
    /// consensus instance at n = 3 under saturation.
    pub window: usize,
    /// Failure detector parameters (identical in both stacks).
    pub fd: FdConfig,
    /// Monolithic optimization switches (the decomposition sweep flips
    /// these).
    pub mono_opts: MonoOptimizations,
    /// Modular stack: reliable broadcast configuration.
    pub rbcast: RbcastConfig,
    /// Modular stack: abcast module configuration.
    pub abcast: AbcastConfig,
    /// Log-compaction snapshot cadence, applied to **both** stacks: fold
    /// the decided prefix into a snapshot every this many instances, and
    /// whenever the decision cache would otherwise evict an uncompacted
    /// decision. `0` disables snapshots — deep rejoins then stall once
    /// the prefix outgrows `decision_cache` (`*.join_unservable`).
    pub snapshot_interval: u64,
    /// Decision cache depth, applied to both stacks.
    pub decision_cache: usize,
    /// Windowed-sequencer depth α, applied to **both** stacks: how many
    /// consensus instances each process keeps in flight concurrently.
    /// `1` (the default) reproduces the paper's strictly sequential
    /// instance execution; larger depths overlap decision round-trips
    /// while decisions are still applied strictly in instance order.
    /// The effective batch supply is bounded by the flow-control
    /// [`window`](StackConfig::window): a deep pipeline only fills when
    /// the flow windows offer enough distinct messages for α disjoint
    /// batches.
    pub pipeline_depth: usize,
    /// How the modular stack disseminates batch payloads.
    ///
    /// `Direct` (the default) is the seed-faithful diffusion path —
    /// byte-identical benches. `Ring`/`Tree` offload payloads onto a
    /// dissemination topology and run consensus on value-id-sized
    /// descriptors (see `docs/DISSEMINATION.md`). The monolithic stack
    /// already targets its coordinator directly and ignores the knob.
    /// Incompatible with [`app_state`](StackConfig::app_state): the
    /// snapshot fold sees descriptor batches under an offloading
    /// strategy, not application payloads.
    pub dissemination: Dissemination,
    /// Optional application-state hook folded into snapshots: each
    /// process gets its own state machine, advanced on every delivered
    /// message, encoded into snapshots and restored on install (see
    /// `examples/replicated_kv.rs`).
    pub app_state: Option<AppStateFactory>,
    /// Initial voting member count for reconfiguration runs, applied to
    /// both stacks. `0` (the default) means "every process": the whole
    /// group votes and dynamic membership is dormant. Reconfiguration
    /// runs set this below the cluster capacity so processes
    /// `initial_members..n` start as learners (standby capacity that a
    /// log-decided `Add` can later promote to voters).
    pub initial_members: usize,
    /// **Test-only fault hooks** (debug builds only), applied to both
    /// stacks: the planted lost-vote recovery bug the fuzz campaign must
    /// find and the minimizer must shrink (`tests/minimizer.rs`), and
    /// the planted stale-quorum reconfiguration bug the config-aware
    /// oracle must detect (`tests/reconfig_oracle.rs`).
    #[cfg(debug_assertions)]
    pub faults: FaultHooks,
}

impl Default for StackConfig {
    fn default() -> Self {
        StackConfig {
            window: 3,
            fd: FdConfig::default(),
            mono_opts: MonoOptimizations::all(),
            rbcast: RbcastConfig::default(),
            abcast: AbcastConfig::default(),
            snapshot_interval: 256,
            decision_cache: 1024,
            pipeline_depth: 1,
            dissemination: Dissemination::Direct,
            app_state: None,
            initial_members: 0,
            #[cfg(debug_assertions)]
            faults: FaultHooks::default(),
        }
    }
}

/// Builds one process's stack with the scripted false-suspicion
/// `windows` overlaid on its failure detector: a fresh stack, or with
/// `revived = (now, stable)` the stack of a process restarted at `now`
/// over its stable store — the failure detector is anchored at the
/// restart instant instead of time zero, and each protocol layer
/// resumes its durable state (consensus vote records, the decided
/// watermark, the rbcast sequence counter) out of `stable`. Everything
/// else starts fresh, and the stack announces its rejoin to pull the
/// decided prefix from peers.
fn build(
    kind: StackKind,
    n: usize,
    me: ProcessId,
    cfg: &StackConfig,
    windows: Vec<SuspicionWindow>,
    revived: Option<(VTime, &StableStore)>,
) -> Box<dyn Node> {
    let heartbeat = match revived {
        Some((now, _)) => HeartbeatFd::new_anchored(n, me, cfg.fd.clone(), now),
        None => HeartbeatFd::new(n, me, cfg.fd.clone()),
    };
    let stable = revived.map(|(_, stable)| stable);
    // Only chaos runs pay for the overlay: windows relevant to this
    // process wrap the detector, everything else runs the bare core.
    let wraps = windows.iter().any(|w| w.observer == me);
    let app = cfg.app_state.as_ref().map(AppStateFactory::make);
    let replica = replica_config(cfg);
    match kind {
        StackKind::Modular => {
            let fd_module: Box<dyn fortika_framework::Microprotocol> = if wraps {
                Box::new(FdModule::new(OverlayFd::new(n, me, heartbeat, windows)))
            } else {
                Box::new(FdModule::new(heartbeat))
            };
            let (abcast, rbcast) = match stable {
                Some(stable) => (
                    AbcastModule::resume(abcast_config(cfg), stable),
                    RbcastModule::resume(cfg.rbcast.clone(), stable),
                ),
                None => (
                    AbcastModule::new(abcast_config(cfg)),
                    RbcastModule::new(cfg.rbcast.clone()),
                ),
            };
            let consensus = ConsensusModule::with_replica(replica, stable);
            Box::new(CompositeStack::new(vec![
                Box::new(FlowControlModule::new(cfg.window)),
                Box::new(abcast),
                Box::new(consensus.with_app(app)),
                Box::new(rbcast),
                fd_module,
            ]))
        }
        StackKind::Monolithic => {
            let fd: Box<dyn fortika_fd::FailureDetector> = if wraps {
                Box::new(OverlayFd::new(n, me, heartbeat, windows))
            } else {
                Box::new(heartbeat)
            };
            Box::new(MonoNode::with_replica(mono_config(cfg), fd, replica, stable).with_app(app))
        }
    }
}

/// The modular abcast configuration with the stack-wide pipeline,
/// dissemination and membership knobs applied.
fn abcast_config(cfg: &StackConfig) -> AbcastConfig {
    assert!(
        cfg.app_state.is_none() || !cfg.dissemination.offloads(),
        "app_state folds application payloads and is incompatible with \
         offloaded dissemination (consensus orders descriptors there)"
    );
    AbcastConfig {
        pipeline_depth: cfg.pipeline_depth.max(1) as u64,
        dissemination: cfg.dissemination,
        initial_members: cfg.initial_members,
        ..cfg.abcast.clone()
    }
}

/// The one copy of the replica knobs, handed to whichever stack is
/// built.
fn replica_config(cfg: &StackConfig) -> ReplicaConfig {
    ReplicaConfig {
        decision_cache: cfg.decision_cache,
        snapshot_interval: cfg.snapshot_interval,
        pipeline_depth: cfg.pipeline_depth.max(1) as u64,
        initial_members: cfg.initial_members,
        #[cfg(debug_assertions)]
        faults: cfg.faults.clone(),
    }
}

/// The monolithic configuration with the stack-wide knobs applied.
fn mono_config(cfg: &StackConfig) -> MonoConfig {
    MonoConfig {
        opts: cfg.mono_opts,
        window: cfg.window,
    }
}

/// Builds the whole cluster's nodes (index = process id).
pub fn build_nodes(kind: StackKind, n: usize, cfg: &StackConfig) -> Vec<Box<dyn Node>> {
    build_nodes_with_windows(kind, n, cfg, &[])
}

/// Builds the whole cluster's nodes with the scenario's scripted
/// suspicion windows wired into every failure detector.
pub fn build_nodes_with_windows(
    kind: StackKind,
    n: usize,
    cfg: &StackConfig,
    windows: &[SuspicionWindow],
) -> Vec<Box<dyn Node>> {
    ProcessId::all(n)
        .map(|me| build(kind, n, me, cfg, windows.to_vec(), None))
        .collect()
}

/// A [`NodeFactory`] rebuilding stacks of the given kind/config on
/// restart (crash-recovery) — what [`scenario_cluster`] registers with
/// [`Cluster::set_node_factory`].
pub fn node_factory(
    kind: StackKind,
    n: usize,
    cfg: StackConfig,
    windows: Vec<SuspicionWindow>,
) -> NodeFactory {
    Box::new(move |me, now, stable| build(kind, n, me, &cfg, windows.clone(), Some((now, stable))))
}

/// Stands `scenario` on a cluster of `kind` stacks: the one way a
/// [`Scenario`] becomes a running cluster, shared by
/// [`Experiment`](crate::Experiment), [`run_scripted`] and the fuzz
/// runner. `cfg.n` is the initial group. In order:
///
/// 1. the cluster is provisioned at [`Scenario::capacity`], so every
///    `AddNode` has a standby slot;
/// 2. the scenario's configuration axes are adopted **upgrade-only** —
///    `pipeline_depth` becomes the deeper of the two requests,
///    a drawn `Ring`/`Tree` is taken only by a stack at the `Direct`
///    default with no [`app_state`](StackConfig::app_state) fold
///    (offloaded runs fold descriptors, not application payloads), and
///    a scenario with reconfigurations sets an unset
///    [`initial_members`](StackConfig::initial_members) to `cfg.n`, so
///    only the original group votes and standbys start as learners —
///    an explicit stack setting is never silently weakened;
/// 3. the scripted suspicion windows are wired into every failure
///    detector;
/// 4. the crash-recovery restart factory is registered;
/// 5. standbys are crashed at t = 0, before the scenario's own events,
///    so the restart their `AddNode` schedules always finds them down;
/// 6. the scenario's faults are scheduled ([`Scenario::apply`]).
///
/// Returns the cluster and the effective stack configuration it runs
/// under. An empty scenario changes nothing about the run.
pub fn scenario_cluster(
    kind: StackKind,
    stack: &StackConfig,
    mut cfg: ClusterConfig,
    scenario: &Scenario,
) -> (Cluster, StackConfig) {
    let n = cfg.n;
    let capacity = scenario.capacity(n);
    cfg.n = capacity;
    let mut stack = stack.clone();
    stack.pipeline_depth = stack.pipeline_depth.max(scenario.pipeline_depth());
    if !stack.dissemination.offloads() && stack.app_state.is_none() {
        stack.dissemination = scenario.dissemination();
    }
    if !scenario.reconfigs().is_empty() && stack.initial_members == 0 {
        stack.initial_members = n;
    }
    let windows = scenario.suspicion_windows();
    let nodes = build_nodes_with_windows(kind, capacity, &stack, &windows);
    let mut cluster = Cluster::new(cfg, nodes);
    cluster.set_node_factory(node_factory(kind, capacity, stack.clone(), windows));
    for pid in n..capacity {
        cluster.schedule_crash(ProcessId(pid as u16), VTime::ZERO);
    }
    scenario.apply(&mut cluster);
    (cluster, stack)
}

/// [`scenario_cluster`], then `plan` driven through it until `until`
/// under a [`ScriptedDriver`] (standbys deliver and are audited without
/// generating load). Returns both, for the caller to check the oracle,
/// read counters or keep running.
///
/// # Example: a group of three grows by a standby, under audit
///
/// ```
/// use fortika_chaos::{LoadPlan, Scenario};
/// use fortika_core::{run_scripted, StackConfig, StackKind};
/// use fortika_net::{ClusterConfig, ProcessId};
/// use fortika_sim::{VDur, VTime};
///
/// let scenario = Scenario::new().add_node(ProcessId(3), VDur::millis(600));
/// let (cluster, driver) = run_scripted(
///     StackKind::Monolithic,
///     &StackConfig::default(),
///     ClusterConfig::new(3, 42), // the initial group; the standby is provisioned
///     &scenario,
///     LoadPlan::round_robin(3, 60, VDur::millis(20), 64),
///     VTime::ZERO + VDur::secs(8),
/// );
/// assert_eq!(cluster.n(), 4);
/// let correct = scenario.correct(cluster.n());
/// driver
///     .oracle()
///     .check_drained(&correct, &driver.accepted_at(&correct))
///     .assert_ok("doc example");
/// ```
pub fn run_scripted(
    kind: StackKind,
    stack: &StackConfig,
    cfg: ClusterConfig,
    scenario: &Scenario,
    plan: LoadPlan,
    until: VTime,
) -> (Cluster, ScriptedDriver) {
    let (mut cluster, _) = scenario_cluster(kind, stack, cfg, scenario);
    let mut driver = ScriptedDriver::new(cluster.n(), plan);
    driver.start(&mut cluster);
    cluster.run_until(until, &mut driver);
    (cluster, driver)
}
