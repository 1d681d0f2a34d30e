//! Stack construction: the two atomic broadcast implementations, plus
//! the shared flow-control microprotocol.

use fortika_abcast::{AbcastConfig, AbcastModule};
use fortika_chaos::{LoadPlan, Scenario, ScriptedDriver};
use fortika_consensus::ConsensusModule;
use fortika_fd::{FdConfig, FdModule, HeartbeatFd, SuspicionWindow};
use fortika_framework::CompositeStack;
use fortika_mono::{MonoNode, MonoOptimizations};
pub use fortika_net::replica::FaultHooks;
use fortika_net::{
    AppStateFactory, Cluster, ClusterConfig, Node, NodeFactory, ProcessId, ReplicaConfig,
    StableStore,
};
use fortika_rbcast::RbcastModule;
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
    /// Monolithic optimization switches (the decomposition sweep flips
    /// these).
    pub mono_opts: MonoOptimizations,
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
    /// Optional application-state hook folded into snapshots: each
    /// process gets its own state machine, advanced on every delivered
    /// message, encoded into snapshots and restored on install (see
    /// `examples/replicated_kv.rs`).
    pub app_state: Option<AppStateFactory>,
    /// **Test-only fault hooks** (debug builds only), applied to both
    /// stacks: the planted lost-vote recovery bug the fuzz campaign must
    /// find and the minimizer must shrink (`tests/minimizer.rs`).
    #[cfg(debug_assertions)]
    pub faults: FaultHooks,
}

impl Default for StackConfig {
    fn default() -> Self {
        StackConfig {
            window: 3,
            mono_opts: MonoOptimizations::all(),
            snapshot_interval: 256,
            decision_cache: 1024,
            pipeline_depth: 1,
            app_state: None,
            #[cfg(debug_assertions)]
            faults: FaultHooks::default(),
        }
    }
}

/// Builds one process's stack with the scripted false-suspicion
/// `windows` handed to its default failure detector (identical in
/// both stacks): a fresh stack, or with
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
    windows: &[SuspicionWindow],
    revived: Option<(VTime, &StableStore)>,
) -> Box<dyn Node> {
    let anchor = revived.map_or(VTime::ZERO, |(now, _)| now);
    let fd = HeartbeatFd::new_anchored(n, me, FdConfig::default(), anchor).with_windows(windows);
    let stable = revived.map(|(_, stable)| stable);
    let app = cfg.app_state.as_ref().map(AppStateFactory::make);
    let replica = replica_config(cfg);
    match kind {
        StackKind::Modular => {
            let abcast = AbcastModule::new(AbcastConfig {
                pipeline_depth: cfg.pipeline_depth.max(1) as u64,
            });
            let rbcast = match stable {
                Some(stable) => RbcastModule::resume(stable),
                None => RbcastModule::new(),
            };
            let consensus = ConsensusModule::with_replica(replica, stable);
            Box::new(CompositeStack::new(vec![
                Box::new(FlowControlModule::new(cfg.window)),
                Box::new(abcast),
                Box::new(consensus.with_app(app)),
                Box::new(rbcast),
                Box::new(FdModule::new(fd)),
            ]))
        }
        StackKind::Monolithic => Box::new(
            MonoNode::with_replica(cfg.mono_opts, cfg.window, fd, replica, stable).with_app(app),
        ),
    }
}

/// The one copy of the replica knobs, handed to whichever stack is
/// built.
fn replica_config(cfg: &StackConfig) -> ReplicaConfig {
    ReplicaConfig {
        decision_cache: cfg.decision_cache,
        snapshot_interval: cfg.snapshot_interval,
        pipeline_depth: cfg.pipeline_depth.max(1) as u64,
        #[cfg(debug_assertions)]
        faults: cfg.faults.clone(),
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
        .map(|me| build(kind, n, me, cfg, windows, None))
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
    Box::new(move |me, now, stable| build(kind, n, me, &cfg, &windows, Some((now, stable))))
}

/// Stands `scenario` on a cluster of `kind` stacks: the one way a
/// [`Scenario`] becomes a running cluster, shared by
/// [`Experiment`](crate::Experiment), [`run_scripted`] and the fuzz
/// runner. In order:
///
/// 1. the scenario's pipeline depth is adopted **upgrade-only** — the
///    deeper of the two requests — so an explicit stack setting is
///    never silently weakened;
/// 2. the scripted suspicion windows are wired into every failure
///    detector;
/// 3. the crash-recovery restart factory is registered;
/// 4. the scenario's faults are scheduled ([`Scenario::apply`]).
///
/// Returns the cluster and the effective stack configuration it runs
/// under. An empty scenario changes nothing about the run.
pub fn scenario_cluster(
    kind: StackKind,
    stack: &StackConfig,
    cfg: ClusterConfig,
    scenario: &Scenario,
) -> (Cluster, StackConfig) {
    let n = cfg.n;
    let mut stack = stack.clone();
    stack.pipeline_depth = stack.pipeline_depth.max(scenario.pipeline_depth());
    let windows = scenario.suspicion_windows();
    let nodes = build_nodes_with_windows(kind, n, &stack, &windows);
    let mut cluster = Cluster::new(cfg, nodes);
    cluster.set_node_factory(node_factory(kind, n, stack.clone(), windows));
    scenario.apply(&mut cluster);
    (cluster, stack)
}

/// [`scenario_cluster`], then `plan` driven through it until `until`
/// under a [`ScriptedDriver`]. Returns both, for the caller to check the
/// oracle, read counters or keep running.
///
/// # Example: a group of three loses and regains a process, under audit
///
/// ```
/// use fortika_chaos::{LoadPlan, Scenario};
/// use fortika_core::{run_scripted, StackConfig, StackKind};
/// use fortika_net::{ClusterConfig, ProcessId};
/// use fortika_sim::{VDur, VTime};
///
/// let scenario = Scenario::new()
///     .crash(ProcessId(2), VDur::millis(400))
///     .restart(ProcessId(2), VDur::millis(900));
/// let (cluster, driver) = run_scripted(
///     StackKind::Monolithic,
///     &StackConfig::default(),
///     ClusterConfig::new(3, 42),
///     &scenario,
///     LoadPlan::round_robin(3, 60, VDur::millis(20), 64),
///     VTime::ZERO + VDur::secs(8),
/// );
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
