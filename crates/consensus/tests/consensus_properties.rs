//! Consensus correctness: agreement, validity, integrity, termination —
//! in good runs, under coordinator crashes and under false suspicions.

use std::cell::RefCell;
use std::rc::Rc;

use bytes::Bytes;
use fortika_consensus::ConsensusModule;
use fortika_fd::{FdConfig, FdModule, HeartbeatFd, SuspicionWindow};
use fortika_framework::{CompositeStack, Event, EventKind, FrameworkCtx, Microprotocol, ModuleId};
use fortika_net::{
    AppMsg, Batch, Cluster, ClusterConfig, CostModel, MsgId, NetModel, Node, ProcessId, TimerId,
};
use fortika_rbcast::RbcastModule;
use fortika_sim::{VDur, VTime};

type DecisionLog = Rc<RefCell<Vec<(ProcessId, u64, Batch)>>>;

/// Test driver above consensus: proposes scheduled values, records
/// decisions.
struct Driver {
    proposals: Vec<(u64, Batch, VDur)>,
    decisions: DecisionLog,
}

impl Microprotocol for Driver {
    fn name(&self) -> &'static str {
        "consensus-driver"
    }
    fn module_id(&self) -> ModuleId {
        80
    }
    fn subscriptions(&self) -> &'static [EventKind] {
        &[EventKind::Decide]
    }
    fn on_start(&mut self, ctx: &mut FrameworkCtx<'_, '_>) {
        for (idx, (_, _, delay)) in self.proposals.iter().enumerate() {
            ctx.set_timer(*delay, idx as u64);
        }
    }
    fn on_timer(&mut self, ctx: &mut FrameworkCtx<'_, '_>, _t: TimerId, tag: u64) {
        let (instance, value, _) = self.proposals[tag as usize].clone();
        ctx.raise(Event::Propose { instance, value });
    }
    fn on_event(&mut self, ctx: &mut FrameworkCtx<'_, '_>, ev: &Event) {
        if let Event::Decide { instance, value } = ev {
            self.decisions
                .borrow_mut()
                .push((ctx.pid(), *instance, value.clone()));
        }
    }
}

fn batch_of(p: u16, seq: u64, size: usize) -> Batch {
    Batch::normalize(vec![AppMsg::new(
        MsgId::new(ProcessId(p), seq),
        Bytes::from(vec![p as u8; size]),
    )])
}

fn fd_cfg() -> FdConfig {
    FdConfig {
        heartbeat_interval: VDur::millis(20),
        timeout: VDur::millis(100),
        timeout_increment: VDur::millis(50),
    }
}

/// Builds an n-process cluster of [Driver | Consensus | Rbcast | FD]
/// stacks; `proposals[p]` is the proposal schedule of process `p`.
fn build(n: usize, proposals: Vec<Vec<(u64, Batch, VDur)>>, seed: u64) -> (Cluster, DecisionLog) {
    let log: DecisionLog = Default::default();
    let nodes: Vec<Box<dyn Node>> = (0..n)
        .map(|i| {
            Box::new(CompositeStack::new(vec![
                Box::new(Driver {
                    proposals: proposals[i].clone(),
                    decisions: log.clone(),
                }),
                Box::new(ConsensusModule::new()),
                Box::new(RbcastModule::new()),
                Box::new(FdModule::new(HeartbeatFd::new(
                    n,
                    ProcessId(i as u16),
                    fd_cfg(),
                ))),
            ])) as Box<dyn Node>
        })
        .collect();
    (Cluster::new(ClusterConfig::new(n, seed), nodes), log)
}

/// All decisions for `instance`, grouped: (process, value).
fn decisions_for(log: &DecisionLog, instance: u64) -> Vec<(ProcessId, Batch)> {
    log.borrow()
        .iter()
        .filter(|(_, k, _)| *k == instance)
        .map(|(p, _, v)| (*p, v.clone()))
        .collect()
}

fn assert_uniform_agreement(log: &DecisionLog, instance: u64, expect_deciders: usize) {
    let ds = decisions_for(log, instance);
    assert_eq!(
        ds.len(),
        expect_deciders,
        "instance {instance}: expected {expect_deciders} deciders, saw {}",
        ds.len()
    );
    let first = &ds[0].1;
    for (p, v) in &ds {
        assert_eq!(v, first, "process {p} decided differently for {instance}");
    }
    // Integrity: nobody decides twice.
    let mut pids: Vec<ProcessId> = ds.iter().map(|(p, _)| *p).collect();
    pids.sort();
    pids.dedup();
    assert_eq!(pids.len(), ds.len(), "duplicate decision at some process");
}

#[test]
fn good_run_decides_coordinator_value() {
    let n = 3;
    let proposals: Vec<_> = (0..n)
        .map(|p| vec![(0u64, batch_of(p as u16, 0, 64), VDur::millis(1))])
        .collect();
    let (mut cluster, log) = build(n, proposals, 1);
    cluster.run_idle(VTime::ZERO + VDur::secs(2));
    assert_uniform_agreement(&log, 0, 3);
    // Round 0: decided value is the round-0 coordinator's (p1's) proposal.
    let ds = decisions_for(&log, 0);
    assert_eq!(ds[0].1, batch_of(0, 0, 64));
    // No suspicions, no round changes in a good run.
    assert_eq!(cluster.counters().event("consensus.round_changes"), 0);
    assert_eq!(cluster.counters().event("fd.suspicions"), 0);
}

#[test]
fn good_run_message_pattern_matches_paper() {
    // One consensus among n=3: proposal to 2, acks 2 back, decision
    // rbcast 4 messages (majority-optimized) = 8 consensus-related msgs.
    let n = 3;
    let proposals: Vec<_> = (0..n)
        .map(|p| vec![(0u64, batch_of(p as u16, 0, 64), VDur::millis(1))])
        .collect();
    let (mut cluster, _log) = build(n, proposals, 1);
    cluster.run_idle(VTime::ZERO + VDur::secs(2));
    let c = cluster.counters();
    assert_eq!(c.kind("consensus.proposal").msgs, 2);
    assert_eq!(c.kind("consensus.ack").msgs, 2);
    let rb = c.kind("rb.initial").msgs + c.kind("rb.relay").msgs + c.kind("rb.flood").msgs;
    assert_eq!(
        rb, 4,
        "decision rbcast should cost (n-1)*floor((n+1)/2) = 4"
    );
    assert_eq!(c.kind("consensus.estimate").msgs, 0);
}

#[test]
fn many_sequential_instances_all_agree() {
    let n = 5;
    let instances = 20u64;
    let proposals: Vec<_> = (0..n)
        .map(|p| {
            (0..instances)
                .map(|k| (k, batch_of(p as u16, k, 32), VDur::millis(1 + k)))
                .collect()
        })
        .collect();
    let (mut cluster, log) = build(n, proposals, 2);
    cluster.run_idle(VTime::ZERO + VDur::secs(5));
    for k in 0..instances {
        assert_uniform_agreement(&log, k, n);
    }
}

#[test]
fn coordinator_crash_before_proposing_terminates_with_agreement() {
    let n = 3;
    let proposals: Vec<_> = (0..n)
        .map(|p| vec![(0u64, batch_of(p as u16, 0, 64), VDur::millis(5))])
        .collect();
    let (mut cluster, log) = build(n, proposals, 3);
    // p1 (round-0 coordinator) dies before the proposals are made.
    cluster.schedule_crash(ProcessId(0), VTime::ZERO + VDur::millis(1));
    cluster.run_idle(VTime::ZERO + VDur::secs(5));
    // The two survivors must decide the same value...
    assert_uniform_agreement(&log, 0, 2);
    // ...which must be one of the proposed values (validity).
    let ds = decisions_for(&log, 0);
    let valid = [batch_of(1, 0, 64), batch_of(2, 0, 64), batch_of(0, 0, 64)];
    assert!(valid.contains(&ds[0].1), "decided value was never proposed");
    assert!(cluster.counters().event("consensus.round_changes") > 0);
}

#[test]
fn coordinator_crash_mid_proposal_preserves_agreement() {
    // Slow the NIC so the coordinator's two proposal transmissions are
    // separated in time, and crash it between them: one process holds the
    // proposal, the other does not. CT locking must still produce a
    // single decision among survivors.
    let n = 3;
    let log: DecisionLog = Default::default();
    let mut cfg = ClusterConfig::new(n, 4);
    cfg.cost = CostModel::free();
    cfg.net = NetModel {
        bandwidth_bytes_per_sec: 1_000_000, // 1 µs/byte: ~16 ms per 16 KiB copy
        prop_delay: VDur::micros(50),
        jitter: VDur::ZERO,
        per_msg_overhead: 60,
    };
    let nodes: Vec<Box<dyn Node>> = (0..n)
        .map(|i| {
            Box::new(CompositeStack::new(vec![
                Box::new(Driver {
                    proposals: vec![(0, batch_of(i as u16, 0, 16384), VDur::millis(1))],
                    decisions: log.clone(),
                }),
                Box::new(ConsensusModule::new()),
                Box::new(RbcastModule::new()),
                Box::new(FdModule::new(HeartbeatFd::new(
                    n,
                    ProcessId(i as u16),
                    fd_cfg(),
                ))),
            ])) as Box<dyn Node>
        })
        .collect();
    let mut cluster = Cluster::new(cfg, nodes);
    // Proposal batch ≈ 16.4 KiB → ~16.5 ms per copy; first copy (to p2)
    // completes ≈ 17.5 ms, second (to p3) ≈ 34 ms. Crash at 25 ms: p2
    // holds the proposal, p3 does not.
    cluster.schedule_crash(ProcessId(0), VTime::ZERO + VDur::millis(25));
    cluster.run_idle(VTime::ZERO + VDur::secs(5));
    // Uniform agreement: every process that decided (p1 may have decided
    // just before crashing) decided the same value, and both survivors
    // decided exactly once.
    let ds = decisions_for(&log, 0);
    let first = ds[0].1.clone();
    for (p, v) in &ds {
        assert_eq!(*v, first, "process {p} decided differently");
    }
    for survivor in [ProcessId(1), ProcessId(2)] {
        let count = ds.iter().filter(|(p, _)| *p == survivor).count();
        assert_eq!(count, 1, "survivor {survivor} must decide exactly once");
    }
}

#[test]
fn false_suspicion_does_not_violate_agreement() {
    // p3 wrongly suspects the coordinator right at the start, defecting
    // to round 1 while p1/p2 continue in round 0.
    let n = 3;
    let log: DecisionLog = Default::default();
    let nodes: Vec<Box<dyn Node>> = (0..n)
        .map(|i| {
            let window = SuspicionWindow {
                observer: ProcessId(2),
                suspect: ProcessId(0),
                from: VTime::ZERO + VDur::millis(2),
                until: VTime::ZERO + VDur::millis(400),
            };
            let fd = HeartbeatFd::new(n, ProcessId(i as u16), fd_cfg()).with_windows(&[window]);
            Box::new(CompositeStack::new(vec![
                Box::new(Driver {
                    proposals: vec![(0, batch_of(i as u16, 0, 64), VDur::millis(5))],
                    decisions: log.clone(),
                }),
                Box::new(ConsensusModule::new()),
                Box::new(RbcastModule::new()),
                Box::new(FdModule::new(fd)),
            ])) as Box<dyn Node>
        })
        .collect();
    let mut cluster = Cluster::new(ClusterConfig::new(n, 5), nodes);
    cluster.run_idle(VTime::ZERO + VDur::secs(5));
    // All three correct processes must decide identically despite the
    // wrong suspicion (p1+p2 form a round-0 majority; p3 learns the
    // decision via the rbcast notice or recovery path).
    assert_uniform_agreement(&log, 0, 3);
}

#[test]
fn single_process_group_decides_immediately() {
    let proposals = vec![vec![(0u64, batch_of(0, 0, 8), VDur::millis(1))]];
    let (mut cluster, log) = build(1, proposals, 6);
    cluster.run_idle(VTime::ZERO + VDur::secs(1));
    assert_uniform_agreement(&log, 0, 1);
    assert_eq!(
        cluster.counters().total_msgs(),
        0,
        "n=1 should send nothing"
    );
}

#[test]
fn late_proposer_still_decides() {
    // p3 proposes long after the decision was reached; it must still
    // converge on the already-decided value (via notice or recovery).
    let n = 3;
    let mut proposals: Vec<_> = (0..n)
        .map(|p| vec![(0u64, batch_of(p as u16, 0, 64), VDur::millis(1))])
        .collect();
    proposals[2] = vec![(0, batch_of(2, 0, 64), VDur::millis(500))];
    let (mut cluster, log) = build(n, proposals, 7);
    cluster.run_idle(VTime::ZERO + VDur::secs(3));
    assert_uniform_agreement(&log, 0, 3);
}
