//! Torture tests: consensus safety under sustained wrong suspicions and
//! cascading coordinator failures.

use std::cell::RefCell;
use std::rc::Rc;

use bytes::Bytes;
use fortika_consensus::ConsensusModule;
use fortika_fd::{FdConfig, FdModule, HeartbeatFd, SuspicionWindow};
use fortika_framework::{CompositeStack, Event, EventKind, FrameworkCtx, Microprotocol, ModuleId};
use fortika_net::{AppMsg, Batch, Cluster, ClusterConfig, MsgId, Node, ProcessId, TimerId};
use fortika_rbcast::RbcastModule;
use fortika_sim::{VDur, VTime};

type DecisionLog = Rc<RefCell<Vec<(ProcessId, u64, Batch)>>>;

struct Driver {
    proposals: Vec<(u64, Batch, VDur)>,
    decisions: DecisionLog,
}

impl Microprotocol for Driver {
    fn name(&self) -> &'static str {
        "torture-driver"
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

fn batch_of(p: u16, seq: u64) -> Batch {
    Batch::normalize(vec![AppMsg::new(
        MsgId::new(ProcessId(p), seq),
        Bytes::from(vec![p as u8; 32]),
    )])
}

fn window(observer: ProcessId, suspect: ProcessId, from_ms: u64, until_ms: u64) -> SuspicionWindow {
    SuspicionWindow {
        observer,
        suspect,
        from: VTime::ZERO + VDur::millis(from_ms),
        until: VTime::ZERO + VDur::millis(until_ms),
    }
}

/// A detector whose only suspicions are the scripted `windows`: its
/// timeout outlasts the run.
fn slanderer(n: usize, me: ProcessId, windows: &[SuspicionWindow]) -> HeartbeatFd {
    let cfg = FdConfig {
        timeout: VDur::secs(60),
        ..FdConfig::default()
    };
    HeartbeatFd::new(n, me, cfg).with_windows(windows)
}

fn assert_agreement(log: &DecisionLog, instances: u64, correct: &[ProcessId]) {
    for k in 0..instances {
        let ds: Vec<(ProcessId, Batch)> = log
            .borrow()
            .iter()
            .filter(|(_, inst, _)| *inst == k)
            .map(|(p, _, v)| (*p, v.clone()))
            .collect();
        // Every correct process decided exactly once.
        for &p in correct {
            let count = ds.iter().filter(|(q, _)| *q == p).count();
            assert_eq!(count, 1, "instance {k}: {p} decided {count} times");
        }
        // All decisions identical (uniform agreement).
        let first = &ds[0].1;
        for (p, v) in &ds {
            assert_eq!(v, first, "instance {k}: {p} decided differently");
        }
    }
}

/// Every process wrongly suspects the coordinator on a rotating schedule
/// while 30 instances run — safety must survive arbitrary FD garbage.
#[test]
fn rotating_false_suspicions_never_break_agreement() {
    let n = 3;
    let instances = 30u64;
    let log: DecisionLog = Default::default();
    let nodes: Vec<Box<dyn Node>> = (0..n)
        .map(|i| {
            // Each process falsely suspects p1 periodically, staggered,
            // and restores shortly after — a storm of wrong suspicions.
            let me = ProcessId(i as u16);
            let windows: Vec<SuspicionWindow> = (0..)
                .map(|k| 10 + 17 * i as u64 + 41 * k)
                .take_while(|&t| t < 2_000)
                .map(|t| window(me, ProcessId(0), t, t + 13))
                .collect();
            let proposals: Vec<(u64, Batch, VDur)> = (0..instances)
                .map(|k| (k, batch_of(i as u16, k), VDur::millis(1 + 3 * k)))
                .collect();
            Box::new(CompositeStack::new(vec![
                Box::new(Driver {
                    proposals,
                    decisions: log.clone(),
                }),
                Box::new(ConsensusModule::new()),
                Box::new(RbcastModule::new()),
                Box::new(FdModule::new(slanderer(n, me, &windows))),
            ])) as Box<dyn Node>
        })
        .collect();
    let mut cluster = Cluster::new(ClusterConfig::new(n, 31), nodes);
    cluster.run_idle(VTime::ZERO + VDur::secs(20));
    let correct: Vec<ProcessId> = ProcessId::all(n).collect();
    assert_agreement(&log, instances, &correct);
}

/// Two of five coordinators crash back-to-back mid-sequence; survivors
/// must keep deciding every instance with one common value.
#[test]
fn cascading_coordinator_crashes() {
    let n = 5;
    let instances = 12u64;
    let log: DecisionLog = Default::default();
    let fd_cfg = FdConfig {
        heartbeat_interval: VDur::millis(20),
        timeout: VDur::millis(100),
        timeout_increment: VDur::millis(50),
    };
    let nodes: Vec<Box<dyn Node>> = (0..n)
        .map(|i| {
            let proposals: Vec<(u64, Batch, VDur)> = (0..instances)
                .map(|k| (k, batch_of(i as u16, k), VDur::millis(1 + 30 * k)))
                .collect();
            Box::new(CompositeStack::new(vec![
                Box::new(Driver {
                    proposals,
                    decisions: log.clone(),
                }),
                Box::new(ConsensusModule::new()),
                Box::new(RbcastModule::new()),
                Box::new(FdModule::new(HeartbeatFd::new(
                    n,
                    ProcessId(i as u16),
                    fd_cfg.clone(),
                ))),
            ])) as Box<dyn Node>
        })
        .collect();
    let mut cluster = Cluster::new(ClusterConfig::new(n, 32), nodes);
    // p1 (round-0 coordinator) dies mid-sequence; p2 (its successor)
    // dies shortly after taking over.
    cluster.schedule_crash(ProcessId(0), VTime::ZERO + VDur::millis(100));
    cluster.schedule_crash(ProcessId(1), VTime::ZERO + VDur::millis(400));
    cluster.run_idle(VTime::ZERO + VDur::secs(30));
    let correct: Vec<ProcessId> = ProcessId::all(n).skip(2).collect();
    assert_agreement(&log, instances, &correct);
}

/// Decisions arriving long after everyone moved on (a laggard that was
/// wrongly suspected and isolated by its own FD) still converge via the
/// recovery path.
#[test]
fn long_isolated_laggard_catches_up() {
    let n = 3;
    let instances = 10u64;
    let log: DecisionLog = Default::default();
    let nodes: Vec<Box<dyn Node>> = (0..n)
        .map(|i| {
            // p3 suspects everyone for the first 1.5 s (isolation), then
            // restores — its estimates went nowhere meanwhile.
            let me = ProcessId(i as u16);
            let windows = if i == 2 {
                vec![
                    window(me, ProcessId(0), 1, 1_500),
                    window(me, ProcessId(1), 1, 1_500),
                ]
            } else {
                Vec::new()
            };
            let proposals: Vec<(u64, Batch, VDur)> = (0..instances)
                .map(|k| (k, batch_of(i as u16, k), VDur::millis(1 + 10 * k)))
                .collect();
            Box::new(CompositeStack::new(vec![
                Box::new(Driver {
                    proposals,
                    decisions: log.clone(),
                }),
                Box::new(ConsensusModule::new()),
                Box::new(RbcastModule::new()),
                Box::new(FdModule::new(slanderer(n, me, &windows))),
            ])) as Box<dyn Node>
        })
        .collect();
    let mut cluster = Cluster::new(ClusterConfig::new(n, 33), nodes);
    cluster.run_idle(VTime::ZERO + VDur::secs(20));
    let correct: Vec<ProcessId> = ProcessId::all(n).collect();
    assert_agreement(&log, instances, &correct);
}
