//! Atomic broadcast properties of the modular stack: total order,
//! uniform agreement, integrity, validity — in good runs and under
//! sender crashes. Property checking is delegated to the
//! `fortika-chaos` delivery-invariant oracle.

use bytes::Bytes;
use fortika_abcast::{AbcastConfig, AbcastModule};
use fortika_chaos::check_orders;
use fortika_consensus::ConsensusModule;
use fortika_fd::{FdConfig, FdModule, HeartbeatFd};
use fortika_framework::{CompositeStack, Event, EventKind, FrameworkCtx, Microprotocol, ModuleId};
use fortika_net::{
    Admission, AppMsg, AppRequest, Cluster, ClusterConfig, CollectingHarness, CostModel, MsgId,
    NetModel, Node, ProcessId,
};
use fortika_rbcast::RbcastModule;
use fortika_sim::{VDur, VTime};

/// Minimal admission module standing in for flow control: admits
/// everything and forwards it to the abcast module.
struct OpenGate;

impl Microprotocol for OpenGate {
    fn name(&self) -> &'static str {
        "open-gate"
    }
    fn module_id(&self) -> ModuleId {
        70
    }
    fn subscriptions(&self) -> &'static [EventKind] {
        &[]
    }
    fn on_request(
        &mut self,
        ctx: &mut FrameworkCtx<'_, '_>,
        req: &AppRequest,
    ) -> Option<Admission> {
        let AppRequest::Abcast(m) = req;
        ctx.raise(Event::AbcastRequest(m.clone()));
        Some(Admission::Accepted)
    }
}

fn modular_stack(n: usize, me: usize) -> Box<dyn Node> {
    let fd_cfg = FdConfig {
        heartbeat_interval: VDur::millis(20),
        timeout: VDur::millis(100),
        timeout_increment: VDur::millis(50),
    };
    Box::new(CompositeStack::new(vec![
        Box::new(OpenGate),
        Box::new(AbcastModule::new(AbcastConfig::default())),
        Box::new(ConsensusModule::new()),
        Box::new(RbcastModule::new()),
        Box::new(FdModule::new(HeartbeatFd::new(
            n,
            ProcessId(me as u16),
            fd_cfg,
        ))),
    ]))
}

fn build(n: usize, seed: u64) -> Cluster {
    let nodes = (0..n).map(|i| modular_stack(n, i)).collect();
    Cluster::new(ClusterConfig::new(n, seed), nodes)
}

fn submit(cluster: &mut Cluster, sender: u16, seq: u64, size: usize) {
    let msg = AppMsg::new(
        MsgId::new(ProcessId(sender), seq),
        Bytes::from(vec![sender as u8; size]),
    );
    let (adm, _) = cluster.submit(ProcessId(sender), AppRequest::Abcast(msg));
    assert_eq!(adm, Admission::Accepted);
}

/// Checks the four atomic broadcast properties over collected logs via
/// the `fortika-chaos` oracle. `crashed` processes are exempt from the
/// liveness half.
fn assert_atomic_broadcast(
    harness: &CollectingHarness,
    n: usize,
    submitted_by_correct: &[MsgId],
    crashed: &[ProcessId],
) {
    let correct: Vec<ProcessId> = ProcessId::all(n).filter(|p| !crashed.contains(p)).collect();
    let orders: Vec<Vec<MsgId>> = ProcessId::all(n).map(|p| harness.order(p)).collect();
    check_orders(&orders, &correct, submitted_by_correct).assert_ok("modular stack");
}

#[test]
fn good_run_total_order_n3() {
    let n = 3;
    let mut cluster = build(n, 11);
    let mut harness = CollectingHarness::new(n);
    cluster.run_until(VTime::ZERO + VDur::millis(1), &mut harness);
    let mut submitted = Vec::new();
    for round in 0..10u64 {
        for p in 0..n as u16 {
            submit(&mut cluster, p, round, 128);
            submitted.push(MsgId::new(ProcessId(p), round));
        }
        cluster.run_until(cluster.now() + VDur::millis(7), &mut harness);
    }
    cluster.run_until(cluster.now() + VDur::secs(3), &mut harness);
    assert_atomic_broadcast(&harness, n, &submitted, &[]);
    assert_eq!(harness.order(ProcessId(0)).len(), 30);
}

#[test]
fn good_run_total_order_n7_with_jitter() {
    let n = 7;
    let mut cfg = ClusterConfig::new(n, 12);
    cfg.net.jitter = VDur::micros(200); // stress reordering
    let nodes = (0..n).map(|i| modular_stack(n, i)).collect();
    let mut cluster = Cluster::new(cfg, nodes);
    let mut harness = CollectingHarness::new(n);
    cluster.run_until(VTime::ZERO + VDur::millis(1), &mut harness);
    let mut submitted = Vec::new();
    for round in 0..5u64 {
        for p in 0..n as u16 {
            submit(&mut cluster, p, round, 512);
            submitted.push(MsgId::new(ProcessId(p), round));
        }
        cluster.run_until(cluster.now() + VDur::millis(3), &mut harness);
    }
    cluster.run_until(cluster.now() + VDur::secs(3), &mut harness);
    assert_atomic_broadcast(&harness, n, &submitted, &[]);
    assert_eq!(harness.order(ProcessId(0)).len(), 35);
}

#[test]
fn diffusion_goes_to_everyone() {
    let n = 5;
    let mut cluster = build(n, 13);
    let mut harness = CollectingHarness::new(n);
    cluster.run_until(VTime::ZERO + VDur::millis(1), &mut harness);
    submit(&mut cluster, 2, 0, 1024);
    cluster.run_until(cluster.now() + VDur::secs(1), &mut harness);
    // The modular stack always diffuses to n−1 peers.
    assert_eq!(
        cluster.counters().kind("abcast.diffuse").msgs,
        (n - 1) as u64
    );
}

#[test]
fn idle_system_stays_quiet_but_alive() {
    let n = 3;
    let mut cluster = build(n, 14);
    let mut harness = CollectingHarness::new(n);
    cluster.run_until(VTime::ZERO + VDur::secs(3), &mut harness);
    // No deliveries without submissions…
    assert!(harness.order(ProcessId(0)).is_empty());
    // …but the idle consensus kept the instance stream moving.
    assert!(cluster.counters().event("abcast.idle_proposals") > 0);
    // A message submitted after a long idle period is still delivered.
    submit(&mut cluster, 1, 0, 64);
    cluster.run_until(cluster.now() + VDur::secs(2), &mut harness);
    assert_eq!(harness.order(ProcessId(0)).len(), 1);
    assert_atomic_broadcast(&harness, n, &[MsgId::new(ProcessId(1), 0)], &[]);
}

#[test]
fn sender_crash_mid_diffusion_preserves_agreement() {
    // Slow NIC: the sender's three diffusion copies take ~1 ms each;
    // crash it after the first copy. The message may or may not get
    // ordered — but every correct process must agree.
    let n = 4;
    let mut cfg = ClusterConfig::new(n, 15);
    cfg.cost = CostModel::free();
    cfg.net = NetModel {
        bandwidth_bytes_per_sec: 1_000_000,
        prop_delay: VDur::micros(50),
        jitter: VDur::ZERO,
        per_msg_overhead: 60,
    };
    let nodes = (0..n).map(|i| modular_stack(n, i)).collect();
    let mut cluster = Cluster::new(cfg, nodes);
    let mut harness = CollectingHarness::new(n);
    cluster.run_until(VTime::ZERO + VDur::millis(1), &mut harness);
    // Keep the stream busy with messages from a healthy process so
    // instances keep deciding.
    submit(&mut cluster, 1, 0, 128);
    // 1 KiB diffusion copies from p1: first completes ~1.1 ms after
    // submission. Crash p1 at now+1.5 ms (inside its diffusion fan-out).
    submit(&mut cluster, 0, 0, 1024);
    let crash_at = cluster.now() + VDur::micros(1500);
    cluster.schedule_crash(ProcessId(0), crash_at);
    cluster.run_until(cluster.now() + VDur::secs(3), &mut harness);
    // p2's message must be delivered (correct sender); p1's may go
    // either way, but consistently.
    assert_atomic_broadcast(&harness, n, &[MsgId::new(ProcessId(1), 0)], &[ProcessId(0)]);
}

#[test]
fn coordinator_crash_under_load_recovers_and_orders() {
    let n = 3;
    let mut cluster = build(n, 16);
    let mut harness = CollectingHarness::new(n);
    cluster.run_until(VTime::ZERO + VDur::millis(1), &mut harness);
    let mut submitted = Vec::new();
    // Submit from the survivors only, before and after the crash.
    for round in 0..3u64 {
        for p in [1u16, 2] {
            submit(&mut cluster, p, round, 128);
            submitted.push(MsgId::new(ProcessId(p), round));
        }
        cluster.run_until(cluster.now() + VDur::millis(5), &mut harness);
    }
    cluster.schedule_crash(ProcessId(0), cluster.now() + VDur::millis(1));
    cluster.run_until(cluster.now() + VDur::millis(50), &mut harness);
    for round in 3..6u64 {
        for p in [1u16, 2] {
            submit(&mut cluster, p, round, 128);
            submitted.push(MsgId::new(ProcessId(p), round));
        }
        cluster.run_until(cluster.now() + VDur::millis(5), &mut harness);
    }
    cluster.run_until(cluster.now() + VDur::secs(5), &mut harness);
    assert_atomic_broadcast(&harness, n, &submitted, &[ProcessId(0)]);
}
