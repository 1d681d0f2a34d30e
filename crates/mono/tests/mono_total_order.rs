//! Monolithic stack properties: total order, agreement under crashes,
//! the good-run message economy, optimization toggles. Property
//! checking is delegated to the `fortika-chaos` delivery-invariant
//! oracle.

use bytes::Bytes;
use fortika_chaos::check_orders;
use fortika_fd::{FdConfig, HeartbeatFd};
use fortika_mono::{MonoNode, MonoOptimizations};
use fortika_net::{
    Admission, AppMsg, AppRequest, Cluster, ClusterConfig, CollectingHarness, MsgId, Node,
    ProcessId,
};
use fortika_sim::{VDur, VTime};

fn fd_cfg() -> FdConfig {
    FdConfig {
        heartbeat_interval: VDur::millis(20),
        timeout: VDur::millis(100),
        timeout_increment: VDur::millis(50),
    }
}

fn mono_node(n: usize, me: usize, opts: MonoOptimizations, window: usize) -> Box<dyn Node> {
    Box::new(MonoNode::new(
        opts,
        window,
        HeartbeatFd::new(n, ProcessId(me as u16), fd_cfg()),
    ))
}

fn build(n: usize, seed: u64, opts: MonoOptimizations) -> Cluster {
    let nodes = (0..n).map(|i| mono_node(n, i, opts, 64)).collect();
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

fn assert_atomic_broadcast(
    harness: &CollectingHarness,
    n: usize,
    submitted_by_correct: &[MsgId],
    crashed: &[ProcessId],
) {
    let correct: Vec<ProcessId> = ProcessId::all(n).filter(|p| !crashed.contains(p)).collect();
    let orders: Vec<Vec<MsgId>> = ProcessId::all(n).map(|p| harness.order(p)).collect();
    check_orders(&orders, &correct, submitted_by_correct).assert_ok("monolithic stack");
}

fn drive_workload(
    cluster: &mut Cluster,
    harness: &mut CollectingHarness,
    n: usize,
    rounds: u64,
    size: usize,
) -> Vec<MsgId> {
    cluster.run_until(VTime::ZERO + VDur::millis(1), harness);
    let mut submitted = Vec::new();
    for round in 0..rounds {
        for p in 0..n as u16 {
            submit(cluster, p, round, size);
            submitted.push(MsgId::new(ProcessId(p), round));
        }
        let next = cluster.now() + VDur::millis(7);
        cluster.run_until(next, harness);
    }
    let endt = cluster.now() + VDur::secs(3);
    cluster.run_until(endt, harness);
    submitted
}

#[test]
fn good_run_total_order_n3_all_optimizations() {
    let n = 3;
    let mut cluster = build(n, 21, MonoOptimizations::all());
    let mut harness = CollectingHarness::new(n);
    let submitted = drive_workload(&mut cluster, &mut harness, n, 10, 128);
    assert_atomic_broadcast(&harness, n, &submitted, &[]);
    assert_eq!(harness.order(ProcessId(0)).len(), 30);
    // O1 actually fired under pipelined load.
    assert!(cluster.counters().event("mono.combined_steps") > 0);
    // O2: no diffusion messages at all.
    assert_eq!(cluster.counters().kind("mono.diffuse").msgs, 0);
    // No round changes in a good run.
    assert_eq!(cluster.counters().event("mono.round_changes"), 0);
}

#[test]
fn good_run_total_order_n7() {
    let n = 7;
    let mut cluster = build(n, 22, MonoOptimizations::all());
    let mut harness = CollectingHarness::new(n);
    let submitted = drive_workload(&mut cluster, &mut harness, n, 5, 512);
    assert_atomic_broadcast(&harness, n, &submitted, &[]);
    assert_eq!(harness.order(ProcessId(0)).len(), 35);
}

#[test]
fn every_optimization_subset_orders_correctly() {
    let combos = [
        MonoOptimizations::none(),
        MonoOptimizations {
            combine_decision_proposal: true,
            piggyback_on_acks: false,
            implicit_decision_acks: false,
        },
        MonoOptimizations {
            combine_decision_proposal: true,
            piggyback_on_acks: true,
            implicit_decision_acks: false,
        },
        MonoOptimizations::all(),
    ];
    for (i, opts) in combos.into_iter().enumerate() {
        let n = 3;
        let mut cluster = build(n, 23 + i as u64, opts);
        let mut harness = CollectingHarness::new(n);
        let submitted = drive_workload(&mut cluster, &mut harness, n, 6, 256);
        assert_atomic_broadcast(&harness, n, &submitted, &[]);
        assert_eq!(
            harness.order(ProcessId(0)).len(),
            18,
            "combo {opts:?} lost messages"
        );
    }
}

#[test]
fn optimizations_reduce_message_count() {
    // Same workload, O-none vs O-all: the optimized stack must send
    // strictly fewer messages (heartbeats excluded).
    let count_msgs = |opts: MonoOptimizations| -> u64 {
        let n = 3;
        let mut cluster = build(n, 29, opts);
        let mut harness = CollectingHarness::new(n);
        drive_workload(&mut cluster, &mut harness, n, 10, 256);
        cluster
            .counters()
            .total_msgs_excluding(|k| k.starts_with("fd."))
    };
    let unoptimized = count_msgs(MonoOptimizations::none());
    let optimized = count_msgs(MonoOptimizations::all());
    // This workload is light (piggybacking opportunities are scarce), so
    // the reduction is far from the saturated-regime factor of ~4; the
    // saturated economy is asserted by the dedicated test below.
    assert!(
        optimized * 4 < unoptimized * 3,
        "expected ≥25% message reduction: optimized={optimized} unoptimized={unoptimized}"
    );
}

#[test]
fn coordinator_crash_recovers_and_orders() {
    let n = 3;
    let mut cluster = build(n, 24, MonoOptimizations::all());
    let mut harness = CollectingHarness::new(n);
    cluster.run_until(VTime::ZERO + VDur::millis(1), &mut harness);
    let mut submitted = Vec::new();
    for round in 0..3u64 {
        for p in [1u16, 2] {
            submit(&mut cluster, p, round, 128);
            submitted.push(MsgId::new(ProcessId(p), round));
        }
        let next = cluster.now() + VDur::millis(5);
        cluster.run_until(next, &mut harness);
    }
    let crash_at = cluster.now() + VDur::millis(1);
    cluster.schedule_crash(ProcessId(0), crash_at);
    let resume = cluster.now() + VDur::millis(50);
    cluster.run_until(resume, &mut harness);
    for round in 3..6u64 {
        for p in [1u16, 2] {
            submit(&mut cluster, p, round, 128);
            submitted.push(MsgId::new(ProcessId(p), round));
        }
        let next = cluster.now() + VDur::millis(5);
        cluster.run_until(next, &mut harness);
    }
    let endt = cluster.now() + VDur::secs(5);
    cluster.run_until(endt, &mut harness);
    assert_atomic_broadcast(&harness, n, &submitted, &[ProcessId(0)]);
    assert!(cluster.counters().event("mono.round_changes") > 0);
}

#[test]
fn coordinator_crash_with_forwarded_messages_does_not_lose_them() {
    // O2's risky case: messages handed to a coordinator that dies before
    // proposing them. The sender must re-route them (estimate piggyback)
    // and they must still be delivered.
    let n = 3;
    let mut cluster = build(n, 25, MonoOptimizations::all());
    let mut harness = CollectingHarness::new(n);
    cluster.run_until(VTime::ZERO + VDur::millis(1), &mut harness);
    // p2 abcasts while idle: the message is forwarded straight to p1.
    submit(&mut cluster, 1, 0, 128);
    // Crash p1 almost immediately — likely holding the forwarded message.
    let crash_at = cluster.now() + VDur::micros(300);
    cluster.schedule_crash(ProcessId(0), crash_at);
    let endt = cluster.now() + VDur::secs(5);
    cluster.run_until(endt, &mut harness);
    assert_atomic_broadcast(&harness, n, &[MsgId::new(ProcessId(1), 0)], &[ProcessId(0)]);
}

/// Closed-loop driver: keeps every process's flow window full, exactly
/// like the saturated regime of the paper's figures.
struct ClosedLoop {
    next_seq: Vec<u64>,
    size: usize,
}

impl ClosedLoop {
    fn pump(&mut self, api: &mut fortika_net::ClusterApi<'_>, pid: ProcessId) {
        loop {
            let seq = self.next_seq[pid.index()];
            let msg = AppMsg::new(MsgId::new(pid, seq), Bytes::from(vec![0u8; self.size]));
            let (adm, _) = api.submit(pid, AppRequest::Abcast(msg));
            match adm {
                Admission::Accepted => self.next_seq[pid.index()] += 1,
                Admission::Blocked => break,
            }
        }
    }
}

impl fortika_net::Harness for ClosedLoop {
    fn on_tick(&mut self, api: &mut fortika_net::ClusterApi<'_>, _tick: u64, _at: VTime) {
        for pid in ProcessId::all(api.n()) {
            self.pump(api, pid);
        }
    }
    fn on_app_ready(&mut self, api: &mut fortika_net::ClusterApi<'_>, pid: ProcessId, _at: VTime) {
        self.pump(api, pid);
    }
}

#[test]
fn saturated_pipeline_costs_two_messages_per_process_pair() {
    // Under saturation the steady-state instance costs 2(n−1) messages:
    // one combined step out, n−1 acks back (§5.2.1).
    let n = 3;
    let nodes = (0..n)
        .map(|i| mono_node(n, i, MonoOptimizations::all(), 4))
        .collect();
    let mut cluster = Cluster::new(ClusterConfig::new(n, 26), nodes);
    let mut driver = ClosedLoop {
        next_seq: vec![0; n],
        size: 512,
    };
    cluster.schedule_tick(VTime::ZERO + VDur::millis(1), 0);
    // Warm up 200 ms, then measure a 200 ms steady-state window.
    cluster.run_until(VTime::ZERO + VDur::millis(200), &mut driver);
    let snap = cluster.counters().clone();
    cluster.run_until(VTime::ZERO + VDur::millis(400), &mut driver);
    let window = cluster.counters().delta_since(&snap);
    let msgs = window.total_msgs_excluding(|k| k.starts_with("fd."));
    let decided = window.event("consensus.decided");
    assert!(decided > 100, "pipeline should have decided many instances");
    // consensus.decided counts per process: instances ≈ decided / n.
    let instances = decided as f64 / n as f64;
    let per_instance = msgs as f64 / instances;
    let expect = 2.0 * (n as f64 - 1.0);
    assert!(
        (per_instance - expect).abs() < 0.4,
        "good-run steady state should cost ~{expect} msgs/instance, measured {per_instance:.2}"
    );
}
