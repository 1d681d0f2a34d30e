//! The two implementations are *the same protocol*: under an identical
//! workload they must order the identical set of messages (though not
//! necessarily in the same sequence — total order is per-cluster).

use bytes::Bytes;
use fortika::core::{build_nodes, StackConfig, StackKind, TraceConfig, TraceData};
use fortika::net::{
    metrics, Admission, AppMsg, AppRequest, Cluster, ClusterConfig, CollectingHarness, MsgId,
    ProcessId,
};
use fortika::sim::{VDur, VTime};

fn run(kind: StackKind, n: usize, seed: u64) -> Vec<MsgId> {
    let cfg = ClusterConfig::new(n, seed);
    let nodes = build_nodes(kind, n, &StackConfig::default());
    let mut cluster = Cluster::new(cfg, nodes);
    let mut harness = CollectingHarness::new(n);
    cluster.run_until(VTime::ZERO + VDur::millis(1), &mut harness);
    for round in 0..8u64 {
        for p in 0..n as u16 {
            let msg = AppMsg::new(
                MsgId::new(ProcessId(p), round),
                Bytes::from(vec![p as u8; 256]),
            );
            let (adm, _) = cluster.submit(ProcessId(p), AppRequest::Abcast(msg));
            assert_eq!(adm, Admission::Accepted);
        }
        let next = cluster.now() + VDur::millis(12);
        cluster.run_until(next, &mut harness);
    }
    let end = cluster.now() + VDur::secs(3);
    cluster.run_until(end, &mut harness);
    // All processes agree; return the common order.
    let reference = harness.order(ProcessId(0));
    for p in ProcessId::all(n) {
        assert_eq!(harness.order(p), reference, "{} diverged in {kind:?}", p);
    }
    reference
}

#[test]
fn both_stacks_deliver_the_same_message_set() {
    for n in [3usize, 5] {
        let modular = run(StackKind::Modular, n, 60);
        let mono = run(StackKind::Monolithic, n, 60);
        assert_eq!(modular.len(), mono.len(), "n={n}: different counts");
        let mut a = modular.clone();
        let mut b = mono.clone();
        a.sort();
        b.sort();
        assert_eq!(a, b, "n={n}: different delivered sets");
        assert_eq!(a.len(), 8 * n, "n={n}: all submissions delivered");
    }
}

#[test]
fn per_sender_fifo_within_total_order() {
    // The deterministic in-batch order sorts by (sender, seq), and the
    // per-sender sequence is monotone across batches too: a sender's
    // messages appear in submission order in the common sequence.
    for kind in [StackKind::Modular, StackKind::Monolithic] {
        let order = run(kind, 3, 61);
        for p in 0..3u16 {
            let seqs: Vec<u64> = order
                .iter()
                .filter(|id| id.sender == ProcessId(p))
                .map(|id| id.seq)
                .collect();
            let mut sorted = seqs.clone();
            sorted.sort();
            assert_eq!(seqs, sorted, "{kind:?}: p{} not FIFO: {seqs:?}", p + 1);
        }
    }
}

/// Where the first adeliver upcall lies inside the handler that ran
/// it: one 1 KiB message on an idle traced cluster, jitter 0, submitted
/// clear of the failure detector's ticks. Returns the offset into the
/// handler and the wire size of the ack frames that handler could have
/// been running.
fn first_upcall_offset(kind: StackKind, n: usize) -> (VDur, usize) {
    let mut cfg = ClusterConfig::new(n, 7);
    cfg.net.jitter = VDur::ZERO;
    cfg.trace = TraceConfig::on();
    let nodes = build_nodes(kind, n, &StackConfig::default());
    let mut cluster = Cluster::new(cfg, nodes);
    let mut harness = CollectingHarness::new(n);
    // Heartbeats go out every 100 ms; submit 20 ms after one and let
    // the instance finish well before the next.
    cluster.run_until(VTime::ZERO + VDur::millis(120), &mut harness);
    let msg = AppMsg::new(MsgId::new(ProcessId(0), 0), Bytes::from(vec![7; 1024]));
    let (adm, _) = cluster.submit(ProcessId(0), AppRequest::Abcast(msg));
    assert_eq!(adm, Admission::Accepted);
    cluster.run_until(VTime::ZERO + VDur::millis(170), &mut harness);
    let (pid, at) = ProcessId::all(n)
        .filter_map(|p| harness.logs[p.index()].first().map(|&(_, at)| (p.0, at)))
        .min_by_key(|&(_, at)| at)
        .expect("the message was delivered");
    let at = at.as_nanos();
    let trace = cluster.take_trace().expect("tracing on");
    let handler_start = trace
        .events
        .iter()
        .find_map(|e| match e.data {
            TraceData::Handler {
                pid: p,
                start_ns,
                cpu_ns,
                ..
            } if p == pid && start_ns <= at && at <= start_ns + cpu_ns => Some(start_ns),
            _ => None,
        })
        .expect("the upcall ran inside a handler");
    let ack = match kind {
        StackKind::Modular => metrics::consensus::ACK.name(),
        StackKind::Monolithic => metrics::mono::ACK.name(),
    };
    let ack_bytes: Vec<u64> = trace
        .events
        .iter()
        .filter_map(|e| match e.data {
            TraceData::Deliver {
                dst, kind, bytes, ..
            } if dst == pid && kind == ack => Some(bytes),
            _ => None,
        })
        .collect();
    assert!(
        !ack_bytes.is_empty(),
        "{kind:?} n={n}: no ack reached p{pid}"
    );
    assert!(
        ack_bytes.iter().all(|&b| b == ack_bytes[0]),
        "{kind:?} n={n}: acks of different sizes {ack_bytes:?}"
    );
    (VDur::nanos(at - handler_start), ack_bytes[0] as usize)
}

/// A deciding coordinator applies before it disseminates, on both
/// stacks: its upcall is charged right after the ack that closes the
/// quorum (plus, on the modular stack, the two event hops that carry
/// the ack to consensus and the decision to abcast) — never behind the
/// sends that broadcast the decision.
#[test]
fn coordinator_upcall_precedes_its_decision_broadcast() {
    for n in [3usize, 7] {
        let cost = ClusterConfig::new(n, 7).cost;
        let (mono, ack) = first_upcall_offset(StackKind::Monolithic, n);
        let base = cost.recv_cost(ack) + cost.deliver_cost(1024);
        assert_eq!(mono, base, "monolith n={n}");
        let (modular, ack) = first_upcall_offset(StackKind::Modular, n);
        let base = cost.recv_cost(ack) + cost.deliver_cost(1024);
        assert_eq!(modular, base + cost.dispatch * 2, "modular n={n}");
    }
}
