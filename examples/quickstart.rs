//! Quickstart: total-order broadcast across three simulated processes.
//!
//! Builds the paper's monolithic atomic broadcast stack on a simulated
//! 3-process cluster, abcasts a handful of messages from different
//! processes, and shows that every process adelivers the exact same
//! sequence.
//!
//! Run with: `cargo run --release --example quickstart`

use bytes::Bytes;
use fortika::core::{build_nodes, StackConfig, StackKind};
use fortika::net::{
    Admission, AppMsg, AppRequest, Cluster, ClusterConfig, CollectingHarness, MsgId, ProcessId,
};
use fortika::sim::{VDur, VTime};

pub fn main() {
    let n = 3;
    let cfg = ClusterConfig::new(n, /* seed */ 42);
    let nodes = build_nodes(StackKind::Monolithic, n, &StackConfig::default());
    let mut cluster = Cluster::new(cfg, nodes);
    let mut harness = CollectingHarness::new(n);

    // Let the stacks boot (failure detectors, timers).
    cluster.run_until(VTime::ZERO + VDur::millis(1), &mut harness);

    // Every process abcasts a few messages, interleaved.
    for round in 0..3u64 {
        for sender in 0..n as u16 {
            let payload = Bytes::from(format!("msg {round} from p{}", sender + 1));
            let msg = AppMsg::new(MsgId::new(ProcessId(sender), round), payload);
            let (admission, t0) = cluster.submit(ProcessId(sender), AppRequest::Abcast(msg));
            assert_eq!(admission, Admission::Accepted);
            println!("p{} abcast round {round} at {t0}", sender + 1);
        }
        // Interleave some network time between rounds.
        let next = cluster.now() + VDur::millis(10);
        cluster.run_until(next, &mut harness);
    }

    // Drain until everything is delivered everywhere.
    let end = cluster.now() + VDur::secs(1);
    cluster.run_until(end, &mut harness);

    println!("\nDelivery order at each process:");
    for p in ProcessId::all(n) {
        let order: Vec<String> = harness.order(p).iter().map(|id| id.to_string()).collect();
        println!("  {p}: {}", order.join(" "));
    }

    // Total order: all processes saw the identical sequence.
    let reference = harness.order(ProcessId(0));
    for p in ProcessId::all(n) {
        assert_eq!(harness.order(p), reference, "total order violated at {p}");
    }
    println!(
        "\nTotal order verified across {n} processes ({} messages).",
        reference.len()
    );
    println!(
        "Wire traffic: {} messages, {} bytes.",
        cluster.counters().total_msgs(),
        cluster.counters().total_bytes()
    );
}
