//! Partition and heal: the fault the paper's machinery quietly carries.
//!
//! A 3-process cluster runs under load while a network partition cuts
//! the minority `{p3}` away from the majority `{p1, p2}` for two
//! seconds. During the partition the majority keeps ordering (consensus
//! needs only a majority), the isolated p3 stalls, both sides' failure
//! detectors suspect each other — and when the partition heals, p3
//! resends its stranded messages (every own message not adelivered
//! within `fortika::net::flow::RESEND_INTERVAL` goes out again, on
//! either stack), pulls the decisions it missed via gap recovery, and
//! converges on the exact same total order.
//!
//! Both stacks run the same scenario and seed; the delivery-invariant
//! oracle audits every `adeliver`. The run is deterministic: the same
//! seed reproduces the same delivery order, byte for byte.
//!
//! Run with: `cargo run --release --example partition_heal`

use fortika::chaos::{LoadPlan, Scenario};
use fortika::core::{run_scripted, StackConfig, StackKind};
use fortika::net::{ClusterConfig, MsgId, ProcessId};
use fortika::sim::{VDur, VTime};

fn scenario() -> Scenario {
    Scenario::new().partition(
        vec![vec![ProcessId(0), ProcessId(1)], vec![ProcessId(2)]],
        VDur::millis(500),
        VDur::millis(2500),
    )
}

fn run(kind: StackKind, seed: u64) -> Vec<MsgId> {
    let n = 3;
    // 30 messages, round-robin senders, one every 100 ms — the load
    // spans before, during and after the partition window. Run to a
    // mid-partition snapshot first.
    let (mut cluster, mut driver) = run_scripted(
        kind,
        &StackConfig::default(),
        ClusterConfig::new(n, seed),
        &scenario(),
        LoadPlan::round_robin(n, 30, VDur::millis(100), 512),
        VTime::ZERO + VDur::millis(2400),
    );
    let majority_mid = driver.oracle().order(ProcessId(0)).len();
    let minority_mid = driver.oracle().order(ProcessId(2)).len();

    // Heal and drain.
    cluster.run_until(VTime::ZERO + VDur::secs(8), &mut driver);

    // No process crashed, the partition healed: the full contract holds,
    // validity included — every accepted message must be everywhere.
    let correct: Vec<ProcessId> = ProcessId::all(n).collect();
    let report = driver.oracle().check_drained(&correct, driver.accepted());
    report.assert_ok(&format!("partition_heal ({})", kind.label()));

    println!("=== {} stack (seed {seed}) ===", kind.label());
    println!("mid-partition: majority ordered {majority_mid}, isolated p3 stuck at {minority_mid}");
    println!(
        "after heal:    all three logs identical, {} messages in total order \
         ({} deliveries audited, 0 violations)",
        report.common_order.len(),
        report.deliveries,
    );
    println!(
        "recovery:      {} partition-dropped sends, {} own-message resends, \
         {} consensus gap pulls, {} mono gap pulls",
        cluster.counters().event("chaos.dropped_partition"),
        cluster.counters().event("abcast.retransmits"),
        cluster.counters().event("consensus.gap_requests"),
        cluster.counters().event("mono.gap_requests"),
    );
    report.common_order
}

pub fn main() {
    for kind in [StackKind::Modular, StackKind::Monolithic] {
        let order_a = run(kind, 77);
        let order_b = run(kind, 77);
        assert_eq!(
            order_a, order_b,
            "same seed must reproduce byte-identical delivery order"
        );
        println!("replay:        seed 77 reproduced the identical delivery order\n");
    }
}
