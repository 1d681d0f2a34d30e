//! Crash-recovery: a process dies with total volatile-state loss, comes
//! back, and catches up.
//!
//! A 3-process cluster runs under load. At t = 1 s, p2 crashes — its
//! stack, timers, delivery logs and decision cache are gone; only the
//! tiny stable store (consensus vote records, the decided watermark,
//! the rbcast sequence counter) survives, exactly the write-ahead state
//! crash-recovery consensus requires. At t = 3 s the process is revived
//! with a new incarnation: stale messages from its previous life are
//! fenced at the wire level, peers' failure detectors un-suspect it on
//! its first heartbeats, and the fresh stack advertises "I am at
//! instance 0". Peers stream the decided prefix back in bulk
//! `StateTransfer` batches; the revived process re-delivers the whole
//! prefix **byte-identically** with its pre-crash deliveries and then
//! rejoins ordering at the live frontier.
//!
//! Both stacks run the same scenario; the recovery-aware oracle audits
//! every delivery across incarnations. Run with:
//! `cargo run --release --example crash_recovery`

use fortika::chaos::{LoadPlan, Scenario};
use fortika::core::{run_scripted, StackConfig, StackKind};
use fortika::net::{ClusterConfig, MsgId, ProcessId};
use fortika::sim::{VDur, VTime};

fn scenario() -> Scenario {
    Scenario::new()
        .crash(ProcessId(1), VDur::secs(1))
        .restart(ProcessId(1), VDur::secs(3))
}

fn run(kind: StackKind, seed: u64) -> Vec<MsgId> {
    let n = 3;
    // 36 messages, round-robin senders, one every 100 ms — the load
    // spans before, during and after p2's outage. Run to just before
    // the revival first: the survivors kept ordering. (Revival builds a
    // fresh stack — volatile state is lost — through the restart
    // factory the assembly registered, which hands the stable store to
    // the resumed modules.)
    let (mut cluster, mut driver) = run_scripted(
        kind,
        &StackConfig::default(),
        ClusterConfig::new(n, seed),
        &scenario(),
        LoadPlan::round_robin(n, 36, VDur::millis(100), 512),
        VTime::ZERO + VDur::millis(2900),
    );
    let survivors_mid = driver.oracle().order(ProcessId(0)).len();
    let victim_mid = driver.oracle().order(ProcessId(1)).len();

    // Revive and drain.
    cluster.run_until(VTime::ZERO + VDur::secs(10), &mut driver);

    assert!(cluster.alive(ProcessId(1)), "p2 must be revived");
    assert_eq!(cluster.incarnation(ProcessId(1)), 1);

    // A crashed-then-restarted process is correct again: the oracle
    // demands drained equality with the common order for its final
    // incarnation, byte-identical replay of its pre-crash deliveries,
    // and validity for everything accepted in a final incarnation.
    let correct = scenario().correct(n);
    assert_eq!(correct.len(), n, "restarted p2 counts as correct");
    let must = driver.accepted_at(&correct);
    let report = driver.oracle().check_drained(&correct, &must);
    report.assert_ok(&format!("crash_recovery ({})", kind.label()));

    let victim_total = driver.oracle().logs()[1].len();
    println!("=== {} stack (seed {seed}) ===", kind.label());
    println!(
        "outage:   p2 crashed at 1 s having delivered {victim_mid}; survivors reached \
         {survivors_mid} by 2.9 s"
    );
    println!(
        "recovery: p2 revived at 3 s (incarnation 1), re-delivered the decided prefix \
         byte-identically and caught up — {} total order entries, {} deliveries audited \
         across incarnations, 0 violations",
        report.common_order.len(),
        report.deliveries,
    );
    println!(
        "traffic:  {} join announcements, {} bulk state transfers, {} stale-incarnation \
         drops, {} restarts",
        cluster.counters().event("consensus.join_requests")
            + cluster.counters().event("mono.join_requests"),
        cluster.counters().event("consensus.state_transfers")
            + cluster.counters().event("mono.state_transfers"),
        cluster.counters().event("chaos.dropped_stale_incarnation"),
        cluster.counters().event("cluster.restarts"),
    );
    println!(
        "victim:   pre-crash log ({victim_mid}) is a byte-identical prefix of the replay; \
         p2 logged {victim_total} deliveries over both incarnations"
    );
    report.common_order
}

pub fn main() {
    for kind in [StackKind::Modular, StackKind::Monolithic] {
        let order_a = run(kind, 42);
        let order_b = run(kind, 42);
        assert_eq!(
            order_a, order_b,
            "same seed must reproduce byte-identical delivery order"
        );
        println!("replay:   seed 42 reproduced the identical run\n");
    }
}
