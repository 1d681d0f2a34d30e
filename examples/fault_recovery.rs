//! Fault recovery: life outside the good runs.
//!
//! The paper's evaluation covers only good runs, but both stacks must be
//! correct in *all* runs (§3, §4). This example crashes the round-0
//! coordinator (p1) in the middle of a loaded run of the monolithic
//! stack and shows what the paper's machinery does about it: the
//! heartbeat failure detector suspects p1, the consensus rounds rotate
//! to a new coordinator, senders re-route their pending messages on
//! estimates, and total order continues seamlessly for the survivors.
//!
//! The crash is declared on a `fortika-chaos` [`Scenario`] timeline
//! (rather than hand-scheduled through the harness), and the
//! delivery-invariant oracle audits the whole run.
//!
//! Run with: `cargo run --release --example fault_recovery`

use fortika::chaos::{LoadPlan, Scenario, Submission};
use fortika::core::{run_scripted, StackConfig, StackKind};
use fortika::net::{ClusterConfig, ProcessId};
use fortika::sim::{VDur, VTime};

pub fn main() {
    let n = 3;
    let crash_at = VDur::millis(35);

    // The fault timeline: kill p1 — the round-0 coordinator of every
    // consensus instance — while phase 1's load is still in flight.
    let scenario = Scenario::new().crash(ProcessId(0), crash_at);

    // Phase 1: all three processes broadcast. Phase 2: the survivors
    // keep broadcasting after the crash (a blocked abcast waits for flow
    // control, like a real caller — the driver parks and retries).
    let mut plan = LoadPlan::default();
    for round in 0..4u64 {
        for p in 0..n as u16 {
            plan.submissions.push(Submission {
                sender: ProcessId(p),
                at: VDur::millis(2 + round * 8),
                size: 512,
            });
        }
    }
    for round in 0..4u64 {
        for p in 1..n as u16 {
            plan.submissions.push(Submission {
                sender: ProcessId(p),
                at: VDur::millis(900 + round * 8),
                size: 512,
            });
        }
    }

    // Run past the crash; the heartbeat detector notices once p1, the
    // coordinator every survivor waits on, has been silent for the
    // coordinator timeout of 87.5 ms (half the 175 ms every other peer
    // gets), then rounds rotate and ordering resumes.
    let (mut cluster, mut driver) = run_scripted(
        StackKind::Monolithic,
        &StackConfig::default(),
        ClusterConfig::new(n, 99),
        &scenario,
        plan,
        VTime::ZERO + VDur::millis(800),
    );
    println!(
        "crashed p1 (round-0 coordinator) at {crash_at}; suspicions raised: {}, \
         consensus round changes: {}",
        cluster.counters().event("fd.suspicions"),
        cluster.counters().event("mono.round_changes"),
    );

    cluster.run_until(VTime::ZERO + VDur::secs(6), &mut driver);

    // The oracle checks the full contract: agreement + total order among
    // the survivors, p1's log a consistent prefix, and validity for
    // everything the survivors got admitted.
    let correct = scenario.correct(n);
    let must_deliver = driver.accepted_at(&correct);
    let report = driver.oracle().check_drained(&correct, &must_deliver);
    report.assert_ok("fault_recovery");

    let p2 = driver.oracle().order(ProcessId(1));
    let p1 = driver.oracle().order(ProcessId(0));
    println!(
        "after recovery: survivors agree on {} messages ({} delivered after the crash)",
        report.common_order.len(),
        report.common_order.len() - p1.len().min(report.common_order.len()),
    );
    println!(
        "crashed p1's log ({} msgs) is a consistent prefix — uniform agreement holds",
        p1.len()
    );
    println!(
        "oracle: {} deliveries audited, {} violations — p2 delivered {} in total",
        report.deliveries,
        report.violations.len(),
        p2.len()
    );
}
