//! Correctness under crashes for every ablation configuration: the
//! optimization switches change the wire economy, never safety.

use bytes::Bytes;
use fortika_fd::{FdConfig, HeartbeatFd};
use fortika_mono::{MonoNode, MonoOptimizations};
use fortika_net::{
    Admission, AppMsg, AppRequest, Cluster, ClusterConfig, CollectingHarness, MsgId, Node,
    ProcessId,
};
use fortika_sim::{VDur, VTime};

fn node(n: usize, me: usize, opts: MonoOptimizations) -> Box<dyn Node> {
    let fd_cfg = FdConfig {
        heartbeat_interval: VDur::millis(20),
        timeout: VDur::millis(100),
        timeout_increment: VDur::millis(50),
    };
    Box::new(MonoNode::new(
        opts,
        16,
        HeartbeatFd::new(n, ProcessId(me as u16), fd_cfg),
    ))
}

fn all_combos() -> Vec<MonoOptimizations> {
    let mut out = Vec::new();
    for o1 in [false, true] {
        for o2 in [false, true] {
            for o3 in [false, true] {
                out.push(MonoOptimizations {
                    combine_decision_proposal: o1,
                    piggyback_on_acks: o2,
                    implicit_decision_acks: o3,
                });
            }
        }
    }
    out
}

/// For each of the 8 optimization subsets: run a loaded 5-process group,
/// crash the round-0 coordinator mid-run, keep submitting from the
/// survivors, and verify the atomic broadcast properties.
#[test]
fn every_subset_survives_coordinator_crash() {
    for (i, opts) in all_combos().into_iter().enumerate() {
        let n = 5;
        let nodes = (0..n).map(|p| node(n, p, opts)).collect();
        let mut cluster = Cluster::new(ClusterConfig::new(n, 40 + i as u64), nodes);
        let mut harness = CollectingHarness::new(n);
        cluster.run_until(VTime::ZERO + VDur::millis(1), &mut harness);

        let mut submitted = Vec::new();
        let mut seqs = vec![0u64; n];
        let submit = |cluster: &mut Cluster, p: u16, seqs: &mut Vec<u64>, out: &mut Vec<MsgId>| {
            let id = MsgId::new(ProcessId(p), seqs[p as usize]);
            let msg = AppMsg::new(id, Bytes::from(vec![p as u8; 256]));
            let (adm, _) = cluster.submit(ProcessId(p), AppRequest::Abcast(msg));
            if adm == Admission::Accepted {
                seqs[p as usize] += 1;
                out.push(id);
            }
        };

        // Pre-crash traffic from everyone.
        for _ in 0..3 {
            for p in 0..n as u16 {
                submit(&mut cluster, p, &mut seqs, &mut submitted);
            }
            let next = cluster.now() + VDur::millis(10);
            cluster.run_until(next, &mut harness);
        }
        // Remove p1's submissions from the validity set (it may crash
        // holding undisseminated messages — allowed by the spec).
        let survivors_only: Vec<MsgId> = submitted
            .iter()
            .copied()
            .filter(|id| id.sender != ProcessId(0))
            .collect();

        let crash_at = cluster.now() + VDur::millis(1);
        cluster.schedule_crash(ProcessId(0), crash_at);
        let resume = cluster.now() + VDur::millis(300);
        cluster.run_until(resume, &mut harness);

        // Post-crash traffic from survivors.
        let mut post = Vec::new();
        for _ in 0..3 {
            for p in 1..n as u16 {
                submit(&mut cluster, p, &mut seqs, &mut post);
            }
            let next = cluster.now() + VDur::millis(10);
            cluster.run_until(next, &mut harness);
        }
        let end = cluster.now() + VDur::secs(8);
        cluster.run_until(end, &mut harness);

        // Properties.
        let reference = harness.order(ProcessId(1));
        for p in ProcessId::all(n).skip(1) {
            assert_eq!(harness.order(p), reference, "combo {opts:?}: {p} diverged");
        }
        let mut dedup = reference.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), reference.len(), "combo {opts:?}: duplicates");
        for id in survivors_only.iter().chain(&post) {
            assert!(
                reference.contains(id),
                "combo {opts:?}: {id} from a correct sender lost"
            );
        }
        // Crashed coordinator's log is a prefix.
        let dead = harness.order(ProcessId(0));
        assert!(
            dead.iter().zip(reference.iter()).all(|(a, b)| a == b),
            "combo {opts:?}: crashed log not a prefix"
        );
    }
}

/// The O2-off path (diffusion) must tolerate a *sender* crash mid-
/// diffusion, like the modular stack.
#[test]
fn diffusion_path_sender_crash_agreement() {
    let opts = MonoOptimizations {
        combine_decision_proposal: true,
        piggyback_on_acks: false, // diffusion mode
        implicit_decision_acks: true,
    };
    let n = 4;
    let mut cfg = ClusterConfig::new(n, 50);
    cfg.net.bandwidth_bytes_per_sec = 1_000_000; // slow NIC: spread the fan-out
    let nodes = (0..n).map(|p| node(n, p, opts)).collect();
    let mut cluster = Cluster::new(cfg, nodes);
    let mut harness = CollectingHarness::new(n);
    cluster.run_until(VTime::ZERO + VDur::millis(1), &mut harness);

    // Keep the instance stream alive from p2.
    let keeper = AppMsg::new(MsgId::new(ProcessId(1), 0), Bytes::from(vec![1u8; 64]));
    cluster.submit(ProcessId(1), AppRequest::Abcast(keeper));
    // p3 diffuses a large message and dies mid-fan-out.
    let fat = AppMsg::new(MsgId::new(ProcessId(2), 0), Bytes::from(vec![2u8; 4096]));
    cluster.submit(ProcessId(2), AppRequest::Abcast(fat));
    let crash_at = cluster.now() + VDur::millis(6);
    cluster.schedule_crash(ProcessId(2), crash_at);
    let end = cluster.now() + VDur::secs(8);
    cluster.run_until(end, &mut harness);

    let reference = harness.order(ProcessId(0));
    for p in [ProcessId(0), ProcessId(1), ProcessId(3)] {
        assert_eq!(harness.order(p), reference.clone(), "{p} diverged");
    }
    assert!(
        reference.contains(&MsgId::new(ProcessId(1), 0)),
        "correct sender's message lost"
    );
}
