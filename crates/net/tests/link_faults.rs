//! Behavioural tests of the link-level fault hooks: partitions block at
//! transmission time, seeded loss drops the configured fraction,
//! duplication re-delivers, delay spikes stretch latency, and every
//! fault is reproducible from the cluster seed. A frame of several
//! parts fares as one of a single buffer does: delivered whole, every
//! time it is delivered, and let go of when it is dropped.

use bytes::Bytes;
use fortika_net::wire::SHARE_MIN;
use fortika_net::{
    Admission, AppRequest, Cluster, ClusterConfig, CostModel, LinkFault, LinkSelector, NetModel,
    Node, NodeCtx, ProcessId, Stored,
};
use fortika_sim::{VDur, VTime};

fortika_net::metric_table! {
    mod names in TEST {
        events {
            TEST_ARRIVALS = "test.arrivals",
            TEST_ARRIVED_AT_US = "test.arrived_at_us",
            TEST_DECODED = "test.decoded",
            TEST_GARBAGE = "test.garbage",
            TEST_PONG_AT_US = "test.pong_at_us",
            TEST_RECEIVED = "test.received",
        }
        kinds {
            TEST_BURST = "test.burst",
            TEST_CHAINED = "test.chained",
            TEST_MSG = "test.msg",
            TEST_ONE = "test.one",
            TEST_PING = "test.ping",
            TEST_PONG = "test.pong",
        }
    }
}

/// Sends one tagged message per tick-timer firing; counts receptions.
struct Chatter {
    period: VDur,
    rounds: u64,
    sent: u64,
}

impl Chatter {
    fn new(period: VDur, rounds: u64) -> Self {
        Chatter {
            period,
            rounds,
            sent: 0,
        }
    }
}

impl Node for Chatter {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        if ctx.pid() == ProcessId(0) {
            ctx.set_timer(self.period, 0);
        }
    }
    fn on_message(&mut self, ctx: &mut NodeCtx<'_>, _from: ProcessId, _bytes: Bytes) {
        ctx.bump(names::TEST_RECEIVED, 1);
    }
    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _t: fortika_net::TimerId, _tag: u64) {
        if self.sent < self.rounds {
            self.sent += 1;
            ctx.send(ProcessId(1), names::TEST_MSG, Bytes::from_static(b"x"));
            ctx.set_timer(self.period, 0);
        }
    }
    fn on_request(&mut self, _: &mut NodeCtx<'_>, _: AppRequest) -> Admission {
        Admission::Blocked
    }
}

fn chatter_cluster(n: usize, seed: u64, rounds: u64) -> Cluster {
    let cfg = ClusterConfig::instant(n, seed);
    let nodes = (0..n)
        .map(|_| Box::new(Chatter::new(VDur::millis(1), rounds)) as Box<dyn Node>)
        .collect();
    Cluster::new(cfg, nodes)
}

#[test]
fn partition_blocks_and_heal_restores() {
    // p0 sends to p1 every 1 ms for 100 ms; a partition cuts them from
    // t=20 ms to t=60 ms. Messages transmitted inside the window vanish.
    let mut cluster = chatter_cluster(2, 1, 100);
    cluster.schedule_fault(
        VTime::ZERO + VDur::millis(20),
        LinkFault::Partition(vec![vec![ProcessId(0)], vec![ProcessId(1)]]),
    );
    cluster.schedule_fault(VTime::ZERO + VDur::millis(60), LinkFault::Heal);
    cluster.run_idle(VTime::ZERO + VDur::millis(200));
    let received = cluster.counters().event("test.received");
    let dropped = cluster.counters().event("chaos.dropped_partition");
    assert_eq!(
        received + dropped,
        100,
        "every send either arrives or is counted dropped"
    );
    assert_eq!(dropped, 40, "exactly the 40 sends inside the window drop");
    assert_eq!(cluster.counters().event("chaos.fault_events"), 2);
}

#[test]
fn partition_queryable_and_groups_respected() {
    let mut cluster = chatter_cluster(3, 2, 0);
    cluster.apply_fault(&LinkFault::Partition(vec![
        vec![ProcessId(0), ProcessId(1)],
        vec![ProcessId(2)],
    ]));
    assert!(!cluster.link_blocked(ProcessId(0), ProcessId(1)));
    assert!(!cluster.link_blocked(ProcessId(1), ProcessId(0)));
    assert!(cluster.link_blocked(ProcessId(0), ProcessId(2)));
    assert!(cluster.link_blocked(ProcessId(2), ProcessId(1)));
    cluster.apply_fault(&LinkFault::Heal);
    assert!(!cluster.link_blocked(ProcessId(0), ProcessId(2)));
}

#[test]
fn unlisted_processes_are_isolated_singletons() {
    let mut cluster = chatter_cluster(3, 3, 0);
    cluster.apply_fault(&LinkFault::Partition(vec![vec![
        ProcessId(0),
        ProcessId(1),
    ]]));
    assert!(cluster.link_blocked(ProcessId(2), ProcessId(0)));
    assert!(cluster.link_blocked(ProcessId(1), ProcessId(2)));
    assert!(!cluster.link_blocked(ProcessId(0), ProcessId(1)));
}

#[test]
fn loss_drops_roughly_the_configured_fraction() {
    let mut cluster = chatter_cluster(2, 4, 1000);
    cluster.apply_fault(&LinkFault::Loss {
        link: LinkSelector::All,
        p: 0.3,
    });
    cluster.run_idle(VTime::ZERO + VDur::secs(2));
    let received = cluster.counters().event("test.received");
    let dropped = cluster.counters().event("chaos.dropped_loss");
    assert_eq!(received + dropped, 1000);
    assert!(
        (200..400).contains(&dropped),
        "expected ~300 of 1000 dropped at p=0.3, got {dropped}"
    );
    // Clearing the loss stops the dropping.
    cluster.apply_fault(&LinkFault::Loss {
        link: LinkSelector::All,
        p: 0.0,
    });
}

#[test]
fn loss_is_directional() {
    let mut cluster = chatter_cluster(2, 5, 50);
    // Losing the reverse direction must not affect p0 → p1 traffic.
    cluster.apply_fault(&LinkFault::Loss {
        link: LinkSelector::Directed {
            src: ProcessId(1),
            dst: ProcessId(0),
        },
        p: 1.0,
    });
    cluster.run_idle(VTime::ZERO + VDur::millis(200));
    assert_eq!(cluster.counters().event("test.received"), 50);
    assert_eq!(cluster.counters().event("chaos.dropped_loss"), 0);
}

#[test]
fn duplication_redelivers() {
    let mut cluster = chatter_cluster(2, 6, 200);
    cluster.apply_fault(&LinkFault::Duplicate {
        link: LinkSelector::Between(ProcessId(0), ProcessId(1)),
        p: 1.0,
    });
    cluster.run_idle(VTime::ZERO + VDur::secs(1));
    assert_eq!(cluster.counters().event("test.received"), 400);
    assert_eq!(cluster.counters().event("chaos.duplicated"), 200);
}

/// Process 0 sends one chained frame — a tag, a byte string long enough
/// to travel by reference, a trailer — to process 1 on start and keeps
/// nothing; process 1 counts the frames it decodes whole.
struct Chained(Option<Bytes>);

impl Node for Chained {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        if let Some(payload) = self.0.take() {
            let frame = Stored::encode_with(|w| {
                w.put_u8(0xC4);
                w.put(&payload);
                w.put_u16(0xBEEF);
            });
            assert_eq!(frame.parts().len(), 3);
            ctx.send(ProcessId(1), names::TEST_CHAINED, frame);
        }
    }
    fn on_message(&mut self, ctx: &mut NodeCtx<'_>, _: ProcessId, bytes: Bytes) {
        let mut r = ctx.reader(bytes);
        let read = (r.get_u8(), r.get::<Bytes>(), r.get_only::<u16>());
        match read {
            (Ok(0xC4), Ok(payload), Ok(0xBEEF)) if payload.len() == SHARE_MIN => {
                ctx.bump(names::TEST_DECODED, 1)
            }
            _ => ctx.bump(names::TEST_GARBAGE, 1),
        }
    }
    fn on_request(&mut self, _: &mut NodeCtx<'_>, _: AppRequest) -> Admission {
        Admission::Blocked
    }
}

#[test]
fn chained_frames_are_delivered_whole_or_released() {
    let all = LinkSelector::All;
    for (fault, decoded, drop_counter) in [
        (LinkFault::Reset, 1, None),
        (LinkFault::Duplicate { link: all, p: 1.0 }, 2, None),
        (
            LinkFault::Loss { link: all, p: 1.0 },
            0,
            Some("chaos.dropped_loss"),
        ),
        (
            LinkFault::Partition(vec![vec![ProcessId(0)], vec![ProcessId(1)]]),
            0,
            Some("chaos.dropped_partition"),
        ),
    ] {
        let payload = Bytes::from(vec![0x5A; SHARE_MIN]);
        let nodes: Vec<Box<dyn Node>> = vec![
            Box::new(Chained(Some(payload.clone()))),
            Box::new(Chained(None)),
        ];
        let mut cluster = Cluster::new(ClusterConfig::new(2, 11), nodes);
        cluster.apply_fault(&fault);
        cluster.run_idle(VTime::ZERO);
        // In flight (or already dropped): the frame holds the sender's
        // buffer, not a copy of it.
        assert_eq!(payload.is_unique(), drop_counter.is_some(), "{fault:?}");
        cluster.run_idle(VTime::ZERO + VDur::secs(1));
        let counters = cluster.counters();
        assert_eq!(counters.event("test.decoded"), decoded, "{fault:?}");
        assert_eq!(counters.event("test.garbage"), 0, "{fault:?}");
        if let Some(name) = drop_counter {
            assert_eq!(counters.event(name), 1, "{fault:?}");
        }
        assert!(payload.is_unique(), "{fault:?}: frame outlived its fate");
    }
}

#[test]
fn delay_spike_stretches_latency() {
    // Deterministic latency (no jitter): a 10× delay spike on a 100 µs
    // propagation link makes the one message arrive at ~1 ms.
    struct OneShot;
    impl Node for OneShot {
        fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
            if ctx.pid() == ProcessId(0) {
                ctx.send(ProcessId(1), names::TEST_ONE, Bytes::from_static(b"x"));
            }
        }
        fn on_message(&mut self, ctx: &mut NodeCtx<'_>, _: ProcessId, _: Bytes) {
            ctx.bump(names::TEST_ARRIVED_AT_US, ctx.now().as_nanos() / 1000);
        }
        fn on_request(&mut self, _: &mut NodeCtx<'_>, _: AppRequest) -> Admission {
            Admission::Blocked
        }
    }
    let mut cfg = ClusterConfig::new(2, 7);
    cfg.cost = CostModel::free();
    cfg.net = NetModel {
        bandwidth_bytes_per_sec: u64::MAX / 2,
        prop_delay: VDur::micros(100),
        jitter: VDur::ZERO,
        per_msg_overhead: 0,
    };
    let mut cluster = Cluster::new(cfg, vec![Box::new(OneShot), Box::new(OneShot)]);
    cluster.apply_fault(&LinkFault::DelaySpike {
        link: LinkSelector::All,
        factor_milli: 10_000,
    });
    cluster.run_idle(VTime::ZERO + VDur::secs(1));
    assert_eq!(cluster.counters().event("test.arrived_at_us"), 1000);
}

#[test]
fn reset_restores_fault_free_defaults() {
    let mut cluster = chatter_cluster(2, 8, 50);
    cluster.apply_fault(&LinkFault::Partition(vec![
        vec![ProcessId(0)],
        vec![ProcessId(1)],
    ]));
    cluster.apply_fault(&LinkFault::Loss {
        link: LinkSelector::All,
        p: 1.0,
    });
    cluster.apply_fault(&LinkFault::Reset);
    cluster.run_idle(VTime::ZERO + VDur::millis(200));
    assert_eq!(cluster.counters().event("test.received"), 50);
    assert_eq!(cluster.counters().event("chaos.dropped_partition"), 0);
    assert_eq!(cluster.counters().event("chaos.dropped_loss"), 0);
}

#[test]
fn faulty_runs_replay_bit_identically() {
    let run = |seed: u64| -> (u64, u64, u64) {
        let mut cluster = chatter_cluster(2, seed, 500);
        cluster.apply_fault(&LinkFault::Loss {
            link: LinkSelector::All,
            p: 0.25,
        });
        cluster.apply_fault(&LinkFault::Duplicate {
            link: LinkSelector::All,
            p: 0.25,
        });
        cluster.run_idle(VTime::ZERO + VDur::secs(1));
        (
            cluster.counters().event("test.received"),
            cluster.counters().event("chaos.dropped_loss"),
            cluster.counters().event("chaos.duplicated"),
        )
    };
    assert_eq!(run(42), run(42), "same seed must replay identically");
    assert_ne!(run(42), run(43), "different seeds explore different faults");
}

#[test]
fn fault_free_runs_unaffected_by_fault_machinery() {
    // The fault hooks must not perturb the default jitter stream: a run
    // on the unmodified cluster equals a run where faults were applied
    // and reset before any traffic.
    let transcript = |prime: bool| -> u64 {
        let cfg = ClusterConfig::new(2, 9);
        let nodes: Vec<Box<dyn Node>> = (0..2)
            .map(|_| Box::new(Chatter::new(VDur::millis(1), 100)) as Box<dyn Node>)
            .collect();
        let mut cluster = Cluster::new(cfg, nodes);
        if prime {
            cluster.apply_fault(&LinkFault::Loss {
                link: LinkSelector::All,
                p: 0.9,
            });
            cluster.apply_fault(&LinkFault::Reset);
        }
        cluster.run_idle(VTime::ZERO + VDur::secs(1));
        cluster.counters().event("test.received")
    };
    assert_eq!(transcript(false), transcript(true));
}

#[test]
fn surviving_messages_keep_fault_free_timing() {
    // Messages that survive a lossy link must arrive at exactly the
    // instant they would have in the fault-free run with the same seed:
    // fault coin flips draw from a dedicated stream, and every send
    // burns exactly one main-stream jitter draw regardless of its fate.
    use std::cell::RefCell;
    use std::collections::BTreeMap;
    use std::rc::Rc;

    struct Burst;
    impl Node for Burst {
        fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
            if ctx.pid() == ProcessId(0) {
                ctx.set_timer(VDur::millis(1), 0);
            }
        }
        fn on_message(&mut self, _: &mut NodeCtx<'_>, _: ProcessId, _: Bytes) {}
        fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _t: fortika_net::TimerId, tag: u64) {
            ctx.send(ProcessId(1), names::TEST_MSG, Bytes::from(vec![tag as u8]));
            if tag < 49 {
                ctx.set_timer(VDur::millis(1), tag + 1);
            }
        }
        fn on_request(&mut self, _: &mut NodeCtx<'_>, _: AppRequest) -> Admission {
            Admission::Blocked
        }
    }

    struct Recorder(Rc<RefCell<BTreeMap<u8, VTime>>>);
    impl Node for Recorder {
        fn on_message(&mut self, ctx: &mut NodeCtx<'_>, _: ProcessId, bytes: Bytes) {
            self.0.borrow_mut().insert(bytes[0], ctx.now());
        }
        fn on_request(&mut self, _: &mut NodeCtx<'_>, _: AppRequest) -> Admission {
            Admission::Blocked
        }
    }

    let run = |lossy: bool| -> BTreeMap<u8, VTime> {
        let arrivals = Rc::new(RefCell::new(BTreeMap::new()));
        let mut cfg = ClusterConfig::new(2, 31);
        cfg.cost = CostModel::free();
        cfg.net.jitter = VDur::micros(200); // jitter stream must matter
        let nodes: Vec<Box<dyn Node>> =
            vec![Box::new(Burst), Box::new(Recorder(Rc::clone(&arrivals)))];
        let mut cluster = Cluster::new(cfg, nodes);
        if lossy {
            cluster.apply_fault(&LinkFault::Loss {
                link: LinkSelector::All,
                p: 0.4,
            });
        }
        cluster.run_idle(VTime::ZERO + VDur::secs(1));
        drop(cluster);
        Rc::try_unwrap(arrivals)
            .expect("cluster dropped")
            .into_inner()
    };

    let clean = run(false);
    let faulty = run(true);
    assert_eq!(clean.len(), 50);
    assert!(faulty.len() < 50, "p=0.4 should drop something");
    assert!(!faulty.is_empty(), "p=0.4 should not drop everything");
    for (seq, at) in &faulty {
        assert_eq!(
            clean.get(seq),
            Some(at),
            "message {seq} survived but shifted its arrival time"
        );
    }
}

#[test]
fn degraded_link_serializes_at_reduced_rate() {
    // Deterministic setup: 1 MB/s NIC, no jitter, no propagation. One
    // 1000-byte message takes 1 ms through the NIC; a link degraded to
    // 10 % then serializes it again at 100 KB/s (10 ms), so arrival is
    // at ~11 ms instead of ~1 ms.
    struct OneShot;
    impl Node for OneShot {
        fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
            if ctx.pid() == ProcessId(0) {
                ctx.send(ProcessId(1), names::TEST_ONE, Bytes::from(vec![0u8; 1000]));
            }
        }
        fn on_message(&mut self, ctx: &mut NodeCtx<'_>, _: ProcessId, _: Bytes) {
            ctx.bump(names::TEST_ARRIVED_AT_US, ctx.now().as_nanos() / 1000);
        }
        fn on_request(&mut self, _: &mut NodeCtx<'_>, _: AppRequest) -> Admission {
            Admission::Blocked
        }
    }
    let run = |rate_milli: u64| -> u64 {
        let mut cfg = ClusterConfig::new(2, 7);
        cfg.cost = CostModel::free();
        cfg.net = NetModel {
            bandwidth_bytes_per_sec: 1_000_000,
            prop_delay: VDur::ZERO,
            jitter: VDur::ZERO,
            per_msg_overhead: 0,
        };
        let mut cluster = Cluster::new(cfg, vec![Box::new(OneShot), Box::new(OneShot)]);
        if rate_milli < 1000 {
            cluster.apply_fault(&LinkFault::Degrade {
                link: LinkSelector::All,
                rate_milli,
            });
        }
        cluster.run_idle(VTime::ZERO + VDur::secs(1));
        cluster.counters().event("test.arrived_at_us")
    };
    assert_eq!(run(1000), 1000, "full rate: NIC serialization only");
    assert_eq!(run(100), 11_000, "10 % rate: NIC + 10 ms link stage");
    assert_eq!(run(500), 3_000, "50 % rate: NIC + 2 ms link stage");
}

#[test]
fn degraded_link_queues_consecutive_messages() {
    // Regression: a degraded link is a serial server, not a delay — a
    // burst of messages must queue behind each other on it. 10 sends of
    // 1000 bytes at t≈0 through a 10 %-degraded 1 MB/s link drain one
    // per 10 ms, so the last arrives at ~100 ms (a pure delay model
    // would deliver them all at ~11 ms).
    struct Burst;
    impl Node for Burst {
        fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
            if ctx.pid() == ProcessId(0) {
                for _ in 0..10 {
                    ctx.send(
                        ProcessId(1),
                        names::TEST_BURST,
                        Bytes::from(vec![0u8; 1000]),
                    );
                }
            }
        }
        fn on_message(&mut self, ctx: &mut NodeCtx<'_>, _: ProcessId, _: Bytes) {
            ctx.bump(names::TEST_ARRIVALS, 1);
        }
        fn on_request(&mut self, _: &mut NodeCtx<'_>, _: AppRequest) -> Admission {
            Admission::Blocked
        }
    }
    let mut cfg = ClusterConfig::new(2, 7);
    cfg.cost = CostModel::free();
    cfg.net = NetModel {
        bandwidth_bytes_per_sec: 1_000_000,
        prop_delay: VDur::ZERO,
        jitter: VDur::ZERO,
        per_msg_overhead: 0,
    };
    let mut cluster = Cluster::new(cfg, vec![Box::new(Burst), Box::new(Burst)]);
    cluster.apply_fault(&LinkFault::Degrade {
        link: LinkSelector::All,
        rate_milli: 100,
    });
    // Run in 1 ms steps and remember when the arrival counter last
    // moved — the final arrival instant, at millisecond resolution.
    let mut last = VTime::ZERO;
    let mut seen = 0;
    for ms in 1..=200u64 {
        cluster.run_idle(VTime::ZERO + VDur::millis(ms));
        let now = cluster.counters().event("test.arrivals");
        if now > seen {
            seen = now;
            last = VTime::ZERO + VDur::millis(ms);
        }
    }
    assert_eq!(seen, 10, "all burst messages arrive");
    assert!(
        last >= VTime::ZERO + VDur::millis(91),
        "last arrival at {last:?}: the degraded link must serialize the burst (~100 ms)"
    );
    assert_eq!(cluster.counters().event("chaos.degraded_tx"), 10);
}

#[test]
fn slow_node_stretches_handler_costs() {
    // A node whose CPU is throttled 4× charges 4× for every handler:
    // with a 1 ms receive cost, the echo comes back later.
    struct Echo;
    impl Node for Echo {
        fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
            if ctx.pid() == ProcessId(0) {
                ctx.send(ProcessId(1), names::TEST_PING, Bytes::from_static(b"ping"));
            }
        }
        fn on_message(&mut self, ctx: &mut NodeCtx<'_>, from: ProcessId, bytes: Bytes) {
            if bytes.as_ref() == b"ping" {
                ctx.send(from, names::TEST_PONG, Bytes::from_static(b"pong"));
            } else {
                ctx.bump(names::TEST_PONG_AT_US, ctx.now().as_nanos() / 1000);
            }
        }
        fn on_request(&mut self, _: &mut NodeCtx<'_>, _: AppRequest) -> Admission {
            Admission::Blocked
        }
    }
    let run = |factor_milli: u64| -> (u64, VDur) {
        let mut cfg = ClusterConfig::new(2, 7);
        cfg.cost = CostModel::free();
        cfg.cost.recv_fixed = VDur::millis(1);
        cfg.net = NetModel::instant();
        let mut cluster = Cluster::new(cfg, vec![Box::new(Echo), Box::new(Echo)]);
        cluster.apply_slowdown(ProcessId(1), factor_milli);
        cluster.run_idle(VTime::ZERO + VDur::secs(1));
        (
            cluster.counters().event("test.pong_at_us"),
            cluster.cpu_busy(ProcessId(1)),
        )
    };
    // Nominal: p1 receives (1 ms), p0 receives the pong (1 ms) => 2 ms.
    let (nominal_us, nominal_busy) = run(1000);
    assert_eq!(nominal_us, 2000);
    // p1 throttled 4×: its receive takes 4 ms, p0's still 1 ms => 5 ms.
    let (slow_us, slow_busy) = run(4000);
    assert_eq!(slow_us, 5000);
    assert_eq!(slow_busy, nominal_busy + VDur::millis(3));
    assert_eq!(run(1000), run(1000), "slowdowns replay deterministically");
}

#[test]
fn slowdown_windows_schedule_and_restore() {
    let mut cluster = chatter_cluster(2, 9, 0);
    assert_eq!(cluster.cpu_factor_milli(ProcessId(0)), 1000);
    cluster.schedule_slowdown(VTime::ZERO + VDur::millis(10), ProcessId(0), 3000);
    cluster.schedule_slowdown(VTime::ZERO + VDur::millis(20), ProcessId(0), 1000);
    cluster.run_idle(VTime::ZERO + VDur::millis(15));
    assert_eq!(cluster.cpu_factor_milli(ProcessId(0)), 3000);
    cluster.run_idle(VTime::ZERO + VDur::millis(30));
    assert_eq!(cluster.cpu_factor_milli(ProcessId(0)), 1000);
    assert_eq!(cluster.counters().event("chaos.slow_events"), 2);
}

#[test]
#[should_panic(expected = "out of range")]
fn degrade_rate_out_of_range_rejected_at_schedule_time() {
    let mut cluster = chatter_cluster(2, 9, 0);
    cluster.schedule_fault(
        VTime::ZERO + VDur::millis(1),
        LinkFault::Degrade {
            link: LinkSelector::All,
            rate_milli: 0,
        },
    );
}

#[test]
#[should_panic(expected = "must be positive")]
fn zero_slowdown_rejected_at_schedule_time() {
    let mut cluster = chatter_cluster(2, 9, 0);
    cluster.schedule_slowdown(VTime::ZERO + VDur::millis(1), ProcessId(0), 0);
}
