//! Behavioural tests of the cluster harness: delivery, timers, CPU and
//! NIC contention, crash semantics, determinism.

use bytes::Bytes;
use fortika_net::wire::{Wire, SHARE_MIN};
use fortika_net::{
    Admission, AppMsg, AppRequest, Batch, Cluster, ClusterApi, ClusterConfig, CostModel, Delivery,
    Harness, MsgId, NetModel, Node, NodeCtx, ProcessId, StableRecord, Stored, TimerId, VoteRecord,
};
use fortika_sim::{VDur, VTime};

fortika_net::metric_table! {
    mod names in TEST {
        events {
            FIRED_1 = "fired.1",
            FIRED_2 = "fired.2",
            FIRED_3 = "fired.3",
        }
        kinds {
            FLOOD_MSG = "flood.msg",
            REBORN_HELLO = "reborn.hello",
            REBORN_TIMER = "reborn.timer",
            TEST_CHAINED = "test.chained",
            TEST_MSG = "test.msg",
        }
    }
}

/// A node that records everything it observes (with virtual timestamps).
#[derive(Default)]
struct Probe {
    received: Vec<(ProcessId, Bytes, VTime)>,
    timers: Vec<(u64, VTime)>,
}

/// Shared-state probe: the test keeps a handle to inspect after the run.
struct SharedProbe(std::rc::Rc<std::cell::RefCell<Probe>>);

impl Node for SharedProbe {
    fn on_message(&mut self, ctx: &mut NodeCtx<'_>, from: ProcessId, bytes: Bytes) {
        self.0.borrow_mut().received.push((from, bytes, ctx.now()));
    }
    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _timer: TimerId, tag: u64) {
        self.0.borrow_mut().timers.push((tag, ctx.now()));
    }
    fn on_request(&mut self, _: &mut NodeCtx<'_>, _: AppRequest) -> Admission {
        Admission::Blocked
    }
}

/// A node that broadcasts `count` messages of `size` bytes at start.
struct Flooder {
    count: usize,
    size: usize,
}

impl Node for Flooder {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        if ctx.pid() == ProcessId(0) {
            for _ in 0..self.count {
                let payload = Bytes::from(vec![0u8; self.size]);
                ctx.broadcast(names::FLOOD_MSG, payload);
            }
        }
    }
    fn on_message(&mut self, _: &mut NodeCtx<'_>, _: ProcessId, _: Bytes) {}
    fn on_request(&mut self, _: &mut NodeCtx<'_>, _: AppRequest) -> Admission {
        Admission::Blocked
    }
}

struct Sender {
    dst: ProcessId,
    payloads: Vec<Bytes>,
}

impl Node for Sender {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        for p in self.payloads.drain(..) {
            ctx.send(self.dst, names::TEST_MSG, p);
        }
    }
    fn on_message(&mut self, _: &mut NodeCtx<'_>, _: ProcessId, _: Bytes) {}
    fn on_request(&mut self, _: &mut NodeCtx<'_>, _: AppRequest) -> Admission {
        Admission::Blocked
    }
}

#[test]
fn message_delivery_includes_nic_and_propagation() {
    // Free CPU, known bandwidth/propagation: arrival time is predictable.
    let mut cfg = ClusterConfig::new(2, 1);
    cfg.cost = CostModel::free();
    cfg.net = NetModel {
        bandwidth_bytes_per_sec: 1_000_000, // 1 µs per byte
        prop_delay: VDur::micros(100),
        jitter: VDur::ZERO,
        per_msg_overhead: 0,
    };
    let shared = std::rc::Rc::new(std::cell::RefCell::new(Probe::default()));
    let nodes: Vec<Box<dyn Node>> = vec![
        Box::new(Sender {
            dst: ProcessId(1),
            payloads: vec![Bytes::from(vec![7u8; 500])],
        }),
        Box::new(SharedProbe(shared.clone())),
    ];
    let mut cluster = Cluster::new(cfg, nodes);
    cluster.run_idle(VTime::ZERO + VDur::secs(1));
    let probe = shared.borrow();
    assert_eq!(probe.received.len(), 1);
    let (_, ref bytes, at) = probe.received[0];
    assert_eq!(bytes.len(), 500);
    // tx 500 µs + prop 100 µs = 600 µs.
    assert_eq!(at, VTime::ZERO + VDur::micros(600));
}

#[test]
fn nic_serializes_broadcast_fanout() {
    // Two messages to two receivers through a 1 µs/byte NIC: the last
    // transmission completes at 4 × 100 µs.
    let mut cfg = ClusterConfig::new(3, 1);
    cfg.cost = CostModel::free();
    cfg.net = NetModel {
        bandwidth_bytes_per_sec: 1_000_000,
        prop_delay: VDur::ZERO,
        jitter: VDur::ZERO,
        per_msg_overhead: 0,
    };
    let shared = std::rc::Rc::new(std::cell::RefCell::new(Probe::default()));
    let nodes: Vec<Box<dyn Node>> = vec![
        Box::new(Flooder {
            count: 2,
            size: 100,
        }),
        Box::new(SharedProbe(shared.clone())),
        Box::new(SharedProbe(shared.clone())),
    ];
    let mut cluster = Cluster::new(cfg, nodes);
    cluster.run_idle(VTime::ZERO + VDur::secs(1));
    let probe = shared.borrow();
    assert_eq!(probe.received.len(), 4);
    let last = probe.received.iter().map(|&(_, _, t)| t).max().unwrap();
    assert_eq!(last, VTime::ZERO + VDur::micros(400));
}

#[test]
fn receive_cpu_cost_serializes_handlers() {
    // Free network, 10 µs receive cost: 5 messages occupy the receiver's
    // CPU for 50 µs total, handled back-to-back.
    let mut cfg = ClusterConfig::instant(2, 1);
    cfg.cost.recv_fixed = VDur::micros(10);
    let shared = std::rc::Rc::new(std::cell::RefCell::new(Probe::default()));
    let nodes: Vec<Box<dyn Node>> = vec![
        Box::new(Sender {
            dst: ProcessId(1),
            payloads: (0..5).map(|_| Bytes::from_static(b"x")).collect(),
        }),
        Box::new(SharedProbe(shared.clone())),
    ];
    let mut cluster = Cluster::new(cfg, nodes);
    cluster.run_idle(VTime::ZERO + VDur::secs(1));
    let probe = shared.borrow();
    assert_eq!(probe.received.len(), 5);
    // Handler completion times are 10, 20, 30, 40, 50 µs.
    let times: Vec<u64> = probe
        .received
        .iter()
        .map(|&(_, _, t)| t.as_nanos())
        .collect();
    assert_eq!(times, vec![10_000, 20_000, 30_000, 40_000, 50_000]);
    assert_eq!(cluster.cpu_busy(ProcessId(1)), VDur::micros(50));
}

#[test]
fn timers_fire_and_cancel() {
    struct TimerNode;
    impl Node for TimerNode {
        fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
            ctx.set_timer(VDur::millis(1), 1);
            let t2 = ctx.set_timer(VDur::millis(2), 2);
            ctx.set_timer(VDur::millis(3), 3);
            ctx.cancel_timer(t2);
        }
        fn on_message(&mut self, _: &mut NodeCtx<'_>, _: ProcessId, _: Bytes) {}
        fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _t: TimerId, tag: u64) {
            ctx.bump(
                match tag {
                    1 => names::FIRED_1,
                    2 => names::FIRED_2,
                    _ => names::FIRED_3,
                },
                1,
            );
        }
        fn on_request(&mut self, _: &mut NodeCtx<'_>, _: AppRequest) -> Admission {
            Admission::Blocked
        }
    }
    let cfg = ClusterConfig::instant(1, 1);
    let mut cluster = Cluster::new(cfg, vec![Box::new(TimerNode)]);
    cluster.run_idle(VTime::ZERO + VDur::secs(1));
    assert_eq!(cluster.counters().event("fired.1"), 1);
    assert_eq!(
        cluster.counters().event("fired.2"),
        0,
        "cancelled timer fired"
    );
    assert_eq!(cluster.counters().event("fired.3"), 1);
}

#[test]
fn crash_stops_handlers_and_timers() {
    let mut cfg = ClusterConfig::instant(2, 1);
    cfg.net.prop_delay = VDur::millis(10);
    let shared = std::rc::Rc::new(std::cell::RefCell::new(Probe::default()));
    let nodes: Vec<Box<dyn Node>> = vec![
        Box::new(Sender {
            dst: ProcessId(1),
            payloads: vec![Bytes::from_static(b"late")],
        }),
        Box::new(SharedProbe(shared.clone())),
    ];
    let mut cluster = Cluster::new(cfg, nodes);
    // Receiver crashes at 5 ms; the message arrives at 10 ms → dropped.
    cluster.schedule_crash(ProcessId(1), VTime::ZERO + VDur::millis(5));
    cluster.run_idle(VTime::ZERO + VDur::secs(1));
    assert!(shared.borrow().received.is_empty());
    assert!(!cluster.alive(ProcessId(1)));
    assert_eq!(cluster.counters().event("cluster.crashes"), 1);
}

#[test]
fn crash_mid_transmission_partitions_recipients() {
    // p1 broadcasts one large message to p2 and p3 through a slow NIC.
    // The copy to p2 finishes transmitting at 100 µs, the copy to p3 at
    // 200 µs. Crashing p1 at 150 µs must deliver to p2 but not p3 —
    // the paper's "crash while rbcasting" scenario.
    let mut cfg = ClusterConfig::new(3, 1);
    cfg.cost = CostModel::free();
    cfg.net = NetModel {
        bandwidth_bytes_per_sec: 1_000_000,
        prop_delay: VDur::ZERO,
        jitter: VDur::ZERO,
        per_msg_overhead: 0,
    };
    let shared = std::rc::Rc::new(std::cell::RefCell::new(Probe::default()));
    let nodes: Vec<Box<dyn Node>> = vec![
        Box::new(Flooder {
            count: 1,
            size: 100,
        }),
        Box::new(SharedProbe(shared.clone())),
        Box::new(SharedProbe(shared.clone())),
    ];
    let mut cluster = Cluster::new(cfg, nodes);
    cluster.schedule_crash(ProcessId(0), VTime::ZERO + VDur::micros(150));
    cluster.run_idle(VTime::ZERO + VDur::secs(1));
    let probe = shared.borrow();
    assert_eq!(
        probe.received.len(),
        1,
        "exactly one recipient should get the message"
    );
}

#[test]
fn ticks_and_submissions_flow_through_harness() {
    struct Accepting;
    impl Node for Accepting {
        fn on_message(&mut self, _: &mut NodeCtx<'_>, _: ProcessId, _: Bytes) {}
        fn on_request(&mut self, ctx: &mut NodeCtx<'_>, req: AppRequest) -> Admission {
            let AppRequest::Abcast(m) = req;
            ctx.deliver(m.id, m.payload.len() as u32);
            Admission::Accepted
        }
    }
    struct Driver {
        ticks: Vec<u64>,
        deliveries: Vec<(ProcessId, Delivery)>,
    }
    impl Harness for Driver {
        fn on_tick(&mut self, api: &mut ClusterApi<'_>, tick: u64, _at: VTime) {
            self.ticks.push(tick);
            let msg = fortika_net::AppMsg::new(
                fortika_net::MsgId::new(ProcessId(0), tick),
                Bytes::from_static(b"payload"),
            );
            let (adm, _t) = api.submit(ProcessId(0), AppRequest::Abcast(msg));
            assert_eq!(adm, Admission::Accepted);
        }
        fn on_delivery(&mut self, _: &mut ClusterApi<'_>, pid: ProcessId, d: Delivery, _: VTime) {
            self.deliveries.push((pid, d));
        }
    }
    let cfg = ClusterConfig::instant(1, 1);
    let mut cluster = Cluster::new(cfg, vec![Box::new(Accepting)]);
    cluster.schedule_tick(VTime::ZERO + VDur::millis(1), 0);
    cluster.schedule_tick(VTime::ZERO + VDur::millis(2), 1);
    let mut driver = Driver {
        ticks: vec![],
        deliveries: vec![],
    };
    cluster.run_until(VTime::ZERO + VDur::secs(1), &mut driver);
    assert_eq!(driver.ticks, vec![0, 1]);
    assert_eq!(driver.deliveries.len(), 2);
}

#[test]
fn counters_track_wire_bytes_with_overhead() {
    let mut cfg = ClusterConfig::instant(2, 1);
    cfg.net.per_msg_overhead = 60;
    let nodes: Vec<Box<dyn Node>> = vec![
        Box::new(Sender {
            dst: ProcessId(1),
            payloads: vec![Bytes::from(vec![0u8; 1000])],
        }),
        Box::new(Sender {
            dst: ProcessId(0),
            payloads: vec![],
        }),
    ];
    let mut cluster = Cluster::new(cfg, nodes);
    cluster.run_idle(VTime::ZERO + VDur::secs(1));
    let k = cluster.counters().kind("test.msg");
    assert_eq!(k.msgs, 1);
    assert_eq!(k.bytes, 1060);
}

#[test]
fn identical_seeds_reproduce_identical_timings() {
    let run = |seed: u64| -> Vec<(ProcessId, VTime)> {
        let mut cfg = ClusterConfig::new(3, seed);
        cfg.net.jitter = VDur::micros(50); // jitter makes RNG matter
        let shared = std::rc::Rc::new(std::cell::RefCell::new(Probe::default()));
        let nodes: Vec<Box<dyn Node>> = vec![
            Box::new(Flooder {
                count: 10,
                size: 64,
            }),
            Box::new(SharedProbe(shared.clone())),
            Box::new(SharedProbe(shared.clone())),
        ];
        let mut cluster = Cluster::new(cfg, nodes);
        cluster.run_idle(VTime::ZERO + VDur::secs(1));
        let out = shared
            .borrow()
            .received
            .iter()
            .map(|&(f, _, t)| (f, t))
            .collect();
        out
    };
    assert_eq!(run(7), run(7), "same seed must reproduce the run");
    assert_ne!(run(7), run(8), "different seed should change jitter");
}

/// A node that, at (re)start, greets its peer with its incarnation
/// number and bumps a persisted start counter; long-armed timers send a
/// "late" marker if they survive into a later incarnation.
struct Reborn;

const STARTS_KEY: u64 = 7;

impl Node for Reborn {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        let inc = ctx.incarnation() as u8;
        if ctx.pid() == ProcessId(0) {
            ctx.send(ProcessId(1), names::REBORN_HELLO, Bytes::from(vec![inc]));
            // Long timer: fires only if the incarnation survives 300 ms.
            ctx.set_timer(VDur::millis(300), 1);
            ctx.persist(STARTS_KEY, Bytes::from(vec![inc + 1]));
        }
    }
    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _timer: TimerId, _tag: u64) {
        let inc = ctx.incarnation() as u8;
        ctx.send(ProcessId(1), names::REBORN_TIMER, Bytes::from(vec![inc]));
    }
    fn on_message(&mut self, _: &mut NodeCtx<'_>, _: ProcessId, _: Bytes) {}
    fn on_request(&mut self, _: &mut NodeCtx<'_>, _: AppRequest) -> Admission {
        Admission::Blocked
    }
}

#[test]
fn restart_revives_with_fresh_incarnation_and_stable_store() {
    let cfg = ClusterConfig::new(2, 1);
    let shared = std::rc::Rc::new(std::cell::RefCell::new(Probe::default()));
    let nodes: Vec<Box<dyn Node>> = vec![Box::new(Reborn), Box::new(SharedProbe(shared.clone()))];
    let mut cluster = Cluster::new(cfg, nodes);
    cluster.set_node_factory(Box::new(|_, _, _| Box::new(Reborn)));
    // Crash at 100 ms (before the 300 ms timer), restart at 200 ms.
    cluster.schedule_crash(ProcessId(0), VTime::ZERO + VDur::millis(100));
    cluster.schedule_restart(ProcessId(0), VTime::ZERO + VDur::millis(200));

    struct RestartTap(Vec<(ProcessId, VTime)>);
    impl Harness for RestartTap {
        fn on_restart(&mut self, _: &mut ClusterApi<'_>, pid: ProcessId, at: VTime) {
            self.0.push((pid, at));
        }
    }
    let mut tap = RestartTap(Vec::new());
    cluster.run_until(VTime::ZERO + VDur::secs(1), &mut tap);

    assert!(cluster.alive(ProcessId(0)));
    assert_eq!(cluster.incarnation(ProcessId(0)), 1);
    assert_eq!(cluster.counters().event("cluster.restarts"), 1);
    assert_eq!(tap.0, vec![(ProcessId(0), VTime::ZERO + VDur::millis(200))]);
    // The stable store survived the crash and was rewritten by the new
    // incarnation (start counter: 0 -> 1 -> 2).
    assert_eq!(
        cluster
            .stable(ProcessId(0))
            .get(&STARTS_KEY)
            .unwrap()
            .to_bytes()
            .as_ref(),
        &[2u8]
    );

    let probe = shared.borrow();
    // Two greetings: incarnation 0 at t=0 and incarnation 1 at restart.
    let hellos: Vec<u8> = probe
        .received
        .iter()
        .filter(|(_, b, _)| b.len() == 1)
        .map(|(_, b, _)| b[0])
        .collect();
    assert!(hellos.starts_with(&[0, 1]), "greetings: {hellos:?}");
    // The pre-crash incarnation's 300 ms timer must NOT have fired into
    // the revived node — only the new incarnation's own timer runs.
    assert_eq!(cluster.counters().kind("reborn.timer").msgs, 1);
    let timer_incs: Vec<u8> = hellos.into_iter().skip(2).collect();
    assert_eq!(timer_incs, vec![1], "only the incarnation-1 timer fires");
}

#[test]
fn stale_incarnation_messages_are_fenced_at_delivery() {
    // Slow propagation: a message sent by incarnation 0 is still in
    // flight when the sender crashes and is revived; the wire-level
    // incarnation stamp must fence it at the receiver.
    let mut cfg = ClusterConfig::new(2, 1);
    cfg.cost = CostModel::free();
    cfg.net = NetModel {
        bandwidth_bytes_per_sec: u64::MAX / 2,
        prop_delay: VDur::millis(500),
        jitter: VDur::ZERO,
        per_msg_overhead: 0,
    };
    let shared = std::rc::Rc::new(std::cell::RefCell::new(Probe::default()));
    let nodes: Vec<Box<dyn Node>> = vec![
        Box::new(Sender {
            dst: ProcessId(1),
            payloads: vec![Bytes::from_static(b"stale")],
        }),
        Box::new(SharedProbe(shared.clone())),
    ];
    let mut cluster = Cluster::new(cfg, nodes);
    cluster.set_node_factory(Box::new(|_, _, _| {
        Box::new(Sender {
            dst: ProcessId(1),
            payloads: vec![],
        })
    }));
    // Fully transmitted before the crash (instant NIC), crash at 100 ms,
    // revival at 200 ms — the delivery at 500 ms is cross-incarnation.
    cluster.schedule_crash(ProcessId(0), VTime::ZERO + VDur::millis(100));
    cluster.schedule_restart(ProcessId(0), VTime::ZERO + VDur::millis(200));
    cluster.run_idle(VTime::ZERO + VDur::secs(1));
    assert!(shared.borrow().received.is_empty(), "stale msg delivered");
    assert_eq!(
        cluster.counters().event("chaos.dropped_stale_incarnation"),
        1
    );
}

#[test]
fn durability_time_is_tracked_and_folded_into_cpu_busy() {
    // Regression for the utilization-accounting gap: stable writes are
    // CPU time (they extend cpu_busy) *and* are broken out separately
    // in durability_busy so sweeps can attribute them.
    struct Persister;
    impl Node for Persister {
        fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
            for key in 0..5u64 {
                ctx.persist(key, Bytes::from_static(b"v"));
            }
            ctx.unpersist(0..1);
        }
        fn on_message(&mut self, _: &mut NodeCtx<'_>, _: ProcessId, _: Bytes) {}
        fn on_request(&mut self, _: &mut NodeCtx<'_>, _: AppRequest) -> Admission {
            Admission::Blocked
        }
    }
    let mut cfg = ClusterConfig::instant(1, 1);
    cfg.cost.stable_write = VDur::micros(200);
    let mut cluster = Cluster::new(cfg, vec![Box::new(Persister)]);
    cluster.run_idle(VTime::ZERO + VDur::millis(1));
    // 5 persists + 1 unpersist (tombstone) at 200 µs each.
    let p0 = ProcessId(0);
    assert_eq!(cluster.durability_busy(p0), VDur::micros(1200));
    assert_eq!(cluster.cpu_busy(p0), VDur::micros(1200));
    // A slow-node window stretches durability work like any CPU work.
    let mut cfg = ClusterConfig::instant(1, 1);
    cfg.cost.stable_write = VDur::micros(200);
    let mut slow = Cluster::new(cfg, vec![Box::new(Persister)]);
    slow.apply_slowdown(p0, 3000);
    slow.run_idle(VTime::ZERO + VDur::millis(1));
    assert_eq!(slow.durability_busy(p0), VDur::micros(3600));
}

#[test]
fn a_range_delete_lands_in_call_order_and_costs_one_stable_write() {
    // One handler writes keys 10..20, a value record over key 13, range-
    // deletes 12..17, writes 14 again, value records over 18 and at 20,
    // and range-deletes a range holding nothing. A revived incarnation
    // writes nothing.
    struct RangeWriter(VoteRecord);
    impl Node for RangeWriter {
        fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
            if ctx.incarnation() > 0 {
                return;
            }
            for key in 10..20u64 {
                ctx.persist(key, Bytes::from(vec![key as u8]));
            }
            ctx.persist(13, StableRecord::value(13u64));
            ctx.unpersist(12..17);
            ctx.persist(14, Bytes::from_static(b"again"));
            ctx.persist(18, StableRecord::value(18u64 << 40));
            ctx.persist(20, StableRecord::value(self.0.clone()));
            ctx.unpersist(30..40);
        }
        fn on_message(&mut self, _: &mut NodeCtx<'_>, _: ProcessId, _: Bytes) {}
        fn on_request(&mut self, _: &mut NodeCtx<'_>, _: AppRequest) -> Admission {
            Admission::Blocked
        }
    }
    let payload = Bytes::from(vec![0x5A; SHARE_MIN]);
    let vote = VoteRecord {
        round: 2,
        ts: 3,
        value: Batch::normalize(vec![AppMsg::new(MsgId::new(ProcessId(1), 4), payload)]),
    };
    // Every record part for part, so a value record must be the very
    // gather list an encode at write time would have made.
    type Contents = Vec<(u64, Vec<Bytes>)>;
    let contents = |store: &fortika_net::StableStore| -> Contents {
        store
            .iter()
            .map(|(k, v)| (*k, v.parts().to_vec()))
            .collect()
    };
    let mut cfg = ClusterConfig::instant(1, 1);
    cfg.cost.stable_write = VDur::micros(100);
    let first = RangeWriter(vote.clone());
    let mut cluster = Cluster::new(cfg, vec![Box::new(first)]);
    let handed = std::rc::Rc::new(std::cell::RefCell::new(None::<Contents>));
    let handed_to_factory = handed.clone();
    let revived = vote.clone();
    cluster.set_node_factory(Box::new(move |_, _, stable| {
        *handed_to_factory.borrow_mut() = Some(contents(stable));
        Box::new(RangeWriter(revived.clone()))
    }));
    let p0 = ProcessId(0);
    cluster.run_idle(VTime::ZERO + VDur::millis(5));

    let raw = |k: u64| (k, vec![Bytes::from(vec![k as u8])]);
    let watermark = Stored::encode_with(|w| (18u64 << 40).encode(w))
        .parts()
        .to_vec();
    let record = Stored::encode_with(|w| vote.encode(w)).parts().to_vec();
    // The framing, then the payload by reference: the record ends with it.
    assert_eq!(record.len(), 2);
    let expected = vec![
        raw(10),
        raw(11),
        (14, vec![Bytes::from_static(b"again")]),
        raw(17),
        (18, watermark),
        raw(19),
        (20, record),
    ];
    assert_eq!(contents(&cluster.stable(p0)), expected);
    // Fourteen puts and two range deletes, each one stable write.
    assert_eq!(cluster.durability_busy(p0), VDur::micros(1600));

    cluster.schedule_crash(p0, VTime::ZERO + VDur::millis(10));
    cluster.schedule_restart(p0, VTime::ZERO + VDur::millis(20));
    cluster.run_idle(VTime::ZERO + VDur::millis(30));
    assert_eq!(cluster.incarnation(p0), 1);
    assert_eq!(handed.borrow().as_ref(), Some(&expected));
    assert_eq!(contents(&cluster.stable(p0)), expected);
}

/// Process 0 sends a frame of three parts around `payload` to process 1
/// on start, keeping nothing. Every process records, per handler, how
/// many bytes its context's reader holds beyond the handler's own
/// argument: the tail of the frame in `on_message`, nothing anywhere
/// else.
struct TailProbe {
    payload: Option<Bytes>,
    seen: Seen,
}

/// `(process, handler, bytes held beyond the handler's argument)` per
/// handler call, in order.
type Seen = std::rc::Rc<std::cell::RefCell<Vec<(ProcessId, &'static str, usize)>>>;

impl TailProbe {
    fn note(&self, ctx: &NodeCtx<'_>, handler: &'static str) {
        let beyond = ctx.reader(Bytes::new()).remaining();
        self.seen.borrow_mut().push((ctx.pid(), handler, beyond));
    }
}

impl Node for TailProbe {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        self.note(ctx, "on_start");
        if let Some(payload) = self.payload.take() {
            let frame = Stored::encode_with(|w| {
                w.put(&payload);
                w.put_u8(1);
            });
            ctx.send(ProcessId(1), names::TEST_CHAINED, frame);
        }
        if ctx.pid() == ProcessId(2) {
            ctx.set_timer(VDur::millis(20), 0);
        }
    }
    fn on_message(&mut self, ctx: &mut NodeCtx<'_>, _: ProcessId, _: Bytes) {
        self.note(ctx, "on_message");
    }
    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _: TimerId, _: u64) {
        self.note(ctx, "on_timer");
    }
    fn on_request(&mut self, ctx: &mut NodeCtx<'_>, _: AppRequest) -> Admission {
        self.note(ctx, "on_request");
        Admission::Blocked
    }
}

/// Three [`TailProbe`]s over a 10 ms link — behind a NIC that takes 4 ms
/// over the frame if `slow_nic`, no time otherwise — and what they
/// recorded.
fn tail_probes(payload: &Bytes, slow_nic: bool) -> (Cluster, Seen) {
    let seen = Seen::default();
    let probe = |payload| {
        let seen = seen.clone();
        Box::new(TailProbe { payload, seen }) as Box<dyn Node>
    };
    let mut cfg = ClusterConfig::instant(3, 1);
    cfg.net.prop_delay = VDur::millis(10);
    if slow_nic {
        cfg.net.bandwidth_bytes_per_sec = 1_000_000;
    }
    let nodes = vec![probe(Some(payload.clone())), probe(None), probe(None)];
    (Cluster::new(cfg, nodes), seen)
}

#[test]
fn a_chained_frame_reaches_its_handler_and_no_other() {
    let payload = Bytes::from(vec![3u8; SHARE_MIN]);
    let (mut cluster, seen) = tail_probes(&payload, false);
    cluster.run_idle(VTime::ZERO + VDur::millis(30));
    let request = AppRequest::Abcast(AppMsg::new(MsgId::new(ProcessId(1), 0), Bytes::new()));
    cluster.submit(ProcessId(1), request);
    let seen = seen.borrow();
    let calls: Vec<_> = seen.iter().filter(|c| c.1 != "on_start").collect();
    assert_eq!(
        calls,
        [
            // Behind the first part (the length prefix): payload, trailer.
            &(ProcessId(1), "on_message", SHARE_MIN + 1),
            &(ProcessId(2), "on_timer", 0),
            &(ProcessId(1), "on_request", 0),
        ]
    );
    assert!(seen.iter().all(|c| c.1 != "on_start" || c.2 == 0));
    assert!(payload.is_unique(), "a delivered frame is let go of");
}

#[test]
fn a_chained_frame_to_a_crashed_process_is_dropped_whole() {
    // The receiver crashes while the frame is in flight: no handler runs
    // for it, and the timer and the request that follow elsewhere find
    // nothing of it in their contexts.
    let payload = Bytes::from(vec![3u8; SHARE_MIN]);
    let (mut cluster, seen) = tail_probes(&payload, false);
    cluster.schedule_crash(ProcessId(1), VTime::ZERO + VDur::millis(5));
    cluster.run_idle(VTime::ZERO + VDur::millis(30));
    assert!(payload.is_unique(), "the dead process's frame is let go of");
    let request = AppRequest::Abcast(AppMsg::new(MsgId::new(ProcessId(2), 0), Bytes::new()));
    cluster.submit(ProcessId(2), request);
    let seen = seen.borrow();
    let calls: Vec<_> = seen.iter().filter(|c| c.1 != "on_start").collect();
    assert_eq!(
        calls,
        [
            &(ProcessId(2), "on_timer", 0),
            &(ProcessId(2), "on_request", 0),
        ]
    );
}

#[test]
fn chained_frames_of_a_dead_sender_are_released() {
    // As `stale_incarnation_messages_are_fenced_at_delivery` and
    // `crash_mid_transmission_partitions_recipients`, with a frame of
    // several parts: fenced at delivery either way, and let go of.
    for revive in [true, false] {
        let payload = Bytes::from(vec![3u8; SHARE_MIN]);
        let (mut cluster, seen) = tail_probes(&payload, !revive);
        if revive {
            // Sent whole at t = 0; the sender is on its next incarnation
            // when the frame arrives at 10 ms.
            cluster.set_node_factory(Box::new(|_, _, _| {
                let seen = Default::default();
                Box::new(TailProbe {
                    payload: None,
                    seen,
                })
            }));
            cluster.schedule_crash(ProcessId(0), VTime::ZERO + VDur::millis(2));
            cluster.schedule_restart(ProcessId(0), VTime::ZERO + VDur::millis(4));
        } else {
            // The sender dies half-way through the transmission its NIC
            // needs (a byte per microsecond).
            let half = VDur::micros(SHARE_MIN as u64 / 2);
            cluster.schedule_crash(ProcessId(0), VTime::ZERO + half);
        }
        cluster.run_idle(VTime::ZERO + VDur::millis(30));
        assert!(seen.borrow().iter().all(|c| c.1 != "on_message"));
        let stale = cluster.counters().event("chaos.dropped_stale_incarnation");
        assert_eq!(stale, u64::from(revive));
        assert!(payload.is_unique(), "revive={revive}: frame not released");
    }
}

/// What one handler read off the transport clock: the process, the
/// handler, the peer's last arrival, the last send to the peer, and the
/// handler's current instant.
type ClockReading = (ProcessId, &'static str, Option<VTime>, Option<VTime>, VTime);

/// p0 pings p1 at start and p1 answers; both read the clock about the
/// other process on every handler.
struct ClockProbe(std::rc::Rc<std::cell::RefCell<Vec<ClockReading>>>);

impl ClockProbe {
    fn read(&self, ctx: &NodeCtx<'_>, handler: &'static str) {
        let peer = ProcessId(1 - ctx.pid().0);
        self.0.borrow_mut().push((
            ctx.pid(),
            handler,
            ctx.last_arrival_from(peer),
            ctx.last_send_to(peer),
            ctx.now(),
        ));
    }
}

impl Node for ClockProbe {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        self.read(ctx, "start");
        if ctx.pid() == ProcessId(0) {
            ctx.send(ProcessId(1), names::TEST_MSG, Bytes::from_static(b"ping"));
            ctx.set_timer(VDur::millis(10), 1);
        }
    }
    fn on_message(&mut self, ctx: &mut NodeCtx<'_>, from: ProcessId, _: Bytes) {
        self.read(ctx, "message");
        if ctx.pid() == ProcessId(1) {
            ctx.send(from, names::TEST_MSG, Bytes::from_static(b"pong"));
        }
    }
    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _timer: TimerId, _tag: u64) {
        self.read(ctx, "timer");
    }
    fn on_request(&mut self, _: &mut NodeCtx<'_>, _: AppRequest) -> Admission {
        Admission::Blocked
    }
}

#[test]
fn the_transport_clock_records_arrivals_and_sends_and_a_restart_clears_it() {
    let log = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
    let nodes: Vec<Box<dyn Node>> = (0..2)
        .map(|_| Box::new(ClockProbe(log.clone())) as Box<dyn Node>)
        .collect();
    let mut cluster = Cluster::new(ClusterConfig::new(2, 1), nodes);
    let factory_log = log.clone();
    cluster.set_node_factory(Box::new(move |_, _, _| {
        Box::new(ClockProbe(factory_log.clone()))
    }));
    cluster.schedule_crash(ProcessId(0), VTime::ZERO + VDur::millis(20));
    cluster.schedule_restart(ProcessId(0), VTime::ZERO + VDur::millis(30));
    cluster.run_idle(VTime::ZERO + VDur::millis(50));

    let log = log.borrow();
    let (p0, p1) = (ProcessId(0), ProcessId(1));
    let reading = |pid, handler, nth| {
        *log.iter()
            .filter(|r| r.0 == pid && r.1 == handler)
            .nth(nth)
            .unwrap_or_else(|| panic!("no {handler} #{nth} at {pid}"))
    };
    // p1 sees the ping's arrival, no later than its handler runs, and
    // has sent p0 nothing yet: its answer leaves when the handler ends.
    let (_, _, heard, sent, now) = reading(p1, "message", 0);
    assert!(heard.is_some_and(|at| at <= now), "{heard:?} at {now}");
    assert_eq!(sent, None);
    // p0's timer sees the ping it sent at start and the pong after it.
    let (_, _, heard, sent, _) = reading(p0, "timer", 0);
    let (sent, heard) = (sent.expect("ping sent"), heard.expect("pong heard"));
    assert!(sent < heard, "ping at {sent}, pong at {heard}");
    // The revived p0 starts with a clean clock, like fresh sockets.
    let (_, _, heard, sent, now) = reading(p0, "start", 1);
    assert!(now >= VTime::ZERO + VDur::millis(30));
    assert_eq!((heard, sent), (None, None));
    // And its new ping and pong are recorded again.
    let (_, _, heard, sent, _) = reading(p0, "timer", 1);
    assert!(sent.is_some_and(|t| t >= VTime::ZERO + VDur::millis(30)));
    assert!(heard.is_some_and(|t| t > sent.unwrap()));
}

/// p0 sends p1 one message at each instant of `SENDS` (ms), off its
/// timers.
struct Pinger;

const SENDS: [u64; 6] = [0, 10, 40, 45, 210, 215];

impl Node for Pinger {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        if ctx.pid() == ProcessId(0) && ctx.incarnation() == 0 {
            for at in SENDS {
                ctx.set_timer(VDur::millis(at), at);
            }
        }
    }
    fn on_message(&mut self, _: &mut NodeCtx<'_>, _: ProcessId, _: Bytes) {}
    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _timer: TimerId, _tag: u64) {
        ctx.send(ProcessId(1), names::TEST_MSG, Bytes::from_static(b"ping"));
    }
    fn on_request(&mut self, _: &mut NodeCtx<'_>, _: AppRequest) -> Admission {
        Admission::Blocked
    }
}

#[test]
fn the_longest_silence_is_the_longest_gap_between_arrivals_while_the_receiver_is_up() {
    let nodes: Vec<Box<dyn Node>> = vec![Box::new(Pinger), Box::new(Pinger)];
    let mut cluster = Cluster::new(ClusterConfig::instant(2, 1), nodes);
    cluster.set_node_factory(Box::new(|_, _, _| Box::new(Pinger)));
    // p1 is down from 50 to 200 ms: the 165 ms from the arrival at 45 ms
    // to the one at 210 ms is an outage of the receiver, not a silence
    // its detector waited out.
    cluster.schedule_crash(ProcessId(1), VTime::ZERO + VDur::millis(50));
    cluster.schedule_restart(ProcessId(1), VTime::ZERO + VDur::millis(200));
    let (p0, p1) = (ProcessId(0), ProcessId(1));
    cluster.run_idle(VTime::ZERO + VDur::millis(30));
    assert_eq!(cluster.longest_silence(p0, p1), VDur::millis(10));
    cluster.run_idle(VTime::ZERO + VDur::millis(300));
    assert_eq!(cluster.longest_silence(p0, p1), VDur::millis(30));
    assert_eq!(cluster.longest_silence(p1, p0), VDur::ZERO, "nothing sent");
}
