//! Reliable broadcast properties: agreement, integrity, message counts,
//! crash tolerance.

use bytes::Bytes;
use fortika_framework::{CompositeStack, Event, EventKind, FrameworkCtx, Microprotocol, ModuleId};
use fortika_net::{Cluster, ClusterConfig, CostModel, NetModel, Node, ProcessId};
use fortika_rbcast::RbcastModule;
use fortika_sim::{VDur, VTime};

/// Test driver module sitting above rbcast: requests broadcasts at start
/// and logs deliveries into shared state.
struct Driver {
    /// Payloads to rbcast at start (on this process).
    to_send: Vec<Bytes>,
    delivered: std::rc::Rc<std::cell::RefCell<Vec<(ProcessId, ProcessId, Bytes)>>>,
}

impl Microprotocol for Driver {
    fn name(&self) -> &'static str {
        "driver"
    }
    fn module_id(&self) -> ModuleId {
        80
    }
    fn subscriptions(&self) -> &'static [EventKind] {
        &[EventKind::RbDeliver]
    }
    fn on_start(&mut self, ctx: &mut FrameworkCtx<'_, '_>) {
        for payload in self.to_send.drain(..) {
            ctx.raise(Event::Rbcast { stream: 0, payload });
        }
    }
    fn on_event(&mut self, ctx: &mut FrameworkCtx<'_, '_>, ev: &Event) {
        if let Event::RbDeliver {
            origin, payload, ..
        } = ev
        {
            self.delivered
                .borrow_mut()
                .push((ctx.pid(), *origin, payload.clone()));
        }
    }
}

type DeliveryLog = std::rc::Rc<std::cell::RefCell<Vec<(ProcessId, ProcessId, Bytes)>>>;

fn build(n: usize, sends: Vec<(usize, Bytes)>, cfg: ClusterConfig) -> (Cluster, DeliveryLog) {
    let log: DeliveryLog = Default::default();
    let nodes: Vec<Box<dyn Node>> = (0..n)
        .map(|i| {
            let to_send: Vec<Bytes> = sends
                .iter()
                .filter(|(p, _)| *p == i)
                .map(|(_, b)| b.clone())
                .collect();
            Box::new(CompositeStack::new(vec![
                Box::new(Driver {
                    to_send,
                    delivered: log.clone(),
                }),
                Box::new(RbcastModule::new()),
            ])) as Box<dyn Node>
        })
        .collect();
    (Cluster::new(cfg, nodes), log)
}

fn deliveries_at(log: &DeliveryLog, p: ProcessId) -> Vec<Bytes> {
    log.borrow()
        .iter()
        .filter(|(at, _, _)| *at == p)
        .map(|(_, _, b)| b.clone())
        .collect()
}

#[test]
fn everyone_delivers_exactly_once_majority() {
    let n = 5;
    let sends = vec![(0, Bytes::from_static(b"a")), (2, Bytes::from_static(b"b"))];
    let (mut cluster, log) = build(n, sends, ClusterConfig::new(5, 1));
    cluster.run_idle(VTime::ZERO + VDur::secs(2));
    for p in ProcessId::all(n) {
        let got = deliveries_at(&log, p);
        assert_eq!(got.len(), 2, "process {p} delivered {}", got.len());
    }
    // No fallback floods in a good run.
    assert_eq!(cluster.counters().event("rbcast.floods"), 0);
}

#[test]
fn good_run_message_counts_match_analytical_model() {
    // (n−1)·⌊(n+1)/2⌋
    for (n, expected) in [(3usize, 4u64), (5, 12), (7, 24)] {
        let sends = vec![(0, Bytes::from_static(b"m"))];
        let (mut cluster, _log) = build(n, sends, ClusterConfig::new(n, 1));
        cluster.run_idle(VTime::ZERO + VDur::secs(2));
        let total = cluster.counters().kind("rb.initial").msgs
            + cluster.counters().kind("rb.relay").msgs
            + cluster.counters().kind("rb.flood").msgs;
        assert_eq!(
            total, expected,
            "n={n}: expected {expected} messages, got {total}"
        );
    }
}

/// The paper's motivating failure: the origin crashes while sending
/// copies, so only some processes receive the initial message. Agreement
/// requires all correct processes to still deliver.
#[test]
fn origin_crash_mid_broadcast_still_reaches_all_correct_majority() {
    let n = 5;
    // Slow NIC so the five initial transmissions are spread over time:
    // 100-byte messages at 1 µs/byte → one copy per ~160 µs (with
    // overhead). Crash the origin so only the first copy completes.
    let mut cfg = ClusterConfig::new(n, 3);
    cfg.cost = CostModel::free();
    cfg.net = NetModel {
        bandwidth_bytes_per_sec: 1_000_000,
        prop_delay: VDur::micros(10),
        jitter: VDur::ZERO,
        per_msg_overhead: 60,
    };
    let sends = vec![(0, Bytes::from(vec![7u8; 100]))];
    let (mut cluster, log) = build(n, sends, cfg);
    cluster.schedule_crash(ProcessId(0), VTime::ZERO + VDur::micros(200));
    cluster.run_idle(VTime::ZERO + VDur::secs(2));
    for p in ProcessId::all(n).skip(1) {
        let got = deliveries_at(&log, p);
        assert_eq!(
            got.len(),
            1,
            "correct process {p} must deliver despite origin crash"
        );
    }
}

/// Crash the origin *and* every relay mid-broadcast: the fallback flood
/// must still propagate the message to all correct processes, as long as
/// a majority survives overall.
#[test]
fn relay_crashes_trigger_flood_fallback() {
    let n = 5; // relays of p1 are p2, p3; f = 2 crashes allowed
    let mut cfg = ClusterConfig::new(n, 3);
    cfg.cost = CostModel::free();
    cfg.net = NetModel {
        bandwidth_bytes_per_sec: 1_000_000,
        prop_delay: VDur::micros(10),
        jitter: VDur::ZERO,
        per_msg_overhead: 60,
    };
    let sends = vec![(0, Bytes::from(vec![7u8; 100]))];
    let (mut cluster, log) = build(n, sends, cfg);
    // Origin p1 completes its sends to p2..p5 (~640 µs), then crashes.
    cluster.schedule_crash(ProcessId(0), VTime::ZERO + VDur::millis(1));
    // Relays p2 and p3 crash before they can finish re-sending: their
    // transmissions start only after receiving (~170+ µs) — crash them
    // right away so their relayed copies are partial or absent.
    cluster.schedule_crash(ProcessId(1), VTime::ZERO + VDur::micros(200));
    cluster.schedule_crash(ProcessId(2), VTime::ZERO + VDur::micros(380));
    cluster.run_idle(VTime::ZERO + VDur::secs(2));
    // The two surviving processes p4, p5 must both deliver.
    for p in [ProcessId(3), ProcessId(4)] {
        let got = deliveries_at(&log, p);
        assert_eq!(got.len(), 1, "survivor {p} must deliver");
    }
}

#[test]
fn streams_are_demultiplexed() {
    // One module instance carries two logical streams.
    struct TwoStreams {
        counts: std::rc::Rc<std::cell::RefCell<(u32, u32)>>,
    }
    impl Microprotocol for TwoStreams {
        fn name(&self) -> &'static str {
            "two-streams"
        }
        fn module_id(&self) -> ModuleId {
            81
        }
        fn subscriptions(&self) -> &'static [EventKind] {
            &[EventKind::RbDeliver]
        }
        fn on_start(&mut self, ctx: &mut FrameworkCtx<'_, '_>) {
            if ctx.pid() == ProcessId(0) {
                ctx.raise(Event::Rbcast {
                    stream: 0,
                    payload: Bytes::from_static(b"s0"),
                });
                ctx.raise(Event::Rbcast {
                    stream: 1,
                    payload: Bytes::from_static(b"s1"),
                });
            }
        }
        fn on_event(&mut self, _ctx: &mut FrameworkCtx<'_, '_>, ev: &Event) {
            if let Event::RbDeliver { stream, .. } = ev {
                let mut c = self.counts.borrow_mut();
                match stream {
                    0 => c.0 += 1,
                    _ => c.1 += 1,
                }
            }
        }
    }
    let counts: std::rc::Rc<std::cell::RefCell<(u32, u32)>> = Default::default();
    let nodes: Vec<Box<dyn Node>> = (0..3)
        .map(|_| {
            Box::new(CompositeStack::new(vec![
                Box::new(TwoStreams {
                    counts: counts.clone(),
                }),
                Box::new(RbcastModule::new()),
            ])) as Box<dyn Node>
        })
        .collect();
    let mut cluster = Cluster::new(ClusterConfig::new(3, 1), nodes);
    cluster.run_idle(VTime::ZERO + VDur::secs(1));
    assert_eq!(*counts.borrow(), (3, 3));
}

/// The sequence counter is reserved in blocks: the origin restarts at
/// several points inside a block (and once exactly on a block end), and
/// every incarnation resumes at the reserved bound, so none reuses a
/// sequence number its predecessors burned — a reused one would be
/// swallowed by every peer's duplicate suppression — and peers deliver
/// every broadcast of every incarnation. The counter costs one stable
/// write per block: 10 000 broadcasts, at most 10 writes.
#[test]
fn a_restarted_origin_skips_the_rest_of_its_block_and_every_broadcast_arrives() {
    use fortika_rbcast::STABLE_SEQ_KEY;
    use std::cell::Cell;
    use std::rc::Rc;

    const BLOCK: u64 = fortika_net::ReservedSeq::BLOCK;
    // Broadcasts per incarnation of p0: restarts land 3, 700 and 1 023
    // numbers into a block, and right at a block's end.
    let per_incarnation: Vec<u64> = vec![3, 700, BLOCK - 1, BLOCK, 10_000];
    let n = 3;
    let mut cfg = ClusterConfig::new(n, 9);
    cfg.cost = CostModel::free();
    // Priced so that p0's durability time counts its counter writes
    // (the only stable writes rbcast makes).
    cfg.cost.stable_write = VDur::micros(1);
    let payload = |incarnation: u64, i: u64| {
        Bytes::from([incarnation.to_le_bytes(), i.to_le_bytes()].concat())
    };
    let first: Vec<(usize, Bytes)> = (0..per_incarnation[0])
        .map(|i| (0, payload(0, i)))
        .collect();
    let (mut cluster, log) = build(n, first, cfg);
    let incarnation = Rc::new(Cell::new(0u64));
    let (factory_log, factory_inc, sends) =
        (log.clone(), incarnation.clone(), per_incarnation.clone());
    cluster.set_node_factory(Box::new(move |_, _, stable| {
        let k = factory_inc.get() + 1;
        factory_inc.set(k);
        Box::new(CompositeStack::new(vec![
            Box::new(Driver {
                to_send: (0..sends[k as usize]).map(|i| payload(k, i)).collect(),
                delivered: factory_log.clone(),
            }),
            Box::new(RbcastModule::resume(stable)),
        ]))
    }));
    let mut writes_before = VDur::ZERO;
    for k in 0..per_incarnation.len() {
        let start = VTime::ZERO + VDur::secs(2 * k as u64);
        if k > 0 {
            cluster.schedule_restart(ProcessId(0), start);
        }
        cluster.run_idle(start + VDur::secs(1));
        // Everyone, p0 included, delivered exactly what this incarnation
        // broadcast.
        for p in ProcessId::all(n) {
            let got = deliveries_at(&log, p);
            let mine: Vec<&Bytes> = got
                .iter()
                .filter(|b| b[..8] == (k as u64).to_le_bytes())
                .collect();
            assert_eq!(
                mine.len() as u64,
                per_incarnation[k],
                "{p} delivered {} of incarnation {k}'s {} broadcasts",
                mine.len(),
                per_incarnation[k]
            );
        }
        // One counter write per block the incarnation entered.
        let writes = cluster.durability_busy(ProcessId(0)) - writes_before;
        writes_before = cluster.durability_busy(ProcessId(0));
        let blocks = per_incarnation[k].div_ceil(BLOCK);
        assert_eq!(writes, VDur::micros(blocks), "incarnation {k}");
        if per_incarnation[k] == 10_000 {
            assert!(writes <= VDur::micros(10));
        }
        if k + 1 < per_incarnation.len() {
            cluster.schedule_crash(ProcessId(0), start + VDur::millis(1500));
            cluster.run_idle(start + VDur::millis(1600));
        }
    }
    // Each incarnation resumed at its predecessor's bound: the bound
    // after the last one is the sum of every incarnation's whole blocks.
    let bound: u64 = per_incarnation
        .iter()
        .map(|c| c.div_ceil(BLOCK) * BLOCK)
        .sum();
    let stored = cluster.stable(ProcessId(0))[&STABLE_SEQ_KEY].decode::<u64>();
    assert_eq!(stored, Ok(bound));
    for p in ProcessId::all(n) {
        let total: u64 = per_incarnation.iter().sum();
        assert_eq!(deliveries_at(&log, p).len() as u64, total, "{p}");
    }
}
