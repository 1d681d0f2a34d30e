//! The payload byte path copies no payload: encoding a message that
//! carries 10 × 16 KiB of payload into a buffer allocates one of exactly
//! its encoded length (not a growing scratch buffer for the length, a
//! copy at `freeze` and two more for the framework's frame), and neither
//! sending it nor voting on it encodes it into a buffer at all — the
//! network frame holds the payloads the process already holds, and the
//! stable record of a voted batch is kept as the batch itself, encoded
//! only when a restarted process reads the store — so a run holds each
//! payload once.
//! Around the payloads, a handler whose output lists are warm requests
//! no heap for its sends, timers, deliveries, stable writes or counters.
//!
//! Measured with a counting global allocator, which is why this is a
//! test binary of its own. Counters are per thread, so the harness's
//! other threads do not leak into a measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};
use std::rc::Rc;

use bytes::Bytes;
use fortika::consensus::{ConsensusModule, ConsensusMsg};
use fortika::core::{build_nodes, StackConfig, StackKind};
use fortika::framework::{CompositeStack, Event, EventKind, FrameworkCtx, Microprotocol, ModuleId};
use fortika::net::metrics::consensus;
use fortika::net::replica::keys;
use fortika::net::wire::{decode, encode, Wire};
use fortika::net::{
    Admission, AppMsg, AppRequest, AppState, AppStateFactory, Batch, Cluster, ClusterConfig,
    CollectingHarness, MsgId, Node, NodeCtx, PayloadDigests, ProcessId, TimerId, VoteRecord,
};
use fortika::sim::{VDur, VTime};

thread_local! {
    /// Bytes this thread has asked the allocator for.
    static REQUESTED: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, adding up the sizes requested per thread.
struct Counting;

fn count(size: usize) {
    // A thread that is tearing down its locals is not one under test.
    let _ = REQUESTED.try_with(|b| b.set(b.get() + size as u64));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting touches one
// const-initialised thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations are exactly `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations are exactly `System.alloc_zeroed`'s.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from this allocator, which is `System`; the
        // caller's obligations are exactly `System.realloc`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Bytes this thread requested while `work` ran.
fn requested_during<T>(work: impl FnOnce() -> T) -> (u64, T) {
    let before = REQUESTED.get();
    let out = work();
    (REQUESTED.get() - before, out)
}

/// Ten 16 KiB messages from three senders, as `modular-sat-16k-n7`
/// batches them.
fn big_batch() -> Batch {
    Batch::normalize(
        (0..10u64)
            .map(|i| {
                AppMsg::new(
                    MsgId::new(ProcessId((i % 3) as u16), i / 3),
                    Bytes::from(vec![0xAB; 16 * 1024]),
                )
            })
            .collect(),
    )
}

#[test]
fn encoding_a_vote_record_allocates_one_exact_buffer() {
    let rec = VoteRecord {
        round: 2,
        ts: 1,
        value: big_batch(),
    };
    let len = rec.encoded_len();
    assert!(len > 10 * 16 * 1024);
    let (requested, bytes) = requested_during(|| encode(&rec));
    assert_eq!(bytes.len(), len);
    // The buffer, plus the reference count it is shared under.
    assert!(
        requested <= len as u64 + 64,
        "encode of {len} bytes requested {requested} bytes of heap"
    );
    assert_eq!(decode::<VoteRecord>(bytes).unwrap(), rec);
}

/// Broadcasts one prepared proposal on start and reports what the call
/// requested from the heap.
struct Proposer {
    msg: ConsensusMsg,
    requested: std::rc::Rc<Cell<u64>>,
}

impl Microprotocol for Proposer {
    fn name(&self) -> &'static str {
        "proposer"
    }
    fn module_id(&self) -> ModuleId {
        7
    }
    fn subscriptions(&self) -> &'static [EventKind] {
        &[]
    }
    fn on_start(&mut self, ctx: &mut FrameworkCtx<'_, '_>) {
        if ctx.pid() == ProcessId(0) {
            let (requested, ()) =
                requested_during(|| ctx.broadcast_net(consensus::PROPOSAL, &self.msg));
            self.requested.set(requested);
        }
    }
}

#[test]
fn broadcasting_a_big_proposal_requests_under_4_kib_of_heap() {
    let n = 7;
    let msg = ConsensusMsg::Propose {
        instance: 3,
        round: 0,
        value: big_batch(),
    };
    let framed_len = 2 + msg.encoded_len() as u64;
    let requested = std::rc::Rc::new(Cell::new(0));
    let nodes: Vec<Box<dyn Node>> = (0..n)
        .map(|_| {
            let module = Proposer {
                msg: msg.clone(),
                requested: requested.clone(),
            };
            Box::new(CompositeStack::new(vec![Box::new(module)])) as Box<dyn Node>
        })
        .collect();
    let mut cluster = Cluster::new(ClusterConfig::instant(n, 1), nodes);
    cluster.run_idle(VTime::ZERO + VDur::secs(1));
    let sent = cluster.counters().kind("consensus.proposal");
    assert_eq!(sent.msgs, n as u64 - 1);
    // The frame is a list of 21 parts — the framing (a 155-byte buffer
    // cut eleven ways) around the batch's own ten payload buffers — that
    // the n − 1 unicasts share under one reference count: 2 663 bytes as
    // measured, of which the list is 504 twice (built, then moved under
    // its count) and the rest the handler's bookkeeping (the outbox
    // vector's growth to eight entries of 48 bytes: this is the first
    // handler of the run, so the cluster's output lists are still
    // cold). 3 127 when the per-kind counters were map entries and the
    // outbox entries 8 bytes wider; a list per destination would be
    // 5 511.
    let requested = requested.get();
    assert!(
        requested <= 4 * 1024,
        "broadcast of a {framed_len}-byte frame requested {requested} bytes of heap"
    );
}

/// Starts consensus instance 3 with a prepared value on process 0, which
/// coordinates its round 0.
struct Kick {
    value: Batch,
}

const KICKED: u64 = 3;

impl Microprotocol for Kick {
    fn name(&self) -> &'static str {
        "kick"
    }
    fn module_id(&self) -> ModuleId {
        7
    }
    fn subscriptions(&self) -> &'static [EventKind] {
        &[]
    }
    fn on_start(&mut self, ctx: &mut FrameworkCtx<'_, '_>) {
        if ctx.pid() == ProcessId(0) {
            let value = self.value.clone();
            ctx.raise(Event::Propose {
                instance: KICKED,
                value,
            });
        }
    }
}

/// What each handler call of each process requested from the heap, in
/// the order the cluster made them.
type HandlerLog = Rc<RefCell<Vec<(ProcessId, &'static str, u64)>>>;

/// A stack whose every handler call is metered into a [`HandlerLog`].
struct Metered {
    inner: CompositeStack,
    log: HandlerLog,
}

impl Node for Metered {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        let (requested, ()) = requested_during(|| self.inner.on_start(ctx));
        self.log
            .borrow_mut()
            .push((ctx.pid(), "on_start", requested));
    }
    fn on_message(&mut self, ctx: &mut NodeCtx<'_>, from: ProcessId, bytes: Bytes) {
        let (requested, ()) = requested_during(|| self.inner.on_message(ctx, from, bytes));
        self.log
            .borrow_mut()
            .push((ctx.pid(), "on_message", requested));
    }
    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, timer: TimerId, tag: u64) {
        self.inner.on_timer(ctx, timer, tag);
    }
    fn on_request(&mut self, ctx: &mut NodeCtx<'_>, req: AppRequest) -> Admission {
        self.inner.on_request(ctx, req)
    }
}

/// Runs one consensus instance on `value` over `n` bare consensus
/// modules. Returns what the coordinator's proposing handler and voter
/// p1's handler of the proposal requested from the heap, and the cluster
/// (nobody relays the decision, so the voters keep their vote records).
fn propose_once(n: usize, value: &Batch) -> (u64, u64, Cluster) {
    let log = HandlerLog::default();
    let nodes: Vec<Box<dyn Node>> = (0..n)
        .map(|_| {
            let kick = Kick {
                value: value.clone(),
            };
            let inner = CompositeStack::new(vec![Box::new(ConsensusModule::new()), Box::new(kick)]);
            let log = log.clone();
            Box::new(Metered { inner, log }) as Box<dyn Node>
        })
        .collect();
    let mut cluster = Cluster::new(ClusterConfig::instant(n, 1), nodes);
    cluster.run_idle(VTime::ZERO + VDur::millis(100));
    assert_eq!(cluster.counters().event("consensus.decided"), 1);
    let log = log.borrow();
    let first = |pid: u16, handler: &str| {
        let call = log.iter().find(|c| c.0 == ProcessId(pid) && c.1 == handler);
        call.expect("handler ran").2
    };
    (first(0, "on_start"), first(1, "on_message"), cluster)
}

#[test]
fn voting_on_a_big_batch_copies_no_payload_into_the_vote_record() {
    let n = 7;
    let value = big_batch();
    let proposal = ConsensusMsg::Propose {
        instance: KICKED,
        round: 0,
        value: value.clone(),
    };
    let framed_len = 2 + proposal.encoded_len() as u64;
    let (proposing, voting, cluster) = propose_once(n, &value);

    // The voter decodes ten message headers, opens the instance, keeps
    // its record as a value and acks: nothing the size of a payload, and
    // none of the record's bytes. 2 010 bytes as measured in both
    // profiles; 4 074 when every vote encoded its record into a gather
    // list.
    assert!(
        voting <= 2 * 1024,
        "voting on a {framed_len}-byte proposal requested {voting} bytes of heap"
    );
    // The coordinator requests nothing payload-sized either: the frame
    // it broadcasts shares the payloads the batch holds, and its own
    // record is the batch. 3 519 bytes as measured in both profiles;
    // 6 663 when it encoded its record, 168 911 when the frame was a
    // copy.
    assert!(
        proposing <= 4 * 1024,
        "proposing a {framed_len}-byte frame requested {proposing} bytes of heap"
    );
    let rec = VoteRecord {
        round: 0,
        ts: 1,
        value,
    };
    for voter in 1..n as u16 {
        let stored = &cluster.stable(ProcessId(voter))[&keys::vote(KICKED)];
        assert_eq!(stored.len(), rec.encoded_len());
        // Framing, then each payload with the next message's framing.
        assert_eq!(stored.parts().len(), 2 * rec.value.len());
        assert_eq!(stored.decode::<VoteRecord>().as_ref(), Ok(&rec));
    }
}

#[test]
fn voting_on_a_small_batch_still_writes_one_exact_buffer() {
    let msgs = (0..2).map(|i| {
        let id = MsgId::new(ProcessId(i as u16), 0);
        AppMsg::new(id, Bytes::from(vec![0xCD; 256]))
    });
    let value = Batch::normalize(msgs.collect());
    let (_, voting, cluster) = propose_once(3, &value);
    let stored = &cluster.stable(ProcessId(1))[&keys::vote(KICKED)];
    assert_eq!(stored.parts().len(), 1);
    let rec = VoteRecord {
        round: 0,
        ts: 1,
        value,
    };
    assert_eq!(stored.decode::<VoteRecord>().as_ref(), Ok(&rec));
    // Below `SHARE_MIN` a record, and a frame, is the one buffer it was
    // before there was a gather list — once the store is read. The
    // handler requests none of the record's 552 bytes: 1 690 bytes of
    // decoding, instance state and the record's box, as measured in
    // both profiles (2 258 when every vote encoded its record). The
    // outbox and stable-write lists it fills are the cluster's, warm
    // from the coordinator's handler, and request nothing.
    assert!(
        voting <= 1792,
        "voting on a 2 x 256 B proposal requested {voting} bytes of heap"
    );
}

/// Folds nothing; remembers where each delivered payload lives.
struct PayloadAddresses(Rc<RefCell<Vec<(MsgId, usize)>>>);

impl AppState for PayloadAddresses {
    fn apply(&mut self, msg: &AppMsg) {
        let at = msg.payload.as_ptr() as usize;
        self.0.borrow_mut().push((msg.id, at));
    }
    fn encode(&self) -> Bytes {
        Bytes::new()
    }
    fn restore(&mut self, _: &Bytes) {}
}

/// The benchmark's driver submits one shared buffer over and over, which
/// would hide a copy per hop behind a warm cache line and a copy per
/// holder behind one allocation. Here every message is its own
/// allocation: the whole run requests little more from the heap than the
/// payloads themselves, and every process ends up holding, for each
/// message, the very buffer that was submitted — at the steady
/// workloads' 1 KiB as at the saturated ones' 16 KiB.
#[test]
fn a_run_holds_each_payload_once() {
    const N: usize = 7;
    const MSGS: u64 = 64;
    for (kind, size) in [
        (StackKind::Modular, 16 * 1024),
        (StackKind::Monolithic, 16 * 1024),
        (StackKind::Modular, 1024),
        (StackKind::Monolithic, 1024),
    ] {
        let held: Vec<_> = (0..N).map(|_| Rc::new(RefCell::new(Vec::new()))).collect();
        let next = Cell::new(0);
        let factory = {
            let held = held.clone();
            AppStateFactory::new(move || {
                let log = held[next.get() % N].clone();
                next.set(next.get() + 1);
                Box::new(PayloadAddresses(log))
            })
        };
        let stack = StackConfig {
            app_state: Some(factory),
            ..StackConfig::default()
        };
        let mut cluster = Cluster::new(ClusterConfig::new(N, 5), build_nodes(kind, N, &stack));
        let mut harness = CollectingHarness::new(N);
        cluster.run_until(VTime::ZERO + VDur::millis(1), &mut harness);

        let mut submitted = Vec::new();
        let (requested, ()) = requested_during(|| {
            for i in 0..MSGS {
                let sender = ProcessId((i % N as u64) as u16);
                let id = MsgId::new(sender, i / N as u64);
                let payload = Bytes::from(vec![i as u8; size]);
                submitted.push((id, payload.as_ptr() as usize));
                let request = AppRequest::Abcast(AppMsg::new(id, payload));
                assert_eq!(cluster.submit(sender, request).0, Admission::Accepted);
                if sender.index() == N - 1 {
                    let round_end = cluster.now() + VDur::millis(25);
                    cluster.run_until(round_end, &mut harness);
                }
            }
            let end = cluster.now() + VDur::millis(250);
            cluster.run_until(end, &mut harness);
        });

        submitted.sort();
        for (p, held) in held.iter().enumerate() {
            let mut held = held.borrow().clone();
            held.sort();
            assert_eq!(held, submitted, "{kind:?}, {size} B: held at process {p}");
        }
        // The payloads, a quarter again, and a fixed allowance for what
        // does not scale with them — frames' framing, instance state,
        // the event queue, heartbeats: ~380 KB on the modular stack and
        // ~290 KB on the monolith at 16 KiB, ~350 and ~300 KB at 1 KiB.
        // Measured 1 426 154 and 1 338 380 bytes at 16 KiB, 413 970 and
        // 364 325 at 1 KiB; at 16 KiB, 1 634 738 and 1 483 604 when
        // every handler got fresh output lists, 3 661 450 and 3 356 540
        // when every frame was a copy of what it carried.
        let payloads = MSGS * size as u64;
        let budget = payloads + payloads / 4 + 512 * 1024;
        assert!(
            requested <= budget,
            "{kind:?}: {MSGS} x {size} B ({payloads} B) requested {requested} bytes of heap"
        );
    }
}

fortika::net::metric_table! {
    mod names in TEST {
        events {
            TICKS = "test.ticks",
        }
        kinds {
            TICK = "test.tick",
        }
    }
}

/// On every timer firing: sends a frame, re-arms the timer, delivers a
/// message, persists a record and bumps a counter — one entry in each
/// of the handler's output lists — and logs what the call requested
/// from the heap.
struct Ticker {
    frame: Bytes,
    log: Rc<RefCell<Vec<u64>>>,
}

impl Node for Ticker {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        if ctx.pid() == ProcessId(0) {
            ctx.set_timer(VDur::millis(1), 0);
        }
    }
    fn on_message(&mut self, _: &mut NodeCtx<'_>, _: ProcessId, _: Bytes) {}
    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _: TimerId, _: u64) {
        let (requested, ()) = requested_during(|| {
            ctx.send(ProcessId(1), names::TICK, self.frame.clone());
            ctx.set_timer(VDur::millis(1), 0);
            ctx.deliver(MsgId::new(ProcessId(0), 0), 4);
            ctx.persist(7, self.frame.clone());
            ctx.bump(names::TICKS, 1);
        });
        self.log.borrow_mut().push(requested);
    }
    fn on_request(&mut self, _: &mut NodeCtx<'_>, _: AppRequest) -> Admission {
        Admission::Blocked
    }
}

/// The cluster lends every handler the same output lists and takes
/// them back drained, so a handler that has the lists warm requests
/// nothing from the heap for its sends, timers, deliveries and stable
/// writes — nor for its counters, which are array slots. Where each
/// handler got fresh lists, every call requested four of them.
#[test]
fn a_warm_handler_requests_no_heap_for_its_outputs() {
    let log = Rc::new(RefCell::new(Vec::new()));
    let nodes: Vec<Box<dyn Node>> = (0..2)
        .map(|_| {
            let frame = Bytes::from_static(b"tick");
            let log = log.clone();
            Box::new(Ticker { frame, log }) as Box<dyn Node>
        })
        .collect();
    let mut cluster = Cluster::new(ClusterConfig::instant(2, 1), nodes);
    cluster.run_idle(VTime::ZERO + VDur::millis(20));
    assert_eq!(cluster.counters().event("test.ticks"), 20);
    let log = log.borrow();
    // The first call finds the lists empty of capacity.
    assert!(log[0] > 0, "{log:?}");
    assert!(
        log[1..].iter().all(|&requested| requested == 0),
        "heap bytes requested per warm call: {log:?}"
    );
}

/// A process that finds a payload's digest in the cluster's table reads
/// it and requests no heap; the entry's last reader frees it.
#[test]
fn a_payload_digest_table_hit_requests_no_heap() {
    let n = 7;
    let mut digests = PayloadDigests::new(n);
    let msgs: Vec<AppMsg> = big_batch().msgs().to_vec();
    let entered: Vec<u64> = msgs.iter().map(|m| digests.of(m)).collect();
    let mut read = [0u64; 10];
    for reader in 1..n {
        let (requested, ()) = requested_during(|| {
            for (slot, m) in read.iter_mut().zip(&msgs) {
                *slot = digests.of(m);
            }
        });
        assert_eq!(read[..], entered[..], "reader {reader}");
        assert_eq!(requested, 0, "reader {reader}: ten hits requested heap");
    }
}

/// A quorum check asks the group's member set, majority and round
/// coordinator per vote, ack and proposal; none of them allocates.
#[test]
fn quorum_queries_allocate_nothing() {
    use fortika::net::{ProcessId, ReplicaCore};

    let (requested, answers) = requested_during(|| {
        (0..64u32)
            .map(|round| {
                let coordinator = ReplicaCore::coordinator_of(round, 5);
                let members = ProcessId::all(5).filter(|p| *p != coordinator);
                ReplicaCore::majority_of(5) + members.count()
            })
            .sum::<usize>()
    });
    assert_eq!(answers, 64 * 7);
    assert_eq!(requested, 0, "64 × 3 queries requested {requested} bytes");
}
