//! Simulated cluster of processes connected by quasi-reliable channels.
//!
//! The cluster drives sans-IO protocol state machines (the [`Node`]
//! trait): it delivers messages, fires timers, injects application
//! requests and models the two contended resources of the paper's
//! testbed — the per-process serial CPU and the per-process NIC transmit
//! path.
//!
//! # Quasi-reliable channels
//!
//! The channel property of the paper (§2.1) holds by construction: a
//! message between two correct processes is never lost, duplicated or
//! corrupted; it is delivered after NIC serialization, propagation delay
//! and bounded jitter. Channels do not guarantee global FIFO across
//! senders. Per-pair delivery is FIFO (the paper's channels are TCP
//! connections), and messages from a process that crashes mid-transmission
//! are lost exactly when their transmission had not completed at crash time.
//!
//! # Crash semantics
//!
//! A crash at instant `t` stops the process immediately: no further
//! handlers run, its timers die, and any outbound message whose NIC
//! transmission finishes after `t` is dropped — so a crash in the middle
//! of a logical broadcast partitions the recipients into those that
//! received the message and those that did not, the exact scenario the
//! paper's reliable-broadcast layer exists to handle.
//!
//! # Crash-recovery semantics
//!
//! With a node factory registered ([`Cluster::set_node_factory`]), a
//! crashed process can be revived via [`Cluster::schedule_restart`]: the
//! factory builds a **fresh** stack (all volatile state lost), the
//! process's incarnation number is bumped, and the new stack's
//! [`Node::on_start`] runs at the restart instant. The incarnation is
//! stamped on every transmission at the wire level, so messages and
//! timers originating from a previous incarnation are detected and
//! dropped instead of leaking into (or out of) the revived process —
//! exactly the stale-message hazard a real restarted TCP endpoint
//! avoids by losing its old connections.
//!
//! The only state that survives a restart is the process's **stable
//! store** ([`NodeCtx::persist`]): a small key→record map modelling the
//! write-ahead stable storage that crash-recovery protocols require
//! (cf. Aguilera/Chen/Toueg: without stable storage, consensus is
//! unsafe unless a majority never crashes). Protocol stacks persist
//! their vote-critical state there and rebuild everything else — the
//! decided prefix, delivery logs, timers — from peers after rejoining.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::ops::Range;

use bytes::Bytes;
use fortika_sim::{CpuResource, DetRng, EventQueue, LinkResource, VDur, VTime};
use fortika_trace::{Trace, TraceBuffer, TraceData};

use crate::config::{ClusterConfig, CostModel};
use crate::counters::Counters;
use crate::fault::{LinkFault, LinkState};
use crate::id::{MsgId, ProcessId};
use crate::message::AppMsg;
use crate::metrics::{cluster, Kind, Metric};
use crate::snapshot::{PayloadDigests, SnapshotStamp};
use crate::wire::{Stored, Tail, Wire, WireReader, WireWriter};

/// Handle to a pending timer, local to one process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerId(u64);

/// A process's stable storage as a restarted process reads it: the only
/// state surviving a restart.
///
/// Keys are module-chosen `u64`s (modules namespace their keys by a tag
/// in the high byte); values are opaque encoded bytes, each a [`Stored`]
/// gather list. The cluster keeps every write as it was given (a
/// [`StableRecord`]) and builds this map only when the store is read:
/// when the node factory is handed it to revive the process, and when
/// [`Cluster::stable`] is called. A record written as a value is
/// encoded then, by its own [`Wire::encode`], into the bytes an encode
/// at write time would have made — a voted batch's payloads by
/// reference, as network frames carry them ([`NodeCtx::send`]). Read
/// with [`Stored::decode`] / [`Stored::reader`].
pub type StableStore = BTreeMap<u64, Stored>;

/// One write to a stable store ([`NodeCtx::persist`]): bytes, or a value
/// the store encodes only when it is read (see [`StableStore`]).
///
/// Only a restarted process reads its store, so a record a process
/// writes at every vote need not be encoded at every vote: a value
/// record costs one box, which owns the value as it was given (a
/// [`Batch`](crate::Batch) shares an immutable list, integers are
/// copies), so the bytes read later are those of the write.
pub struct StableRecord(Record);

enum Record {
    Bytes(Stored),
    Value(Box<dyn Fn(&mut WireWriter)>),
}

impl StableRecord {
    /// A record of `value`, encoded by its [`Wire::encode`] when the
    /// store is read.
    pub fn value<T: Wire + 'static>(value: T) -> Self {
        StableRecord(Record::Value(Box::new(move |w| value.encode(w))))
    }

    /// The bytes a restarted process reads for this record.
    pub(crate) fn to_stored(&self) -> Stored {
        match &self.0 {
            Record::Bytes(bytes) => bytes.clone(),
            Record::Value(write) => Stored::encode_with(write),
        }
    }
}

impl From<Stored> for StableRecord {
    fn from(bytes: Stored) -> Self {
        StableRecord(Record::Bytes(bytes))
    }
}

impl From<Bytes> for StableRecord {
    fn from(bytes: Bytes) -> Self {
        StableRecord(Record::Bytes(bytes.into()))
    }
}

/// Builds a fresh stack for a revived process.
///
/// Arguments: the process identity, the restart instant (detectors must
/// anchor their silence windows here, not at time zero), and the
/// process's [`StableStore`] as persisted by the previous incarnations.
pub type NodeFactory = Box<dyn FnMut(ProcessId, VTime, &StableStore) -> Box<dyn Node>>;

/// A request submitted by the application to its local stack.
#[derive(Debug, Clone)]
pub enum AppRequest {
    /// Atomic-broadcast the given message.
    Abcast(AppMsg),
}

/// Outcome of submitting an [`AppRequest`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// The stack accepted the message; this instant is the paper's `t0`.
    Accepted,
    /// Flow control is closed; retry after [`Harness::on_app_ready`].
    Blocked,
}

/// An `adeliver` notification reported by a stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    /// Identity of the delivered message.
    pub msg: MsgId,
    /// Payload size in bytes.
    pub payload_len: u32,
}

/// A protocol stack instance hosted on one simulated process.
///
/// Implementations are pure state machines: they react to events through
/// `NodeCtx` and must not hold real-world resources. All methods execute
/// on the process's simulated CPU.
pub trait Node {
    /// Invoked once at simulation start (t = 0).
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        let _ = ctx;
    }

    /// Invoked when a network message arrives.
    ///
    /// The frame arrives as the chain of parts it was
    /// [sent](NodeCtx::send) as: `bytes` is its first part — the whole
    /// frame unless it carries a byte string of
    /// [`SHARE_MIN`](crate::wire::SHARE_MIN) bytes — and `ctx` holds the
    /// parts after it for the length of this call. Decode through
    /// [`ctx.reader(bytes)`](NodeCtx::reader), which reads all of them;
    /// a handler that decodes `bytes` alone sees a chained frame end
    /// early (`WireError::UnexpectedEof`), as it would a truncated one.
    fn on_message(&mut self, ctx: &mut NodeCtx<'_>, from: ProcessId, bytes: Bytes);

    /// Invoked when a timer set via [`NodeCtx::set_timer`] fires.
    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, timer: TimerId, tag: u64) {
        let _ = (ctx, timer, tag);
    }

    /// Invoked when the application submits a request.
    fn on_request(&mut self, ctx: &mut NodeCtx<'_>, req: AppRequest) -> Admission;
}

/// Execution context handed to [`Node`] handlers.
///
/// Collects the handler's outputs (sends, timers, deliveries) and tracks
/// the CPU time the handler consumes; the cluster materializes the
/// outputs when the handler returns.
pub struct NodeCtx<'a> {
    pid: ProcessId,
    n: usize,
    incarnation: u32,
    start: VTime,
    charged: VDur,
    /// CPU time spent on stable-storage writes within this handler
    /// (a subset of `charged`; surfaced for durability accounting).
    durability: VDur,
    /// CPU slowdown multiplier in thousandths (1000 = nominal speed);
    /// every charge is scaled by it — see [`Cluster::apply_slowdown`].
    cpu_milli: u64,
    cost: &'a CostModel,
    per_msg_overhead: u32,
    counters: &'a mut Counters,
    digests: &'a mut PayloadDigests,
    trace: Option<&'a mut TraceBuffer>,
    next_timer: &'a mut u64,
    /// This process's transport clock (see `Proc::heard`).
    heard: &'a [Option<VTime>],
    sent: &'a [Option<VTime>],
    /// The parts of the arriving frame after the one `on_message` got.
    tail: Tail,
    out: &'a mut Outputs,
}

/// What one handler asks of the cluster, gathered while it runs and
/// materialized (drained) when it returns. The cluster owns one set and
/// lends it to every handler, so the lists keep their capacity from call
/// to call and a warm handler allocates nothing for them.
#[derive(Default)]
struct Outputs {
    outbox: Vec<(ProcessId, Kind, Stored)>,
    timers: Vec<(VTime, TimerId, u64)>,
    cancels: Vec<TimerId>,
    deliveries: Vec<(Delivery, VTime)>,
    persists: Vec<StableWrite>,
    snapshots: Vec<(SnapshotStamp, VTime)>,
    app_ready: bool,
}

/// One stable-store write a handler asked for; the cluster applies them
/// in call order when the handler returns.
enum StableWrite {
    Put(u64, StableRecord),
    Delete(Range<u64>),
}

impl StableWrite {
    fn apply(self, records: &mut BTreeMap<u64, StableRecord>) {
        match self {
            StableWrite::Put(key, value) => {
                records.insert(key, value);
            }
            StableWrite::Delete(keys) if !keys.is_empty() => {
                records.extract_if(keys, |_, _| true).for_each(drop);
            }
            StableWrite::Delete(_) => {}
        }
    }
}

impl NodeCtx<'_> {
    /// This process's identity.
    pub fn pid(&self) -> ProcessId {
        self.pid
    }

    /// Group size `n`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// This process's incarnation number (0 until the first restart).
    pub fn incarnation(&self) -> u32 {
        self.incarnation
    }

    /// Current virtual time: handler start plus CPU consumed so far.
    pub fn now(&self) -> VTime {
        self.start + self.charged
    }

    /// The configured cost model (for modules that charge custom costs).
    pub fn costs(&self) -> &CostModel {
        self.cost
    }

    /// When the last message from `peer` — of any kind — arrived at
    /// this process, or `None` if none has since this incarnation
    /// started. Transport state a TCP endpoint keeps per socket, so
    /// reading it is free in the model.
    pub fn last_arrival_from(&self, peer: ProcessId) -> Option<VTime> {
        self.heard.get(peer.index()).copied().flatten()
    }

    /// When this process last handed a message for `peer` to its NIC
    /// (the end of the handler that sent it), or `None` if it has not
    /// since this incarnation started. Free, like
    /// [`last_arrival_from`](Self::last_arrival_from).
    pub fn last_send_to(&self, peer: ProcessId) -> Option<VTime> {
        self.sent.get(peer.index()).copied().flatten()
    }

    /// Charges extra CPU time to this handler, scaled by the process's
    /// current slow-node multiplier (see [`Cluster::apply_slowdown`]).
    pub fn charge(&mut self, cost: VDur) {
        self.charged += scale_milli(cost, self.cpu_milli);
    }

    /// Charges one microprotocol dispatch (the framework's per-hop cost).
    pub fn charge_dispatch(&mut self) {
        self.charge(self.cost.dispatch);
    }

    /// Sends `frame` — a [`Bytes`] buffer or a [`Stored`] gather list —
    /// to `dst` over the quasi-reliable channel.
    ///
    /// The frame travels by reference, as a scatter-gather NIC sends
    /// header buffers and held payloads without joining them: its parts
    /// are fixed from here on and reach the receiving handler as they
    /// are ([`Node::on_message`]), so the host copies no payload. The
    /// *model* still pays for every byte: CPU, NIC time, counters and
    /// trace records are charged on the frame's length over all parts,
    /// which is its `encoded_len`.
    ///
    /// `kind` files the message for traffic accounting (see
    /// [`Counters`]), under a name like `"consensus.ack"`.
    ///
    /// # Panics
    ///
    /// Panics if `dst` is this process — the paper's protocols never
    /// send to self, so a self-send indicates a protocol bug.
    pub fn send(&mut self, dst: ProcessId, kind: Kind, frame: impl Into<Stored>) {
        assert_ne!(dst, self.pid, "protocol bug: self-send of {kind}");
        let frame = frame.into();
        let len = frame.len() + self.per_msg_overhead as usize;
        self.charge(self.cost.send_cost(len));
        self.counters.record_send(kind, len as u64);
        self.out.outbox.push((dst, kind, frame));
    }

    /// Sends `frame` to every other process (n−1 unicasts, in pid
    /// order, of one shared part list).
    pub fn broadcast(&mut self, kind: Kind, frame: impl Into<Stored>) {
        let frame = frame.into();
        for dst in ProcessId::all(self.n) {
            if dst != self.pid {
                self.send(dst, kind, frame.clone());
            }
        }
    }

    /// A reader over the frame this handler was invoked for: `bytes` —
    /// the part [`Node::on_message`] received — and then the parts
    /// after it, which this context holds. The one way to read an
    /// arriving frame; empty-tailed (a reader over `bytes` alone)
    /// outside `on_message`.
    pub fn reader(&self, bytes: Bytes) -> WireReader {
        WireReader::chained(bytes, self.tail.clone())
    }

    /// Arms a timer firing after `delay`; `tag` is echoed to
    /// [`Node::on_timer`] so protocols can multiplex timer meanings.
    pub fn set_timer(&mut self, delay: VDur, tag: u64) -> TimerId {
        let id = TimerId(*self.next_timer);
        *self.next_timer += 1;
        self.out.timers.push((self.now() + delay, id, tag));
        id
    }

    /// Cancels a pending timer (no-op if it already fired).
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.out.cancels.push(id);
    }

    /// Reports an `adeliver` to the application/harness. Charges the
    /// delivery upcall cost (identical in both stacks).
    pub fn deliver(&mut self, msg: MsgId, payload_len: u32) {
        self.charge(self.cost.deliver_cost(payload_len as usize));
        self.out
            .deliveries
            .push((Delivery { msg, payload_len }, self.now()));
    }

    /// Signals that flow control re-opened; the harness will be told via
    /// [`Harness::on_app_ready`] once this handler completes.
    pub fn app_ready(&mut self) {
        self.out.app_ready = true;
    }

    /// Writes `value` — a [`Bytes`] buffer, a [`Stored`] gather list or
    /// a [`StableRecord::value`], each fixed from here on — to this
    /// process's stable store under `key` (write-ahead semantics: the
    /// write takes effect atomically with the rest of this handler's
    /// outputs, in call order, and survives crashes). The store keeps
    /// the write as it was given; a value is encoded only when the
    /// store is read (see [`StableStore`]).
    ///
    /// Charges the stable-write CPU cost from the cluster's
    /// [`CostModel`]: one charge per call, however many bytes.
    pub fn persist(&mut self, key: u64, value: impl Into<StableRecord>) {
        self.charge_durability(self.cost.stable_write);
        self.out.persists.push(StableWrite::Put(key, value.into()));
    }

    /// Deletes every key in `keys` from this process's stable store, in
    /// order with this handler's other writes (one key is `k..k + 1`).
    /// Charges the same stable-write cost as [`persist`](Self::persist),
    /// once, however many keys the range spans: a delete is one range
    /// tombstone record in a real write-ahead log — not a free
    /// operation, and not one record per key.
    pub fn unpersist(&mut self, keys: Range<u64>) {
        self.charge_durability(self.cost.stable_write);
        self.out.persists.push(StableWrite::Delete(keys));
    }

    /// Charges CPU time that is *durability* work (stable writes,
    /// snapshot encode/install): counted in the handler's cost like any
    /// charge, and additionally accumulated per process so utilization
    /// reports can break out the durability share
    /// (see [`Cluster::durability_busy`]).
    pub fn charge_durability(&mut self, cost: VDur) {
        let scaled = scale_milli(cost, self.cpu_milli);
        self.charged += scaled;
        self.durability += scaled;
    }

    /// Reports that this process materialized or installed a snapshot
    /// (log compaction / rejoin catch-up); the harness is told via
    /// [`Harness::on_snapshot`] once this handler completes, so
    /// recovery-aware observers (the chaos oracle, application mirrors)
    /// can account for the compacted prefix.
    pub fn note_snapshot(&mut self, stamp: SnapshotStamp) {
        self.out.snapshots.push((stamp, self.now()));
    }

    /// Increments a free-form protocol counter.
    pub fn bump(&mut self, metric: Metric, by: u64) {
        self.counters.bump(metric, by);
    }

    /// The cluster's payload digests, which every process's snapshot
    /// fold reads through (free in the model).
    pub fn payload_digests(&mut self) -> &mut PayloadDigests {
        self.digests
    }

    /// True if event tracing is recording this run.
    ///
    /// Protocols never need to check this before calling
    /// [`trace_span`](Self::trace_span) — the span call is already a
    /// no-op when tracing is off — but it lets them skip *preparing*
    /// span details that are expensive to compute.
    pub fn trace_enabled(&self) -> bool {
        self.trace.is_some()
    }

    /// Records a protocol lifecycle marker for `instance` of `stack`
    /// (e.g. `"proposed"`, `"voted"`, `"decided"`, `"applied"`).
    ///
    /// `detail` carries phase-specific context (round number, batch
    /// size); pass zero when unused. Free when tracing is disabled:
    /// one branch, no allocation, no simulated cost, no randomness —
    /// so span emission can never change a run's timing.
    pub fn trace_span(
        &mut self,
        stack: &'static str,
        instance: u64,
        phase: &'static str,
        detail: u64,
    ) {
        let at_ns = (self.start + self.charged).as_nanos();
        if let Some(t) = self.trace.as_deref_mut() {
            t.push(
                at_ns,
                TraceData::Span {
                    pid: self.pid.0,
                    stack,
                    instance,
                    phase,
                    detail,
                },
            );
        }
    }
}

/// Observer/driver callbacks invoked by [`Cluster::run_until`].
///
/// All callbacks receive a [`ClusterApi`] through which the driver can
/// submit requests, schedule future ticks, or crash processes.
pub trait Harness {
    /// A stack adelivered a message at process `pid`.
    fn on_delivery(&mut self, api: &mut ClusterApi<'_>, pid: ProcessId, d: Delivery, at: VTime) {
        let _ = (api, pid, d, at);
    }

    /// Process `pid`'s flow control re-opened.
    fn on_app_ready(&mut self, api: &mut ClusterApi<'_>, pid: ProcessId, at: VTime) {
        let _ = (api, pid, at);
    }

    /// A tick scheduled via [`ClusterApi::schedule_tick`] fired.
    fn on_tick(&mut self, api: &mut ClusterApi<'_>, tick: u64, at: VTime) {
        let _ = (api, tick, at);
    }

    /// Process `pid` was revived (new incarnation) at instant `at`.
    ///
    /// Fires before any delivery of the new incarnation, so
    /// recovery-aware observers (the chaos oracle, workload drivers) can
    /// segment their logs by incarnation.
    fn on_restart(&mut self, api: &mut ClusterApi<'_>, pid: ProcessId, at: VTime) {
        let _ = (api, pid, at);
    }

    /// Process `pid` materialized (`stamp.installed == false`) or
    /// installed (`true`) a log-compaction snapshot at instant `at`.
    ///
    /// Install stamps fire before any delivery past the compacted
    /// prefix, so observers can realign the process's delivery log with
    /// the common order (see `fortika_chaos::DeliveryOracle`).
    fn on_snapshot(
        &mut self,
        api: &mut ClusterApi<'_>,
        pid: ProcessId,
        stamp: SnapshotStamp,
        at: VTime,
    ) {
        let _ = (api, pid, stamp, at);
    }

    /// Never called. `benchmark/` is its only user; ROADMAP item 9's
    /// benchmark-scoped change deletes it.
    fn on_config(
        &mut self,
        api: &mut ClusterApi<'_>,
        pid: ProcessId,
        stamp: ConfigStamp,
        at: VTime,
    ) {
        let _ = (api, pid, stamp, at);
    }
}

/// What [`Harness::on_config`] would carry. `benchmark/` is its only
/// user; ROADMAP item 9's benchmark-scoped change deletes it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigStamp;

/// A harness that ignores every callback (for logic-only runs).
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopHarness;

impl Harness for NoopHarness {}

/// A harness that records every delivery per process — the workhorse of
/// the correctness test-suite.
#[derive(Debug, Default)]
pub struct CollectingHarness {
    /// `logs[p]` is the adeliver sequence of process `p`, in order.
    pub logs: Vec<Vec<(MsgId, VTime)>>,
}

impl CollectingHarness {
    /// Creates a collector for `n` processes.
    pub fn new(n: usize) -> Self {
        CollectingHarness {
            logs: vec![Vec::new(); n],
        }
    }

    /// The delivery order (message ids only) at process `p`.
    pub fn order(&self, p: ProcessId) -> Vec<MsgId> {
        self.logs[p.index()].iter().map(|(m, _)| *m).collect()
    }
}

impl Harness for CollectingHarness {
    fn on_delivery(&mut self, _api: &mut ClusterApi<'_>, pid: ProcessId, d: Delivery, at: VTime) {
        self.logs[pid.index()].push((d.msg, at));
    }
}

struct Proc {
    node: Option<Box<dyn Node>>,
    cpu: CpuResource,
    nic: LinkResource,
    alive: bool,
    crash_time: Option<VTime>,
    /// Bumped on every restart; stamped on transmissions and timers so
    /// stale cross-incarnation events are detected and dropped.
    incarnation: u32,
    /// Survives crashes and restarts: every write as it was given (see
    /// [`StableStore`]).
    stable: BTreeMap<u64, StableRecord>,
    /// CPU slowdown multiplier in thousandths (1000 = nominal). A
    /// hardware property, so it survives restarts.
    cpu_milli: u64,
    /// Accumulated durability CPU time (stable writes, snapshot
    /// encode/install) — a subset of the CPU's busy time.
    durability_busy: VDur,
    next_timer: u64,
    cancelled: BTreeSet<u64>,
    /// The transport clock, per peer: when the last message from it
    /// arrived here, and when this process last sent to it. Volatile,
    /// like a process's sockets: a restart clears it.
    heard: Vec<Option<VTime>>,
    sent: Vec<Option<VTime>>,
}

enum Ev {
    Deliver {
        dst: ProcessId,
        src: ProcessId,
        /// Sender incarnation at transmission time.
        src_inc: u32,
        /// Kind of the message (trace only — the receiving stack decodes
        /// the payload, never the kind).
        kind: Kind,
        /// The frame as sent; a broadcast's copies and a duplicate share
        /// its part list.
        frame: Stored,
        tx_end: VTime,
    },
    Timer {
        pid: ProcessId,
        /// Owner incarnation at arming time.
        inc: u32,
        id: TimerId,
        tag: u64,
    },
    Tick {
        id: u64,
    },
    Crash {
        pid: ProcessId,
    },
    Restart {
        pid: ProcessId,
    },
    Fault(LinkFault),
    Slow {
        pid: ProcessId,
        factor_milli: u64,
    },
}

enum Notification {
    Delivered(ProcessId, Delivery, VTime),
    AppReady(ProcessId, VTime),
    Tick(u64, VTime),
    Restarted(ProcessId, VTime),
    Snapshot(ProcessId, SnapshotStamp, VTime),
}

/// The simulated cluster: processes, network, clock and counters.
pub struct Cluster {
    cfg: ClusterConfig,
    queue: EventQueue<Ev>,
    procs: Vec<Proc>,
    rng: DetRng,
    counters: Counters,
    /// Payload digests shared by every process's snapshot fold.
    digests: PayloadDigests,
    pending: VecDeque<Notification>,
    /// Per-(src,dst) last scheduled arrival, enforcing channel FIFO
    /// (the paper's channels are TCP connections).
    last_arrival: Vec<VTime>,
    /// Per-(src,dst) longest gap between two consecutive arrivals at a
    /// live receiver: what a detector there had to wait out.
    longest_silence: Vec<VDur>,
    /// Per-(src,dst) fault state, consulted at transmission time.
    links: Vec<LinkState>,
    /// Per-(src,dst) serializer occupancy for *degraded* links: when a
    /// link's rate is below nominal, messages additionally queue
    /// through the link itself at the reduced rate. Untouched (and
    /// cost-free) at full rate, so fault-free timing is byte-identical
    /// to builds without the feature.
    link_free: Vec<VTime>,
    /// Dedicated RNG stream for fault decisions (drop/duplicate draws),
    /// derived from the seed so fault-free traffic keeps its jitter
    /// stream regardless of how many faults are active.
    fault_rng: DetRng,
    /// Builds fresh stacks for revived processes (crash-recovery runs).
    factory: Option<NodeFactory>,
    /// Bounded event-trace ring; `None` (the default) records nothing
    /// and keeps every record point a single branch.
    trace: Option<TraceBuffer>,
    /// The output lists every handler fills (see [`Outputs`]); empty
    /// between handlers.
    outputs: Outputs,
    started: bool,
}

impl Cluster {
    /// Builds a cluster hosting the given stacks (one per process).
    ///
    /// # Panics
    ///
    /// Panics if `nodes.len()` differs from `cfg.n`.
    pub fn new(cfg: ClusterConfig, nodes: Vec<Box<dyn Node>>) -> Self {
        assert_eq!(nodes.len(), cfg.n, "need exactly one node per process");
        let procs = nodes
            .into_iter()
            .map(|node| Proc {
                node: Some(node),
                cpu: CpuResource::new(),
                nic: LinkResource::new(cfg.net.bandwidth_bytes_per_sec),
                alive: true,
                crash_time: None,
                incarnation: 0,
                stable: BTreeMap::new(),
                cpu_milli: 1000,
                durability_busy: VDur::ZERO,
                next_timer: 0,
                cancelled: BTreeSet::new(),
                heard: vec![None; cfg.n],
                sent: vec![None; cfg.n],
            })
            .collect();
        let rng = DetRng::seed(cfg.seed);
        let fault_rng = DetRng::derive(cfg.seed, 0xFA17);
        let last_arrival = vec![VTime::ZERO; cfg.n * cfg.n];
        let longest_silence = vec![VDur::ZERO; cfg.n * cfg.n];
        let links = vec![LinkState::default(); cfg.n * cfg.n];
        let link_free = vec![VTime::ZERO; cfg.n * cfg.n];
        let digests = PayloadDigests::new(cfg.n);
        let trace = cfg
            .trace
            .enabled
            .then(|| TraceBuffer::new(cfg.trace.capacity));
        Cluster {
            cfg,
            queue: EventQueue::new(),
            procs,
            rng,
            counters: Counters::new(),
            digests,
            pending: VecDeque::new(),
            last_arrival,
            longest_silence,
            links,
            link_free,
            fault_rng,
            factory: None,
            trace,
            outputs: Outputs::default(),
            started: false,
        }
    }

    /// True if this cluster is recording an event trace.
    pub fn trace_enabled(&self) -> bool {
        self.trace.is_some()
    }

    /// Takes the recorded event trace out of the cluster (freezing the
    /// ring). Returns `None` if tracing was disabled or the trace was
    /// already taken.
    pub fn take_trace(&mut self) -> Option<Trace> {
        self.trace.take().map(TraceBuffer::finish)
    }

    /// Records a trace event at instant `at` if tracing is on. The
    /// closure only runs when recording, so a disabled trace costs one
    /// branch and never constructs the event.
    fn record(&mut self, at: VTime, data: impl FnOnce() -> TraceData) {
        if let Some(t) = self.trace.as_mut() {
            t.push(at.as_nanos(), data());
        }
    }

    /// Registers the factory that rebuilds a process's stack on restart.
    ///
    /// Required before [`Cluster::schedule_restart`]; runs without one
    /// otherwise (plain crash-stop clusters pay nothing).
    pub fn set_node_factory(&mut self, factory: NodeFactory) {
        self.factory = Some(factory);
    }

    /// Current virtual time (timestamp of the last processed event).
    pub fn now(&self) -> VTime {
        self.queue.now()
    }

    /// Group size.
    pub fn n(&self) -> usize {
        self.cfg.n
    }

    /// Traffic and protocol counters (cluster-wide).
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// The longest gap so far between two consecutive arrivals of
    /// messages from `src` — of any kind — at `dst`, while `dst` was up
    /// (zero until two have arrived). Read off the transport clock, so
    /// free in the model: the silence budget a detector at `dst` needs
    /// for `src` (a restart of `dst` starts the count afresh).
    pub fn longest_silence(&self, src: ProcessId, dst: ProcessId) -> VDur {
        self.longest_silence[src.index() * self.cfg.n + dst.index()]
    }

    /// Accumulated CPU busy time of process `pid`.
    pub fn cpu_busy(&self, pid: ProcessId) -> VDur {
        self.procs[pid.index()].cpu.busy_time()
    }

    /// Accumulated durability CPU time of `pid`: stable-storage writes
    /// plus snapshot encode/install, as charged through
    /// [`NodeCtx::charge_durability`]. A subset of
    /// [`cpu_busy`](Cluster::cpu_busy), broken out so utilization
    /// reports can attribute the durability share.
    pub fn durability_busy(&self, pid: ProcessId) -> VDur {
        self.procs[pid.index()].durability_busy
    }

    /// Current CPU slowdown multiplier of `pid` in thousandths
    /// (1000 = nominal speed).
    pub fn cpu_factor_milli(&self, pid: ProcessId) -> u64 {
        self.procs[pid.index()].cpu_milli
    }

    /// True if `pid` has not crashed.
    pub fn alive(&self, pid: ProcessId) -> bool {
        self.procs[pid.index()].alive
    }

    /// Current incarnation of `pid` (0 until it restarts for the first
    /// time).
    pub fn incarnation(&self, pid: ProcessId) -> u32 {
        self.procs[pid.index()].incarnation
    }

    /// `pid`'s stable store as a restarted process would read it, every
    /// record encoded now (tests and diagnostics).
    pub fn stable(&self, pid: ProcessId) -> StableStore {
        let records = &self.procs[pid.index()].stable;
        records
            .iter()
            .map(|(&key, record)| (key, record.to_stored()))
            .collect()
    }

    /// Schedules a crash of `pid` at instant `at`.
    pub fn schedule_crash(&mut self, pid: ProcessId, at: VTime) {
        self.queue.schedule(at, Ev::Crash { pid });
    }

    /// Schedules a restart of `pid` at instant `at`: if the process is
    /// crashed at that instant, the registered factory builds it a fresh
    /// stack (volatile state lost, stable store retained), its
    /// incarnation is bumped and the new stack's `on_start` runs. A
    /// restart of a live process is a no-op.
    ///
    /// # Panics
    ///
    /// Panics immediately if no node factory is registered — scheduling
    /// an un-servable revival should fail at the call site, not
    /// mid-simulation.
    pub fn schedule_restart(&mut self, pid: ProcessId, at: VTime) {
        assert!(
            self.factory.is_some(),
            "schedule_restart({pid}) requires a node factory; call set_node_factory first"
        );
        self.queue.schedule(at, Ev::Restart { pid });
    }

    /// Schedules a driver tick (delivered to [`Harness::on_tick`]).
    pub fn schedule_tick(&mut self, at: VTime, id: u64) {
        self.queue.schedule(at, Ev::Tick { id });
    }

    /// Schedules a CPU slowdown of `pid` to take effect at `at`:
    /// from then on, every cost the process charges is multiplied by
    /// `factor_milli / 1000` (e.g. `4000` = 4× slower handlers;
    /// `1000` restores nominal speed). Handlers already queued on the
    /// CPU at `at` are unaffected — the multiplier acts at charge time,
    /// like a clock-throttled core.
    ///
    /// # Panics
    ///
    /// Panics immediately if `factor_milli` is zero (an infinitely fast
    /// CPU is a scenario bug, not a fault).
    pub fn schedule_slowdown(&mut self, at: VTime, pid: ProcessId, factor_milli: u64) {
        assert!(
            factor_milli > 0,
            "slowdown factor for {pid} must be positive (1000 = nominal)"
        );
        self.queue.schedule(at, Ev::Slow { pid, factor_milli });
    }

    /// Applies a CPU slowdown immediately (see
    /// [`Cluster::schedule_slowdown`]).
    pub fn apply_slowdown(&mut self, pid: ProcessId, factor_milli: u64) {
        assert!(
            factor_milli > 0,
            "slowdown factor for {pid} must be positive (1000 = nominal)"
        );
        self.procs[pid.index()].cpu_milli = factor_milli;
    }

    /// Schedules a link fault to take effect at instant `at`.
    ///
    /// # Panics
    ///
    /// Panics immediately (not at fire time) if the fault fails
    /// [`LinkFault::check`] or names a process outside the group, so a
    /// bad scenario fails at the call site instead of mid-simulation.
    #[track_caller]
    pub fn schedule_fault(&mut self, at: VTime, fault: LinkFault) {
        self.check_fault(&fault);
        self.queue.schedule(at, Ev::Fault(fault));
    }

    /// Applies a link fault immediately (messages already in flight
    /// still arrive; the fault acts at transmission time).
    ///
    /// # Panics
    ///
    /// Panics if the fault fails [`LinkFault::check`] or names a process
    /// outside the group.
    #[track_caller]
    pub fn apply_fault(&mut self, fault: &LinkFault) {
        self.check_fault(fault);
        fault.apply(&mut self.links, self.cfg.n);
    }

    /// Panics unless `fault` passes [`LinkFault::check`] and names only
    /// processes of the group.
    #[track_caller]
    fn check_fault(&self, fault: &LinkFault) {
        fault.check();
        let n = self.cfg.n;
        if let LinkFault::Partition(groups) = fault {
            for p in groups.iter().flatten() {
                assert!(
                    p.index() < n,
                    "partition names {p}, but the cluster has only {n} processes"
                );
            }
        }
    }

    /// True if the directed link `src → dst` is currently cut by a
    /// partition.
    pub fn link_blocked(&self, src: ProcessId, dst: ProcessId) -> bool {
        self.links[src.index() * self.cfg.n + dst.index()].blocked
    }

    /// Runs the simulation until `until`, invoking `harness` callbacks.
    ///
    /// The first call also runs every node's [`Node::on_start`] at t = 0.
    pub fn run_until(&mut self, until: VTime, harness: &mut dyn Harness) {
        if !self.started {
            self.started = true;
            for pid in ProcessId::all(self.cfg.n) {
                self.exec(
                    pid,
                    VTime::ZERO,
                    VDur::ZERO,
                    Tail::default(),
                    |node, ctx| node.on_start(ctx),
                );
            }
            self.drain(harness);
        }
        while let Some(t) = self.queue.peek_time() {
            if t > until {
                break;
            }
            let (at, ev) = self.queue.pop().expect("peeked event vanished");
            self.dispatch(at, ev);
            self.drain(harness);
        }
    }

    /// Runs until `until` with no driver (ignores deliveries).
    pub fn run_idle(&mut self, until: VTime) {
        self.run_until(until, &mut NoopHarness);
    }

    /// Submits an application request to `pid`'s stack right now.
    ///
    /// Returns the admission decision and the virtual instant at which the
    /// request handler completed (the paper's `t0` when accepted).
    pub fn submit(&mut self, pid: ProcessId, req: AppRequest) -> (Admission, VTime) {
        let base = self.cfg.cost.request_fixed;
        let now = self.now();
        let mut admission = Admission::Blocked;
        let end = self
            .exec(pid, now, base, Tail::default(), |node, ctx| {
                admission = node.on_request(ctx, req);
            })
            .unwrap_or(now);
        (admission, end)
    }

    fn dispatch(&mut self, at: VTime, ev: Ev) {
        match ev {
            Ev::Deliver {
                dst,
                src,
                src_inc,
                kind,
                frame,
                tx_end,
            } => {
                let len = frame.len() + self.cfg.net.per_msg_overhead as usize;
                let wire = len as u64;
                // Drop messages from a previous incarnation of the
                // sender: the wire-level incarnation stamp detects them.
                if src_inc != self.procs[src.index()].incarnation {
                    self.counters.bump(cluster::DROPPED_STALE_INCARNATION, 1);
                    self.record(at, || TraceData::Drop {
                        src: src.0,
                        dst: dst.0,
                        kind: kind.name(),
                        bytes: wire,
                        reason: "stale_incarnation",
                    });
                    return;
                }
                // Drop messages whose transmission outlived the sender.
                if let Some(ct) = self.procs[src.index()].crash_time {
                    if tx_end > ct {
                        self.record(at, || TraceData::Drop {
                            src: src.0,
                            dst: dst.0,
                            kind: kind.name(),
                            bytes: wire,
                            reason: "crashed_sender",
                        });
                        return;
                    }
                }
                self.record(at, || TraceData::Deliver {
                    dst: dst.0,
                    src: src.0,
                    kind: kind.name(),
                    bytes: wire,
                });
                let receiver = &mut self.procs[dst.index()];
                if receiver.alive {
                    if let Some(prev) = receiver.heard[src.index()] {
                        let slot =
                            &mut self.longest_silence[src.index() * self.cfg.n + dst.index()];
                        *slot = (*slot).max(at.since(prev));
                    }
                    receiver.heard[src.index()] = Some(at);
                }
                let base = self.cfg.cost.recv_cost(len);
                // The tail goes in with the handler call, so a frame to
                // a crashed process is dropped whole.
                let (first, tail) = frame.into_chain();
                self.exec(dst, at, base, tail, |node, ctx| {
                    node.on_message(ctx, src, first)
                });
            }
            Ev::Timer { pid, inc, id, tag } => {
                let proc = &mut self.procs[pid.index()];
                // Timers die with their incarnation.
                if inc != proc.incarnation {
                    return;
                }
                if proc.cancelled.remove(&id.0) {
                    return;
                }
                let base = self.cfg.cost.timer_fixed;
                self.exec(pid, at, base, Tail::default(), |node, ctx| {
                    node.on_timer(ctx, id, tag)
                });
            }
            Ev::Tick { id } => {
                // Ticks are harness-level: queue the callback so it runs
                // through the same drain path as other notifications.
                self.pending.push_back(Notification::Tick(id, at));
            }
            Ev::Crash { pid } => {
                let proc = &mut self.procs[pid.index()];
                if proc.alive {
                    proc.alive = false;
                    proc.crash_time = Some(at);
                    self.counters.bump(cluster::CRASHES, 1);
                }
            }
            Ev::Restart { pid } => self.restart(pid, at),
            Ev::Fault(fault) => {
                self.counters.bump(cluster::FAULT_EVENTS, 1);
                self.apply_fault(&fault);
            }
            Ev::Slow { pid, factor_milli } => {
                self.counters.bump(cluster::SLOW_EVENTS, 1);
                self.procs[pid.index()].cpu_milli = factor_milli;
            }
        }
    }

    /// Revives a crashed process with a fresh stack and a new
    /// incarnation (see [`Cluster::schedule_restart`]).
    fn restart(&mut self, pid: ProcessId, at: VTime) {
        let i = pid.index();
        if self.procs[i].alive {
            return; // never crashed (or already revived): no-op
        }
        // Take the factory out so building the node can read the
        // process's stable store, which is materialized for it.
        let mut factory = self
            .factory
            .take()
            .expect("restart scheduled without factory");
        let node = factory(pid, at, &self.stable(pid));
        self.factory = Some(factory);
        let proc = &mut self.procs[i];
        proc.node = Some(node);
        proc.alive = true;
        proc.crash_time = None;
        proc.incarnation += 1;
        // Fresh volatile timer namespace; stale timer events are fenced
        // by the incarnation stamp, stale cancels die here.
        proc.next_timer = 0;
        proc.cancelled.clear();
        proc.heard.fill(None);
        proc.sent.fill(None);
        self.counters.bump(cluster::RESTARTS, 1);
        // Tell the harness before any new-incarnation activity.
        self.pending.push_back(Notification::Restarted(pid, at));
        self.exec(pid, at, VDur::ZERO, Tail::default(), |node, ctx| {
            node.on_start(ctx)
        });
    }

    /// Runs one handler on `pid`'s CPU, with `tail` for its context to
    /// read an arriving frame's later parts from. Returns the
    /// handler-completion instant, or `None` if the process is crashed.
    fn exec<F>(
        &mut self,
        pid: ProcessId,
        arrival: VTime,
        base_cost: VDur,
        tail: Tail,
        f: F,
    ) -> Option<VTime>
    where
        F: FnOnce(&mut dyn Node, &mut NodeCtx<'_>),
    {
        let i = pid.index();
        if !self.procs[i].alive {
            return None;
        }
        // A slow-node window stretches every cost the handler charges,
        // the base cost included.
        let cpu_milli = self.procs[i].cpu_milli;
        let base_cost = scale_milli(base_cost, cpu_milli);
        let start = self.procs[i].cpu.acquire(arrival, base_cost);
        let proc = &mut self.procs[i];
        let mut node = proc.node.take().expect("node re-entered");
        let inc = proc.incarnation;

        // The handler fills the cluster's output lists, which are drained
        // below with their capacity kept.
        self.outputs.app_ready = false;
        let (charged, durability) = {
            let mut ctx = NodeCtx {
                pid,
                n: self.cfg.n,
                incarnation: inc,
                start,
                charged: base_cost,
                durability: VDur::ZERO,
                cpu_milli,
                cost: &self.cfg.cost,
                per_msg_overhead: self.cfg.net.per_msg_overhead,
                counters: &mut self.counters,
                digests: &mut self.digests,
                trace: self.trace.as_mut(),
                next_timer: &mut proc.next_timer,
                heard: &proc.heard,
                sent: &proc.sent,
                tail,
                out: &mut self.outputs,
            };
            f(node.as_mut(), &mut ctx);
            (ctx.charged, ctx.durability)
        };

        self.procs[i].node = Some(node);
        // Stable-storage writes land atomically with the handler.
        for write in self.outputs.persists.drain(..) {
            write.apply(&mut self.procs[i].stable);
        }
        let extra = charged.saturating_sub(base_cost);
        self.procs[i].cpu.extend(extra);
        self.procs[i].durability_busy += durability;
        let end = start + charged;
        self.record(end, || TraceData::Handler {
            pid: pid.0,
            inc,
            start_ns: start.as_nanos(),
            cpu_ns: charged.as_nanos(),
            durability_ns: durability.as_nanos(),
        });

        // Materialize sends: serialize through the NIC, then apply link
        // faults, then propagate. Fault state is read at transmission
        // time — a partition raised later does not retract in-flight
        // messages, exactly like pulling a cable.
        let mut outbox = std::mem::take(&mut self.outputs.outbox);
        for (dst, kind, frame) in outbox.drain(..) {
            self.procs[i].sent[dst.index()] = Some(end);
            let wire = frame.len() as u64 + u64::from(self.cfg.net.per_msg_overhead);
            let mut tx_end = self.procs[i].nic.transmit(end, wire);
            let nic_tx_end = tx_end;
            let slot = i * self.cfg.n + dst.index();
            let link = self.links[slot];
            if link.rate_milli < 1000 {
                // Degraded link: after leaving the NIC, the message
                // serializes again through the link itself at the
                // reduced rate, queuing behind earlier traffic on the
                // same directed link (a congested switch port). At full
                // rate this stage is bypassed, so fault-free timing is
                // untouched.
                let rate = ((u128::from(self.cfg.net.bandwidth_bytes_per_sec)
                    * u128::from(link.rate_milli))
                    / 1000)
                    .max(1);
                let tx_ns = (u128::from(wire) * 1_000_000_000 / rate).min(u128::from(u64::MAX));
                let start_tx = tx_end.max(self.link_free[slot]);
                tx_end = start_tx + VDur::nanos(tx_ns as u64);
                self.link_free[slot] = tx_end;
                self.counters.bump(cluster::DEGRADED_TX, 1);
            }
            // Exactly one main-RNG jitter draw per send, whatever the
            // link's fate — so the timing of messages that *do* arrive
            // is identical to the fault-free run with the same seed
            // (fault coin flips and duplicate-copy jitter come from the
            // dedicated fault stream).
            let lat = self.cfg.net.prop_delay + self.rng.jitter(self.cfg.net.jitter);
            if link.blocked {
                // The NIC transmitted into a cut link: bytes are gone.
                self.counters.bump(cluster::DROPPED_PARTITION, 1);
                self.record(end, || TraceData::Drop {
                    src: pid.0,
                    dst: dst.0,
                    kind: kind.name(),
                    bytes: wire,
                    reason: "partition",
                });
                continue;
            }
            if link.drop_p > 0.0 && self.fault_rng.unit_f64() < link.drop_p {
                self.counters.bump(cluster::DROPPED_LOSS, 1);
                self.record(end, || TraceData::Drop {
                    src: pid.0,
                    dst: dst.0,
                    kind: kind.name(),
                    bytes: wire,
                    reason: "loss",
                });
                continue;
            }
            // TCP-like channels: per-pair FIFO despite jitter; a
            // duplicate trails (or ties) the original.
            let mut arrival = tx_end + scale_milli(lat, link.delay_milli);
            arrival = arrival.max(self.last_arrival[slot]);
            self.last_arrival[slot] = arrival;
            let duplicate = if link.dup_p > 0.0 && self.fault_rng.unit_f64() < link.dup_p {
                self.counters.bump(cluster::DUPLICATED, 1);
                let lat2 = self.cfg.net.prop_delay + self.fault_rng.jitter(self.cfg.net.jitter);
                let mut arrival2 = tx_end + scale_milli(lat2, link.delay_milli);
                arrival2 = arrival2.max(self.last_arrival[slot]);
                self.last_arrival[slot] = arrival2;
                Some(arrival2)
            } else {
                None
            };
            if let Some(arrival2) = duplicate {
                self.record(end, || TraceData::Send {
                    src: pid.0,
                    dst: dst.0,
                    kind: kind.name(),
                    bytes: wire,
                    inc,
                    tx_end_ns: tx_end.as_nanos(),
                    arrival_ns: arrival2.as_nanos(),
                    queue_ns: tx_end.since(nic_tx_end).as_nanos(),
                });
                self.queue.schedule(
                    arrival2,
                    Ev::Deliver {
                        dst,
                        src: pid,
                        src_inc: inc,
                        kind,
                        frame: frame.clone(),
                        tx_end,
                    },
                );
            }
            self.record(end, || TraceData::Send {
                src: pid.0,
                dst: dst.0,
                kind: kind.name(),
                bytes: wire,
                inc,
                tx_end_ns: tx_end.as_nanos(),
                arrival_ns: arrival.as_nanos(),
                queue_ns: tx_end.since(nic_tx_end).as_nanos(),
            });
            self.queue.schedule(
                arrival,
                Ev::Deliver {
                    dst,
                    src: pid,
                    src_inc: inc,
                    kind,
                    frame,
                    tx_end,
                },
            );
        }
        self.outputs.outbox = outbox;
        for (fire_at, id, tag) in self.outputs.timers.drain(..) {
            let at = fire_at.max(self.queue.now());
            self.queue.schedule(at, Ev::Timer { pid, inc, id, tag });
        }
        for id in self.outputs.cancels.drain(..) {
            self.procs[i].cancelled.insert(id.0);
        }
        // Snapshot stamps go out before the handler's deliveries: an
        // install always precedes the deliveries it repositions.
        for (stamp, at) in self.outputs.snapshots.drain(..) {
            self.pending
                .push_back(Notification::Snapshot(pid, stamp, at));
        }
        for (d, at) in self.outputs.deliveries.drain(..) {
            self.pending.push_back(Notification::Delivered(pid, d, at));
        }
        if self.outputs.app_ready {
            self.pending.push_back(Notification::AppReady(pid, end));
        }
        Some(end)
    }
}

/// Scales a duration by `factor_milli / 1000` in u128 arithmetic.
fn scale_milli(d: VDur, factor_milli: u64) -> VDur {
    if factor_milli == 1000 {
        return d;
    }
    let scaled = u128::from(d.as_nanos()) * u128::from(factor_milli) / 1000;
    VDur::nanos(u64::try_from(scaled).unwrap_or(u64::MAX))
}

impl Cluster {
    fn drain(&mut self, harness: &mut dyn Harness) {
        while let Some(n) = self.pending.pop_front() {
            let mut api = ClusterApi { cluster: self };
            match n {
                Notification::Delivered(pid, d, at) => harness.on_delivery(&mut api, pid, d, at),
                Notification::AppReady(pid, at) => harness.on_app_ready(&mut api, pid, at),
                Notification::Tick(id, at) => harness.on_tick(&mut api, id, at),
                Notification::Restarted(pid, at) => harness.on_restart(&mut api, pid, at),
                Notification::Snapshot(pid, stamp, at) => {
                    harness.on_snapshot(&mut api, pid, stamp, at)
                }
            }
        }
    }
}

/// Driver-facing API available inside [`Harness`] callbacks.
pub struct ClusterApi<'a> {
    cluster: &'a mut Cluster,
}

impl ClusterApi<'_> {
    /// Current virtual time.
    pub fn now(&self) -> VTime {
        self.cluster.now()
    }

    /// Group size.
    pub fn n(&self) -> usize {
        self.cluster.n()
    }

    /// Submits a request to `pid`'s stack (see [`Cluster::submit`]).
    pub fn submit(&mut self, pid: ProcessId, req: AppRequest) -> (Admission, VTime) {
        self.cluster.submit(pid, req)
    }

    /// Schedules a future driver tick.
    pub fn schedule_tick(&mut self, at: VTime, id: u64) {
        self.cluster.schedule_tick(at, id);
    }

    /// Crashes `pid` immediately.
    pub fn crash(&mut self, pid: ProcessId) {
        let now = self.cluster.now();
        let proc = &mut self.cluster.procs[pid.index()];
        if proc.alive {
            proc.alive = false;
            proc.crash_time = Some(now);
            self.cluster.counters.bump(cluster::CRASHES, 1);
        }
    }

    /// True if `pid` has not crashed.
    pub fn alive(&self, pid: ProcessId) -> bool {
        self.cluster.alive(pid)
    }

    /// Current incarnation of `pid` (0 until its first restart).
    pub fn incarnation(&self, pid: ProcessId) -> u32 {
        self.cluster.incarnation(pid)
    }
}
