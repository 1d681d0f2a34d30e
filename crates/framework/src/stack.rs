//! Composite stacks: the composition kernel.

use std::collections::VecDeque;
use std::ops::Range;

use bytes::Bytes;
use fortika_net::wire::{Stored, Wire, WireReader, WireWriter};
use fortika_net::{
    Admission, AppRequest, CostModel, Kind, Metric, MsgId, Node, NodeCtx, PayloadDigests,
    ProcessId, ReplicaCtx, SnapshotStamp, StableRecord, TimerId,
};
use fortika_sim::{VDur, VTime};

use crate::events::{Event, EventKind};
use crate::metrics;

/// Wire-level identity of a microprotocol within a stack, used to demux
/// incoming messages (2 bytes on every message — the framework's framing
/// overhead).
pub type ModuleId = u16;

/// Number of tag bits reserved for module routing in timer tags.
const MODULE_TAG_SHIFT: u32 = 56;

/// A microprotocol: one module in a composite stack.
///
/// Modules interact with their neighbours **only** through
/// [`Event`]s and with the network through their own messages (demuxed by
/// [`Microprotocol::module_id`]). This is the structural constraint whose
/// performance price the paper measures.
pub trait Microprotocol {
    /// Human-readable name (diagnostics and counters).
    fn name(&self) -> &'static str;

    /// Wire demux id; must be unique within a stack.
    fn module_id(&self) -> ModuleId;

    /// Events this module wants to receive.
    fn subscriptions(&self) -> &'static [EventKind];

    /// Invoked once at simulation start.
    fn on_start(&mut self, ctx: &mut FrameworkCtx<'_, '_>) {
        let _ = ctx;
    }

    /// Invoked for every subscribed event raised on the bus.
    fn on_event(&mut self, ctx: &mut FrameworkCtx<'_, '_>, ev: &Event) {
        let _ = (ctx, ev);
    }

    /// Invoked when a network message addressed to this module arrives.
    ///
    /// `msg` reads the message as the peer module
    /// [sent](FrameworkCtx::send_net) it, from behind the framework's
    /// module id to the end of the frame, across however many parts it
    /// travelled as — [`WireReader::get_only`] decodes it strictly. A
    /// module is never handed part of a frame.
    fn on_net(&mut self, ctx: &mut FrameworkCtx<'_, '_>, from: ProcessId, msg: WireReader) {
        let _ = (ctx, from, msg);
    }

    /// Invoked when one of this module's timers fires.
    fn on_timer(&mut self, ctx: &mut FrameworkCtx<'_, '_>, timer: TimerId, tag: u64) {
        let _ = (ctx, timer, tag);
    }

    /// Offered each application request, top module first; the first
    /// module returning `Some` decides admission.
    fn on_request(
        &mut self,
        ctx: &mut FrameworkCtx<'_, '_>,
        req: &AppRequest,
    ) -> Option<Admission> {
        let _ = (ctx, req);
        None
    }
}

/// Execution context handed to microprotocol handlers.
///
/// Wraps the hosting process's [`NodeCtx`] and the stack's event bus.
pub struct FrameworkCtx<'a, 'b> {
    node: &'a mut NodeCtx<'b>,
    bus: &'a mut VecDeque<Event>,
    module_idx: usize,
    module_id: ModuleId,
}

impl FrameworkCtx<'_, '_> {
    /// This process's identity.
    pub fn pid(&self) -> ProcessId {
        self.node.pid()
    }

    /// Group size `n`.
    pub fn n(&self) -> usize {
        self.node.n()
    }

    /// Current virtual time.
    pub fn now(&self) -> VTime {
        self.node.now()
    }

    /// When the last message from `peer` arrived at this process; see
    /// [`fortika_net::NodeCtx::last_arrival_from`].
    pub fn last_arrival_from(&self, peer: ProcessId) -> Option<VTime> {
        self.node.last_arrival_from(peer)
    }

    /// When this process last sent to `peer`; see
    /// [`fortika_net::NodeCtx::last_send_to`].
    pub fn last_send_to(&self, peer: ProcessId) -> Option<VTime> {
        self.node.last_send_to(peer)
    }

    /// Raises an event on the stack bus (dispatched FIFO after the
    /// current handler returns — Cactus semantics).
    pub fn raise(&mut self, ev: Event) {
        self.bus.push_back(ev);
    }

    /// Sends `msg` from this module to its peer module at `dst`.
    ///
    /// The framework's 2-byte module id and the message are encoded as
    /// one gather list — a single exact-sized buffer unless the message
    /// holds a byte string long enough to travel by reference
    /// ([`Stored::encode_with`]); `kind` files the message for traffic
    /// accounting.
    pub fn send_net(&mut self, dst: ProcessId, kind: Kind, msg: &impl Wire) {
        ReplicaCtx::send(self, dst, kind, |w| msg.encode(w));
    }

    /// Sends `msg` to every other process (n−1 unicasts of one shared
    /// frame).
    pub fn broadcast_net(&mut self, kind: Kind, msg: &impl Wire) {
        ReplicaCtx::broadcast(self, kind, |w| msg.encode(w));
    }

    /// This module's wire frame around `body`: the module id, then the
    /// message.
    fn framed(&self, body: impl Fn(&mut WireWriter)) -> Stored {
        Stored::encode_with(|w| {
            w.put_u16(self.module_id);
            body(w);
        })
    }

    /// Arms a timer owned by this module. `tag` must fit in 56 bits.
    pub fn set_timer(&mut self, delay: VDur, tag: u64) -> TimerId {
        assert!(tag < (1 << MODULE_TAG_SHIFT), "timer tag too large");
        let full = ((self.module_idx as u64) << MODULE_TAG_SHIFT) | tag;
        self.node.set_timer(delay, full)
    }

    /// Cancels a pending timer.
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.node.cancel_timer(id);
    }

    /// Reports an `adeliver` to the application/harness.
    pub fn deliver(&mut self, msg: MsgId, payload_len: u32) {
        self.node.deliver(msg, payload_len);
    }

    /// Signals that flow control re-opened (see
    /// [`fortika_net::Harness::on_app_ready`]).
    pub fn app_ready(&mut self) {
        self.node.app_ready();
    }

    /// This process's incarnation (0 until its first crash-recovery).
    pub fn incarnation(&self) -> u32 {
        self.node.incarnation()
    }

    /// Writes to the process's stable store (survives restarts); see
    /// [`fortika_net::NodeCtx::persist`]. The store is shared by the whole
    /// stack: modules take their key namespace (high byte) from
    /// [`fortika_net::replica::keys`].
    pub fn persist(&mut self, key: u64, value: impl Into<StableRecord>) {
        self.node.persist(key, value);
    }

    /// Increments a free-form protocol counter.
    pub fn bump(&mut self, metric: Metric, by: u64) {
        self.node.bump(metric, by);
    }

    /// Charges extra CPU to the current handler (rarely needed; the
    /// framework already charges per-dispatch costs).
    pub fn charge(&mut self, cost: VDur) {
        self.node.charge(cost);
    }

    /// True if event tracing is recording this run; see
    /// [`fortika_net::NodeCtx::trace_enabled`].
    pub fn trace_enabled(&self) -> bool {
        self.node.trace_enabled()
    }

    /// Records a protocol lifecycle marker for `instance` of `stack`;
    /// a no-op when tracing is off — see
    /// [`fortika_net::NodeCtx::trace_span`].
    pub fn trace_span(
        &mut self,
        stack: &'static str,
        instance: u64,
        phase: &'static str,
        detail: u64,
    ) {
        self.node.trace_span(stack, instance, phase, detail);
    }
}

/// The replica core (`fortika_net::replica`) runs against a module's
/// context as it does against a bare [`NodeCtx`]: everything forwards to
/// the hosting process, and sends go out under this module's frame.
impl ReplicaCtx for FrameworkCtx<'_, '_> {
    fn pid(&self) -> ProcessId {
        self.node.pid()
    }
    fn n(&self) -> usize {
        self.node.n()
    }
    fn now(&self) -> VTime {
        self.node.now()
    }
    fn costs(&self) -> &CostModel {
        self.node.costs()
    }
    fn persist(&mut self, key: u64, value: impl Into<StableRecord>) {
        self.node.persist(key, value);
    }
    fn unpersist(&mut self, keys: Range<u64>) {
        self.node.unpersist(keys);
    }
    fn charge_durability(&mut self, cost: VDur) {
        self.node.charge_durability(cost);
    }
    fn note_snapshot(&mut self, stamp: SnapshotStamp) {
        self.node.note_snapshot(stamp);
    }
    fn bump(&mut self, metric: Metric, by: u64) {
        self.node.bump(metric, by);
    }
    fn payload_digests(&mut self) -> &mut PayloadDigests {
        self.node.payload_digests()
    }
    fn trace_span(&mut self, stack: &'static str, instance: u64, phase: &'static str, detail: u64) {
        self.node.trace_span(stack, instance, phase, detail);
    }
    fn send(&mut self, dst: ProcessId, kind: Kind, body: impl Fn(&mut WireWriter)) {
        let framed = self.framed(body);
        self.node.send(dst, kind, framed);
    }
    fn broadcast(&mut self, kind: Kind, body: impl Fn(&mut WireWriter)) {
        let framed = self.framed(body);
        self.node.broadcast(kind, framed);
    }
}

/// A stack of microprotocols composed on one process.
///
/// Implements [`Node`], so a composite stack plugs straight into the
/// cluster harness. Event dispatch is synchronous and FIFO; every handler
/// invocation charges one `dispatch` cost from the cluster's
/// [`CostModel`] — the framework's per-hop CPU
/// price.
///
/// # Panics
///
/// Construction panics if two modules share a [`ModuleId`].
pub struct CompositeStack {
    modules: Vec<Box<dyn Microprotocol>>,
    /// `ids[i]` is `modules[i]`'s wire id: an arriving frame's module is
    /// found by a scan (a stack has a handful of modules).
    ids: Vec<ModuleId>,
    /// Subscribers of each event kind, indexed by the kind, in module
    /// order.
    subs: [Vec<usize>; EventKind::COUNT],
    bus: VecDeque<Event>,
}

impl CompositeStack {
    /// Composes a stack; `modules` are ordered top (application side)
    /// to bottom (network side). Request admission is offered top-down.
    pub fn new(modules: Vec<Box<dyn Microprotocol>>) -> Self {
        let mut ids = Vec::with_capacity(modules.len());
        let mut subs: [Vec<usize>; EventKind::COUNT] = Default::default();
        for (idx, m) in modules.iter().enumerate() {
            let id = m.module_id();
            assert!(
                !ids.contains(&id),
                "duplicate module id {id} ({})",
                m.name()
            );
            ids.push(id);
            for &kind in m.subscriptions() {
                subs[kind as usize].push(idx);
            }
        }
        CompositeStack {
            modules,
            ids,
            subs,
            bus: VecDeque::new(),
        }
    }

    /// Number of composed modules.
    pub fn len(&self) -> usize {
        self.modules.len()
    }

    /// True if the stack has no modules.
    pub fn is_empty(&self) -> bool {
        self.modules.is_empty()
    }

    fn drain_bus(&mut self, node: &mut NodeCtx<'_>) {
        // The subscriber table, the modules and the bus are separate
        // fields: the table is read while handlers push to the bus.
        let CompositeStack {
            modules,
            ids,
            subs,
            bus,
        } = self;
        // FIFO dispatch; events raised by handlers append to the back.
        while let Some(ev) = bus.pop_front() {
            for &idx in &subs[ev.kind() as usize] {
                node.charge_dispatch();
                let mut ctx = FrameworkCtx {
                    node,
                    bus,
                    module_idx: idx,
                    module_id: ids[idx],
                };
                modules[idx].on_event(&mut ctx, &ev);
            }
        }
    }
}

impl Node for CompositeStack {
    fn on_start(&mut self, node: &mut NodeCtx<'_>) {
        for idx in 0..self.modules.len() {
            node.charge_dispatch();
            let mut ctx = FrameworkCtx {
                node,
                bus: &mut self.bus,
                module_idx: idx,
                module_id: self.ids[idx],
            };
            self.modules[idx].on_start(&mut ctx);
        }
        self.drain_bus(node);
    }

    fn on_message(&mut self, node: &mut NodeCtx<'_>, from: ProcessId, bytes: Bytes) {
        let mut r = node.reader(bytes);
        let Ok(module_id) = r.get_u16() else {
            node.bump(metrics::GARBAGE, 1);
            return;
        };
        let Some(idx) = self.ids.iter().position(|&id| id == module_id) else {
            node.bump(metrics::UNROUTABLE, 1);
            return;
        };
        node.charge_dispatch();
        let mut ctx = FrameworkCtx {
            node,
            bus: &mut self.bus,
            module_idx: idx,
            module_id,
        };
        self.modules[idx].on_net(&mut ctx, from, r);
        self.drain_bus(node);
    }

    fn on_timer(&mut self, node: &mut NodeCtx<'_>, timer: TimerId, tag: u64) {
        let idx = (tag >> MODULE_TAG_SHIFT) as usize;
        let user_tag = tag & ((1 << MODULE_TAG_SHIFT) - 1);
        if idx >= self.modules.len() {
            node.bump(metrics::BAD_TIMER, 1);
            return;
        }
        node.charge_dispatch();
        let mut ctx = FrameworkCtx {
            node,
            bus: &mut self.bus,
            module_idx: idx,
            module_id: self.ids[idx],
        };
        self.modules[idx].on_timer(&mut ctx, timer, user_tag);
        self.drain_bus(node);
    }

    fn on_request(&mut self, node: &mut NodeCtx<'_>, req: AppRequest) -> Admission {
        let mut decision = Admission::Blocked;
        for idx in 0..self.modules.len() {
            node.charge_dispatch();
            let mut ctx = FrameworkCtx {
                node,
                bus: &mut self.bus,
                module_idx: idx,
                module_id: self.ids[idx],
            };
            if let Some(adm) = self.modules[idx].on_request(&mut ctx, &req) {
                decision = adm;
                break;
            }
        }
        self.drain_bus(node);
        decision
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fortika_net::{AppMsg, Cluster, ClusterConfig};

    fortika_net::metric_table! {
        mod names in TEST {
            events {
                TOP_ADELIVERED = "top.adelivered",
                BOTTOM_RX = "bottom.rx",
            }
            kinds {
                BOTTOM_FWD = "bottom.fwd",
                ROGUE_MSG = "rogue.msg",
            }
        }
    }

    /// Top module: admits requests and raises them as events.
    struct Top;
    impl Microprotocol for Top {
        fn name(&self) -> &'static str {
            "top"
        }
        fn module_id(&self) -> ModuleId {
            10
        }
        fn subscriptions(&self) -> &'static [EventKind] {
            &[EventKind::Adelivered]
        }
        fn on_event(&mut self, ctx: &mut FrameworkCtx<'_, '_>, ev: &Event) {
            if let Event::Adelivered(ids) = ev {
                ctx.bump(names::TOP_ADELIVERED, ids.len() as u64);
            }
        }
        fn on_request(
            &mut self,
            ctx: &mut FrameworkCtx<'_, '_>,
            req: &AppRequest,
        ) -> Option<Admission> {
            let AppRequest::Abcast(m) = req;
            ctx.raise(Event::AbcastRequest(m.clone()));
            Some(Admission::Accepted)
        }
    }

    /// Bottom module: ships admitted messages to peers; echoes deliveries.
    struct Bottom;
    impl Microprotocol for Bottom {
        fn name(&self) -> &'static str {
            "bottom"
        }
        fn module_id(&self) -> ModuleId {
            20
        }
        fn subscriptions(&self) -> &'static [EventKind] {
            &[EventKind::AbcastRequest]
        }
        fn on_event(&mut self, ctx: &mut FrameworkCtx<'_, '_>, ev: &Event) {
            if let Event::AbcastRequest(m) = ev {
                ctx.broadcast_net(names::BOTTOM_FWD, &m.payload);
                ctx.raise(Event::Adelivered(vec![m.id]));
            }
        }
        fn on_net(&mut self, ctx: &mut FrameworkCtx<'_, '_>, from: ProcessId, msg: WireReader) {
            ctx.bump(names::BOTTOM_RX, 1);
            let _ = (from, msg);
        }
    }

    fn stack() -> Box<dyn Node> {
        Box::new(CompositeStack::new(vec![Box::new(Top), Box::new(Bottom)]))
    }

    #[test]
    fn events_flow_between_modules_and_network() {
        let cfg = ClusterConfig::instant(2, 1);
        let mut cluster = Cluster::new(cfg, vec![stack(), stack()]);
        let msg = AppMsg::new(MsgId::new(ProcessId(0), 0), Bytes::from_static(b"hello"));
        cluster.run_idle(VTime::ZERO); // run on_start
        let (adm, _) = cluster.submit(ProcessId(0), AppRequest::Abcast(msg));
        assert_eq!(adm, Admission::Accepted);
        cluster.run_idle(VTime::ZERO + VDur::secs(1));
        assert_eq!(cluster.counters().kind("bottom.fwd").msgs, 1);
        assert_eq!(cluster.counters().event("bottom.rx"), 1);
        assert_eq!(cluster.counters().event("top.adelivered"), 1);
    }

    #[test]
    fn dispatch_cost_charged_per_hop() {
        let mut cfg = ClusterConfig::instant(2, 1);
        cfg.cost.dispatch = VDur::micros(10);
        let mut cluster = Cluster::new(cfg, vec![stack(), stack()]);
        cluster.run_idle(VTime::ZERO);
        let before = cluster.cpu_busy(ProcessId(0));
        let msg = AppMsg::new(MsgId::new(ProcessId(0), 0), Bytes::from_static(b"x"));
        cluster.submit(ProcessId(0), AppRequest::Abcast(msg));
        let spent = cluster.cpu_busy(ProcessId(0)).saturating_sub(before);
        // Hops on p1: on_request offer (1) + AbcastRequest dispatch (1)
        // + Adelivered dispatch (1) = 3 dispatches of 10 µs.
        assert_eq!(spent, VDur::micros(30));
    }

    #[test]
    #[should_panic(expected = "duplicate module id")]
    fn duplicate_module_ids_rejected() {
        let _ = CompositeStack::new(vec![Box::new(Top), Box::new(Top)]);
    }

    #[test]
    fn unroutable_messages_counted_not_fatal() {
        struct Rogue;
        impl Microprotocol for Rogue {
            fn name(&self) -> &'static str {
                "rogue"
            }
            fn module_id(&self) -> ModuleId {
                30
            }
            fn subscriptions(&self) -> &'static [EventKind] {
                &[]
            }
            fn on_start(&mut self, ctx: &mut FrameworkCtx<'_, '_>) {
                if ctx.pid() == ProcessId(0) {
                    // Send to a module id that does not exist at the peer.
                    ctx.send_net(ProcessId(1), names::ROGUE_MSG, &b'?');
                }
            }
        }
        let cfg = ClusterConfig::instant(2, 1);
        let nodes: Vec<Box<dyn Node>> = vec![
            Box::new(CompositeStack::new(vec![Box::new(Rogue)])),
            Box::new(CompositeStack::new(vec![Box::new(Top), Box::new(Bottom)])),
        ];
        let mut cluster = Cluster::new(cfg, nodes);
        cluster.run_idle(VTime::ZERO + VDur::secs(1));
        assert_eq!(cluster.counters().event("framework.unroutable"), 1);
    }
}
