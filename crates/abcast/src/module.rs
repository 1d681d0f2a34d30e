//! The modular atomic broadcast microprotocol.
//!
//! Chandra–Toueg reduction (§3.3 of the paper): messages submitted by the
//! application are *diffused* to all processes over plain quasi-reliable
//! channels (the paper's optimization over rbcast-based dissemination),
//! and a sequence of consensus instances decides the delivery order of
//! batches of pending messages.
//!
//! Because consensus is a black box here, the module:
//!
//! * cannot know who the coordinator is, so diffusion must go to
//!   **everyone** (the monolithic stack's optimization O2 is impossible);
//! * cannot combine its traffic with consensus messages (O1 impossible);
//! * relies on the consensus module's own decision dissemination (O3
//!   impossible).
//!
//! # Windowed instance execution
//!
//! The proposal path is a *windowed sequencer*: two cursors,
//! `next_propose` and `next_decide`, bound a window of at most
//! [`AbcastConfig::pipeline_depth`] consensus instances in flight.
//! With the default depth of 1 instances run strictly sequentially at
//! each process — instance `k+1` is proposed only after the decision of
//! instance `k` has been processed locally, the paper's Fig. 5 regime —
//! while larger depths overlap the decision round-trips of α
//! consecutive instances (the classic pipelining lever of Ring Paxos
//! and friends). Two invariants hold at every depth:
//!
//! * **in-order apply** — decisions are buffered and applied strictly
//!   in instance order, so `adeliver` order is identical to the
//!   α = 1 order of the same decision sequence;
//! * **no double proposal** — the pending set is deduplicated against
//!   batches already proposed in outstanding instances, so a message
//!   rides at most one in-flight proposal at a time.
//!
//! # Offloaded dissemination (`Ring` / `Tree`)
//!
//! With [`AbcastConfig::dissemination`] set to an offloading strategy,
//! the module separates payload dissemination from ordering (Ring
//! Paxos / Chop Chop style): own messages are staged and cut into
//! payload batches that travel **once** around the topology
//! (`fortika_net::dissemination::route`), consensus orders only
//! [`ValueId`]-sized descriptors, and a decided descriptor is applied
//! only when its payload has arrived too (stalling the in-order apply
//! cursor and pulling the payload from peers otherwise). A descriptor
//! becomes proposable only once a **majority** holds its payload (the
//! holder bitmap accumulates along the path; the pivotal holder acks
//! the origin), so a decided id can always be resolved despite crashes.
//! Reconfiguration commands keep traveling in full via the direct path
//! so the consensus service can read them out of decided batches.
//! `Direct` (the default) is byte-identical to the seed's diffusion
//! stack: no extra timers, messages or counters.
//!
//! Correctness note (also §3.3): diffusion over plain channels can lose a
//! message's copies when the *sender* crashes mid-diffusion. Delivery
//! happens only through decided batches, so agreement is preserved; a
//! consensus started after [`IDLE_TIMEOUT`] of silence (the paper's *t*,
//! shared with the monolithic stack) additionally keeps the instance
//! stream moving so that partially-diffused messages held by some
//! processes are eventually ordered (or safely forgotten if nobody
//! proposes them). Copies lost to link faults while the sender stays up
//! are the sender's to replace: the flow-control module above holds
//! every own message until it is adelivered and re-raises an overdue
//! one as an [`Event::AbcastRequest`] (see
//! [`fortika_net::flow::RESEND_INTERVAL`]), which this module answers
//! with a fresh diffusion — or, under an offloading strategy, by
//! recovering the overdue own payload batches.
//!
//! [`AbcastConfig`] holds only what the assembled stack sets per run
//! (depth, dissemination, initial membership); the timers are constants.

use std::collections::{BTreeMap, BTreeSet};

use fortika_framework::{Event, EventKind, FrameworkCtx, Microprotocol, ModuleId};
use fortika_net::dissemination::{
    descriptor_msg, fold_key, majority_of, route, DissemMsg, Dissemination, PayloadStore, ValueId,
};
use fortika_net::flow::RESEND_INTERVAL;
use fortika_net::metrics::abcast;
use fortika_net::replica::IDLE_TIMEOUT;
use fortika_net::wire::WireReader;
use fortika_net::{
    AppMsg, Batch, DeliveredSet, MsgId, ProcessId, ReservedSeq, StableStore, TimerId,
};
use fortika_sim::{VDur, VTime};

/// Wire demux id of the atomic broadcast module.
pub const ABCAST_MODULE_ID: ModuleId = 1;

const TAG_IDLE: u64 = 0;
const TAG_PULL: u64 = 1;

/// Stable-store key of the origin-local payload sequence counter
/// (namespace assigned in [`fortika_net::replica::keys`]) — a
/// [`ReservedSeq`], so a revived origin never reuses a [`ValueId`],
/// which peers may still hold payloads under, and the counter costs one
/// stable write per [`ReservedSeq::BLOCK`] payload batches, not one per
/// batch.
pub const ABCAST_STABLE_SEQ_KEY: u64 = fortika_net::replica::keys::ABCAST_SEQ;

/// How often a process stalled on a missing payload re-pulls it from
/// the membership (offloading strategies only).
const PULL_INTERVAL: VDur = VDur::millis(40);

/// Offload flow control: at most this many *own* payload batches
/// may be disseminated-but-undelivered at once; further submissions
/// stage until a slot frees. Smaller values mean larger payload
/// batches per topology round (the batching lever).
const MAX_OUTSTANDING_PAYLOADS: usize = 2;

/// Configuration of the modular atomic broadcast module.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AbcastConfig {
    /// The paper's α: how many consensus instances this process keeps
    /// in flight concurrently (the windowed-sequencer depth).
    ///
    /// `1` (the default) is the seed-faithful regime: instance `k+1` is
    /// proposed only after decision `k` was applied locally. Larger
    /// depths overlap decision round-trips; decisions are still
    /// **applied strictly in instance order**, so depth changes
    /// throughput and latency but never delivery order guarantees.
    /// Note the interaction with the flow-control `window`: each sender
    /// can only have `window` own messages outstanding, so a deep
    /// pipeline only fills if the flow window (× senders) offers enough
    /// distinct messages to populate α disjoint batches.
    pub pipeline_depth: u64,
    /// How batch payloads reach the other processes (see the module
    /// docs). `Direct` is the seed-faithful default.
    pub dissemination: Dissemination,
    /// Size of the initial configuration (0 = every process in the
    /// cluster) — seeds the dissemination topology until the first
    /// reconfiguration activates.
    pub initial_members: usize,
}

impl Default for AbcastConfig {
    fn default() -> Self {
        AbcastConfig {
            pipeline_depth: 1,
            dissemination: Dissemination::Direct,
            initial_members: 0,
        }
    }
}

/// The key a descriptor's delivery is tracked under in the delivered
/// set: the synthetic per-origin stream it also folds under in snapshots
/// (base bit stripped so the watermark stays dense and compactable),
/// which no application message id can collide with.
fn desc_key(vid: ValueId) -> MsgId {
    fold_key(vid.descriptor_id())
}

/// Bookkeeping for one own disseminated-but-undelivered payload batch.
#[derive(Debug)]
struct OwnPayload {
    /// When the payload's dissemination (or re-dissemination) last went
    /// out — once it is safe, its descriptor's diffusion.
    last_sent: VTime,
    /// True once a majority is known to hold the payload (its
    /// descriptor entered the proposable pending set).
    safe: bool,
}

/// The modular atomic broadcast microprotocol.
///
/// Consumes [`Event::AbcastRequest`] (from the flow-control module above)
/// and [`Event::Decide`] (from the consensus module below); raises
/// [`Event::Propose`] and [`Event::Adelivered`], and reports deliveries
/// to the harness.
pub struct AbcastModule {
    cfg: AbcastConfig,
    /// Received but not yet delivered messages.
    pending: BTreeMap<MsgId, AppMsg>,
    delivered: DeliveredSet,
    /// Next instance whose decision we will apply (the decided cursor).
    next_decide: u64,
    /// Next instance we will propose (the proposing cursor). Runs at
    /// most [`AbcastConfig::pipeline_depth`] ahead of `next_decide`.
    next_propose: u64,
    /// Message ids proposed in each outstanding instance (keys in
    /// `next_decide..next_propose`): the dedup set that keeps a pending
    /// message out of more than one in-flight proposal.
    proposed: BTreeMap<u64, Vec<MsgId>>,
    /// Decisions that arrived out of instance order.
    decision_buffer: BTreeMap<u64, Batch>,
    // --- offloaded-dissemination state (untouched under `Direct`) ---
    /// Current topology membership (configuration rotation order).
    members: Vec<ProcessId>,
    /// Members the failure detector currently suspects (routed around).
    suspected: BTreeSet<ProcessId>,
    /// Payloads held between dissemination and id-ordered delivery.
    store: PayloadStore,
    /// Own messages staged until an outstanding-payload slot frees.
    staged: Vec<AppMsg>,
    /// One past the highest own sequence number ever staged: a request
    /// below it is a resend, not a new message.
    own_next: u64,
    /// Own disseminated-but-undelivered payload batches by sequence.
    own_payloads: BTreeMap<u64, OwnPayload>,
    /// Next own payload sequence (reserved across restarts).
    payload_seq: ReservedSeq,
    /// Payloads a decided descriptor is stalled on → pull attempts.
    missing: BTreeMap<ValueId, u32>,
}

impl AbcastModule {
    /// Creates the module.
    pub fn new(cfg: AbcastConfig) -> Self {
        AbcastModule {
            cfg,
            pending: BTreeMap::new(),
            delivered: DeliveredSet::default(),
            next_decide: 0,
            next_propose: 0,
            proposed: BTreeMap::new(),
            decision_buffer: BTreeMap::new(),
            members: Vec::new(),
            suspected: BTreeSet::new(),
            store: PayloadStore::new(),
            staged: Vec::new(),
            own_next: 0,
            own_payloads: BTreeMap::new(),
            payload_seq: ReservedSeq::new(ABCAST_STABLE_SEQ_KEY),
            missing: BTreeMap::new(),
        }
    }

    /// Creates the module for a revived process: resumes the payload
    /// sequence counter at the bound reserved under
    /// `ABCAST_STABLE_SEQ_KEY` so the new incarnation never reuses a
    /// [`ValueId`] peers may still hold payloads under. Equivalent to
    /// [`new`](Self::new) under `Direct` (the counter is only ever
    /// persisted when offloading).
    pub fn resume(cfg: AbcastConfig, stable: &StableStore) -> Self {
        AbcastModule {
            payload_seq: ReservedSeq::resume(ABCAST_STABLE_SEQ_KEY, stable),
            ..Self::new(cfg)
        }
    }

    fn offloads(&self) -> bool {
        self.cfg.dissemination.offloads()
    }

    fn majority(&self) -> u32 {
        majority_of(self.members.len().max(1))
    }

    /// Instances proposed but not yet applied (current window load).
    fn in_flight(&self) -> u64 {
        self.next_propose - self.next_decide
    }

    /// Diffuses a full message to every other process (offloading
    /// strategies wrap it in the [`DissemMsg`] envelope).
    fn diffuse(&self, ctx: &mut FrameworkCtx<'_, '_>, msg: &AppMsg) {
        if self.offloads() {
            ctx.broadcast_net(abcast::DIFFUSE, &DissemMsg::Diffuse(msg.clone()));
        } else {
            ctx.broadcast_net(abcast::DIFFUSE, msg);
        }
    }

    /// The pending messages not already riding an outstanding proposal
    /// (empty when everything pending is claimed by the window).
    fn fresh_batch(&self) -> Batch {
        if self.proposed.values().all(Vec::is_empty) {
            return Batch::normalize(self.pending.values().cloned().collect());
        }
        let claimed: BTreeSet<MsgId> = self.proposed.values().flatten().copied().collect();
        Batch::normalize(
            self.pending
                .iter()
                .filter(|(id, _)| !claimed.contains(id))
                .map(|(_, m)| m.clone())
                .collect(),
        )
    }

    /// Fills the proposal window: keeps proposing fresh (unclaimed)
    /// pending messages for consecutive instances until the window holds
    /// `pipeline_depth` instances or nothing fresh is left.
    fn maybe_propose(&mut self, ctx: &mut FrameworkCtx<'_, '_>) {
        while self.in_flight() < self.cfg.pipeline_depth.max(1) {
            let batch = self.fresh_batch();
            if batch.is_empty() {
                return;
            }
            self.propose_now(ctx, batch);
        }
    }

    /// Proposes `batch` for instance `next_propose` and advances the
    /// proposing cursor.
    fn propose_now(&mut self, ctx: &mut FrameworkCtx<'_, '_>, batch: Batch) {
        self.proposed.insert(
            self.next_propose,
            batch.msgs().iter().map(|m| m.id).collect(),
        );
        ctx.bump(abcast::PROPOSALS, 1);
        if self.in_flight() > 0 {
            ctx.bump(abcast::PIPELINED_PROPOSALS, 1);
        }
        ctx.trace_span(
            "abcast",
            self.next_propose,
            "proposed",
            batch.msgs().len() as u64,
        );
        ctx.raise(Event::Propose {
            instance: self.next_propose,
            value: batch,
        });
        self.next_propose += 1;
    }

    /// Sends one payload batch along the dissemination topology from
    /// this process (origin or relay), routing around suspected members.
    fn send_payload(
        &mut self,
        ctx: &mut FrameworkCtx<'_, '_>,
        vid: ValueId,
        holders: u64,
        batch: &Batch,
    ) {
        let hops = route(
            self.cfg.dissemination,
            vid.origin,
            ctx.pid(),
            &self.members,
            &self.suspected,
        );
        if hops.next.is_empty() {
            return;
        }
        if hops.repaired {
            ctx.bump(abcast::RING_REPAIRS, 1);
        }
        let msg = DissemMsg::Payload {
            vid,
            holders,
            batch: batch.clone(),
        };
        for dst in hops.next {
            ctx.bump(abcast::RING_PAYLOAD_FORWARDS, 1);
            ctx.send_net(dst, abcast::PAYLOAD, &msg);
        }
    }

    /// Cuts staged own messages into a payload batch whenever an
    /// outstanding-payload slot is free, numbers it (reserving the next
    /// block of numbers when one runs out) and starts the batch around
    /// the topology.
    fn cut_payloads(&mut self, ctx: &mut FrameworkCtx<'_, '_>) {
        while !self.staged.is_empty() && self.own_payloads.len() < MAX_OUTSTANDING_PAYLOADS {
            let vid = ValueId {
                origin: ctx.pid(),
                seq: self.payload_seq.take(ctx),
            };
            let batch = Batch::normalize(std::mem::take(&mut self.staged));
            let holders = 1u64 << ctx.pid().index();
            let (merged, _) = self.store.absorb(vid, &batch, holders);
            self.own_payloads.insert(
                vid.seq,
                OwnPayload {
                    last_sent: ctx.now(),
                    safe: false,
                },
            );
            self.send_payload(ctx, vid, merged, &batch);
            if merged.count_ones() >= self.majority() {
                self.make_proposable(ctx, vid); // single-member config
            }
        }
    }

    /// Marks a majority-held payload's descriptor proposable: it enters
    /// the pending set (and the proposal window) like any message.
    fn make_proposable(&mut self, ctx: &mut FrameworkCtx<'_, '_>, vid: ValueId) {
        if !self.delivered.is_new(desc_key(vid)) {
            return;
        }
        let Some(entry) = self.store.get(vid) else {
            return;
        };
        let d = descriptor_msg(vid, entry.batch.len() as u32);
        if vid.origin == ctx.pid() {
            // The origin now knows a majority holds the payload: the
            // descriptor is safe to order. Diffuse it to everyone —
            // like the seed's full-message diffusion, every process
            // (in particular whichever coordinates the next instance)
            // must have it pending, only here the diffusion is a few
            // bytes instead of the payload. From here on the resend
            // re-diffuses the descriptor, on the same stamp.
            let newly_safe = match self.own_payloads.get_mut(&vid.seq) {
                Some(op) if !op.safe => {
                    op.safe = true;
                    op.last_sent = ctx.now();
                    true
                }
                _ => false,
            };
            if newly_safe {
                self.diffuse(ctx, &d);
            }
        }
        if let std::collections::btree_map::Entry::Vacant(e) = self.pending.entry(d.id) {
            e.insert(d);
            self.maybe_propose(ctx);
        }
    }

    /// Absorbs a payload copy arriving over the wire — a topology
    /// forward (`forward == true`: relay it onward, ack the origin when
    /// pivotal) or a pull response (`forward == false`).
    fn on_payload(
        &mut self,
        ctx: &mut FrameworkCtx<'_, '_>,
        vid: ValueId,
        holders: u64,
        batch: Batch,
        forward: bool,
    ) {
        if !self.delivered.is_new(desc_key(vid)) {
            return; // already delivered; the resolved cache serves pulls
        }
        let me_bit = 1u64 << ctx.pid().index();
        let (merged, newly_stored) = self.store.absorb(vid, &batch, holders | me_bit);
        if newly_stored && forward && self.members.contains(&ctx.pid()) {
            self.send_payload(ctx, vid, merged, &batch);
        }
        let maj = self.majority();
        let pivotal = forward && merged.count_ones() >= maj && holders.count_ones() < maj;
        // A topology leaf (no onward hop) acks too: in a tree, no
        // single copy's carried holder set spans sibling subtrees, so
        // only the union of the leaf views covers the membership.
        let leaf = forward
            && newly_stored
            && route(
                self.cfg.dissemination,
                vid.origin,
                ctx.pid(),
                &self.members,
                &self.suspected,
            )
            .next
            .is_empty();
        // Acks carry the acker's merged holder view so the origin can
        // accumulate holder knowledge even when no single copy crosses
        // the majority threshold: the pivotal holder and every topology
        // leaf ack, and so does every receiver of a direct push
        // (resend escalation or pull response) — unconditionally,
        // so lost acks are always rebuilt by the resend cycle.
        if vid.origin != ctx.pid() && (pivotal || leaf || !forward) {
            ctx.send_net(
                vid.origin,
                abcast::PAYLOAD_ACK,
                &DissemMsg::Ack {
                    vid,
                    holders: merged,
                },
            );
        }
        if merged.count_ones() >= maj {
            self.make_proposable(ctx, vid);
        }
        if self.missing.remove(&vid).is_some() {
            self.apply_ready_decisions(ctx);
        }
    }

    /// Sends one pull for a missing payload, rotating over the live
    /// candidates (origin first) across attempts.
    fn pull_one(&mut self, ctx: &mut FrameworkCtx<'_, '_>, vid: ValueId) {
        let me = ctx.pid();
        let mut candidates: Vec<ProcessId> = Vec::new();
        if vid.origin != me && !self.suspected.contains(&vid.origin) {
            candidates.push(vid.origin);
        }
        for &m in &self.members {
            if m != me && m != vid.origin && !self.suspected.contains(&m) {
                candidates.push(m);
            }
        }
        if candidates.is_empty() {
            return;
        }
        let attempts = self.missing.entry(vid).or_insert(0);
        let dst = candidates[*attempts as usize % candidates.len()];
        *attempts += 1;
        ctx.bump(abcast::PAYLOAD_PULLS, 1);
        ctx.send_net(dst, abcast::PAYLOAD_PULL, &DissemMsg::Pull { vid });
    }

    /// Re-forwards every held undelivered payload along the (possibly
    /// re-stitched) topology — successor-repair after a suspicion or a
    /// configuration change.
    fn repair_forward(&mut self, ctx: &mut FrameworkCtx<'_, '_>) {
        let held: Vec<(ValueId, u64, Batch)> = self
            .store
            .undelivered()
            .map(|(vid, e)| (vid, e.holders, e.batch.clone()))
            .collect();
        if held.is_empty() {
            return;
        }
        ctx.bump(abcast::RING_REPAIRS, 1);
        for (vid, holders, batch) in held {
            self.send_payload(ctx, vid, holders, &batch);
        }
    }

    /// Recovers the own payload batches whose last dissemination went
    /// out [`RESEND_INTERVAL`] or more ago. Short of a holder majority
    /// (lost forwards, lost acks), a topology re-forward cannot get
    /// past a hop that already stored the payload, so the resend pushes
    /// it directly at every member not known to hold it — receivers ack
    /// with their merged view and the origin accumulates holder
    /// knowledge until the descriptor is proposable. Once safe, the
    /// descriptor is re-diffused until it is decided.
    fn resend_payloads(&mut self, ctx: &mut FrameworkCtx<'_, '_>) {
        let (me, now) = (ctx.pid(), ctx.now());
        let overdue: Vec<u64> = self
            .own_payloads
            .iter()
            .filter(|(_, op)| now.since(op.last_sent) >= RESEND_INTERVAL)
            .map(|(&seq, _)| seq)
            .collect();
        for seq in overdue {
            let vid = ValueId { origin: me, seq };
            let Some(e) = self.store.get(vid) else {
                self.own_payloads.remove(&seq);
                continue;
            };
            let (holders, batch) = (e.holders, e.batch.clone());
            let op = self.own_payloads.get_mut(&seq).expect("listed overdue");
            op.last_sent = now;
            if op.safe {
                if let Some(d) = self.pending.get(&vid.descriptor_id()) {
                    self.diffuse(ctx, d);
                }
                continue;
            }
            let push = DissemMsg::Push {
                vid,
                holders,
                batch: batch.clone(),
            };
            let mut pushed = false;
            for &dst in self.members.iter().filter(|m| {
                **m != me && holders & (1u64 << m.index()) == 0 && !self.suspected.contains(m)
            }) {
                ctx.send_net(dst, abcast::PAYLOAD_PUSH, &push);
                pushed = true;
            }
            if !pushed {
                // Everyone left is suspected: fall back to the
                // (repair-routed) topology forward.
                self.send_payload(ctx, vid, holders, &batch);
            }
        }
    }

    fn apply_ready_decisions(&mut self, ctx: &mut FrameworkCtx<'_, '_>) {
        while let Some(batch) = self.decision_buffer.remove(&self.next_decide) {
            if self.offloads() {
                // Id order *and* payload must both have arrived: the
                // instance applies atomically only when every
                // undelivered descriptor it decides is resolvable.
                let mut stalled = false;
                for msg in batch.msgs() {
                    if let Some(vid) = ValueId::from_descriptor(msg.id) {
                        if self.delivered.is_new(desc_key(vid)) && self.store.get(vid).is_none() {
                            stalled = true;
                            if !self.missing.contains_key(&vid) {
                                self.pull_one(ctx, vid);
                            }
                        }
                    }
                }
                if stalled {
                    self.decision_buffer.insert(self.next_decide, batch);
                    break;
                }
            }
            let mut ids = Vec::new();
            let mut freed_slot = false;
            for msg in batch.msgs() {
                if let Some(vid) = ValueId::from_descriptor(msg.id) {
                    if !self.delivered.is_new(desc_key(vid)) {
                        continue; // already delivered in an earlier instance
                    }
                    self.delivered.mark(desc_key(vid));
                    self.pending.remove(&msg.id);
                    let payload = self
                        .store
                        .resolve(vid)
                        .expect("stall gate checked payload presence");
                    if vid.origin == ctx.pid() && self.own_payloads.remove(&vid.seq).is_some() {
                        freed_slot = true;
                    }
                    for m in payload.msgs() {
                        if !self.delivered.is_new(m.id) {
                            continue;
                        }
                        self.delivered.mark(m.id);
                        ctx.deliver(m.id, m.payload.len() as u32);
                        ids.push(m.id);
                    }
                } else {
                    if !self.delivered.is_new(msg.id) {
                        continue; // already delivered in an earlier instance
                    }
                    self.delivered.mark(msg.id);
                    self.pending.remove(&msg.id);
                    ctx.deliver(msg.id, msg.payload.len() as u32);
                    ids.push(msg.id);
                }
            }
            ctx.bump(abcast::INSTANCES_APPLIED, 1);
            ctx.trace_span("abcast", self.next_decide, "applied", ids.len() as u64);
            if !ids.is_empty() {
                ctx.bump(abcast::DELIVERED, ids.len() as u64);
                ctx.raise(Event::Adelivered(ids));
            }
            self.proposed.remove(&self.next_decide);
            self.next_decide += 1;
            self.next_propose = self.next_propose.max(self.next_decide);
            if freed_slot {
                self.cut_payloads(ctx);
            }
        }
        self.maybe_propose(ctx);
    }
}

impl Microprotocol for AbcastModule {
    fn name(&self) -> &'static str {
        "atomic-broadcast"
    }

    fn module_id(&self) -> ModuleId {
        ABCAST_MODULE_ID
    }

    fn subscriptions(&self) -> &'static [EventKind] {
        if self.cfg.dissemination.offloads() {
            &[
                EventKind::AbcastRequest,
                EventKind::Decide,
                EventKind::InstallSnapshot,
                EventKind::Suspect,
                EventKind::Restore,
                EventKind::ConfigActive,
            ]
        } else {
            &[
                EventKind::AbcastRequest,
                EventKind::Decide,
                EventKind::InstallSnapshot,
            ]
        }
    }

    fn on_start(&mut self, ctx: &mut FrameworkCtx<'_, '_>) {
        ctx.set_timer(IDLE_TIMEOUT, TAG_IDLE);
        if self.offloads() {
            let m = if self.cfg.initial_members > 0 {
                self.cfg.initial_members
            } else {
                ctx.n()
            };
            self.members = ProcessId::all(m).collect();
            ctx.set_timer(PULL_INTERVAL, TAG_PULL);
        }
    }

    fn on_event(&mut self, ctx: &mut FrameworkCtx<'_, '_>, ev: &Event) {
        match ev {
            Event::AbcastRequest(msg) => {
                debug_assert_eq!(msg.id.sender, ctx.pid(), "abcast of foreign message");
                // Reconfiguration commands always travel in full — the
                // consensus service reads them out of decided batches.
                let direct = !self.offloads() || msg.id.is_reconfig();
                if direct {
                    // Diffuse to everyone — the modular stack cannot
                    // target the coordinator (consensus is a black box).
                    self.diffuse(ctx, msg);
                    if self.delivered.is_new(msg.id) {
                        self.pending.insert(msg.id, msg.clone());
                    }
                    self.maybe_propose(ctx);
                } else if msg.id.seq < self.own_next {
                    // A resend: the message is staged or rides an own
                    // payload batch already.
                    self.resend_payloads(ctx);
                } else {
                    self.own_next = msg.id.seq + 1;
                    if self.delivered.is_new(msg.id) {
                        self.staged.push(msg.clone());
                    }
                    self.cut_payloads(ctx);
                }
            }
            Event::Decide { instance, value } => {
                self.decision_buffer.insert(*instance, value.clone());
                self.apply_ready_decisions(ctx);
            }
            Event::InstallSnapshot { snapshot } => {
                // The consensus module installed a log-compaction
                // snapshot (rejoin catch-up): the compacted instances
                // will never be decided here, so skip straight past
                // them, seed duplicate suppression with the prefix's
                // delivered sets, and drop state the snapshot made moot.
                let next = snapshot.last_included + 1;
                if next > self.next_decide {
                    self.next_decide = next;
                    self.next_propose = self.next_propose.max(next);
                    // Window entries the snapshot compacted away will
                    // never be decided here; outstanding proposals past
                    // the snapshot stay live.
                    self.proposed = self.proposed.split_off(&next);
                }
                // Descriptor streams included (offloaded dissemination):
                // compacted payloads are never replayed — only their
                // dedup watermarks survive the install.
                for log in &snapshot.delivered {
                    self.delivered.seed(log);
                }
                self.decision_buffer = self.decision_buffer.split_off(&self.next_decide);
                let delivered = &self.delivered;
                // Own in-flight messages the snapshot covers were
                // ordered cluster-wide: raise their Adelivered so the
                // flow-control module above settles them (their
                // app-level delivery is replaced by the install).
                let me = ctx.pid();
                let mut own_done: Vec<MsgId> = self
                    .pending
                    .keys()
                    .filter(|id| id.sender == me && !delivered.is_new(**id))
                    .copied()
                    .collect();
                self.pending.retain(|id, _| delivered.is_new(fold_key(*id)));
                if self.offloads() {
                    // Store compaction: payloads whose descriptors the
                    // snapshot folded will never be decided here again.
                    let covered_own: Vec<u64> = self
                        .own_payloads
                        .keys()
                        .filter(|&&seq| !delivered.is_new(desc_key(ValueId { origin: me, seq })))
                        .copied()
                        .collect();
                    for seq in covered_own {
                        self.own_payloads.remove(&seq);
                        if let Some(e) = self.store.get(ValueId { origin: me, seq }) {
                            own_done.extend(e.batch.msgs().iter().map(|m| m.id));
                        }
                    }
                    self.store.compact(|vid| !delivered.is_new(desc_key(vid)));
                    self.missing
                        .retain(|vid, _| delivered.is_new(desc_key(*vid)));
                }
                if !own_done.is_empty() {
                    ctx.raise(Event::Adelivered(own_done));
                }
                ctx.bump(abcast::SNAPSHOT_INSTALLS, 1);
                ctx.trace_span("abcast", snapshot.last_included, "snapshot_install", 0);
                // Buffered decisions past the snapshot may be contiguous
                // now; deliver them and re-propose what is still pending.
                self.apply_ready_decisions(ctx);
                if self.offloads() {
                    self.cut_payloads(ctx);
                }
            }
            Event::Suspect(p) if self.offloads() && self.suspected.insert(*p) => {
                // Successor-repair: re-forward held payloads along
                // the topology routed around the suspect.
                self.repair_forward(ctx);
            }
            Event::Restore(p) => {
                self.suspected.remove(p);
            }
            Event::ConfigActive { stamp } if self.offloads() => {
                self.members = stamp.members.clone();
                // Re-stitch: the topology is recomputed over the new
                // membership; held payloads restart their journey so
                // an added member is not left with holes.
                self.repair_forward(ctx);
            }
            _ => {}
        }
    }

    fn on_net(&mut self, ctx: &mut FrameworkCtx<'_, '_>, from: ProcessId, msg: WireReader) {
        if !self.offloads() {
            let Ok(msg) = msg.get_only::<AppMsg>() else {
                ctx.bump(abcast::GARBAGE, 1);
                return;
            };
            if self.delivered.is_new(msg.id) && !self.pending.contains_key(&msg.id) {
                self.pending.insert(msg.id, msg);
                self.maybe_propose(ctx);
            }
            return;
        }
        let Ok(dm) = msg.get_only::<DissemMsg>() else {
            ctx.bump(abcast::GARBAGE, 1);
            return;
        };
        match dm {
            DissemMsg::Diffuse(msg) => {
                // Descriptors dedup against the descriptor stream (the
                // payload may not be held here — the majority-holder
                // invariant keeps a decided id resolvable via pulls).
                if self.delivered.is_new(fold_key(msg.id)) && !self.pending.contains_key(&msg.id) {
                    self.pending.insert(msg.id, msg);
                    self.maybe_propose(ctx);
                }
            }
            DissemMsg::Payload {
                vid,
                holders,
                batch,
            } => self.on_payload(ctx, vid, holders, batch, true),
            DissemMsg::Push {
                vid,
                holders,
                batch,
            } => self.on_payload(ctx, vid, holders, batch, false),
            DissemMsg::Ack { vid, holders } => {
                if vid.origin == ctx.pid()
                    && self.own_payloads.get(&vid.seq).is_some_and(|op| !op.safe)
                {
                    let acker = 1u64 << from.index();
                    let merged = self
                        .store
                        .merge_holders(vid, holders | acker)
                        .unwrap_or(holders | acker);
                    if merged.count_ones() >= self.majority() {
                        self.make_proposable(ctx, vid);
                    }
                }
            }
            DissemMsg::Pull { vid } => {
                if let Some((batch, holders)) = self.store.lookup(vid) {
                    let reply = DissemMsg::Push {
                        vid,
                        holders,
                        batch: batch.clone(),
                    };
                    ctx.send_net(from, abcast::PAYLOAD_PUSH, &reply);
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut FrameworkCtx<'_, '_>, _timer: TimerId, tag: u64) {
        match tag {
            TAG_IDLE => {
                // The paper's liveness guard: periodically run consensus
                // even with nothing to order, so every process keeps
                // advancing through the instance stream. Pipeline-aware:
                // the keep-alive fires only when *no* instance is in
                // flight, so under load an idle (possibly empty-batch)
                // proposal never consumes a window slot that real
                // traffic could use.
                if self.in_flight() == 0 {
                    ctx.bump(abcast::IDLE_PROPOSALS, 1);
                    let batch = self.fresh_batch();
                    self.propose_now(ctx, batch);
                }
                ctx.set_timer(IDLE_TIMEOUT, TAG_IDLE);
            }
            TAG_PULL => {
                // Pull-based repair: keep asking live peers for the
                // payloads the decided cursor is stalled on.
                let wanted: Vec<ValueId> = self.missing.keys().copied().take(32).collect();
                for vid in wanted {
                    self.pull_one(ctx, vid);
                }
                ctx.set_timer(PULL_INTERVAL, TAG_PULL);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_defaults() {
        let cfg = AbcastConfig::default();
        assert_eq!(cfg.pipeline_depth, 1);
        assert_eq!(cfg.dissemination, Dissemination::Direct);
    }

    #[test]
    fn direct_module_subscribes_like_the_seed() {
        let direct = AbcastModule::new(AbcastConfig::default());
        assert_eq!(direct.subscriptions().len(), 3);
        let ring = AbcastModule::new(AbcastConfig {
            dissemination: Dissemination::Ring,
            ..AbcastConfig::default()
        });
        assert!(ring.subscriptions().contains(&EventKind::ConfigActive));
    }
}
