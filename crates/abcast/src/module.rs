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
//! with a fresh diffusion.
//!
//! [`AbcastConfig`] holds only what the assembled stack sets per run
//! (the depth); the idle timeout is a constant.

use std::collections::{BTreeMap, BTreeSet};

use fortika_framework::{Event, EventKind, FrameworkCtx, Microprotocol, ModuleId};
use fortika_net::metrics::abcast;
use fortika_net::replica::IDLE_TIMEOUT;
use fortika_net::wire::WireReader;
use fortika_net::{AppMsg, Batch, DeliveredSet, MsgId, ProcessId, TimerId};

/// Wire demux id of the atomic broadcast module.
pub const ABCAST_MODULE_ID: ModuleId = 1;

const TAG_IDLE: u64 = 0;

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
}

impl Default for AbcastConfig {
    fn default() -> Self {
        AbcastConfig { pipeline_depth: 1 }
    }
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
        }
    }

    /// Instances proposed but not yet applied (current window load).
    fn in_flight(&self) -> u64 {
        self.next_propose - self.next_decide
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

    fn apply_ready_decisions(&mut self, ctx: &mut FrameworkCtx<'_, '_>) {
        while let Some(batch) = self.decision_buffer.remove(&self.next_decide) {
            let mut ids = Vec::new();
            for msg in batch.msgs() {
                if !self.delivered.is_new(msg.id) {
                    continue; // already delivered in an earlier instance
                }
                self.delivered.mark(msg.id);
                self.pending.remove(&msg.id);
                ctx.deliver(msg.id, msg.payload.len() as u32);
                ids.push(msg.id);
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
        &[
            EventKind::AbcastRequest,
            EventKind::Decide,
            EventKind::InstallSnapshot,
        ]
    }

    fn on_start(&mut self, ctx: &mut FrameworkCtx<'_, '_>) {
        ctx.set_timer(IDLE_TIMEOUT, TAG_IDLE);
    }

    fn on_event(&mut self, ctx: &mut FrameworkCtx<'_, '_>, ev: &Event) {
        match ev {
            Event::AbcastRequest(msg) => {
                debug_assert_eq!(msg.id.sender, ctx.pid(), "abcast of foreign message");
                // Diffuse to everyone — the modular stack cannot target
                // the coordinator (consensus is a black box).
                ctx.broadcast_net(abcast::DIFFUSE, msg);
                if self.delivered.is_new(msg.id) {
                    self.pending.insert(msg.id, msg.clone());
                }
                self.maybe_propose(ctx);
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
                let own_done: Vec<MsgId> = self
                    .pending
                    .keys()
                    .filter(|id| id.sender == me && !delivered.is_new(**id))
                    .copied()
                    .collect();
                self.pending.retain(|id, _| delivered.is_new(*id));
                if !own_done.is_empty() {
                    ctx.raise(Event::Adelivered(own_done));
                }
                ctx.bump(abcast::SNAPSHOT_INSTALLS, 1);
                ctx.trace_span("abcast", snapshot.last_included, "snapshot_install", 0);
                // Buffered decisions past the snapshot may be contiguous
                // now; deliver them and re-propose what is still pending.
                self.apply_ready_decisions(ctx);
            }
            _ => {}
        }
    }

    fn on_net(&mut self, ctx: &mut FrameworkCtx<'_, '_>, _from: ProcessId, msg: WireReader) {
        let Ok(msg) = msg.get_only::<AppMsg>() else {
            ctx.bump(abcast::GARBAGE, 1);
            return;
        };
        if self.delivered.is_new(msg.id) && !self.pending.contains_key(&msg.id) {
            self.pending.insert(msg.id, msg);
            self.maybe_propose(ctx);
        }
    }

    fn on_timer(&mut self, ctx: &mut FrameworkCtx<'_, '_>, _timer: TimerId, tag: u64) {
        if tag != TAG_IDLE {
            return;
        }
        // The paper's liveness guard: periodically run consensus even
        // with nothing to order, so every process keeps advancing
        // through the instance stream. Pipeline-aware: the keep-alive
        // fires only when *no* instance is in flight, so under load an
        // idle (possibly empty-batch) proposal never consumes a window
        // slot that real traffic could use.
        if self.in_flight() == 0 {
            ctx.bump(abcast::IDLE_PROPOSALS, 1);
            let batch = self.fresh_batch();
            self.propose_now(ctx, batch);
        }
        ctx.set_timer(IDLE_TIMEOUT, TAG_IDLE);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_defaults() {
        let cfg = AbcastConfig::default();
        assert_eq!(cfg.pipeline_depth, 1);
    }
}
