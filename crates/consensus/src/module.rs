//! The consensus microprotocol: multi-instance Chandra–Toueg.
//!
//! # Algorithm (per instance)
//!
//! Rounds rotate coordinators (`coord(r) = p_{(r mod n)+1}`). The
//! implementation carries the paper's modular-side optimizations (§3.2):
//!
//! 1. **A direct round has no estimate phase**: its coordinator proposes
//!    its own initial value directly (Fig. 3). Round 0 is one; after a
//!    coordinator change, so is the round every process promised for the
//!    instances it had not opened yet, once a majority did
//!    ([`fortika_net::rounds`]).
//! 2. **Rounds advance only on suspicion**: instead of free-running
//!    rounds, a process moves to round `r+1` (sending its estimate to the
//!    new coordinator) only while its failure detector suspects the
//!    current coordinator — a state, not only the moment it starts: an
//!    instance that opens in a round whose coordinator is suspected
//!    advances at once. With the estimate goes one promise of `r+1` for
//!    every instance not yet opened, which open in it: a coordinator that
//!    is down costs one detector timeout and one estimate round for the
//!    instances live at the suspicion — not a round change, an estimate
//!    phase and a full-value decision per instance for as long as it
//!    stays down — and coordination stays with the new coordinator when
//!    the old one comes back. A slow periodic sweep additionally rotates
//!    rounds for instances that make no progress, which preserves
//!    liveness under pathological mixed-suspicion schedules.
//! 3. **The coordinator decides, then disseminates the decision as a
//!    `DECISION` tag** through the reliable broadcast module: it raises
//!    its own [`Event::Decide`] first, so its upcalls are not charged
//!    behind the broadcast's n−1 sends — a deciding coordinator applies
//!    before it disseminates, on both stacks. In a direct round the
//!    notice carries no value — receivers decide the proposal of that
//!    round they already hold. A receiver missing the proposal
//!    (possible when the coordinator crashed mid-round) pulls the value
//!    through the replica core's one catch-up protocol
//!    ([`ReplicaCore::resolve_tag`]), like any other caught-up value. A
//!    round that went through an estimate phase ships the full value.
//!
//! Safety is the classic CT argument: a decision in round `r` requires
//! acks from a majority, every ack locks the proposal as the acker's
//! estimate with timestamp `r`, and any later coordinator gathers
//! estimates from a majority — which intersects every ack quorum — and
//! adopts the max-timestamp estimate.
//!
//! # Pipelined instances
//!
//! All per-instance state — protocol rounds, durable vote records, the
//! decided log and its watermark GC — is keyed by instance number, so
//! any number of instances may run **concurrently**: the module is
//! agnostic to how far ahead the delivery layer's windowed sequencer
//! proposes (`ReplicaConfig::pipeline_depth` only informs the gap
//! heuristic, which must not mistake in-flight window instances for
//! missed decisions). That heuristic, its trigger and its cursor are the
//! replica core's: every peer proposal passes
//! [`ReplicaCore::admit_proposal`], every estimate
//! [`ReplicaCore::admit_estimate`] and every decision notice
//! [`ReplicaCore::admit_decision`], which pull what is missing above the
//! core's replayed prefix and answer a peer still working on an instance
//! decided here, as on the monolithic stack. Decisions are
//! raised as they land; the layer above buffers and applies them
//! strictly in instance order.
//!
//! # What is shared with the monolithic stack
//!
//! Everything above except *which message carries what*. The round
//! machine — when a process may lock, vote, propose or change round, and
//! what a coordinator of a later round must propose — together with what
//! a replica must remember across a crash (durable votes, the decided
//! fence), how it catches up afterwards (pulls answered by state or
//! snapshot transfer),
//! and how it bounds its history (log compaction) are the same protocol
//! on both stacks and live in
//! [`fortika_net::replica`] and [`fortika_net::rounds`]. This module hosts
//! a [`ReplicaCore`] and owns what is the modular stack's thesis: the
//! initial value arrives as [`Event::Propose`] from a neighbour it knows
//! nothing about, proposals, acks and estimates travel as bare
//! [`ConsensusMsg`]s with nothing riding along, decisions go out through
//! the reliable broadcast module, an unlocked coordinator proposes one
//! estimate as it is, and every outcome is handed to the stack as an
//! event: a recorded decision raises [`Event::Decide`] (so a revived
//! process re-delivers the replayed prefix through the layer above), an
//! installed snapshot raises [`Event::InstallSnapshot`], and a change of
//! the coordinator it waits on raises [`Event::Coordinator`]. See
//! `docs/DIVERGENCE.md` for every mechanism one stack has and the other
//! lacks.

use fortika_framework::{Event, EventKind, FrameworkCtx, Microprotocol, ModuleId};
use fortika_net::metrics::consensus;
use fortika_net::replica::SWEEP_INTERVAL;
use fortika_net::wire::{decode, encode, WireReader};
use fortika_net::{
    AppState, Batch, ProcessId, QuorumChoice, ReplicaConfig, ReplicaCore, ReplicaHost, StableStore,
    TimerId,
};

use crate::msg::{ConsensusMsg, DecisionNotice, REPLICA_NAMES};

/// Wire demux id of the consensus module.
pub const CONSENSUS_MODULE_ID: ModuleId = 2;

/// Reliable-broadcast stream carrying decision notices.
pub const DECISION_STREAM: u8 = 0;

const TAG_SWEEP: u64 = 0;

/// The consensus microprotocol.
///
/// Consumes [`Event::Propose`], raises [`Event::Decide`]; uses the
/// reliable broadcast service (stream [`DECISION_STREAM`]) for decision
/// dissemination, reacts to [`Event::Suspect`]/[`Event::Restore`], and
/// names the coordinator it waits on to the failure detector with
/// [`Event::Coordinator`].
pub struct ConsensusModule {
    /// Durable votes, decided log, round state, compaction and catch-up
    /// (shared with the monolithic stack).
    core: ReplicaCore,
    /// The coordinator last announced to the failure detector.
    announced: Option<ProcessId>,
}

impl Default for ConsensusModule {
    fn default() -> Self {
        Self::new()
    }
}

impl ConsensusModule {
    /// Creates the module with the default replica knobs (fresh start
    /// at time zero).
    pub fn new() -> Self {
        Self::with_replica(ReplicaConfig::default(), None)
    }

    /// Creates the module with the given replica knobs. With `stable`,
    /// it is the module of a process revived after a crash: the core
    /// replays the persisted votes, decided watermark, snapshot and
    /// promise and rejoins (see
    /// [`ReplicaCore::resume`]).
    pub fn with_replica(replica: ReplicaConfig, stable: Option<&StableStore>) -> Self {
        let core = match stable {
            Some(stable) => ReplicaCore::resume(replica, &REPLICA_NAMES, stable),
            None => ReplicaCore::new(replica, &REPLICA_NAMES),
        };
        ConsensusModule {
            core,
            announced: None,
        }
    }

    /// Attaches an application-state hook to the snapshot fold (call
    /// right after construction, before the module processes anything).
    pub fn with_app(mut self, app: Option<Box<dyn AppState>>) -> Self {
        self.core.set_app(app);
        self
    }

    /// Registers a decision locally: records it in the replica core,
    /// drops per-instance state and raises [`Event::Decide`] — also for
    /// the decided prefix a revived process learns through state
    /// transfer, which the layer above thereby re-delivers.
    fn decide_local(&mut self, ctx: &mut FrameworkCtx<'_, '_>, instance: u64, value: Batch) {
        if !self.record_decision(ctx, instance, &value) {
            return;
        }
        self.core.close(instance);
        ctx.bump(consensus::DECIDED, 1);
        ctx.trace_span("consensus", instance, "decided", 0);
        ctx.raise(Event::Decide { instance, value });
    }

    /// Coordinator-side: a majority acked our proposal — decide, then
    /// disseminate.
    ///
    /// A deciding coordinator applies before it disseminates (as the
    /// monolith's `conclude_as_coordinator` does): FIFO dispatch runs
    /// `Decide`, the layer above's upcalls and its next `Propose` before
    /// the reliable broadcast module charges its n−1 sends. Every send
    /// still leaves when this handler returns, and the notice still
    /// leaves ahead of the next proposal, whose `Propose` queues behind
    /// the `Rbcast` raised here.
    fn try_conclude(&mut self, ctx: &mut FrameworkCtx<'_, '_>, instance: u64) {
        let Some((round, value)) = self.core.quorum_acked(instance, ctx.n()) else {
            return;
        };
        // Decisions of a direct proposal (round 0, or a promised round)
        // ride as a tiny DECISION tag; after an estimate phase they ship
        // the full value (receivers may lack the proposal).
        let full = if self.core.rounds().tag_decides(instance) {
            None
        } else {
            Some(value.clone())
        };
        let notice = DecisionNotice {
            instance,
            round,
            full,
        };
        self.decide_local(ctx, instance, value);
        ctx.raise(Event::Rbcast {
            stream: DECISION_STREAM,
            payload: encode(&notice),
        });
    }

    /// Coordinator-side: locks `value` in `instance`'s current round and
    /// proposes it (the self-ack may already be the majority).
    fn propose(&mut self, ctx: &mut FrameworkCtx<'_, '_>, instance: u64, value: Batch) {
        let round = self.core.lock(ctx, instance, &value);
        let msg = ConsensusMsg::Propose {
            instance,
            round,
            value,
        };
        ctx.broadcast_net(consensus::PROPOSAL, &msg);
        self.try_conclude(ctx, instance);
    }

    /// Coordinator-side: propose once a majority of estimates for the
    /// current round has been gathered (rounds ≥ 1 only).
    fn try_propose_from_estimates(&mut self, ctx: &mut FrameworkCtx<'_, '_>, instance: u64) {
        let value = match self.core.quorum_choice(instance, ctx.pid(), ctx.n()) {
            None => return,
            Some(QuorumChoice::Locked(value)) => value,
            // Unlike the monolithic stack, a tie among ts-0 estimates
            // needs no batch union here: consensus promises strict
            // validity (the decision is *a* proposed value), and
            // messages missing from the winning estimate stay pending in
            // the abcast module, which re-proposes them next instance
            // and re-diffuses them to every process (including future
            // coordinators) when flow control resends them.
            Some(QuorumChoice::Unlocked(mut values)) => values.swap_remove(0),
        };
        self.propose(ctx, instance, value);
    }

    /// Coordinator-side: proposes at `instance` with no estimate phase
    /// ([`ReplicaCore::direct_round`] allowed it) the value it holds —
    /// its initial value, or a lock of this very round it recovered.
    fn propose_direct(&mut self, ctx: &mut FrameworkCtx<'_, '_>, instance: u64) {
        let held = self.core.rounds().estimate(instance);
        let value = held.map(|(v, _)| v.clone()).unwrap_or_default();
        self.propose(ctx, instance, value);
    }

    fn on_propose_event(&mut self, ctx: &mut FrameworkCtx<'_, '_>, instance: u64, value: Batch) {
        if self.core.is_decided(instance) {
            return;
        }
        let (me, n) = (ctx.pid(), ctx.n());
        self.core.offer(instance, ctx.now(), value);
        ctx.bump(consensus::INSTANCES, 1);
        ctx.trace_span("consensus", instance, "open", 0);
        if self.core.coordinator_suspected(instance, n) {
            // Opened in a round whose coordinator is already suspected:
            // rotate now, as the suspicion would have done had it come
            // after the opening.
            self.advance_round(ctx, instance);
            return;
        }
        if self.core.direct_round(instance, me, n).is_some() {
            // Round 0 — or a round a majority promised — and we
            // coordinate: propose our own initial value immediately (no
            // estimate phase — first optimization).
            self.propose_direct(ctx, instance);
            return;
        }
        let round = self.core.rounds().unproposed_round(instance);
        if round.is_some_and(|r| r > 0 && ReplicaCore::coordinator_of(r, n) == me) {
            // We are (now) the coordinator of a later round and were
            // only waiting for our own initial value.
            self.core.join_own_estimate(me, instance, || None);
            self.try_propose_from_estimates(ctx, instance);
        }
    }

    fn on_net_propose(
        &mut self,
        ctx: &mut FrameworkCtx<'_, '_>,
        from: ProcessId,
        instance: u64,
        round: u32,
        value: Batch,
    ) {
        if !self.core.admit_proposal(ctx, from, instance, round) {
            return; // not the round's coordinator, or decided here
        }
        let vote = self.core.vote(ctx, instance, round, &value);
        if vote.voted {
            let ack = ConsensusMsg::Ack { instance, round };
            ctx.send_net(from, consensus::ACK, &ack);
        }
        if vote.tag_hit {
            self.decide_local(ctx, instance, value);
        }
    }

    fn on_net_estimate(
        &mut self,
        ctx: &mut FrameworkCtx<'_, '_>,
        from: ProcessId,
        instance: u64,
        round: u32,
        value: Batch,
        ts: u32,
    ) {
        if !self.core.admit_estimate(ctx, from, instance) {
            return; // decided here
        }
        let me = ctx.pid();
        if ReplicaCore::coordinator_of(round, ctx.n()) != me {
            return; // misdirected
        }
        let now = ctx.now();
        let Some(joined) = self
            .core
            .record_estimate(from, instance, round, value, ts, now)
        else {
            return;
        };
        if joined {
            // Peers moved past us into the round we are to coordinate;
            // our estimate joins once we hold one (`Event::Propose`).
            self.core.join_own_estimate(me, instance, || None);
        }
        self.try_propose_from_estimates(ctx, instance);
    }

    fn on_net_ack(
        &mut self,
        ctx: &mut FrameworkCtx<'_, '_>,
        from: ProcessId,
        instance: u64,
        round: u32,
    ) {
        if !self.core.is_decided(instance) && self.core.record_ack(from, instance, round) {
            self.try_conclude(ctx, instance);
        }
    }

    fn on_notice(
        &mut self,
        ctx: &mut FrameworkCtx<'_, '_>,
        origin: ProcessId,
        notice: DecisionNotice,
    ) {
        let instance = notice.instance;
        self.core
            .admit_decision(ctx, origin, instance, notice.round);
        if self.core.is_decided(instance) {
            return;
        }
        // A tag-only notice decides the matching proposal, which we must
        // hold; if not, the core pulls the value from the decider.
        let value = match notice.full {
            Some(value) => Some(value),
            None => self.core.resolve_tag(ctx, origin, instance, notice.round),
        };
        if let Some(value) = value {
            self.decide_local(ctx, instance, value);
        }
    }

    /// Raises [`Event::Coordinator`] when the coordinator this process
    /// waits on changed; run after every handler.
    fn announce_coordinator(&mut self, ctx: &mut FrameworkCtx<'_, '_>) {
        let coordinator = self.core.live_coordinator(ctx.n());
        if self.announced != Some(coordinator) {
            self.announced = Some(coordinator);
            ctx.raise(Event::Coordinator(coordinator));
        }
    }

    fn sweep(&mut self, ctx: &mut FrameworkCtx<'_, '_>) {
        let now = ctx.now();
        self.core.sweep_rejoin(ctx);
        for instance in self.core.rounds().stuck(now) {
            if self.core.sweep_stuck(ctx, instance, now) {
                self.advance_round(ctx, instance);
            }
        }
    }
}

/// Hand-backs from the replica core: the modular stack's thesis is that
/// neighbours learn of them only as events on the bus.
impl ReplicaHost<FrameworkCtx<'_, '_>> for ConsensusModule {
    fn core(&mut self) -> &mut ReplicaCore {
        &mut self.core
    }

    fn snapshot_installed(&mut self, ctx: &mut FrameworkCtx<'_, '_>) {
        // The abcast module skips the compacted prefix.
        if let Some(snapshot) = self.core.snapshot().cloned() {
            ctx.raise(Event::InstallSnapshot { snapshot });
        }
    }

    fn learn_decisions(&mut self, ctx: &mut FrameworkCtx<'_, '_>, first: u64, values: Vec<Batch>) {
        for (i, value) in values.into_iter().enumerate() {
            self.decide_local(ctx, first + i as u64, value);
        }
    }

    fn advance_round(&mut self, ctx: &mut FrameworkCtx<'_, '_>, instance: u64) {
        let me = ctx.pid();
        let Some(to) = self.core.rotate(ctx, instance) else {
            return;
        };
        if to.coordinator != me {
            let (value, ts) = self
                .core
                .rounds()
                .estimate(instance)
                .map(|(value, ts)| (value.clone(), ts))
                .unwrap_or_default();
            let msg = ConsensusMsg::Estimate {
                instance,
                round: to.round,
                value,
                ts,
            };
            ctx.send_net(to.coordinator, consensus::ESTIMATE, &msg);
        } else if self.core.direct_round(instance, me, ctx.n()).is_some() {
            self.propose_direct(ctx, instance);
        } else {
            // We coordinate: our own estimate joins the collection.
            self.core
                .join_own_estimate(me, instance, || Some(Batch::default()));
            self.try_propose_from_estimates(ctx, instance);
        }
    }

    fn promised(&mut self, ctx: &mut FrameworkCtx<'_, '_>) {
        // An instance still waiting for its initial value is proposed in
        // once `Event::Propose` brings it.
        let (me, n) = (ctx.pid(), ctx.n());
        for instance in self.core.direct_ready(me, n) {
            if self.core.rounds().estimate(instance).is_some() {
                self.propose_direct(ctx, instance);
            }
        }
    }
}

impl Microprotocol for ConsensusModule {
    fn name(&self) -> &'static str {
        "consensus"
    }

    fn module_id(&self) -> ModuleId {
        CONSENSUS_MODULE_ID
    }

    fn subscriptions(&self) -> &'static [EventKind] {
        &[
            EventKind::Propose,
            EventKind::RbDeliver,
            EventKind::Suspect,
            EventKind::Restore,
        ]
    }

    fn on_start(&mut self, ctx: &mut FrameworkCtx<'_, '_>) {
        self.start_replica(ctx);
        ctx.set_timer(SWEEP_INTERVAL, TAG_SWEEP);
        self.announce_coordinator(ctx);
    }

    fn on_event(&mut self, ctx: &mut FrameworkCtx<'_, '_>, ev: &Event) {
        self.handle_event(ctx, ev);
        self.announce_coordinator(ctx);
    }

    fn on_net(&mut self, ctx: &mut FrameworkCtx<'_, '_>, from: ProcessId, msg: WireReader) {
        self.receive(ctx, from, msg);
        self.announce_coordinator(ctx);
    }

    fn on_timer(&mut self, ctx: &mut FrameworkCtx<'_, '_>, _timer: TimerId, tag: u64) {
        if tag == TAG_SWEEP {
            self.sweep(ctx);
            ctx.set_timer(SWEEP_INTERVAL, TAG_SWEEP);
        }
        self.announce_coordinator(ctx);
    }
}

impl ConsensusModule {
    fn handle_event(&mut self, ctx: &mut FrameworkCtx<'_, '_>, ev: &Event) {
        match ev {
            Event::Propose { instance, value } => {
                self.on_propose_event(ctx, *instance, value.clone());
            }
            Event::RbDeliver {
                stream,
                origin,
                payload,
            } if *stream == DECISION_STREAM => match decode::<DecisionNotice>(payload.clone()) {
                Ok(notice) => self.on_notice(ctx, *origin, notice),
                Err(_) => ctx.bump(consensus::GARBAGE, 1),
            },
            Event::Suspect(p) => {
                for instance in self.core.suspect(*p, ctx.n()) {
                    self.advance_round(ctx, instance);
                }
            }
            Event::Restore(p) => self.core.restore(*p),
            _ => {}
        }
    }

    /// Handles one message off the wire.
    fn receive(&mut self, ctx: &mut FrameworkCtx<'_, '_>, from: ProcessId, msg: WireReader) {
        let msg = match msg.get_only::<ConsensusMsg>() {
            Ok(m) => m,
            Err(_) => {
                ctx.bump(consensus::GARBAGE, 1);
                return;
            }
        };
        match msg {
            ConsensusMsg::Propose {
                instance,
                round,
                value,
            } => self.on_net_propose(ctx, from, instance, round, value),
            ConsensusMsg::Estimate {
                instance,
                round,
                value,
                ts,
            } => self.on_net_estimate(ctx, from, instance, round, value, ts),
            ConsensusMsg::Ack { instance, round } => self.on_net_ack(ctx, from, instance, round),
            ConsensusMsg::CatchUp(msg) => self.on_catch_up(ctx, from, msg),
        }
    }
}

#[cfg(test)]
mod tests {
    use bytes::Bytes;
    use fortika_framework::CompositeStack;
    use fortika_net::wire::encode;
    use fortika_net::{Admission, AppRequest, Cluster, ClusterConfig, Node, NodeCtx, Stored};
    use fortika_sim::{VDur, VTime};

    use super::*;

    /// A peer that sends its frames to process 1 on start, and nothing
    /// else.
    struct Peer(Vec<Stored>);

    impl Node for Peer {
        fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
            for frame in self.0.drain(..) {
                ctx.send(ProcessId(1), consensus::PROPOSAL, frame);
            }
        }
        fn on_message(&mut self, _: &mut NodeCtx<'_>, _: ProcessId, _: Bytes) {}
        fn on_request(&mut self, _: &mut NodeCtx<'_>, _: AppRequest) -> Admission {
            Admission::Blocked
        }
    }

    #[test]
    fn a_frame_of_a_freed_tag_is_garbage() {
        // The bytes a decision request for instance 6 (tag 4) and a full
        // decision of instance 7 (tag 5) had, behind the module's id.
        let id = CONSENSUS_MODULE_ID.to_le_bytes();
        let request = [&id[..], &[4], &6u64.to_le_bytes()].concat();
        let empty = encode(&Batch::empty());
        let full = [&id[..], &[5], &7u64.to_le_bytes(), &empty].concat();
        let frames = [request, full].map(|f| Stored::from(Bytes::from(f)));
        let stack = CompositeStack::new(vec![Box::new(ConsensusModule::new())]);
        let nodes: Vec<Box<dyn Node>> = vec![
            Box::new(Peer(frames.to_vec())),
            Box::new(stack),
            Box::new(Peer(Vec::new())),
        ];
        let mut cluster = Cluster::new(ClusterConfig::instant(3, 1), nodes);
        cluster.run_idle(VTime::ZERO + VDur::millis(1));
        let counters = cluster.counters();
        assert_eq!(counters.event("consensus.garbage"), 2);
        assert_eq!(counters.event("consensus.decided"), 0);
        assert_eq!(counters.kind("consensus.state_transfer").msgs, 0);
    }
}
