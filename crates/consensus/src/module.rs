//! The consensus microprotocol: multi-instance Chandra–Toueg.
//!
//! # Algorithm (per instance)
//!
//! Rounds rotate coordinators (`coord(r) = p_{(r mod n)+1}`). The
//! implementation carries the paper's modular-side optimizations (§3.2):
//!
//! 1. **Round 0 has no estimate phase**: the coordinator proposes its own
//!    initial value directly (Fig. 3).
//! 2. **Rounds advance only on suspicion**: instead of free-running
//!    rounds, a process moves to round `r+1` (sending its estimate to the
//!    new coordinator) only when its failure detector suspects the
//!    current coordinator. A slow periodic sweep additionally rotates
//!    rounds for instances that make no progress, which preserves
//!    liveness under pathological mixed-suspicion schedules.
//! 3. **Decisions are disseminated as a `DECISION` tag** through the
//!    reliable broadcast module: in round 0 the notice carries no value —
//!    receivers decide the round-0 proposal they already hold. A receiver
//!    missing the proposal (possible when the coordinator crashed
//!    mid-round) recovers with `DecisionRequest`/`DecisionFull`.
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
//! missed decisions). Decisions are raised as they land; the layer
//! above buffers and applies them strictly in instance order.
//!
//! # Crash-recovery, compaction, membership
//!
//! What a replica must remember across a crash (durable votes, the
//! decided fence), how it catches up afterwards (join / gap / snapshot
//! transfer), how it bounds its history (log compaction) and which
//! configuration governs an instance are the same protocol on both
//! stacks and live in [`fortika_net::replica`]. This module hosts a
//! [`ReplicaCore`] and hands its outcomes to the stack as events: every
//! recorded decision raises [`Event::Decide`] (so a revived process
//! re-delivers the replayed prefix through the layer above), a
//! registered reconfiguration raises [`Event::ConfigActive`], an
//! installed snapshot raises [`Event::InstallSnapshot`].

use std::collections::{BTreeMap, BTreeSet};

use bytes::Bytes;
use fortika_framework::{Event, EventKind, FrameworkCtx, Microprotocol, ModuleId};
use fortika_net::replica::{PROGRESS_TIMEOUT, SWEEP_INTERVAL};
use fortika_net::wire::{decode, encode};
use fortika_net::{
    AppState, Batch, CatchUp, ConfigStamp, ProcessId, ReplicaConfig, ReplicaCore, ReplicaHost,
    Snapshot, StableStore, TimerId,
};
use fortika_sim::VTime;

use crate::msg::{ConsensusMsg, DecisionNotice, REPLICA_NAMES};

/// Wire demux id of the consensus module.
pub const CONSENSUS_MODULE_ID: ModuleId = 2;

/// Reliable-broadcast stream carrying decision notices.
pub const DECISION_STREAM: u8 = 0;

const TAG_SWEEP: u64 = 0;

/// Per-instance protocol state.
struct Instance {
    round: u32,
    round_entered: VTime,
    /// Current estimate and its adoption timestamp.
    estimate: Option<Batch>,
    ts: u32,
    /// Latest proposal received (round, value) — needed to decide on a
    /// round-tagged `DECISION` notice.
    last_proposal: Option<(u32, Batch)>,
    /// Acks gathered while coordinating the current round.
    acks: BTreeSet<ProcessId>,
    /// Highest-round estimate received from each peer (round, value, ts).
    estimates: BTreeMap<ProcessId, (u32, Batch, u32)>,
    /// Last round for which we (as coordinator) already proposed.
    proposal_sent_round: Option<u32>,
    /// A `DECISION` tag arrived for this round but the matching proposal
    /// is missing; awaiting recovery.
    pending_tag: Option<u32>,
    /// When the last recovery request went out.
    last_request: Option<VTime>,
}

impl Instance {
    fn new(now: VTime) -> Self {
        Instance {
            round: 0,
            round_entered: now,
            estimate: None,
            ts: 0,
            last_proposal: None,
            acks: BTreeSet::new(),
            estimates: BTreeMap::new(),
            proposal_sent_round: None,
            pending_tag: None,
            last_request: None,
        }
    }
}

/// The consensus microprotocol.
///
/// Consumes [`Event::Propose`], raises [`Event::Decide`]; uses the
/// reliable broadcast service (stream [`DECISION_STREAM`]) for decision
/// dissemination and reacts to [`Event::Suspect`]/[`Event::Restore`].
pub struct ConsensusModule {
    /// Durable votes, decided log, configuration timeline, compaction
    /// and catch-up (shared with the monolithic stack).
    core: ReplicaCore,
    instances: BTreeMap<u64, Instance>,
    suspected: BTreeSet<ProcessId>,
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
    /// reconfiguration history and rejoins (see
    /// [`ReplicaCore::resume`]).
    pub fn with_replica(replica: ReplicaConfig, stable: Option<&StableStore>) -> Self {
        let core = match stable {
            Some(stable) => ReplicaCore::resume(replica, &REPLICA_NAMES, stable),
            None => ReplicaCore::new(replica, &REPLICA_NAMES),
        };
        ConsensusModule {
            core,
            instances: BTreeMap::new(),
            suspected: BTreeSet::new(),
        }
    }

    /// Attaches an application-state hook to the snapshot fold (call
    /// right after construction, before the module processes anything).
    pub fn with_app(mut self, app: Option<Box<dyn AppState>>) -> Self {
        self.core.set_app(app);
        self
    }

    /// Per-instance state, created on first touch; a revived process
    /// seeds fresh instances from its recovered vote records so its
    /// locked `(round, estimate, ts)` is honoured.
    fn instance_entry(&mut self, instance: u64, now: VTime) -> &mut Instance {
        if !self.instances.contains_key(&instance) {
            let mut inst = Instance::new(now);
            if let Some(rec) = self.core.recovered_vote(instance) {
                inst.round = rec.round;
                inst.estimate = Some(rec.value.clone());
                inst.ts = rec.ts;
            }
            self.instances.insert(instance, inst);
        }
        self.instances.get_mut(&instance).expect("just inserted")
    }

    /// Registers a decision locally: records it in the replica core,
    /// drops per-instance state and raises [`Event::Decide`] — also for
    /// the decided prefix a revived process learns through state
    /// transfer, which the layer above thereby re-delivers.
    fn decide_local(&mut self, ctx: &mut FrameworkCtx<'_, '_>, instance: u64, value: Batch) {
        if !self.record_decision(ctx, instance, &value) {
            return;
        }
        self.instances.remove(&instance);
        ctx.bump("consensus.decided", 1);
        ctx.trace_span("consensus", instance, "decided", 0);
        ctx.raise(Event::Decide { instance, value });
    }

    /// Coordinator-side: a majority acked our proposal — decide and
    /// disseminate.
    fn try_conclude(&mut self, ctx: &mut FrameworkCtx<'_, '_>, instance: u64) {
        let n = ctx.n();
        let majority = self.core.majority_of(instance, n);
        let Some(inst) = self.instances.get(&instance) else {
            return;
        };
        if inst.proposal_sent_round != Some(inst.round) || inst.acks.len() < majority {
            return;
        }
        let round = inst.round;
        let value = inst.estimate.clone().unwrap_or_default();
        // Round-0 decisions ride as a tiny DECISION tag; later rounds
        // ship the full value (receivers may lack the proposal).
        let full = if round == 0 {
            None
        } else {
            Some(value.clone())
        };
        let notice = DecisionNotice {
            instance,
            round,
            full,
        };
        ctx.raise(Event::Rbcast {
            stream: DECISION_STREAM,
            payload: encode(&notice),
        });
        self.decide_local(ctx, instance, value);
    }

    /// Coordinator-side: propose once a majority of estimates for the
    /// current round has been gathered (rounds ≥ 1 only).
    fn try_propose_from_estimates(&mut self, ctx: &mut FrameworkCtx<'_, '_>, instance: u64) {
        let n = ctx.n();
        let me = ctx.pid();
        let members = self.core.members_of(instance, n);
        let majority = members.len() / 2 + 1;
        if !self.core.can_vote(instance, me) {
            return; // learner, or membership at `instance` still uncertain
        }
        let Some(inst) = self.instances.get_mut(&instance) else {
            return;
        };
        let round = inst.round;
        if members[round as usize % members.len()] != me
            || round == 0
            || inst.proposal_sent_round == Some(round)
        {
            return;
        }
        let count = inst
            .estimates
            .values()
            .filter(|(r, _, _)| *r == round)
            .count();
        if count < majority {
            return;
        }
        // Adopt the estimate with the highest adoption timestamp; ties
        // broken by lowest process id via iteration order independence:
        // collect and sort for determinism.
        let mut candidates: Vec<(&ProcessId, &(u32, Batch, u32))> = inst
            .estimates
            .iter()
            .filter(|(_, (r, _, _))| *r == round)
            .collect();
        candidates.sort_by_key(|(pid, (_, _, ts))| (std::cmp::Reverse(*ts), **pid));
        // Unlike the monolithic stack, a tie among ts-0 estimates needs
        // no batch union here: consensus promises strict validity (the
        // decision is *a* proposed value), and messages missing from
        // the winning estimate stay pending in the abcast module, which
        // re-proposes them next instance and re-diffuses them to every
        // process (including future coordinators) on its retransmission
        // timer.
        let value = candidates[0].1 .1.clone();
        inst.estimate = Some(value.clone());
        // Adoption timestamps are round+1 so that a value locked by an
        // ack quorum always outranks never-adopted initial values (ts 0).
        inst.ts = round + 1;
        inst.last_proposal = Some((round, value.clone()));
        inst.proposal_sent_round = Some(round);
        inst.acks.clear();
        inst.acks.insert(me);
        ctx.bump("consensus.proposals", 1);
        ctx.trace_span("consensus", instance, "proposed", u64::from(round));
        // Coordinator self-ack: durable before (atomically with) the
        // proposal leaves this process.
        self.core
            .persist_vote(ctx, instance, round, round + 1, &value);
        let msg = ConsensusMsg::Propose {
            instance,
            round,
            value,
        };
        ctx.broadcast_net("consensus.proposal", &msg);
        self.try_conclude(ctx, instance);
    }

    /// Moves `instance` to the next round whose coordinator is not
    /// currently suspected, then plays this process's role in it.
    fn advance_round(&mut self, ctx: &mut FrameworkCtx<'_, '_>, instance: u64) {
        let n = ctx.n();
        let me = ctx.pid();
        let now = ctx.now();
        let members = self.core.members_of(instance, n);
        let coord_of = |round: u32| members[round as usize % members.len()];
        let votable = self.core.can_vote(instance, me);
        let Some(inst) = self.instances.get_mut(&instance) else {
            return;
        };
        let mut round = inst.round + 1;
        // The skip is bounded by one full rotation: past it the same
        // coordinators repeat, and a learner (never its own coordinator)
        // must not spin when every member is transiently suspected.
        let mut skips = 0;
        while coord_of(round) != me
            && self.suspected.contains(&coord_of(round))
            && skips < members.len()
        {
            round += 1;
            skips += 1;
        }
        inst.round = round;
        inst.round_entered = now;
        inst.acks.clear();
        ctx.bump("consensus.round_changes", 1);
        ctx.trace_span("consensus", instance, "round_change", u64::from(round));
        if !votable {
            // Learners (and processes whose membership at `instance` is
            // still uncertain) track rounds but never vote: no estimate
            // goes out, no proposal is made.
            ctx.bump("consensus.config_fence_drops", 1);
            return;
        }
        let estimate = inst.estimate.clone().unwrap_or_default();
        let ts = inst.ts;
        let coord = coord_of(round);
        if coord == me {
            // We coordinate: our own estimate joins the collection.
            inst.estimates.insert(me, (round, estimate, ts));
            self.try_propose_from_estimates(ctx, instance);
        } else {
            let msg = ConsensusMsg::Estimate {
                instance,
                round,
                value: estimate,
                ts,
            };
            ctx.send_net(coord, "consensus.estimate", &msg);
        }
    }

    fn on_propose_event(&mut self, ctx: &mut FrameworkCtx<'_, '_>, instance: u64, value: Batch) {
        if self.core.is_decided(instance) {
            return;
        }
        let n = ctx.n();
        let me = ctx.pid();
        let now = ctx.now();
        let members = self.core.members_of(instance, n);
        let votable = self.core.can_vote(instance, me);
        let inst = self.instance_entry(instance, now);
        if inst.estimate.is_none() {
            inst.estimate = Some(value);
            inst.ts = 0;
        }
        ctx.bump("consensus.instances", 1);
        ctx.trace_span("consensus", instance, "open", 0);
        if !votable {
            // A learner (or a process still uncertain of the membership
            // at `instance`) records its initial value but never
            // proposes; it learns the decision through dissemination.
            ctx.bump("consensus.config_fence_drops", 1);
            return;
        }
        if inst.round == 0 && members[0] == me && inst.proposal_sent_round.is_none() {
            // Round 0, we coordinate: propose our own initial value
            // immediately (no estimate phase — first optimization) and
            // adopt it (ts 1: round 0 + 1).
            let v = inst.estimate.clone().unwrap_or_default();
            inst.ts = 1;
            inst.last_proposal = Some((0, v.clone()));
            inst.proposal_sent_round = Some(0);
            inst.acks.insert(me);
            ctx.bump("consensus.proposals", 1);
            ctx.trace_span("consensus", instance, "proposed", 0);
            self.core.persist_vote(ctx, instance, 0, 1, &v);
            let msg = ConsensusMsg::Propose {
                instance,
                round: 0,
                value: v,
            };
            ctx.broadcast_net("consensus.proposal", &msg);
            self.try_conclude(ctx, instance);
        } else if members[inst.round as usize % members.len()] == me {
            // We are (now) the coordinator of a later round and were only
            // waiting for our own initial value.
            let est = inst.estimate.clone().unwrap_or_default();
            let ts = inst.ts;
            let round = inst.round;
            inst.estimates.insert(me, (round, est, ts));
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
        let certain = self.core.config_certain(instance);
        if certain && self.core.coordinator_of(instance, round, ctx.n()) != from {
            ctx.bump("consensus.bogus_proposals", 1);
            return; // only the round's coordinator may propose
        }
        self.core
            .maybe_request_gap(ctx, from, instance, self.core.decided_watermark());
        if self.core.is_decided(instance) {
            // Help a lagging coordinator conclude.
            if let Some(v) = self.core.decision(instance).cloned() {
                self.reply_decision(ctx, from, instance, v);
            }
            return;
        }
        let votable = certain && self.core.can_vote(instance, ctx.pid());
        let now = ctx.now();
        let inst = self.instance_entry(instance, now);
        if round < inst.round {
            return; // stale proposal from an abandoned round
        }
        if round > inst.round {
            inst.round = round;
            inst.round_entered = now;
            inst.acks.clear();
        }
        inst.last_proposal = Some((round, value.clone()));
        let pending_hit = inst.pending_tag == Some(round);
        if votable {
            // Adopt and acknowledge (CT locking step). The adoption
            // timestamp round+1 ranks locked values above initial ones;
            // the vote is made durable atomically with the ack so a
            // future incarnation of this process honours the lock.
            inst.estimate = Some(value.clone());
            inst.ts = round + 1;
            self.core
                .persist_vote(ctx, instance, round, round + 1, &value);
            ctx.trace_span("consensus", instance, "voted", u64::from(round));
            let ack = ConsensusMsg::Ack { instance, round };
            ctx.send_net(from, "consensus.ack", &ack);
        } else {
            // The config fence: a learner — or a process whose replay
            // has not yet determined the membership at `instance` —
            // records the proposal (a later DECISION tag can still
            // conclude it) but must not lock or ack it.
            ctx.bump("consensus.config_fence_drops", 1);
        }
        if pending_hit {
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
        if self.core.is_decided(instance) {
            if let Some(v) = self.core.decision(instance).cloned() {
                self.reply_decision(ctx, from, instance, v);
            }
            return;
        }
        if self.core.coordinator_of(instance, round, ctx.n()) != ctx.pid() {
            return; // misdirected
        }
        let now = ctx.now();
        let inst = self.instance_entry(instance, now);
        if round < inst.round {
            return;
        }
        // Keep only each peer's highest-round estimate.
        let keep = match inst.estimates.get(&from) {
            Some((r, _, _)) => *r < round,
            None => true,
        };
        if keep {
            inst.estimates.insert(from, (round, value, ts));
        }
        if round > inst.round {
            // Peers moved past us: join the round we are to coordinate.
            inst.round = round;
            inst.round_entered = now;
            inst.acks.clear();
            let me = ctx.pid();
            if let Some(est) = inst.estimate.clone() {
                let ts0 = inst.ts;
                inst.estimates.insert(me, (round, est, ts0));
            }
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
        if self.core.is_decided(instance) {
            return;
        }
        let Some(inst) = self.instances.get_mut(&instance) else {
            return;
        };
        if inst.round != round || inst.proposal_sent_round != Some(round) {
            return;
        }
        inst.acks.insert(from);
        self.try_conclude(ctx, instance);
    }

    fn on_notice(
        &mut self,
        ctx: &mut FrameworkCtx<'_, '_>,
        origin: ProcessId,
        notice: DecisionNotice,
    ) {
        if origin != ctx.pid() {
            self.core.maybe_request_gap(
                ctx,
                origin,
                notice.instance,
                self.core.decided_watermark(),
            );
        }
        if self.core.is_decided(notice.instance) {
            return;
        }
        if let Some(value) = notice.full {
            self.decide_local(ctx, notice.instance, value);
            return;
        }
        // Tag-only notice: we must hold the matching proposal.
        let now = ctx.now();
        let inst = self.instance_entry(notice.instance, now);
        match &inst.last_proposal {
            Some((r, v)) if *r == notice.round => {
                let value = v.clone();
                self.decide_local(ctx, notice.instance, value);
            }
            _ => {
                // Recovery: ask the decider (and retry via sweep).
                inst.pending_tag = Some(notice.round);
                inst.last_request = Some(now);
                ctx.bump("consensus.tag_misses", 1);
                if origin != ctx.pid() {
                    let instance = notice.instance;
                    self.core
                        .send(ctx, origin, &CatchUp::DecisionRequest { instance });
                }
            }
        }
    }

    fn sweep(&mut self, ctx: &mut FrameworkCtx<'_, '_>) {
        let now = ctx.now();
        self.core.sweep_rejoin(ctx);
        let stuck: Vec<u64> = self
            .instances
            .iter()
            .filter(|(_, inst)| now.since(inst.round_entered) > PROGRESS_TIMEOUT)
            .map(|(k, _)| *k)
            .collect();
        for instance in stuck {
            // Retry pending decision requests first; otherwise rotate the
            // coordinator as if suspected (liveness backstop).
            let inst = self.instances.get_mut(&instance).expect("instance exists");
            if inst.pending_tag.is_some() {
                inst.round_entered = now;
                ctx.bump("consensus.request_retries", 1);
                self.core
                    .broadcast(ctx, &CatchUp::DecisionRequest { instance });
            } else {
                ctx.bump("consensus.progress_rotations", 1);
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

    fn config_active(&mut self, ctx: &mut FrameworkCtx<'_, '_>, stamp: ConfigStamp) {
        // The failure detector re-points its monitor set.
        ctx.raise(Event::ConfigActive { stamp });
    }

    fn snapshot_covers(&mut self, snap: &Snapshot) {
        self.instances = self.instances.split_off(&(snap.last_included + 1));
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

    fn reply_decision(
        &mut self,
        ctx: &mut FrameworkCtx<'_, '_>,
        to: ProcessId,
        instance: u64,
        value: Batch,
    ) {
        let msg = ConsensusMsg::DecisionFull { instance, value };
        ctx.send_net(to, "consensus.decision_full", &msg);
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
    }

    fn on_event(&mut self, ctx: &mut FrameworkCtx<'_, '_>, ev: &Event) {
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
                Err(_) => ctx.bump("consensus.garbage", 1),
            },
            Event::Suspect(p) => {
                self.suspected.insert(*p);
                let n = ctx.n();
                let affected: Vec<u64> = self
                    .instances
                    .iter()
                    .filter(|(k, inst)| self.core.coordinator_of(**k, inst.round, n) == *p)
                    .map(|(k, _)| *k)
                    .collect();
                for instance in affected {
                    self.advance_round(ctx, instance);
                }
            }
            Event::Restore(p) => {
                self.suspected.remove(p);
            }
            _ => {}
        }
    }

    fn on_net(&mut self, ctx: &mut FrameworkCtx<'_, '_>, from: ProcessId, bytes: Bytes) {
        let msg = match decode::<ConsensusMsg>(bytes) {
            Ok(m) => m,
            Err(_) => {
                ctx.bump("consensus.garbage", 1);
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
            ConsensusMsg::DecisionFull { instance, value } => {
                self.core.note_seen(instance);
                self.decide_local(ctx, instance, value);
                // While still behind, pull the next batch promptly.
                self.core
                    .chase_gap(ctx, from, self.core.decided_watermark());
            }
            ConsensusMsg::CatchUp(msg) => self.on_catch_up(ctx, from, msg),
        }
    }

    fn on_timer(&mut self, ctx: &mut FrameworkCtx<'_, '_>, _timer: TimerId, tag: u64) {
        if tag == TAG_SWEEP {
            self.sweep(ctx);
            ctx.set_timer(SWEEP_INTERVAL, TAG_SWEEP);
        }
    }
}
