//! The monolithic atomic broadcast node.
//!
//! One state machine merging atomic broadcast, consensus, decision
//! dissemination, flow control and the failure detector — the paper's
//! monolithic stack (§4), with each cross-module optimization
//! individually switchable for ablation studies:
//!
//! * **O1 — combine next proposal with current decision** (§4.1): the
//!   coordinator of the direct round of consecutive instances is the same
//!   process, so `decision k` piggybacks on `proposal k+1` in one message.
//!   The paper's premise is round 0's coordinator; after a coordinator
//!   change it is the coordinator the survivors promised their round to
//!   (see [`fortika_net::rounds`]), which proposes every instance they had
//!   not opened with no estimate phase — so O1 and the tag decisions of
//!   O3 hold through an outage instead of lapsing for its whole length.
//! * **O2 — piggyback abcast messages on acks** (§4.2): senders hand new
//!   messages directly to the coordinator, riding `ack` messages (or the
//!   estimate after a coordinator change) instead of diffusing them to
//!   everyone.
//! * **O3 — implicit decision acknowledgements** (§4.3): decisions are
//!   sent once to each process with no relay re-broadcast; the messages
//!   of instance `k+1` acknowledge decision `k` implicitly, and the
//!   replica core's pull-based catch-up (one `Pull`, answered by a state
//!   transfer, which the progress sweep retries) covers crashes.
//!
//! In good runs with all three enabled, ordering `M` messages costs
//! `2(n−1)` messages per consensus instance — against
//! `(n−1)(M + 2 + ⌊(n+1)/2⌋)` for the modular stack (§5.2.1).
//!
//! The proposal path is a windowed sequencer
//! (`ReplicaConfig::pipeline_depth`): at the default depth 1 consensus
//! slots run strictly one at a time as in the paper, while larger
//! depths keep α slots outstanding concurrently (their decision
//! round-trips overlap; decisions are still applied strictly in
//! instance order, and the pool is deduplicated against batches already
//! proposed in live slots).
//!
//! Safety is the same Chandra–Toueg argument as in `fortika-consensus`
//! because it is the same code: the round machine (deciding requires a
//! majority of acks for an exact `(instance, round)`; acks lock the
//! proposal with adoption timestamp `round+1`; coordinators of later rounds
//! adopt the max-timestamp estimate from a majority), durable votes, the
//! decided fence, log compaction and catch-up (pulls answered by state or
//! snapshot transfer, whose values reach the node only through
//! `learn_decisions`) are one protocol under both stacks and live in
//! [`fortika_net::replica`] and [`fortika_net::rounds`]. This node hosts a
//! [`ReplicaCore`] and owns what is the monolith's thesis: initial values
//! come straight out of the message pool, proposal and decision share a
//! `Step`, pending messages ride acks and estimates (O1–O3), an unlocked
//! coordinator proposes the union of the estimates it gathered, and the
//! core's outcomes land in the merged state directly (decisions are
//! buffered and applied in order, an installed snapshot seeds the delivery
//! dedup and prunes the pool). When to pull missed decisions, and from
//! which instance, is the core's too: every peer proposal passes
//! [`ReplicaCore::admit_proposal`], every peer estimate
//! [`ReplicaCore::admit_estimate`] and every peer decision
//! [`ReplicaCore::admit_decision`], which run the gap check against the
//! core's replayed prefix and answer for decided instances, as on the
//! modular stack (the node's own delivery cursor, `next_decide`, equals
//! that prefix between handlers). See `docs/DIVERGENCE.md` for every
//! mechanism one stack has and the other lacks.
//!
//! Own messages live in the [`Outbox`] the modular stack's flow control
//! embeds too: it is the window, and every progress sweep re-runs the
//! node's dissemination step for the messages it reports overdue, so a
//! message forwarded into a coordinator outage too short to suspect is
//! routed again once [`RESEND_INTERVAL`](fortika_net::flow::RESEND_INTERVAL)
//! has passed.

use std::collections::{BTreeMap, BTreeSet};

use bytes::Bytes;
use fortika_fd::metrics as fd;
use fortika_fd::{FdEvent, HeartbeatFd, TRACE_STACK};
use fortika_net::flow::Outbox;
use fortika_net::metrics::{abcast, consensus, mono};
use fortika_net::replica::{IDLE_TIMEOUT, SWEEP_INTERVAL};
use fortika_net::wire::Wire;
use fortika_net::{
    Admission, AppMsg, AppRequest, AppState, Batch, DeliveredSet, Kind, MsgId, Node, NodeCtx,
    ProcessId, QuorumChoice, ReplicaConfig, ReplicaCore, ReplicaCtx, ReplicaHost, Snapshot,
    StableStore, TimerId,
};
use fortika_sim::{VDur, VTime};

use crate::msg::{Decision, MonoMsg, Proposal, REPLICA_NAMES};

const TAG_FD: u64 = 1;
const TAG_SWEEP: u64 = 2;

/// Which of the three cross-module optimizations are enabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MonoOptimizations {
    /// O1: combine `decision k` with `proposal k+1`.
    pub combine_decision_proposal: bool,
    /// O2: route abcast messages to the coordinator on acks instead of
    /// diffusing them to everyone.
    pub piggyback_on_acks: bool,
    /// O3: no decision relays; implicit acks + pull-based recovery.
    pub implicit_decision_acks: bool,
}

impl MonoOptimizations {
    /// The paper's monolithic stack: everything on.
    pub const fn all() -> Self {
        MonoOptimizations {
            combine_decision_proposal: true,
            piggyback_on_acks: true,
            implicit_decision_acks: true,
        }
    }

    /// Everything off: the modular algorithm run inside one module
    /// (isolates the framework's mechanical overhead in ablations).
    pub const fn none() -> Self {
        MonoOptimizations {
            combine_decision_proposal: false,
            piggyback_on_acks: false,
            implicit_decision_acks: false,
        }
    }
}

impl Default for MonoOptimizations {
    fn default() -> Self {
        MonoOptimizations::all()
    }
}

/// The pool as one batch.
fn batch_of(pool: &BTreeMap<MsgId, AppMsg>) -> Batch {
    Batch::normalize(pool.values().cloned().collect())
}

/// The monolithic atomic broadcast stack (implements [`Node`]).
pub struct MonoNode {
    opts: MonoOptimizations,
    /// Durable votes, decided log, round state, compaction and catch-up
    /// (shared with the modular stack).
    core: ReplicaCore,
    fd: HeartbeatFd,
    fd_scratch: Vec<FdEvent>,
    /// The detector's armed tick, re-armed when the coordinator this
    /// node waits on changes (see [`HeartbeatFd::watch`]).
    fd_timer: Option<TimerId>,
    /// Own messages not yet adelivered (flow control, re-forwarding and
    /// resend).
    outbox: Outbox,
    /// Next instance whose decision will be applied.
    next_decide: u64,
    /// Delivered message ids (duplicate suppression).
    delivered: DeliveredSet,
    /// Recorded decisions awaiting in-order application.
    decision_buffer: BTreeMap<u64, Batch>,
    /// Messages this process is responsible for getting proposed.
    pool: BTreeMap<MsgId, AppMsg>,
    last_progress: VTime,
}

impl MonoNode {
    /// Creates a monolithic node with the given optimization switches,
    /// flow-control `window` (outstanding own messages) and failure
    /// detector, and the default replica knobs (fresh start at time
    /// zero).
    pub fn new(opts: MonoOptimizations, window: usize, fd: HeartbeatFd) -> Self {
        Self::with_replica(opts, window, fd, ReplicaConfig::default(), None)
    }

    /// Creates a node with the given replica knobs. With `stable`, it
    /// is the node of a process revived after a crash: the core replays
    /// the persisted votes, decided watermark, snapshot and promise (see
    /// [`ReplicaCore::resume`]); everything
    /// else — the decided tail, delivery logs, the pool — is rebuilt
    /// from peers.
    pub fn with_replica(
        opts: MonoOptimizations,
        window: usize,
        fd: HeartbeatFd,
        replica: ReplicaConfig,
        stable: Option<&StableStore>,
    ) -> Self {
        let core = match stable {
            Some(stable) => ReplicaCore::resume(replica, &REPLICA_NAMES, stable),
            None => ReplicaCore::new(replica, &REPLICA_NAMES),
        };
        MonoNode {
            opts,
            core,
            fd,
            fd_scratch: Vec::new(),
            fd_timer: None,
            outbox: Outbox::new(window),
            next_decide: 0,
            delivered: DeliveredSet::default(),
            decision_buffer: BTreeMap::new(),
            pool: BTreeMap::new(),
            last_progress: VTime::ZERO,
        }
    }

    /// Attaches an application-state hook to the snapshot fold (call
    /// right after construction, before the node processes anything).
    pub fn with_app(mut self, app: Option<Box<dyn AppState>>) -> Self {
        self.core.set_app(app);
        self
    }

    /// The windowed-sequencer depth α (at least 1).
    fn depth(&self) -> usize {
        self.core.cfg().pipeline_depth.max(1) as usize
    }

    /// True while a proposal is outstanding somewhere — an ack (and thus
    /// a piggyback opportunity) is imminent.
    fn in_flight(&self) -> bool {
        self.core.rounds().proposed_values().next().is_some()
    }

    /// First free consensus slot in the proposal window, or `None` while
    /// the window is full. A slot is busy when it is already decided
    /// (applied or buffered) or carries live instance state; the window
    /// spans `pipeline_depth` slots from the apply cursor.
    fn open_slot(&self) -> Option<u64> {
        let depth = self.depth();
        if self.core.rounds().len() >= depth {
            return None;
        }
        (self.next_decide..self.next_decide + depth as u64)
            .find(|k| !self.core.is_decided(*k) && !self.core.rounds().contains(*k))
    }

    /// The pool minus messages already claimed by a live proposal in an
    /// outstanding slot (the pipeline dedup: a message rides at most one
    /// in-flight batch at a time).
    fn fresh_pool_batch(&self) -> Batch {
        let mut claimed: BTreeSet<MsgId> = BTreeSet::new();
        for v in self.core.rounds().proposed_values() {
            claimed.extend(v.msgs().iter().map(|m| m.id));
        }
        if claimed.is_empty() {
            return batch_of(&self.pool);
        }
        Batch::normalize(
            self.pool
                .values()
                .filter(|m| !claimed.contains(&m.id))
                .cloned()
                .collect(),
        )
    }

    fn send(&self, ctx: &mut NodeCtx<'_>, dst: ProcessId, kind: Kind, msg: &MonoMsg) {
        ReplicaCtx::send(ctx, dst, kind, |w| msg.encode(w));
    }

    fn broadcast(&self, ctx: &mut NodeCtx<'_>, kind: Kind, msg: &MonoMsg) {
        ReplicaCtx::broadcast(ctx, kind, |w| msg.encode(w));
    }

    /// Hands the pool over to `coord` in a standalone `Forward` (used
    /// when no ack is imminent).
    fn flush_pool_to(&mut self, ctx: &mut NodeCtx<'_>, coord: ProcessId) {
        if self.pool.is_empty() || coord == ctx.pid() {
            return;
        }
        let msgs: Vec<AppMsg> = self.pool.values().cloned().collect();
        self.pool.clear();
        ctx.bump(mono::FORWARDS, 1);
        self.send(ctx, coord, mono::FORWARD, &MonoMsg::Forward { msgs });
    }

    /// Drains the pool for an ack/estimate piggyback (optimization O2).
    fn drain_pool(&mut self) -> Vec<AppMsg> {
        let msgs: Vec<AppMsg> = self.pool.values().cloned().collect();
        self.pool.clear();
        msgs
    }

    /// Bootstraps consensus slots while we hold fresh work and the
    /// proposal window has room (one slot per pass at the seed-faithful
    /// depth 1; up to `pipeline_depth` outstanding slots beyond it) — or
    /// a live slot this process opened before a promise let it propose
    /// there.
    fn try_start_instance(&mut self, ctx: &mut NodeCtx<'_>) {
        loop {
            if self.pool.is_empty() {
                return;
            }
            let n = ctx.n();
            let me = ctx.pid();
            let now = ctx.now();
            let waiting = |node: &Self| {
                let lowest = node.core.rounds().lowest();
                lowest.filter(|k| node.core.direct_round(*k, me, n).is_some_and(|r| r > 0))
            };
            let Some(k) = self.open_slot().or_else(|| waiting(self)) else {
                return;
            };
            if self.core.direct_round(k, me, n).is_none() {
                // Not ours to propose in (not the coordinator of the
                // round it opens in, a recovered lock of a lower round,
                // or a promise quorum still incomplete). Instance
                // registered so round rotation can engage; if its
                // coordinator is already suspected, rotate now. No batch
                // is needed on this path — keep it cheap, it runs on
                // every non-coordinator message arrival.
                self.core.open(k, now);
                if self.core.coordinator_suspected(k, n) {
                    self.advance_round(ctx, k);
                }
                return;
            }
            let fresh = self.fresh_pool_batch();
            if fresh.is_empty() {
                return; // everything pending already rides a live slot
            }
            self.core.open(k, now);
            let proposal = self.lock_direct(ctx, k, fresh);
            self.propose(ctx, proposal);
            // Loop: with depth > 1 another slot may still be open.
        }
    }

    /// Locks the direct proposal (round 0, or a promised round) of slot
    /// `k`, which this process coordinates. A lock recovered from stable
    /// storage pins the value (re-proposing anything else in the same
    /// round could split the tag-decide receivers); otherwise it is the
    /// `fresh` (unclaimed) pool.
    fn lock_direct(&mut self, ctx: &mut NodeCtx<'_>, k: u64, fresh: Batch) -> Proposal {
        let locked = self.core.rounds().estimate(k).map(|(v, _)| v.clone());
        let value = locked.unwrap_or(fresh);
        let round = self.core.lock(ctx, k, &value);
        if k > self.next_decide {
            // Overlaps an instance still in flight below it.
            ctx.bump(mono::PIPELINED_PROPOSALS, 1);
        }
        Proposal {
            instance: k,
            round,
            value,
        }
    }

    /// Ensures the next instance exists (and is rotated away from a
    /// suspected coordinator) even on processes holding no messages.
    ///
    /// Without this, an idle process never joins the instance, and with
    /// n ≥ 4 the new coordinator cannot gather a majority of estimates —
    /// the modular stack gets the same guarantee from its periodic idle
    /// consensus (§3.3's `t`-timeout).
    fn kick_fresh_instance(&mut self, ctx: &mut NodeCtx<'_>) {
        if !self.core.rounds().is_empty() || self.core.is_decided(self.next_decide) {
            return;
        }
        let n = ctx.n();
        let has_work = !self.pool.is_empty() || !self.outbox.is_empty();
        let round = self.core.fresh_round(self.next_decide);
        let coord = ReplicaCore::coordinator_of(round, n);
        if !(has_work || self.core.rounds().suspects(coord)) {
            return;
        }
        self.try_start_instance(ctx);
        if self.core.rounds().is_empty() {
            // No pool (idle helper): create the placeholder directly so
            // we can contribute estimates to the round change.
            self.core.open(self.next_decide, ctx.now());
        }
        let lowest = self.core.rounds().lowest();
        if let Some(k) = lowest.filter(|k| self.core.coordinator_suspected(*k, n)) {
            self.advance_round(ctx, k);
        }
    }

    fn check_decide(&mut self, ctx: &mut NodeCtx<'_>, instance: u64) {
        if let Some((round, value)) = self.core.quorum_acked(instance, ctx.n()) {
            self.conclude_as_coordinator(ctx, instance, round, value);
        }
    }

    /// Coordinator decided `instance`: apply locally, then emit the
    /// decision — combined with the next proposal when O1 allows.
    fn conclude_as_coordinator(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        instance: u64,
        round: u32,
        value: Batch,
    ) {
        let n = ctx.n();
        let me = ctx.pid();
        let decision = Decision {
            instance,
            round,
            full: if self.core.rounds().tag_decides(instance) {
                None
            } else {
                Some(value.clone())
            },
        };
        self.buffer_decision(ctx, instance, value);
        // Apply without the auto-start of the next instance: the next
        // proposal must be assembled *here* so O1 can combine it with
        // the decision we are about to emit.
        self.apply_decisions_core(ctx);

        // Assemble the next proposal if the window has a free slot, we
        // have fresh work and may propose there directly (we coordinate
        // the round it opens in, no recovered lock of a lower round
        // forbids it, and a round above 0 is promised). Cheap gates
        // first; the fresh (dedup) set is only built when they pass.
        let followup = self
            .open_slot()
            .filter(|k1| !self.pool.is_empty() && self.core.direct_round(*k1, me, n).is_some())
            .map(|k1| (k1, self.fresh_pool_batch()))
            .filter(|(_, fresh)| !fresh.is_empty());
        if let Some((k1, fresh)) = followup {
            self.core.open(k1, ctx.now());
            let proposal = self.lock_direct(ctx, k1, fresh);
            if self.opts.combine_decision_proposal {
                ctx.bump(mono::COMBINED_STEPS, 1);
                self.broadcast(
                    ctx,
                    mono::STEP,
                    &MonoMsg::Step {
                        decision: Some(decision),
                        proposal: Some(proposal),
                    },
                );
                self.check_decide(ctx, k1);
            } else {
                self.broadcast(
                    ctx,
                    mono::DECISION,
                    &MonoMsg::Step {
                        decision: Some(decision),
                        proposal: None,
                    },
                );
                self.propose(ctx, proposal);
            }
        } else {
            self.broadcast(
                ctx,
                mono::DECISION,
                &MonoMsg::Step {
                    decision: Some(decision),
                    proposal: None,
                },
            );
        }
        // With a window deeper than one, the combined Step fills only
        // one slot — standalone proposals may still top the window up.
        if self.depth() > 1 {
            self.try_start_instance(ctx);
        }
    }

    /// Records a decision in the replica core and buffers it for
    /// in-order application — also for the decided prefix a revived node
    /// learns through state transfer, which it thereby re-applies.
    fn buffer_decision(&mut self, ctx: &mut NodeCtx<'_>, instance: u64, value: Batch) {
        if self.core.is_replayed(instance) {
            return;
        }
        ctx.trace_span("mono", instance, "decided", 0);
        self.record_decision(ctx, instance, &value);
        self.decision_buffer.insert(instance, value);
    }

    fn apply_decisions(&mut self, ctx: &mut NodeCtx<'_>) {
        self.apply_decisions_core(ctx);
        // With O2, messages that were waiting for an ack to ride must not
        // starve when the pipeline drains.
        if self.opts.piggyback_on_acks && !self.in_flight() && !self.pool.is_empty() {
            let coord = self.core.live_coordinator(ctx.n());
            if coord != ctx.pid() {
                self.flush_pool_to(ctx, coord);
            }
        }
        self.try_start_instance(ctx);
    }

    /// Applies the decided prefix in order: delivers each new message of
    /// each batch, closes the instance and settles the outbox.
    ///
    /// The monolith keeps its delivery cursor and delivered set apart
    /// from the replica core's snapshot fold, which holds the same state,
    /// because it delivers only after the fold's compaction step in the
    /// same handler; merging the two would move delivery timestamps.
    /// Debug builds check that the copies agree after every applying
    /// pass: every message of an applied batch is delivered in the fold,
    /// and the cursor is the fold's frontier.
    fn apply_decisions_core(&mut self, ctx: &mut NodeCtx<'_>) {
        let mut applied = false;
        while let Some(batch) = self.decision_buffer.remove(&self.next_decide) {
            let k = self.next_decide;
            // By reference: the same decided batch is shared (Arc) with
            // the decision cache and the snapshot fold — don't copy it
            // just to read ids and payload sizes.
            for m in batch.msgs() {
                if !self.delivered.is_new(m.id) {
                    continue;
                }
                self.delivered.mark(m.id);
                self.pool.remove(&m.id);
                ctx.deliver(m.id, m.payload.len() as u32);
                ctx.bump(abcast::DELIVERED, 1);
            }
            ctx.bump(consensus::DECIDED, 1);
            ctx.trace_span("mono", k, "applied", batch.msgs().len() as u64);
            self.core.close(k);
            self.next_decide += 1;
            self.last_progress = ctx.now();
            let delivered = &self.delivered;
            if self.outbox.settle(|id| !delivered.is_new(id)) {
                ctx.app_ready();
            }
            debug_assert!(
                batch.msgs().iter().all(|m| self.core.is_delivered(m.id)),
                "instance {k}: delivered a message the snapshot fold did not"
            );
            applied = true;
        }
        debug_assert!(
            !applied || self.next_decide == self.core.fold().next_instance(),
            "delivery cursor {} is not the snapshot fold's frontier {}",
            self.next_decide,
            self.core.fold().next_instance()
        );
    }

    /// Handles a decision. `followup` controls whether pipeline
    /// continuation (pool flush / next-instance start) runs here: it must
    /// be suppressed while the proposal half of a combined Step is still
    /// unprocessed, otherwise the transiently-empty pipeline triggers a
    /// spurious standalone `Forward` on every instance.
    fn handle_decision(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        from: ProcessId,
        dec: Decision,
        followup: bool,
    ) {
        // The gate runs before the replayed-instance check, as the
        // modular `on_notice` runs it before its decided check. Liveness
        // does not rest on that order: a laggard pulls on a sighting of
        // an instance it has not replayed, or is answered when it
        // proposes or sends an estimate for one its peer decided, and
        // chases each transfer to its sender's frontier. That is what
        // brings up the healed minority of
        // `tests/partition_invariants.rs::partition_races_restart_on_both_stacks`,
        // with the gate on either side of the check.
        self.core.admit_decision(ctx, from, dec.instance, dec.round);
        // Keyed on the replay log (not the voting fence) so a revived
        // node still absorbs decisions for instances it voted in before
        // crashing.
        if self.core.is_replayed(dec.instance) {
            return;
        }
        // O3 disabled: emulate the reliable-broadcast relay pattern for
        // decisions (first receipt at a relay re-broadcasts).
        if !self.opts.implicit_decision_acks {
            let n = ctx.n();
            let origin = ReplicaCore::coordinator_of(dec.round, n);
            if ProcessId::relay_set(origin, n).any(|p| p == ctx.pid()) {
                ctx.bump(mono::DECISION_RELAYS, 1);
                self.broadcast(
                    ctx,
                    mono::DECISION_RELAY,
                    &MonoMsg::Step {
                        decision: Some(dec.clone()),
                        proposal: None,
                    },
                );
            }
        }
        // A tag-only decision decides the matching proposal, which we
        // must hold; if not, the core pulls the value from the decider.
        let value = match dec.full {
            Some(value) => Some(value),
            None => self.core.resolve_tag(ctx, from, dec.instance, dec.round),
        };
        if let Some(value) = value {
            self.buffer_decision(ctx, dec.instance, value);
            if followup {
                self.apply_decisions(ctx);
            } else {
                self.apply_decisions_core(ctx);
            }
        }
    }

    fn handle_proposal(&mut self, ctx: &mut NodeCtx<'_>, from: ProcessId, p: Proposal) {
        if !self.core.admit_proposal(ctx, from, p.instance, p.round) {
            return; // not the round's coordinator, or decided here
        }
        let vote = self.core.vote(ctx, p.instance, p.round, &p.value);
        if vote.voted {
            let msgs = if self.opts.piggyback_on_acks {
                self.drain_pool()
            } else {
                Vec::new()
            };
            let ack = MonoMsg::AckDiff {
                instance: p.instance,
                round: p.round,
                msgs,
            };
            self.send(ctx, from, mono::ACK, &ack);
        }
        if vote.tag_hit {
            self.buffer_decision(ctx, p.instance, p.value);
            self.apply_decisions(ctx);
        }
    }

    fn handle_ack(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        from: ProcessId,
        instance: u64,
        round: u32,
        msgs: Vec<AppMsg>,
    ) {
        for m in msgs {
            if self.delivered.is_new(m.id) {
                self.pool.insert(m.id, m);
            }
        }
        if self.core.is_decided(instance) || !self.core.rounds().contains(instance) {
            self.try_start_instance(ctx);
        } else if self.core.record_ack(from, instance, round) {
            self.check_decide(ctx, instance);
        }
    }

    fn handle_forward(&mut self, ctx: &mut NodeCtx<'_>, msgs: Vec<AppMsg>) {
        for m in msgs {
            if self.delivered.is_new(m.id) {
                self.pool.insert(m.id, m);
            }
        }
        self.try_start_instance(ctx);
    }

    #[allow(clippy::too_many_arguments)]
    fn handle_estimate(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        from: ProcessId,
        instance: u64,
        round: u32,
        ts: u32,
        value: Batch,
        msgs: Vec<AppMsg>,
    ) {
        for m in msgs {
            if self.delivered.is_new(m.id) {
                self.pool.insert(m.id, m);
            }
        }
        if !self.core.admit_estimate(ctx, from, instance) {
            // Decided here.
            self.try_start_instance(ctx);
            return;
        }
        let n = ctx.n();
        let me = ctx.pid();
        if ReplicaCore::coordinator_of(round, n) != me {
            return;
        }
        let now = ctx.now();
        if self
            .core
            .record_estimate(from, instance, round, value, ts, now)
            .is_none()
        {
            return;
        }
        // Our own estimate joins the collection (initial = pool batch,
        // built only when actually needed).
        if !self.core.rounds().has_estimate_from(instance, me) {
            let pool = &self.pool;
            self.core
                .join_own_estimate(me, instance, || Some(batch_of(pool)));
        }
        self.try_propose_from_estimates(ctx, instance);
    }

    fn try_propose_from_estimates(&mut self, ctx: &mut NodeCtx<'_>, instance: u64) {
        let value = match self.core.quorum_choice(instance, ctx.pid(), ctx.n()) {
            None => return,
            Some(QuorumChoice::Locked(value)) => value,
            // Nothing is locked, so any initial value is safe: propose
            // the union of the candidates' batches. Picking one
            // candidate by pid used to let an empty estimate beat a
            // tie-losing process's pending messages on every round
            // change, starving them forever.
            Some(QuorumChoice::Unlocked(values)) => {
                Batch::normalize(values.iter().flat_map(|b| b.msgs().to_vec()).collect())
            }
        };
        let round = self.core.lock(ctx, instance, &value);
        let proposal = Proposal {
            instance,
            round,
            value,
        };
        self.propose(ctx, proposal);
    }

    /// Sends a proposal this process locked, on its own (not riding a
    /// decision); the self-ack may already be the majority.
    fn propose(&mut self, ctx: &mut NodeCtx<'_>, proposal: Proposal) {
        let instance = proposal.instance;
        let msg = MonoMsg::Step {
            decision: None,
            proposal: Some(proposal),
        };
        self.broadcast(ctx, mono::PROPOSAL, &msg);
        self.check_decide(ctx, instance);
    }

    /// Sends this process's estimate for `(instance, round)` to the
    /// round's coordinator, piggybacking undelivered own messages — the
    /// re-routing of §4.2 ("if the coordinator changes, m is again
    /// piggybacked on the estimate sent to the new coordinator") — after
    /// the promise that goes with it.
    fn send_estimate(&mut self, ctx: &mut NodeCtx<'_>, instance: u64, round: u32) {
        let n = ctx.n();
        let coord = ReplicaCore::coordinator_of(round, n);
        if coord == ctx.pid() {
            return;
        }
        self.core.promise(ctx, instance, round);
        let (value, ts) = match self.core.rounds().estimate(instance) {
            Some((value, ts)) => (value.clone(), ts),
            None => (batch_of(&self.pool), 0),
        };
        let msgs = if self.opts.piggyback_on_acks {
            for m in self.outbox.msgs() {
                self.pool.remove(&m.id);
            }
            self.outbox.msgs().cloned().collect()
        } else {
            Vec::new()
        };
        let msg = MonoMsg::Estimate {
            instance,
            round,
            ts,
            value,
            msgs,
        };
        self.send(ctx, coord, mono::ESTIMATE, &msg);
    }

    fn process_fd_events(&mut self, ctx: &mut NodeCtx<'_>) {
        let events = std::mem::take(&mut self.fd_scratch);
        for ev in &events {
            match ev {
                FdEvent::Suspect(p) => {
                    ctx.bump(fd::SUSPICIONS, 1);
                    ctx.trace_span(TRACE_STACK, u64::from(p.0), "suspect", 0);
                    // Own messages handed to the suspect may be lost with
                    // it: make them proposable again (they are re-routed
                    // on the next estimate/ack/forward).
                    for m in self.outbox.msgs() {
                        self.pool.entry(m.id).or_insert_with(|| m.clone());
                    }
                    for k in self.core.suspect(*p, ctx.n()) {
                        self.advance_round(ctx, k);
                    }
                    // Join/advance the fresh instance so the new
                    // coordinator can reach an estimate majority even if
                    // we personally hold no messages.
                    self.kick_fresh_instance(ctx);
                }
                FdEvent::Restore(p) => {
                    ctx.bump(fd::RESTORES, 1);
                    ctx.trace_span(TRACE_STACK, u64::from(p.0), "restore", 0);
                    self.core.restore(*p);
                }
            }
        }
        self.fd_scratch = events;
        self.fd_scratch.clear();
    }

    /// Tells the detector which coordinator this node now waits on,
    /// re-arming its tick when that brings the tick forward; run after
    /// every handler.
    fn watch_coordinator(&mut self, ctx: &mut NodeCtx<'_>) {
        let coordinator = self.core.live_coordinator(ctx.n());
        if let Some(delay) = self.fd.watch(coordinator, ctx.now()) {
            self.arm_fd(ctx, delay);
        }
    }

    /// Arms the detector's tick `delay` from now, replacing the armed one.
    fn arm_fd(&mut self, ctx: &mut NodeCtx<'_>, delay: VDur) {
        if let Some(armed) = self.fd_timer.take() {
            ctx.cancel_timer(armed);
        }
        self.fd_timer = Some(ctx.set_timer(delay, TAG_FD));
    }

    fn sweep(&mut self, ctx: &mut NodeCtx<'_>) {
        let now = ctx.now();
        self.core.sweep_rejoin(ctx);
        for k in self.core.rounds().stuck(now) {
            if self.core.sweep_stuck(ctx, k, now) {
                self.advance_round(ctx, k);
            }
        }
        // Idle kick: periodic backstop for the same fresh-instance
        // bootstrap (covers suspicions that raced with message arrival).
        if now.since(self.last_progress) > IDLE_TIMEOUT {
            self.kick_fresh_instance(ctx);
        }
        for m in self.outbox.overdue(now) {
            ctx.bump(abcast::RETRANSMITS, 1);
            self.disseminate(ctx, m);
        }
    }

    /// Routes an own message towards a proposal: diffused to everyone
    /// without O2, else handed to the coordinator new messages should
    /// reach right now — on the next ack while one is imminent.
    fn disseminate(&mut self, ctx: &mut NodeCtx<'_>, m: AppMsg) {
        if !self.opts.piggyback_on_acks {
            // Modular-style dissemination: diffuse to everyone.
            self.broadcast(ctx, mono::DIFFUSE, &MonoMsg::Diffuse { msg: m.clone() });
            self.pool.insert(m.id, m);
            self.try_start_instance(ctx);
        } else {
            let coord = self.core.live_coordinator(ctx.n());
            self.pool.insert(m.id, m);
            if coord == ctx.pid() {
                self.try_start_instance(ctx);
            } else if !self.in_flight() {
                // No ack imminent: hand the message over right away.
                self.flush_pool_to(ctx, coord);
            }
            // Otherwise the message rides the next AckDiff (O2).
        }
    }
}

/// Hand-backs from the replica core: the monolith's thesis is that they
/// land in the merged state directly, with no boundary in between.
impl ReplicaHost<NodeCtx<'_>> for MonoNode {
    fn core(&mut self) -> &mut ReplicaCore {
        &mut self.core
    }

    fn snapshot_covers(&mut self, snap: &Snapshot) {
        let next = snap.last_included + 1;
        if next > self.next_decide {
            self.next_decide = next;
        }
        // Seed duplicate suppression with the compacted prefix's
        // delivered sets: compacted messages must never re-deliver.
        for log in &snap.delivered {
            self.delivered.seed(log);
        }
        self.decision_buffer = self.decision_buffer.split_off(&next);
    }

    fn snapshot_installed(&mut self, ctx: &mut NodeCtx<'_>) {
        // Messages the snapshot already delivered leave the pool; own
        // messages among them release their flow-control slots.
        let core = &self.core;
        self.pool.retain(|id, _| !core.is_delivered(*id));
        if self.outbox.settle(|id| core.is_delivered(id)) {
            ctx.app_ready();
        }
        // Buffered decisions past the snapshot may be contiguous now.
        self.apply_decisions(ctx);
    }

    fn learn_decisions(&mut self, ctx: &mut NodeCtx<'_>, first: u64, values: Vec<Batch>) {
        for (i, value) in values.into_iter().enumerate() {
            self.buffer_decision(ctx, first + i as u64, value);
        }
        self.apply_decisions(ctx);
    }

    fn advance_round(&mut self, ctx: &mut NodeCtx<'_>, instance: u64) {
        let me = ctx.pid();
        let Some(to) = self.core.rotate(ctx, instance) else {
            return;
        };
        if to.coordinator != me {
            self.send_estimate(ctx, instance, to.round);
        } else if self.core.direct_round(instance, me, ctx.n()).is_some() {
            let proposal = self.lock_direct(ctx, instance, self.fresh_pool_batch());
            self.propose(ctx, proposal);
        } else {
            let pool = &self.pool;
            self.core
                .join_own_estimate(me, instance, || Some(batch_of(pool)));
            self.try_propose_from_estimates(ctx, instance);
        }
    }

    fn promised(&mut self, ctx: &mut NodeCtx<'_>) {
        self.try_start_instance(ctx);
    }
}

impl Node for MonoNode {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        self.start_replica(ctx);
        self.arm_fd(ctx, self.fd.tick_interval());
        ctx.set_timer(SWEEP_INTERVAL, TAG_SWEEP);
        self.watch_coordinator(ctx);
    }

    fn on_message(&mut self, ctx: &mut NodeCtx<'_>, from: ProcessId, bytes: Bytes) {
        self.receive(ctx, from, bytes);
        self.watch_coordinator(ctx);
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _timer: TimerId, tag: u64) {
        match tag {
            TAG_FD => {
                // This tick fired: there is nothing armed left to cancel.
                self.fd_timer = None;
                self.fd.pace(ctx, &mut self.fd_scratch, |ctx, p| {
                    ReplicaCtx::send(ctx, p, fd::HEARTBEAT, |w| MonoMsg::Heartbeat.encode(w));
                });
                self.process_fd_events(ctx);
                self.arm_fd(ctx, self.fd.tick_interval());
            }
            TAG_SWEEP => {
                self.sweep(ctx);
                ctx.set_timer(SWEEP_INTERVAL, TAG_SWEEP);
            }
            _ => {}
        }
        self.watch_coordinator(ctx);
    }

    fn on_request(&mut self, ctx: &mut NodeCtx<'_>, req: AppRequest) -> Admission {
        let AppRequest::Abcast(m) = req;
        if !self.outbox.admit(&m, ctx.now()) {
            return Admission::Blocked;
        }
        debug_assert_eq!(m.id.sender, ctx.pid(), "abcast of a foreign message");
        ctx.bump(abcast::REQUESTS, 1);
        self.disseminate(ctx, m);
        self.watch_coordinator(ctx);
        Admission::Accepted
    }
}

impl MonoNode {
    /// Handles one message off the wire.
    fn receive(&mut self, ctx: &mut NodeCtx<'_>, from: ProcessId, bytes: Bytes) {
        let msg = match ctx.reader(bytes).get_only::<MonoMsg>() {
            Ok(m) => m,
            Err(_) => {
                ctx.bump(mono::GARBAGE, 1);
                return;
            }
        };
        match msg {
            MonoMsg::Step { decision, proposal } => {
                let combined = proposal.is_some();
                if let Some(d) = decision {
                    self.handle_decision(ctx, from, d, !combined);
                }
                if let Some(p) = proposal {
                    self.handle_proposal(ctx, from, p);
                }
            }
            MonoMsg::AckDiff {
                instance,
                round,
                msgs,
            } => self.handle_ack(ctx, from, instance, round, msgs),
            MonoMsg::Forward { msgs } => self.handle_forward(ctx, msgs),
            MonoMsg::Diffuse { msg } => {
                if self.delivered.is_new(msg.id) {
                    self.pool.insert(msg.id, msg);
                }
                self.try_start_instance(ctx);
            }
            MonoMsg::Estimate {
                instance,
                round,
                ts,
                value,
                msgs,
            } => self.handle_estimate(ctx, from, instance, round, ts, value, msgs),
            MonoMsg::Heartbeat => {
                self.fd.on_heartbeat(from, ctx.now(), &mut self.fd_scratch);
                self.process_fd_events(ctx);
            }
            MonoMsg::CatchUp(msg) => self.on_catch_up(ctx, from, msg),
        }
    }
}

#[cfg(test)]
mod tests {
    use fortika_fd::FdConfig;
    use fortika_net::wire::encode;
    use fortika_net::{Cluster, ClusterConfig, Counters, Stored};

    use super::*;

    /// A peer that sends its frames to process 1 on start, and nothing
    /// else.
    struct Peer(Vec<Stored>);

    impl Node for Peer {
        fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
            for frame in self.0.drain(..) {
                ctx.send(ProcessId(1), mono::STEP, frame);
            }
        }
        fn on_message(&mut self, _: &mut NodeCtx<'_>, _: ProcessId, _: Bytes) {}
        fn on_request(&mut self, _: &mut NodeCtx<'_>, _: AppRequest) -> Admission {
            Admission::Blocked
        }
    }

    /// Process 1, a fresh monolith among two peers, after process 0
    /// sent it `frames`: the cluster's counters.
    fn receive(frames: Vec<Stored>) -> Counters {
        let fd = HeartbeatFd::new(3, ProcessId(1), FdConfig::default());
        let node = MonoNode::new(MonoOptimizations::all(), 64, fd);
        let nodes: Vec<Box<dyn Node>> = vec![
            Box::new(Peer(frames)),
            Box::new(node),
            Box::new(Peer(Vec::new())),
        ];
        let mut cluster = Cluster::new(ClusterConfig::instant(3, 1), nodes);
        cluster.run_idle(VTime::ZERO + VDur::millis(1));
        cluster.counters().clone()
    }

    #[test]
    fn a_frame_of_the_unassigned_tag_8_is_garbage() {
        let frame = [&[8u8][..], &12u64.to_le_bytes(), &2u32.to_le_bytes()].concat();
        let counters = receive(vec![Stored::from(Bytes::from(frame))]);
        assert_eq!(counters.event("mono.garbage"), 1);
        assert_eq!(counters.kind("mono.estimate").msgs, 0);
    }

    #[test]
    fn a_frame_of_the_freed_tag_6_is_garbage() {
        // The bytes a decision request for instance 6 had.
        let frame = [&[6u8][..], &6u64.to_le_bytes()].concat();
        let counters = receive(vec![Stored::from(Bytes::from(frame))]);
        assert_eq!(counters.event("mono.garbage"), 1);
        assert_eq!(counters.kind("mono.state_transfer").msgs, 0);
    }

    #[test]
    fn a_tag_only_decision_past_the_window_pulls_the_missing_batch() {
        let tag = MonoMsg::Step {
            decision: Some(Decision {
                instance: 20,
                round: 0,
                full: None,
            }),
            proposal: None,
        };
        let counters = receive(vec![Stored::from(encode(&tag))]);
        // One pull from the replayed prefix's end on the sighting, then
        // one from the tag's own instance for its value.
        assert_eq!(counters.event("mono.gap_requests"), 1);
        assert_eq!(counters.event("mono.tag_misses"), 1);
        assert_eq!(counters.kind("mono.pull").msgs, 2);
    }
}
