//! The Chandra–Toueg round machine both stacks run, written once.
//!
//! Per undecided instance a process is in a round, holds an estimate
//! with its adoption timestamp, remembers the latest proposal it saw and
//! — while it coordinates — gathers estimates and acks. The rules that
//! make this safe are the same on both stacks and live here, as
//! transitions of the [`ReplicaCore`] that owns the state ([`Rounds`]):
//!
//! * **lock** — a coordinator adopts the value it is about to propose
//!   with timestamp `round + 1` and acks itself, durably, before the
//!   proposal leaves ([`ReplicaCore::lock`]);
//! * **vote** — a process adopts a proposal of its current (or a higher)
//!   round the same way before it acks ([`ReplicaCore::vote`]); a process
//!   that may not vote still records the proposal, so a tag-only decision
//!   can conclude it ([`ReplicaCore::resolve_tag`]; a miss pulls the
//!   value);
//! * **choose** — a coordinator of a later round proposes the
//!   max-timestamp estimate out of a majority's, which intersects every
//!   ack quorum ([`ReplicaCore::quorum_choice`]);
//! * **rotate** — rounds only move forward, past coordinators currently
//!   suspected ([`ReplicaCore::rotate`]): when suspicion starts, and when
//!   an instance opens in a round whose coordinator is already suspected
//!   ([`ReplicaCore::coordinator_suspected`]);
//! * **promise** — a process that enters a round `r ≥ 1` to send its
//!   estimate to another coordinator may never vote below `r` there: one
//!   stable record ([`keys::PROMISE`]) covers it, written only when it
//!   rises and before the estimate leaves ([`ReplicaCore::promise`]) — so
//!   a process revived after sending an estimate cannot ack a late
//!   proposal of the round it left. When it left that round because it
//!   suspects its coordinator, it also promises `r` for every instance it
//!   has not opened: one [`CatchUp::Promise`] of `{ round, from }` to every
//!   peer, `from` above every instance it holds a vote record for or has
//!   open. The progress sweep moving one stuck instance on promises that
//!   instance alone;
//! * **open** — a fresh instance at or above the promise opens in the
//!   promised round ([`ReplicaCore::fresh_round`]); a recovered vote of a
//!   higher round wins. A process that sees a round above its promise in
//!   use — a proposal, a decision, a peer's promise — raises its promise
//!   to it ([`ReplicaCore::raise`]), so a revived round-0 coordinator
//!   stops proposing into instances its peers promised away, and
//!   coordination stays with the promised coordinator until a suspicion
//!   rotates it again. Raising promises too, rather than only moving the
//!   open round: a promise lost to a partition would otherwise leave the
//!   new coordinator short of a promise quorum while every process waits
//!   in its round. A proposal of a round this process promised away is
//!   answered with the promise, and so is a pulling peer;
//! * **direct** — the coordinator of round `r` proposes at `j` with no
//!   estimate phase once a majority of the group, itself included, promised
//!   `r` from at or below `j` ([`ReplicaCore::direct_round`]). Round 0 is
//!   the case with nothing to promise (the paper's first optimisation):
//!   nothing below `r` can be decided at `j`, because that needs an ack
//!   quorum, which would meet a promiser. A direct proposal reached every
//!   member as it is, so its decision travels as a tag, as round 0's always
//!   did.
//!
//! The invariant the promise keeps: **a process that promised round `r`
//! from `f` holds no vote of a round below `r` at any `j ≥ f`, and never
//! will, in this incarnation or a later one.** So a coordinator change
//! costs one estimate round for the instances live at the suspicion, and
//! every later instance runs as round 0 did: a proposal, acks and a tag.
//!
//! Timestamps are `round + 1` so that a value locked by an ack quorum
//! always outranks never-adopted initial values (timestamp 0).
//!
//! What a stack does with an outcome — which message carries the
//! proposal, the ack or the estimate, what an unlocked coordinator
//! proposes, where an initial estimate comes from — is its own business:
//! every transition hands its outcome back as data.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet};

use fortika_sim::VTime;

use crate::id::ProcessId;
use crate::message::Batch;
use crate::replica::{keys, CatchUp, ReplicaCore, ReplicaCtx, PROGRESS_TIMEOUT};
use crate::wire::{encode, Wire, WireError, WireReader, WireWriter};

/// A promise: no vote of a round below `round` at any instance from
/// `from` on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Promise {
    /// The promised round.
    pub round: u32,
    /// The first instance covered.
    pub from: u64,
}

impl Promise {
    /// The round the promise holds `instance` to (0 below `from`).
    fn round_at(self, instance: u64) -> u32 {
        if instance >= self.from {
            self.round
        } else {
            0
        }
    }

    /// The promise covering what both cover, at the higher round: a
    /// raise never uncovers an instance (round 0 covers nothing).
    fn raised(self, to: Promise) -> Promise {
        match (self.round, to.round) {
            (_, 0) => self,
            (0, _) => to,
            (a, b) => Promise {
                round: a.max(b),
                from: self.from.min(to.from),
            },
        }
    }
}

impl Wire for Promise {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u32(self.round);
        w.put_u64(self.from);
    }
    fn decode(r: &mut WireReader) -> Result<Self, WireError> {
        Ok(Promise {
            round: r.get_u32()?,
            from: r.get_u64()?,
        })
    }
}

/// Round state of one undecided instance.
struct Instance {
    round: u32,
    round_entered: VTime,
    /// Current estimate and its adoption timestamp (0: an initial value
    /// nobody locked).
    estimate: Option<(Batch, u32)>,
    /// Latest proposal received (round, value) — what a round-tagged
    /// decision refers to.
    last_proposal: Option<(u32, Batch)>,
    /// Acks gathered while coordinating the current round.
    acks: BTreeSet<ProcessId>,
    /// Highest-round estimate received from each process (round, value,
    /// timestamp).
    estimates: BTreeMap<ProcessId, (u32, Batch, u32)>,
    /// Last round in which this process, as coordinator, proposed.
    proposal_sent_round: Option<u32>,
    /// A decision tag arrived for this round but the matching proposal
    /// is missing; awaiting recovery.
    pending_tag: Option<u32>,
    /// The outstanding proposal was made with no estimate phase.
    direct: bool,
}

impl Instance {
    /// Rounds only move forward; acks belong to the round left behind.
    fn enter(&mut self, round: u32, now: VTime) {
        debug_assert!(round > self.round);
        self.round = round;
        self.round_entered = now;
        self.acks.clear();
    }

    /// Adopts `value` in `round` (the CT locking step). Debug builds check
    /// the two invariants this state can see: a locked estimate's
    /// timestamp never decreases, and a process votes for at most one
    /// value per `(instance, round)`. The second is what a coordinator
    /// revived without its vote record breaks at its voters, so the
    /// suites that plant that bug (`lost_votes_planted`) — to see the
    /// delivery oracle report it — switch the check off.
    fn adopt(&mut self, round: u32, value: &Batch, lost_votes_planted: bool) {
        if let Some((held, ts)) = &self.estimate {
            debug_assert!(*ts <= round + 1, "a locked timestamp decreased");
            debug_assert!(
                lost_votes_planted || *ts != round + 1 || held == value,
                "two values voted in one (instance, round)"
            );
        }
        self.estimate = Some((value.clone(), round + 1));
    }
}

/// The round state of every undecided instance a process takes part in,
/// plus the processes its failure detector currently suspects. Owned by
/// [`ReplicaCore`], whose transitions (in this module) are the only
/// writers; the stacks read it through [`ReplicaCore::rounds`].
#[derive(Default)]
pub struct Rounds {
    instances: BTreeMap<u64, Instance>,
    suspected: BTreeSet<ProcessId>,
    /// This process's promise of the tail: fresh instances from
    /// `promised.from` on open in `promised.round`.
    promised: Promise,
    /// The stable promise record: covers `promised` and every instance
    /// this process sent an estimate for, in this incarnation or an
    /// earlier one.
    durable: Promise,
    /// The latest promise each peer sent.
    peers: BTreeMap<ProcessId, Promise>,
    /// One past the highest instance this incarnation voted in.
    voted_below: u64,
}

impl Rounds {
    /// Number of live instances.
    pub fn len(&self) -> usize {
        self.instances.len()
    }

    /// True when no instance is live.
    pub fn is_empty(&self) -> bool {
        self.instances.is_empty()
    }

    /// True when `instance` is live.
    pub fn contains(&self, instance: u64) -> bool {
        self.instances.contains_key(&instance)
    }

    /// The lowest live instance.
    pub fn lowest(&self) -> Option<u64> {
        self.instances.keys().next().copied()
    }

    /// True while `p` is suspected.
    pub fn suspects(&self, p: ProcessId) -> bool {
        self.suspected.contains(&p)
    }

    /// `instance`'s estimate and its adoption timestamp.
    pub fn estimate(&self, instance: u64) -> Option<(&Batch, u32)> {
        let (value, ts) = self.instances.get(&instance)?.estimate.as_ref()?;
        Some((value, *ts))
    }

    /// True when an estimate from `p` (of whatever round) is in
    /// `instance`'s collection.
    pub fn has_estimate_from(&self, instance: u64, p: ProcessId) -> bool {
        self.instances
            .get(&instance)
            .is_some_and(|inst| inst.estimates.contains_key(&p))
    }

    /// `instance`'s current round, if this process has not proposed in
    /// it (whoever coordinates it).
    pub fn unproposed_round(&self, instance: u64) -> Option<u32> {
        let inst = self.instances.get(&instance)?;
        (inst.proposal_sent_round != Some(inst.round)).then_some(inst.round)
    }

    /// The values of the proposals outstanding in live instances.
    pub fn proposed_values(&self) -> impl Iterator<Item = &Batch> {
        self.instances
            .values()
            .filter_map(|inst| inst.last_proposal.as_ref().map(|(_, v)| v))
    }

    /// Instances stuck in one round for longer than [`PROGRESS_TIMEOUT`].
    pub fn stuck(&self, now: VTime) -> Vec<u64> {
        self.instances
            .iter()
            .filter(|(_, inst)| now.since(inst.round_entered) > PROGRESS_TIMEOUT)
            .map(|(k, _)| *k)
            .collect()
    }

    /// True when `instance`'s outstanding proposal was made with no
    /// estimate phase (round 0, or a promised round): every member got
    /// it as it was, so its decision travels as a tag.
    pub fn tag_decides(&self, instance: u64) -> bool {
        self.instances
            .get(&instance)
            .is_some_and(|inst| inst.direct)
    }

    /// This process's own promise (round 0: none).
    pub fn promised(&self) -> Promise {
        self.promised
    }

    /// Drops the instances below `next` (a snapshot covers them).
    pub(crate) fn drop_below(&mut self, next: u64) {
        self.instances = self.instances.split_off(&next);
    }

    /// Adopts the promise record a previous incarnation persisted, the
    /// tail included.
    pub(crate) fn restore_promise(&mut self, promise: Promise) {
        self.promised = promise;
        self.durable = promise;
    }
}

/// What became of a proposal handed to [`ReplicaCore::vote`]; neither
/// flag is set for a stale one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Vote {
    /// The proposal was adopted and the vote is durable: ack it.
    pub voted: bool,
    /// A decision tag was waiting for exactly this proposal: decide it.
    pub tag_hit: bool,
}

/// What a coordinator may propose once a majority sent estimates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QuorumChoice {
    /// Some estimate is locked: the one with the highest timestamp
    /// (lowest process id among equals) must be proposed verbatim.
    Locked(Batch),
    /// Nothing is locked, so no earlier round can have decided (any ack
    /// quorum would surface here with a timestamp ≥ 1, by quorum
    /// intersection) and any initial value is safe: the candidates'
    /// values, by process id.
    Unlocked(Vec<Batch>),
}

/// The round [`ReplicaCore::rotate`] moved an instance to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rotation {
    /// The round entered.
    pub round: u32,
    /// Its coordinator.
    pub coordinator: ProcessId,
}

impl ReplicaCore {
    /// The round state, read-only.
    pub fn rounds(&self) -> &Rounds {
        &self.rounds
    }

    /// True under the planted lost-vote bug (see [`Instance::adopt`]).
    fn lost_votes_planted(&self) -> bool {
        #[cfg(debug_assertions)]
        return self.cfg().faults.skip_vote_persist;
        #[cfg(not(debug_assertions))]
        false
    }

    /// The round a fresh `instance` opens in: the highest this process
    /// promised or saw in use at or below it, or that of the vote it
    /// recovered for it, if higher (0 while nothing was ever rotated).
    pub fn fresh_round(&self, instance: u64) -> u32 {
        let recovered = self.recovered_votes.get(&instance).map_or(0, |r| r.round);
        self.rounds.promised.round_at(instance).max(recovered)
    }

    /// `instance`'s current round, or the one it would open in.
    fn round_of(&self, instance: u64) -> u32 {
        match self.rounds.instances.get(&instance) {
            Some(inst) => inst.round,
            None => self.fresh_round(instance),
        }
    }

    /// Per-instance state, created on first touch in its
    /// [`fresh_round`](Self::fresh_round); a revived process seeds fresh
    /// instances from its recovered vote records so its locked `(round,
    /// estimate, ts)` is honoured.
    fn instance_entry(&mut self, instance: u64, now: VTime) -> &mut Instance {
        let promised = self.rounds.promised;
        let recovered = &self.recovered_votes;
        self.rounds.instances.entry(instance).or_insert_with(|| {
            let rec = recovered.get(&instance);
            Instance {
                round: promised.round_at(instance).max(rec.map_or(0, |r| r.round)),
                round_entered: now,
                estimate: rec.map(|r| (r.value.clone(), r.ts)),
                last_proposal: None,
                acks: BTreeSet::new(),
                estimates: BTreeMap::new(),
                proposal_sent_round: None,
                pending_tag: None,
                direct: false,
            }
        })
    }

    /// Makes `instance` live (so that rotation can engage) if it is not.
    pub fn open(&mut self, instance: u64, now: VTime) {
        self.instance_entry(instance, now);
    }

    /// Makes `instance` live with `value` as this process's initial
    /// estimate, unless it already holds one.
    pub fn offer(&mut self, instance: u64, now: VTime, value: Batch) {
        self.instance_entry(instance, now)
            .estimate
            .get_or_insert((value, 0));
    }

    /// Forgets `instance` (it was decided).
    pub fn close(&mut self, instance: u64) {
        self.rounds.instances.remove(&instance);
    }

    /// Starts suspecting `p`; returns the live instances whose current
    /// round it coordinates, which are due a [`rotate`](Self::rotate).
    pub fn suspect(&mut self, p: ProcessId, n: usize) -> Vec<u64> {
        self.rounds.suspected.insert(p);
        self.rounds
            .instances
            .iter()
            .filter(|(_, inst)| Self::coordinator_of(inst.round, n) == p)
            .map(|(k, _)| *k)
            .collect()
    }

    /// Stops suspecting `p`.
    pub fn restore(&mut self, p: ProcessId) {
        self.rounds.suspected.remove(&p);
    }

    /// True when the coordinator of live `instance`'s current round is
    /// suspected. Suspicion is a state, not only the moment it starts:
    /// both stacks ask this when an instance opens, and
    /// [`rotate`](Self::rotate) it at once when true — otherwise every
    /// instance opened while a coordinator is down would wait out
    /// [`PROGRESS_TIMEOUT`]. Free while nothing is suspected.
    pub fn coordinator_suspected(&self, instance: u64, n: usize) -> bool {
        if self.rounds.suspected.is_empty() {
            return false;
        }
        self.rounds.instances.get(&instance).is_some_and(|inst| {
            let coordinator = Self::coordinator_of(inst.round, n);
            self.rounds.suspected.contains(&coordinator)
        })
    }

    /// The coordinator work should be routed to right now: that of the
    /// lowest live instance's round or, with none live, the first
    /// unsuspected process in the rotation at the end of the replayed
    /// prefix, from the round that instance would open in.
    pub fn live_coordinator(&self, n: usize) -> ProcessId {
        if let Some(inst) = self.rounds.instances.values().next() {
            return Self::coordinator_of(inst.round, n);
        }
        let first = self.fresh_round(self.replayed_watermark());
        let at = |r: u32| Self::coordinator_of(first + r, n);
        // Bounded by one full rotation: every process may be
        // transiently suspected.
        let mut r = 0;
        while r < n as u32 && self.rounds.suspected.contains(&at(r)) {
            r += 1;
        }
        at(r)
    }

    /// The round in which `me` may propose at `instance` with no estimate
    /// phase, if any: `instance` (live, or the round it would open in) is
    /// unproposed in a round `me` coordinates; `me` holds no lock of a
    /// lower round there (a lock of this very round — its own,
    /// recovered — is re-proposed); and the round is 0, or a majority of
    /// the group, `me` included, promised it from at or below
    /// `instance`.
    pub fn direct_round(&self, instance: u64, me: ProcessId, n: usize) -> Option<u32> {
        let (round, held) = match self.rounds.instances.get(&instance) {
            Some(inst) if inst.proposal_sent_round == Some(inst.round) => return None,
            Some(inst) => (inst.round, inst.estimate.as_ref().map_or(0, |(_, ts)| *ts)),
            None => {
                let rec = self.recovered_votes.get(&instance);
                (self.fresh_round(instance), rec.map_or(0, |r| r.ts))
            }
        };
        if Self::coordinator_of(round, n) != me || (held != 0 && held != round + 1) {
            return None;
        }
        let promised = round == 0 || self.promise_quorum(instance, round, me, n);
        promised.then_some(round)
    }

    /// The live instances [`direct_round`](Self::direct_round) lets `me`
    /// propose in, in a round above 0.
    pub fn direct_ready(&self, me: ProcessId, n: usize) -> Vec<u64> {
        self.rounds
            .instances
            .keys()
            .copied()
            .filter(|k| self.direct_round(*k, me, n).is_some_and(|r| r > 0))
            .collect()
    }

    /// True when a majority of the group — `me` and peers whose promise
    /// covers `instance` — promised `round` or higher.
    fn promise_quorum(&self, instance: u64, round: u32, me: ProcessId, n: usize) -> bool {
        let promised = ProcessId::all(n).filter(|p| {
            *p != me
                && self
                    .rounds
                    .peers
                    .get(p)
                    .is_some_and(|q| q.round >= round && q.from <= instance)
        });
        promised.count() + 1 >= Self::majority_of(n)
    }

    /// The first instance the promise this process made (`promised`,
    /// round above 0) may announce: above every instance it holds a vote
    /// record for or has open, and never below `promised.from` — fresh
    /// instances under that floor still open in a lower round. The stable
    /// record may reach lower (it covers single rotated instances too),
    /// but it is no floor for what fresh instances open in.
    fn promise_from(&self) -> u64 {
        let last = |k: Option<&u64>| k.map_or(0, |k| k + 1);
        let open = last(self.rounds.instances.keys().next_back());
        let recovered = last(self.recovered_votes.keys().next_back());
        (self.rounds.voted_below)
            .max(open)
            .max(recovered)
            .max(self.decided_watermark())
            .max(self.rounds.promised.from)
    }

    /// Sends this process's promise, if it made one, to `to`.
    pub(crate) fn send_promise<C: ReplicaCtx>(&self, ctx: &mut C, to: ProcessId) {
        let round = self.rounds.promised.round;
        if round > 0 {
            let from = self.promise_from();
            self.send(ctx, to, &CatchUp::Promise(Promise { round, from }));
        }
    }

    /// This process entered `round` at `instance` and is about to send
    /// its estimate to the round's coordinator, another process: it may
    /// never vote below `round` there, in this incarnation or a later
    /// one. The stable record rises to cover `instance` at `round` —
    /// written only when it rises, before the estimate leaves.
    pub fn promise<C: ReplicaCtx>(&mut self, ctx: &mut C, instance: u64, round: u32) {
        let record = self.rounds.durable.raised(Promise {
            round,
            from: instance,
        });
        if record != self.rounds.durable {
            ctx.persist(keys::PROMISE, encode(&record));
            self.rounds.durable = record;
        }
    }

    /// Rule 1: a [`promise`](Self::promise) at `instance` that also
    /// promises `round` for every instance this process has not opened
    /// (they open in it), and on a round rise tells every peer, once.
    fn promise_tail<C: ReplicaCtx>(&mut self, ctx: &mut C, instance: u64, round: u32) {
        self.promise(ctx, instance, round);
        let old = self.rounds.promised;
        self.rounds.promised = old.raised(Promise {
            round,
            from: instance,
        });
        if round > old.round {
            ctx.bump(self.names.promises, 1);
            ctx.trace_span(self.names.label, instance, "promise", u64::from(round));
            let from = self.promise_from();
            self.broadcast(ctx, &CatchUp::Promise(Promise { round, from }));
        }
    }

    /// Rule 2: `round` was seen in use at `instance` — a proposal, a
    /// decision, a peer's promise. Above this process's promise, it
    /// promises the tail too: fresh instances from `instance` on open in
    /// it, and its coordinator can count this process. Free at or below
    /// the promise.
    pub fn raise<C: ReplicaCtx>(&mut self, ctx: &mut C, instance: u64, round: u32) {
        if round > self.rounds.promised.round {
            self.promise_tail(ctx, instance, round);
        }
    }

    /// Takes `from`'s promise: kept (the highest per peer) and
    /// [raised](Self::raise) to. Returns the live instances this process
    /// proposed in, in a lower round: the promiser will not ack them, so
    /// they are due a [`rotate`](Self::rotate).
    pub(crate) fn absorb_promise<C: ReplicaCtx>(
        &mut self,
        ctx: &mut C,
        from: ProcessId,
        promise: Promise,
    ) -> Vec<u64> {
        let held = self.rounds.peers.entry(from).or_insert(promise);
        if (promise.round, Reverse(promise.from)) > (held.round, Reverse(held.from)) {
            *held = promise;
        }
        self.raise(ctx, promise.from, promise.round);
        self.rounds
            .instances
            .iter()
            .filter(|(_, inst)| {
                inst.round < promise.round && inst.proposal_sent_round == Some(inst.round)
            })
            .map(|(k, _)| *k)
            .collect()
    }

    /// Coordinator side: locks `value` as this process's estimate in
    /// `instance`'s current round, which it returns, and acks it —
    /// durable before (atomically with) the proposal the caller now
    /// sends.
    pub fn lock<C: ReplicaCtx>(&mut self, ctx: &mut C, instance: u64, value: &Batch) -> u32 {
        let me = ctx.pid();
        let planted = self.lost_votes_planted();
        let round = self.round_of(instance);
        let direct = round == 0 || self.promise_quorum(instance, round, me, ctx.n());
        self.rounds.voted_below = self.rounds.voted_below.max(instance + 1);
        let inst = self.instance_entry(instance, ctx.now());
        inst.adopt(round, value, planted);
        inst.last_proposal = Some((round, value.clone()));
        inst.proposal_sent_round = Some(round);
        inst.direct = direct;
        inst.acks.clear();
        inst.acks.insert(me);
        ctx.bump(self.names.proposals, 1);
        if direct && round > 0 {
            ctx.bump(self.names.direct_proposals, 1);
        }
        ctx.trace_span(self.names.label, instance, "proposed", u64::from(round));
        self.persist_vote(ctx, instance, round, round + 1, value);
        round
    }

    /// The gate every incoming proposal passes first. False: drop the
    /// proposal — `from` does not coordinate `round` (counted), or
    /// `instance` is decided here, and `from`, a coordinator still
    /// waiting to conclude it, was answered as a pull from `instance`
    /// would be. A proposal of a round this process promised away at an
    /// undecided instance is answered with the promise, so its
    /// coordinator moves on at once; one beyond the pipeline window above
    /// the replayed prefix pulls the decisions this process missed from
    /// its sender.
    pub fn admit_proposal<C: ReplicaCtx>(
        &mut self,
        ctx: &mut C,
        from: ProcessId,
        instance: u64,
        round: u32,
    ) -> bool {
        if Self::coordinator_of(round, ctx.n()) != from {
            ctx.bump(self.names.bogus_proposals, 1);
            return false;
        }
        if round < self.rounds.promised.round_at(instance)
            && round < self.round_of(instance)
            && !self.is_decided(instance)
        {
            self.send_promise(ctx, from);
        }
        self.pull_on_sighting(ctx, from, instance);
        self.admit_estimate(ctx, from, instance)
    }

    /// The gate every incoming estimate passes first: false — drop it —
    /// when `instance` is decided here, and then `from`, a process still
    /// in a round of it, is answered as a pull from `instance` would be.
    pub fn admit_estimate<C: ReplicaCtx>(
        &mut self,
        ctx: &mut C,
        from: ProcessId,
        instance: u64,
    ) -> bool {
        if self.is_decided(instance) {
            self.serve_pull(ctx, from, instance);
            return false;
        }
        true
    }

    /// The gate every decision of `(instance, round)` from `from` passes
    /// first, whatever carries it: a peer's decision beyond the pipeline
    /// window above the replayed prefix pulls the decisions this process
    /// missed below it from `from`, and its round is
    /// [raised](Self::raise) to.
    pub fn admit_decision<C: ReplicaCtx>(
        &mut self,
        ctx: &mut C,
        from: ProcessId,
        instance: u64,
        round: u32,
    ) {
        self.pull_on_sighting(ctx, from, instance);
        self.raise(ctx, instance, round);
    }

    /// Takes the proposal `(round, value)` for an undecided `instance`.
    /// One from an abandoned round is ignored, and costs nothing durable;
    /// otherwise its round is [raised](Self::raise) to, it is recorded
    /// (joining its round) and adopted, the vote durable atomically with
    /// the ack the caller now sends so a future incarnation honours the
    /// lock.
    pub fn vote<C: ReplicaCtx>(
        &mut self,
        ctx: &mut C,
        instance: u64,
        round: u32,
        value: &Batch,
    ) -> Vote {
        let now = ctx.now();
        let planted = self.lost_votes_planted();
        if round < self.instance_entry(instance, now).round {
            return Vote {
                voted: false,
                tag_hit: false,
            };
        }
        self.raise(ctx, instance, round);
        let inst = self.instance_entry(instance, now);
        if round > inst.round {
            inst.enter(round, now);
        }
        inst.last_proposal = Some((round, value.clone()));
        let tag_hit = inst.pending_tag == Some(round);
        inst.adopt(round, value, planted);
        self.rounds.voted_below = self.rounds.voted_below.max(instance + 1);
        self.persist_vote(ctx, instance, round, round + 1, value);
        ctx.trace_span(self.names.label, instance, "voted", u64::from(round));
        Vote {
            voted: true,
            tag_hit,
        }
    }

    /// Coordinator side: counts `from`'s ack of `round`. False for an
    /// ack of anything but the outstanding proposal.
    pub fn record_ack(&mut self, from: ProcessId, instance: u64, round: u32) -> bool {
        let Some(inst) = self.rounds.instances.get_mut(&instance) else {
            return false;
        };
        if inst.round != round || inst.proposal_sent_round != Some(round) {
            return false;
        }
        inst.acks.insert(from);
        true
    }

    /// Coordinator side: the round and value of `instance`'s outstanding
    /// proposal once a majority of the group acked.
    pub fn quorum_acked(&self, instance: u64, n: usize) -> Option<(u32, Batch)> {
        let majority = Self::majority_of(n);
        let inst = self.rounds.instances.get(&instance)?;
        if inst.proposal_sent_round != Some(inst.round) || inst.acks.len() < majority {
            return None;
        }
        let value = inst.estimate.as_ref().map(|(v, _)| v.clone());
        Some((inst.round, value.unwrap_or_default()))
    }

    /// A tag-only decision of `round` arrived from `from`: the value it
    /// decides, if the matching proposal is at hand. Otherwise the tag is
    /// kept until the proposal shows up ([`Vote::tag_hit`]) and the value
    /// is pulled from `from`, from `instance` on — the sweep re-sends the
    /// pull to everybody — and whichever comes first decides it.
    pub fn resolve_tag<C: ReplicaCtx>(
        &mut self,
        ctx: &mut C,
        from: ProcessId,
        instance: u64,
        round: u32,
    ) -> Option<Batch> {
        let inst = self.instance_entry(instance, ctx.now());
        if let Some((r, value)) = &inst.last_proposal {
            if *r == round {
                return Some(value.clone());
            }
        }
        inst.pending_tag = Some(round);
        ctx.bump(self.names.tag_misses, 1);
        if from != ctx.pid() {
            self.pull(ctx, from, instance);
        }
        None
    }

    /// Coordinator side: keeps `from`'s estimate for `round` (only each
    /// process's highest-round one) and joins the round if peers moved
    /// past this process — `Some(true)`. `None` for an estimate of an
    /// abandoned round.
    pub fn record_estimate(
        &mut self,
        from: ProcessId,
        instance: u64,
        round: u32,
        value: Batch,
        ts: u32,
        now: VTime,
    ) -> Option<bool> {
        let inst = self.instance_entry(instance, now);
        if round < inst.round {
            return None;
        }
        if inst.estimates.get(&from).is_none_or(|(r, _, _)| *r < round) {
            inst.estimates.insert(from, (round, value, ts));
        }
        let joined = round > inst.round;
        if joined {
            inst.enter(round, now);
        }
        Some(joined)
    }

    /// Coordinator side: this process's own estimate joins the collection
    /// for `instance`'s current round — the one it holds, else `initial()`
    /// (`None`: it has no initial value yet and contributes nothing).
    pub fn join_own_estimate(
        &mut self,
        me: ProcessId,
        instance: u64,
        initial: impl FnOnce() -> Option<Batch>,
    ) {
        let Some(inst) = self.rounds.instances.get_mut(&instance) else {
            return;
        };
        let own = inst.estimate.clone().or_else(|| Some((initial()?, 0)));
        if let Some((value, ts)) = own {
            inst.estimates.insert(me, (inst.round, value, ts));
        }
    }

    /// Coordinator side (rounds ≥ 1): what `me` may propose in
    /// `instance`'s current round — `None` until a majority's estimates
    /// for it are in, or when it is not `me`'s to propose.
    pub fn quorum_choice(&self, instance: u64, me: ProcessId, n: usize) -> Option<QuorumChoice> {
        let round = self.rounds.unproposed_round(instance)?;
        if round == 0 || Self::coordinator_of(round, n) != me {
            return None;
        }
        let mut candidates: Vec<(ProcessId, &Batch, u32)> = self.rounds.instances[&instance]
            .estimates
            .iter()
            .filter(|(_, (r, _, _))| *r == round)
            .map(|(pid, (_, value, ts))| (*pid, value, *ts))
            .collect();
        if candidates.len() < Self::majority_of(n) {
            return None;
        }
        candidates.sort_by_key(|(pid, _, ts)| (Reverse(*ts), *pid));
        Some(if candidates[0].2 == 0 {
            QuorumChoice::Unlocked(candidates.iter().map(|(_, v, _)| (*v).clone()).collect())
        } else {
            QuorumChoice::Locked(candidates[0].1.clone())
        })
    }

    /// Moves `instance` to the next round — at least the one fresh
    /// instances there open in — whose coordinator is not currently
    /// suspected. `None` if the instance is not live. Entering it to send
    /// an estimate to another coordinator makes a [`promise`](Self::promise)
    /// — of the tail too when the coordinator left behind is suspected: a
    /// coordinator change, not one instance the progress sweep moves on.
    pub fn rotate<C: ReplicaCtx>(&mut self, ctx: &mut C, instance: u64) -> Option<Rotation> {
        let (me, n) = (ctx.pid(), ctx.n());
        let coord_of = |round: u32| Self::coordinator_of(round, n);
        let opening = self.fresh_round(instance);
        let Rounds {
            instances,
            suspected,
            ..
        } = &mut self.rounds;
        let inst = instances.get_mut(&instance)?;
        let left_suspected = suspected.contains(&coord_of(inst.round));
        let mut round = (inst.round + 1).max(opening);
        // The skip is bounded by one full rotation: past it the same
        // coordinators repeat.
        let mut skips = 0;
        while coord_of(round) != me && suspected.contains(&coord_of(round)) && skips < n {
            round += 1;
            skips += 1;
        }
        inst.enter(round, ctx.now());
        ctx.bump(self.names.round_changes, 1);
        ctx.trace_span(self.names.label, instance, "round_change", u64::from(round));
        let coordinator = coord_of(round);
        if coordinator != me && left_suspected {
            self.promise_tail(ctx, instance, round);
        } else if coordinator != me {
            self.promise(ctx, instance, round);
        }
        Some(Rotation { round, coordinator })
    }

    /// One instance [`stuck`](Rounds::stuck) at `now`, the start of the
    /// periodic sweep. If it awaits the value of a tag-only decision it
    /// pulls it from everybody again; otherwise — returning true — it is
    /// due a [`rotate`](Self::rotate) as if its coordinator were
    /// suspected (the liveness backstop), which the stack plays.
    pub fn sweep_stuck<C: ReplicaCtx>(&mut self, ctx: &mut C, instance: u64, now: VTime) -> bool {
        let Some(inst) = self.rounds.instances.get_mut(&instance) else {
            return false;
        };
        if inst.pending_tag.is_none() {
            ctx.bump(self.names.progress_rotations, 1);
            return true;
        }
        inst.round_entered = now;
        ctx.bump(self.names.request_retries, 1);
        self.broadcast(ctx, &CatchUp::Pull { from: instance });
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replica::keys;
    use crate::replica::tests::{batch, FakeCtx, FakeHost, Write, NAMES};
    use crate::replica::{ReplicaConfig, ReplicaHost, VoteRecord};

    const P0: ProcessId = ProcessId(0);
    const P1: ProcessId = ProcessId(1);
    const P2: ProcessId = ProcessId(2);
    /// The instance under test.
    const K: u64 = 4;

    /// A fresh core of p1 in the static group {p1, p2, p3}.
    fn core() -> ReplicaCore {
        ReplicaCore::new(ReplicaConfig::default(), &NAMES)
    }

    /// Moves `instance` of `core` on to `round`, as a proposal or an
    /// estimate of that round would.
    fn enter(core: &mut ReplicaCore, instance: u64, round: u32) {
        core.instance_entry(instance, VTime::ZERO)
            .enter(round, VTime::ZERO);
    }

    /// `core` with `K` moved to round 3, which p1 coordinates, holding
    /// the given `(from, value, ts)` estimates for it.
    fn coordinating(estimates: &[(ProcessId, u64, u32)]) -> ReplicaCore {
        let mut core = core();
        enter(&mut core, K, 3);
        for &(from, value, ts) in estimates {
            let joined = core.record_estimate(from, K, 3, batch(value), ts, VTime::ZERO);
            assert_eq!(joined, Some(false));
        }
        core
    }

    fn stored_vote(ctx: &FakeCtx) -> VoteRecord {
        ctx.store[&keys::vote(K)].decode().unwrap()
    }

    #[test]
    fn a_locked_estimate_beats_any_number_of_initial_ones() {
        // One estimate is no majority of three.
        assert_eq!(coordinating(&[(P1, 1, 0)]).quorum_choice(K, P0, 3), None);
        // Locked in round 1 (ts 2) against two never-adopted values.
        let mut core = coordinating(&[(P1, 1, 0), (P2, 2, 2)]);
        core.join_own_estimate(P0, K, || Some(batch(0)));
        let choice = core.quorum_choice(K, P0, 3);
        assert_eq!(choice, Some(QuorumChoice::Locked(batch(2))));
        // The higher timestamp wins; equal ones go to the lowest pid.
        let choice = coordinating(&[(P1, 1, 1), (P2, 2, 3)]).quorum_choice(K, P0, 3);
        assert_eq!(choice, Some(QuorumChoice::Locked(batch(2))));
        let choice = coordinating(&[(P2, 2, 2), (P1, 1, 2)]).quorum_choice(K, P0, 3);
        assert_eq!(choice, Some(QuorumChoice::Locked(batch(1))));
        // Not p2's round to propose in, whatever it holds.
        assert_eq!(core.quorum_choice(K, P1, 3), None);
    }

    #[test]
    fn unlocked_only_when_every_candidate_is_initial() {
        let mut core = coordinating(&[(P2, 2, 0), (P1, 1, 0)]);
        core.join_own_estimate(P0, K, || Some(batch(0)));
        let all = vec![batch(0), batch(1), batch(2)];
        assert_eq!(
            core.quorum_choice(K, P0, 3),
            Some(QuorumChoice::Unlocked(all))
        );
        // An estimate for another round is no candidate; a process
        // without an initial value contributes nothing.
        let mut core = coordinating(&[(P1, 1, 0)]);
        core.record_estimate(P2, K, 6, batch(2), 0, VTime::ZERO);
        core.join_own_estimate(P0, K, || None);
        assert!(!core.rounds().has_estimate_from(K, P0));
        assert_eq!(core.quorum_choice(K, P0, 3), None);
        // One lock among the candidates and the choice is not free.
        let core = coordinating(&[(P1, 1, 0), (P2, 2, 1)]);
        assert_eq!(
            core.quorum_choice(K, P0, 3),
            Some(QuorumChoice::Locked(batch(2)))
        );
    }

    #[test]
    fn lock_and_vote_persist_before_returning_and_never_lower_ts() {
        let (mut core, mut ctx) = (core(), FakeCtx::new());
        core.offer(K, ctx.now, batch(7));
        assert_eq!(core.rounds().estimate(K), Some((&batch(7), 0)));
        core.offer(K, ctx.now, batch(8)); // the first initial value stays
        assert_eq!(core.rounds().unproposed_round(K), Some(0));
        assert_eq!(core.lock(&mut ctx, K, &batch(7)), 0);
        assert_eq!(ctx.writes, vec![Write::Put(keys::vote(K))]);
        let vote = stored_vote(&ctx);
        assert_eq!((vote.round, vote.ts, vote.value), (0, 1, batch(7)));
        assert_eq!(ctx.bumped("t.proposals"), 1);
        assert_eq!(core.rounds().unproposed_round(K), None, "proposed already");
        assert_eq!(core.rounds().proposed_values().count(), 1);
        // The self-ack alone is no majority of three; p2's makes one.
        assert_eq!(core.quorum_acked(K, 3), None);
        assert!(core.record_ack(P1, K, 0));
        assert_eq!(core.quorum_acked(K, 3), Some((0, batch(7))));

        // A vote in round 2 raises the timestamp to 3, durably.
        let vote = core.vote(&mut ctx, K, 2, &batch(9));
        assert!(vote.voted && !vote.tag_hit);
        let vote = stored_vote(&ctx);
        assert_eq!((vote.round, vote.ts, vote.value), (2, 3, batch(9)));
        assert_eq!(core.rounds().estimate(K), Some((&batch(9), 3)));
        // The acks belonged to round 0.
        assert_eq!(core.quorum_acked(K, 3), None);
        // A proposal of an abandoned round cannot lower it.
        ctx.writes.clear();
        let stale = core.vote(&mut ctx, K, 1, &batch(5));
        assert!(!stale.voted && !stale.tag_hit && ctx.writes.is_empty());
        assert_eq!(core.rounds().estimate(K), Some((&batch(9), 3)));
        // Coordinating round 3, p1 locks whatever it proposes with ts 4.
        enter(&mut core, K, 3);
        assert_eq!(core.lock(&mut ctx, K, &batch(9)), 3);
        assert_eq!(stored_vote(&ctx).ts, 4);
    }

    #[test]
    fn stale_rounds_are_ignored() {
        let (mut core, mut ctx) = (core(), FakeCtx::new());
        enter(&mut core, K, 3);
        // Proposal: not recorded, so a tag for its round still misses.
        let vote = core.vote(&mut ctx, K, 2, &batch(1));
        assert!(!vote.voted && ctx.writes.is_empty() && ctx.sent.is_empty());
        assert_eq!(core.resolve_tag(&mut ctx, P1, K, 2), None);
        assert_eq!(ctx.bumped("t.tag_misses"), 1);
        // Estimate: not kept.
        let stale = core.record_estimate(P1, K, 2, batch(1), 0, ctx.now);
        assert_eq!(stale, None);
        assert!(!core.rounds().has_estimate_from(K, P1));
        // A later one replaces an earlier one of the same process, not
        // the other way round.
        assert_eq!(
            core.record_estimate(P1, K, 6, batch(6), 0, ctx.now),
            Some(true)
        );
        core.record_estimate(P1, K, 6, batch(1), 0, ctx.now);
        core.record_estimate(P2, K, 6, batch(2), 0, ctx.now);
        let all = vec![batch(6), batch(2)];
        assert_eq!(
            core.quorum_choice(K, P0, 3),
            Some(QuorumChoice::Unlocked(all))
        );
        // Ack: only of the outstanding proposal.
        assert!(!core.record_ack(P1, K, 6), "nothing proposed yet");
        core.lock(&mut ctx, K, &batch(6));
        assert!(!core.record_ack(P1, K, 3));
        assert!(!core.record_ack(P1, K + 1, 6));
        assert_eq!(core.quorum_acked(K, 3), None);
        assert!(core.record_ack(P2, K, 6));
        assert_eq!(core.quorum_acked(K, 3), Some((6, batch(6))));
    }

    #[test]
    fn a_tag_and_its_proposal_decide_in_either_order() {
        let (mut core, mut ctx) = (core(), FakeCtx::new());
        // The tag comes first: kept until the proposal shows up.
        assert_eq!(core.resolve_tag(&mut ctx, P1, K, 0), None);
        let vote = core.vote(&mut ctx, K, 0, &batch(3));
        assert!(vote.voted && vote.tag_hit);
        // The proposal comes first: a later tag decides it.
        let vote = core.vote(&mut ctx, K + 1, 0, &batch(4));
        assert!(vote.voted && !vote.tag_hit);
        assert_eq!(core.resolve_tag(&mut ctx, P1, K + 1, 0), Some(batch(4)));
        assert_eq!(
            core.resolve_tag(&mut ctx, P1, K + 1, 1),
            None,
            "other round"
        );
        assert_eq!(ctx.bumped("t.tag_misses"), 2);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "two values voted in one (instance, round)")]
    fn a_second_value_in_one_round_trips_the_invariant() {
        // Where the lost-vote bug is planted the same sequence is left
        // for the delivery oracle to report.
        let mut cfg = ReplicaConfig::default();
        cfg.faults.skip_vote_persist = true;
        let (mut planted, mut ctx) = (ReplicaCore::new(cfg, &NAMES), FakeCtx::new());
        planted.vote(&mut ctx, K, 1, &batch(1));
        planted.vote(&mut ctx, K, 1, &batch(2));
        // Round 1 raises the promise, once; no vote is written.
        assert_eq!(ctx.writes, vec![Write::Put(keys::PROMISE)]);

        let mut core = core();
        core.vote(&mut ctx, K, 1, &batch(1));
        core.vote(&mut ctx, K, 1, &batch(2));
    }

    #[test]
    fn admit_proposal_checks_the_sender_against_the_rotation() {
        let (mut core, mut ctx) = (core(), FakeCtx::new());
        assert!(!core.admit_proposal(&mut ctx, P2, K, 1));
        assert_eq!(ctx.bumped("t.bogus_proposals"), 1);
        assert!(ctx.sent.is_empty(), "a dropped proposal is no sighting");
        assert!(core.admit_proposal(&mut ctx, P1, K, 1));
        // K lies past the window above the empty replayed prefix: the
        // admitted proposal pulls the decisions below it from its sender,
        // from the prefix's end on.
        let pull = CatchUp::Pull { from: 0 };
        assert_eq!(ctx.sent, vec![(Some(P1), "t.pull", pull)]);
    }

    #[test]
    fn a_proposal_or_estimate_for_a_decided_instance_is_answered_with_its_values() {
        let mut host = FakeHost::over(core());
        let mut ctx = FakeCtx::new();
        host.start_replica(&mut ctx);
        for k in 0..8 {
            host.record_decision(&mut ctx, k, &batch(k));
        }
        let answer = |from: u64| CatchUp::StateTransfer {
            from,
            values: (from..8).map(batch).collect(),
            frontier: 8,
        };
        // A coordinator still proposing in instance 3 is dropped and
        // answered, as a pull from 3 would be.
        assert!(!host.core.admit_proposal(&mut ctx, P0, 3, 0));
        assert_eq!(ctx.sent, vec![(Some(P0), "t.state_transfer", answer(3))]);
        ctx.sent.clear();
        // So is an estimate for instance 5.
        assert!(!host.core.admit_estimate(&mut ctx, P2, 5));
        assert_eq!(ctx.sent, vec![(Some(P2), "t.state_transfer", answer(5))]);
        ctx.sent.clear();
        // One for an undecided instance passes, unanswered.
        assert!(host.core.admit_estimate(&mut ctx, P2, 8));
        assert!(ctx.sent.is_empty());
    }

    #[test]
    fn rotate_skips_suspects_but_at_most_one_full_rotation() {
        let (mut core, mut ctx) = (core(), FakeCtx::new());
        assert_eq!(core.rotate(&mut ctx, K), None, "not live");
        core.open(K, ctx.now);
        core.open(K + 1, ctx.now);
        assert!(!core.coordinator_suspected(K, 3), "nothing suspected");
        assert_eq!(core.suspect(P0, 3), vec![K, K + 1]);
        assert_eq!(core.suspect(P1, 3), Vec::<u64>::new());
        assert_eq!(core.live_coordinator(3), P0, "that of round 0 of K");
        let to = core.rotate(&mut ctx, K).unwrap();
        assert_eq!((to.round, to.coordinator), (2, P2));
        assert_eq!(ctx.bumped("t.round_changes"), 1);
        assert!(core.coordinator_suspected(K + 1, 3));
        assert!(!core.coordinator_suspected(K, 3));
        assert!(!core.coordinator_suspected(K + 2, 3), "not live");
        // A process never skips itself, suspected or not.
        core.suspect(P2, 3);
        assert_eq!(core.rotate(&mut ctx, K).unwrap().round, 3);
        core.close(K);
        core.close(K + 1);
        assert_eq!(core.live_coordinator(3), P0, "all suspected: wraps");
        core.restore(P1);
        assert_eq!(core.live_coordinator(3), P1);
    }

    #[test]
    fn the_sweep_retries_a_pending_tag_and_rotates_the_rest() {
        let (mut core, mut ctx) = (core(), FakeCtx::new());
        core.open(K, ctx.now);
        // A tag whose proposal is missing pulls its value from the
        // decider at once.
        assert_eq!(core.resolve_tag(&mut ctx, P1, K + 1, 0), None);
        let pull = CatchUp::Pull { from: K + 1 };
        assert_eq!(ctx.sent, vec![(Some(P1), "t.pull", pull.clone())]);
        ctx.sent.clear();
        assert!(core.rounds().stuck(ctx.now + PROGRESS_TIMEOUT).is_empty());
        ctx.now = ctx.now + PROGRESS_TIMEOUT + fortika_sim::VDur::millis(1);
        let now = ctx.now;
        assert_eq!(core.rounds().stuck(now), vec![K, K + 1]);
        assert!(core.sweep_stuck(&mut ctx, K, now), "due a rotation");
        assert_eq!(ctx.bumped("t.progress_rotations"), 1);
        // The sweep pulls it again, from everybody.
        assert!(!core.sweep_stuck(&mut ctx, K + 1, now));
        assert_eq!(ctx.sent, vec![(None, "t.pull", pull)]);
        assert_eq!(ctx.bumped("t.request_retries"), 1);
        assert_eq!(core.rounds().stuck(now), vec![K], "the retry re-armed it");
        assert!(!core.sweep_stuck(&mut ctx, K + 2, now), "not live");
    }

    const P3: ProcessId = ProcessId(3);
    const P4: ProcessId = ProcessId(4);

    fn promise(round: u32, from: u64) -> Promise {
        Promise { round, from }
    }

    fn promise_writes(ctx: &FakeCtx) -> usize {
        let put = Write::Put(keys::PROMISE);
        ctx.writes.iter().filter(|w| **w == put).count()
    }

    #[test]
    fn an_estimate_sent_is_durable_so_a_revived_process_refuses_the_round_it_left() {
        // p3 takes part in K, whose round 0 p1 coordinates. It suspects
        // p1, enters round 1 and is about to send its estimate to p2.
        let (mut core, mut ctx) = (core(), FakeCtx::new());
        ctx.pid = P2;
        core.open(K, ctx.now);
        assert_eq!(core.suspect(P0, 3), vec![K]);
        let to = core.rotate(&mut ctx, K).unwrap();
        assert_eq!((to.round, to.coordinator), (1, P1));
        // The record is written before the promise leaves; the promise
        // covers every instance above the one open.
        assert_eq!(ctx.writes, vec![Write::Put(keys::PROMISE)]);
        let told = CatchUp::Promise(promise(1, K + 1));
        assert_eq!(ctx.sent, vec![(None, "t.promise", told)]);
        assert_eq!(ctx.bumped("t.promises"), 1);

        // Revived, it refuses a late round-0 proposal for K — whose
        // round-1 coordinator may be deciding with its ack — and opens
        // fresh instances in round 1.
        let mut revived = ReplicaCore::resume(ReplicaConfig::default(), &NAMES, &ctx.store);
        ctx.writes.clear();
        let late = revived.vote(&mut ctx, K, 0, &batch(1));
        assert!(!late.voted && ctx.writes.is_empty());
        assert_eq!(revived.rounds().unproposed_round(K), Some(1));
        revived.open(K + 5, ctx.now);
        assert_eq!(revived.rounds().unproposed_round(K + 5), Some(1));
        revived.open(K - 1, ctx.now);
        assert_eq!(revived.rounds().unproposed_round(K - 1), Some(0));
    }

    #[test]
    fn the_promise_record_is_written_once_per_rise() {
        // p4 of five, so that no round this test enters is its own.
        let (mut core, mut ctx) = (core(), FakeCtx::new());
        (ctx.pid, ctx.n) = (P3, 5);
        for k in [K, K + 1] {
            core.open(k, ctx.now);
        }
        // One suspicion rotates both live instances: one record, one
        // promise.
        for k in core.suspect(P0, 5) {
            core.rotate(&mut ctx, k);
        }
        assert_eq!((promise_writes(&ctx), ctx.sent.len()), (1, 1));
        assert_eq!(core.rounds().promised(), promise(1, K));
        // Fresh instances open in round 1, at no cost.
        core.open(K + 2, ctx.now);
        assert_eq!(core.rounds().unproposed_round(K + 2), Some(1));
        assert_eq!(promise_writes(&ctx), 1);
        // An estimate below the record's floor lowers it: one more write,
        // no new promise.
        core.open(K - 2, ctx.now);
        assert_eq!(core.rounds().unproposed_round(K - 2), Some(0));
        core.rotate(&mut ctx, K - 2);
        assert_eq!((promise_writes(&ctx), ctx.sent.len()), (2, 1));
        // The progress sweep moving one instance on (its coordinator not
        // suspected) covers that instance, not the tail.
        core.rotate(&mut ctx, K + 2);
        assert_eq!((promise_writes(&ctx), ctx.sent.len()), (3, 1));
        assert_eq!(core.rounds().promised(), promise(1, K - 2));
        core.open(K + 3, ctx.now);
        assert_eq!(core.rounds().unproposed_round(K + 3), Some(1));
        // A higher round seen in use: one write, one promise.
        core.raise(&mut ctx, K + 3, 4);
        assert_eq!((promise_writes(&ctx), ctx.sent.len()), (4, 2));
        core.raise(&mut ctx, K + 9, 4);
        core.raise(&mut ctx, K + 9, 3);
        assert_eq!((promise_writes(&ctx), ctx.sent.len()), (4, 2));
        assert_eq!(ctx.bumped("t.promises"), 2);
    }

    #[test]
    fn no_direct_proposal_without_a_majority_of_the_members_promising() {
        // p2 coordinates round 1 in a group of five.
        let (mut core, mut ctx) = (core(), FakeCtx::new());
        (ctx.pid, ctx.n) = (P1, 5);
        assert_eq!(core.direct_round(K, P1, 5), None, "p1's round 0");
        core.absorb_promise(&mut ctx, P2, promise(1, K));
        // Raised to round 1 itself, p2 holds two promises of five.
        assert_eq!(core.fresh_round(K), 1);
        assert_eq!(core.direct_round(K, P1, 5), None);
        core.absorb_promise(&mut ctx, P3, promise(1, K));
        assert_eq!(core.direct_round(K, P1, 5), Some(1));
        assert_eq!(core.direct_round(K, P2, 5), None, "not p3's round");
        assert_eq!(ctx.bumped("t.direct_proposals"), 0);
        assert_eq!(core.lock(&mut ctx, K, &batch(1)), 1);
        assert_eq!(ctx.bumped("t.direct_proposals"), 1);
        assert!(core.rounds().tag_decides(K));
        assert_eq!(core.direct_round(K, P1, 5), None, "proposed already");

        // Promises that arrive as catch-up messages count alike, and
        // make live instances direct-ready.
        let mut host = FakeHost::over(ReplicaCore::new(ReplicaConfig::default(), &NAMES));
        host.start_replica(&mut ctx);
        host.on_catch_up(&mut ctx, P4, CatchUp::Promise(promise(1, K)));
        assert_eq!(host.core.fresh_round(K), 1);
        assert_eq!(host.core.direct_round(K, P1, 5), None);
        host.on_catch_up(&mut ctx, P2, CatchUp::Promise(promise(1, K)));
        assert_eq!(host.core.direct_round(K, P1, 5), Some(1));
        assert_eq!(host.direct_ready, vec![vec![], vec![]], "nothing live yet");
        host.core.open(K, ctx.now);
        host.on_catch_up(&mut ctx, P2, CatchUp::Promise(promise(1, K)));
        assert_eq!(host.direct_ready[2], vec![K]);
    }

    #[test]
    fn a_promise_does_not_cover_an_instance_below_its_from() {
        let (mut core, mut ctx) = (core(), FakeCtx::new());
        ctx.pid = P1;
        core.vote(&mut ctx, K + 1, 0, &batch(1));
        core.raise(&mut ctx, K - 2, 1);
        core.absorb_promise(&mut ctx, P2, promise(1, K));
        assert_eq!(core.fresh_round(K - 1), 1);
        assert_eq!(core.direct_round(K - 1, P1, 3), None);
        assert_eq!(core.direct_round(K, P1, 3), Some(1));
        assert_eq!(core.direct_round(K + 100, P1, 3), Some(1));
        // A lock of a lower round held there forces the estimate phase.
        enter(&mut core, K + 1, 1);
        assert_eq!(core.direct_round(K + 1, P1, 3), None);
    }

    #[test]
    fn an_announced_promise_starts_no_lower_than_the_tail_it_keeps() {
        // The progress sweep moves K on, its coordinator unsuspected: the
        // stable record covers K from round 1, no promise is announced.
        let (mut core, mut ctx) = (core(), FakeCtx::new());
        core.open(K, ctx.now);
        let to = core.rotate(&mut ctx, K).unwrap();
        assert_eq!((to.round, to.coordinator), (1, P1));
        assert!(ctx.sent.is_empty());
        // p3's promise of round 2 from K + 10 raises this process's tail
        // from there, and its own promise announces no less: below K + 10
        // fresh instances still open in round 0 here.
        core.absorb_promise(&mut ctx, P2, promise(2, K + 10));
        let told = CatchUp::Promise(promise(2, K + 10));
        assert_eq!(ctx.sent, vec![(None, "t.promise", told)]);
        assert_eq!((core.fresh_round(K + 9), core.fresh_round(K + 10)), (0, 2));
    }

    #[test]
    fn a_proposal_of_a_round_promised_away_is_answered_with_the_promise() {
        let (mut core, mut ctx) = (core(), FakeCtx::new());
        ctx.pid = P2;
        core.open(K, ctx.now);
        core.suspect(P0, 3);
        core.rotate(&mut ctx, K);
        ctx.sent.clear();
        // p1 comes back and proposes round 0 above the promise.
        core.restore(P0);
        assert!(core.admit_proposal(&mut ctx, P0, K + 1, 0));
        let told = CatchUp::Promise(promise(1, K + 1));
        assert_eq!(ctx.sent[0], (Some(P0), "t.promise", told.clone()));
        // The promise leaves first; the decisions below K + 1, which this
        // process never learned, are pulled after it, with one pull.
        let pull = CatchUp::Pull { from: 0 };
        assert_eq!(ctx.sent[1..], [(Some(P0), "t.pull", pull)]);
        assert!(!core.vote(&mut ctx, K + 1, 0, &batch(1)).voted);
        // Its own round-0 proposal outstanding, p1 moves it on when told
        // — to the round promised, and promising it too.
        let mut coordinator = FakeHost::over(ReplicaCore::new(ReplicaConfig::default(), &NAMES));
        let mut ctx = FakeCtx::new();
        coordinator.core.lock(&mut ctx, K + 1, &batch(0));
        coordinator.on_catch_up(&mut ctx, P2, told);
        assert_eq!(coordinator.advanced, vec![K + 1]);
        assert_eq!(coordinator.core.rounds().unproposed_round(K + 1), Some(1));
        assert_eq!(coordinator.core.rounds().promised(), promise(1, K + 1));
    }

    #[test]
    fn a_fresh_instance_is_seeded_from_the_recovered_vote() {
        let (mut core, mut ctx) = (core(), FakeCtx::new());
        core.vote(&mut ctx, K, 2, &batch(9));
        let mut revived = ReplicaCore::resume(ReplicaConfig::default(), &NAMES, &ctx.store);
        revived.open(K, ctx.now);
        revived.open(K - 3, ctx.now);
        assert_eq!(revived.rounds().estimate(K), Some((&batch(9), 3)));
        assert_eq!(revived.rounds().unproposed_round(K), Some(2));
        // Below the round-2 promise the proposal raised, an instance
        // opens in round 0.
        assert_eq!(revived.rounds().unproposed_round(K - 3), Some(0));
        assert_eq!(revived.rounds().estimate(K - 3), None);
        // The lock is honoured: round 1 is abandoned for good.
        let stale = revived.vote(&mut ctx, K, 1, &batch(1));
        assert!(!stale.voted);
        // A snapshot covering an instance drops its round state.
        assert_eq!(
            (revived.rounds().len(), revived.rounds().lowest()),
            (2, Some(K - 3))
        );
        revived.rounds.drop_below(K);
        assert!(!revived.rounds().contains(K - 3) && revived.rounds().contains(K));
    }
}
