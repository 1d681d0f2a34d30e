//! The replica core both stacks share: durable votes, the decided log, the
//! Chandra–Toueg round machine, log compaction and catch-up — everything
//! about being a *replica* that the paper does not compare, written once.
//!
//! The modular consensus module and the monolithic node differ in their
//! composition boundary and in optimizations O1–O3: which message
//! carries what, and what rides along. What a process must remember
//! across a crash, how it catches up afterwards, how it bounds its
//! history and when it may lock, vote, propose or change round is the
//! same protocol on both, and lives here as a [`ReplicaCore`] (the
//! state; its round transitions are in [`crate::rounds`]) driven through
//! two narrow traits: [`ReplicaCtx`] (what the core needs from its host
//! context — both `NodeCtx` and the framework's `FrameworkCtx` satisfy
//! it) and [`ReplicaHost`] (where the core hands back to the stack: a
//! decision to deliver, a configuration to activate, a snapshot to skip
//! past). The remaining per-stack differences are data — one
//! [`ReplicaNames`] table per stack with its counter names, send kinds,
//! trace label and the tag bytes its wire enum embeds [`CatchUp`] under.
//!
//! # Crash-recovery
//!
//! A process revived via `Cluster::schedule_restart` loses all volatile
//! state. Two mechanisms make that survivable:
//!
//! * **Durable votes** — every vote (ack / adoption) writes a
//!   [`VoteRecord`] to the stable store atomically with the vote message
//!   ([`ReplicaCore::persist_vote`]; the record holds long payloads by
//!   reference, see [`Stored`]); [`ReplicaCore::resume`] replays the
//!   records so a revived process re-enters undecided instances with its
//!   locked `(round, estimate, ts)` intact. Without this, the quorum
//!   intersection at the heart of Chandra–Toueg safety breaks (an
//!   amnesiac acker can help decide a second, different value). The
//!   contiguous decided watermark is persisted too, as a *voting fence*
//!   against re-votes in long-decided instances, and the records below
//!   it are garbage collected with one range tombstone. The fence is
//!   persisted with each snapshot, not with each decision
//!   ([`ReplicaHost::record_decision`] writes nothing when snapshots are
//!   on): the watermark, then the tombstone over the records it retires,
//!   then the snapshot — so a revived process always finds its snapshot
//!   below its fence, and a priced decision pays for its votes and
//!   nothing else. The invariant, with snapshots on or off: **for every
//!   instance, the store holds either this process's vote record for it
//!   or a persisted fence that covers it.** A record is deleted only by
//!   the tombstone of a fence that covers it. The persisted fence lags
//!   the decided prefix by less than `snapshot_interval` instances, and
//!   a process revived behind it re-enters those decided instances with
//!   the votes it cast there; a revived coordinator re-proposes a lock
//!   it recovered instead of its pool, so the lag cannot produce a
//!   second value. The fence can run ahead of the *replayed* prefix,
//!   which always restarts at 0.
//! * **Catch-up** — decided *values* are not persisted, so a revived
//!   process learns them again from its peers, and so does a live process
//!   that fell behind (a healed partition minority). Both speak one
//!   request, [`CatchUp::Pull`] — "send me the decided values from
//!   instance `from` on" — and get one answer, a bulk
//!   [`CatchUp::StateTransfer`] of up to 16 consecutive cached decisions
//!   from `from`. Each absorbed transfer that leaves the replayed prefix
//!   behind the sender's frontier is chased with the next pull to the
//!   same peer, at round-trip pace, until the puller reaches the live
//!   edge. What differs is only what sends the first pull: a revived
//!   process broadcasts one from its replayed prefix as its
//!   announcement (re-sent until it catches up); a live one pulls from
//!   its replayed prefix when a peer's proposal or decision lies beyond
//!   the pipeline window above it (both stacks pass every peer proposal
//!   through [`ReplicaCore::admit_proposal`] and every peer decision
//!   through [`ReplicaCore::admit_decision`], and the check runs inside
//!   them); a tag-only decision whose proposal is missing pulls from its
//!   own instance ([`ReplicaCore::resolve_tag`]), and the progress sweep
//!   re-sends that pull to everybody; and a proposal or estimate for an
//!   instance decided here is answered as a pull from it would be. Every
//!   caught-up value goes through the stack's decision path
//!   ([`ReplicaHost::learn_decisions`]), so the prefix is re-delivered
//!   byte-identically — which the chaos oracle checks across
//!   incarnations.
//!
//! # Log compaction and snapshot state transfer
//!
//! The decision cache is bounded, so under unbounded history the old prefix
//! must eventually go. Every process folds the contiguous decided prefix
//! through a deterministic [`SnapshotFold`] and periodically materializes a
//! [`Snapshot`] — application-state digest, per-sender delivered sets and
//! the `last_included` instance — persisted via the stable store. The rule,
//! applied after every recorded decision:
//!
//! 1. *Trim.* While the cache holds more than `decision_cache`
//!    decisions, evict the oldest — but only one the serving snapshot
//!    covers. An uncovered decision is never dropped, so every instance a
//!    joiner may miss is servable from either the log tail or the
//!    snapshot.
//! 2. *Cut on cadence.* Materialize a snapshot when the fold ran
//!    `snapshot_interval` instances past the previous one.
//! 3. *Cut on an uncovered overflow.* If the cache is still over its
//!    bound after the trim, its oldest entry is not covered yet and only
//!    a snapshot can make room: cut one now (compaction replaces
//!    eviction), and trim again.
//!
//! So a full cache costs an eviction per decision, and a snapshot — an
//! encode, a priced stable write, an oracle stamp — once per
//! `min(snapshot_interval, decision_cache + 1)` decisions. A
//! pull whose gap starts inside the compacted prefix receives the
//! snapshot instead, chunked at round-trip pace
//! ([`CatchUp::SnapshotTransfer`] / [`CatchUp::SnapshotPull`]); it
//! installs the snapshot, the stack skips the compacted instances, and
//! log catch-up resumes at `last_included + 1`. Deliveries before the
//! install point are replaced by the snapshot, so byte-identical replay
//! is owed only for the tail — the recovery-aware oracle audits exactly
//! that, plus cross-process agreement on snapshot digests.

use std::collections::BTreeMap;
use std::ops::Range;

use bytes::Bytes;
use fortika_sim::{VDur, VTime};

use crate::cluster::{NodeCtx, StableStore};
use crate::config::CostModel;
use crate::id::{MsgId, ProcessId};
use crate::message::Batch;
use crate::metrics::{Kind, Metric};
use crate::ratelimit::PeerRateLimiter;
use crate::rounds::{Promise, Rounds};
use crate::snapshot::{
    chunk_of, stamp_of, AppState, ChunkOutcome, PayloadDigests, Snapshot, SnapshotDownload,
    SnapshotFold, SnapshotStamp,
};
use crate::watermark::WatermarkSet;
use crate::wire::{encode, Stored, Wire, WireError, WireReader, WireWriter};

/// Stable-store key namespaces (the high byte of a key).
///
/// A process hosts exactly one stack and every layer of it writes to the
/// same store, so the namespaces must be pairwise disjoint — asserted at
/// compile time below (a collision once let rbcast's sequence counter
/// clobber the consensus snapshot).
pub mod keys {
    use std::ops::Range;

    /// Namespace of per-instance vote records (low 56 bits: instance).
    pub const VOTE_TAG: u64 = 1 << 56;
    /// The contiguous decided watermark (the voting fence).
    pub const WATERMARK: u64 = 2 << 56;
    /// The latest log-compaction snapshot.
    pub const SNAPSHOT: u64 = 3 << 56;
    // `4 << 56` and `6 << 56` are unassigned: the namespaces keep
    // their numbers, so no key a stable store holds changes meaning.
    /// The reliable-broadcast module's origin sequence counter.
    pub const RBCAST_SEQ: u64 = 5 << 56;
    /// This process's promise (see [`crate::rounds`]): the round below
    /// which it votes at no instance from a floor on.
    pub const PROMISE: u64 = 7 << 56;

    const ALL: [u64; 5] = [VOTE_TAG, WATERMARK, SNAPSHOT, RBCAST_SEQ, PROMISE];
    const _: () = {
        let mut i = 0;
        while i < ALL.len() {
            assert!(ALL[i] << 8 == 0, "a namespace is a high byte only");
            let mut j = i + 1;
            while j < ALL.len() {
                assert!(ALL[i] != ALL[j], "stable-key namespaces collide");
                j += 1;
            }
            i += 1;
        }
    };

    /// Stable-store key of `instance`'s vote record.
    pub fn vote(instance: u64) -> u64 {
        debug_assert!(instance < (1 << 56));
        VOTE_TAG | instance
    }

    /// Stable-store keys of the vote records of `instances`, clamped to
    /// the namespace: a range that reaches past it (a fence out of a
    /// damaged store or a corrupt snapshot) must not delete the
    /// watermark in the next one.
    pub fn votes(instances: Range<u64>) -> Range<u64> {
        const SPAN: u64 = 1 << 56;
        VOTE_TAG + instances.start.min(SPAN)..VOTE_TAG + instances.end.min(SPAN)
    }
}

/// Instances streamed per [`CatchUp::StateTransfer`] reply.
const MAX_TRANSFER: u64 = 16;
/// How long a pull is given to be answered: a sighting pulls from one
/// peer at most this often, so a lost pull or reply is made good by the
/// next sighting after it.
const GAP_RETRY: VDur = VDur::millis(50);
/// Per-peer spacing of chained pulls (the next pull after an absorbed
/// transfer): round-trip pace, without one reply burst re-pulling per
/// reply.
const CHASE_SPACING: VDur = VDur::millis(5);
/// Minimum spacing of rejoin re-announcements, and of the promise sent
/// along to one puller.
const JOIN_RETRY: VDur = VDur::millis(300);
/// Minimum spacing of snapshot offers toward one lagging peer.
const OFFER_SPACING: VDur = VDur::millis(50);

/// An undecided instance stuck in one round for longer than this is
/// rotated to the next coordinator even without a suspicion (liveness
/// backstop of both stacks; never reached in good runs). Nor is it
/// reached while a suspected coordinator is simply down: an instance
/// that opens in a round whose coordinator is suspected rotates at once
/// ([`ReplicaCore::coordinator_suspected`]), not one timeout later.
pub const PROGRESS_TIMEOUT: VDur = VDur::secs(1);
/// Period of each stack's background sweep, which enforces
/// [`PROGRESS_TIMEOUT`] and re-sends the pull of a pending tag.
pub const SWEEP_INTERVAL: VDur = VDur::millis(250);
/// The paper's *t* (§3.3), the same in both stacks: after this much
/// silence a process starts an instance anyway — the modular abcast even
/// with an empty batch, the monolith when it has pending work or the
/// coordinator of the round the next instance opens in is suspected — so
/// the instance stream stays live and messages held by a subset of
/// processes eventually get ordered.
pub const IDLE_TIMEOUT: VDur = VDur::secs(1);

/// Planted bugs for the acceptance suite that proves the fuzz
/// minimizer catches them. The type exists in every build, so a
/// crate's source resolves the same under either profile (rustdoc reads
/// it with debug assertions on); the config field that carries it, and
/// every check of it, exist in debug builds only.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultHooks {
    /// Skip persisting vote records: the classic lost-vote recovery
    /// bug (fuzz-minimizer acceptance suite).
    pub skip_vote_persist: bool,
}

/// The replica knobs, one copy for both stacks (`StackConfig` in
/// `fortika-core` fills it from its flat fields).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaConfig {
    /// How many decided values are cached for recovery requests: the
    /// cache is trimmed to this bound after every decision, evicting
    /// only what the serving snapshot covers (so it can exceed the bound
    /// while the fold is stuck behind a hole in the decided prefix).
    pub decision_cache: usize,
    /// Fold the decided prefix into a log-compaction [`Snapshot`] every
    /// this many instances — or after `decision_cache + 1`, if that is
    /// fewer: a snapshot is also cut when the cache is over its bound
    /// and its oldest decision is not covered yet. `0` disables
    /// snapshotting; the cache is then bounded by blind eviction, and a
    /// puller whose gap was evicted everywhere stalls forever
    /// (`*.join_unservable`).
    pub snapshot_interval: u64,
    /// The windowed-sequencer depth α: how many instances the stack
    /// keeps in flight concurrently. All per-instance state here is
    /// keyed by instance, so any number may run concurrently; the depth
    /// informs the *gap heuristic* — traffic for an instance within the
    /// window above the replayed prefix is normal pipelining, not
    /// evidence of missed decisions.
    pub pipeline_depth: u64,
    /// Planted bugs (acceptance suites only).
    #[cfg(debug_assertions)]
    pub faults: FaultHooks,
}

impl Default for ReplicaConfig {
    fn default() -> Self {
        ReplicaConfig {
            decision_cache: 1024,
            snapshot_interval: 256,
            pipeline_depth: 1,
            #[cfg(debug_assertions)]
            faults: FaultHooks::default(),
        }
    }
}

/// One value per [`CatchUp`] variant (a stack's tag bytes, its send
/// kinds).
#[derive(Debug)]
pub struct PerCatchUp<T> {
    /// For [`CatchUp::Pull`].
    pub pull: T,
    /// For [`CatchUp::StateTransfer`].
    pub state_transfer: T,
    /// For [`CatchUp::SnapshotTransfer`].
    pub snapshot_transfer: T,
    /// For [`CatchUp::SnapshotPull`].
    pub snapshot_pull: T,
    /// For [`CatchUp::Promise`].
    pub promise: T,
}

/// What a stack calls the shared machinery: the only per-stack
/// differences the core knows, as data. Each stack declares one `const`
/// table next to its wire enum, its handles from its namespace's table
/// in [`crate::metrics`].
#[derive(Debug)]
pub struct ReplicaNames {
    /// Trace label of the stack's lifecycle spans.
    pub label: &'static str,
    /// Tag bytes the stack's wire enum embeds [`CatchUp`] under.
    pub tags: PerCatchUp<u8>,
    /// Send kinds (traffic accounting) of the catch-up messages.
    pub kinds: PerCatchUp<Kind>,
    /// Counter: pulls sent on a sighting (a peer's proposal or decision
    /// beyond the pipeline window above the replayed prefix).
    pub gap_requests: Metric,
    /// Counter: rejoin announcements (the broadcast pull of a revived
    /// process, and each re-announcement).
    pub join_requests: Metric,
    /// Counter: state transfers served, whatever asked for them.
    pub state_transfers: Metric,
    /// Counter: snapshot chunks served.
    pub snapshot_transfers: Metric,
    /// Counter: snapshot chunks pulled.
    pub snapshot_pulls: Metric,
    /// Counter: completed downloads that failed verification.
    pub snapshot_garbage: Metric,
    /// Counter: snapshots materialized.
    pub snapshots: Metric,
    /// Counter: snapshots installed.
    pub snapshots_installed: Metric,
    /// Counter: pulls this process could not serve although its replayed
    /// prefix covers their first instance.
    pub join_unservable: Metric,
    /// Counter: rejoins that reached the advertised frontier.
    pub rejoins_completed: Metric,
    /// Counter: proposals made as coordinator.
    pub proposals: Metric,
    /// Counter: round changes.
    pub round_changes: Metric,
    /// Counter: round changes forced by the progress timeout.
    pub progress_rotations: Metric,
    /// Counter: pulls of a pending tag's value re-sent by the sweep.
    pub request_retries: Metric,
    /// Counter: tag-only decisions whose proposal was missing.
    pub tag_misses: Metric,
    /// Counter: proposals from a process not coordinating their round.
    pub bogus_proposals: Metric,
    /// Counter: promises of the tail made (one per round a process
    /// promises for every instance it has not opened).
    pub promises: Metric,
    /// Counter: proposals of a round above 0 made with no estimate phase.
    pub direct_proposals: Metric,
}

/// The catch-up vocabulary both stacks speak. Each stack's wire enum
/// embeds it under its own tag bytes ([`ReplicaNames::tags`]), so the
/// encoding is tag-relative: [`encode_tagged`](Self::encode_tagged) /
/// [`decode_tagged`](Self::decode_tagged).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CatchUp {
    /// The one catch-up request: "send me the decided values from
    /// instance `from` on". A peer that caches the decision of `from`
    /// answers with a [`StateTransfer`](Self::StateTransfer); one whose
    /// compaction horizon lies above `from`, with the first chunk of its
    /// snapshot ([`SnapshotTransfer`](Self::SnapshotTransfer)).
    Pull {
        /// First instance the sender asks for.
        from: u64,
    },
    /// The answer to a pull: the decided values of the consecutive
    /// instances `from, from+1, …`, plus the sender's own replay
    /// frontier so the puller keeps pulling in chained rounds until it
    /// reaches the live edge.
    StateTransfer {
        /// Instance of `values[0]`.
        from: u64,
        /// Decided values of `from..from + values.len()`.
        values: Vec<Batch>,
        /// The sender's contiguous decided prefix length.
        frontier: u64,
    },
    /// One chunk of a log-compaction snapshot, serving a pull whose gap
    /// starts inside the sender's compacted prefix. Chunks are pulled at
    /// round-trip pace via [`SnapshotPull`](Self::SnapshotPull); once
    /// complete, the puller installs the snapshot and resumes log
    /// catch-up at `last_included + 1`.
    SnapshotTransfer {
        /// Highest instance the snapshot covers.
        last_included: u64,
        /// Digest of the snapshot (integrity check across chunks).
        digest: u64,
        /// Total encoded snapshot size in bytes.
        total: u32,
        /// Offset of `chunk` within the encoded snapshot.
        offset: u32,
        /// The chunk bytes.
        chunk: Bytes,
        /// The sender's contiguous replay frontier (catch-up target).
        frontier: u64,
    },
    /// Puller-side request for the next snapshot chunk.
    SnapshotPull {
        /// Which snapshot is being pulled (its highest instance).
        last_included: u64,
        /// Byte offset of the requested chunk.
        offset: u32,
    },
    /// "I vote in no round below `round` at any instance from `from` on,
    /// and hold no such vote": sent to every peer once per coordinator
    /// change, and to a peer that proposes in a round the sender
    /// promised away or pulls (see [`crate::rounds`]).
    Promise(Promise),
}

impl CatchUp {
    /// This variant's entry of a per-variant table.
    fn pick<T: Copy>(&self, table: &PerCatchUp<T>) -> T {
        match self {
            CatchUp::Pull { .. } => table.pull,
            CatchUp::StateTransfer { .. } => table.state_transfer,
            CatchUp::SnapshotTransfer { .. } => table.snapshot_transfer,
            CatchUp::SnapshotPull { .. } => table.snapshot_pull,
            CatchUp::Promise(_) => table.promise,
        }
    }

    /// Appends this message under the embedding stack's tag byte.
    pub fn encode_tagged(&self, tags: &PerCatchUp<u8>, w: &mut WireWriter) {
        w.put_u8(self.pick(tags));
        match self {
            CatchUp::Pull { from } => w.put_u64(*from),
            CatchUp::StateTransfer {
                from,
                values,
                frontier,
            } => {
                w.put_u64(*from);
                w.put_u64(*frontier);
                values.encode(w);
            }
            CatchUp::SnapshotTransfer {
                last_included,
                digest,
                total,
                offset,
                chunk,
                frontier,
            } => {
                w.put_u64(*last_included);
                w.put_u64(*digest);
                w.put_u32(*total);
                w.put_u32(*offset);
                w.put_u64(*frontier);
                chunk.encode(w);
            }
            CatchUp::SnapshotPull {
                last_included,
                offset,
            } => {
                w.put_u64(*last_included);
                w.put_u32(*offset);
            }
            CatchUp::Promise(promise) => promise.encode(w),
        }
    }

    /// Reads the message whose tag byte `tag` was already consumed.
    ///
    /// # Errors
    ///
    /// [`WireError::InvalidTag`] if `tag` is none of `tags`, otherwise
    /// whatever the body's decoding reports.
    pub fn decode_tagged(
        tag: u8,
        tags: &PerCatchUp<u8>,
        r: &mut WireReader,
    ) -> Result<Self, WireError> {
        if tag == tags.pull {
            Ok(CatchUp::Pull { from: r.get_u64()? })
        } else if tag == tags.state_transfer {
            Ok(CatchUp::StateTransfer {
                from: r.get_u64()?,
                frontier: r.get_u64()?,
                values: Vec::<Batch>::decode(r)?,
            })
        } else if tag == tags.snapshot_transfer {
            Ok(CatchUp::SnapshotTransfer {
                last_included: r.get_u64()?,
                digest: r.get_u64()?,
                total: r.get_u32()?,
                offset: r.get_u32()?,
                frontier: r.get_u64()?,
                chunk: Bytes::decode(r)?,
            })
        } else if tag == tags.snapshot_pull {
            Ok(CatchUp::SnapshotPull {
                last_included: r.get_u64()?,
                offset: r.get_u32()?,
            })
        } else if tag == tags.promise {
            Ok(CatchUp::Promise(Promise::decode(r)?))
        } else {
            Err(WireError::InvalidTag(tag))
        }
    }
}

/// The crash-recovery stable record of one instance: the round this
/// process last voted (acked / adopted) in, the adoption timestamp of
/// its estimate, and the estimate itself.
///
/// Chandra–Toueg safety hinges on a voter carrying its locked
/// `(estimate, ts)` into every later round and never regressing to a
/// lower round; a process revived with amnesia would break exactly that
/// invariant, so this record is written to stable storage atomically
/// with every vote and replayed into the fresh stack on restart.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VoteRecord {
    /// Round of the last vote (lower-round proposals are refused).
    pub round: u32,
    /// Adoption timestamp of `value` (round + 1 at ack time).
    pub ts: u32,
    /// The locked estimate.
    pub value: Batch,
}

impl VoteRecord {
    /// Appends the record of a vote for `value`, which the caller keeps:
    /// the one place the layout is written.
    fn write(w: &mut WireWriter, round: u32, ts: u32, value: &Batch) {
        w.put_u32(round);
        w.put_u32(ts);
        value.encode(w);
    }
}

impl Wire for VoteRecord {
    fn encode(&self, w: &mut WireWriter) {
        VoteRecord::write(w, self.round, self.ts, &self.value);
    }
    fn decode(r: &mut WireReader) -> Result<Self, WireError> {
        Ok(VoteRecord {
            round: r.get_u32()?,
            ts: r.get_u32()?,
            value: Batch::decode(r)?,
        })
    }
}

/// What the core needs from the handler context it runs in: identity,
/// time, stable storage, accounting, reporting, the cluster's payload
/// digests and the network — the
/// calls `FrameworkCtx` forwards verbatim to [`NodeCtx`], so both
/// implement it by forwarding.
pub trait ReplicaCtx {
    /// This process's identity.
    fn pid(&self) -> ProcessId;
    /// Cluster size `n`.
    fn n(&self) -> usize;
    /// Current virtual time.
    fn now(&self) -> VTime;
    /// The configured cost model.
    fn costs(&self) -> &CostModel;
    /// See [`NodeCtx::persist`].
    fn persist(&mut self, key: u64, value: impl Into<Stored>);
    /// See [`NodeCtx::unpersist`].
    fn unpersist(&mut self, keys: Range<u64>);
    /// See [`NodeCtx::charge_durability`].
    fn charge_durability(&mut self, cost: VDur);
    /// See [`NodeCtx::note_snapshot`].
    fn note_snapshot(&mut self, stamp: SnapshotStamp);
    /// See [`NodeCtx::bump`].
    fn bump(&mut self, metric: Metric, by: u64);
    /// See [`NodeCtx::payload_digests`].
    fn payload_digests(&mut self) -> &mut PayloadDigests;
    /// See [`NodeCtx::trace_span`].
    fn trace_span(&mut self, stack: &'static str, instance: u64, phase: &'static str, detail: u64);
    /// Sends the message `body` writes, in the hosting stack's
    /// vocabulary, to `dst`. The host encodes it — behind whatever
    /// framing its messages carry — as one gather list
    /// ([`Stored::encode_with`], so `body` runs twice).
    fn send(&mut self, dst: ProcessId, kind: Kind, body: impl Fn(&mut WireWriter));
    /// Sends the same message to every other process, in pid order.
    fn broadcast(&mut self, kind: Kind, body: impl Fn(&mut WireWriter));
}

impl ReplicaCtx for NodeCtx<'_> {
    fn pid(&self) -> ProcessId {
        NodeCtx::pid(self)
    }
    fn n(&self) -> usize {
        NodeCtx::n(self)
    }
    fn now(&self) -> VTime {
        NodeCtx::now(self)
    }
    fn costs(&self) -> &CostModel {
        NodeCtx::costs(self)
    }
    fn persist(&mut self, key: u64, value: impl Into<Stored>) {
        NodeCtx::persist(self, key, value);
    }
    fn unpersist(&mut self, keys: Range<u64>) {
        NodeCtx::unpersist(self, keys);
    }
    fn charge_durability(&mut self, cost: VDur) {
        NodeCtx::charge_durability(self, cost);
    }
    fn note_snapshot(&mut self, stamp: SnapshotStamp) {
        NodeCtx::note_snapshot(self, stamp);
    }
    fn bump(&mut self, metric: Metric, by: u64) {
        NodeCtx::bump(self, metric, by);
    }
    fn payload_digests(&mut self) -> &mut PayloadDigests {
        NodeCtx::payload_digests(self)
    }
    fn trace_span(&mut self, stack: &'static str, instance: u64, phase: &'static str, detail: u64) {
        NodeCtx::trace_span(self, stack, instance, phase, detail);
    }
    fn send(&mut self, dst: ProcessId, kind: Kind, body: impl Fn(&mut WireWriter)) {
        NodeCtx::send(self, dst, kind, Stored::encode_with(body));
    }
    fn broadcast(&mut self, kind: Kind, body: impl Fn(&mut WireWriter)) {
        NodeCtx::broadcast(self, kind, Stored::encode_with(body));
    }
}

/// The replica state of one process: voting fence and replay log, the
/// decision cache, recovered vote records, the snapshot fold with its
/// serving snapshot and download, and the rejoin state (see the [module
/// docs](self) for the protocol) — and the round state of the undecided
/// instances, which the transitions in [`crate::rounds`] drive.
pub struct ReplicaCore {
    cfg: ReplicaConfig,
    pub(crate) names: &'static ReplicaNames,
    pub(crate) rounds: Rounds,
    /// Instances this process may no longer vote in (the voting fence).
    /// After a restart it is pre-loaded from the persisted watermark,
    /// so it can run *ahead* of `replayed`.
    decided_log: WatermarkSet,
    /// Instances whose decision was recorded in this incarnation — the
    /// replay progress. Always starts at 0, so a revived process
    /// re-delivers the whole decided prefix.
    replayed: WatermarkSet,
    /// The voting fence as last persisted (or recovered): every vote
    /// record below it is already collected.
    persisted_fence: u64,
    decisions: BTreeMap<u64, Batch>,
    /// Per-peer rate limiter for pulls on a sighting and chained pulls.
    pull_limiter: PeerRateLimiter,
    /// Vote records recovered from stable storage (restart only).
    pub(crate) recovered_votes: BTreeMap<u64, VoteRecord>,
    /// Still catching up after a restart (rejoin announcements active).
    rejoining: bool,
    /// Highest replay frontier any transfer advertised.
    rejoin_target: u64,
    /// When the last rejoin announcement went out.
    last_join: VTime,
    /// Deterministic fold of the contiguous decided prefix (feeds
    /// snapshots; mirrors the delivery path's dedup exactly).
    fold: SnapshotFold,
    /// Latest materialized or installed snapshot, plus its cached
    /// encoding for chunked serving.
    snapshot: Option<Snapshot>,
    snapshot_bytes: Bytes,
    /// In-progress snapshot download (receiver side).
    download: SnapshotDownload,
    /// Rate limiter for snapshot offers toward lagging peers (one
    /// download at a time, however many pulls reach below the horizon).
    offer_limiter: PeerRateLimiter,
    /// Rate limiter for the promise sent to a pulling peer (one per
    /// catch-up, not one per chained pull).
    promise_limiter: PeerRateLimiter,
    /// Snapshot recovered from stable storage (restart only); installed
    /// at start, where a handler context is available.
    restored: Option<Snapshot>,
}

impl ReplicaCore {
    /// A fresh core (process start at time zero).
    pub fn new(cfg: ReplicaConfig, names: &'static ReplicaNames) -> Self {
        ReplicaCore {
            cfg,
            names,
            rounds: Rounds::default(),
            decided_log: WatermarkSet::default(),
            replayed: WatermarkSet::default(),
            persisted_fence: 0,
            decisions: BTreeMap::new(),
            pull_limiter: PeerRateLimiter::new(),
            recovered_votes: BTreeMap::new(),
            rejoining: false,
            rejoin_target: 0,
            last_join: VTime::ZERO,
            fold: SnapshotFold::new(None),
            snapshot: None,
            snapshot_bytes: Bytes::new(),
            download: SnapshotDownload::default(),
            offer_limiter: PeerRateLimiter::new(),
            promise_limiter: PeerRateLimiter::new(),
            restored: None,
        }
    }

    /// The core of a process revived after a crash: replays the persisted vote
    /// records, decided watermark, snapshot and promise out of `stable` and
    /// arms the rejoin announcement. Values that fail to decode are skipped,
    /// and so is a snapshot that does not lie below the persisted fence (every
    /// snapshot the core writes does; installing one that claims more would
    /// fast-forward the fence over instances nobody decided) — a damaged store
    /// yields a core that rejoins from less, never a panic.
    pub fn resume(cfg: ReplicaConfig, names: &'static ReplicaNames, stable: &StableStore) -> Self {
        let mut core = ReplicaCore::new(cfg, names);
        core.rejoining = true;
        for (&key, value) in stable {
            if key == keys::WATERMARK {
                if let Ok(w) = value.decode::<u64>() {
                    core.decided_log.advance_to(w);
                    core.persisted_fence = w;
                }
            } else if key == keys::SNAPSHOT {
                // Keys iterate in order, so the watermark was read first.
                let fence = core.decided_log.watermark();
                core.restored = value
                    .decode::<Snapshot>()
                    .ok()
                    .filter(|snap| snap.last_included < fence);
            } else if key == keys::PROMISE {
                if let Ok(promise) = value.decode::<Promise>() {
                    core.rounds.restore_promise(promise);
                }
            } else if key >> 56 == keys::VOTE_TAG >> 56 {
                if let Ok(rec) = value.decode::<VoteRecord>() {
                    core.recovered_votes.insert(key & !keys::VOTE_TAG, rec);
                }
            }
        }
        core
    }

    /// Attaches an application-state hook to the snapshot fold (before
    /// the core processes anything).
    pub fn set_app(&mut self, app: Option<Box<dyn AppState>>) {
        self.fold = SnapshotFold::new(app);
    }

    /// The replica knobs.
    pub fn cfg(&self) -> &ReplicaConfig {
        &self.cfg
    }

    /// True once this process may no longer vote in `instance`.
    pub fn is_decided(&self, instance: u64) -> bool {
        !self.decided_log.is_new(instance)
    }

    /// True once `instance`'s decision was recorded in this incarnation.
    pub fn is_replayed(&self, instance: u64) -> bool {
        !self.replayed.is_new(instance)
    }

    /// The contiguous voting fence: every instance below it is decided.
    pub fn decided_watermark(&self) -> u64 {
        self.decided_log.watermark()
    }

    /// The end of the replayed prefix: every instance below it was
    /// recorded in this incarnation. Catch-up pulls from here, and work
    /// with no live instance is routed by it.
    pub(crate) fn replayed_watermark(&self) -> u64 {
        self.replayed.watermark()
    }

    /// The serving snapshot (latest materialized or installed).
    pub fn snapshot(&self) -> Option<&Snapshot> {
        self.snapshot.as_ref()
    }

    /// The vote this process's previous incarnation left for `instance`.
    pub fn recovered_vote(&self, instance: u64) -> Option<&VoteRecord> {
        self.recovered_votes.get(&instance)
    }

    /// The snapshot fold of the decided prefix (read-only: a host that
    /// keeps delivery state of its own checks it against this).
    pub fn fold(&self) -> &SnapshotFold {
        &self.fold
    }

    /// True if the snapshot fold already delivered `id` (it sits inside
    /// the compacted or folded prefix).
    pub fn is_delivered(&self, id: MsgId) -> bool {
        self.fold.is_delivered(id)
    }

    /// The quorum size of a group of `n`: a majority.
    pub fn majority_of(n: usize) -> usize {
        n / 2 + 1
    }

    /// The coordinator of `round` in a group of `n` (rotation over
    /// every process).
    pub fn coordinator_of(round: u32, n: usize) -> ProcessId {
        ProcessId((round as usize % n) as u16)
    }

    /// Sends `msg` to `dst` under the stack's send kind for it, as the
    /// stack's wire enum encodes it.
    pub fn send<C: ReplicaCtx>(&self, ctx: &mut C, dst: ProcessId, msg: &CatchUp) {
        ctx.send(dst, msg.pick(&self.names.kinds), |w| {
            msg.encode_tagged(&self.names.tags, w)
        });
    }

    /// Sends `msg` to every other process.
    pub fn broadcast<C: ReplicaCtx>(&self, ctx: &mut C, msg: &CatchUp) {
        ctx.broadcast(msg.pick(&self.names.kinds), |w| {
            msg.encode_tagged(&self.names.tags, w)
        });
    }

    /// Writes `instance`'s vote record to stable storage, atomically
    /// with the vote message of the enclosing handler. The record holds
    /// the payloads of `value` that reach [`SHARE_MIN`](crate::wire::SHARE_MIN)
    /// by reference — the process keeps the batch as its estimate anyway
    /// — so a vote copies the record's framing, not what it votes for; a
    /// batch of short payloads is one exact-sized buffer.
    pub fn persist_vote<C: ReplicaCtx>(
        &self,
        ctx: &mut C,
        instance: u64,
        round: u32,
        ts: u32,
        value: &Batch,
    ) {
        #[cfg(debug_assertions)]
        if self.cfg.faults.skip_vote_persist {
            // Injected fault (fuzz-minimizer acceptance suite): the
            // vote is acked but never reaches stable storage, so a
            // crash-restart forgets its lock.
            return;
        }
        let record = Stored::encode_with(|w| VoteRecord::write(w, round, ts, value));
        ctx.persist(keys::vote(instance), record);
    }

    /// Persists the voting fence if it advanced past the one last
    /// persisted, then garbage-collects the vote records the advance
    /// makes obsolete with one range tombstone: an advance costs two
    /// stable writes, whether it covers one instance or a thousand (a
    /// snapshot cadence, or a snapshot install on rejoin).
    fn persist_fence<C: ReplicaCtx>(&mut self, ctx: &mut C) {
        let fence = self.decided_log.watermark();
        if fence > self.persisted_fence {
            ctx.persist(keys::WATERMARK, encode(&fence));
            ctx.unpersist(keys::votes(self.persisted_fence..fence));
            self.persisted_fence = fence;
        }
    }

    /// Evicts the oldest cached decisions down to `decision_cache`, but
    /// only ones the serving snapshot covers: an uncovered decision is
    /// never dropped, so every instance a joiner may miss stays servable
    /// from either the log tail or the snapshot, and the tail stays as
    /// deep as the bound allows (small gaps — a briefly partitioned peer
    /// — are served as cheap value replies, the snapshot path is for
    /// deep ones). With snapshotting disabled nothing is ever covered
    /// and eviction is blind: an evicted prefix is unservable.
    fn trim(&mut self) {
        let covered = if self.cfg.snapshot_interval == 0 {
            u64::MAX
        } else {
            self.snapshot.as_ref().map_or(0, |s| s.last_included + 1)
        };
        while self.decisions.len() > self.cfg.decision_cache {
            match self.decisions.first_key_value() {
                Some((&k, _)) if k < covered => self.decisions.pop_first(),
                _ => break,
            };
        }
    }

    /// Runs after every recorded decision: [trims](Self::trim) the
    /// cache, then materializes a snapshot if the fold ran
    /// `snapshot_interval` instances past the previous one (the
    /// cadence) — or early, if the cache is still over its bound, which
    /// after the trim means its oldest entry is *not* covered and only a
    /// snapshot can make room (compaction replaces eviction). A full
    /// cache whose overflow the previous snapshot already covers costs
    /// an eviction, not a snapshot: in steady state that is one snapshot
    /// per `min(snapshot_interval, decision_cache + 1)` decisions.
    fn maybe_compact<C: ReplicaCtx>(&mut self, ctx: &mut C) {
        self.trim();
        let interval = self.cfg.snapshot_interval;
        if interval == 0 {
            return;
        }
        let folded = self.fold.next_instance();
        let base = self.snapshot.as_ref().map_or(0, |s| s.last_included + 1);
        let uncovered_overflow = self.decisions.len() > self.cfg.decision_cache;
        if folded < base + interval && !(uncovered_overflow && folded > base) {
            return;
        }
        let Some(snap) = self.fold.snapshot() else {
            return;
        };
        ctx.bump(self.names.snapshots, 1);
        ctx.trace_span(self.names.label, snap.last_included, "snapshot_offer", 0);
        self.set_snapshot(ctx, snap, false);
    }

    /// Adopts `snap` as this process's serving snapshot: persists the
    /// voting fence (which covers `snap`) and then `snap`, reports the
    /// stamp to the harness and [trims](Self::trim) the cache of what it
    /// now covers.
    fn set_snapshot<C: ReplicaCtx>(&mut self, ctx: &mut C, snap: Snapshot, installed: bool) {
        let bytes = encode(&snap);
        // Durability is not free: materializing charges the encode
        // cost, installing charges decode + restore + re-encode for
        // serving — both proportional to the snapshot's encoded size
        // (zero under the default calibration; see docs/COST_MODEL.md).
        let cost = if installed {
            ctx.costs().snapshot_install_cost(bytes.len())
        } else {
            ctx.costs().snapshot_encode_cost(bytes.len())
        };
        ctx.charge_durability(cost);
        // The fence first: `resume` keeps a snapshot only if it lies
        // below the persisted fence.
        self.persist_fence(ctx);
        ctx.persist(keys::SNAPSHOT, bytes.clone());
        ctx.note_snapshot(stamp_of(&snap, installed));
        self.snapshot_bytes = bytes;
        self.snapshot = Some(snap);
        self.trim();
    }

    /// Sends the pull "the decided values from `from` on" to `to`.
    pub(crate) fn pull<C: ReplicaCtx>(&self, ctx: &mut C, to: ProcessId, from: u64) {
        ctx.trace_span(self.names.label, from, "pull", u64::from(to.0));
        self.send(ctx, to, &CatchUp::Pull { from });
    }

    /// Seeing traffic from a peer for instance `seen` while the replayed
    /// prefix is further back than the pipeline window explains means
    /// decisions were missed (partition, loss, a long suspicion): pull
    /// them from the process we heard from, starting at the end of the
    /// replayed prefix. Without this, a healed process recovers only one
    /// instance per progress-timeout and can lag arbitrarily far behind.
    /// Both stacks reach it through the same two gates, one for a peer's
    /// proposal ([`admit_proposal`](Self::admit_proposal)) and one for a
    /// peer's decision ([`admit_decision`](Self::admit_decision)).
    pub(crate) fn pull_on_sighting<C: ReplicaCtx>(
        &mut self,
        ctx: &mut C,
        from: ProcessId,
        seen: u64,
    ) {
        if from == ctx.pid() || !self.behind(seen) {
            return;
        }
        // Rate limited per peer: throttling catch-up toward one lagging
        // peer must not suppress catch-up toward another.
        if self.pull_limiter.allow(from, ctx.now(), GAP_RETRY) {
            ctx.bump(self.names.gap_requests, 1);
            self.pull(ctx, from, self.replayed_watermark());
        }
    }

    /// True when a sighting of `seen` is evidence of missed decisions:
    /// it lies beyond the pipeline window above the replayed prefix, and
    /// the prefix's end is not merely awaiting replay below the voting
    /// fence (the rejoin announcement covers that).
    fn behind(&self, seen: u64) -> bool {
        let cursor = self.replayed_watermark();
        seen > cursor + self.cfg.pipeline_depth.max(1) - 1 && !self.is_decided(cursor)
    }

    /// Broadcasts the rejoin announcement: a pull from the end of the
    /// replayed prefix (a freshly revived process pulls from instance 0).
    fn announce<C: ReplicaCtx>(&mut self, ctx: &mut C) {
        self.last_join = ctx.now();
        ctx.bump(self.names.join_requests, 1);
        let from = self.replayed.watermark();
        self.broadcast(ctx, &CatchUp::Pull { from });
    }

    /// Serves a pull from `to` of the decided values from `from` on. A
    /// gap the decision log still covers is served as a bulk
    /// [`CatchUp::StateTransfer`] of the cached decisions consecutive
    /// from `from` (at most [`MAX_TRANSFER`]); a gap whose head was
    /// compacted away with the first chunk of the snapshot
    /// ([`CatchUp::SnapshotTransfer`], at most once per
    /// [`OFFER_SPACING`]) — the log there is gone, the snapshot replaces
    /// it. A pull from at or past the replayed prefix's end that finds
    /// nothing cached is not answered: the puller is not behind.
    ///
    /// With snapshotting disabled (`snapshot_interval == 0`) the old
    /// limit applies: once a run outgrows `decision_cache`, the evicted
    /// prefix is unservable and a revived process pulling from instance
    /// 0 stalls (`*.join_unservable` counts this).
    pub(crate) fn serve_pull<C: ReplicaCtx>(&mut self, ctx: &mut C, to: ProcessId, from: u64) {
        // The cheap path first: while the log still covers the head of
        // the gap, values beat re-shipping the whole snapshot (the log
        // tail stays `decision_cache` deep).
        let values: Vec<Batch> = (from..from + MAX_TRANSFER)
            .map_while(|k| self.decisions.get(&k).cloned())
            .collect();
        if !values.is_empty() {
            ctx.bump(self.names.state_transfers, 1);
            let frontier = self.replayed.watermark();
            let msg = CatchUp::StateTransfer {
                from,
                values,
                frontier,
            };
            self.send(ctx, to, &msg);
        } else if self
            .snapshot
            .as_ref()
            .is_some_and(|s| from <= s.last_included)
        {
            // The gap begins inside the compacted prefix: ship the
            // snapshot (first chunk; the puller pulls the rest at
            // round-trip pace), then it rejoins the log at
            // `last_included + 1`. Rate-limited: one offer answers every
            // pull the download overtakes.
            if self.offer_limiter.allow(to, ctx.now(), OFFER_SPACING) {
                self.serve_snapshot_chunk(ctx, to, 0);
            }
        } else if from < self.replayed.watermark() {
            // Not silent: a puller below our eviction horizon cannot be
            // helped by this process (only possible with snapshots
            // disabled, or for a gap above the snapshot with a hole in
            // the local log).
            ctx.bump(self.names.join_unservable, 1);
        }
    }

    /// Sends one chunk of the serving snapshot to `from`.
    fn serve_snapshot_chunk<C: ReplicaCtx>(&self, ctx: &mut C, from: ProcessId, offset: u32) {
        let Some(snap) = &self.snapshot else {
            return;
        };
        let Some((total, chunk)) = chunk_of(&self.snapshot_bytes, offset) else {
            return;
        };
        ctx.bump(self.names.snapshot_transfers, 1);
        let msg = CatchUp::SnapshotTransfer {
            last_included: snap.last_included,
            digest: snap.digest,
            total,
            offset,
            chunk,
            frontier: self.replayed.watermark(),
        };
        self.send(ctx, from, &msg);
    }

    /// The rejoin half of the periodic sweep: re-announce until the
    /// replayed prefix covers both the persisted decided fence and every
    /// frontier a transfer advertised (replies can be lost to the same
    /// faults that caused the crash).
    pub fn sweep_rejoin<C: ReplicaCtx>(&mut self, ctx: &mut C) {
        if !self.rejoining {
            return;
        }
        let now = ctx.now();
        let caught_up = self.replayed.watermark() >= self.decided_log.watermark()
            && self.replayed.watermark() >= self.rejoin_target;
        // A healthy snapshot download is progress too: do not spam
        // re-announcements (and competing offers) while it runs.
        let downloading = self.download.in_progress(now, JOIN_RETRY);
        if caught_up {
            self.rejoining = false;
        } else if now.since(self.last_join) >= JOIN_RETRY && !downloading {
            self.announce(ctx);
        }
    }
}

/// Where the shared machinery hands back to the stack hosting it. The
/// required methods are each stack's thesis — the modular stack raises
/// events on its bus, the monolith updates its merged state directly —
/// and the provided methods are the recovery protocol, written once
/// around them.
pub trait ReplicaHost<C: ReplicaCtx> {
    /// The replica state.
    fn core(&mut self) -> &mut ReplicaCore;

    /// `snap` is being installed: drop the per-instance state it
    /// supersedes and skip delivery past it. Nothing to do for a host
    /// that keeps no such state beside the core's (whose round state is
    /// already pruned).
    fn snapshot_covers(&mut self, _snap: &Snapshot) {}

    /// The snapshot now serving in [`core`](Self::core) was installed:
    /// tell whoever delivers, and carry on from `last_included + 1`.
    fn snapshot_installed(&mut self, ctx: &mut C);

    /// Learns the decided `values` of instances `first, first+1, …`
    /// through the stack's own decision path (which records each via
    /// [`record_decision`](Self::record_decision)) and delivers what
    /// became deliverable: the one place a caught-up value enters the
    /// stack.
    fn learn_decisions(&mut self, ctx: &mut C, first: u64, values: Vec<Batch>);

    /// Moves live `instance` to the next round whose coordinator is not
    /// suspected ([`ReplicaCore::rotate`]) and plays this process's role
    /// in it: an estimate to the new coordinator, or — coordinating it —
    /// a direct proposal where [`ReplicaCore::direct_round`] allows one
    /// and the estimate phase otherwise.
    fn advance_round(&mut self, ctx: &mut C, instance: u64);

    /// A peer's promise arrived: propose wherever this process now may
    /// with no estimate phase ([`ReplicaCore::direct_round`]).
    fn promised(&mut self, ctx: &mut C);

    /// Call from the stack's start handler: on a revived process,
    /// restores the persisted snapshot first (the compacted prefix needs
    /// no replay), then advertises the replay frontier — instance 0
    /// without a snapshot — so peers stream the rest back.
    fn start_replica(&mut self, ctx: &mut C) {
        let core = self.core();
        if !core.rejoining {
            return;
        }
        if let Some(snap) = core.restored.take() {
            self.install_snapshot(ctx, snap);
        }
        self.core().announce(ctx);
    }

    /// Records the decision of `instance` in the core: advances the
    /// replay log and the voting fence, caches the value, folds it,
    /// trims the cache to its bound and cuts a snapshot when one is due (see "Log compaction"
    /// in the [module docs](self)). The fence is persisted with that
    /// snapshot — or here, on every advance, when snapshots are off.
    /// Keyed on the replay log, so a revived process re-records the
    /// decided prefix learned through state transfer even though its
    /// voting fence already covers it. Returns `false` (and does
    /// nothing) for a decision already recorded in this incarnation.
    fn record_decision(&mut self, ctx: &mut C, instance: u64, value: &Batch) -> bool {
        let core = self.core();
        if !core.replayed.is_new(instance) {
            return false;
        }
        core.replayed.complete(instance);
        core.decided_log.complete(instance);
        if core.cfg.snapshot_interval == 0 {
            core.persist_fence(ctx);
        }
        core.decisions.insert(instance, value.clone());
        core.fold.absorb_in(instance, value, ctx.payload_digests());
        core.maybe_compact(ctx);
        true
    }

    /// Installs a snapshot: fast-forwards the fold, replay log and
    /// voting fence to `last_included + 1`, drops the state the snapshot
    /// made moot and adopts it for serving (which persists the fence with
    /// it).
    fn install_snapshot(&mut self, ctx: &mut C, snap: Snapshot) {
        let core = self.core();
        if !core.fold.install(&snap, ctx.payload_digests()) {
            return; // does not extend past what we already replayed
        }
        let next = snap.last_included + 1;
        core.replayed.advance_to(next);
        core.decided_log.advance_to(next);
        core.recovered_votes = core.recovered_votes.split_off(&next);
        core.rounds.drop_below(next);
        self.snapshot_covers(&snap);
        let core = self.core();
        ctx.bump(core.names.snapshots_installed, 1);
        ctx.trace_span(core.names.label, snap.last_included, "snapshot_install", 0);
        core.set_snapshot(ctx, snap, true);
        self.snapshot_installed(ctx);
    }

    /// Receiver side: absorbs one snapshot chunk through the download
    /// state machine, pulling the next at round-trip pace; a completed
    /// download is installed and chased with a pull to the serving peer
    /// for the remaining log tail.
    #[allow(clippy::too_many_arguments)]
    fn absorb_snapshot_chunk(
        &mut self,
        ctx: &mut C,
        from: ProcessId,
        last_included: u64,
        digest: u64,
        total: u32,
        offset: u32,
        chunk: Bytes,
        frontier: u64,
    ) {
        let core = self.core();
        core.rejoin_target = core.rejoin_target.max(frontier);
        let now = ctx.now();
        let already_past = core.fold.next_instance() > last_included;
        match core.download.absorb(
            from,
            last_included,
            digest,
            total,
            offset,
            &chunk,
            now,
            JOIN_RETRY,
            already_past,
        ) {
            ChunkOutcome::Pull(offset) => {
                ctx.bump(core.names.snapshot_pulls, 1);
                let msg = CatchUp::SnapshotPull {
                    last_included,
                    offset,
                };
                core.send(ctx, from, &msg);
            }
            ChunkOutcome::Complete(snap) => {
                self.install_snapshot(ctx, *snap);
                let core = self.core();
                core.last_join = now;
                core.pull(ctx, from, core.replayed.watermark());
            }
            ChunkOutcome::Ignored => {}
            ChunkOutcome::Corrupt => ctx.bump(core.names.snapshot_garbage, 1),
        }
    }

    /// Absorbs a state transfer, then — while the replayed prefix is
    /// still behind the sender's frontier — pulls the next range from
    /// the same peer at round-trip pace. Every peer that answered a
    /// rejoin announcement is chased so: the chains overlap, but they
    /// keep the joiner talking to every member while it replays (its
    /// pulls are the only traffic the members' detectors hear from a
    /// process that does not know yet that it is one of them).
    fn absorb_transfer(
        &mut self,
        ctx: &mut C,
        from: ProcessId,
        first: u64,
        values: Vec<Batch>,
        frontier: u64,
    ) {
        let core = self.core();
        core.rejoin_target = core.rejoin_target.max(frontier);
        self.learn_decisions(ctx, first, values);
        let core = self.core();
        let mine = core.replayed.watermark();
        if mine < frontier {
            // Chained catch-up: a short per-peer rate limit keeps one
            // reply burst from re-pulling the same range.
            let now = ctx.now();
            if core.pull_limiter.allow(from, now, CHASE_SPACING) {
                core.last_join = now;
                core.pull(ctx, from, mine);
            }
        } else if core.rejoining
            && mine >= core.rejoin_target
            && mine >= core.decided_log.watermark()
        {
            // Replay reached both the advertised frontier and our own
            // pre-crash decided fence: rejoin complete.
            core.rejoining = false;
            ctx.bump(core.names.rejoins_completed, 1);
        }
    }

    /// Handles one catch-up message from `from`.
    fn on_catch_up(&mut self, ctx: &mut C, from: ProcessId, msg: CatchUp) {
        match msg {
            CatchUp::Pull { from: first } => {
                // A process that made a promise sends it along, once per
                // `JOIN_RETRY`: a revived puller lost the promises it
                // held, a partitioned one missed them, and the round in
                // use is in them.
                let core = self.core();
                let now = ctx.now();
                if core.rounds.promised().round > 0
                    && core.promise_limiter.allow(from, now, JOIN_RETRY)
                {
                    core.send_promise(ctx, from);
                }
                core.serve_pull(ctx, from, first);
            }
            CatchUp::StateTransfer {
                from: first,
                values,
                frontier,
            } => self.absorb_transfer(ctx, from, first, values, frontier),
            CatchUp::SnapshotTransfer {
                last_included,
                digest,
                total,
                offset,
                chunk,
                frontier,
            } => self.absorb_snapshot_chunk(
                ctx,
                from,
                last_included,
                digest,
                total,
                offset,
                chunk,
                frontier,
            ),
            CatchUp::Promise(promise) => {
                // Proposals of this process the promise refuses move on
                // to the promised round.
                for instance in self.core().absorb_promise(ctx, from, promise) {
                    self.advance_round(ctx, instance);
                }
                self.promised(ctx);
            }
            CatchUp::SnapshotPull {
                last_included,
                offset,
            } => {
                let core = self.core();
                match core.snapshot.as_ref().map(|s| s.last_included) {
                    // Exact match: serve the requested chunk.
                    Some(have) if have == last_included => {
                        core.serve_snapshot_chunk(ctx, from, offset);
                    }
                    // We compacted further since the puller started; a
                    // fresh offer supersedes the stale download.
                    Some(have) if have > last_included => {
                        core.serve_snapshot_chunk(ctx, from, 0);
                    }
                    _ => {}
                }
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::counters::Counters;
    use crate::message::AppMsg;
    use crate::wire::encode_with;

    crate::metric_table! {
        mod t in TEST {
            events {
                GAP_REQUESTS = "t.gap_requests",
                JOIN_REQUESTS = "t.join_requests",
                STATE_TRANSFERS = "t.state_transfers",
                SNAPSHOT_TRANSFERS = "t.snapshot_transfers",
                SNAPSHOT_PULLS = "t.snapshot_pulls",
                SNAPSHOT_GARBAGE = "t.snapshot_garbage",
                SNAPSHOTS = "t.snapshots",
                SNAPSHOTS_INSTALLED = "t.snapshots_installed",
                JOIN_UNSERVABLE = "t.join_unservable",
                REJOINS_COMPLETED = "t.rejoins_completed",
                PROPOSALS = "t.proposals",
                ROUND_CHANGES = "t.round_changes",
                PROGRESS_ROTATIONS = "t.progress_rotations",
                REQUEST_RETRIES = "t.request_retries",
                TAG_MISSES = "t.tag_misses",
                BOGUS_PROPOSALS = "t.bogus_proposals",
                PROMISES = "t.promises",
                DIRECT_PROPOSALS = "t.direct_proposals",
            }
            kinds {
                PULL = "t.pull",
                STATE_TRANSFER = "t.state_transfer",
                SNAPSHOT_TRANSFER = "t.snapshot_transfer",
                SNAPSHOT_PULL = "t.snapshot_pull",
                PROMISE = "t.promise",
            }
        }
    }

    pub(crate) const NAMES: ReplicaNames = ReplicaNames {
        label: "t",
        tags: PerCatchUp {
            pull: 2,
            state_transfer: 3,
            snapshot_transfer: 4,
            snapshot_pull: 5,
            promise: 6,
        },
        kinds: PerCatchUp {
            pull: t::PULL,
            state_transfer: t::STATE_TRANSFER,
            snapshot_transfer: t::SNAPSHOT_TRANSFER,
            snapshot_pull: t::SNAPSHOT_PULL,
            promise: t::PROMISE,
        },
        gap_requests: t::GAP_REQUESTS,
        join_requests: t::JOIN_REQUESTS,
        state_transfers: t::STATE_TRANSFERS,
        snapshot_transfers: t::SNAPSHOT_TRANSFERS,
        snapshot_pulls: t::SNAPSHOT_PULLS,
        snapshot_garbage: t::SNAPSHOT_GARBAGE,
        snapshots: t::SNAPSHOTS,
        snapshots_installed: t::SNAPSHOTS_INSTALLED,
        join_unservable: t::JOIN_UNSERVABLE,
        rejoins_completed: t::REJOINS_COMPLETED,
        proposals: t::PROPOSALS,
        round_changes: t::ROUND_CHANGES,
        progress_rotations: t::PROGRESS_ROTATIONS,
        request_retries: t::REQUEST_RETRIES,
        tag_misses: t::TAG_MISSES,
        bogus_proposals: t::BOGUS_PROPOSALS,
        promises: t::PROMISES,
        direct_proposals: t::DIRECT_PROPOSALS,
    };

    /// One stable write a [`FakeCtx`] took.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub(crate) enum Write {
        Put(u64),
        Delete(Range<u64>),
    }

    /// A recording stand-in for the handler context: stable writes take
    /// effect on `store` at once and are logged in order.
    pub(crate) struct FakeCtx {
        pub(crate) pid: ProcessId,
        pub(crate) n: usize,
        pub(crate) now: VTime,
        costs: CostModel,
        pub(crate) store: StableStore,
        pub(crate) writes: Vec<Write>,
        pub(crate) sent: Vec<(Option<ProcessId>, &'static str, CatchUp)>,
        bumps: Counters,
        digests: PayloadDigests,
    }

    impl FakeCtx {
        pub(crate) fn new() -> Self {
            FakeCtx {
                pid: ProcessId(0),
                n: 3,
                now: VTime::ZERO,
                costs: CostModel::default(),
                store: StableStore::new(),
                writes: Vec::new(),
                sent: Vec::new(),
                bumps: Counters::new(),
                digests: PayloadDigests::new(3),
            }
        }

        pub(crate) fn bumped(&self, name: &str) -> u64 {
            self.bumps.event(name)
        }

        fn record_send(&mut self, dst: Option<ProcessId>, kind: Kind, payload: Bytes) {
            let mut r = WireReader::new(payload);
            let tag = r.get_u8().unwrap();
            let msg = CatchUp::decode_tagged(tag, &NAMES.tags, &mut r).unwrap();
            r.expect_end().unwrap();
            self.sent.push((dst, kind.name(), msg));
        }
    }

    impl ReplicaCtx for FakeCtx {
        fn pid(&self) -> ProcessId {
            self.pid
        }
        fn n(&self) -> usize {
            self.n
        }
        fn now(&self) -> VTime {
            self.now
        }
        fn costs(&self) -> &CostModel {
            &self.costs
        }
        fn persist(&mut self, key: u64, value: impl Into<Stored>) {
            self.store.insert(key, value.into());
            self.writes.push(Write::Put(key));
        }
        fn unpersist(&mut self, keys: Range<u64>) {
            self.store.retain(|key, _| !keys.contains(key));
            self.writes.push(Write::Delete(keys));
        }
        fn charge_durability(&mut self, _: VDur) {}
        fn note_snapshot(&mut self, _: SnapshotStamp) {}
        fn bump(&mut self, metric: Metric, by: u64) {
            self.bumps.bump(metric, by);
        }
        fn payload_digests(&mut self) -> &mut PayloadDigests {
            &mut self.digests
        }
        fn trace_span(&mut self, _: &'static str, _: u64, _: &'static str, _: u64) {}
        fn send(&mut self, dst: ProcessId, kind: Kind, body: impl Fn(&mut WireWriter)) {
            self.record_send(Some(dst), kind, encode_with(body));
        }
        fn broadcast(&mut self, kind: Kind, body: impl Fn(&mut WireWriter)) {
            self.record_send(None, kind, encode_with(body));
        }
    }

    /// A host that records the hand-backs and learns decisions straight
    /// into the core.
    pub(crate) struct FakeHost {
        pub(crate) core: ReplicaCore,
        covered: Vec<u64>,
        installed: u32,
        /// Instances handed to `advance_round`.
        pub(crate) advanced: Vec<u64>,
        /// What `direct_ready` returned at each `promised`.
        pub(crate) direct_ready: Vec<Vec<u64>>,
    }

    impl FakeHost {
        pub(crate) fn over(core: ReplicaCore) -> Self {
            FakeHost {
                core,
                covered: Vec::new(),
                installed: 0,
                advanced: Vec::new(),
                direct_ready: Vec::new(),
            }
        }

        fn fresh(decision_cache: usize, snapshot_interval: u64) -> Self {
            let cfg = ReplicaConfig {
                decision_cache,
                snapshot_interval,
                ..ReplicaConfig::default()
            };
            let mut host = FakeHost::over(ReplicaCore::new(cfg, &NAMES));
            host.start_replica(&mut FakeCtx::new());
            host
        }

        fn decide(&mut self, ctx: &mut FakeCtx, instances: std::ops::Range<u64>) {
            for k in instances {
                assert!(self.record_decision(ctx, k, &batch(k)));
            }
        }
    }

    impl ReplicaHost<FakeCtx> for FakeHost {
        fn core(&mut self) -> &mut ReplicaCore {
            &mut self.core
        }
        fn snapshot_covers(&mut self, snap: &Snapshot) {
            self.covered.push(snap.last_included);
        }
        fn snapshot_installed(&mut self, _: &mut FakeCtx) {
            self.installed += 1;
        }
        fn learn_decisions(&mut self, ctx: &mut FakeCtx, first: u64, values: Vec<Batch>) {
            for (i, value) in values.into_iter().enumerate() {
                self.record_decision(ctx, first + i as u64, &value);
            }
        }
        fn advance_round(&mut self, ctx: &mut FakeCtx, instance: u64) {
            self.core.rotate(ctx, instance);
            self.advanced.push(instance);
        }
        fn promised(&mut self, ctx: &mut FakeCtx) {
            self.direct_ready
                .push(self.core.direct_ready(ctx.pid, ctx.n()));
        }
    }

    /// The one-message batch decided at instance `k`.
    pub(crate) fn batch(k: u64) -> Batch {
        let id = MsgId::new(ProcessId(1), k);
        Batch::normalize(vec![AppMsg::new(id, Bytes::from_static(b"payload"))])
    }

    /// A batch whose first payload is long enough for a vote record to
    /// hold by reference, and whose second is not.
    fn shared_batch() -> Batch {
        let long = Bytes::from(vec![0x5A; crate::wire::SHARE_MIN]);
        let msgs = vec![
            AppMsg::new(MsgId::new(ProcessId(1), 90), long),
            batch(91).msgs()[0].clone(),
        ];
        Batch::normalize(msgs)
    }

    fn samples() -> Vec<CatchUp> {
        vec![
            CatchUp::Pull { from: 6 },
            CatchUp::Pull { from: 0 },
            CatchUp::StateTransfer {
                from: 3,
                values: vec![batch(3), Batch::empty(), batch(5)],
                frontier: 42,
            },
            CatchUp::SnapshotTransfer {
                last_included: 63,
                digest: 0xDEAD_BEEF,
                total: 4097,
                offset: 4096,
                chunk: Bytes::from_static(b"tail byte"),
                frontier: 80,
            },
            CatchUp::SnapshotPull {
                last_included: 63,
                offset: 4096,
            },
            CatchUp::Promise(Promise { round: 2, from: 17 }),
        ]
    }

    #[test]
    fn catch_up_round_trips_under_any_tag_table() {
        let other = PerCatchUp {
            pull: 9,
            state_transfer: 10,
            snapshot_transfer: 11,
            snapshot_pull: 12,
            promise: 13,
        };
        for msg in samples() {
            let mut bodies = Vec::new();
            for tags in [&NAMES.tags, &other] {
                let mut w = WireWriter::new();
                msg.encode_tagged(tags, &mut w);
                let bytes = w.finish();
                assert_eq!(bytes[0], msg.pick(tags));
                let mut r = WireReader::new(bytes.clone());
                let tag = r.get_u8().unwrap();
                assert_eq!(CatchUp::decode_tagged(tag, tags, &mut r).unwrap(), msg);
                r.expect_end().unwrap();
                bodies.push(bytes.slice(1..));
            }
            // The tag byte is the only thing a stack chooses.
            assert_eq!(bodies[0], bodies[1]);
        }
        // Tag 1, the decision request's once, is nobody's now.
        for tag in [1, 99] {
            let mut r = WireReader::new(Bytes::from_static(&[0; 16]));
            assert_eq!(
                CatchUp::decode_tagged(tag, &NAMES.tags, &mut r),
                Err(WireError::InvalidTag(tag))
            );
        }
    }

    #[test]
    fn serve_pull_prefers_the_log_then_the_snapshot_then_gives_up() {
        let (mut host, mut ctx) = (FakeHost::fresh(4, 4), FakeCtx::new());
        let puller = ProcessId(2);

        // The log still covers the whole gap: a bulk value transfer.
        host.decide(&mut ctx, 0..4);
        host.on_catch_up(&mut ctx, puller, CatchUp::Pull { from: 0 });
        let (dst, kind, msg) = ctx.sent.pop().unwrap();
        assert_eq!((dst, kind), (Some(puller), "t.state_transfer"));
        let values = (0..4).map(batch).collect();
        let frontier = 4;
        assert_eq!(
            msg,
            CatchUp::StateTransfer {
                from: 0,
                values,
                frontier
            }
        );
        assert_eq!(ctx.bumped("t.state_transfers"), 1);

        // The cache overflowed and the gap's head was compacted away:
        // the snapshot replaces it, first chunk first.
        host.decide(&mut ctx, 4..8);
        assert!(!host.core.decisions.contains_key(&0));
        host.on_catch_up(&mut ctx, puller, CatchUp::Pull { from: 0 });
        let (_, kind, msg) = ctx.sent.pop().unwrap();
        assert_eq!(kind, "t.snapshot_transfer");
        let covers = host.core.snapshot().unwrap().last_included;
        assert!(matches!(
            msg,
            CatchUp::SnapshotTransfer { last_included, offset: 0, frontier: 8, .. }
                if last_included == covers
        ));
        assert_eq!(ctx.bumped("t.snapshot_transfers"), 1);
        // A pull whose gap starts inside the cached tail gets values,
        // compacted or not.
        assert!(host.core.decisions.contains_key(&6) && covers >= 6);
        host.on_catch_up(&mut ctx, puller, CatchUp::Pull { from: 6 });
        assert_eq!(ctx.sent.pop().unwrap().1, "t.state_transfer");
        // A puller that is not behind gets nothing.
        host.on_catch_up(&mut ctx, puller, CatchUp::Pull { from: 8 });
        assert!(ctx.sent.is_empty());
        assert_eq!(ctx.bumped("t.join_unservable"), 0);

        // Without snapshots the evicted head is simply gone.
        let (mut host, mut ctx) = (FakeHost::fresh(2, 0), FakeCtx::new());
        host.decide(&mut ctx, 0..4);
        host.on_catch_up(&mut ctx, puller, CatchUp::Pull { from: 0 });
        assert!(ctx.sent.is_empty());
        assert_eq!(ctx.bumped("t.join_unservable"), 1);
    }

    #[test]
    fn a_pull_below_the_snapshot_gets_chunk_0_once_per_offer_spacing() {
        let (mut host, mut ctx) = (FakeHost::fresh(4, 4), FakeCtx::new());
        let (p1, p2) = (ProcessId(1), ProcessId(2));
        host.decide(&mut ctx, 0..8);
        assert!(!host.core.decisions.contains_key(&0));
        let offers = |ctx: &mut FakeCtx| -> Vec<(Option<ProcessId>, u32)> {
            let sent = ctx.sent.drain(..);
            sent.map(|(dst, _, msg)| match msg {
                CatchUp::SnapshotTransfer { offset, .. } => (dst, offset),
                other => panic!("unexpected {other:?}"),
            })
            .collect()
        };
        // Every pull from below the horizon, as a batch of them arrives.
        for from in 0..3 {
            host.on_catch_up(&mut ctx, p1, CatchUp::Pull { from });
        }
        assert_eq!(offers(&mut ctx), [(Some(p1), 0)]);
        // Another puller is offered its own download.
        host.on_catch_up(&mut ctx, p2, CatchUp::Pull { from: 1 });
        assert_eq!(offers(&mut ctx), [(Some(p2), 0)]);
        // Just short of the spacing, still nothing; at it, chunk 0 again.
        ctx.now += OFFER_SPACING - VDur::millis(1);
        host.on_catch_up(&mut ctx, p1, CatchUp::Pull { from: 0 });
        assert_eq!(offers(&mut ctx), []);
        ctx.now += VDur::millis(1);
        host.on_catch_up(&mut ctx, p1, CatchUp::Pull { from: 0 });
        assert_eq!(offers(&mut ctx), [(Some(p1), 0)]);
        assert_eq!(ctx.bumped("t.snapshot_transfers"), 3);
        assert_eq!(ctx.bumped("t.join_unservable"), 0);
    }

    /// Records decisions `0..64` one at a time and returns the ones a
    /// snapshot was cut after, checking after each that the cache holds
    /// at most `cache` decisions and every one the snapshot leaves out.
    fn snapshot_points(cache: usize, interval: u64) -> Vec<u64> {
        let (mut host, mut ctx) = (FakeHost::fresh(cache, interval), FakeCtx::new());
        let mut cut_after = Vec::new();
        for k in 0..64 {
            let before = ctx.bumped("t.snapshots");
            host.decide(&mut ctx, k..k + 1);
            if ctx.bumped("t.snapshots") > before {
                cut_after.push(k);
                assert_eq!(host.core.snapshot().unwrap().last_included, k);
            }
            assert!(host.core.decisions.len() <= cache, "after {k}");
            if interval > 0 {
                let uncovered = host.core.snapshot().map_or(0, |s| s.last_included + 1);
                for j in uncovered..=k {
                    assert!(
                        host.core.decisions.contains_key(&j),
                        "{j} dropped after {k}"
                    );
                }
            }
        }
        cut_after
    }

    #[test]
    fn a_full_cache_trims_every_decision_and_snapshots_on_cadence() {
        // On cadence: every second decision, although the cache is over
        // its bound after every one from the fifth on.
        let every_second: Vec<u64> = (1..64).step_by(2).collect();
        assert_eq!(snapshot_points(4, 2), every_second);
        // The cadence is longer than the cache: a snapshot is cut early
        // exactly when the oldest cached decision is not covered yet —
        // every fifth decision — and not in between.
        let every_fifth: Vec<u64> = (4..64).step_by(5).collect();
        assert_eq!(every_fifth.len(), 12);
        assert_eq!(snapshot_points(4, 16), every_fifth);
        // Snapshots disabled: eviction is blind.
        assert_eq!(snapshot_points(4, 0), Vec::<u64>::new());
    }

    /// With snapshots off, the fence is persisted on every advance.
    #[test]
    fn persist_fence_writes_the_watermark_and_collects_exactly_the_votes_below_it() {
        let (mut host, mut ctx) = (FakeHost::fresh(16, 0), FakeCtx::new());
        for k in 0..4 {
            host.core.persist_vote(&mut ctx, k, 0, 1, &batch(k));
        }
        ctx.writes.clear();

        // Decisions above a hole leave the contiguous fence where it is.
        assert!(host.record_decision(&mut ctx, 1, &batch(1)));
        assert!(host.record_decision(&mut ctx, 2, &batch(2)));
        assert!(ctx.writes.is_empty());
        assert_eq!(host.core.decided_watermark(), 0);

        // Closing the hole moves it from 0 to 3: one watermark write,
        // one range tombstone.
        assert!(host.record_decision(&mut ctx, 0, &batch(0)));
        assert_eq!(
            ctx.writes,
            vec![
                Write::Put(keys::WATERMARK),
                Write::Delete(keys::vote(0)..keys::vote(3)),
            ]
        );
        assert_eq!(ctx.store[&keys::WATERMARK].decode::<u64>(), Ok(3));
        assert!(ctx.store.contains_key(&keys::vote(3)));
        assert!(!ctx.store.contains_key(&keys::vote(2)));
        // A decision already recorded changes nothing.
        assert!(!host.record_decision(&mut ctx, 0, &batch(0)));
        assert_eq!(ctx.writes.len(), 2);
        // An advance of one instance costs the same two writes.
        ctx.writes.clear();
        assert!(host.record_decision(&mut ctx, 3, &batch(3)));
        assert_eq!(
            ctx.writes,
            vec![
                Write::Put(keys::WATERMARK),
                Write::Delete(keys::vote(3)..keys::vote(4)),
            ]
        );
    }

    #[test]
    fn a_snapshot_install_jumping_the_fence_writes_one_tombstone() {
        // A joiner holding vote records in 0..1 000 (it never learned
        // those decisions, so nothing collected them) installs a
        // snapshot covering 0..=999: the fence jumps by 1 000.
        let (mut server, mut ctx) = (FakeHost::fresh(1024, 1000), FakeCtx::new());
        server.decide(&mut ctx, 0..1000);
        let snap = server.core.snapshot().unwrap().clone();
        assert_eq!(snap.last_included, 999);

        let (mut joiner, mut ctx) = (FakeHost::fresh(1024, 1000), FakeCtx::new());
        for k in (0..1000).step_by(7).chain([1000, 1001]) {
            joiner.core.persist_vote(&mut ctx, k, 0, 1, &batch(k));
        }
        ctx.writes.clear();
        joiner.install_snapshot(&mut ctx, snap);

        assert_eq!(joiner.core.decided_watermark(), 1000);
        assert_eq!(
            ctx.writes,
            vec![
                Write::Put(keys::WATERMARK),
                Write::Delete(keys::votes(0..1000)),
                Write::Put(keys::SNAPSHOT),
            ]
        );
        // No vote record below the fence; the ones above it stay.
        let votes: Vec<u64> = ctx
            .store
            .range(keys::votes(0..u64::MAX))
            .map(|(key, _)| key - keys::VOTE_TAG)
            .collect();
        assert_eq!(votes, [1000, 1001]);
    }

    #[test]
    fn decisions_write_nothing_until_a_snapshot_carries_the_fence() {
        const K: u64 = 8;
        let (mut host, mut ctx) = (FakeHost::fresh(64, K), FakeCtx::new());
        for cut in 0..3 {
            let base = cut * K;
            for k in base..base + K {
                host.core.persist_vote(&mut ctx, k, 0, 1, &batch(k));
            }
            ctx.writes.clear();
            // Decisions 1 … K−1 of the cadence: no watermark, no
            // tombstone, and every vote record stays.
            for k in base..base + K - 1 {
                host.decide(&mut ctx, k..k + 1);
                assert_eq!(ctx.writes, [], "decision {k}");
            }
            assert!((base..base + K).all(|k| ctx.store.contains_key(&keys::vote(k))));
            // The K-th: the fence, the tombstone over the records it
            // retires, then the snapshot it covers — in that order.
            host.decide(&mut ctx, base + K - 1..base + K);
            assert_eq!(
                ctx.writes,
                vec![
                    Write::Put(keys::WATERMARK),
                    Write::Delete(keys::votes(base..base + K)),
                    Write::Put(keys::SNAPSHOT),
                ],
                "cut {cut}"
            );
            assert_eq!(ctx.store[&keys::WATERMARK].decode::<u64>(), Ok(base + K));
            assert_eq!(ctx.store.range(keys::votes(0..u64::MAX)).count(), 0);
            ctx.writes.clear();
        }
    }

    /// A run of votes and decisions (pipelined two deep, so decisions
    /// land out of order, and lifted past a snapshot install), cut after
    /// every handler, with snapshots on and off: the store it leaves
    /// always keeps, for every instance below the decided prefix, the
    /// vote record or a fence covering it, and a snapshot below that
    /// fence.
    #[test]
    fn a_store_cut_after_any_handler_keeps_every_decided_vote_or_a_fence_over_it() {
        let (mut server, mut server_ctx) = (FakeHost::fresh(64, 4), FakeCtx::new());
        server.decide(&mut server_ctx, 0..30);
        let snap = server.core.snapshot().unwrap().clone();
        assert_eq!(snap.last_included, 27);
        for interval in [4, 0] {
            let (mut host, mut ctx) = (FakeHost::fresh(6, interval), FakeCtx::new());
            let mut cuts = 0;
            let mut check = |host: &FakeHost, store: &StableStore| {
                let revived = ReplicaCore::resume(host.core.cfg.clone(), &NAMES, store);
                let fence = revived.decided_watermark();
                for k in 0..host.core.decided_watermark() {
                    assert!(
                        k < fence || revived.recovered_vote(k).is_some(),
                        "interval {interval}: instance {k} lost its vote and the fence ({fence})"
                    );
                }
                let snapshot = store.contains_key(&keys::SNAPSHOT);
                assert_eq!(snapshot, revived.restored.is_some(), "interval {interval}");
                cuts += 1;
            };
            for k in (0..20).step_by(2) {
                // Vote in k and k + 1, then decide k + 1 before k.
                for j in [k, k + 1] {
                    host.core.persist_vote(&mut ctx, j, 0, 1, &batch(j));
                    check(&host, &ctx.store);
                }
                for j in [k + 1, k] {
                    host.decide(&mut ctx, j..j + 1);
                    check(&host, &ctx.store);
                }
            }
            // Votes in instances a snapshot from a peer then lifts the
            // fence over.
            for j in 20..26 {
                host.core.persist_vote(&mut ctx, j, 0, 1, &batch(j));
            }
            host.install_snapshot(&mut ctx, snap.clone());
            check(&host, &ctx.store);
            assert_eq!(ctx.store.range(keys::votes(0..u64::MAX)).count(), 0);
            assert_eq!(cuts, 41);
        }
    }

    /// The instances the pulls `ctx` sent to `peer` since the last call
    /// pull from, in sending order.
    fn pulls(ctx: &mut FakeCtx, peer: ProcessId) -> Vec<u64> {
        let sent = ctx.sent.drain(..);
        sent.map(|(dst, _, msg)| match (dst, msg) {
            (Some(p), CatchUp::Pull { from }) if p == peer => from,
            other => panic!("unexpected {other:?}"),
        })
        .collect()
    }

    /// A transfer of the decisions `range` from a peer at `frontier`.
    fn transfer(range: Range<u64>, frontier: u64) -> CatchUp {
        CatchUp::StateTransfer {
            from: range.start,
            values: range.map(batch).collect(),
            frontier,
        }
    }

    /// Process 1, which decided `0..n`.
    fn server(n: u64) -> (FakeHost, FakeCtx) {
        let (mut host, mut ctx) = (FakeHost::fresh(1024, 0), FakeCtx::new());
        ctx.pid = ProcessId(1);
        host.decide(&mut ctx, 0..n);
        (host, ctx)
    }

    /// Carries what `puller` sends to `server`, its one peer, and the
    /// answers back, one round trip per [`CHASE_SPACING`], until both
    /// fall silent. Returns the instances the pulls pulled from.
    fn catch_up(
        puller: &mut FakeHost,
        ctx: &mut FakeCtx,
        server: &mut FakeHost,
        server_ctx: &mut FakeCtx,
    ) -> Vec<u64> {
        let mut pulled = Vec::new();
        while !ctx.sent.is_empty() {
            for (dst, _, msg) in std::mem::take(&mut ctx.sent) {
                assert!(dst.is_none_or(|p| p == server_ctx.pid), "{dst:?}");
                if let CatchUp::Pull { from } = msg {
                    pulled.push(from);
                }
                server.on_catch_up(server_ctx, ctx.pid, msg);
            }
            ctx.now += CHASE_SPACING;
            for (dst, _, msg) in std::mem::take(&mut server_ctx.sent) {
                assert_eq!(dst, Some(ctx.pid));
                puller.on_catch_up(ctx, server_ctx.pid, msg);
            }
        }
        pulled
    }

    /// The first instance of each transfer a puller `n` behind needs.
    fn transfers_of(n: u64) -> Vec<u64> {
        (0..n).step_by(MAX_TRANSFER as usize).collect()
    }

    #[test]
    fn a_live_laggard_catches_up_with_one_pull_per_transfer() {
        for n in [2, 16, 17, 40, 100] {
            let (mut server, mut server_ctx) = server(n);
            let (mut host, mut ctx) = (FakeHost::fresh(1024, 0), FakeCtx::new());
            // The peer's decision of its last instance arrives while
            // nothing is replayed here.
            host.core.admit_decision(&mut ctx, server_ctx.pid, n - 1, 0);
            let pulled = catch_up(&mut host, &mut ctx, &mut server, &mut server_ctx);
            assert_eq!(pulled, transfers_of(n), "{n} behind");
            assert_eq!(pulled.len() as u64, n.div_ceil(MAX_TRANSFER));
            assert_eq!(host.core.replayed_watermark(), n);
            assert_eq!(ctx.bumped("t.gap_requests"), 1, "one sighting");
            assert_eq!(server_ctx.bumped("t.state_transfers"), pulled.len() as u64);
        }
    }

    #[test]
    fn a_revived_process_catches_up_with_one_pull_per_transfer() {
        for n in [2, 16, 17, 40, 100] {
            let (mut server, mut server_ctx) = server(n);
            // Its previous incarnation decided `0..n` too.
            let (mut writer, mut ctx) = (FakeHost::fresh(1024, 0), FakeCtx::new());
            writer.decide(&mut ctx, 0..n);
            let core = ReplicaCore::resume(writer.core.cfg.clone(), &NAMES, &ctx.store);
            let (mut host, mut ctx) = (FakeHost::over(core), FakeCtx::new());
            host.start_replica(&mut ctx);
            assert_eq!(ctx.sent[0], (None, "t.pull", CatchUp::Pull { from: 0 }));
            let pulled = catch_up(&mut host, &mut ctx, &mut server, &mut server_ctx);
            assert_eq!(pulled, transfers_of(n), "{n} behind");
            assert_eq!(host.core.replayed_watermark(), n);
            assert_eq!(ctx.bumped("t.join_requests"), 1, "one announcement");
            assert_eq!(ctx.bumped("t.rejoins_completed"), 1);
            assert_eq!(ctx.bumped("t.gap_requests"), 0);
        }
    }

    #[test]
    fn a_tag_miss_inside_the_pipeline_window_pulls_from_its_own_instance() {
        let (mut server, mut server_ctx) = server(13);
        let cfg = ReplicaConfig {
            pipeline_depth: 4,
            ..ReplicaConfig::default()
        };
        let (mut host, mut ctx) = (
            FakeHost::over(ReplicaCore::new(cfg, &NAMES)),
            FakeCtx::new(),
        );
        host.start_replica(&mut ctx);
        host.decide(&mut ctx, 0..10);
        // Instance 12's tag arrives; its proposal never did. The window
        // 10..14 explains the sighting: no pull from the prefix.
        let decider = server_ctx.pid;
        host.core.admit_decision(&mut ctx, decider, 12, 0);
        assert_eq!(host.core.resolve_tag(&mut ctx, decider, 12, 0), None);
        assert_eq!(
            ctx.sent,
            [(Some(decider), "t.pull", CatchUp::Pull { from: 12 })]
        );
        assert_eq!(ctx.bumped("t.gap_requests"), 0);
        // The answer decides 12. It leaves the prefix short of the
        // decider's frontier, so the rest is chased from the prefix's end.
        let pulled = catch_up(&mut host, &mut ctx, &mut server, &mut server_ctx);
        assert_eq!(pulled, [12, 10]);
        assert_eq!(host.core.replayed_watermark(), 13);
        // A process's own tag pulls from nobody.
        let me = ctx.pid;
        assert_eq!(host.core.resolve_tag(&mut ctx, me, 11, 0), None);
        assert!(ctx.sent.is_empty());
        assert_eq!(ctx.bumped("t.tag_misses"), 2);
    }

    #[test]
    fn a_lagging_process_asks_for_each_missing_decision_once_per_retry_period() {
        let (mut host, mut ctx) = (FakeHost::fresh(64, 0), FakeCtx::new());
        let (p1, p2) = (ProcessId(1), ProcessId(2));

        // A decision for instance 40 arrives while nothing is replayed:
        // one pull, from the end of the replayed prefix.
        host.core.admit_decision(&mut ctx, p1, 40, 0);
        assert_eq!(pulls(&mut ctx, p1), [0]);
        // Within the retry period more sightings from p1 pull nothing —
        // the pull is in flight — but one from p2 pulls from p2.
        ctx.now += GAP_RETRY - VDur::millis(1);
        host.core.admit_decision(&mut ctx, p1, 41, 0);
        assert_eq!(pulls(&mut ctx, p1), []);
        host.core.admit_decision(&mut ctx, p2, 41, 0);
        assert_eq!(pulls(&mut ctx, p2), [0]);
        // p1's answer was lost: once the period has passed, the next
        // sighting pulls the same range again.
        ctx.now += VDur::millis(1);
        host.core.admit_decision(&mut ctx, p1, 41, 0);
        assert_eq!(pulls(&mut ctx, p1), [0]);

        // An answer that leaves the prefix short of its sender's
        // frontier is chased at once, from the prefix's new end, and so
        // is the other peer's answer to the same pull; one that brings
        // the prefix to its sender's frontier is not.
        ctx.now += CHASE_SPACING;
        host.on_catch_up(&mut ctx, p1, transfer(0..16, 42));
        assert_eq!(pulls(&mut ctx, p1), [16]);
        host.on_catch_up(&mut ctx, p2, transfer(0..16, 42));
        assert_eq!(pulls(&mut ctx, p2), [16]);
        host.on_catch_up(&mut ctx, p2, transfer(8..16, 16));
        assert_eq!(pulls(&mut ctx, p2), []);
        // That chase is lost too: the next sighting after the period
        // pulls from where the prefix ends.
        ctx.now += GAP_RETRY;
        host.core.admit_decision(&mut ctx, p1, 41, 0);
        assert_eq!(pulls(&mut ctx, p1), [16]);
        assert_eq!(ctx.bumped("t.gap_requests"), 4);

        // A process's own decision is no sighting.
        ctx.now += GAP_RETRY;
        let me = ctx.pid;
        host.core.admit_decision(&mut ctx, me, 90, 0);
        assert!(ctx.sent.is_empty());
    }

    #[test]
    fn a_revived_process_pulls_gaps_from_its_replayed_prefix_not_its_fence() {
        const F: u64 = 10;
        let (mut writer, mut ctx) = (FakeHost::fresh(64, 0), FakeCtx::new());
        writer.decide(&mut ctx, 0..F);
        let core = ReplicaCore::resume(writer.core.cfg.clone(), &NAMES, &ctx.store);
        let (mut host, mut ctx) = (FakeHost::over(core), FakeCtx::new());
        let coordinator = ProcessId(0);
        ctx.pid = ProcessId(2);
        host.start_replica(&mut ctx);
        ctx.sent.clear();
        assert_eq!(
            (
                host.core.decided_watermark(),
                host.core.replayed_watermark()
            ),
            (F, 0)
        );

        // Below the fence the rejoin announcement replays what is
        // missing: a proposal far past the fence pulls nothing until the
        // replayed prefix covers every fenced instance.
        for replayed in 0..F {
            ctx.now += GAP_RETRY;
            assert!(host.core.admit_proposal(&mut ctx, coordinator, F + 5, 0));
            assert_eq!(pulls(&mut ctx, coordinator), [], "replayed {replayed}");
            host.decide(&mut ctx, replayed..replayed + 1);
        }
        // Then the gap is pulled from the end of the replayed prefix.
        assert_eq!(host.core.replayed_watermark(), F);
        host.core.admit_proposal(&mut ctx, coordinator, F + 5, 0);
        assert_eq!(pulls(&mut ctx, coordinator), [F]);
    }

    #[test]
    fn vote_key_ranges_stay_inside_their_namespace() {
        assert_eq!(keys::votes(3..5), keys::vote(3)..keys::vote(5));
        let all = keys::votes(0..u64::MAX);
        assert_eq!(all, keys::VOTE_TAG..keys::WATERMARK);
        assert!(!all.contains(&keys::WATERMARK));
    }

    /// A store holding one value under every key the core writes: votes
    /// above the fence, the watermark and a snapshot.
    fn written_store() -> (FakeHost, StableStore) {
        let (mut host, mut ctx) = (FakeHost::fresh(16, 2), FakeCtx::new());
        host.decide(&mut ctx, 0..4);
        host.core.persist_vote(&mut ctx, 5, 2, 3, &batch(50));
        host.core.persist_vote(&mut ctx, 7, 0, 1, &batch(70));
        host.core.persist_vote(&mut ctx, 9, 1, 2, &shared_batch());
        for key in [keys::WATERMARK, keys::SNAPSHOT, keys::vote(5)] {
            assert!(ctx.store.contains_key(&key), "{key:#x} not written");
        }
        // Framing, the long payload by reference, the short message.
        assert_eq!(ctx.store[&keys::vote(9)].parts().len(), 3);
        (host, ctx.store)
    }

    #[test]
    fn a_written_store_round_trips_through_resume() {
        let (writer, store) = written_store();
        let core = ReplicaCore::resume(writer.core.cfg.clone(), &NAMES, &store);

        assert_eq!(core.decided_watermark(), 4);
        assert!(core.is_decided(3) && !core.is_replayed(3));
        let vote = core.recovered_vote(5).unwrap();
        assert_eq!((vote.round, vote.ts, &vote.value), (2, 3, &batch(50)));
        assert_eq!(core.recovered_vote(7).unwrap().value, batch(70));
        let vote = core.recovered_vote(9).unwrap();
        assert_eq!((vote.round, vote.ts, &vote.value), (1, 2, &shared_batch()));
        assert!(core.recovered_vote(0).is_none());
        assert_eq!(core.restored, writer.core.snapshot);

        // Starting it installs the snapshot and announces the replay
        // frontier.
        let (mut host, mut ctx) = (FakeHost::over(core), FakeCtx::new());
        host.start_replica(&mut ctx);
        let last_included = writer.core.snapshot.as_ref().unwrap().last_included;
        assert_eq!(host.covered, vec![last_included]);
        assert_eq!(host.installed, 1);
        let from = last_included + 1;
        assert_eq!(ctx.sent, vec![(None, "t.pull", CatchUp::Pull { from })]);
    }

    #[test]
    fn resume_survives_a_damaged_store() {
        let (writer, store) = written_store();
        // Resumes from `store` with `key`'s value replaced and requires a
        // usable core: it starts, announces itself and takes decisions,
        // with a bounded amount of stable-store work.
        let resume_with = |key: u64, value: Stored| {
            let mut store = store.clone();
            store.insert(key, value);
            let core = ReplicaCore::resume(writer.core.cfg.clone(), &NAMES, &store);
            let (mut host, mut ctx) = (FakeHost::over(core), FakeCtx::new());
            host.start_replica(&mut ctx);
            assert_eq!(ctx.sent.last().unwrap().1, "t.pull");
            let cursor = host.core.replayed.watermark();
            host.record_decision(&mut ctx, cursor, &batch(cursor));
            assert!(host.core.is_replayed(cursor));
            assert!(
                ctx.writes.len() < 64,
                "{key:#x}: {} writes",
                ctx.writes.len()
            );
        };
        let mut damaged = 0;
        // Every value, part by part (the shared-payload vote has three).
        for (&key, value) in &store {
            let parts = value.parts();
            for (i, part) in parts.iter().enumerate() {
                let mut resume_with_part = |part: Bytes| {
                    let mut parts = parts.to_vec();
                    parts[i] = part;
                    resume_with(key, parts.into_iter().collect());
                    damaged += 1;
                };
                for cut in 0..part.len() {
                    resume_with_part(part.slice(..cut));
                }
                for bit in 0..part.len() * 8 {
                    let mut bytes = part.to_vec();
                    bytes[bit / 8] ^= 1 << (bit % 8);
                    resume_with_part(Bytes::from(bytes));
                }
                // Every aligned-or-not 4-byte window read as a length
                // that is far too long, yet under the codec's sanity cap.
                for at in 0..part.len().saturating_sub(3) {
                    let mut bytes = part.to_vec();
                    bytes[at..at + 4].copy_from_slice(&0x0FFF_FFFFu32.to_le_bytes());
                    resume_with_part(Bytes::from(bytes));
                }
            }
        }
        assert!(damaged > 1000);
    }
}
