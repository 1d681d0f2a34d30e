//! The replica core both stacks share: durable votes, the decided log,
//! the configuration timeline, the Chandra–Toueg round machine, log
//! compaction and join / gap / snapshot catch-up — everything about
//! being a *replica* that the paper does not compare, written once.
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
//! * **Rejoin catch-up** — decided *values* are not persisted: the
//!   revived process announces "my replayed prefix ends at `w`" with a
//!   [`CatchUp::JoinRequest`] broadcast and peers stream the decided
//!   prefix back in bulk [`CatchUp::StateTransfer`] batches, chained at
//!   round-trip pace until the joiner reaches the live frontier. Every
//!   replayed decision goes back through the stack's delivery path, so
//!   the prefix is re-delivered byte-identically — which the chaos
//!   oracle checks across incarnations.
//!
//! A *live* process that fell behind (a healed partition minority) sees
//! traffic for instances beyond its pipeline window and pulls the
//! missing decisions with bounded [`CatchUp::DecisionRequest`] batches
//! ([`ReplicaCore::maybe_request_gap`]).
//!
//! # Log compaction and snapshot state transfer
//!
//! The decision cache is bounded, so under unbounded history the old
//! prefix must eventually go. Every process folds the contiguous decided
//! prefix through a deterministic [`SnapshotFold`] and periodically
//! materializes a [`Snapshot`] — application-state digest, per-sender
//! delivered sets, the reconfiguration history and the `last_included`
//! instance — persisted via the stable store. The rule, applied after
//! every recorded decision:
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
//! joiner whose gap starts inside the compacted prefix receives the
//! snapshot instead, chunked at round-trip pace
//! ([`CatchUp::SnapshotTransfer`] / [`CatchUp::SnapshotPull`]); it
//! installs the snapshot, the stack skips the compacted instances, and
//! log catch-up resumes at `last_included + 1`. Deliveries before the
//! install point are replaced by the snapshot, so byte-identical replay
//! is owed only for the tail — the recovery-aware oracle audits exactly
//! that, plus cross-process agreement on snapshot digests.
//!
//! # Log-decided membership
//!
//! Reconfiguration commands are ordinary decided messages. A change
//! decided at instance `d` is *registered* once the contiguous replayed
//! prefix covers `d` (so versions are numbered in decided order on every
//! process even when pipelined instances land out of order) and governs
//! instances `d + RECONFIG_OFFSET` on; the registered history is
//! persisted, carried in snapshots and re-registered on restart. See
//! `docs/RECONFIG.md` for the model and [`ConfigTimeline`] for the
//! quorum and coordinator arithmetic.

use std::collections::BTreeMap;
use std::ops::Range;

use bytes::Bytes;
use fortika_sim::{VDur, VTime};

use crate::cluster::{NodeCtx, StableStore};
use crate::config::CostModel;
use crate::id::{MsgId, ProcessId};
use crate::membership::{
    decode_reconfigs, encode_reconfigs, parse_reconfig, ConfigChange, ConfigStamp, ConfigTimeline,
};
use crate::message::Batch;
use crate::metrics::{Kind, Metric};
use crate::ratelimit::PeerRateLimiter;
use crate::rounds::Rounds;
use crate::snapshot::{
    chunk_of, stamp_of, AppState, ChunkOutcome, Snapshot, SnapshotDownload, SnapshotFold,
    SnapshotStamp,
};
use crate::watermark::WatermarkSet;
use crate::wire::{encode, encode_with, Stored, Wire, WireError, WireReader, WireWriter};

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
    /// The registered reconfiguration history.
    pub const CONFIG: u64 = 4 << 56;
    /// The reliable-broadcast module's origin sequence counter.
    pub const RBCAST_SEQ: u64 = 5 << 56;
    /// The abcast module's origin-local payload sequence counter.
    pub const ABCAST_SEQ: u64 = 6 << 56;

    const ALL: [u64; 6] = [
        VOTE_TAG, WATERMARK, SNAPSHOT, CONFIG, RBCAST_SEQ, ABCAST_SEQ,
    ];
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
/// Decisions pulled per gap-request batch.
const MAX_GAP_BATCH: u64 = 8;
/// How long a decision request is given to be answered. A requested
/// instance is not asked for again before it has passed, and a sighting
/// starts a new batch toward one peer at most this often.
const GAP_RETRY: VDur = VDur::millis(50);
/// Per-peer spacing of chained catch-up requests (the next gap batch
/// after a recovered decision, the next join request after a transfer):
/// round-trip pace, without one reply burst re-requesting per reply.
const CHASE_SPACING: VDur = VDur::millis(5);
/// Minimum spacing of rejoin re-announcements.
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
/// [`PROGRESS_TIMEOUT`] and retries decision requests.
pub const SWEEP_INTERVAL: VDur = VDur::millis(250);
/// Activation offset of log-decided reconfigurations: a membership
/// change decided at instance `d` governs instances `d + 8` on. The
/// pipeline depth may not exceed it ([`ReplicaCore::new`] asserts), or
/// in-flight instances could be governed by a configuration their
/// proposer cannot yet know.
pub const RECONFIG_OFFSET: u64 = 8;

/// Planted bugs for the acceptance suites that prove the oracle and the
/// fuzz minimizer catch them. Debug builds only: the config field that
/// carries it does not exist in a release build.
#[cfg(debug_assertions)]
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultHooks {
    /// Skip persisting vote records: the classic lost-vote recovery
    /// bug (fuzz-minimizer acceptance suite).
    pub skip_vote_persist: bool,
    /// Never register decided reconfigurations. The process keeps
    /// voting with the *initial* configuration's quorum and coordinator
    /// math — the stale-quorum membership bug the config-aware oracle
    /// must catch.
    pub skip_config_fence: bool,
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
    /// joiner whose gap was evicted everywhere stalls forever
    /// (`*.join_unservable`).
    pub snapshot_interval: u64,
    /// The windowed-sequencer depth α: how many instances the stack
    /// keeps in flight concurrently. All per-instance state here is
    /// keyed by instance, so any number may run concurrently; the depth
    /// informs the *gap heuristic* — traffic for an instance within the
    /// window above the delivery cursor is normal pipelining, not
    /// evidence of missed decisions.
    pub pipeline_depth: u64,
    /// Size of the initial voting member set. `0` (the default) means
    /// "every process in the cluster" — the static-group behaviour.
    /// Reconfiguration runs build clusters at standby capacity (spare
    /// processes awaiting an `Add`), so the voter count is smaller than
    /// the cluster size there.
    pub initial_members: usize,
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
            initial_members: 0,
            #[cfg(debug_assertions)]
            faults: FaultHooks::default(),
        }
    }
}

/// One value per [`CatchUp`] variant (a stack's tag bytes, its send
/// kinds).
#[derive(Debug)]
pub struct PerCatchUp<T> {
    /// For [`CatchUp::DecisionRequest`].
    pub decision_request: T,
    /// For [`CatchUp::JoinRequest`].
    pub join_request: T,
    /// For [`CatchUp::StateTransfer`].
    pub state_transfer: T,
    /// For [`CatchUp::SnapshotTransfer`].
    pub snapshot_transfer: T,
    /// For [`CatchUp::SnapshotPull`].
    pub snapshot_pull: T,
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
    /// Counter: decisions pulled by gap recovery.
    pub gap_requests: Metric,
    /// Counter: rejoin announcements broadcast.
    pub join_requests: Metric,
    /// Counter: bulk state transfers served.
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
    /// Counter: join requests this process could not serve.
    pub join_unservable: Metric,
    /// Counter: rejoins that reached the advertised frontier.
    pub rejoins_completed: Metric,
    /// Counter: reconfigurations registered.
    pub reconfigs: Metric,
    /// Counter: proposals made as coordinator.
    pub proposals: Metric,
    /// Counter: round changes.
    pub round_changes: Metric,
    /// Counter: votes withheld behind the config fence (a learner, or
    /// membership still uncertain).
    pub config_fence_drops: Metric,
    /// Counter: round changes forced by the progress timeout.
    pub progress_rotations: Metric,
    /// Counter: decision requests re-sent by the sweep.
    pub request_retries: Metric,
    /// Counter: tag-only decisions whose proposal was missing.
    pub tag_misses: Metric,
    /// Counter: proposals from a process not coordinating their round.
    pub bogus_proposals: Metric,
}

/// The catch-up vocabulary both stacks speak. Each stack's wire enum
/// embeds it under its own tag bytes ([`ReplicaNames::tags`]), so the
/// encoding is tag-relative: [`encode_tagged`](Self::encode_tagged) /
/// [`decode_tagged`](Self::decode_tagged).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CatchUp {
    /// Pull-based recovery: ask for the decision of `instance`.
    DecisionRequest {
        /// The missing instance.
        instance: u64,
    },
    /// Rejoin announcement of a (re)started process: "my contiguous
    /// replayed prefix ends at `watermark`" — a revived process says 0.
    /// Peers that are ahead answer with a
    /// [`StateTransfer`](Self::StateTransfer) or, below their compaction
    /// horizon, a [`SnapshotTransfer`](Self::SnapshotTransfer).
    JoinRequest {
        /// First instance the sender is missing.
        watermark: u64,
    },
    /// Bulk catch-up reply: the decided values of the consecutive
    /// instances `from, from+1, …`, plus the sender's own replay
    /// frontier so the joiner keeps pulling in chained rounds until it
    /// reaches the live edge.
    StateTransfer {
        /// Instance of `values[0]`.
        from: u64,
        /// Decided values of `from..from + values.len()`.
        values: Vec<Batch>,
        /// The sender's contiguous decided prefix length.
        frontier: u64,
    },
    /// One chunk of a log-compaction snapshot, serving a joiner whose
    /// gap starts inside the sender's compacted prefix. Chunks are
    /// pulled at round-trip pace via [`SnapshotPull`](Self::SnapshotPull);
    /// once complete, the joiner installs the snapshot and resumes log
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
    /// Joiner-side request for the next snapshot chunk.
    SnapshotPull {
        /// Which snapshot is being pulled (its highest instance).
        last_included: u64,
        /// Byte offset of the requested chunk.
        offset: u32,
    },
}

impl CatchUp {
    /// This variant's entry of a per-variant table.
    fn pick<T: Copy>(&self, table: &PerCatchUp<T>) -> T {
        match self {
            CatchUp::DecisionRequest { .. } => table.decision_request,
            CatchUp::JoinRequest { .. } => table.join_request,
            CatchUp::StateTransfer { .. } => table.state_transfer,
            CatchUp::SnapshotTransfer { .. } => table.snapshot_transfer,
            CatchUp::SnapshotPull { .. } => table.snapshot_pull,
        }
    }

    /// Appends this message under the embedding stack's tag byte.
    pub fn encode_tagged(&self, tags: &PerCatchUp<u8>, w: &mut WireWriter) {
        w.put_u8(self.pick(tags));
        match self {
            CatchUp::DecisionRequest { instance } => w.put_u64(*instance),
            CatchUp::JoinRequest { watermark } => w.put_u64(*watermark),
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
        if tag == tags.decision_request {
            Ok(CatchUp::DecisionRequest {
                instance: r.get_u64()?,
            })
        } else if tag == tags.join_request {
            Ok(CatchUp::JoinRequest {
                watermark: r.get_u64()?,
            })
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
/// time, stable storage, accounting, reporting and the network — the
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
    /// See [`NodeCtx::note_config`].
    fn note_config(&mut self, stamp: ConfigStamp);
    /// See [`NodeCtx::bump`].
    fn bump(&mut self, metric: Metric, by: u64);
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
    fn note_config(&mut self, stamp: ConfigStamp) {
        NodeCtx::note_config(self, stamp);
    }
    fn bump(&mut self, metric: Metric, by: u64) {
        NodeCtx::bump(self, metric, by);
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
/// decision cache, recovered vote records, the configuration timeline,
/// the snapshot fold with its serving snapshot and download, and the
/// rejoin state (see the [module docs](self) for the protocol) — and the
/// round state of the undecided instances, which the transitions in
/// [`crate::rounds`] drive.
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
    /// Per-peer rate limiter for gap/rejoin recovery requests.
    gap_limiter: PeerRateLimiter,
    /// The top (exclusive) of the last decision range requested, and
    /// when: below it, requests younger than [`GAP_RETRY`] are in flight.
    gap_asked: (u64, VTime),
    /// Highest instance number observed in any peer message.
    highest_seen: u64,
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
    /// Rate limiter for snapshot offers toward lagging peers (a batch
    /// of gap requests needs one offer, not eight).
    offer_limiter: PeerRateLimiter,
    /// Snapshot recovered from stable storage (restart only); installed
    /// at start, where a handler context is available.
    restored: Option<Snapshot>,
    /// The versioned configuration history. Built at start (the group
    /// size is only known then); `None` answers every quorum question
    /// with the static-group math.
    timeline: Option<ConfigTimeline>,
    /// Reconfiguration commands decided but not yet registered.
    pending_reconfigs: BTreeMap<u64, ConfigChange>,
    /// Reconfiguration history recovered from stable storage (restart
    /// only); registered at start.
    recovered_reconfigs: Vec<(u64, ConfigChange)>,
}

impl ReplicaCore {
    /// A fresh core (process start at time zero).
    ///
    /// # Panics
    /// If `cfg.pipeline_depth` exceeds [`RECONFIG_OFFSET`].
    pub fn new(cfg: ReplicaConfig, names: &'static ReplicaNames) -> Self {
        assert!(
            cfg.pipeline_depth <= RECONFIG_OFFSET,
            "pipeline depth {} exceeds the reconfiguration offset {RECONFIG_OFFSET}: an \
             in-flight instance could be governed by a configuration its proposer cannot know",
            cfg.pipeline_depth
        );
        ReplicaCore {
            cfg,
            names,
            rounds: Rounds::default(),
            decided_log: WatermarkSet::default(),
            replayed: WatermarkSet::default(),
            persisted_fence: 0,
            decisions: BTreeMap::new(),
            gap_limiter: PeerRateLimiter::new(),
            gap_asked: (0, VTime::ZERO),
            highest_seen: 0,
            recovered_votes: BTreeMap::new(),
            rejoining: false,
            rejoin_target: 0,
            last_join: VTime::ZERO,
            fold: SnapshotFold::new(None),
            snapshot: None,
            snapshot_bytes: Bytes::new(),
            download: SnapshotDownload::default(),
            offer_limiter: PeerRateLimiter::new(),
            restored: None,
            timeline: None,
            pending_reconfigs: BTreeMap::new(),
            recovered_reconfigs: Vec::new(),
        }
    }

    /// The core of a process revived after a crash: replays the
    /// persisted vote records, decided watermark, snapshot and
    /// reconfiguration history out of `stable` and arms the rejoin
    /// announcement. Values that fail to decode are skipped, and so is a
    /// snapshot that does not lie below the persisted fence (every
    /// snapshot the core writes does; installing one that claims more
    /// would fast-forward the fence over instances nobody decided) — a
    /// damaged store yields a core that rejoins from less, never a panic.
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
            } else if key == keys::CONFIG {
                if let Ok(history) = decode_reconfigs(&mut value.reader()) {
                    core.recovered_reconfigs = history;
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

    /// The cached decision of `instance`, if still in the log tail.
    pub fn decision(&self, instance: u64) -> Option<&Batch> {
        self.decisions.get(&instance)
    }

    /// The serving snapshot (latest materialized or installed).
    pub fn snapshot(&self) -> Option<&Snapshot> {
        self.snapshot.as_ref()
    }

    /// The vote this process's previous incarnation left for `instance`.
    pub fn recovered_vote(&self, instance: u64) -> Option<&VoteRecord> {
        self.recovered_votes.get(&instance)
    }

    /// True if the snapshot fold already delivered `id` (it sits inside
    /// the compacted or folded prefix).
    pub fn is_delivered(&self, id: MsgId) -> bool {
        self.fold.is_delivered(id)
    }

    /// Notes that a peer message named `instance`.
    pub fn note_seen(&mut self, instance: u64) {
        self.highest_seen = self.highest_seen.max(instance);
    }

    /// The timeline, built on first use (the voter count defaults to
    /// the cluster size; reconfig runs override it via
    /// [`ReplicaConfig::initial_members`]).
    fn timeline_mut(&mut self, n: usize) -> &mut ConfigTimeline {
        let voters = if self.cfg.initial_members == 0 {
            n
        } else {
            self.cfg.initial_members
        };
        self.timeline
            .get_or_insert_with(|| ConfigTimeline::new(voters, RECONFIG_OFFSET))
    }

    /// The member set governing `instance`, in rotation order.
    pub fn members_of(&self, instance: u64, n: usize) -> Vec<ProcessId> {
        match &self.timeline {
            Some(t) => t.members_at(instance).to_vec(),
            None => ProcessId::all(n).collect(),
        }
    }

    /// The quorum size at `instance`.
    pub fn majority_of(&self, instance: u64, n: usize) -> usize {
        match &self.timeline {
            Some(t) => t.majority_at(instance),
            None => n / 2 + 1,
        }
    }

    /// The coordinator of `round` at `instance` (rotation over the
    /// governing member set).
    pub fn coordinator_of(&self, instance: u64, round: u32, n: usize) -> ProcessId {
        match &self.timeline {
            Some(t) => t.coordinator_at(instance, round),
            None => ProcessId((round as usize % n) as u16),
        }
    }

    /// True when the membership governing `instance` is fully determined
    /// by this process's contiguous replayed prefix (the config fence).
    pub fn config_certain(&self, instance: u64) -> bool {
        match &self.timeline {
            Some(t) => t.certain_at(instance, self.replayed.watermark()),
            None => true,
        }
    }

    /// True when `me` may vote (ack / estimate / propose) at `instance`:
    /// its membership there must be certain, and it must be a member.
    /// Non-members keep running as learners — they record proposals,
    /// learn decisions and deliver, but never vote.
    pub fn can_vote(&self, instance: u64, me: ProcessId) -> bool {
        match &self.timeline {
            Some(t) => {
                t.certain_at(instance, self.replayed.watermark()) && t.is_member_at(instance, me)
            }
            None => true,
        }
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
        let Some(mut snap) = self.fold.snapshot() else {
            return;
        };
        // The snapshot carries the reconfiguration history decided
        // within the prefix it covers: every registered change is below
        // the replayed watermark, which the fold never outruns.
        if let Some(t) = &self.timeline {
            snap.reconfigs = t.reconfigs();
        }
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

    /// Seeing traffic for instance `seen` while `cursor` — the stack's
    /// first undelivered instance — is further back than the pipeline
    /// window explains means decisions were missed (partition, loss, a
    /// long suspicion): pull a bounded batch of them from the process we
    /// heard from. Without this, a healed process recovers only one
    /// instance per progress-timeout and can lag arbitrarily far behind.
    pub fn maybe_request_gap<C: ReplicaCtx>(
        &mut self,
        ctx: &mut C,
        from: ProcessId,
        seen: u64,
        cursor: u64,
    ) {
        self.note_seen(seen);
        if !self.behind(seen, cursor) || from == ctx.pid() {
            return;
        }
        // Rate limited per peer: throttling catch-up toward one lagging
        // peer must not suppress catch-up toward another.
        let now = ctx.now();
        if !self.gap_limiter.allow(from, now, GAP_RETRY) {
            return;
        }
        self.request_gap_batch(ctx, from, seen, cursor);
    }

    /// Chained gap catch-up: after a recovered decision that still
    /// leaves `cursor` behind the highest instance seen, pull the next
    /// batch promptly, so a healed process recovers at near round-trip
    /// pace.
    pub fn chase_gap<C: ReplicaCtx>(&mut self, ctx: &mut C, from: ProcessId, cursor: u64) {
        let now = ctx.now();
        if self.behind(self.highest_seen, cursor)
            && self.gap_limiter.allow(from, now, CHASE_SPACING)
        {
            self.request_gap_batch(ctx, from, self.highest_seen, cursor);
        }
    }

    /// True when a sighting of `seen` is evidence of missed decisions:
    /// it lies beyond the pipeline window above `cursor`, and `cursor`
    /// itself is not merely awaiting replay below the voting fence (the
    /// rejoin protocol covers that).
    fn behind(&self, seen: u64, cursor: u64) -> bool {
        seen > cursor + self.cfg.pipeline_depth.max(1) - 1 && !self.is_decided(cursor)
    }

    /// Pulls the missing decisions of the window `cursor..cursor +
    /// MAX_GAP_BATCH` (below `seen`) from `from`, lowest first. While the
    /// last request is younger than [`GAP_RETRY`], only the part of the
    /// window above the last requested range's top is asked for: each
    /// reply that moves `cursor` on asks for what it brought into the
    /// window, so each missing decision is asked for once per retry
    /// period however many replies chase the gap, and at most one batch
    /// is outstanding — a busy peer answers within the period. Past it,
    /// the window is asked for again from `cursor`, in case requests or
    /// replies were lost.
    fn request_gap_batch<C: ReplicaCtx>(
        &mut self,
        ctx: &mut C,
        from: ProcessId,
        seen: u64,
        cursor: u64,
    ) {
        let now = ctx.now();
        let (asked_top, asked_at) = self.gap_asked;
        let first = if now.since(asked_at) < GAP_RETRY {
            cursor.max(asked_top)
        } else {
            cursor
        };
        let top = seen.min(cursor + MAX_GAP_BATCH);
        for instance in first..top {
            if !self.is_decided(instance) {
                ctx.bump(self.names.gap_requests, 1);
                ctx.trace_span(self.names.label, instance, "gap_pull", u64::from(from.0));
                self.send(ctx, from, &CatchUp::DecisionRequest { instance });
                self.gap_asked = (top, now);
            }
        }
    }

    /// Broadcasts the rejoin announcement: "my replayed prefix ends at
    /// `watermark`" (a freshly revived process says instance 0).
    fn announce_join<C: ReplicaCtx>(&mut self, ctx: &mut C) {
        self.last_join = ctx.now();
        ctx.bump(self.names.join_requests, 1);
        let watermark = self.replayed.watermark();
        self.broadcast(ctx, &CatchUp::JoinRequest { watermark });
    }

    /// Serves a peer's rejoin announcement. A gap the decision log
    /// still covers is served as a bulk [`CatchUp::StateTransfer`] of
    /// decided values (consecutive from `watermark`, bounded); a gap
    /// whose head was compacted away falls back to a chunked
    /// [`CatchUp::SnapshotTransfer`] — the log there is gone, the
    /// snapshot replaces it.
    ///
    /// With snapshotting disabled (`snapshot_interval == 0`) the old
    /// limit applies: once a run outgrows `decision_cache`, the evicted
    /// prefix is unservable and a joiner advertising instance 0 stalls
    /// (`*.join_unservable` counts this).
    fn serve_join<C: ReplicaCtx>(&self, ctx: &mut C, from: ProcessId, watermark: u64) {
        let frontier = self.replayed.watermark();
        if frontier <= watermark {
            return;
        }
        // The cheap path first: while the decision log still covers the
        // head of the gap, a bulk value transfer beats re-shipping the
        // whole snapshot (the log tail stays `decision_cache` deep).
        let mut values = Vec::new();
        for instance in watermark..frontier.min(watermark + MAX_TRANSFER) {
            match self.decisions.get(&instance) {
                Some(v) => values.push(v.clone()),
                None => break, // evicted: cannot serve a gapless prefix
            }
        }
        if !values.is_empty() {
            ctx.bump(self.names.state_transfers, 1);
            let msg = CatchUp::StateTransfer {
                from: watermark,
                values,
                frontier,
            };
            self.send(ctx, from, &msg);
            return;
        }
        if self
            .snapshot
            .as_ref()
            .is_some_and(|s| watermark <= s.last_included)
        {
            // The gap begins inside the compacted prefix: ship the
            // snapshot (first chunk; the joiner pulls the rest at
            // round-trip pace), then it rejoins the log at
            // `last_included + 1`.
            self.serve_snapshot_chunk(ctx, from, 0);
            return;
        }
        // Not silent: a joiner below our eviction horizon cannot be
        // helped by this process (only possible with snapshots
        // disabled, or for a gap above the snapshot with a hole in the
        // local log).
        ctx.bump(self.names.join_unservable, 1);
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
            self.announce_join(ctx);
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

    /// A reconfiguration was registered and reported: activate `stamp`
    /// (re-point whatever monitors the member set).
    fn config_active(&mut self, ctx: &mut C, stamp: ConfigStamp);

    /// `snap` is being installed: drop the per-instance state it
    /// supersedes and skip delivery past it. Runs before the snapshot's
    /// reconfiguration history is registered. Nothing to do for a host
    /// that keeps no such state beside the core's (whose round state is
    /// already pruned).
    fn snapshot_covers(&mut self, _snap: &Snapshot) {}

    /// The snapshot now serving in [`core`](Self::core) was installed:
    /// tell whoever delivers, and carry on from `last_included + 1`.
    fn snapshot_installed(&mut self, ctx: &mut C);

    /// Learns the decided `values` of instances `first, first+1, …`
    /// through the stack's own decision path (which records each via
    /// [`record_decision`](Self::record_decision)) and delivers what
    /// became deliverable.
    fn learn_decisions(&mut self, ctx: &mut C, first: u64, values: Vec<Batch>);

    /// Answers a decision request with the cached `value`, in the
    /// stack's own full-decision message.
    fn reply_decision(&mut self, ctx: &mut C, to: ProcessId, instance: u64, value: Batch);

    /// Call from the stack's start handler: builds the timeline and, on
    /// a revived process, restores the persisted snapshot first (the
    /// compacted prefix needs no replay), re-registers the persisted
    /// reconfiguration history (it may extend past the snapshot's;
    /// duplicates are no-ops, and re-reporting the stamps re-confirms
    /// the history to the harness), then advertises the replay frontier
    /// — instance 0 without a snapshot — so peers stream the rest back.
    fn start_replica(&mut self, ctx: &mut C) {
        let core = self.core();
        core.timeline_mut(ctx.n());
        if !core.rejoining {
            return;
        }
        if let Some(snap) = core.restored.take() {
            self.install_snapshot(ctx, snap);
        }
        for (d, change) in std::mem::take(&mut self.core().recovered_reconfigs) {
            self.register_reconfig(ctx, d, change);
        }
        self.core().announce_join(ctx);
    }

    /// Records the decision of `instance` in the core: advances the
    /// replay log and the voting fence, caches the value, folds it,
    /// registers reconfigurations it completes, trims the cache to its
    /// bound and cuts a snapshot when one is due (see "Log compaction"
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
        core.fold.absorb(instance, value);
        self.note_reconfigs(ctx, instance, value);
        self.core().maybe_compact(ctx);
        true
    }

    /// Registers the reconfiguration decided at `decided_at`: updates
    /// the timeline, persists the full history atomically with the
    /// enclosing handler, reports the new version's stamp to the harness
    /// (config-aware oracle) and hands it to the stack.
    fn register_reconfig(&mut self, ctx: &mut C, decided_at: u64, change: ConfigChange) {
        let core = self.core();
        #[cfg(debug_assertions)]
        if core.cfg.faults.skip_config_fence {
            // Injected fault (reconfig oracle acceptance suite): the
            // decided change is ignored, so this process keeps voting
            // with the initial configuration's quorum and coordinator
            // math and never reports a config stamp.
            return;
        }
        let timeline = core.timeline_mut(ctx.n());
        let Some(stamp) = timeline.register(decided_at, change) else {
            return; // duplicate (replay / snapshot overlap)
        };
        let history = timeline.reconfigs();
        ctx.persist(keys::CONFIG, encode_with(|w| encode_reconfigs(&history, w)));
        ctx.bump(core.names.reconfigs, 1);
        ctx.trace_span(core.names.label, decided_at, "config_active", stamp.version);
        ctx.note_config(stamp.clone());
        self.config_active(ctx, stamp);
    }

    /// Scans a freshly decided batch for reconfiguration commands, then
    /// registers every pending command the contiguous replayed prefix
    /// now covers — in decided-instance order, so configuration
    /// versions are numbered identically on every process regardless of
    /// the order pipelined decisions landed in.
    fn note_reconfigs(&mut self, ctx: &mut C, instance: u64, value: &Batch) {
        let core = self.core();
        for msg in value.msgs() {
            if let Some(change) = parse_reconfig(&msg.payload) {
                // First command in the batch wins; the submission path
                // spaces reconfigs out so this is the rare tie-break.
                core.pending_reconfigs.entry(instance).or_insert(change);
            }
        }
        loop {
            let core = self.core();
            let Some((&d, &change)) = core.pending_reconfigs.first_key_value() else {
                break;
            };
            if d >= core.replayed.watermark() {
                break; // not contiguous yet: an earlier decision is missing
            }
            core.pending_reconfigs.remove(&d);
            self.register_reconfig(ctx, d, change);
        }
    }

    /// Installs a snapshot: fast-forwards the fold, replay log and
    /// voting fence to `last_included + 1`, drops the state the snapshot
    /// made moot, registers the reconfiguration history it carries (it
    /// replaces scanning the compacted prefix) and adopts it for serving
    /// (which persists the fence with it).
    fn install_snapshot(&mut self, ctx: &mut C, snap: Snapshot) {
        let core = self.core();
        if !core.fold.install(&snap) {
            return; // does not extend past what we already replayed
        }
        let next = snap.last_included + 1;
        core.replayed.advance_to(next);
        core.decided_log.advance_to(next);
        core.recovered_votes = core.recovered_votes.split_off(&next);
        core.pending_reconfigs = core.pending_reconfigs.split_off(&next);
        core.rounds.drop_below(next);
        self.snapshot_covers(&snap);
        for &(d, change) in &snap.reconfigs {
            self.register_reconfig(ctx, d, change);
        }
        let core = self.core();
        core.note_seen(snap.last_included);
        ctx.bump(core.names.snapshots_installed, 1);
        ctx.trace_span(core.names.label, snap.last_included, "snapshot_install", 0);
        core.set_snapshot(ctx, snap, true);
        self.snapshot_installed(ctx);
    }

    /// Receiver side: absorbs one snapshot chunk through the download
    /// state machine, pulling the next at round-trip pace; a completed
    /// download is installed and chased with a `JoinRequest` to the
    /// serving peer for the remaining log tail.
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
        core.note_seen(frontier);
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
                let watermark = core.replayed.watermark();
                core.send(ctx, from, &CatchUp::JoinRequest { watermark });
            }
            ChunkOutcome::Ignored => {}
            ChunkOutcome::Corrupt => ctx.bump(core.names.snapshot_garbage, 1),
        }
    }

    /// Absorbs a bulk state transfer, then keeps pulling from the same
    /// peer at round-trip pace while still behind its frontier.
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
        core.note_seen(frontier);
        self.learn_decisions(ctx, first, values);
        let core = self.core();
        let mine = core.replayed.watermark();
        if mine < core.rejoin_target {
            // Chained catch-up: a short per-peer rate limit keeps one
            // reply burst from re-requesting the same range.
            let now = ctx.now();
            if core.gap_limiter.allow(from, now, CHASE_SPACING) {
                core.last_join = now;
                core.send(ctx, from, &CatchUp::JoinRequest { watermark: mine });
            }
        } else if core.rejoining && mine >= core.decided_log.watermark() {
            // Replay reached both the advertised frontier and our own
            // pre-crash decided fence: rejoin complete.
            core.rejoining = false;
            ctx.bump(core.names.rejoins_completed, 1);
        }
    }

    /// Handles one catch-up message from `from`.
    fn on_catch_up(&mut self, ctx: &mut C, from: ProcessId, msg: CatchUp) {
        match msg {
            CatchUp::DecisionRequest { instance } => {
                let core = self.core();
                if let Some(value) = core.decisions.get(&instance).cloned() {
                    self.reply_decision(ctx, from, instance, value);
                } else if core
                    .snapshot
                    .as_ref()
                    .is_some_and(|s| instance <= s.last_included)
                {
                    // The requested decision was compacted away: no peer
                    // can serve it as a value any more, but the snapshot
                    // covers it. Offer the snapshot so a *live* lagging
                    // process (a healed partition minority — not just a
                    // restarted joiner) can leap past the compaction
                    // horizon instead of stalling. Rate-limited: one
                    // offer answers a whole gap-request batch.
                    let now = ctx.now();
                    if core.offer_limiter.allow(from, now, OFFER_SPACING) {
                        core.serve_snapshot_chunk(ctx, from, 0);
                    }
                }
            }
            CatchUp::JoinRequest { watermark } => self.core().serve_join(ctx, from, watermark),
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
                    // We compacted further since the joiner started; a
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
    use crate::id::RECONFIG_SEQ_BASE;
    use crate::membership::reconfig_payload;
    use crate::message::AppMsg;

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
                RECONFIGS = "t.reconfigs",
                PROPOSALS = "t.proposals",
                ROUND_CHANGES = "t.round_changes",
                CONFIG_FENCE_DROPS = "t.config_fence_drops",
                PROGRESS_ROTATIONS = "t.progress_rotations",
                REQUEST_RETRIES = "t.request_retries",
                TAG_MISSES = "t.tag_misses",
                BOGUS_PROPOSALS = "t.bogus_proposals",
            }
            kinds {
                DECISION_REQUEST = "t.decision_request",
                JOIN_REQUEST = "t.join_request",
                STATE_TRANSFER = "t.state_transfer",
                SNAPSHOT_TRANSFER = "t.snapshot_transfer",
                SNAPSHOT_PULL = "t.snapshot_pull",
            }
        }
    }

    pub(crate) const NAMES: ReplicaNames = ReplicaNames {
        label: "t",
        tags: PerCatchUp {
            decision_request: 1,
            join_request: 2,
            state_transfer: 3,
            snapshot_transfer: 4,
            snapshot_pull: 5,
        },
        kinds: PerCatchUp {
            decision_request: t::DECISION_REQUEST,
            join_request: t::JOIN_REQUEST,
            state_transfer: t::STATE_TRANSFER,
            snapshot_transfer: t::SNAPSHOT_TRANSFER,
            snapshot_pull: t::SNAPSHOT_PULL,
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
        reconfigs: t::RECONFIGS,
        proposals: t::PROPOSALS,
        round_changes: t::ROUND_CHANGES,
        config_fence_drops: t::CONFIG_FENCE_DROPS,
        progress_rotations: t::PROGRESS_ROTATIONS,
        request_retries: t::REQUEST_RETRIES,
        tag_misses: t::TAG_MISSES,
        bogus_proposals: t::BOGUS_PROPOSALS,
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
        pub(crate) now: VTime,
        costs: CostModel,
        pub(crate) store: StableStore,
        pub(crate) writes: Vec<Write>,
        pub(crate) sent: Vec<(Option<ProcessId>, &'static str, CatchUp)>,
        bumps: Counters,
        configs: Vec<ConfigStamp>,
    }

    impl FakeCtx {
        pub(crate) fn new() -> Self {
            FakeCtx {
                pid: ProcessId(0),
                now: VTime::ZERO,
                costs: CostModel::default(),
                store: StableStore::new(),
                writes: Vec::new(),
                sent: Vec::new(),
                bumps: Counters::new(),
                configs: Vec::new(),
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
            3
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
        fn note_config(&mut self, stamp: ConfigStamp) {
            self.configs.push(stamp);
        }
        fn bump(&mut self, metric: Metric, by: u64) {
            self.bumps.bump(metric, by);
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
        activated: Vec<u64>,
        covered: Vec<u64>,
        installed: u32,
    }

    impl FakeHost {
        pub(crate) fn over(core: ReplicaCore) -> Self {
            FakeHost {
                core,
                activated: Vec::new(),
                covered: Vec::new(),
                installed: 0,
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
        fn config_active(&mut self, _: &mut FakeCtx, stamp: ConfigStamp) {
            self.activated.push(stamp.version);
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
        fn reply_decision(&mut self, _: &mut FakeCtx, _: ProcessId, _: u64, _: Batch) {}
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
            CatchUp::DecisionRequest { instance: 6 },
            CatchUp::JoinRequest { watermark: 0 },
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
        ]
    }

    #[test]
    fn catch_up_round_trips_under_any_tag_table() {
        let other = PerCatchUp {
            decision_request: 6,
            join_request: 9,
            state_transfer: 10,
            snapshot_transfer: 11,
            snapshot_pull: 12,
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
        let mut r = WireReader::new(Bytes::from_static(&[0; 16]));
        assert_eq!(
            CatchUp::decode_tagged(99, &NAMES.tags, &mut r),
            Err(WireError::InvalidTag(99))
        );
    }

    #[test]
    fn serve_join_prefers_the_log_then_the_snapshot_then_gives_up() {
        let (mut host, mut ctx) = (FakeHost::fresh(4, 4), FakeCtx::new());
        let joiner = ProcessId(2);

        // The log still covers the whole gap: a bulk value transfer.
        host.decide(&mut ctx, 0..4);
        host.on_catch_up(&mut ctx, joiner, CatchUp::JoinRequest { watermark: 0 });
        let (dst, kind, msg) = ctx.sent.pop().unwrap();
        assert_eq!((dst, kind), (Some(joiner), "t.state_transfer"));
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
        assert!(host.core.decision(0).is_none());
        host.on_catch_up(&mut ctx, joiner, CatchUp::JoinRequest { watermark: 0 });
        let (_, kind, msg) = ctx.sent.pop().unwrap();
        assert_eq!(kind, "t.snapshot_transfer");
        let covers = host.core.snapshot().unwrap().last_included;
        assert!(matches!(
            msg,
            CatchUp::SnapshotTransfer { last_included, offset: 0, frontier: 8, .. }
                if last_included == covers
        ));
        assert_eq!(ctx.bumped("t.snapshot_transfers"), 1);
        // A joiner whose gap starts inside the cached tail gets values,
        // compacted or not.
        assert!(host.core.decision(6).is_some() && covers >= 6);
        host.on_catch_up(&mut ctx, joiner, CatchUp::JoinRequest { watermark: 6 });
        assert_eq!(ctx.sent.pop().unwrap().1, "t.state_transfer");
        // A joiner that is not behind gets nothing.
        host.on_catch_up(&mut ctx, joiner, CatchUp::JoinRequest { watermark: 8 });
        assert!(ctx.sent.is_empty());

        // Without snapshots the evicted head is simply gone.
        let (mut host, mut ctx) = (FakeHost::fresh(2, 0), FakeCtx::new());
        host.decide(&mut ctx, 0..4);
        host.on_catch_up(&mut ctx, joiner, CatchUp::JoinRequest { watermark: 0 });
        assert!(ctx.sent.is_empty());
        assert_eq!(ctx.bumped("t.join_unservable"), 1);
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
                    assert!(host.core.decision(j).is_some(), "{j} dropped after {k}");
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

    /// The decision requests `ctx` sent to `peer` since the last call, in
    /// sending order.
    fn requested(ctx: &mut FakeCtx, peer: ProcessId) -> Vec<u64> {
        let sent = ctx.sent.drain(..);
        sent.map(|(dst, _, msg)| match (dst, msg) {
            (Some(p), CatchUp::DecisionRequest { instance }) if p == peer => instance,
            other => panic!("unexpected {other:?}"),
        })
        .collect()
    }

    /// `peer` answers the `pending` requests and every one they lead
    /// to, one per [`CHASE_SPACING`], lowest first, except that the
    /// reply for `lost` goes missing; `host` chases every reply that
    /// arrives, as the stacks do. Returns every instance asked for,
    /// `pending` first.
    fn serve(
        host: &mut FakeHost,
        ctx: &mut FakeCtx,
        peer: ProcessId,
        pending: Vec<u64>,
        lost: Option<u64>,
    ) -> Vec<u64> {
        let mut outstanding: std::collections::BTreeSet<u64> = pending.iter().copied().collect();
        let mut asked = pending;
        while let Some(k) = outstanding.pop_first() {
            ctx.now += CHASE_SPACING;
            if Some(k) != lost {
                assert!(host.record_decision(ctx, k, &batch(k)));
                let cursor = host.core.decided_watermark();
                host.core.chase_gap(ctx, peer, cursor);
            }
            let more = requested(ctx, peer);
            outstanding.extend(&more);
            asked.extend(more);
        }
        asked
    }

    #[test]
    fn a_lagging_process_asks_for_each_missing_decision_once_per_retry_period() {
        let (mut host, mut ctx) = (FakeHost::fresh(64, 0), FakeCtx::new());
        let (peer, lost) = (ProcessId(1), 20);
        let window = |from: u64, to: u64| (from..to).collect::<Vec<u64>>();

        // Traffic for instance 40 arrives while the fence is at 0.
        host.core.maybe_request_gap(&mut ctx, peer, 40, 0);
        let first = requested(&mut ctx, peer);
        assert_eq!(first, window(0, MAX_GAP_BATCH));
        // Each reply moves the window on by one request; none is asked
        // twice. The fence stalls at the lost reply, and so does the
        // window, one batch above it.
        let asked = serve(&mut host, &mut ctx, peer, first, Some(lost));
        assert_eq!(asked, window(0, lost + MAX_GAP_BATCH));
        assert_eq!(host.core.decided_watermark(), lost);

        // Once a retry period has passed without a request, the next
        // sighting starts over at the fence, where only the lost
        // decision is still missing; its reply lets the rest follow.
        ctx.now += GAP_RETRY;
        host.core.maybe_request_gap(&mut ctx, peer, 40, lost);
        let retry = requested(&mut ctx, peer);
        assert_eq!(retry, [lost]);
        let rest = serve(&mut host, &mut ctx, peer, retry, None);
        assert_eq!(rest[1..], window(lost + MAX_GAP_BATCH, 40));
        assert_eq!(host.core.decided_watermark(), 40);
        assert_eq!(ctx.bumped("t.gap_requests"), 41);
    }

    #[test]
    fn vote_key_ranges_stay_inside_their_namespace() {
        assert_eq!(keys::votes(3..5), keys::vote(3)..keys::vote(5));
        let all = keys::votes(0..u64::MAX);
        assert_eq!(all, keys::VOTE_TAG..keys::WATERMARK);
        assert!(!all.contains(&keys::WATERMARK));
    }

    #[test]
    #[should_panic(expected = "exceeds the reconfiguration offset")]
    fn pipeline_deeper_than_the_reconfig_offset_is_rejected() {
        let cfg = ReplicaConfig {
            pipeline_depth: RECONFIG_OFFSET + 1,
            ..ReplicaConfig::default()
        };
        ReplicaCore::new(cfg, &NAMES);
    }

    /// A store holding one value under every key the core writes: votes
    /// above the fence, the watermark, a snapshot and a reconfiguration.
    fn written_store() -> (FakeHost, StableStore) {
        let (mut host, mut ctx) = (FakeHost::fresh(16, 2), FakeCtx::new());
        let add = AppMsg::new(
            MsgId::new(ProcessId(0), RECONFIG_SEQ_BASE),
            reconfig_payload(ConfigChange::Remove(ProcessId(2))),
        );
        assert!(host.record_decision(&mut ctx, 0, &Batch::normalize(vec![add])));
        host.decide(&mut ctx, 1..4);
        host.core.persist_vote(&mut ctx, 5, 2, 3, &batch(50));
        host.core.persist_vote(&mut ctx, 7, 0, 1, &batch(70));
        host.core.persist_vote(&mut ctx, 9, 1, 2, &shared_batch());
        for key in [keys::WATERMARK, keys::SNAPSHOT, keys::CONFIG, keys::vote(5)] {
            assert!(ctx.store.contains_key(&key), "{key:#x} not written");
        }
        // Framing, the long payload by reference, the short message.
        assert_eq!(ctx.store[&keys::vote(9)].parts().len(), 3);
        assert_eq!(host.activated, vec![1]);
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
        let history = writer.core.timeline.as_ref().unwrap().reconfigs();
        assert_eq!(core.recovered_reconfigs, history);

        // Starting it installs the snapshot, re-activates the persisted
        // configuration once and announces the replay frontier.
        let (mut host, mut ctx) = (FakeHost::over(core), FakeCtx::new());
        host.start_replica(&mut ctx);
        let last_included = writer.core.snapshot.as_ref().unwrap().last_included;
        assert_eq!(host.covered, vec![last_included]);
        assert_eq!((host.installed, &host.activated), (1, &vec![1]));
        assert_eq!(ctx.configs.len(), 1);
        assert_eq!(host.core.members_of(100, 3), [ProcessId(0), ProcessId(1)]);
        let watermark = last_included + 1;
        assert_eq!(
            ctx.sent,
            vec![(None, "t.join_request", CatchUp::JoinRequest { watermark })]
        );
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
            assert_eq!(ctx.sent.last().unwrap().1, "t.join_request");
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
