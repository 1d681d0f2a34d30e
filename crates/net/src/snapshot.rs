//! Log-compaction snapshots for catch-up.
//!
//! Catch-up (one `Pull` answered by a `StateTransfer`, the same protocol
//! on both stacks, for a revived process and a live laggard alike)
//! serves the decided prefix out of a bounded per-process decision
//! cache, so a puller whose missing prefix has been evicted
//! *everywhere* used to stall forever (`*.join_unservable`). The fix — standard in production
//! atomic-broadcast systems (Ring Paxos recovers replicas from
//! checkpointed state; Chop Chop serves joiners from compacted server
//! state) — is to fold the decided prefix into an application-state
//! **snapshot** and serve *that* instead of the evicted log.
//!
//! This module holds the stack-agnostic pieces both implementations
//! share:
//!
//! * [`Snapshot`] — the compacted prefix: the highest folded instance
//!   (`last_included`), the per-sender delivered sets needed to keep
//!   suppressing duplicates of compacted messages, an order-sensitive
//!   digest of the delivered sequence (peers folding the same prefix
//!   produce bit-identical snapshots — the chaos oracle audits this),
//!   and an opaque application state blob.
//! * [`SnapshotFold`] — the deterministic folder: absorbs decided
//!   batches as the contiguous decided prefix grows, replicating the
//!   delivery path's first-occurrence dedup exactly, and materializes /
//!   installs snapshots.
//! * [`AppState`] / [`AppStateFactory`] — the application hook: a state
//!   machine folded forward on every delivered message, encoded into
//!   the snapshot and restored on install (see
//!   `examples/replicated_kv.rs` for the flagship use).
//! * [`SnapshotStamp`] — what a process reports to the harness when it
//!   makes or installs a snapshot (feeds the recovery-aware oracle).
//!
//! # The digest
//!
//! Every process advances the digest over every message it folds,
//! whether or not a snapshot is ever cut, so it sits on the delivery
//! path of both stacks. It reads the payload *bytes*, not just ids and
//! lengths, because it is the only place a replica's idea of what was
//! delivered is compared with its peers': the oracle's
//! `SnapshotDivergence` check and a joiner's integrity check across
//! snapshot chunks both rest on two folds of the same `(id, payload)`
//! sequence agreeing bit for bit and two different sequences not. It is
//! not a defence against an adversary.
//!
//! It is taken in two steps. `payload_digest` reads one payload — a
//! 64-bit word at a time in four independent lanes (one multiply per
//! eight bytes, four of them in flight, where a byte-serial hash waits
//! out one multiply per byte), with explicit little-endian loads —
//! seeded by its length and by nothing the process has folded. A small
//! combine step then mixes the running digest, the message id, the
//! length and that payload digest. Both are pure functions of their
//! inputs on every host.
//!
//! Because the first step does not depend on the running digest, its
//! value is the same at every process, and every process of a run holds
//! a payload of [`SHARE_MIN`] bytes or more as the very buffer that was
//! submitted (the wire passes such byte strings by reference). The
//! cluster's [`PayloadDigests`] keeps the digest of each payload of
//! 4 KiB or more until all `n` processes have read it, so such a payload
//! is hashed once per run rather than once per process. It answers only a caller holding the same
//! buffer — same data pointer and length — and holds a clone of that
//! buffer meanwhile, so the address cannot pass to another payload: the
//! same buffer is the same bytes. A copy, or another payload under a
//! reused id, is hashed from its own bytes. Each process still folds
//! every message it delivers, so the digest checks lose nothing; the
//! model charges nothing for a fold, so only host time moves.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::ops::Range;
use std::rc::Rc;

use bytes::Bytes;

use crate::id::{MsgId, ProcessId};
use crate::message::{AppMsg, Batch};
use crate::watermark::DeliveredSet;
use crate::wire::{Wire, WireError, WireReader, WireWriter, SHARE_MIN};
use fortika_sim::{VDur, VTime};

/// Application state machine folded forward by snapshotting stacks.
///
/// Implementations must be deterministic: two replicas applying the same
/// delivered sequence must produce byte-identical [`encode`] output,
/// because the encoded state ships inside snapshots that the digest
/// check expects to agree across peers.
///
/// [`encode`]: AppState::encode
pub trait AppState {
    /// Folds one delivered message into the state (called in delivery
    /// order, exactly once per delivered message).
    fn apply(&mut self, msg: &AppMsg);
    /// Encodes the current state for inclusion in a snapshot.
    fn encode(&self) -> Bytes;
    /// Replaces the state with a decoded snapshot blob.
    fn restore(&mut self, state: &Bytes);
}

/// Cloneable constructor of per-process [`AppState`] machines, carried
/// inside stack configuration (each process folds its own instance).
#[derive(Clone)]
pub struct AppStateFactory(Rc<dyn Fn() -> Box<dyn AppState>>);

impl AppStateFactory {
    /// Wraps a constructor closure.
    pub fn new(f: impl Fn() -> Box<dyn AppState> + 'static) -> Self {
        AppStateFactory(Rc::new(f))
    }

    /// Builds one fresh state machine.
    pub fn make(&self) -> Box<dyn AppState> {
        (self.0)()
    }
}

impl fmt::Debug for AppStateFactory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("AppStateFactory(..)")
    }
}

/// Per-sender delivered set inside a [`Snapshot`] (watermark plus the
/// runs of completions above it — the wire form of a
/// [`WatermarkSet`](crate::watermark::WatermarkSet)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SenderLog {
    /// The sender these sequence numbers belong to.
    pub sender: ProcessId,
    /// Every sequence number below this was delivered.
    pub watermark: u64,
    /// Runs of delivered sequence numbers above the watermark,
    /// half-open and ascending: one per hole in the sender's sequence,
    /// however many messages follow it.
    pub above: Vec<Range<u64>>,
}

impl Wire for SenderLog {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u16(self.sender.0);
        w.put_u64(self.watermark);
        self.above.encode(w);
    }
    fn decode(r: &mut WireReader) -> Result<Self, WireError> {
        Ok(SenderLog {
            sender: ProcessId(r.get_u16()?),
            watermark: r.get_u64()?,
            above: Vec::<Range<u64>>::decode(r)?,
        })
    }
}

/// The compacted decided prefix of instances `0..=last_included`.
///
/// A snapshot is a pure function of the decided batch sequence, so every
/// process folding the same prefix produces a byte-identical snapshot —
/// which is what lets *any* peer serve it and lets the oracle audit
/// agreement on [`digest`](Snapshot::digest).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// Highest consensus instance folded into this snapshot.
    pub last_included: u64,
    /// Messages delivered over instances `0..=last_included` (the
    /// joiner's position in the common delivery order after install).
    pub delivered_count: u64,
    /// Order-sensitive digest of the delivered `(id, payload)` sequence.
    pub digest: u64,
    /// Per-sender delivered sets: the duplicate-suppression state a
    /// joiner needs so compacted messages are never re-delivered.
    pub delivered: Vec<SenderLog>,
    /// Opaque application state produced by the [`AppState`] hook
    /// (empty without one).
    pub app_state: Bytes,
}

impl Wire for Snapshot {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u64(self.last_included);
        w.put_u64(self.delivered_count);
        w.put_u64(self.digest);
        self.delivered.encode(w);
        self.app_state.encode(w);
    }
    fn decode(r: &mut WireReader) -> Result<Self, WireError> {
        Ok(Snapshot {
            last_included: r.get_u64()?,
            delivered_count: r.get_u64()?,
            digest: r.get_u64()?,
            delivered: Vec::<SenderLog>::decode(r)?,
            app_state: Bytes::decode(r)?,
        })
    }
}

/// What a process reports to the harness when it materializes
/// (`installed == false`) or installs (`installed == true`) a snapshot.
///
/// The recovery-aware oracle consumes these: installs mark where a
/// revived process's delivery log resumes in the common order, and all
/// stamps for the same `last_included` must agree on digest and count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotStamp {
    /// Highest instance covered.
    pub last_included: u64,
    /// Messages delivered over the covered prefix.
    pub delivered_count: u64,
    /// Digest of the covered delivery sequence.
    pub digest: u64,
    /// True when the process *installed* this snapshot (skipping replay
    /// of the covered prefix); false when it folded it locally.
    pub installed: bool,
    /// The snapshot's application state (lets harness-side application
    /// mirrors restore themselves on install).
    pub app_state: Bytes,
}

/// Digest before any message is folded.
const DIGEST_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// One odd multiplier per lane (the 64-bit xxHash primes), plus the one
/// that joins the lanes.
const LANE_MUL: [u64; 4] = [
    0x9e37_79b1_85eb_ca87,
    0xc2b2_ae3d_27d4_eb4f,
    0x1656_67b1_9e37_79f9,
    0x85eb_ca77_c2b2_ae63,
];
const JOIN_MUL: u64 = 0x27d4_eb2f_1656_67c5;

/// Absorbs one 64-bit word. Xor, multiplication by an odd constant and
/// rotation are each invertible, so for a fixed `acc` two different
/// words never give the same result — and neither do two different
/// `acc` for a fixed word. The rotation carries the high bits, which a
/// multiplication only ever pushes upward, back to the bottom.
#[inline]
fn mix(acc: u64, word: u64, mul: u64) -> u64 {
    (acc ^ word).wrapping_mul(mul).rotate_left(29)
}

/// Up to eight bytes as a little-endian word, zero-extended.
#[inline]
fn le_word(bytes: &[u8]) -> u64 {
    let mut word = [0u8; 8];
    word[..bytes.len()].copy_from_slice(bytes);
    u64::from_le_bytes(word)
}

/// The digest of one payload alone: a function of its length and every
/// byte, and of nothing else (words are read with explicit
/// `from_le_bytes`, all arithmetic wraps), so it is the same on every
/// host and for every process that holds the payload.
///
/// The payload is read once, 32 bytes a step: four 8-byte words go into
/// four lanes that do not depend on each other, so the multiplies of a
/// step overlap instead of queueing behind one another as they do in a
/// byte-at-a-time hash. The length seeds the lanes — it is what tells a
/// zero-padded tail from real zero bytes. Changing payload bits within
/// one word changes exactly one lane ([`mix`] is invertible), and the
/// join is invertible in each lane, so such a change always shows.
fn payload_digest(payload: &[u8]) -> u64 {
    let head = mix(DIGEST_SEED, payload.len() as u64, LANE_MUL[2]);
    let mut lanes = LANE_MUL.map(|m| head ^ m);
    let (stripes, tail) = payload.as_chunks::<32>();
    for stripe in stripes {
        let (words, _) = stripe.as_chunks::<8>();
        for i in 0..4 {
            lanes[i] = mix(lanes[i], u64::from_le_bytes(words[i]), LANE_MUL[i]);
        }
    }
    // Fewer than 32 bytes are left: at most four words, the last one
    // possibly short.
    for (i, word) in tail.chunks(8).enumerate() {
        lanes[i] = mix(lanes[i], le_word(word), LANE_MUL[i]);
    }
    let joined = lanes
        .iter()
        .fold(head, |acc, &lane| mix(acc, lane, JOIN_MUL));
    joined ^ (joined >> 32)
}

/// The digest `h` advanced over one delivered message whose payload
/// digests to `payload` ([`payload_digest`]): each step is invertible in
/// the value it absorbs, so a different id, length or payload digest
/// always gives a different result, and the chain through `h` makes the
/// digest order-sensitive. The length is mixed here as well as in the
/// payload digest: it is what tells `"ab","c"` from `"a","bc"`.
fn combine(h: u64, id: MsgId, len: usize, payload: u64) -> u64 {
    let h = mix(h, u64::from(id.sender.0), LANE_MUL[0]);
    let h = mix(h, id.seq, LANE_MUL[1]);
    let h = mix(h, len as u64, LANE_MUL[2]);
    let h = mix(h, payload, JOIN_MUL);
    h ^ (h >> 32)
}

/// How many payloads a [`PayloadDigests`] holds at most: past it, the
/// oldest entry goes first, so a process that never reads (crashed,
/// partitioned, lagging) pins at most this many payloads, 1 MiB at
/// 16 KiB each, and a miss compares at most this many ids. On the
/// benchmark's 16 KiB workloads (seed 7) the last reader of a payload
/// came at most 18 insertions after its first.
const SHARED_DIGESTS: usize = 64;

/// The shortest payload a [`PayloadDigests`] enters. Below
/// [`SHARE_MIN`] the wire copies a payload, so no two processes hold the
/// same buffer. Up to 4 KiB an entry is not worth its keep: hashing
/// 1 KiB costs a process about 65–85 ns, and an entry's bookkeeping
/// about 45 ns per message — more while a silent process keeps the
/// table full, since then every first reader compares all 64 ids. With
/// 1 KiB payloads entered, `mono-crash-1k` ran slower in 9 of 10
/// benchmark pairs.
const SHARED_DIGEST_MIN: usize = 4 * 1024;
const _: () = assert!(SHARED_DIGEST_MIN >= SHARE_MIN);

/// The cluster's table of payload digests, so that a payload every
/// process holds by reference is hashed once per run, not once per
/// process.
///
/// An entry is keyed by [`MsgId`] and holds the payload's [`Bytes`]
/// clone, which pins its allocation: while the entry lives no other
/// payload can be given that address. So a caller holding the same
/// buffer (same data pointer, same length) holds the same bytes, and
/// only such a caller is answered from the entry. A copy, or a
/// different payload under a reused id — the stale-incarnation case the
/// digest exists to catch — is hashed from its own bytes. Payloads
/// shorter than 4 KiB are never entered: below [`SHARE_MIN`] the wire
/// copies them, and up to 4 KiB an entry costs about what hashing them
/// saves. An entry goes once all `n` processes have read it, or, oldest
/// first, once 64 newer ones are held, so a process that never reads
/// pins little for long.
///
/// Free in the model: only the host's time moves.
pub struct PayloadDigests {
    /// Readers an entry waits for (the cluster size).
    n: usize,
    /// Oldest first. The other processes read a payload soon after its
    /// first reader entered it, so lookups scan from the newest end.
    entries: VecDeque<SharedDigest>,
}

/// One payload's digest with the buffer it was read from.
struct SharedDigest {
    id: MsgId,
    payload: Bytes,
    digest: u64,
    /// Processes that read it so far, its inserter included.
    reads: usize,
}

impl PayloadDigests {
    /// An empty table for a cluster of `n` processes, its room for all
    /// 64 entries taken now so that it never regrows mid-run. On
    /// `modular-sat-16k-n7` (seed 31, 10 runs each) a table grown as
    /// needed read 0.26 MiB more peak RSS than this one.
    pub fn new(n: usize) -> Self {
        let room = if n > 1 { SHARED_DIGESTS } else { 0 };
        PayloadDigests {
            n,
            entries: VecDeque::with_capacity(room),
        }
    }

    /// The digest of `msg`'s payload alone (the first of the snapshot
    /// digest's two steps, see the [module docs](self)): from the table
    /// when it holds this very buffer under `msg.id`, else hashed from
    /// the bytes (and entered, for the other processes to read, if the
    /// payload is 4 KiB or more).
    pub fn of(&mut self, msg: &AppMsg) -> u64 {
        let payload = &msg.payload;
        if payload.len() < SHARED_DIGEST_MIN {
            return payload_digest(payload);
        }
        if let Some(at) = self.entries.iter().rposition(|e| e.id == msg.id) {
            let entry = &mut self.entries[at];
            if entry.payload.as_ptr() != payload.as_ptr() || entry.payload.len() != payload.len() {
                return payload_digest(payload);
            }
            let digest = entry.digest;
            entry.reads += 1;
            if entry.reads >= self.n {
                self.entries.remove(at);
            }
            return digest;
        }
        let digest = payload_digest(payload);
        if self.n > 1 {
            if self.entries.len() == SHARED_DIGESTS {
                self.entries.pop_front();
            }
            self.entries.push_back(SharedDigest {
                id: msg.id,
                payload: payload.clone(),
                digest,
                reads: 1,
            });
        }
        digest
    }
}

/// Deterministic folder of the decided prefix.
///
/// Absorbs decided `(instance, batch)` pairs in any order, folds the
/// contiguous prefix in instance order, and replicates the delivery
/// path's semantics bit for bit: within the fold, a message counts (and
/// feeds the digest / [`AppState`]) only on its first occurrence.
pub struct SnapshotFold {
    /// Next instance to fold (everything below is folded).
    next: u64,
    /// Decided batches that arrived ahead of the contiguous frontier.
    buffered: BTreeMap<u64, Batch>,
    delivered: DeliveredSet,
    delivered_count: u64,
    digest: u64,
    app: Option<Box<dyn AppState>>,
}

impl SnapshotFold {
    /// A fresh fold at instance 0, with an optional application hook.
    pub fn new(app: Option<Box<dyn AppState>>) -> Self {
        SnapshotFold {
            next: 0,
            buffered: BTreeMap::new(),
            delivered: DeliveredSet::default(),
            delivered_count: 0,
            digest: DIGEST_SEED,
            app,
        }
    }

    /// The contiguous fold frontier: every instance below is folded.
    pub fn next_instance(&self) -> u64 {
        self.next
    }

    /// Messages folded so far.
    pub fn delivered_count(&self) -> u64 {
        self.delivered_count
    }

    /// Running digest of the folded delivery sequence.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// True if `id` was delivered within the folded prefix.
    pub fn is_delivered(&self, id: MsgId) -> bool {
        !self.delivered.is_new(id)
    }

    /// Absorbs the decision of `instance`, folding forward as far as the
    /// contiguous prefix allows, for a fold that no other process shares
    /// payloads with: [`absorb_in`](Self::absorb_in) with a table of its
    /// own.
    pub fn absorb(&mut self, instance: u64, batch: &Batch) {
        self.absorb_in(instance, batch, &mut PayloadDigests::new(1));
    }

    /// Absorbs the decision of `instance`, folding forward as far as the
    /// contiguous prefix allows, reading payload digests through
    /// `digests`. The next instance in line — every decision of a
    /// fault-free run — is folded from the caller's batch as it stands;
    /// only a decision ahead of the frontier is copied and kept until
    /// the frontier reaches it.
    pub fn absorb_in(&mut self, instance: u64, batch: &Batch, digests: &mut PayloadDigests) {
        if instance == self.next {
            self.fold(batch, digests);
            self.drain(digests);
        } else if instance > self.next {
            self.buffered
                .entry(instance)
                .or_insert_with(|| batch.clone());
        }
    }

    /// Folds every buffered decision the frontier has reached.
    fn drain(&mut self, digests: &mut PayloadDigests) {
        while let Some(batch) = self.buffered.remove(&self.next) {
            self.fold(&batch, digests);
        }
    }

    /// Folds `batch` as the decision of instance `next`.
    fn fold(&mut self, batch: &Batch, digests: &mut PayloadDigests) {
        for msg in batch.msgs() {
            if !self.delivered.is_new(msg.id) {
                continue; // delivered by an earlier instance
            }
            self.delivered.mark(msg.id);
            self.delivered_count += 1;
            let payload = digests.of(msg);
            self.digest = combine(self.digest, msg.id, msg.payload.len(), payload);
            if let Some(app) = &mut self.app {
                app.apply(msg);
            }
        }
        self.next += 1;
    }

    /// Materializes the fold as a snapshot covering `0..next_instance`
    /// (`None` while nothing has been folded).
    pub fn snapshot(&self) -> Option<Snapshot> {
        if self.next == 0 {
            return None;
        }
        Some(Snapshot {
            last_included: self.next - 1,
            delivered_count: self.delivered_count,
            digest: self.digest,
            delivered: self.delivered.to_logs(),
            app_state: self.app.as_ref().map(|a| a.encode()).unwrap_or_default(),
        })
    }

    /// Replaces the fold with a received snapshot (rejoin catch-up).
    /// Returns false — and leaves the fold untouched — when the snapshot
    /// does not extend past the local fold frontier. Decisions buffered
    /// past the snapshot are folded through `digests`.
    pub fn install(&mut self, snap: &Snapshot, digests: &mut PayloadDigests) -> bool {
        if snap.last_included < self.next {
            return false;
        }
        self.next = snap.last_included + 1;
        self.delivered = DeliveredSet::default();
        for log in &snap.delivered {
            self.delivered.seed(log);
        }
        self.delivered_count = snap.delivered_count;
        self.digest = snap.digest;
        if let Some(app) = &mut self.app {
            app.restore(&snap.app_state);
        }
        // Drop covered buffers, then keep folding past the snapshot with
        // whatever contiguous decisions were already buffered.
        self.buffered = self.buffered.split_off(&self.next);
        self.drain(digests);
        true
    }
}

/// Stamp for a materialized [`Snapshot`] (avoids re-encoding the app
/// state when the snapshot is already at hand).
pub fn stamp_of(snap: &Snapshot, installed: bool) -> SnapshotStamp {
    SnapshotStamp {
        last_included: snap.last_included,
        delivered_count: snap.delivered_count,
        digest: snap.digest,
        installed,
        app_state: snap.app_state.clone(),
    }
}

/// Bytes per snapshot-transfer chunk (shared by both stacks).
pub const SNAPSHOT_CHUNK: usize = 4096;

/// The `(total, chunk)` pair for one transfer message: the slice of the
/// encoded snapshot starting at `offset`, or `None` when the offset is
/// out of range.
pub fn chunk_of(encoded: &Bytes, offset: u32) -> Option<(u32, Bytes)> {
    let total = encoded.len() as u32;
    if offset >= total {
        return None;
    }
    let end = (offset as usize + SNAPSHOT_CHUNK).min(total as usize);
    Some((total, encoded.slice(offset as usize..end)))
}

/// What a receiver should do with an absorbed snapshot chunk.
#[derive(Debug)]
pub enum ChunkOutcome {
    /// Mid-download: pull the chunk at this offset from the serving
    /// peer.
    Pull(u32),
    /// Download complete and verified: install this snapshot.
    Complete(Box<Snapshot>),
    /// Chunk ignored (stale offer, foreign peer, duplicate, reorder).
    Ignored,
    /// A completed download failed to decode or contradicted its
    /// header — discard and let the retry path start over.
    Corrupt,
}

/// Joiner-side reassembly of a chunked snapshot download — the state
/// machine both stacks share: one in-flight download bound to a single
/// serving peer, superseded only by a strictly newer snapshot or after
/// stalling for `stale_after` (lost chunk or pull).
#[derive(Default)]
pub struct SnapshotDownload {
    rx: Option<Rx>,
}

struct Rx {
    peer: ProcessId,
    last_included: u64,
    digest: u64,
    total: u32,
    buf: Vec<u8>,
    last_activity: VTime,
}

impl SnapshotDownload {
    /// True while a download is making progress (received a chunk less
    /// than `stale_after` ago) — used to suppress competing rejoin
    /// announcements.
    pub fn in_progress(&self, now: VTime, stale_after: VDur) -> bool {
        self.rx
            .as_ref()
            .is_some_and(|rx| now.since(rx.last_activity) < stale_after)
    }

    /// Absorbs one chunk. `already_past` tells the download that the
    /// local fold has moved beyond the offered snapshot (stale offers
    /// are dropped without touching an in-flight download).
    #[allow(clippy::too_many_arguments)]
    pub fn absorb(
        &mut self,
        from: ProcessId,
        last_included: u64,
        digest: u64,
        total: u32,
        offset: u32,
        chunk: &Bytes,
        now: VTime,
        stale_after: VDur,
        already_past: bool,
    ) -> ChunkOutcome {
        if already_past {
            return ChunkOutcome::Ignored;
        }
        let start_new = match &self.rx {
            None => offset == 0,
            // Switch downloads only for a strictly newer snapshot, or
            // when the current one stalled.
            Some(rx) => {
                offset == 0
                    && (last_included > rx.last_included
                        || now.since(rx.last_activity) >= stale_after)
            }
        };
        if start_new {
            self.rx = Some(Rx {
                peer: from,
                last_included,
                digest,
                total,
                buf: Vec::with_capacity(total as usize),
                last_activity: now,
            });
        }
        let Some(rx) = &mut self.rx else {
            return ChunkOutcome::Ignored;
        };
        if rx.peer != from
            || rx.last_included != last_included
            || rx.digest != digest
            || rx.total != total
            || offset as usize != rx.buf.len()
        {
            return ChunkOutcome::Ignored; // duplicate, reordered or foreign
        }
        rx.buf.extend_from_slice(chunk);
        rx.last_activity = now;
        if (rx.buf.len() as u32) < rx.total {
            return ChunkOutcome::Pull(rx.buf.len() as u32);
        }
        let buf = self.rx.take().expect("download in progress").buf;
        match crate::wire::decode::<Snapshot>(Bytes::from(buf)) {
            Ok(snap) if snap.digest == digest && snap.last_included == last_included => {
                ChunkOutcome::Complete(Box::new(snap))
            }
            _ => ChunkOutcome::Corrupt,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{decode, encode};

    fn msg(sender: u16, seq: u64, body: &[u8]) -> AppMsg {
        AppMsg::new(
            MsgId::new(ProcessId(sender), seq),
            Bytes::from(body.to_vec()),
        )
    }

    #[test]
    fn fold_is_order_insensitive_in_absorption_but_folds_in_order() {
        let batches = [
            Batch::normalize(vec![msg(0, 0, b"a")]),
            Batch::normalize(vec![msg(1, 0, b"b")]),
            Batch::normalize(vec![msg(0, 1, b"c")]),
        ];
        let mut in_order = SnapshotFold::new(None);
        for (i, b) in batches.iter().enumerate() {
            in_order.absorb(i as u64, b);
        }
        let mut shuffled = SnapshotFold::new(None);
        shuffled.absorb(2, &batches[2]);
        shuffled.absorb(0, &batches[0]);
        shuffled.absorb(1, &batches[1]);
        assert_eq!(in_order.next_instance(), 3);
        assert_eq!(shuffled.next_instance(), 3);
        assert_eq!(in_order.digest(), shuffled.digest());
        assert_eq!(in_order.delivered_count(), 3);
    }

    /// 64 decisions absorbed in order (each folded from the caller's
    /// batch), reversed (all but the last buffered) and shuffled with
    /// repeats of buffered, of just-folded and of long-folded
    /// instances mixed in: one fold.
    #[test]
    fn absorption_order_and_repeats_do_not_change_the_fold() {
        use fortika_sim::DetRng;

        // Two messages per decision; every fifth decision repeats a
        // message an earlier one delivered.
        let batches: Vec<Batch> = (0..64u64)
            .map(|i| {
                let second = if i % 5 == 4 {
                    msg(0, i - 3, b"first")
                } else {
                    msg(1, i, &i.to_le_bytes())
                };
                Batch::normalize(vec![msg(0, i, b"first"), second])
            })
            .collect();
        let folded = |order: &[u64]| {
            let mut fold = SnapshotFold::new(None);
            for &i in order {
                fold.absorb(i, &batches[i as usize]);
            }
            assert_eq!(fold.next_instance(), 64);
            assert!(fold.buffered.is_empty());
            (
                fold.snapshot().expect("folded something"),
                fold.digest(),
                fold.delivered_count(),
            )
        };
        let in_order: Vec<u64> = (0..64).collect();
        let expected = folded(&in_order);
        assert_eq!(expected.2, 2 * 64 - 12);

        let reversed: Vec<u64> = (0..64).rev().collect();
        assert_eq!(folded(&reversed), expected);

        for seed in 0..20 {
            let mut rng = DetRng::seed(seed);
            let mut order = in_order.clone();
            for i in (1..order.len()).rev() {
                order.swap(i, rng.below(i as u64 + 1) as usize);
            }
            // Every third position absorbs some instance a second time,
            // wherever it happens to stand by then.
            for at in (0..order.len()).rev().step_by(3) {
                order.insert(at, rng.below(64));
            }
            assert_eq!(folded(&order), expected, "seed {seed}");
        }
    }

    #[test]
    fn fold_dedups_first_occurrence_like_delivery() {
        // The same message decided in two instances counts once.
        let b = Batch::normalize(vec![msg(0, 0, b"x")]);
        let mut fold = SnapshotFold::new(None);
        fold.absorb(0, &b);
        let digest_once = fold.digest();
        fold.absorb(1, &b);
        assert_eq!(fold.delivered_count(), 1);
        assert_eq!(fold.digest(), digest_once, "duplicate must not re-fold");
        assert!(fold.is_delivered(MsgId::new(ProcessId(0), 0)));
    }

    #[test]
    fn digest_is_order_sensitive() {
        let a = msg(0, 0, b"a");
        let b = msg(1, 0, b"b");
        let mut ab = SnapshotFold::new(None);
        ab.absorb(0, &Batch::normalize(vec![a.clone()]));
        ab.absorb(1, &Batch::normalize(vec![b.clone()]));
        let mut ba = SnapshotFold::new(None);
        ba.absorb(0, &Batch::normalize(vec![b]));
        ba.absorb(1, &Batch::normalize(vec![a]));
        assert_ne!(ab.digest(), ba.digest());
    }

    /// Digest of `msgs` folded one per instance, in the given order.
    fn digest_of(msgs: &[AppMsg]) -> u64 {
        let mut fold = SnapshotFold::new(None);
        for (i, m) in msgs.iter().enumerate() {
            fold.absorb(i as u64, &Batch::normalize(vec![m.clone()]));
        }
        assert_eq!(fold.delivered_count(), msgs.len() as u64);
        fold.digest()
    }

    #[test]
    fn digest_sees_every_payload_bit() {
        // Every length from empty through one stripe plus a full tail,
        // then the sizes the benchmark runs at: flipping one bit of the
        // first, middle or last byte changes the digest, and so does
        // every bit of every tail byte.
        for len in (0..=72usize).chain([1024, 16 * 1024, 16 * 1024 + 13]) {
            let body: Vec<u8> = (0..len).map(|i| (i * 31 + 7) as u8).collect();
            let base = digest_of(&[msg(2, 9, &body)]);
            let tail_start = len - len % 32;
            let probes = [0, len / 2, len.saturating_sub(1)]
                .into_iter()
                .chain(tail_start..len)
                .filter(|&i| i < len);
            for i in probes {
                for bit in 0..8 {
                    let mut flipped = body.clone();
                    flipped[i] ^= 1 << bit;
                    assert_ne!(
                        digest_of(&[msg(2, 9, &flipped)]),
                        base,
                        "len {len}: bit {bit} of byte {i} does not reach the digest"
                    );
                }
            }
            // A zero-padded tail is not the same message as real zeros.
            let mut longer = body.clone();
            longer.push(0);
            assert_ne!(digest_of(&[msg(2, 9, &longer)]), base, "len {len} + 0x00");
        }
    }

    #[test]
    fn digest_sees_ids_order_and_message_boundaries() {
        let a = msg(0, 0, b"left");
        let b = msg(0, 1, b"right");
        assert_ne!(
            digest_of(&[a.clone(), b.clone()]),
            digest_of(&[b, a.clone()])
        );
        // The same payload under another sender or sequence number.
        assert_ne!(digest_of(&[a]), digest_of(&[msg(1, 0, b"left")]));
        assert_ne!(digest_of(&[msg(0, 0, b"x")]), digest_of(&[msg(0, 1, b"x")]));
        // The same byte stream cut at a different message boundary.
        assert_ne!(
            digest_of(&[msg(0, 0, b"ab"), msg(0, 1, b"c")]),
            digest_of(&[msg(0, 0, b"a"), msg(0, 1, b"bc")]),
        );
        // Empty payloads still advance the digest, each by its own id.
        let one = digest_of(&[msg(0, 0, b"")]);
        let two = digest_of(&[msg(0, 0, b""), msg(0, 1, b"")]);
        assert_ne!(one, DIGEST_SEED);
        assert_ne!(two, one);
    }

    #[test]
    fn digest_is_pinned_across_platforms() {
        // Explicit little-endian reads and wrapping arithmetic: these
        // literals hold on every host, and a change to the digest must
        // change them deliberately (peers compare digests on the wire).
        let stripe_and_tail: Vec<u8> = (0u8..45).collect();
        let msgs = [
            msg(0, 0, b""),
            msg(3, 1 << 40, b"fortika"),
            msg(0x7FFF, (1 << 62) - 1, &stripe_and_tail),
        ];
        assert_eq!(payload_digest(&stripe_and_tail), 0x6c35_0416_803a_9989);
        assert_eq!(digest_of(&msgs[..1]), 0x6b89_1274_1b31_c3bd);
        assert_eq!(digest_of(&msgs[..2]), 0xb185_ffcc_c6e2_765c);
        assert_eq!(digest_of(&msgs), 0x6516_959f_2c5a_ec95);
    }

    /// A payload long enough to be entered.
    fn shared(sender: u16, seq: u64, fill: u8) -> AppMsg {
        msg(sender, seq, &[fill; SHARED_DIGEST_MIN])
    }

    /// The digest of one fold of `m` as instance 0, through `digests`.
    fn folded_in(digests: &mut PayloadDigests, m: &AppMsg) -> u64 {
        let mut fold = SnapshotFold::new(None);
        fold.absorb_in(0, &Batch::normalize(vec![m.clone()]), digests);
        fold.digest()
    }

    #[test]
    fn the_table_answers_only_the_buffer_it_holds() {
        let mut digests = PayloadDigests::new(3);
        let first = shared(1, 4, 0xA0);
        let expected = folded_in(&mut digests, &first);
        assert_eq!(digests.entries.len(), 1);
        // Another payload under the same id, in another buffer: the
        // stale-incarnation case. Hashed from its own bytes.
        let reused = shared(1, 4, 0xA1);
        assert_ne!(folded_in(&mut digests, &reused), expected);
        assert_eq!(digests.entries.len(), 1, "the first payload stays");
        // Equal bytes in another buffer: hashed, and the same digest.
        let copy = shared(1, 4, 0xA0);
        assert_ne!(copy.payload.as_ptr(), first.payload.as_ptr());
        assert_eq!(folded_in(&mut digests, &copy), expected);
        // The table answers as the bytes would.
        assert_eq!(digests.of(&first), payload_digest(&first.payload));
        assert_eq!(digest_of(std::slice::from_ref(&first)), expected);
    }

    #[test]
    fn an_entry_goes_after_n_reads_and_the_table_stays_bounded() {
        let n = 3;
        let mut digests = PayloadDigests::new(n);
        let m = shared(0, 0, 7);
        for read in 1..=n {
            folded_in(&mut digests, &m);
            assert_eq!(digests.entries.len(), usize::from(read < n), "read {read}");
        }
        // Shorter payloads are never entered.
        folded_in(&mut digests, &msg(0, 1, &[7; SHARED_DIGEST_MIN - 1]));
        assert!(digests.entries.is_empty());

        // Two of three processes read every payload; the third never
        // does, and pins no more than the bound.
        let msgs: Vec<AppMsg> = (0..2 * SHARED_DIGESTS as u64)
            .map(|seq| shared(2, seq, seq as u8))
            .collect();
        let mut folds = [SnapshotFold::new(None), SnapshotFold::new(None)];
        for (i, m) in msgs.iter().enumerate() {
            let batch = Batch::normalize(vec![m.clone()]);
            for fold in &mut folds {
                fold.absorb_in(i as u64, &batch, &mut digests);
                assert!(digests.entries.len() <= SHARED_DIGESTS);
            }
        }
        assert_eq!(digests.entries.len(), SHARED_DIGESTS);
        assert_eq!(folds[0].digest(), folds[1].digest());
        assert_eq!(folds[0].digest(), digest_of(&msgs));
    }

    #[test]
    fn snapshot_round_trips_and_installs() {
        let mut fold = SnapshotFold::new(None);
        fold.absorb(0, &Batch::normalize(vec![msg(0, 0, b"a"), msg(1, 0, b"b")]));
        fold.absorb(1, &Batch::normalize(vec![msg(0, 2, b"gap")]));
        let snap = fold.snapshot().expect("two instances folded");
        assert_eq!(snap.last_included, 1);
        assert_eq!(snap.delivered_count, 3);
        let bytes = encode(&snap);
        let back: Snapshot = decode(bytes).unwrap();
        assert_eq!(back, snap);

        let mut joiner = SnapshotFold::new(None);
        assert!(joiner.install(&back, &mut PayloadDigests::new(1)));
        assert_eq!(joiner.next_instance(), 2);
        assert_eq!(joiner.digest(), fold.digest());
        assert!(joiner.is_delivered(MsgId::new(ProcessId(0), 2)));
        assert!(!joiner.is_delivered(MsgId::new(ProcessId(0), 1)), "gap");
        // A stale snapshot does not regress the fold.
        assert!(!joiner.install(&back, &mut PayloadDigests::new(1)));
    }

    #[test]
    fn install_continues_with_buffered_tail() {
        let mut fold = SnapshotFold::new(None);
        let tail = Batch::normalize(vec![msg(2, 0, b"tail")]);
        fold.absorb(2, &tail); // ahead of the frontier: buffered
        assert_eq!(fold.next_instance(), 0);
        let mut donor = SnapshotFold::new(None);
        donor.absorb(0, &Batch::normalize(vec![msg(0, 0, b"a")]));
        donor.absorb(1, &Batch::normalize(vec![msg(1, 0, b"b")]));
        let snap = donor.snapshot().unwrap();
        assert!(fold.install(&snap, &mut PayloadDigests::new(1)));
        // The buffered instance 2 folds immediately after the install.
        assert_eq!(fold.next_instance(), 3);
        assert_eq!(fold.delivered_count(), 3);
    }

    #[test]
    fn empty_fold_has_no_snapshot() {
        let fold = SnapshotFold::new(None);
        assert!(fold.snapshot().is_none());
    }
}
