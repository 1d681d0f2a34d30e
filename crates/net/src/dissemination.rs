//! Payload/ordering separation: disseminate each batch payload once
//! around a topology, run consensus on small fixed-size value *ids*.
//!
//! The committed LAN sweeps pin the modular stack's cost to message
//! complexity (~33 msgs/instance vs 4 for the monolith) — the paper's
//! central finding. Ring Paxos and Chop Chop both attack that cost the
//! same way: **separate payload dissemination from ordering**. A sender
//! cuts its pending messages into a payload batch, ships the batch
//! exactly once around a dissemination topology (ring or broadcast
//! tree), and hands consensus only a [`ValueId`]-sized *descriptor*.
//! Delivery happens when id order and payload have both arrived.
//!
//! This module holds the stack-agnostic pieces:
//!
//! * [`Dissemination`] — the strategy knob (`Direct` is the
//!   seed-faithful diffusion path, byte-identical to the pre-offload
//!   stack; `Ring` and `Tree` offload payloads).
//! * [`ValueId`] / descriptor helpers — the id↔descriptor mapping.
//!   Descriptors ride the ordinary [`MsgId`] namespace under
//!   [`DISSEM_SEQ_BASE`] so the consensus service stays value-agnostic,
//!   and their 4-byte payload carries the real-message count so
//!   snapshot folds keep counting deliveries in application units.
//! * [`route`] — ring / broadcast-tree next-hop computation with
//!   successor-repair: suspected members are skipped, so a crashed,
//!   restarting or reconfigured-out member never breaks the topology.
//! * [`PayloadStore`] — the undelivered-payload buffer plus a bounded
//!   cache of recently resolved payloads that serves pull-based repair.
//! * [`DissemMsg`] — the offload wire envelope.

use std::collections::{BTreeMap, BTreeSet};

use bytes::Bytes;

use crate::id::{MsgId, ProcessId};
use crate::message::{AppMsg, Batch};
use crate::wire::{Wire, WireError, WireReader, WireWriter};

pub use crate::id::DISSEM_SEQ_BASE;

/// Synthetic sender bit used when folding descriptor deliveries into
/// snapshots: descriptor `(origin, DISSEM_SEQ_BASE | k)` folds as
/// `(origin | DESC_SENDER_BIT, k)` so per-sender watermarks stay
/// contiguous and snapshots keep compacting.
pub const DESC_SENDER_BIT: u16 = 0x8000;

/// How the modular stack disseminates batch payloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Dissemination {
    /// Seed-faithful diffusion: every message is broadcast in full and
    /// consensus orders full batches (the paper's §3.3 reduction).
    #[default]
    Direct,
    /// Payloads travel once around a ring of the live members; consensus
    /// orders descriptors.
    Ring,
    /// Payloads travel down an origin-rooted binary broadcast tree;
    /// consensus orders descriptors.
    Tree,
}

impl Dissemination {
    /// Stable lowercase label (bench JSON, scenario encoding).
    pub fn label(self) -> &'static str {
        match self {
            Dissemination::Direct => "direct",
            Dissemination::Ring => "ring",
            Dissemination::Tree => "tree",
        }
    }

    /// True when payloads are offloaded from the consensus value path.
    pub fn offloads(self) -> bool {
        self != Dissemination::Direct
    }
}

/// Identity of one disseminated payload batch: the origin process plus
/// its per-origin payload sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ValueId {
    /// The process that cut and first disseminated the payload.
    pub origin: ProcessId,
    /// Origin-local payload sequence number (dense from 0, persisted
    /// across restarts so a revived origin never reuses an id).
    pub seq: u64,
}

impl ValueId {
    /// The descriptor [`MsgId`] this value rides under in consensus.
    pub fn descriptor_id(self) -> MsgId {
        MsgId::new(self.origin, DISSEM_SEQ_BASE | self.seq)
    }

    /// Recovers the value id from a descriptor [`MsgId`] (`None` for
    /// ordinary application messages).
    pub fn from_descriptor(id: MsgId) -> Option<ValueId> {
        id.is_descriptor().then_some(ValueId {
            origin: id.sender,
            seq: id.seq & !DISSEM_SEQ_BASE,
        })
    }
}

impl Wire for ValueId {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u16(self.origin.0);
        w.put_u64(self.seq);
    }
    fn decode(r: &mut WireReader) -> Result<Self, WireError> {
        Ok(ValueId {
            origin: ProcessId(r.get_u16()?),
            seq: r.get_u64()?,
        })
    }
}

/// Builds the descriptor message proposed to consensus in place of a
/// payload batch: id in the [`DISSEM_SEQ_BASE`] namespace, payload a
/// fixed 4 bytes carrying the real-message count (so snapshot folds and
/// the oracle keep positioning deliveries in application units).
pub fn descriptor_msg(vid: ValueId, real_count: u32) -> AppMsg {
    AppMsg::new(
        vid.descriptor_id(),
        Bytes::from(real_count.to_le_bytes().to_vec()),
    )
}

/// How many application-level deliveries a decided message stands for:
/// 1 for ordinary messages, the embedded count for descriptors.
pub fn delivery_weight(msg: &AppMsg) -> u64 {
    if !msg.id.is_descriptor() {
        return 1;
    }
    match <&[u8; 4]>::try_from(msg.payload.as_ref()) {
        Ok(b) => u64::from(u32::from_le_bytes(*b)),
        Err(_) => 0,
    }
}

/// The per-sender key a delivered message folds under in snapshots:
/// descriptors map to a synthetic `origin | DESC_SENDER_BIT` stream with
/// the base bit stripped, so their watermarks stay dense and
/// compactable; ordinary ids fold as themselves.
pub fn fold_key(id: MsgId) -> MsgId {
    match ValueId::from_descriptor(id) {
        Some(vid) => MsgId::new(ProcessId(vid.origin.0 | DESC_SENDER_BIT), vid.seq),
        None => id,
    }
}

/// The next hops a payload takes from `me`, plus whether suspicion
/// repaired the topology around a dead member.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hops {
    /// Processes `me` forwards the payload to (empty at the topology's
    /// end, for non-members, and always under `Direct`).
    pub next: Vec<ProcessId>,
    /// True when a suspected member was routed around to compute
    /// `next` (the successor-repair path fired).
    pub repaired: bool,
}

/// Computes the dissemination topology rooted at `origin` over the
/// current `members` (in configuration rotation order), skipping
/// `suspected` members, and returns where `me` forwards next.
///
/// * `Ring`: the live members form a cycle starting at the origin; each
///   holder forwards to its successor, and the payload stops when the
///   cycle would close back on the origin.
/// * `Tree`: the live members form an origin-rooted binary heap; each
///   holder forwards to its (up to two) children — same total message
///   count as the ring, logarithmic depth.
///
/// An origin outside the membership (a reconfigured-out learner still
/// submitting) roots the topology anyway; a non-member `me` never
/// forwards.
pub fn route(
    strategy: Dissemination,
    origin: ProcessId,
    me: ProcessId,
    members: &[ProcessId],
    suspected: &BTreeSet<ProcessId>,
) -> Hops {
    let mut order: Vec<ProcessId> = Vec::with_capacity(members.len() + 1);
    order.push(origin);
    let start = members
        .iter()
        .position(|&p| p == origin)
        .map_or(0, |i| i + 1);
    let mut repaired = false;
    for k in 0..members.len() {
        let p = members[(start + k) % members.len()];
        if p == origin {
            continue;
        }
        if suspected.contains(&p) {
            repaired = true;
            continue;
        }
        order.push(p);
    }
    let Some(i) = order.iter().position(|&p| p == me) else {
        return Hops {
            next: Vec::new(),
            repaired: false,
        };
    };
    let next = match strategy {
        Dissemination::Direct => Vec::new(),
        Dissemination::Ring => {
            let j = (i + 1) % order.len();
            if j == 0 {
                Vec::new() // the cycle closed back on the origin
            } else {
                vec![order[j]]
            }
        }
        Dissemination::Tree => [2 * i + 1, 2 * i + 2]
            .into_iter()
            .filter(|&j| j < order.len())
            .map(|j| order[j])
            .collect(),
    };
    let repaired = repaired && !next.is_empty();
    Hops { next, repaired }
}

/// Majority threshold over a member count.
pub fn majority_of(members: usize) -> u32 {
    (members / 2 + 1) as u32
}

/// One buffered, not-yet-delivered payload.
#[derive(Debug, Clone)]
pub struct PayloadEntry {
    /// The payload batch itself.
    pub batch: Batch,
    /// Bitmap (by [`ProcessId`] index) of processes known to hold the
    /// payload — a descriptor becomes proposable only once a majority
    /// holds it, so a decided id can always be resolved.
    pub holders: u64,
}

/// Buffers payloads between dissemination and id-ordered delivery, and
/// retains resolved payloads so stragglers' (and rejoiners') pull
/// requests can always be served — the payload analogue of the seed's
/// decision cache. Retention is bounded the same way: snapshot
/// compaction ([`PayloadStore::compact`]) drops what an installed
/// snapshot covers; without snapshots the history is the recovery
/// medium and is kept.
#[derive(Debug, Default)]
pub struct PayloadStore {
    entries: BTreeMap<ValueId, PayloadEntry>,
    resolved: BTreeMap<ValueId, Batch>,
}

impl PayloadStore {
    /// An empty store.
    pub fn new() -> Self {
        PayloadStore::default()
    }

    /// Absorbs a payload copy, merging holder knowledge. Returns
    /// `(entry holders after the merge, true when newly stored)`.
    pub fn absorb(&mut self, vid: ValueId, batch: &Batch, holders: u64) -> (u64, bool) {
        match self.entries.get_mut(&vid) {
            Some(e) => {
                e.holders |= holders;
                (e.holders, false)
            }
            None => {
                self.entries.insert(
                    vid,
                    PayloadEntry {
                        batch: batch.clone(),
                        holders,
                    },
                );
                (holders, true)
            }
        }
    }

    /// The undelivered entry for `vid`, if held.
    pub fn get(&self, vid: ValueId) -> Option<&PayloadEntry> {
        self.entries.get(&vid)
    }

    /// Merges externally learned holder knowledge (an ack carrying the
    /// acker's view) into an undelivered entry; returns the merged
    /// bitmap, or `None` when `vid` is not buffered (already resolved).
    pub fn merge_holders(&mut self, vid: ValueId, holders: u64) -> Option<u64> {
        let e = self.entries.get_mut(&vid)?;
        e.holders |= holders;
        Some(e.holders)
    }

    /// Looks `vid` up across undelivered entries *and* the resolved
    /// retention (the pull-serving view).
    pub fn lookup(&self, vid: ValueId) -> Option<(&Batch, u64)> {
        if let Some(e) = self.entries.get(&vid) {
            return Some((&e.batch, e.holders));
        }
        self.resolved.get(&vid).map(|b| (b, u64::MAX))
    }

    /// Moves `vid` from the undelivered buffer into the resolved
    /// retention and returns its batch (delivery time).
    pub fn resolve(&mut self, vid: ValueId) -> Option<Batch> {
        let e = self.entries.remove(&vid)?;
        self.resolved.insert(vid, e.batch.clone());
        Some(e.batch)
    }

    /// Drops every payload that `covered` (snapshot compaction:
    /// payloads whose descriptors the installed snapshot already folded
    /// will never be decided — or pulled through — here again).
    pub fn compact(&mut self, covered: impl Fn(ValueId) -> bool) -> usize {
        let before = self.entries.len() + self.resolved.len();
        self.entries.retain(|vid, _| !covered(*vid));
        self.resolved.retain(|vid, _| !covered(*vid));
        before - self.entries.len() - self.resolved.len()
    }

    /// Undelivered entries, in id order (repair re-forwarding).
    pub fn undelivered(&self) -> impl Iterator<Item = (ValueId, &PayloadEntry)> {
        self.entries.iter().map(|(&v, e)| (v, e))
    }

    /// Number of undelivered buffered payloads.
    pub fn outstanding(&self) -> usize {
        self.entries.len()
    }
}

/// The offload wire envelope (`abcast.*` traffic when the strategy
/// offloads; `Direct` keeps the seed's bare [`AppMsg`] encoding).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DissemMsg {
    /// Full-message diffusion (reconfiguration commands keep traveling
    /// in full so consensus can read them out of decided batches).
    Diffuse(AppMsg),
    /// A payload batch traveling along the topology with the holder
    /// bitmap accumulated so far.
    Payload {
        /// Which payload this is.
        vid: ValueId,
        /// Holder bitmap accumulated along the path.
        holders: u64,
        /// The payload batch.
        batch: Batch,
    },
    /// Holder notification back to the origin: the acker's merged
    /// holder view, sent by the pivotal holder whose copy crossed the
    /// majority threshold (and by every receiver of a retransmit
    /// push). The origin accumulates these bitmaps until a majority
    /// holds the payload and its descriptor becomes proposable.
    Ack {
        /// The acknowledged payload.
        vid: ValueId,
        /// Holder bitmap as merged at the acker.
        holders: u64,
    },
    /// Pull-based repair: ask a peer for a payload we must deliver.
    Pull {
        /// The missing payload.
        vid: ValueId,
    },
    /// Repair response carrying the pulled payload (not re-forwarded).
    Push {
        /// Which payload this is.
        vid: ValueId,
        /// Holder bitmap as known by the server.
        holders: u64,
        /// The payload batch.
        batch: Batch,
    },
}

const TAG_DIFFUSE: u8 = 0;
const TAG_PAYLOAD: u8 = 1;
const TAG_ACK: u8 = 2;
const TAG_PULL: u8 = 3;
const TAG_PUSH: u8 = 4;

impl Wire for DissemMsg {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            DissemMsg::Diffuse(msg) => {
                w.put_u8(TAG_DIFFUSE);
                w.put(msg);
            }
            DissemMsg::Payload {
                vid,
                holders,
                batch,
            } => {
                w.put_u8(TAG_PAYLOAD);
                w.put(vid);
                w.put_u64(*holders);
                w.put(batch);
            }
            DissemMsg::Ack { vid, holders } => {
                w.put_u8(TAG_ACK);
                w.put(vid);
                w.put_u64(*holders);
            }
            DissemMsg::Pull { vid } => {
                w.put_u8(TAG_PULL);
                w.put(vid);
            }
            DissemMsg::Push {
                vid,
                holders,
                batch,
            } => {
                w.put_u8(TAG_PUSH);
                w.put(vid);
                w.put_u64(*holders);
                w.put(batch);
            }
        }
    }

    fn decode(r: &mut WireReader) -> Result<Self, WireError> {
        Ok(match r.get_u8()? {
            TAG_DIFFUSE => DissemMsg::Diffuse(r.get()?),
            TAG_PAYLOAD => DissemMsg::Payload {
                vid: r.get()?,
                holders: r.get_u64()?,
                batch: r.get()?,
            },
            TAG_ACK => DissemMsg::Ack {
                vid: r.get()?,
                holders: r.get_u64()?,
            },
            TAG_PULL => DissemMsg::Pull { vid: r.get()? },
            TAG_PUSH => DissemMsg::Push {
                vid: r.get()?,
                holders: r.get_u64()?,
                batch: r.get()?,
            },
            t => return Err(WireError::InvalidTag(t)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{decode, encode};

    fn pids(ids: &[u16]) -> Vec<ProcessId> {
        ids.iter().map(|&i| ProcessId(i)).collect()
    }

    #[test]
    fn descriptor_round_trips_and_weighs() {
        let vid = ValueId {
            origin: ProcessId(2),
            seq: 7,
        };
        let d = descriptor_msg(vid, 5);
        assert_eq!(ValueId::from_descriptor(d.id), Some(vid));
        assert_eq!(delivery_weight(&d), 5);
        let plain = AppMsg::new(MsgId::new(ProcessId(2), 7), Bytes::from_static(b"xyz"));
        assert_eq!(ValueId::from_descriptor(plain.id), None);
        assert_eq!(delivery_weight(&plain), 1);
    }

    #[test]
    fn fold_key_separates_descriptor_stream() {
        let vid = ValueId {
            origin: ProcessId(3),
            seq: 9,
        };
        let k = fold_key(vid.descriptor_id());
        assert_eq!(k.sender, ProcessId(3 | DESC_SENDER_BIT));
        assert_eq!(k.seq, 9, "base bit stripped: watermarks stay dense");
        let plain = MsgId::new(ProcessId(3), 9);
        assert_eq!(fold_key(plain), plain);
    }

    #[test]
    fn ring_visits_every_member_once() {
        let members = pids(&[0, 1, 2]);
        let none = BTreeSet::new();
        let o = ProcessId(1);
        // Origin forwards to its successor in rotation order.
        let h = route(Dissemination::Ring, o, o, &members, &none);
        assert_eq!(h.next, pids(&[2]));
        let h = route(Dissemination::Ring, o, ProcessId(2), &members, &none);
        assert_eq!(h.next, pids(&[0]));
        // The last member does not close the cycle back on the origin.
        let h = route(Dissemination::Ring, o, ProcessId(0), &members, &none);
        assert!(h.next.is_empty());
    }

    #[test]
    fn ring_repairs_around_suspected_successor() {
        let members = pids(&[0, 1, 2, 3]);
        let suspected: BTreeSet<ProcessId> = [ProcessId(1)].into();
        let h = route(
            Dissemination::Ring,
            ProcessId(0),
            ProcessId(0),
            &members,
            &suspected,
        );
        assert_eq!(h.next, pids(&[2]), "skips the suspected successor");
        assert!(h.repaired);
    }

    #[test]
    fn tree_covers_members_with_n_minus_one_sends() {
        let members = pids(&[0, 1, 2, 3, 4, 5, 6]);
        let none = BTreeSet::new();
        let mut sends = 0;
        let mut reached: BTreeSet<ProcessId> = [ProcessId(0)].into();
        for &p in &members {
            let h = route(Dissemination::Tree, ProcessId(0), p, &members, &none);
            sends += h.next.len();
            reached.extend(h.next.iter().copied());
        }
        assert_eq!(sends, members.len() - 1);
        assert_eq!(reached.len(), members.len());
    }

    #[test]
    fn non_member_origin_roots_and_non_member_never_forwards() {
        let members = pids(&[0, 1, 2]);
        let none = BTreeSet::new();
        let learner = ProcessId(3);
        let h = route(Dissemination::Ring, learner, learner, &members, &none);
        assert_eq!(h.next, pids(&[0]), "learner origin hands off to a member");
        let h = route(Dissemination::Ring, ProcessId(0), learner, &members, &none);
        assert!(h.next.is_empty(), "non-member holders never forward");
    }

    #[test]
    fn store_absorb_resolve_and_pull_view() {
        let mut store = PayloadStore::new();
        let vid = ValueId {
            origin: ProcessId(0),
            seq: 0,
        };
        let batch = Batch::normalize(vec![AppMsg::new(
            MsgId::new(ProcessId(0), 0),
            Bytes::from_static(b"v"),
        )]);
        let (h, new) = store.absorb(vid, &batch, 0b01);
        assert!(new);
        assert_eq!(h, 0b01);
        let (h, new) = store.absorb(vid, &batch, 0b10);
        assert!(!new);
        assert_eq!(h, 0b11, "holder knowledge merges");
        assert_eq!(store.outstanding(), 1);
        assert!(store.resolve(vid).is_some());
        assert_eq!(store.outstanding(), 0);
        assert!(store.get(vid).is_none());
        assert!(store.lookup(vid).is_some(), "resolved cache serves pulls");
        assert!(store.resolve(vid).is_none());
    }

    #[test]
    fn store_compacts_covered_entries() {
        let mut store = PayloadStore::new();
        for seq in 0..4 {
            let vid = ValueId {
                origin: ProcessId(0),
                seq,
            };
            store.absorb(vid, &Batch::empty(), 1);
        }
        let dropped = store.compact(|vid| vid.seq < 2);
        assert_eq!(dropped, 2);
        assert_eq!(store.outstanding(), 2);
    }

    #[test]
    fn dissem_msgs_round_trip() {
        let vid = ValueId {
            origin: ProcessId(1),
            seq: 3,
        };
        let batch = Batch::normalize(vec![AppMsg::new(
            MsgId::new(ProcessId(1), 0),
            Bytes::from_static(b"p"),
        )]);
        let msgs = [
            DissemMsg::Diffuse(AppMsg::new(MsgId::new(ProcessId(0), 9), Bytes::new())),
            DissemMsg::Payload {
                vid,
                holders: 0b101,
                batch: batch.clone(),
            },
            DissemMsg::Ack { vid, holders: 0b11 },
            DissemMsg::Pull { vid },
            DissemMsg::Push {
                vid,
                holders: 0b11,
                batch,
            },
        ];
        for m in msgs {
            let back: DissemMsg = decode(encode(&m)).unwrap();
            assert_eq!(back, m);
        }
    }

    #[test]
    fn labels_are_stable() {
        let labels = [
            Dissemination::Direct,
            Dissemination::Ring,
            Dissemination::Tree,
        ]
        .map(Dissemination::label);
        assert_eq!(labels, ["direct", "ring", "tree"]);
        assert!(!Dissemination::Direct.offloads());
        assert!(Dissemination::Ring.offloads());
    }
}
