//! Origin sequence counters that survive a crash at one stable write
//! per block of numbers, not one per number.
//!
//! An origin that numbers its messages (rbcast's per-origin sequence)
//! must never reuse a number after a restart: peers suppress
//! duplicates by `(origin, seq)`, so a reused number is a message
//! silently swallowed everywhere. Persisting the counter on
//! every message guarantees that at one stable write per message.
//! [`ReservedSeq`] persists a *bound* instead: every number below it may
//! have been handed out, none at or above it has. It writes a new bound
//! [`ReservedSeq::BLOCK`] numbers ahead only when the counter reaches the
//! old one, and a revived origin resumes at the bound. The price is a
//! hole of at most `BLOCK − 1` never-used numbers per restart, which a
//! peer's [`WatermarkSet`](crate::WatermarkSet) holds as one run.

use crate::cluster::StableStore;
use crate::replica::ReplicaCtx;
use crate::wire::encode;

/// An origin-local sequence counter whose durable form is a reserved
/// bound under one stable-store key.
#[derive(Debug, Clone)]
pub struct ReservedSeq {
    /// The stable-store key of the bound.
    key: u64,
    /// The next number to hand out.
    next: u64,
    /// The persisted bound: `next` may run up to it without a write.
    reserved: u64,
}

impl ReservedSeq {
    /// Numbers reserved per stable write.
    pub const BLOCK: u64 = 1024;

    /// A counter starting at 0 (process start at time zero), its bound
    /// persisted under `key`.
    pub fn new(key: u64) -> Self {
        ReservedSeq {
            key,
            next: 0,
            reserved: 0,
        }
    }

    /// The counter of a process revived after a crash: resumes at the
    /// bound persisted under `key`, so it reuses no number any earlier
    /// incarnation handed out. A missing or undecodable bound resumes
    /// at 0, as a process that never numbered anything would.
    pub fn resume(key: u64, stable: &StableStore) -> Self {
        let bound = stable
            .get(&key)
            .and_then(|value| value.decode::<u64>().ok())
            .unwrap_or(0);
        ReservedSeq {
            key,
            next: bound,
            reserved: bound,
        }
    }

    /// Hands out the next number. When it reaches the reserved bound,
    /// the next block is reserved first: the new bound is persisted
    /// atomically with the enclosing handler, so with whatever carries
    /// the number out of this process.
    pub fn take<C: ReplicaCtx>(&mut self, ctx: &mut C) -> u64 {
        let seq = self.next;
        if seq >= self.reserved {
            self.reserved = seq.saturating_add(Self::BLOCK);
            ctx.persist(self.key, encode(&self.reserved));
        }
        self.next = seq.saturating_add(1);
        seq
    }
}
