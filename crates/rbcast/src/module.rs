//! The reliable broadcast microprotocol.
//!
//! # Algorithm
//!
//! The classic algorithm (§3.1 of the paper) has the origin send `m` to
//! all and every process re-send it to all on first receipt:
//! `(n−1) + (n−1)² = n(n−1)` messages per rbcast (the paper rounds this
//! to n²). That flood is why this module relays through a majority
//! instead: assuming a majority of processes never crash — the same
//! assumption consensus already needs — only a deterministic *relay
//! set* of `⌊(n−1)/2⌋` processes re-sends, giving
//! `(n−1)·(⌊(n−1)/2⌋ + 1) = (n−1)·⌊(n+1)/2⌋` messages per rbcast in good
//! runs (4 messages at n = 3, 24 at n = 7).
//!
//! ## Correctness
//!
//! Delivery happens on first receipt. A process *completes* a message
//! once it has observed a copy from the origin **and** from every relay:
//! each such copy proves its sender held `m` and initiated a send-to-all,
//! and the transmitter set `{origin} ∪ relays` has `⌊(n+1)/2⌋` members —
//! a majority — so at least one of them is correct and its send-to-all
//! reached every correct process. A process that cannot complete within
//! [`FALLBACK_TIMEOUT`] re-sends `m` to all itself (`rb.flood`), which
//! restores agreement under any crash pattern within the majority
//! assumption; floods never occur in good runs.

use std::collections::BTreeMap;

use bytes::Bytes;
use fortika_framework::{Event, EventKind, FrameworkCtx, Microprotocol, ModuleId};
use fortika_net::wire::{Wire, WireError, WireReader, WireWriter};
use fortika_net::{ProcessId, ReservedSeq, StableStore, TimerId, WatermarkSet};
use fortika_sim::VDur;

use crate::metrics;

/// Stable-store key of this module's rbcast sequence counter.
///
/// A process revived with a reset counter would reuse sequence numbers
/// its old incarnation already burned, and every peer's
/// duplicate-suppression log would silently swallow the new
/// incarnation's broadcasts (its consensus module could then never
/// disseminate a decision again). So the counter is a
/// [`ReservedSeq`]: a bound [`ReservedSeq::BLOCK`] numbers ahead is
/// persisted write-ahead, once per block rather than once per
/// broadcast, and a revived process resumes at that bound. The numbers
/// a restart skips are a hole in this origin's sequence that every
/// peer's log holds as one run.
///
/// Its namespace is assigned in [`fortika_net::replica::keys`], the one
/// table every layer of the stack takes its keys from: this counter once
/// shared `3 << 56` with the consensus snapshot — frequent seq writes
/// clobbered the snapshot and, worse, a snapshot written last before a
/// crash made the revived rbcast counter fail to decode and reset.
pub const STABLE_SEQ_KEY: u64 = fortika_net::replica::keys::RBCAST_SEQ;

/// Wire demux id of the reliable broadcast module.
pub const RBCAST_MODULE_ID: ModuleId = 3;

/// How long a non-relay waits for completion evidence before flooding.
/// Never reached in good runs.
pub const FALLBACK_TIMEOUT: VDur = VDur::millis(200);

/// One reliably-broadcast message on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
struct RbMsg {
    origin: ProcessId,
    seq: u64,
    stream: u8,
    payload: Bytes,
}

impl Wire for RbMsg {
    fn encode(&self, w: &mut WireWriter) {
        self.origin.encode(w);
        w.put_u64(self.seq);
        w.put_u8(self.stream);
        self.payload.encode(w);
    }
    fn decode(r: &mut WireReader) -> Result<Self, WireError> {
        Ok(RbMsg {
            origin: ProcessId::decode(r)?,
            seq: r.get_u64()?,
            stream: r.get_u8()?,
            payload: Bytes::decode(r)?,
        })
    }
}

/// State of a delivered-but-not-yet-completed message.
struct Pending {
    /// Transmitters we still need evidence from.
    awaiting: Vec<ProcessId>,
    timer: TimerId,
    msg: RbMsg,
}

/// The reliable broadcast microprotocol.
///
/// Consumes [`Event::Rbcast`] requests and raises [`Event::RbDeliver`]
/// for every delivered payload — including the origin's own, delivered
/// locally without a network hop.
pub struct RbcastModule {
    seq: ReservedSeq,
    logs: BTreeMap<ProcessId, WatermarkSet>,
    pending: BTreeMap<(ProcessId, u64), Pending>,
    timer_keys: BTreeMap<u64, (ProcessId, u64)>,
    next_timer_tag: u64,
}

impl RbcastModule {
    /// Creates the module.
    pub fn new() -> Self {
        RbcastModule {
            seq: ReservedSeq::new(STABLE_SEQ_KEY),
            logs: BTreeMap::new(),
            pending: BTreeMap::new(),
            timer_keys: BTreeMap::new(),
            next_timer_tag: 0,
        }
    }

    /// Creates the module for a revived process: resumes the rbcast
    /// sequence counter at the bound reserved under [`STABLE_SEQ_KEY`]
    /// so the new incarnation never reuses burned sequence numbers.
    pub fn resume(stable: &StableStore) -> Self {
        RbcastModule {
            seq: ReservedSeq::resume(STABLE_SEQ_KEY, stable),
            ..RbcastModule::new()
        }
    }

    fn complete(&mut self, ctx: &mut FrameworkCtx<'_, '_>, origin: ProcessId, seq: u64) {
        self.logs.entry(origin).or_default().complete(seq);
        if let Some(p) = self.pending.remove(&(origin, seq)) {
            ctx.cancel_timer(p.timer);
        }
    }

    /// First receipt of `msg` from network peer `from`.
    fn first_receipt(&mut self, ctx: &mut FrameworkCtx<'_, '_>, from: ProcessId, msg: RbMsg) {
        ctx.raise(Event::RbDeliver {
            stream: msg.stream,
            origin: msg.origin,
            payload: msg.payload.clone(),
        });
        let me = ctx.pid();
        let n = ctx.n();
        let origin = msg.origin;
        let seq = msg.seq;
        if ProcessId::relay_set(origin, n).any(|p| p == me) {
            // Relay: our re-send makes us a transmitter; we need no
            // further evidence ourselves.
            ctx.broadcast_net(metrics::RELAY, &msg);
            self.complete(ctx, origin, seq);
            return;
        }
        // Non-relay: await evidence from every transmitter.
        let mut awaiting: Vec<ProcessId> = std::iter::once(origin)
            .chain(ProcessId::relay_set(origin, n))
            .filter(|&p| p != me && p != from)
            .collect();
        awaiting.dedup();
        if awaiting.is_empty() {
            self.complete(ctx, origin, seq);
            return;
        }
        let tag = self.next_timer_tag;
        self.next_timer_tag += 1;
        self.timer_keys.insert(tag, (origin, seq));
        let timer = ctx.set_timer(FALLBACK_TIMEOUT, tag);
        self.pending.insert(
            (origin, seq),
            Pending {
                awaiting,
                timer,
                msg,
            },
        );
    }
}

impl Default for RbcastModule {
    fn default() -> Self {
        RbcastModule::new()
    }
}

impl Microprotocol for RbcastModule {
    fn name(&self) -> &'static str {
        "reliable-broadcast"
    }

    fn module_id(&self) -> ModuleId {
        RBCAST_MODULE_ID
    }

    fn subscriptions(&self) -> &'static [EventKind] {
        &[EventKind::Rbcast]
    }

    fn on_event(&mut self, ctx: &mut FrameworkCtx<'_, '_>, ev: &Event) {
        let Event::Rbcast { stream, payload } = ev else {
            return;
        };
        // Write-ahead: `seq` is below the durable bound before
        // (atomically with) its first copy leaving this process.
        let msg = RbMsg {
            origin: ctx.pid(),
            seq: self.seq.take(ctx),
            stream: *stream,
            payload: payload.clone(),
        };
        ctx.bump(metrics::INITIATED, 1);
        ctx.trace_span("rbcast", msg.seq, "initiated", u64::from(msg.origin.0));
        // The origin delivers to itself without a network hop… but
        // FIFO dispatch runs this `RbDeliver` only after the handler
        // returns, behind whatever the bus already holds: the origin's
        // upcall chain is charged after the n−1 sends below, not
        // before them. (A deciding consensus coordinator therefore
        // raises its `Decide` before its `Rbcast`.) The frames
        // themselves leave when the whole dispatch ends.
        ctx.raise(Event::RbDeliver {
            stream: msg.stream,
            origin: msg.origin,
            payload: msg.payload.clone(),
        });
        // …then ship to everyone. The origin is a transmitter by
        // construction, so it completes immediately.
        ctx.broadcast_net(metrics::INITIAL, &msg);
        self.complete(ctx, msg.origin, msg.seq);
    }

    fn on_net(&mut self, ctx: &mut FrameworkCtx<'_, '_>, from: ProcessId, msg: WireReader) {
        let Ok(msg) = msg.get_only::<RbMsg>() else {
            ctx.bump(metrics::GARBAGE, 1);
            return;
        };
        let fresh = self.logs.entry(msg.origin).or_default().is_new(msg.seq);
        if !fresh {
            return;
        }
        if let Some(p) = self.pending.get_mut(&(msg.origin, msg.seq)) {
            // Already delivered; this copy is completion evidence.
            p.awaiting.retain(|&q| q != from);
            if p.awaiting.is_empty() {
                self.complete(ctx, msg.origin, msg.seq);
            }
            return;
        }
        self.first_receipt(ctx, from, msg);
    }

    fn on_timer(&mut self, ctx: &mut FrameworkCtx<'_, '_>, _timer: TimerId, tag: u64) {
        let Some(key) = self.timer_keys.remove(&tag) else {
            return;
        };
        let Some(p) = self.pending.get(&key) else {
            return;
        };
        // Completion evidence did not arrive in time: some transmitter
        // may have crashed mid-broadcast. Become a transmitter.
        ctx.bump(metrics::FLOODS, 1);
        ctx.trace_span("rbcast", key.1, "flood", u64::from(key.0 .0));
        ctx.broadcast_net(metrics::FLOOD, &p.msg);
        self.complete(ctx, key.0, key.1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fortika_net::wire::{decode, encode};

    #[test]
    fn rbmsg_round_trips() {
        // `RbMsg`'s row of `tests/wire_codec.rs` (the type is private).
        for payload in [Bytes::new(), Bytes::from(vec![0xD1; 16 * 1024])] {
            let msg = RbMsg {
                origin: ProcessId(3),
                seq: 42,
                stream: 7,
                payload,
            };
            let bytes = encode(&msg);
            assert_eq!(bytes.len(), msg.encoded_len());
            assert_eq!(bytes.len(), 2 + 8 + 1 + 4 + msg.payload.len());
            assert_eq!(decode::<RbMsg>(bytes).unwrap(), msg);
        }
    }
}
