//! The own-message path both stacks share: flow control and resend.
//!
//! The paper (§5.1): *"both implementations of the atomic broadcast
//! protocol use the same flow-control mechanism that blocks further
//! abcast events when necessary"*, tuned so that on average M = 4
//! messages are ordered per consensus execution. The mechanism is a
//! per-process window on *own* messages that were abcast but not yet
//! adelivered. Validity puts the same messages in the sender's care
//! until they are adelivered, so the [`Outbox`] that counts them also
//! holds them and says which are overdue for a resend. The modular
//! stack's flow-control microprotocol and the monolithic node embed
//! this same type; each resends through its own dissemination step.

use std::collections::BTreeMap;

use fortika_sim::{VDur, VTime};

use crate::id::MsgId;
use crate::message::AppMsg;

/// Send an *own* message again once it has gone this long without
/// being adelivered.
///
/// One dissemination is complete under the paper's quasi-reliable
/// channels, but under injected faults its copies can vanish: lost to
/// a partition, or handed to a coordinator that crashed and restarted
/// faster than the failure detector's timeout, so nobody rotates the
/// round that would re-route it. A bounded resend from the sender
/// restores validity once the fault heals, and never fires in good
/// runs (delivery latency is orders of magnitude below it).
pub const RESEND_INTERVAL: VDur = VDur::millis(500);

/// A process's own messages from admission until adelivery: the
/// flow-control window and the resend schedule.
///
/// # Example
///
/// ```
/// use bytes::Bytes;
/// use fortika_net::flow::{Outbox, RESEND_INTERVAL};
/// use fortika_net::{AppMsg, MsgId, ProcessId};
/// use fortika_sim::VTime;
///
/// let msg = |seq| AppMsg::new(MsgId::new(ProcessId(0), seq), Bytes::new());
/// let mut out = Outbox::new(2);
/// assert!(out.admit(&msg(0), VTime::ZERO));
/// assert!(out.admit(&msg(1), VTime::ZERO));
/// assert!(!out.admit(&msg(2), VTime::ZERO), "window full");
/// let later = VTime::ZERO + RESEND_INTERVAL;
/// assert_eq!(out.overdue(later).len(), 2, "both are due a resend");
/// assert!(out.overdue(later).is_empty(), "and were restamped");
/// assert!(out.settle(|id| id.seq == 0), "a delivery reopens the window");
/// assert!(out.admit(&msg(2), later));
/// ```
#[derive(Debug, Clone)]
pub struct Outbox {
    window: usize,
    /// Admitted, not yet adelivered → when each last went out.
    sent: BTreeMap<MsgId, (AppMsg, VTime)>,
}

impl Outbox {
    /// Creates an outbox admitting up to `window` outstanding messages.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero (nothing could ever be admitted).
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "flow-control window must admit something");
        Outbox {
            window,
            sent: BTreeMap::new(),
        }
    }

    /// Admits `msg`, which goes out at `now`; `false` means the window
    /// is full and the caller must block.
    pub fn admit(&mut self, msg: &AppMsg, now: VTime) -> bool {
        if self.sent.len() >= self.window {
            return false;
        }
        self.sent.insert(msg.id, (msg.clone(), now));
        true
    }

    /// Drops every held message `delivered` reports adelivered (by a
    /// decision or an installed snapshot). Returns `true` if this
    /// reopened a previously full window — the signal to wake the
    /// application.
    pub fn settle(&mut self, delivered: impl Fn(MsgId) -> bool) -> bool {
        let was_full = self.sent.len() >= self.window;
        self.sent.retain(|id, _| !delivered(*id));
        was_full && self.sent.len() < self.window
    }

    /// The held messages that went out [`RESEND_INTERVAL`] or more
    /// before `now`, restamped `now`: the caller sends them again.
    pub fn overdue(&mut self, now: VTime) -> Vec<AppMsg> {
        self.sent
            .values_mut()
            .filter(|(_, at)| now.since(*at) >= RESEND_INTERVAL)
            .map(|(msg, at)| {
                *at = now;
                msg.clone()
            })
            .collect()
    }

    /// The held messages, in id order.
    pub fn msgs(&self) -> impl Iterator<Item = &AppMsg> {
        self.sent.values().map(|(msg, _)| msg)
    }

    /// True when every admitted message has been adelivered.
    pub fn is_empty(&self) -> bool {
        self.sent.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::ProcessId;
    use bytes::Bytes;

    fn msg(seq: u64) -> AppMsg {
        AppMsg::new(MsgId::new(ProcessId(0), seq), Bytes::new())
    }

    fn fill(out: &mut Outbox, seqs: std::ops::Range<u64>) {
        for seq in seqs {
            assert!(out.admit(&msg(seq), VTime::ZERO));
        }
    }

    #[test]
    fn acquire_until_full() {
        let mut out = Outbox::new(3);
        fill(&mut out, 0..3);
        assert!(!out.admit(&msg(3), VTime::ZERO));
        assert_eq!(out.msgs().count(), 3);
    }

    #[test]
    fn release_signals_reopen_only_on_threshold_crossing() {
        let mut out = Outbox::new(2);
        fill(&mut out, 0..1);
        assert!(!out.settle(|id| id.seq == 0), "not full — no wake needed");
        fill(&mut out, 1..3);
        assert!(!out.admit(&msg(3), VTime::ZERO));
        assert!(out.settle(|id| id.seq == 1), "full → not-full must wake");
        assert!(
            !out.settle(|id| id.seq == 2),
            "already open — no duplicate wake"
        );
    }

    #[test]
    fn release_zero_is_noop() {
        let mut out = Outbox::new(1);
        fill(&mut out, 0..1);
        assert!(!out.settle(|_| false));
        assert_eq!(out.msgs().count(), 1);
    }

    #[test]
    fn release_saturates() {
        let mut out = Outbox::new(1);
        fill(&mut out, 0..1);
        out.settle(|_| true);
        assert!(out.is_empty());
    }

    #[test]
    fn an_id_never_admitted_releases_nothing() {
        let mut out = Outbox::new(2);
        fill(&mut out, 0..2);
        assert!(!out.settle(|id| id.seq == 7));
        assert!(!out.admit(&msg(2), VTime::ZERO), "still full");
    }

    #[test]
    fn overdue_restamps_what_it_returns() {
        let mut out = Outbox::new(2);
        fill(&mut out, 0..1);
        let later = VTime::ZERO + RESEND_INTERVAL;
        assert!(out.admit(&msg(1), later));
        let due: Vec<MsgId> = out.overdue(later).iter().map(|m| m.id).collect();
        assert_eq!(due, [msg(0).id], "only the message sent an interval ago");
        assert!(out
            .overdue(later + RESEND_INTERVAL - VDur::nanos(1))
            .is_empty());
        assert_eq!(out.overdue(later + RESEND_INTERVAL).len(), 2);
    }

    #[test]
    #[should_panic(expected = "must admit something")]
    fn zero_window_rejected() {
        let _ = Outbox::new(0);
    }
}
