//! Per-peer request rate limiting.
//!
//! Recovery paths (catch-up pulls, snapshot offers) are rate limited
//! so one reply burst does not trigger a request storm. The original
//! limiter kept **one** timestamp for all peers, so a request toward one
//! peer suppressed catch-up toward a *different* lagging peer for the
//! whole window; [`PeerRateLimiter`] keys the window by peer, which is
//! what the recovery protocols actually need.

use std::collections::BTreeMap;

use fortika_sim::{VDur, VTime};

use crate::id::ProcessId;

/// A per-peer sliding-window rate limiter.
///
/// [`allow`](Self::allow) grants at most one request per peer per
/// window; requests toward distinct peers never suppress each other.
#[derive(Debug, Clone, Default)]
pub struct PeerRateLimiter {
    last: BTreeMap<ProcessId, VTime>,
}

impl PeerRateLimiter {
    /// A limiter with no history (everything allowed immediately).
    pub fn new() -> Self {
        PeerRateLimiter::default()
    }

    /// True if a request toward `peer` is allowed at `now` given the
    /// per-peer `window`; records the grant.
    pub fn allow(&mut self, peer: ProcessId, now: VTime, window: VDur) -> bool {
        match self.last.get(&peer) {
            Some(&last) if now.since(last) < window => false,
            _ => {
                self.last.insert(peer, now);
                true
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const W: VDur = VDur::millis(50);

    #[test]
    fn same_peer_suppressed_within_window() {
        let mut rl = PeerRateLimiter::new();
        let t0 = VTime::ZERO + VDur::millis(100);
        assert!(rl.allow(ProcessId(1), t0, W));
        assert!(!rl.allow(ProcessId(1), t0 + VDur::millis(10), W));
        assert!(rl.allow(ProcessId(1), t0 + VDur::millis(50), W));
    }

    #[test]
    fn different_peers_do_not_suppress_each_other() {
        // Regression: one shared timestamp suppressed catch-up toward a
        // second lagging peer for the full window.
        let mut rl = PeerRateLimiter::new();
        let t0 = VTime::ZERO + VDur::millis(100);
        assert!(rl.allow(ProcessId(1), t0, W));
        assert!(
            rl.allow(ProcessId(2), t0 + VDur::millis(1), W),
            "a request toward p2 must not be gated by the p2-unrelated request toward p1"
        );
        assert!(!rl.allow(ProcessId(2), t0 + VDur::millis(2), W));
    }
}
