//! Fault-injection overlay for failure detectors.
//!
//! Chaos scenarios need to script *wrong* suspicions — the detector
//! lying about a perfectly healthy process — while keeping the real
//! heartbeat machinery running underneath (so genuine crashes are still
//! detected). [`OverlayFd`] wraps any [`FailureDetector`] core and
//! forces suspicion of chosen processes during chosen windows; outside
//! the windows the inner detector's verdicts pass through untouched.
//!
//! This is how `fortika-chaos` exercises the ◇P "inaccurate output"
//! clause of the paper's system model (§2.1): both stacks must stay safe
//! when the detector slanders the current coordinator.

use fortika_net::ProcessId;
use fortika_sim::{VDur, VTime};

use crate::core::{FailureDetector, FdEvent};

/// A window during which `observer`'s detector must claim `suspect` is
/// crashed, regardless of heartbeats.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SuspicionWindow {
    /// The process whose local detector lies.
    pub observer: ProcessId,
    /// The process being slandered.
    pub suspect: ProcessId,
    /// Window start (inclusive).
    pub from: VTime,
    /// Window end (exclusive).
    pub until: VTime,
}

impl SuspicionWindow {
    /// True while the forced suspicion is active.
    pub fn active_at(&self, now: VTime) -> bool {
        self.from <= now && now < self.until
    }
}

/// A failure detector that overlays scripted suspicion windows on an
/// inner core (see the [crate docs](crate)).
#[derive(Debug, Clone)]
pub struct OverlayFd<T> {
    inner: T,
    windows: Vec<SuspicionWindow>,
    /// Suspicion state last reported upward, per process — transitions
    /// are emitted exactly once even when forced and genuine suspicion
    /// overlap.
    reported: Vec<bool>,
    resolution: VDur,
    scratch: Vec<FdEvent>,
    /// End of the last retained window; once a tick lands at or past
    /// it, the fast polling cadence is no longer needed.
    windows_end: VTime,
    past_windows: bool,
}

impl<T: FailureDetector> OverlayFd<T> {
    /// Wraps `inner` for a group of `n` processes; only windows whose
    /// `observer` is `me` are retained.
    pub fn new(n: usize, me: ProcessId, inner: T, windows: Vec<SuspicionWindow>) -> Self {
        let windows: Vec<SuspicionWindow> =
            windows.into_iter().filter(|w| w.observer == me).collect();
        let windows_end = windows
            .iter()
            .map(|w| w.until)
            .fold(VTime::ZERO, VTime::max);
        OverlayFd {
            inner,
            past_windows: windows.is_empty(),
            windows,
            reported: vec![false; n],
            resolution: VDur::millis(5),
            scratch: Vec::new(),
            windows_end,
        }
    }

    /// Access to the wrapped core.
    pub fn inner(&self) -> &T {
        &self.inner
    }

    fn forced(&self, p: usize, now: VTime) -> bool {
        self.windows
            .iter()
            .any(|w| w.suspect.index() == p && w.active_at(now))
    }

    /// Reconciles effective state (forced ∪ inner) with what was last
    /// reported, emitting the difference.
    fn reconcile(&mut self, now: VTime, out: &mut Vec<FdEvent>) {
        for p in 0..self.reported.len() {
            let effective = self.forced(p, now) || self.inner.is_suspected(ProcessId(p as u16));
            if effective != self.reported[p] {
                self.reported[p] = effective;
                out.push(if effective {
                    FdEvent::Suspect(ProcessId(p as u16))
                } else {
                    FdEvent::Restore(ProcessId(p as u16))
                });
            }
        }
    }
}

impl<T: FailureDetector> FailureDetector for OverlayFd<T> {
    fn on_heartbeat(&mut self, from: ProcessId, now: VTime, out: &mut Vec<FdEvent>) {
        self.scratch.clear();
        // Inner transitions are discarded; reconcile() re-derives them
        // against the overlay state.
        let scratch = &mut self.scratch;
        self.inner.on_heartbeat(from, now, scratch);
        self.reconcile(now, out);
    }

    fn note_alive(&mut self, from: ProcessId, at: VTime, _out: &mut Vec<FdEvent>) {
        // The host ticks right after feeding arrivals, and that tick's
        // reconcile re-derives whatever the inner core changed here; a
        // forced window therefore still wins over implicit liveness.
        self.inner.note_alive(from, at, &mut self.scratch);
    }

    fn tick(&mut self, now: VTime, out: &mut Vec<FdEvent>) {
        self.scratch.clear();
        let scratch = &mut self.scratch;
        self.inner.tick(now, scratch);
        self.reconcile(now, out);
        if now >= self.windows_end {
            // Every window is closed and this reconcile saw it: drop
            // back to the inner detector's cadence.
            self.past_windows = true;
        }
    }

    fn tick_interval(&self) -> Option<VDur> {
        // Tick at least every `resolution` while windows can still open
        // or close, so transitions fire promptly even over a
        // non-ticking inner core; afterwards, the inner cadence.
        match self.inner.tick_interval() {
            Some(i) if self.past_windows => Some(i),
            Some(i) => Some(i.min(self.resolution)),
            None if self.past_windows => None,
            None => Some(self.resolution),
        }
    }

    fn heartbeat_interval(&self) -> Option<VDur> {
        // The finer overlay polling tick must not inflate the host's
        // heartbeat traffic: keep the inner detector's cadence.
        self.inner.heartbeat_interval()
    }

    fn sends_heartbeats(&self) -> bool {
        self.inner.sends_heartbeats()
    }

    fn is_suspected(&self, p: ProcessId) -> bool {
        self.reported.get(p.index()).copied().unwrap_or(false)
    }

    fn set_members(&mut self, members: &[ProcessId], now: VTime, out: &mut Vec<FdEvent>) {
        self.scratch.clear();
        let scratch = &mut self.scratch;
        self.inner.set_members(members, now, scratch);
        // Forced windows stay forced regardless of membership (the
        // scenario scripted them); reconcile re-derives transitions.
        self.reconcile(now, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::{FdConfig, HeartbeatFd, QuiescentFd};

    fn window(suspect: u16, from_ms: u64, until_ms: u64) -> SuspicionWindow {
        SuspicionWindow {
            observer: ProcessId(0),
            suspect: ProcessId(suspect),
            from: VTime::ZERO + VDur::millis(from_ms),
            until: VTime::ZERO + VDur::millis(until_ms),
        }
    }

    #[test]
    fn forced_window_opens_and_closes_once() {
        let mut fd = OverlayFd::new(2, ProcessId(0), QuiescentFd, vec![window(1, 10, 30)]);
        let mut out = Vec::new();
        fd.tick(VTime::ZERO + VDur::millis(5), &mut out);
        assert!(out.is_empty());
        fd.tick(VTime::ZERO + VDur::millis(10), &mut out);
        fd.tick(VTime::ZERO + VDur::millis(20), &mut out);
        assert_eq!(out, [FdEvent::Suspect(ProcessId(1))]);
        assert!(fd.is_suspected(ProcessId(1)));
        out.clear();
        fd.tick(VTime::ZERO + VDur::millis(30), &mut out);
        assert_eq!(out, [FdEvent::Restore(ProcessId(1))]);
        assert!(!fd.is_suspected(ProcessId(1)));
    }

    #[test]
    fn windows_for_other_observers_ignored() {
        let other = SuspicionWindow {
            observer: ProcessId(1),
            ..window(1, 0, 100)
        };
        let mut fd = OverlayFd::new(2, ProcessId(0), QuiescentFd, vec![other]);
        let mut out = Vec::new();
        fd.tick(VTime::ZERO + VDur::millis(50), &mut out);
        assert!(out.is_empty());
        assert_eq!(
            fd.tick_interval(),
            None,
            "no retained windows, quiescent inner"
        );
    }

    #[test]
    fn genuine_suspicion_passes_through_and_outlives_window() {
        // Inner heartbeat detector also suspects p1 (real silence); the
        // overlay window closing must not restore it.
        let cfg = FdConfig {
            heartbeat_interval: VDur::millis(10),
            timeout: VDur::millis(50),
            timeout_increment: VDur::millis(20),
        };
        let inner = HeartbeatFd::new(2, ProcessId(0), cfg);
        let mut fd = OverlayFd::new(2, ProcessId(0), inner, vec![window(1, 10, 30)]);
        let mut out = Vec::new();
        fd.tick(VTime::ZERO + VDur::millis(15), &mut out);
        assert_eq!(out, [FdEvent::Suspect(ProcessId(1))]);
        out.clear();
        // At 35 ms the window closed, but p1 has been silent > 50 ms? No:
        // only 35 ms. Inner does not suspect yet → restore.
        fd.tick(VTime::ZERO + VDur::millis(35), &mut out);
        assert_eq!(out, [FdEvent::Restore(ProcessId(1))]);
        out.clear();
        // At 80 ms the inner detector genuinely suspects (silence 80 ms
        // > 50 ms timeout): suspect again, no window involved.
        fd.tick(VTime::ZERO + VDur::millis(80), &mut out);
        assert_eq!(out, [FdEvent::Suspect(ProcessId(1))]);
        // A heartbeat restores through the overlay.
        out.clear();
        fd.on_heartbeat(ProcessId(1), VTime::ZERO + VDur::millis(81), &mut out);
        assert_eq!(out, [FdEvent::Restore(ProcessId(1))]);
    }

    #[test]
    fn overlapping_forced_and_real_emit_single_transition() {
        let cfg = FdConfig {
            heartbeat_interval: VDur::millis(10),
            timeout: VDur::millis(20),
            timeout_increment: VDur::millis(10),
        };
        let inner = HeartbeatFd::new(2, ProcessId(0), cfg);
        let mut fd = OverlayFd::new(2, ProcessId(0), inner, vec![window(1, 10, 200)]);
        let mut out = Vec::new();
        // Forced at 10 ms, genuine from ~20 ms: exactly one Suspect.
        fd.tick(VTime::ZERO + VDur::millis(15), &mut out);
        fd.tick(VTime::ZERO + VDur::millis(50), &mut out);
        fd.tick(VTime::ZERO + VDur::millis(150), &mut out);
        assert_eq!(out, [FdEvent::Suspect(ProcessId(1))]);
    }

    #[test]
    fn a_forced_window_wins_over_implicit_liveness() {
        let cfg = FdConfig {
            heartbeat_interval: VDur::millis(10),
            timeout: VDur::millis(50),
            timeout_increment: VDur::millis(20),
        };
        let inner = HeartbeatFd::new(2, ProcessId(0), cfg);
        let mut fd = OverlayFd::new(2, ProcessId(0), inner, vec![window(1, 10, 30)]);
        let mut out = Vec::new();
        // A message from p1 arrives before every tick, as on a busy
        // link; the window still slanders it, and only the window.
        for ms in (5..60).step_by(5) {
            let now = VTime::ZERO + VDur::millis(ms);
            fd.note_alive(ProcessId(1), now, &mut out);
            fd.tick(now, &mut out);
            assert_eq!(
                fd.is_suspected(ProcessId(1)),
                (10..30).contains(&ms),
                "{ms} ms"
            );
        }
        assert_eq!(
            out,
            [
                FdEvent::Suspect(ProcessId(1)),
                FdEvent::Restore(ProcessId(1))
            ]
        );
    }

    #[test]
    fn the_inner_deadline_passes_through() {
        let cfg = FdConfig {
            heartbeat_interval: VDur::millis(10),
            timeout: VDur::millis(50),
            timeout_increment: VDur::millis(20),
        };
        let just_past = |ms: u64| Some(VDur::millis(ms) + VDur::nanos(1));
        let mut out = Vec::new();
        // No windows: the inner core's deadline, not its cadence.
        let inner = HeartbeatFd::new(2, ProcessId(0), cfg.clone());
        let mut fd = OverlayFd::new(2, ProcessId(0), inner, Vec::new());
        fd.tick(VTime::ZERO + VDur::millis(43), &mut out);
        assert_eq!(fd.tick_interval(), just_past(7));
        assert_eq!(fd.heartbeat_interval(), Some(cfg.heartbeat_interval));
        // While windows are open, the earlier of it and the resolution.
        let inner = HeartbeatFd::new(2, ProcessId(0), cfg);
        let mut fd = OverlayFd::new(2, ProcessId(0), inner, vec![window(1, 60, 100)]);
        fd.tick(VTime::ZERO + VDur::millis(48), &mut out);
        assert_eq!(fd.tick_interval(), just_past(2));
        assert!(out.is_empty());
    }

    #[test]
    fn tick_interval_accounts_for_windows() {
        let mut fd = OverlayFd::new(2, ProcessId(0), QuiescentFd, vec![window(1, 0, 10)]);
        assert_eq!(fd.tick_interval(), Some(VDur::millis(5)));
        // Once a tick lands past the last window, the fast cadence is
        // dropped (here: back to the quiescent inner's no-tick).
        let mut out = Vec::new();
        fd.tick(VTime::ZERO + VDur::millis(9), &mut out);
        assert_eq!(fd.tick_interval(), Some(VDur::millis(5)));
        fd.tick(VTime::ZERO + VDur::millis(10), &mut out);
        assert_eq!(fd.tick_interval(), None);
        let cfg = FdConfig::default();
        let hb = OverlayFd::new(
            2,
            ProcessId(0),
            HeartbeatFd::new(2, ProcessId(0), cfg.clone()),
            vec![window(1, 0, 10)],
        );
        assert_eq!(
            hb.tick_interval(),
            Some(VDur::millis(5).min(cfg.heartbeat_interval))
        );
    }
}
