//! Failure-detector cores, independent of the composition framework.
//!
//! A core is a pure state machine consuming heartbeats and clock ticks
//! and emitting suspicion transitions. The framework adapter
//! ([`crate::FdModule`]) runs a core inside the modular stack; the
//! monolithic stack embeds a core directly — both stacks therefore share
//! the exact same detector behaviour, as in the paper's setup.

use fortika_net::ProcessId;
use fortika_sim::{VDur, VTime};

/// A suspicion transition emitted by a failure detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FdEvent {
    /// The detector started suspecting the process.
    Suspect(ProcessId),
    /// The detector stopped suspecting the process.
    Restore(ProcessId),
}

/// A failure-detector core.
pub trait FailureDetector {
    /// Notes a heartbeat received from `from` at instant `now`.
    fn on_heartbeat(&mut self, from: ProcessId, now: VTime, out: &mut Vec<FdEvent>);

    /// Periodic clock tick: emits newly due suspicion transitions.
    fn tick(&mut self, now: VTime, out: &mut Vec<FdEvent>);

    /// How often [`tick`](Self::tick) should run; `None` disables ticking.
    fn tick_interval(&self) -> Option<VDur>;

    /// How often the host should emit heartbeats. Defaults to the tick
    /// interval; detectors that tick faster than they want heartbeats
    /// sent (e.g. fine-grained chaos overlays) override this so the
    /// host's heartbeat cadence stays decoupled from polling.
    fn heartbeat_interval(&self) -> Option<VDur> {
        self.tick_interval()
    }

    /// Whether this detector requires the host to emit heartbeats.
    fn sends_heartbeats(&self) -> bool;

    /// Current suspicion status of `p`.
    fn is_suspected(&self, p: ProcessId) -> bool;

    /// Replaces the monitor set with `members` (dynamic membership: the
    /// detector follows the active configuration). Newly monitored
    /// processes anchor their silence windows at `now`; a process that
    /// re-enters while suspected is restored through `out`. Detectors
    /// without a monitor set (scripted, quiescent) ignore the call.
    fn set_members(&mut self, members: &[ProcessId], now: VTime, out: &mut Vec<FdEvent>) {
        let _ = (members, now, out);
    }
}

/// When the host of a detector core owes its peers a heartbeat: the one
/// pacing rule both stacks' detector hosts follow on every polling tick.
#[derive(Debug, Default)]
pub struct HeartbeatPacer {
    last: Option<VTime>,
}

impl HeartbeatPacer {
    /// True when `fd`'s host should broadcast a heartbeat at this tick
    /// (the pacer then counts it as sent). Heartbeats go out on the
    /// core's heartbeat cadence, which may be coarser than the polling
    /// tick (chaos overlays tick fast to fire their windows promptly
    /// without inflating traffic).
    pub fn due(&mut self, fd: &(impl FailureDetector + ?Sized), now: VTime) -> bool {
        if !fd.sends_heartbeats() {
            return false;
        }
        let due = match (self.last, fd.heartbeat_interval()) {
            (Some(last), Some(interval)) => now.since(last) >= interval,
            _ => true,
        };
        if due {
            self.last = Some(now);
        }
        due
    }
}

/// Configuration of the heartbeat-based eventually-perfect detector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FdConfig {
    /// Interval between outgoing heartbeats.
    pub heartbeat_interval: VDur,
    /// Initial suspicion timeout.
    pub timeout: VDur,
    /// Amount added to a process's timeout after a false suspicion
    /// (the standard ◇P adaptation: eventually no correct process is
    /// suspected because its timeout outgrows message delays).
    pub timeout_increment: VDur,
}

impl Default for FdConfig {
    fn default() -> Self {
        FdConfig {
            heartbeat_interval: VDur::millis(100),
            // Generous relative to LAN delays so good runs see no wrong
            // suspicions even under CPU saturation (paper §5.1 evaluates
            // good runs only).
            timeout: VDur::millis(500),
            timeout_increment: VDur::millis(250),
        }
    }
}

/// Heartbeat-based eventually-perfect (◇P-style) failure detector.
///
/// Every process periodically heartbeats all others; a silence longer
/// than the (per-process, adaptive) timeout triggers suspicion. A
/// heartbeat from a suspected process cancels the suspicion and enlarges
/// that process's timeout.
///
/// # Example
///
/// ```
/// use fortika_fd::{FailureDetector, FdConfig, FdEvent, HeartbeatFd};
/// use fortika_net::ProcessId;
/// use fortika_sim::{VDur, VTime};
///
/// let mut fd = HeartbeatFd::new(3, ProcessId(0), FdConfig::default());
/// let mut out = Vec::new();
/// // Silence for 1 s: both peers become suspected.
/// fd.tick(VTime::ZERO + VDur::secs(1), &mut out);
/// assert_eq!(out.len(), 2);
/// assert!(fd.is_suspected(ProcessId(1)));
/// // A heartbeat restores p2.
/// out.clear();
/// fd.on_heartbeat(ProcessId(1), VTime::ZERO + VDur::secs(1), &mut out);
/// assert_eq!(out, [FdEvent::Restore(ProcessId(1))]);
/// ```
#[derive(Debug, Clone)]
pub struct HeartbeatFd {
    me: ProcessId,
    cfg: FdConfig,
    last_heard: Vec<VTime>,
    timeout: Vec<VDur>,
    suspected: Vec<bool>,
    /// Monitor mask: only current members are suspected on silence
    /// (dynamic membership — see [`FailureDetector::set_members`]).
    members: Vec<bool>,
    /// True while `me` is a member: only members emit heartbeats; a
    /// learner (removed or not-yet-added process) listens silently.
    active: bool,
}

impl HeartbeatFd {
    /// Creates a detector for a group of `n` processes, running at `me`.
    pub fn new(n: usize, me: ProcessId, cfg: FdConfig) -> Self {
        Self::new_anchored(n, me, cfg, VTime::ZERO)
    }

    /// Like [`new`](Self::new), but anchors every silence window at
    /// `now` instead of time zero.
    ///
    /// A detector built for a process **revived mid-run** must use this:
    /// anchored at zero, its very first tick would read hours of
    /// fictitious silence and suspect the whole (healthy) group, and the
    /// resulting round-change storm would stall the node's own rejoin.
    pub fn new_anchored(n: usize, me: ProcessId, cfg: FdConfig, now: VTime) -> Self {
        HeartbeatFd {
            me,
            timeout: vec![cfg.timeout; n],
            last_heard: vec![now; n],
            suspected: vec![false; n],
            members: vec![true; n],
            active: true,
            cfg,
        }
    }

    /// The configured heartbeat interval.
    pub fn config(&self) -> &FdConfig {
        &self.cfg
    }
}

impl FailureDetector for HeartbeatFd {
    fn on_heartbeat(&mut self, from: ProcessId, now: VTime, out: &mut Vec<FdEvent>) {
        let i = from.index();
        if i >= self.last_heard.len() || from == self.me {
            return;
        }
        let silence = now.since(self.last_heard[i]);
        self.last_heard[i] = now;
        if self.suspected[i] {
            self.suspected[i] = false;
            if silence > self.timeout[i] + self.timeout[i] {
                // Silence far beyond the timeout means the peer really
                // was down and has recovered (crash-recovery), not that
                // our timeout was too tight: un-suspect it and reset its
                // window to the configured base instead of inflating the
                // adaptive timeout forever.
                self.timeout[i] = self.cfg.timeout;
            } else {
                // False suspicion: adapt so it eventually stops
                // recurring (the standard ◇P accuracy argument).
                self.timeout[i] += self.cfg.timeout_increment;
            }
            out.push(FdEvent::Restore(from));
        }
    }

    fn tick(&mut self, now: VTime, out: &mut Vec<FdEvent>) {
        for i in 0..self.last_heard.len() {
            if i == self.me.index() || self.suspected[i] || !self.members[i] {
                continue;
            }
            if now.since(self.last_heard[i]) > self.timeout[i] {
                self.suspected[i] = true;
                out.push(FdEvent::Suspect(ProcessId(i as u16)));
            }
        }
    }

    fn tick_interval(&self) -> Option<VDur> {
        Some(self.cfg.heartbeat_interval)
    }

    fn sends_heartbeats(&self) -> bool {
        self.active
    }

    fn is_suspected(&self, p: ProcessId) -> bool {
        self.suspected.get(p.index()).copied().unwrap_or(false)
    }

    fn set_members(&mut self, members: &[ProcessId], now: VTime, out: &mut Vec<FdEvent>) {
        let mut mask = vec![false; self.last_heard.len()];
        for p in members {
            if p.index() < mask.len() {
                mask[p.index()] = true;
            }
        }
        for (i, now_member) in mask.iter().enumerate() {
            if *now_member && !self.members[i] {
                // Newly monitored: anchor its silence window here (it
                // may never have heartbeat before) and start from the
                // base timeout with a clean slate.
                self.last_heard[i] = now;
                self.timeout[i] = self.cfg.timeout;
                if self.suspected[i] {
                    self.suspected[i] = false;
                    out.push(FdEvent::Restore(ProcessId(i as u16)));
                }
            }
        }
        // Departed members keep their suspicion flag (a crashed member
        // that was removed really is down); they are simply no longer
        // monitored for fresh silence.
        self.members = mask;
        self.active = members.contains(&self.me);
    }
}

/// A detector that never suspects anyone and sends no heartbeats.
///
/// Useful for good-run micro-benchmarks where even the (tiny) heartbeat
/// traffic should be excluded; the full figure harnesses use
/// [`HeartbeatFd`] as the paper's stacks did.
#[derive(Debug, Clone, Default)]
pub struct QuiescentFd;

impl FailureDetector for QuiescentFd {
    fn on_heartbeat(&mut self, _: ProcessId, _: VTime, _: &mut Vec<FdEvent>) {}
    fn tick(&mut self, _: VTime, _: &mut Vec<FdEvent>) {}
    fn tick_interval(&self) -> Option<VDur> {
        None
    }
    fn sends_heartbeats(&self) -> bool {
        false
    }
    fn is_suspected(&self, _: ProcessId) -> bool {
        false
    }
}

/// A detector driven by a pre-programmed schedule of transitions —
/// the fault-injection tool of the test-suite (wrong suspicions at
/// chosen instants, targeted suspicion of a crashed coordinator, …).
#[derive(Debug, Clone)]
pub struct ScriptedFd {
    /// Remaining script, sorted by time ascending.
    script: Vec<(VTime, FdEvent)>,
    next: usize,
    suspected: Vec<bool>,
    resolution: VDur,
}

impl ScriptedFd {
    /// Creates a scripted detector for a group of `n` processes.
    ///
    /// `script` entries fire at (or just after) their instant, in order.
    /// `resolution` bounds the firing lag (the polling tick).
    pub fn new(n: usize, mut script: Vec<(VTime, FdEvent)>, resolution: VDur) -> Self {
        script.sort_by_key(|&(t, _)| t);
        ScriptedFd {
            script,
            next: 0,
            suspected: vec![false; n],
            resolution,
        }
    }
}

impl FailureDetector for ScriptedFd {
    fn on_heartbeat(&mut self, _: ProcessId, _: VTime, _: &mut Vec<FdEvent>) {}

    fn tick(&mut self, now: VTime, out: &mut Vec<FdEvent>) {
        while self.next < self.script.len() && self.script[self.next].0 <= now {
            let (_, ev) = self.script[self.next];
            self.next += 1;
            let (idx, flag) = match ev {
                FdEvent::Suspect(p) => (p.index(), true),
                FdEvent::Restore(p) => (p.index(), false),
            };
            if self.suspected[idx] != flag {
                self.suspected[idx] = flag;
                out.push(ev);
            }
        }
    }

    fn tick_interval(&self) -> Option<VDur> {
        Some(self.resolution)
    }

    fn sends_heartbeats(&self) -> bool {
        false
    }

    fn is_suspected(&self, p: ProcessId) -> bool {
        self.suspected.get(p.index()).copied().unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> FdConfig {
        FdConfig {
            heartbeat_interval: VDur::millis(10),
            timeout: VDur::millis(50),
            timeout_increment: VDur::millis(25),
        }
    }

    #[test]
    fn regular_heartbeats_prevent_suspicion() {
        let mut fd = HeartbeatFd::new(2, ProcessId(0), cfg());
        let mut out = Vec::new();
        for ms in (0..200).step_by(10) {
            let now = VTime::ZERO + VDur::millis(ms);
            fd.on_heartbeat(ProcessId(1), now, &mut out);
            fd.tick(now, &mut out);
        }
        assert!(out.is_empty());
        assert!(!fd.is_suspected(ProcessId(1)));
    }

    #[test]
    fn silence_triggers_suspicion_once() {
        let mut fd = HeartbeatFd::new(2, ProcessId(0), cfg());
        let mut out = Vec::new();
        fd.tick(VTime::ZERO + VDur::millis(100), &mut out);
        fd.tick(VTime::ZERO + VDur::millis(200), &mut out);
        assert_eq!(out, [FdEvent::Suspect(ProcessId(1))]);
    }

    #[test]
    fn restore_grows_timeout() {
        let mut fd = HeartbeatFd::new(2, ProcessId(0), cfg());
        let mut out = Vec::new();
        // Suspect after 60 ms of silence (timeout 50 ms).
        fd.tick(VTime::ZERO + VDur::millis(60), &mut out);
        assert_eq!(out, [FdEvent::Suspect(ProcessId(1))]);
        out.clear();
        // Late heartbeat restores and bumps the timeout to 75 ms.
        fd.on_heartbeat(ProcessId(1), VTime::ZERO + VDur::millis(60), &mut out);
        assert_eq!(out, [FdEvent::Restore(ProcessId(1))]);
        out.clear();
        // 70 ms of new silence: below the enlarged timeout — no suspicion.
        fd.tick(VTime::ZERO + VDur::millis(130), &mut out);
        assert!(out.is_empty());
        // 80 ms of silence: suspected again.
        fd.tick(VTime::ZERO + VDur::millis(141), &mut out);
        assert_eq!(out, [FdEvent::Suspect(ProcessId(1))]);
    }

    #[test]
    fn recovery_after_long_silence_resets_timeout() {
        let mut fd = HeartbeatFd::new(2, ProcessId(0), cfg());
        let mut out = Vec::new();
        // p2 goes silent for 500 ms (10× the 50 ms timeout): suspected.
        fd.tick(VTime::ZERO + VDur::millis(60), &mut out);
        assert_eq!(out, [FdEvent::Suspect(ProcessId(1))]);
        out.clear();
        // It comes back (restart): restored, and the timeout stays at
        // the configured base — a genuine crash is not a false
        // suspicion, so the adaptive window must not inflate.
        fd.on_heartbeat(ProcessId(1), VTime::ZERO + VDur::millis(500), &mut out);
        assert_eq!(out, [FdEvent::Restore(ProcessId(1))]);
        out.clear();
        // 60 ms of new silence: above the (un-inflated) 50 ms timeout,
        // so the detector reacts at its original speed.
        fd.tick(VTime::ZERO + VDur::millis(561), &mut out);
        assert_eq!(out, [FdEvent::Suspect(ProcessId(1))]);
    }

    #[test]
    fn anchored_detector_measures_silence_from_anchor() {
        let start = VTime::ZERO + VDur::secs(3);
        let mut fd = HeartbeatFd::new_anchored(3, ProcessId(0), cfg(), start);
        let mut out = Vec::new();
        // Just after revival nothing is suspected, despite 3 s of
        // pre-revival "silence".
        fd.tick(start + VDur::millis(10), &mut out);
        assert!(out.is_empty());
        // Real silence past the timeout is still detected.
        fd.tick(start + VDur::millis(60), &mut out);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn own_process_never_suspected() {
        let mut fd = HeartbeatFd::new(3, ProcessId(1), cfg());
        let mut out = Vec::new();
        fd.tick(VTime::ZERO + VDur::secs(10), &mut out);
        assert!(!fd.is_suspected(ProcessId(1)));
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn membership_mask_gates_suspicion_and_heartbeats() {
        // Capacity 4, but only {p1, p2} are members: the standby p3/p4
        // never heartbeat and must not be suspected for it.
        let mut fd = HeartbeatFd::new(4, ProcessId(0), cfg());
        let mut out = Vec::new();
        let members = [ProcessId(0), ProcessId(1)];
        fd.set_members(&members, VTime::ZERO, &mut out);
        assert!(out.is_empty());
        assert!(fd.sends_heartbeats());
        fd.tick(VTime::ZERO + VDur::secs(10), &mut out);
        assert_eq!(out, [FdEvent::Suspect(ProcessId(1))], "members only");
        assert!(!fd.is_suspected(ProcessId(2)));
        out.clear();

        // p3 joins at t=10s: silence anchored at the join, so it gets a
        // full fresh timeout before suspicion.
        let now = VTime::ZERO + VDur::secs(10);
        fd.set_members(&[ProcessId(0), ProcessId(1), ProcessId(2)], now, &mut out);
        fd.tick(now + VDur::millis(40), &mut out);
        assert!(out.is_empty(), "within p3's fresh window");
        fd.tick(now + VDur::millis(60), &mut out);
        assert_eq!(out, [FdEvent::Suspect(ProcessId(2))]);
        out.clear();

        // Removing this process turns it into a silent learner.
        fd.set_members(&[ProcessId(1), ProcessId(2)], now, &mut out);
        assert!(!fd.sends_heartbeats());
    }

    #[test]
    fn readded_suspected_member_is_restored() {
        let mut fd = HeartbeatFd::new(3, ProcessId(0), cfg());
        let mut out = Vec::new();
        fd.tick(VTime::ZERO + VDur::secs(1), &mut out);
        assert!(fd.is_suspected(ProcessId(2)));
        out.clear();
        // p3 leaves while suspected (flag kept), then rejoins: the
        // re-entry must be reported upward as a restore so observers'
        // suspicion sets match the detector's.
        fd.set_members(
            &[ProcessId(0), ProcessId(1)],
            VTime::ZERO + VDur::secs(1),
            &mut out,
        );
        assert!(out.is_empty());
        assert!(fd.is_suspected(ProcessId(2)), "departed member keeps flag");
        let now = VTime::ZERO + VDur::secs(2);
        fd.set_members(&[ProcessId(0), ProcessId(1), ProcessId(2)], now, &mut out);
        assert_eq!(out, [FdEvent::Restore(ProcessId(2))]);
        assert!(!fd.is_suspected(ProcessId(2)));
    }

    #[test]
    fn quiescent_fd_is_silent() {
        let mut fd = QuiescentFd;
        let mut out = Vec::new();
        fd.tick(VTime::ZERO + VDur::secs(100), &mut out);
        fd.on_heartbeat(ProcessId(0), VTime::ZERO, &mut out);
        assert!(out.is_empty());
        assert_eq!(fd.tick_interval(), None);
        assert!(!fd.sends_heartbeats());
    }

    #[test]
    fn scripted_fd_follows_schedule() {
        let script = vec![
            (
                VTime::ZERO + VDur::millis(10),
                FdEvent::Suspect(ProcessId(0)),
            ),
            (
                VTime::ZERO + VDur::millis(30),
                FdEvent::Restore(ProcessId(0)),
            ),
        ];
        let mut fd = ScriptedFd::new(2, script, VDur::millis(1));
        let mut out = Vec::new();
        fd.tick(VTime::ZERO + VDur::millis(5), &mut out);
        assert!(out.is_empty());
        fd.tick(VTime::ZERO + VDur::millis(10), &mut out);
        assert_eq!(out, [FdEvent::Suspect(ProcessId(0))]);
        assert!(fd.is_suspected(ProcessId(0)));
        out.clear();
        fd.tick(VTime::ZERO + VDur::millis(100), &mut out);
        assert_eq!(out, [FdEvent::Restore(ProcessId(0))]);
        assert!(!fd.is_suspected(ProcessId(0)));
    }

    #[test]
    fn scripted_fd_dedups_redundant_transitions() {
        let script = vec![
            (VTime::ZERO, FdEvent::Restore(ProcessId(1))), // already unsuspected
            (
                VTime::ZERO + VDur::millis(1),
                FdEvent::Suspect(ProcessId(1)),
            ),
            (
                VTime::ZERO + VDur::millis(2),
                FdEvent::Suspect(ProcessId(1)),
            ),
        ];
        let mut fd = ScriptedFd::new(2, script, VDur::millis(1));
        let mut out = Vec::new();
        fd.tick(VTime::ZERO + VDur::secs(1), &mut out);
        assert_eq!(out, [FdEvent::Suspect(ProcessId(1))]);
    }
}
