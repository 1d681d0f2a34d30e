//! Failure-detector cores, independent of the composition framework.
//!
//! A core is a pure state machine consuming evidence of life and clock
//! ticks and emitting suspicion transitions. The framework adapter
//! ([`crate::FdModule`]) runs a core inside the modular stack; the
//! monolithic stack embeds a core directly — both stacks therefore share
//! the exact same detector behaviour, as in the paper's setup, and both
//! pace it with the one [`HeartbeatPacer`] rule.

use fortika_net::{NodeCtx, ProcessId};
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
    /// Notes a heartbeat received from `from` at instant `now`. The
    /// same evidence as any other message, noted at once.
    fn on_heartbeat(&mut self, from: ProcessId, now: VTime, out: &mut Vec<FdEvent>) {
        self.note_alive(from, now, out);
    }

    /// Notes that a message from `from` — any message — arrived at
    /// instant `at` (implicit heartbeats: see [`HeartbeatPacer`]).
    /// Evidence older than what the detector already holds changes
    /// nothing. Detectors that do not time silence ignore it.
    fn note_alive(&mut self, from: ProcessId, at: VTime, out: &mut Vec<FdEvent>) {
        let _ = (from, at, out);
    }

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

/// What a detector host's transport tells the pacer: the process it
/// runs on, the time, and the clock of its links. Both stacks'
/// handler contexts provide it — [`NodeCtx`] for the monolith,
/// `FrameworkCtx` for [`FdModule`](crate::FdModule) — by reading the
/// cluster's per-link transport clock, which is free in the model.
pub trait LinkClock {
    /// This process.
    fn pid(&self) -> ProcessId;
    /// Group size (every process the host may talk to).
    fn n(&self) -> usize;
    /// Current instant.
    fn now(&self) -> VTime;
    /// When the last message from `peer` arrived here, if any has.
    fn last_arrival_from(&self, peer: ProcessId) -> Option<VTime>;
    /// When this process last sent to `peer`, if it has.
    fn last_send_to(&self, peer: ProcessId) -> Option<VTime>;
}

impl LinkClock for NodeCtx<'_> {
    fn pid(&self) -> ProcessId {
        NodeCtx::pid(self)
    }
    fn n(&self) -> usize {
        NodeCtx::n(self)
    }
    fn now(&self) -> VTime {
        NodeCtx::now(self)
    }
    fn last_arrival_from(&self, peer: ProcessId) -> Option<VTime> {
        NodeCtx::last_arrival_from(self, peer)
    }
    fn last_send_to(&self, peer: ProcessId) -> Option<VTime> {
        NodeCtx::last_send_to(self, peer)
    }
}

/// The one per-tick rule both stacks' detector hosts follow: any
/// message is a heartbeat.
///
/// On every polling tick the host hands the detector the arrival time
/// of each peer's last message ([`FailureDetector::note_alive`]), lets
/// it tick, and then heartbeats only the peers it sent nothing to
/// within the detector's heartbeat interval. A link that carries
/// protocol traffic therefore carries no heartbeats, and a link that
/// falls idle gets its first heartbeat at the first tick at least one
/// interval after its last message — so no link goes longer than two
/// intervals (plus a tick's CPU queueing) without evidence, well inside
/// the timeout. The interval may be coarser than the polling tick
/// (chaos overlays tick fast to fire their windows promptly without
/// inflating traffic).
///
/// Detection bound: a crashed peer is suspected no earlier than
/// `timeout` after the last message that arrived from it, and no later
/// than that plus one tick — the same worst case as explicit
/// heartbeats, timed from the last message rather than the last
/// heartbeat.
#[derive(Debug)]
pub struct HeartbeatPacer;

impl HeartbeatPacer {
    /// Runs one polling tick of `fd` at its host: feeds it every
    /// peer's last arrival, ticks it (transitions go to `out`), and
    /// calls `heartbeat` once for every peer owed one, in pid order.
    pub fn tick<C: LinkClock + ?Sized>(
        fd: &mut (impl FailureDetector + ?Sized),
        ctx: &mut C,
        out: &mut Vec<FdEvent>,
        mut heartbeat: impl FnMut(&mut C, ProcessId),
    ) {
        let (me, n, now) = (ctx.pid(), ctx.n(), ctx.now());
        for p in ProcessId::all(n).filter(|&p| p != me) {
            if let Some(at) = ctx.last_arrival_from(p) {
                fd.note_alive(p, at, out);
            }
        }
        fd.tick(now, out);
        if !fd.sends_heartbeats() {
            return;
        }
        let interval = fd.heartbeat_interval();
        for p in ProcessId::all(n).filter(|&p| p != me) {
            let owed = match (ctx.last_send_to(p), interval) {
                (Some(sent), Some(interval)) => now.since(sent) >= interval,
                _ => true,
            };
            if owed {
                heartbeat(ctx, p);
            }
        }
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
/// Every message from a process is evidence that it is alive; a
/// silence longer than the (per-process, adaptive) timeout triggers
/// suspicion. Evidence from a suspected process — a heartbeat, or any
/// message its host saw arrive ([`FailureDetector::note_alive`]) —
/// cancels the suspicion and enlarges that process's timeout. Its host
/// heartbeats only links that are otherwise idle ([`HeartbeatPacer`]).
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
    fn note_alive(&mut self, from: ProcessId, at: VTime, out: &mut Vec<FdEvent>) {
        let i = from.index();
        // Only news counts: evidence the detector already holds (the
        // same arrival fed again on every tick) must neither move the
        // window back nor restore a peer suspected despite it.
        if i >= self.last_heard.len() || from == self.me || at <= self.last_heard[i] {
            return;
        }
        let silence = at.since(self.last_heard[i]);
        self.last_heard[i] = at;
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
/// It serves as the silent inner detector of `OverlayFd`'s tests, where
/// only the scripted windows may suspect. Every stack and harness uses
/// [`HeartbeatFd`], as the paper's stacks did.
#[derive(Debug, Clone, Default)]
pub struct QuiescentFd;

impl FailureDetector for QuiescentFd {
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

    /// A host's transport for pacer tests: per-peer arrival and send
    /// clocks, and every heartbeat the pacer had sent.
    struct FakeLink {
        me: ProcessId,
        now: VTime,
        heard: Vec<Option<VTime>>,
        sent: Vec<Option<VTime>>,
        heartbeats: Vec<(VTime, ProcessId)>,
    }

    impl FakeLink {
        fn new(n: usize, me: ProcessId) -> Self {
            FakeLink {
                me,
                now: VTime::ZERO,
                heard: vec![None; n],
                sent: vec![None; n],
                heartbeats: Vec::new(),
            }
        }

        /// One pacer tick at `now`; returns the detector's transitions.
        fn pace(&mut self, fd: &mut impl FailureDetector, now: VTime) -> Vec<FdEvent> {
            self.now = now;
            let mut out = Vec::new();
            HeartbeatPacer::tick(fd, self, &mut out, |link, p| {
                link.sent[p.index()] = Some(link.now);
                link.heartbeats.push((link.now, p));
            });
            out
        }
    }

    impl LinkClock for FakeLink {
        fn pid(&self) -> ProcessId {
            self.me
        }
        fn n(&self) -> usize {
            self.sent.len()
        }
        fn now(&self) -> VTime {
            self.now
        }
        fn last_arrival_from(&self, peer: ProcessId) -> Option<VTime> {
            self.heard[peer.index()]
        }
        fn last_send_to(&self, peer: ProcessId) -> Option<VTime> {
            self.sent[peer.index()]
        }
    }

    fn ms(ms: u64) -> VTime {
        VTime::ZERO + VDur::millis(ms)
    }

    #[test]
    fn a_link_that_carried_traffic_within_the_interval_gets_no_heartbeat() {
        let mut fd = HeartbeatFd::new(4, ProcessId(0), cfg());
        let mut link = FakeLink::new(4, ProcessId(0));
        // p1's link carried a message 5 ms ago, p2's exactly one
        // interval ago, p3's never.
        link.sent[1] = Some(ms(95));
        link.sent[2] = Some(ms(90));
        link.pace(&mut fd, ms(100));
        assert_eq!(
            link.heartbeats,
            [(ms(100), ProcessId(2)), (ms(100), ProcessId(3))]
        );
    }

    #[test]
    fn an_idle_link_gets_one_heartbeat_every_interval() {
        let mut fd = HeartbeatFd::new(2, ProcessId(0), cfg());
        let mut link = FakeLink::new(2, ProcessId(0));
        for tick in 0..10 {
            link.pace(&mut fd, ms(10 * tick));
        }
        let expected: Vec<_> = (0..10).map(|t| (ms(10 * t), ProcessId(1))).collect();
        assert_eq!(link.heartbeats, expected);
        // A detector that sends none (a learner) is paced to silence.
        fd.set_members(&[ProcessId(1)], ms(100), &mut Vec::new());
        link.pace(&mut fd, ms(200));
        assert_eq!(link.heartbeats.len(), 10);
    }

    #[test]
    fn a_link_that_falls_idle_never_lacks_evidence_for_two_intervals() {
        let interval = cfg().heartbeat_interval;
        let step = VDur::micros(250);
        // Every phase of the polling tick against every instant the
        // protocol traffic stops.
        for phase_us in (0..10_000).step_by(1_250) {
            for quiet_ms in 20..32 {
                let mut fd = HeartbeatFd::new(2, ProcessId(0), cfg());
                let mut link = FakeLink::new(2, ProcessId(0));
                let mut next_tick = VTime::ZERO + VDur::micros(phase_us);
                let (mut last, mut longest) = (VTime::ZERO, VDur::ZERO);
                let mut now = VTime::ZERO;
                while now < ms(200) {
                    // A protocol message every millisecond until quiet.
                    if now < ms(quiet_ms) && now.as_nanos().is_multiple_of(1_000_000) {
                        link.sent[1] = Some(now);
                    }
                    if now == next_tick {
                        link.pace(&mut fd, now);
                        next_tick = now + interval;
                    }
                    if let Some(sent) = link.sent[1] {
                        longest = longest.max(sent.since(last));
                        last = sent;
                    }
                    now += step;
                }
                longest = longest.max(now.since(last));
                assert!(
                    longest <= interval * 2 && longest < cfg().timeout,
                    "phase {phase_us} us, quiet from {quiet_ms} ms: {longest} without evidence"
                );
            }
        }
    }

    #[test]
    fn note_alive_never_moves_back_and_restores_a_suspect() {
        let mut fd = HeartbeatFd::new(2, ProcessId(0), cfg());
        let mut out = Vec::new();
        fd.note_alive(ProcessId(1), ms(40), &mut out);
        // Older evidence (a message that arrived before) changes nothing.
        fd.note_alive(ProcessId(1), ms(20), &mut out);
        fd.tick(ms(85), &mut out);
        assert!(out.is_empty(), "45 ms since the latest evidence");
        fd.tick(ms(95), &mut out);
        assert_eq!(out, [FdEvent::Suspect(ProcessId(1))]);
        out.clear();
        // The evidence the suspicion was timed from, fed again on the
        // next tick, restores nothing.
        fd.note_alive(ProcessId(1), ms(40), &mut out);
        assert!(out.is_empty());
        assert!(fd.is_suspected(ProcessId(1)));
        // A message that arrived since does.
        fd.note_alive(ProcessId(1), ms(96), &mut out);
        assert_eq!(out, [FdEvent::Restore(ProcessId(1))]);
        assert!(!fd.is_suspected(ProcessId(1)));
    }

    #[test]
    fn the_pacer_feeds_arrivals_before_ticking() {
        let mut fd = HeartbeatFd::new(2, ProcessId(0), cfg());
        let mut link = FakeLink::new(2, ProcessId(0));
        // p1 sent no heartbeat, but a message from it arrived 10 ms
        // ago: 90 ms after the anchor, it is not suspected.
        link.heard[1] = Some(ms(80));
        assert!(link.pace(&mut fd, ms(90)).is_empty());
        // Silence from there on is timed from that message.
        assert!(link.pace(&mut fd, ms(130)).is_empty());
        assert_eq!(
            link.pace(&mut fd, ms(131)),
            [FdEvent::Suspect(ProcessId(1))]
        );
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
