//! The failure detector, independent of the composition framework.
//!
//! [`HeartbeatFd`] is a pure state machine consuming evidence of life
//! and clock ticks and emitting suspicion transitions. The framework
//! adapter ([`crate::FdModule`]) runs it inside the modular stack; the
//! monolithic stack embeds it directly — both stacks therefore share
//! the exact same detector behaviour, as in the paper's setup, and both
//! pace it with the one rule of [`HeartbeatFd::pace`].

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

/// A window during which `observer`'s detector must claim `suspect` is
/// crashed, regardless of heartbeats: a chaos scenario's scripted false
/// suspicion (see [`HeartbeatFd::with_windows`]).
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

/// What a detector host's transport tells [`HeartbeatFd::pace`]: the
/// process it runs on, the time, and the clock of its links. Both
/// stacks' handler contexts provide it — [`NodeCtx`] for the monolith,
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
        let heartbeat_interval = VDur::millis(100);
        FdConfig {
            heartbeat_interval,
            // The pacer heartbeats an idle link at its own deadline, so
            // it bounds every link's silence by one heartbeat interval
            // plus the CPU queued ahead of the sending tick; three
            // quarters of an interval covers that queueing. The
            // coordinator's links follow the same rule at half the
            // interval and half the timeout. Measured as the longest gap
            // between two consecutive arrivals on a directed link
            // (`RunReport::longest_silence`) over every fault-free run
            // of the committed sweeps, and held there by
            // `suspicion_audit`, a good run's longest silence is
            // 113.8 ms on a member's link, 61.2 ms under this timeout,
            // and 57.1 ms on the coordinator's (the monolith's n = 7,
            // 2 000 msgs/s, 16 KiB point of `BENCH_wide_window`),
            // 30.4 ms under its 87.5 ms (paper §5.1 evaluates good runs
            // only).
            timeout: heartbeat_interval * 7 / 4,
            timeout_increment: VDur::millis(250),
        }
    }
}

impl FdConfig {
    /// The heartbeat interval of the coordinator's idle links: half the
    /// interval, so that its links stay inside
    /// [`coordinator_timeout`](Self::coordinator_timeout) by the same
    /// seven-quarters rule.
    pub fn coordinator_interval(&self) -> VDur {
        self.heartbeat_interval / 2
    }

    /// The base timeout of the peer a process waits on, the coordinator
    /// of its current round: half the timeout (see
    /// [`HeartbeatFd::watch`]).
    pub fn coordinator_timeout(&self) -> VDur {
        self.timeout / 2
    }
}

/// The polling period while scripted suspicion windows can still open
/// or close: a window edge is reported at most this late.
pub(crate) const WINDOW_RESOLUTION: VDur = VDur::millis(5);

/// Heartbeat-based eventually-perfect (◇P-style) failure detector.
///
/// Every message from a process is evidence that it is alive; a
/// silence longer than the (per-process, adaptive) timeout triggers
/// suspicion — half of it for the one peer this process waits on, the
/// coordinator of its current round ([`watch`](Self::watch)), whose
/// idle links are heartbeat at half the interval in turn. Evidence
/// from a suspected process — a heartbeat, or any
/// message its host saw arrive ([`note_alive`](Self::note_alive)) —
/// cancels the suspicion and enlarges that process's timeout. Its host
/// heartbeats only links that are otherwise idle, each at its own
/// deadline ([`pace`](Self::pace)). It ticks every heartbeat interval,
/// or sooner when a monitored peer's silence would outlast its timeout
/// before then — the next tick lands just past that deadline, so a
/// crash is suspected at the timeout, not up to an interval later — or
/// when an idle link owes its heartbeat before then.
///
/// Chaos runs also script *wrong* suspicions
/// ([`with_windows`](Self::with_windows)) — the paper's §2.1 lets a
/// detector's output "be inaccurate", and both stacks must stay safe
/// when it slanders the current coordinator. A detector with windows
/// reports forced ∪ genuine suspicion; the genuine machinery keeps
/// running underneath, so real crashes are still detected.
///
/// # Example
///
/// ```
/// use fortika_fd::{FdConfig, FdEvent, HeartbeatFd};
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
    /// Genuine suspicion: silence past the timeout.
    suspected: Vec<bool>,
    /// The delay from the last tick to the next: the pacing interval,
    /// or sooner if a monitored peer's deadline or an idle link's
    /// heartbeat deadline falls before it.
    next_tick: VDur,
    /// When the detector last ticked (its anchor before the first
    /// tick): `next_tick` counts from here.
    last_tick: VTime,
    /// The peer this process waits on and the instant it became so
    /// (see [`watch`](Self::watch)).
    watched: Option<(ProcessId, VTime)>,
    /// Scripted false suspicions observed by this process. Without
    /// any, genuine transitions are reported as they happen; with some,
    /// [`reconcile`](Self::reconcile) reports forced ∪ genuine instead.
    windows: Vec<SuspicionWindow>,
    /// Suspicion state last reported upward, per process (kept only
    /// with windows) — transitions are emitted exactly once even when
    /// forced and genuine suspicion overlap.
    reported: Vec<bool>,
    /// End of the last window, until a tick lands at or past it: while
    /// set, the detector polls at the window resolution.
    polling_until: Option<VTime>,
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
            next_tick: cfg.heartbeat_interval,
            last_tick: now,
            watched: None,
            cfg,
            windows: Vec::new(),
            reported: Vec::new(),
            polling_until: None,
        }
    }

    /// Forces suspicion of chosen processes during chosen windows, on
    /// top of the genuine verdicts; only windows whose `observer` is
    /// this process are kept. With any, the reported suspicion is
    /// re-derived on every heartbeat and tick, and
    /// the detector polls every 5 ms until its last window closes.
    /// Forced windows never touch the heartbeat cadence or the adaptive
    /// timeouts.
    pub fn with_windows(mut self, windows: &[SuspicionWindow]) -> Self {
        let me = self.me;
        self.windows = windows
            .iter()
            .filter(|w| w.observer == me)
            .copied()
            .collect();
        self.polling_until = self.windows.iter().map(|w| w.until).max();
        if self.polling_until.is_some() {
            self.reported = vec![false; self.suspected.len()];
        }
        self
    }

    /// Notes a heartbeat received from `from` at instant `now`: the
    /// same evidence as any other message, noted at once.
    pub fn on_heartbeat(&mut self, from: ProcessId, now: VTime, out: &mut Vec<FdEvent>) {
        self.note_alive(from, now, out);
        self.reconcile(now, out);
    }

    /// Notes that a message from `from` — any message — arrived at
    /// instant `at` (implicit heartbeats: see [`pace`](Self::pace)).
    /// Evidence older than what the detector already holds changes
    /// nothing. With windows, a restore is reported by the next tick's
    /// reconcile, so a forced window still wins over implicit liveness.
    pub fn note_alive(&mut self, from: ProcessId, at: VTime, out: &mut Vec<FdEvent>) {
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
            self.genuine(i, false, out);
        }
    }

    /// Names the peer this process waits on at `now`: `coordinator`,
    /// that of its current round.
    ///
    /// That peer is timed out at half its timeout, its silence counted
    /// from the later of its last message and this hand-off, so a new
    /// coordinator is never suspected for a silence member pacing
    /// allowed it; it is never suspected later than any other peer
    /// would be. When it is this process, the pacer heartbeats its idle
    /// links at half the interval ([`pace`](Self::pace)). Every other
    /// peer keeps the timeout and every other process the interval.
    ///
    /// Returns, when the change brings the next tick before the one
    /// armed, the delay from `now` at which it is due: the host re-arms
    /// its tick there. A process that becomes coordinator ticks at once,
    /// to heartbeat the links its new interval finds idle; one handed
    /// over to another peer ticks by that peer's new deadline. The first
    /// coordinator a detector is told of is no hand-off: another peer is
    /// first checked at the detector's first tick, as every peer is.
    pub fn watch(&mut self, coordinator: ProcessId, now: VTime) -> Option<VDur> {
        if self.watched.is_some_and(|(p, _)| p == coordinator) {
            return None;
        }
        let handed_over = self.watched.replace((coordinator, now)).is_some();
        let i = coordinator.index();
        let due = if coordinator == self.me {
            now
        } else if handed_over && self.monitors(i) {
            (self.deadline(i) + VDur::nanos(1)).max(now)
        } else {
            return None;
        };
        let armed = self.last_tick + self.next_tick;
        if due >= armed {
            return None;
        }
        self.next_tick = due.since(self.last_tick);
        Some(due.since(now))
    }

    /// True while peer `i` is timed for silence: another process, not
    /// yet suspected.
    fn monitors(&self, i: usize) -> bool {
        i < self.suspected.len() && i != self.me.index() && !self.suspected[i]
    }

    /// When peer `i`'s silence reaches its timeout: half of it, counted
    /// from the hand-off at the latest, if this process waits on `i`.
    fn deadline(&self, i: usize) -> VTime {
        let heard = self.last_heard[i];
        let member = heard + self.timeout[i];
        match self.watched {
            Some((p, since)) if p.index() == i => {
                member.min(heard.max(since) + self.timeout[i] / 2)
            }
            _ => member,
        }
    }

    /// The pacing interval: half the heartbeat interval while this
    /// process is the coordinator it waits on.
    fn interval(&self) -> VDur {
        match self.watched {
            Some((p, _)) if p == self.me => self.cfg.coordinator_interval(),
            _ => self.cfg.heartbeat_interval,
        }
    }

    /// Clock tick: emits newly due suspicion transitions.
    pub fn tick(&mut self, now: VTime, out: &mut Vec<FdEvent>) {
        self.last_tick = now;
        self.next_tick = self.interval();
        for i in 0..self.last_heard.len() {
            if !self.monitors(i) {
                continue;
            }
            let deadline = self.deadline(i);
            if now > deadline {
                self.genuine(i, true, out);
            } else {
                // Silence must exceed the timeout: tick just past it.
                let due = deadline.since(now) + VDur::nanos(1);
                self.next_tick = self.next_tick.min(due);
            }
        }
        self.reconcile(now, out);
        if self.polling_until.is_some_and(|end| now >= end) {
            // Every window is closed and this reconcile saw it: drop
            // back to the genuine cadence.
            self.polling_until = None;
        }
    }

    /// The delay from the last [`tick`](Self::tick) to the next. Hosts
    /// re-arm from it after every tick: the pacing interval, or the
    /// delay to the first deadline when that comes before it — a
    /// monitored peer's silence deadline, or (after
    /// [`pace`](Self::pace)) an idle link's heartbeat deadline — or to
    /// the next window poll while windows can still open or close.
    pub fn tick_interval(&self) -> VDur {
        match self.polling_until {
            Some(_) => self.next_tick.min(WINDOW_RESOLUTION),
            None => self.next_tick,
        }
    }

    /// Current (reported) suspicion status of `p`.
    pub fn is_suspected(&self, p: ProcessId) -> bool {
        let reported = if self.windows.is_empty() {
            &self.suspected
        } else {
            &self.reported
        };
        reported.get(p.index()).copied().unwrap_or(false)
    }

    /// The one per-tick rule both stacks' detector hosts follow: any
    /// message is a heartbeat.
    ///
    /// Feeds the detector the arrival time of each peer's last message
    /// ([`note_alive`](Self::note_alive)), ticks it (transitions go to
    /// `out`), and then calls `heartbeat` once for every peer this
    /// process sent nothing to within the pacing interval — the
    /// heartbeat interval, or half of it while this process coordinates
    /// ([`watch`](Self::watch)) — in pid order. Every other link's own
    /// deadline — one interval after this process last sent on it —
    /// becomes a candidate for the next tick
    /// ([`tick_interval`](Self::tick_interval)). A link that carries
    /// protocol traffic therefore carries no heartbeats, and a link
    /// that falls idle gets its first heartbeat exactly one interval
    /// after its last message: no link goes longer than one interval
    /// (plus the CPU queued ahead of the sending tick) without
    /// evidence, inside the timeout.
    ///
    /// Detection bound: a crashed peer is suspected `timeout` after the
    /// last message that arrived from it — half that if it was the
    /// coordinator this process waited on — since the detector ticks at
    /// that deadline, so the only lag is the CPU time queued ahead of
    /// the tick; timed from the last message rather than the last
    /// heartbeat.
    pub fn pace<C: LinkClock + ?Sized>(
        &mut self,
        ctx: &mut C,
        out: &mut Vec<FdEvent>,
        mut heartbeat: impl FnMut(&mut C, ProcessId),
    ) {
        let (me, n, now) = (ctx.pid(), ctx.n(), ctx.now());
        for p in ProcessId::all(n).filter(|&p| p != me) {
            if let Some(at) = ctx.last_arrival_from(p) {
                self.note_alive(p, at, out);
            }
        }
        self.tick(now, out);
        let interval = self.interval();
        for p in ProcessId::all(n).filter(|&p| p != me) {
            match ctx.last_send_to(p).map(|sent| now.since(sent)) {
                // Not owed yet: tick again at this link's own deadline.
                Some(idle) if idle < interval => {
                    self.next_tick = self.next_tick.min(interval - idle)
                }
                _ => heartbeat(ctx, p),
            }
        }
    }

    /// Records a genuine transition of process `i`. Without windows it
    /// is reported at once; with them, [`reconcile`](Self::reconcile)
    /// re-derives it against the forced state.
    fn genuine(&mut self, i: usize, suspect: bool, out: &mut Vec<FdEvent>) {
        self.suspected[i] = suspect;
        if self.windows.is_empty() {
            out.push(transition(i, suspect));
        }
    }

    /// Reconciles the effective state (forced ∪ genuine) with what was
    /// last reported, emitting the difference; a no-op without windows.
    fn reconcile(&mut self, now: VTime, out: &mut Vec<FdEvent>) {
        for p in 0..self.reported.len() {
            let forced = self
                .windows
                .iter()
                .any(|w| w.suspect.index() == p && w.active_at(now));
            let effective = forced || self.suspected[p];
            if effective != self.reported[p] {
                self.reported[p] = effective;
                out.push(transition(p, effective));
            }
        }
    }
}

/// The event reporting that process `p` became suspected or restored.
fn transition(p: usize, suspect: bool) -> FdEvent {
    let p = ProcessId(p as u16);
    if suspect {
        FdEvent::Suspect(p)
    } else {
        FdEvent::Restore(p)
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
        fn pace(&mut self, fd: &mut HeartbeatFd, now: VTime) -> Vec<FdEvent> {
            self.now = now;
            let mut out = Vec::new();
            fd.pace(self, &mut out, |link, p| {
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
        // p1's link is owed its heartbeat at its own deadline.
        assert_eq!(fd.tick_interval(), VDur::millis(5));
    }

    #[test]
    fn a_link_last_sent_on_30_ms_ago_gets_its_heartbeat_70_ms_later() {
        let cfg = FdConfig::default();
        assert_eq!(cfg.heartbeat_interval, VDur::millis(100));
        let mut fd = HeartbeatFd::new(3, ProcessId(0), cfg);
        let mut link = FakeLink::new(3, ProcessId(0));
        // Both peers were just heard, so no silence deadline comes first.
        link.heard = vec![None, Some(ms(100)), Some(ms(100))];
        link.sent[1] = Some(ms(70));
        link.pace(&mut fd, ms(100));
        assert_eq!(link.heartbeats, [(ms(100), ProcessId(2))]);
        assert_eq!(fd.tick_interval(), VDur::millis(70));
        // At p1's deadline, p1 gets its heartbeat; p2's comes 30 ms on.
        link.pace(&mut fd, ms(170));
        assert_eq!(link.heartbeats[1..], [(ms(170), ProcessId(1))]);
        assert_eq!(fd.tick_interval(), VDur::millis(30));
        link.pace(&mut fd, ms(200));
        assert_eq!(link.heartbeats[2..], [(ms(200), ProcessId(2))]);
        assert_eq!(fd.tick_interval(), VDur::millis(70));
    }

    #[test]
    fn a_link_that_carries_traffic_never_gets_a_heartbeat() {
        let mut fd = HeartbeatFd::new(3, ProcessId(0), cfg());
        let mut link = FakeLink::new(3, ProcessId(0));
        let mut next_tick = VTime::ZERO;
        // p1's link carries a message every 3 ms; p2's nothing.
        for now in (0..500).map(ms) {
            if now.as_nanos().is_multiple_of(3_000_000) {
                link.sent[1] = Some(now);
                link.heard[1] = Some(now);
                link.heard[2] = Some(now);
            }
            if now == next_tick {
                assert!(link.pace(&mut fd, now).is_empty(), "at {now}");
                next_tick = now + fd.tick_interval();
            }
        }
        assert!(!link.heartbeats.is_empty());
        assert!(
            link.heartbeats.iter().all(|&(_, p)| p == ProcessId(2)),
            "{:?}",
            link.heartbeats
        );
    }

    #[test]
    fn tick_interval_is_the_earlier_of_the_silence_and_idle_link_deadlines() {
        let mut link = FakeLink::new(2, ProcessId(0));
        // p1 was heard at 0 (deadline 50 ms) and sent to at 38 ms (its
        // heartbeat is due at 48 ms): the idle link's deadline is first.
        link.heard[1] = Some(ms(0));
        link.sent[1] = Some(ms(38));
        let mut fd = HeartbeatFd::new(2, ProcessId(0), cfg());
        link.pace(&mut fd, ms(40));
        assert_eq!(fd.tick_interval(), VDur::millis(8));
        // Sent to at 45 ms instead (due at 55 ms): the silence deadline,
        // just past 50 ms, is first.
        link.sent[1] = Some(ms(45));
        let mut fd = HeartbeatFd::new(2, ProcessId(0), cfg());
        link.pace(&mut fd, ms(46));
        assert_eq!(fd.tick_interval(), VDur::millis(4) + VDur::nanos(1));
        assert!(link.heartbeats.is_empty());
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
    }

    #[test]
    fn a_link_that_falls_idle_never_lacks_evidence_for_two_intervals() {
        let interval = cfg().heartbeat_interval;
        let step = VDur::micros(250);
        // A host that re-arms from `tick_interval`, as both stacks do,
        // heartbeats the link one interval after its last message; one
        // that ticks every interval regardless, within two.
        for (rearms, bound) in [(true, interval), (false, interval * 2)] {
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
                        // A protocol message every millisecond until
                        // quiet. p1 keeps talking, so no silence
                        // deadline moves the tick.
                        if now < ms(quiet_ms) && now.as_nanos().is_multiple_of(1_000_000) {
                            link.sent[1] = Some(now);
                        }
                        link.heard[1] = Some(now);
                        if now == next_tick {
                            link.pace(&mut fd, now);
                            next_tick = now + if rearms { fd.tick_interval() } else { interval };
                        }
                        if let Some(sent) = link.sent[1] {
                            longest = longest.max(sent.since(last));
                            last = sent;
                        }
                        now += step;
                    }
                    longest = longest.max(now.since(last));
                    assert!(
                        longest <= bound && longest < cfg().timeout,
                        "re-arming {rearms}, phase {phase_us} us, quiet from {quiet_ms} ms: \
                         {longest} without evidence"
                    );
                }
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
    fn while_every_peer_is_fresh_the_next_tick_is_one_interval_away() {
        let interval = cfg().heartbeat_interval;
        let mut fd = HeartbeatFd::new(3, ProcessId(0), cfg());
        assert_eq!(fd.tick_interval(), interval);
        let mut out = Vec::new();
        for tick in 1..20 {
            let now = ms(10 * tick);
            // Both peers were last heard a full interval ago.
            fd.note_alive(ProcessId(1), now - interval, &mut out);
            fd.note_alive(ProcessId(2), now - interval, &mut out);
            fd.tick(now, &mut out);
            assert_eq!(fd.tick_interval(), interval, "tick at {now}");
        }
        assert!(out.is_empty());
    }

    #[test]
    fn the_watched_coordinator_is_timed_out_at_half_the_timeout() {
        // cfg(): timeout 50 ms, so the coordinator's is 25 ms.
        let mut fd = HeartbeatFd::new(3, ProcessId(2), cfg());
        let mut out = Vec::new();
        assert_eq!(fd.watch(ProcessId(0), ms(0)), None, "no hand-off");
        fd.tick(ms(25), &mut out);
        assert!(out.is_empty(), "25 ms of silence is not more than 25 ms");
        fd.tick(ms(26), &mut out);
        assert_eq!(out, [FdEvent::Suspect(ProcessId(0))], "p1 keeps 50 ms");
        out.clear();
        fd.tick(ms(51), &mut out);
        assert_eq!(out, [FdEvent::Suspect(ProcessId(1))]);
    }

    #[test]
    fn a_new_coordinator_is_timed_from_the_hand_off() {
        let mut fd = HeartbeatFd::new(3, ProcessId(2), cfg());
        let mut out = Vec::new();
        fd.watch(ProcessId(0), ms(0));
        // p1 was last heard at 10 ms and becomes the coordinator at
        // 30 ms: 20 ms of silence it was allowed as a member do not
        // count against its 25 ms.
        fd.note_alive(ProcessId(1), ms(10), &mut out);
        fd.note_alive(ProcessId(0), ms(30), &mut out);
        fd.watch(ProcessId(1), ms(30));
        fd.tick(ms(55), &mut out);
        assert!(out.is_empty(), "25 ms since the hand-off");
        fd.tick(ms(56), &mut out);
        assert_eq!(out, [FdEvent::Suspect(ProcessId(1))]);
        // Nor is it ever suspected later than a member would be: heard
        // 45 ms before the hand-off, it keeps only the member's 5 ms.
        let mut fd = HeartbeatFd::new(3, ProcessId(2), cfg());
        fd.watch(ProcessId(0), ms(0));
        fd.note_alive(ProcessId(1), ms(10), &mut out);
        fd.note_alive(ProcessId(0), ms(55), &mut out);
        fd.watch(ProcessId(1), ms(55));
        out.clear();
        fd.tick(ms(61), &mut out);
        assert_eq!(out, [FdEvent::Suspect(ProcessId(1))]);
    }

    #[test]
    fn a_hand_off_brings_the_next_tick_forward_to_the_new_deadline() {
        let fd_cfg = FdConfig::default();
        let mut fd = HeartbeatFd::new(3, ProcessId(2), fd_cfg.clone());
        let mut out = Vec::new();
        fd.watch(ProcessId(0), ms(0));
        // p0 is suspected, so the only deadline is p1's, 175 ms out:
        // the next tick is one interval away.
        fd.note_alive(ProcessId(1), ms(200), &mut out);
        fd.tick(ms(300), &mut out);
        assert_eq!(out, [FdEvent::Suspect(ProcessId(0))]);
        fd.note_alive(ProcessId(1), ms(300), &mut out);
        fd.tick(ms(300), &mut out);
        assert_eq!(fd.tick_interval(), fd_cfg.heartbeat_interval);
        // Handed over to p1 at 305 ms: its deadline, 87.5 ms from the
        // hand-off, comes before the armed tick at 400 ms.
        let due = fd_cfg.coordinator_timeout() + VDur::nanos(1);
        assert_eq!(fd.watch(ProcessId(1), ms(305)), Some(due));
        assert_eq!(fd.tick_interval(), due + VDur::millis(5));
        // Naming the same coordinator again changes nothing.
        assert_eq!(fd.watch(ProcessId(1), ms(310)), None);
    }

    #[test]
    fn the_coordinator_paces_its_idle_links_at_half_the_interval() {
        let mut fd = HeartbeatFd::new(3, ProcessId(1), cfg());
        let mut link = FakeLink::new(3, ProcessId(1));
        link.heard = vec![Some(ms(0)); 3];
        fd.watch(ProcessId(0), ms(0));
        link.pace(&mut fd, ms(0));
        assert_eq!(fd.tick_interval(), VDur::millis(10));
        // p1 becomes the coordinator at 4 ms: its tick is due at once,
        // and then every 5 ms.
        assert_eq!(fd.watch(ProcessId(1), ms(4)), Some(VDur::ZERO));
        link.pace(&mut fd, ms(4));
        assert_eq!(link.heartbeats.len(), 2, "idle for less than 5 ms");
        assert_eq!(fd.tick_interval(), VDur::millis(1));
        link.pace(&mut fd, ms(5));
        assert_eq!(
            link.heartbeats[2..],
            [(ms(5), ProcessId(0)), (ms(5), ProcessId(2))]
        );
        assert_eq!(fd.tick_interval(), VDur::millis(5));
        // Handed over to p2, it paces at the member interval again.
        assert_eq!(fd.watch(ProcessId(2), ms(7)), None);
        link.pace(&mut fd, ms(10));
        assert_eq!(link.heartbeats.len(), 4, "idle for 5 ms of 10");
        assert_eq!(fd.tick_interval(), VDur::millis(5));
        link.pace(&mut fd, ms(15));
        assert_eq!(link.heartbeats.len(), 6);
        assert_eq!(fd.tick_interval(), VDur::millis(10));
    }

    #[test]
    fn a_falsely_suspected_coordinator_outgrows_its_timeout() {
        let mut fd = HeartbeatFd::new(2, ProcessId(1), cfg());
        let mut out = Vec::new();
        fd.watch(ProcessId(0), ms(0));
        fd.tick(ms(26), &mut out);
        assert_eq!(out, [FdEvent::Suspect(ProcessId(0))]);
        out.clear();
        // Heard again after 30 ms: a false suspicion. The timeout grows
        // by the increment, 50 + 25 ms, and the coordinator's to half.
        fd.note_alive(ProcessId(0), ms(30), &mut out);
        assert_eq!(out, [FdEvent::Restore(ProcessId(0))]);
        out.clear();
        fd.tick(ms(30) + VDur::micros(37_500), &mut out);
        assert!(out.is_empty(), "37.5 ms is its timeout now");
        fd.tick(ms(68), &mut out);
        assert_eq!(out, [FdEvent::Suspect(ProcessId(0))]);
    }

    #[test]
    fn a_silent_peer_is_suspected_exactly_at_its_deadline() {
        let mut fd = HeartbeatFd::new(3, ProcessId(0), cfg());
        let mut out = Vec::new();
        // p1 falls silent after a message at 3 ms; p2 keeps talking.
        fd.note_alive(ProcessId(1), ms(3), &mut out);
        let mut now = VTime::ZERO;
        loop {
            fd.note_alive(ProcessId(2), now, &mut out);
            fd.tick(now, &mut out);
            if !out.is_empty() {
                break;
            }
            now += fd.tick_interval();
        }
        assert_eq!(out, [FdEvent::Suspect(ProcessId(1))]);
        // Ticks at 0, 10, …, 50 ms, then just past the deadline.
        assert_eq!(now, ms(3) + cfg().timeout + VDur::nanos(1));
        // A suspected peer sets no deadline: back to the interval.
        assert_eq!(fd.tick_interval(), cfg().heartbeat_interval);
    }
}
