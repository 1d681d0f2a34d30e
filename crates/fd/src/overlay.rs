//! Tests of the scripted suspicion windows that
//! [`HeartbeatFd::with_windows`](crate::HeartbeatFd::with_windows)
//! overlays on the detector's genuine verdicts.

#[cfg(test)]
mod tests {
    use crate::core::WINDOW_RESOLUTION;
    use crate::{FdConfig, FdEvent, HeartbeatFd, SuspicionWindow};
    use fortika_net::ProcessId;
    use fortika_sim::{VDur, VTime};

    fn cfg() -> FdConfig {
        FdConfig {
            heartbeat_interval: VDur::millis(10),
            timeout: VDur::millis(50),
            timeout_increment: VDur::millis(20),
        }
    }

    fn ms(ms: u64) -> VTime {
        VTime::ZERO + VDur::millis(ms)
    }

    /// A detector that never suspects on its own within these tests:
    /// its timeout outlasts every instant they reach.
    fn silent_cfg() -> FdConfig {
        FdConfig {
            timeout: VDur::secs(3600),
            ..cfg()
        }
    }

    fn window(suspect: u16, from_ms: u64, until_ms: u64) -> SuspicionWindow {
        SuspicionWindow {
            observer: ProcessId(0),
            suspect: ProcessId(suspect),
            from: ms(from_ms),
            until: ms(until_ms),
        }
    }

    #[test]
    fn forced_window_opens_and_closes_once() {
        let mut fd =
            HeartbeatFd::new(2, ProcessId(0), silent_cfg()).with_windows(&[window(1, 10, 30)]);
        let mut out = Vec::new();
        fd.tick(ms(5), &mut out);
        assert!(out.is_empty());
        fd.tick(ms(10), &mut out);
        fd.tick(ms(20), &mut out);
        assert_eq!(out, [FdEvent::Suspect(ProcessId(1))]);
        assert!(fd.is_suspected(ProcessId(1)));
        out.clear();
        fd.tick(ms(30), &mut out);
        assert_eq!(out, [FdEvent::Restore(ProcessId(1))]);
        assert!(!fd.is_suspected(ProcessId(1)));
    }

    #[test]
    fn windows_for_other_observers_ignored() {
        let other = SuspicionWindow {
            observer: ProcessId(1),
            ..window(1, 0, 100)
        };
        let mut fd = HeartbeatFd::new(2, ProcessId(0), silent_cfg()).with_windows(&[other]);
        let mut out = Vec::new();
        fd.tick(ms(50), &mut out);
        assert!(out.is_empty());
        assert_eq!(
            fd.tick_interval(),
            silent_cfg().heartbeat_interval,
            "no retained windows: the detector's own cadence"
        );
    }

    #[test]
    fn genuine_suspicion_passes_through_and_outlives_window() {
        // The genuine detector also suspects p1 (real silence); the
        // window closing must not restore it.
        let mut fd = HeartbeatFd::new(2, ProcessId(0), cfg()).with_windows(&[window(1, 10, 30)]);
        let mut out = Vec::new();
        fd.tick(ms(15), &mut out);
        assert_eq!(out, [FdEvent::Suspect(ProcessId(1))]);
        out.clear();
        // At 35 ms the window closed, and p1 has been silent only 35 ms,
        // under the 50 ms timeout: restore.
        fd.tick(ms(35), &mut out);
        assert_eq!(out, [FdEvent::Restore(ProcessId(1))]);
        out.clear();
        // At 80 ms the detector genuinely suspects (silence 80 ms
        // > 50 ms timeout): suspect again, no window involved.
        fd.tick(ms(80), &mut out);
        assert_eq!(out, [FdEvent::Suspect(ProcessId(1))]);
        // A heartbeat restores it.
        out.clear();
        fd.on_heartbeat(ProcessId(1), ms(81), &mut out);
        assert_eq!(out, [FdEvent::Restore(ProcessId(1))]);
    }

    #[test]
    fn overlapping_forced_and_real_emit_single_transition() {
        let cfg = FdConfig {
            heartbeat_interval: VDur::millis(10),
            timeout: VDur::millis(20),
            timeout_increment: VDur::millis(10),
        };
        let mut fd = HeartbeatFd::new(2, ProcessId(0), cfg).with_windows(&[window(1, 10, 200)]);
        let mut out = Vec::new();
        // Forced at 10 ms, genuine from ~20 ms: exactly one Suspect.
        fd.tick(ms(15), &mut out);
        fd.tick(ms(50), &mut out);
        fd.tick(ms(150), &mut out);
        assert_eq!(out, [FdEvent::Suspect(ProcessId(1))]);
    }

    #[test]
    fn a_forced_window_wins_over_implicit_liveness() {
        let mut fd = HeartbeatFd::new(2, ProcessId(0), cfg()).with_windows(&[window(1, 10, 30)]);
        let mut out = Vec::new();
        // A message from p1 arrives before every tick, as on a busy
        // link; the window still slanders it, and only the window.
        for t in (5..60).step_by(5) {
            fd.note_alive(ProcessId(1), ms(t), &mut out);
            fd.tick(ms(t), &mut out);
            assert_eq!(
                fd.is_suspected(ProcessId(1)),
                (10..30).contains(&t),
                "{t} ms"
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
        let just_past = |t: u64| VDur::millis(t) + VDur::nanos(1);
        let mut out = Vec::new();
        // No windows: the deadline, not the cadence.
        let mut fd = HeartbeatFd::new(2, ProcessId(0), cfg()).with_windows(&[]);
        fd.tick(ms(43), &mut out);
        assert_eq!(fd.tick_interval(), just_past(7));
        // While windows are open, the earlier of it and the resolution.
        let mut fd = HeartbeatFd::new(2, ProcessId(0), cfg()).with_windows(&[window(1, 60, 100)]);
        fd.tick(ms(48), &mut out);
        assert_eq!(fd.tick_interval(), just_past(2));
        assert!(out.is_empty());
    }

    #[test]
    fn tick_interval_accounts_for_windows() {
        let interval = silent_cfg().heartbeat_interval;
        let mut fd =
            HeartbeatFd::new(2, ProcessId(0), silent_cfg()).with_windows(&[window(1, 0, 10)]);
        assert_eq!(fd.tick_interval(), WINDOW_RESOLUTION);
        // Once a tick lands past the last window, the fast cadence is
        // dropped: back to the heartbeat interval.
        let mut out = Vec::new();
        fd.tick(ms(9), &mut out);
        assert_eq!(fd.tick_interval(), WINDOW_RESOLUTION);
        fd.tick(ms(10), &mut out);
        assert_eq!(fd.tick_interval(), interval);
        let cfg = FdConfig::default();
        let hb = HeartbeatFd::new(2, ProcessId(0), cfg.clone()).with_windows(&[window(1, 0, 10)]);
        assert_eq!(
            hb.tick_interval(),
            WINDOW_RESOLUTION.min(cfg.heartbeat_interval)
        );
    }
}
