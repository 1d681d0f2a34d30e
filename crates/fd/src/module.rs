//! Framework adapter: runs the failure detector as a microprotocol.

use fortika_framework::{Event, EventKind, FrameworkCtx, Microprotocol, ModuleId};
use fortika_net::wire::WireReader;
use fortika_net::{ProcessId, TimerId};
use fortika_sim::{VDur, VTime};

use crate::core::{FdEvent, HeartbeatFd, LinkClock};
use crate::{metrics, TRACE_STACK};

/// Wire demux id of the failure-detector module.
pub const FD_MODULE_ID: ModuleId = 4;

const TIMER_TICK: u64 = 1;

/// The failure-detector microprotocol: heartbeats idle links (see
/// [`HeartbeatFd::pace`]), consumes peer heartbeats, the arrival times
/// of every other module's messages and the coordinator consensus waits
/// on ([`Event::Coordinator`]), and raises
/// [`Event::Suspect`]/[`Event::Restore`] on the stack bus.
pub struct FdModule {
    fd: HeartbeatFd,
    scratch: Vec<FdEvent>,
    /// The armed tick, re-armed when the watched coordinator changes.
    timer: Option<TimerId>,
}

impl FdModule {
    /// Hosts a detector.
    pub fn new(fd: HeartbeatFd) -> Self {
        FdModule {
            fd,
            scratch: Vec::new(),
            timer: None,
        }
    }

    /// Arms the tick `delay` from now, replacing the armed one.
    fn arm(&mut self, ctx: &mut FrameworkCtx<'_, '_>, delay: VDur) {
        if let Some(armed) = self.timer.take() {
            ctx.cancel_timer(armed);
        }
        self.timer = Some(ctx.set_timer(delay, TIMER_TICK));
    }

    fn flush(ctx: &mut FrameworkCtx<'_, '_>, events: &mut Vec<FdEvent>) {
        for ev in events.drain(..) {
            match ev {
                FdEvent::Suspect(p) => {
                    ctx.bump(metrics::SUSPICIONS, 1);
                    ctx.trace_span(TRACE_STACK, u64::from(p.0), "suspect", 0);
                    ctx.raise(Event::Suspect(p));
                }
                FdEvent::Restore(p) => {
                    ctx.bump(metrics::RESTORES, 1);
                    ctx.trace_span(TRACE_STACK, u64::from(p.0), "restore", 0);
                    ctx.raise(Event::Restore(p));
                }
            }
        }
    }
}

impl Microprotocol for FdModule {
    fn name(&self) -> &'static str {
        "failure-detector"
    }

    fn module_id(&self) -> ModuleId {
        FD_MODULE_ID
    }

    fn subscriptions(&self) -> &'static [EventKind] {
        &[EventKind::Coordinator]
    }

    fn on_event(&mut self, ctx: &mut FrameworkCtx<'_, '_>, ev: &Event) {
        if let Event::Coordinator(p) = ev {
            if let Some(delay) = self.fd.watch(*p, ctx.now()) {
                self.arm(ctx, delay);
            }
        }
    }

    fn on_start(&mut self, ctx: &mut FrameworkCtx<'_, '_>) {
        self.arm(ctx, self.fd.tick_interval());
    }

    fn on_net(&mut self, ctx: &mut FrameworkCtx<'_, '_>, from: ProcessId, _msg: WireReader) {
        self.fd.on_heartbeat(from, ctx.now(), &mut self.scratch);
        Self::flush(ctx, &mut self.scratch);
    }

    fn on_timer(&mut self, ctx: &mut FrameworkCtx<'_, '_>, _timer: TimerId, tag: u64) {
        if tag != TIMER_TICK {
            return;
        }
        // This tick fired: there is nothing armed left to cancel.
        self.timer = None;
        self.fd.pace(ctx, &mut self.scratch, |ctx, p| {
            ctx.send_net(p, metrics::HEARTBEAT, &());
        });
        Self::flush(ctx, &mut self.scratch);
        self.arm(ctx, self.fd.tick_interval());
    }
}

/// The modular stack's detector reads the hosting process's transport
/// clock, which sees every module's messages.
impl LinkClock for FrameworkCtx<'_, '_> {
    fn pid(&self) -> ProcessId {
        FrameworkCtx::pid(self)
    }
    fn n(&self) -> usize {
        FrameworkCtx::n(self)
    }
    fn now(&self) -> VTime {
        FrameworkCtx::now(self)
    }
    fn last_arrival_from(&self, peer: ProcessId) -> Option<VTime> {
        FrameworkCtx::last_arrival_from(self, peer)
    }
    fn last_send_to(&self, peer: ProcessId) -> Option<VTime> {
        FrameworkCtx::last_send_to(self, peer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::{FdConfig, SuspicionWindow};
    use fortika_framework::CompositeStack;
    use fortika_net::{Cluster, ClusterConfig, Node};
    use fortika_sim::{VDur, VTime};

    fortika_net::metric_table! {
        mod names in TEST {
            events {
                SUSPECT_P1 = "probe.suspect.p1",
                SUSPECT_OTHER = "probe.suspect.other",
                RESTORE = "probe.restore",
            }
            kinds {}
        }
    }

    /// A probe module that counts suspicion events it observes.
    struct Probe;
    impl Microprotocol for Probe {
        fn name(&self) -> &'static str {
            "probe"
        }
        fn module_id(&self) -> ModuleId {
            90
        }
        fn subscriptions(&self) -> &'static [EventKind] {
            &[EventKind::Suspect, EventKind::Restore]
        }
        fn on_event(&mut self, ctx: &mut FrameworkCtx<'_, '_>, ev: &Event) {
            match ev {
                Event::Suspect(p) => ctx.bump(
                    if *p == ProcessId(0) {
                        names::SUSPECT_P1
                    } else {
                        names::SUSPECT_OTHER
                    },
                    1,
                ),
                Event::Restore(_) => ctx.bump(names::RESTORE, 1),
                _ => {}
            }
        }
    }

    fn hb_stack(n: usize, me: ProcessId) -> Box<dyn Node> {
        let cfg = FdConfig {
            heartbeat_interval: VDur::millis(10),
            timeout: VDur::millis(50),
            timeout_increment: VDur::millis(20),
        };
        Box::new(CompositeStack::new(vec![
            Box::new(Probe),
            Box::new(FdModule::new(HeartbeatFd::new(n, me, cfg))),
        ]))
    }

    #[test]
    fn no_suspicions_in_good_runs() {
        let cfg = ClusterConfig::new(3, 5);
        let nodes = (0..3).map(|i| hb_stack(3, ProcessId(i))).collect();
        let mut cluster = Cluster::new(cfg, nodes);
        cluster.run_idle(VTime::ZERO + VDur::secs(5));
        assert_eq!(cluster.counters().event("fd.suspicions"), 0);
        assert!(cluster.counters().kind("fd.heartbeat").msgs > 100);
    }

    #[test]
    fn crashed_process_gets_suspected_by_all_others() {
        let cfg = ClusterConfig::new(3, 5);
        let nodes = (0..3).map(|i| hb_stack(3, ProcessId(i))).collect();
        let mut cluster = Cluster::new(cfg, nodes);
        cluster.schedule_crash(ProcessId(0), VTime::ZERO + VDur::secs(1));
        cluster.run_idle(VTime::ZERO + VDur::secs(3));
        // Both survivors suspect p1; nobody suspects anyone else.
        assert_eq!(cluster.counters().event("probe.suspect.p1"), 2);
        assert_eq!(cluster.counters().event("probe.suspect.other"), 0);
    }

    #[test]
    fn scripted_injection_raises_and_restores() {
        let window = SuspicionWindow {
            observer: ProcessId(0),
            suspect: ProcessId(1),
            from: VTime::ZERO + VDur::millis(100),
            until: VTime::ZERO + VDur::millis(200),
        };
        // The peer is silent: only a timeout that outlasts the run keeps
        // the window the one suspicion.
        let cfg = FdConfig {
            timeout: VDur::secs(60),
            ..FdConfig::default()
        };
        let fd = HeartbeatFd::new(2, ProcessId(0), cfg).with_windows(&[window]);
        let stack: Box<dyn Node> = Box::new(CompositeStack::new(vec![
            Box::new(Probe),
            Box::new(FdModule::new(fd)),
        ]));
        let silent: Box<dyn Node> = Box::new(CompositeStack::new(vec![Box::new(Probe)]));
        let cfg = ClusterConfig::instant(2, 1);
        let mut cluster = Cluster::new(cfg, vec![stack, silent]);
        cluster.run_idle(VTime::ZERO + VDur::secs(1));
        assert_eq!(cluster.counters().event("fd.suspicions"), 1);
        assert_eq!(cluster.counters().event("probe.restore"), 1);
    }
}
