//! The seven workloads: what each feeds the system and why it exists.
//!
//! A workload is data; everything that runs it is in `harness`. Each is
//! chosen so that some layer does most of the work on it and little or
//! none on its pair — the `why` strings say which.

use fortika::chaos::Scenario;
use fortika::core::workload::{ArrivalProcess, Workload};
use fortika::core::{StackConfig, StackKind};
use fortika::net::{CostModel, ProcessId};
use fortika::sim::VDur;
use fortika::trace::TraceConfig;

/// One workload's inputs (before the seed is applied).
#[derive(Debug, Clone)]
pub struct Spec {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// One-line reason the workload exists.
    pub why: &'static str,
    /// Stack under test.
    pub kind: StackKind,
    /// Group size; every process is a sender.
    pub n: usize,
    /// Payload bytes per message.
    pub msg_size: usize,
    /// Offered load, msgs/s over all senders.
    pub offered: f64,
    /// Arrival spacing at each sender.
    pub arrivals: ArrivalProcess,
    /// Virtual warm-up before the measurement window.
    pub warmup: VDur,
    /// Length of the measurement window.
    pub window: VDur,
    /// Virtual time after the window for in-flight messages to finish.
    pub drain: VDur,
    /// Crash-recovery workload: coordinator crash + restart, a minority
    /// partition, priced durability, tight snapshot cadence, and the
    /// oracle on in every repetition.
    pub faults: bool,
    /// Library tracing on, and every repetition takes the trace,
    /// decomposes every latency sample and renders both exports.
    pub tracing: bool,
}

const STEADY_WHY_MODULAR: &str = "below saturation (60% of capacity), so latency is the signal; \
1 KiB payloads make per-message work (framework dispatch, event queue, handlers) nearly all of the cost";
const STEADY_WHY_MONO: &str = "the control for modular-steady-1k: mono does the work and \
framework/abcast/consensus/rbcast do none; the pair is the paper's Fig. 8 point";
const SAT_WHY_MODULAR: &str = "saturated (offered 4x capacity), so throughput is the signal; \
16 KiB payloads at n=7 make wire encode, Bytes handling, link occupancy and rbcast fan-out dominate";
const SAT_WHY_MONO: &str = "same payload path with 3x fewer messages: a payload-path change that \
only helps the modular message mix, or hurts piggy-backed messages, shows here";
const CRASH_WHY_MODULAR: &str = "coordinator crash+restart and a minority partition under priced \
durability: round change, rejoin, snapshot transfer, stable writes, and the oracle on every delivery";
const CRASH_WHY_MONO: &str =
    "the same faults on the monolith, whose recovery code is a second copy \
of the modular stack's: a merge of the two must not move either";
const TRACING_WHY: &str = "the only workload where trace does most of the work (record, \
per-sample decompose_window, both exports); everywhere else it must do none";

/// Virtual times of the crash workload's faults, in the order crash,
/// restart, partition start, partition end — in 45ths of warm-up +
/// window (seconds on the full 45 s run), so `--quick` keeps the same
/// shape on a shorter run.
const FAULT_45THS: [u64; 4] = [10, 20, 30, 33];

/// The seven workloads, pairs adjacent.
pub fn all() -> Vec<Spec> {
    let steady = |name, why, kind| Spec {
        name,
        why,
        kind,
        n: 3,
        msg_size: 1024,
        offered: 400.0,
        arrivals: ArrivalProcess::Poisson,
        warmup: VDur::secs(2),
        window: VDur::secs(60),
        drain: VDur::secs(1),
        faults: false,
        tracing: false,
    };
    let sat = |name, why, kind| Spec {
        name,
        why,
        kind,
        n: 7,
        msg_size: 16 * 1024,
        offered: 2000.0,
        arrivals: ArrivalProcess::ConstantRate,
        warmup: VDur::secs(1),
        window: VDur::secs(10),
        drain: VDur::secs(1),
        faults: false,
        tracing: false,
    };
    let crash = |name, why, kind| Spec {
        warmup: VDur::secs(1),
        window: VDur::secs(44),
        faults: true,
        ..steady(name, why, kind)
    };
    vec![
        steady("modular-steady-1k", STEADY_WHY_MODULAR, StackKind::Modular),
        steady("mono-steady-1k", STEADY_WHY_MONO, StackKind::Monolithic),
        sat("modular-sat-16k-n7", SAT_WHY_MODULAR, StackKind::Modular),
        sat("mono-sat-16k-n7", SAT_WHY_MONO, StackKind::Monolithic),
        crash("modular-crash-1k", CRASH_WHY_MODULAR, StackKind::Modular),
        crash("mono-crash-1k", CRASH_WHY_MONO, StackKind::Monolithic),
        Spec {
            warmup: VDur::secs(1),
            window: VDur::secs(10),
            drain: VDur::millis(500),
            tracing: true,
            ..steady("modular-steady-1k-tracing", TRACING_WHY, StackKind::Modular)
        },
    ]
}

/// The workload called `name`.
pub fn by_name(name: &str) -> Option<Spec> {
    all().into_iter().find(|s| s.name == name)
}

impl Spec {
    /// The `--quick` variant: the same inputs over about two virtual
    /// seconds, for checking the correctness gate and the output
    /// schema, not for measuring. The crash workloads get fifteen, so
    /// that every fault outlasts the failure detector's 500 ms timeout
    /// (p0 is down for 3.3 s, p2 cut off for 1 s). A shorter fault goes
    /// unsuspected, and then nothing re-sends what it swallowed: a
    /// message the monolith had forwarded to the crashed or cut-off
    /// coordinator stays undelivered for good, which fails the gate.
    pub fn quick(mut self) -> Spec {
        self.warmup = VDur::millis(300);
        (self.window, self.drain) = if self.faults {
            (VDur::millis(14_700), VDur::secs(1))
        } else {
            (VDur::millis(1500), VDur::millis(200))
        };
        self
    }

    /// Start of the measurement window, as an offset from time zero.
    pub fn window_start(&self) -> VDur {
        self.warmup
    }

    /// End of the measurement window.
    pub fn window_end(&self) -> VDur {
        self.warmup + self.window
    }

    /// The arrival process and payload size.
    pub fn workload(&self) -> Workload {
        Workload {
            arrivals: self.arrivals,
            ..Workload::constant_rate(self.offered, self.msg_size)
        }
    }

    /// Stack tunables: library defaults, except the crash workloads'
    /// tight snapshot cadence and small decision cache, which force the
    /// restarted process through snapshot transfer.
    pub fn stack(&self) -> StackConfig {
        let mut stack = StackConfig::default();
        if self.faults {
            stack.snapshot_interval = 64;
            stack.decision_cache = 128;
        }
        stack
    }

    /// CPU cost model: the calibrated default, with durability priced
    /// on the crash workloads (the only ones that need stable storage).
    pub fn cost(&self) -> CostModel {
        if self.faults {
            CostModel::with_durability(VDur::micros(100), VDur::micros(10))
        } else {
            CostModel::default()
        }
    }

    /// Library tracing configuration.
    pub fn trace(&self) -> TraceConfig {
        if self.tracing {
            TraceConfig::on()
        } else {
            TraceConfig::default()
        }
    }

    fn fault_times(&self) -> [VDur; 4] {
        let span = self.window_end().as_nanos();
        FAULT_45THS.map(|k| VDur::nanos(span / 45 * k))
    }

    /// When and how the coordinator p0 crashes (crash workloads only):
    /// `(from, until)`. p0 crashes on the spot at the first `abcast` it
    /// admits in that window *while the system is quiescent* — every
    /// earlier message adelivered by every process — so the message
    /// just admitted is the only thing in flight, and it is lost with
    /// the admitting handler's sends. From `until` on (a tenth of the
    /// way to the restart) any admission will do.
    ///
    /// A crash at a fixed instant catches p0 in a different protocol
    /// state on every seed, and two of those states change the run:
    ///
    /// * an admitted, not yet disseminated message (6 of 10 seeds on
    ///   the monolith) is lost and leaves a hole in p0's sequence
    ///   numbers for the rest of the run; both stacks then cost ~2.5
    ///   times the host time per message, so host metrics were bimodal;
    /// * a decision p0 has delivered but not yet announced (3 of 20
    ///   seeds) makes the monolith stall a second time, for a further
    ///   1.0–1.25 s, so the outage was bimodal.
    ///
    /// Pinning the crash to a quiescent admission holds every seed in
    /// one state: one message admitted and lost mid-broadcast, nothing
    /// else in flight.
    pub fn crash_window(&self) -> Option<(VDur, VDur)> {
        let [crash, restart, ..] = self.fault_times();
        self.faults.then(|| (crash, crash + (restart - crash) / 10))
    }

    /// The fault timeline (crash workloads only): coordinator p0
    /// crashes and later restarts, then p2 is partitioned away from the
    /// majority for a while. The crash listed here is the backstop, a
    /// fifth of the way to the restart: p0 admits a message every
    /// 7.5 ms on average, so [`crash_window`] has crashed it long
    /// before.
    ///
    /// [`crash_window`]: Spec::crash_window
    pub fn scenario(&self) -> Option<Scenario> {
        if !self.faults {
            return None;
        }
        let [crash, restart, cut, heal] = self.fault_times();
        Some(
            Scenario::new()
                .crash(ProcessId(0), crash + (restart - crash) / 5)
                .restart(ProcessId(0), restart)
                .partition(
                    vec![vec![ProcessId(0), ProcessId(1)], vec![ProcessId(2)]],
                    cut,
                    heal,
                ),
        )
    }

    /// Virtual instant at which a repetition stops: window end + drain,
    /// stretched (as `Experiment::run` does) one second past the last
    /// fault so healing happens inside the run.
    pub fn end_of_run(&self) -> VDur {
        let end = self.window_end() + self.drain;
        match self.scenario() {
            Some(s) if s.horizon() + VDur::secs(1) > end => s.horizon() + VDur::secs(1),
            _ => end,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seven_uniquely_named_workloads_in_pairs() {
        let specs = all();
        assert_eq!(specs.len(), 7);
        let mut names: Vec<_> = specs.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 7);
        for pair in specs[..6].chunks(2) {
            assert_eq!(pair[0].kind, StackKind::Modular);
            assert_eq!(pair[1].kind, StackKind::Monolithic);
            assert_eq!(pair[0].name.replacen("modular", "mono", 1), pair[1].name);
            assert_eq!(pair[0].workload(), pair[1].workload());
            assert_eq!(pair[0].end_of_run(), pair[1].end_of_run());
        }
        assert!(by_name("mono-crash-1k").is_some_and(|s| s.faults));
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn crash_timeline_is_the_issue_s_on_the_full_run_and_scales_on_quick() {
        let full = by_name("modular-crash-1k").unwrap();
        let s = full.scenario().unwrap();
        assert_eq!(s.horizon(), VDur::secs(33));
        assert_eq!(s.correct(3).len(), 3, "the crashed process restarts");
        assert_eq!(full.end_of_run(), VDur::secs(46));
        let quick = full.quick();
        let s = quick.scenario().unwrap();
        assert!(s.horizon() < quick.window_end());
        assert_eq!(quick.end_of_run(), VDur::secs(16));
        assert!(by_name("mono-steady-1k").unwrap().scenario().is_none());
    }
}
