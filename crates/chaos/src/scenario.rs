//! Scenario timelines: declarative fault schedules over a cluster run.
//!
//! A [`Scenario`] is an ordered list of typed fault events — crashes,
//! restarts, windows of a network [`LinkFault`] (partitions with
//! healing, loss, duplication, delay spikes, degraded bandwidth), slow
//! nodes, scripted false suspicions — expressed as
//! offsets from the start of the run. Build one with the chainable
//! constructors, or draw one from the seeded [`Scenario::random`]
//! generator for fuzzing; then stand it on a cluster with
//! `fortika_core::scenario_cluster` — which `run_scripted` and
//! `Experiment::builder(..).scenario(..)` both do.
//!
//! Scenarios are plain data: cloning, printing and replaying them is
//! cheap, and the same scenario + the same cluster seed reproduces the
//! same run bit for bit.

use std::collections::{BTreeMap, BTreeSet};

use fortika_fd::SuspicionWindow;
use fortika_net::{Cluster, LinkFault, LinkSelector, ProcessId};
use fortika_sim::{DetRng, VDur, VTime};

use crate::coverage::CoverageReport;

/// Every event family a scenario can contain, in canonical order: the
/// nine [`ScenarioEvent::family`] names (one per variant, and one per
/// opening [`LinkFault`] of a [`ScenarioEvent::Link`] window) plus the
/// *configuration* axis `pipelined` ([`Scenario::pipeline_depth`] > 1).
/// This is the row vocabulary of the coverage co-occurrence
/// matrix ([`CoverageReport`]); keep it in sync with
/// [`ScenarioEvent::family`].
pub(crate) const FAMILIES: &[&str] = &[
    "crash",
    "restart",
    "partition",
    "lossy",
    "duplicate",
    "delay_spike",
    "degrade_link",
    "slow_node",
    "false_suspicion",
    "pipelined",
];

/// Probability knobs never steer above this: a residual of unsteered
/// draws keeps campaigns exploring shapes outside the boosted family.
const MAX_STEERED_PROB: f64 = 0.9;

/// One typed event on a scenario timeline. All instants are offsets
/// from the start of the run.
#[derive(Debug, Clone)]
pub enum ScenarioEvent {
    /// Crash `pid` at `at`. Without a matching [`Restart`] afterwards
    /// this is a crash-stop (the process never recovers).
    ///
    /// [`Restart`]: ScenarioEvent::Restart
    Crash {
        /// The victim.
        pid: ProcessId,
        /// Crash instant.
        at: VDur,
    },
    /// Revive a crashed `pid` at `at` with fresh volatile state and a
    /// new incarnation (crash-recovery). Requires the cluster to have a
    /// node factory registered; see `Cluster::schedule_restart`.
    Restart {
        /// The revived process.
        pid: ProcessId,
        /// Restart instant (must follow the crash).
        at: VDur,
    },
    /// Apply the network `fault` during `[from, until)`. At `until`
    /// its [`LinkFault::cleared`] counterpart writes the fault-free
    /// value back on the same links (a partition heals). The family is
    /// named after the fault: `partition`, `lossy`, `duplicate`,
    /// `delay_spike` or `degrade_link`. [`LinkFault::Heal`] and
    /// [`LinkFault::Reset`] only close windows, and [`Scenario::event`]
    /// refuses them here.
    Link {
        /// The fault in force during the window.
        fault: LinkFault,
        /// Window start.
        from: VDur,
        /// Window end (`None` = rest of the run).
        until: Option<VDur>,
    },
    /// Multiply every CPU cost `pid` charges by `factor_milli / 1000`
    /// during `[from, until)` — a *slow node* (thermal throttling, a
    /// noisy neighbour, GC pressure). The process stays correct and
    /// keeps all its state; it just burns more CPU per event, which
    /// saturates it at a lower offered load.
    SlowNode {
        /// The throttled process.
        pid: ProcessId,
        /// CPU cost multiplier in thousandths (4000 = 4× slower).
        factor_milli: u64,
        /// Window start.
        from: VDur,
        /// Window end (`None` = rest of the run).
        until: Option<VDur>,
    },
    /// Force `observer`'s failure detector to (wrongly) suspect
    /// `suspect` during `[from, until)` — scripted ◇P inaccuracy.
    ///
    /// This event acts at stack-construction time, not on the cluster:
    /// the assembly (`fortika_core::scenario_cluster`) wires
    /// [`Scenario::suspicion_windows`] into every failure detector.
    FalseSuspicion {
        /// The process whose detector lies.
        observer: ProcessId,
        /// The slandered process.
        suspect: ProcessId,
        /// Window start.
        from: VDur,
        /// Window end.
        until: VDur,
    },
}

impl ScenarioEvent {
    /// The event's family name — the row vocabulary of the coverage
    /// co-occurrence matrix ([`CoverageReport`]). Stable strings, one
    /// per variant and one per opening [`LinkFault`], matching
    /// [`CoverageReport::family_names`].
    #[deny(
        clippy::wildcard_enum_match_arm,
        clippy::match_wildcard_for_single_variants
    )]
    pub fn family(&self) -> &'static str {
        match self {
            ScenarioEvent::Crash { .. } => "crash",
            ScenarioEvent::Restart { .. } => "restart",
            ScenarioEvent::Link { fault, .. } => match fault {
                LinkFault::Partition(_) => "partition",
                LinkFault::Loss { .. } => "lossy",
                LinkFault::Duplicate { .. } => "duplicate",
                LinkFault::DelaySpike { .. } => "delay_spike",
                LinkFault::Degrade { .. } => "degrade_link",
                LinkFault::Heal | LinkFault::Reset => {
                    unreachable!("Scenario::event refuses a closer as a window")
                }
            },
            ScenarioEvent::SlowNode { .. } => "slow_node",
            ScenarioEvent::FalseSuspicion { .. } => "false_suspicion",
        }
    }
}

/// A declarative fault schedule (see the [crate docs](crate)).
///
/// # Example: the timeline DSL, end to end
///
/// ```
/// use fortika_chaos::{check_orders, Scenario, Violation};
/// use fortika_net::{MsgId, ProcessId};
/// use fortika_sim::VDur;
///
/// // A timeline: {p1, p2} partitioned from {p3} for half a second,
/// // p2 crash-restarts inside the window, and p1's detector falsely
/// // suspects p2 for 100 ms after the heal.
/// let scenario = Scenario::new()
///     .partition(
///         vec![vec![ProcessId(0), ProcessId(1)], vec![ProcessId(2)]],
///         VDur::millis(100),
///         VDur::millis(600),
///     )
///     .crash(ProcessId(1), VDur::millis(200))
///     .restart(ProcessId(1), VDur::millis(400))
///     .false_suspicion(ProcessId(0), ProcessId(1), VDur::millis(700), VDur::millis(800));
/// assert!(scenario.heals(), "every window closes");
/// assert!(scenario.quorum_safe(3), "the revived p2 is correct again");
/// assert_eq!(scenario.restarted(), vec![ProcessId(1)]);
/// assert_eq!(scenario.horizon(), VDur::millis(800));
///
/// // The oracle that audits such runs flags any violation of the
/// // atomic broadcast contract — here, two "replicas" disagreeing on
/// // the delivery order:
/// let a = MsgId::new(ProcessId(0), 0);
/// let b = MsgId::new(ProcessId(1), 0);
/// let report = check_orders(&[vec![a, b], vec![b, a]], &[ProcessId(0), ProcessId(1)], &[]);
/// assert!(matches!(report.violations[0], Violation::Disagreement { .. }));
/// ```
#[derive(Debug, Clone)]
pub struct Scenario {
    events: Vec<ScenarioEvent>,
    /// Windowed-sequencer depth the run under this scenario should use
    /// (`StackConfig::pipeline_depth` in `fortika-core`). Not a fault:
    /// a *configuration* axis the fuzzer varies so every fault family
    /// is also exercised against pipelined runs.
    pipeline_depth: usize,
}

impl Default for Scenario {
    fn default() -> Self {
        Scenario {
            events: Vec::new(),
            pipeline_depth: 1,
        }
    }
}

impl Scenario {
    /// An empty (fault-free) scenario.
    pub fn new() -> Self {
        Scenario::default()
    }

    /// Sets the windowed-sequencer depth α runs under this scenario
    /// should configure (see [`Scenario::pipeline_depth`]).
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero.
    pub fn with_pipeline_depth(mut self, depth: usize) -> Self {
        assert!(depth > 0, "pipeline depth must be at least 1");
        self.pipeline_depth = depth;
        self
    }

    /// The windowed-sequencer depth α this scenario asks the stacks to
    /// run with (default 1, the seed-faithful sequential regime). The
    /// random generator draws it from its own stream (uniform in
    /// `1..=4`), so every generated fault timeline is also fuzzed
    /// against pipelined instance execution; the assembly raises
    /// `StackConfig::pipeline_depth` to it.
    pub fn pipeline_depth(&self) -> usize {
        self.pipeline_depth
    }

    /// The timeline events, in insertion order.
    pub fn events(&self) -> &[ScenarioEvent] {
        &self.events
    }

    /// The distinct event families this scenario exercises, in the
    /// canonical order of [`CoverageReport::family_names`]. Includes
    /// the `pipelined` configuration family when
    /// [`pipeline_depth`](Self::pipeline_depth) exceeds 1. This is what
    /// [`CoverageReport::absorb_with_scenario`] co-occurs against the
    /// protocol branches a run reached.
    pub fn families(&self) -> Vec<&'static str> {
        FAMILIES
            .iter()
            .copied()
            .filter(|family| {
                if *family == "pipelined" {
                    self.pipeline_depth > 1
                } else {
                    self.events.iter().any(|ev| ev.family() == *family)
                }
            })
            .collect()
    }

    /// Appends an arbitrary event.
    ///
    /// # Panics
    ///
    /// Panics if a [`ScenarioEvent::Link`] window's fault fails
    /// [`LinkFault::check`], or is a closer ([`LinkFault::Heal`],
    /// [`LinkFault::Reset`]) rather than a fault a window can open.
    pub fn event(mut self, ev: ScenarioEvent) -> Self {
        if let ScenarioEvent::Link { fault, .. } = &ev {
            assert!(
                !matches!(fault, LinkFault::Heal | LinkFault::Reset),
                "{fault:?} only closes windows; it cannot open one"
            );
            fault.check();
        }
        self.events.push(ev);
        self
    }

    /// Appends a [`ScenarioEvent::Link`] window.
    fn window(self, fault: LinkFault, from: VDur, until: Option<VDur>) -> Self {
        self.event(ScenarioEvent::Link { fault, from, until })
    }

    /// Crash-stops `pid` at offset `at`.
    pub fn crash(self, pid: ProcessId, at: VDur) -> Self {
        self.event(ScenarioEvent::Crash { pid, at })
    }

    /// Revives `pid` at offset `at` (crash-recovery; pair with an
    /// earlier [`crash`](Self::crash) of the same process).
    pub fn restart(self, pid: ProcessId, at: VDur) -> Self {
        self.event(ScenarioEvent::Restart { pid, at })
    }

    /// Partitions the cluster into `groups` from `from` until `until`
    /// (healing included).
    pub fn partition(self, groups: Vec<Vec<ProcessId>>, from: VDur, until: VDur) -> Self {
        self.window(LinkFault::Partition(groups), from, Some(until))
    }

    /// Partitions the cluster permanently (no healing).
    pub fn partition_forever(self, groups: Vec<Vec<ProcessId>>, from: VDur) -> Self {
        self.window(LinkFault::Partition(groups), from, None)
    }

    /// Makes the selected links lossy with probability `p` during the
    /// window.
    ///
    /// # Panics
    ///
    /// Panics unless `p` is in `[0, 1]`.
    pub fn lossy(self, link: LinkSelector, p: f64, from: VDur, until: VDur) -> Self {
        self.window(LinkFault::Loss { link, p }, from, Some(until))
    }

    /// Duplicates messages on the selected links with probability `p`
    /// during the window.
    ///
    /// # Panics
    ///
    /// Panics unless `p` is in `[0, 1]`.
    pub fn duplicate(self, link: LinkSelector, p: f64, from: VDur, until: VDur) -> Self {
        self.window(LinkFault::Duplicate { link, p }, from, Some(until))
    }

    /// Inflates latency on the selected links by `factor_milli / 1000`
    /// during the window.
    pub fn delay_spike(
        self,
        link: LinkSelector,
        factor_milli: u64,
        from: VDur,
        until: VDur,
    ) -> Self {
        let fault = LinkFault::DelaySpike { link, factor_milli };
        self.window(fault, from, Some(until))
    }

    /// Degrades the selected links to `rate_milli / 1000` of nominal
    /// bandwidth during the window (resource fault: the link becomes a
    /// serial bottleneck, so large messages and bursts queue).
    ///
    /// # Example
    ///
    /// ```
    /// use fortika_chaos::Scenario;
    /// use fortika_net::{LinkSelector, ProcessId};
    /// use fortika_sim::VDur;
    ///
    /// // p0's outbound links run at 10 % of nominal bandwidth for
    /// // 400 ms, then recover.
    /// let s = Scenario::new().degrade_link(
    ///     LinkSelector::From(ProcessId(0)),
    ///     100,
    ///     VDur::millis(100),
    ///     VDur::millis(500),
    /// );
    /// assert!(s.heals(), "the degradation window closes");
    /// assert_eq!(s.horizon(), VDur::millis(500));
    /// ```
    ///
    /// # Panics
    ///
    /// Panics unless `rate_milli` is in `1..=1000`.
    pub fn degrade_link(
        self,
        link: LinkSelector,
        rate_milli: u64,
        from: VDur,
        until: VDur,
    ) -> Self {
        let fault = LinkFault::Degrade { link, rate_milli };
        self.window(fault, from, Some(until))
    }

    /// Throttles `pid`'s CPU by `factor_milli / 1000` during the window
    /// (resource fault: every handler cost is multiplied, so the
    /// process saturates at a lower load but stays correct).
    ///
    /// # Example
    ///
    /// ```
    /// use fortika_chaos::Scenario;
    /// use fortika_net::ProcessId;
    /// use fortika_sim::VDur;
    ///
    /// // p1 runs 4× slower between 200 ms and 800 ms.
    /// let s = Scenario::new().slow_node(
    ///     ProcessId(1),
    ///     4000,
    ///     VDur::millis(200),
    ///     VDur::millis(800),
    /// );
    /// assert!(s.heals());
    /// assert_eq!(s.correct(3).len(), 3, "a slow node is still correct");
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `factor_milli` is zero.
    pub fn slow_node(self, pid: ProcessId, factor_milli: u64, from: VDur, until: VDur) -> Self {
        assert!(factor_milli > 0, "slowdown factor must be positive");
        self.event(ScenarioEvent::SlowNode {
            pid,
            factor_milli,
            from,
            until: Some(until),
        })
    }

    /// Scripts a false suspicion: `observer` wrongly suspects `suspect`
    /// during the window.
    pub fn false_suspicion(
        self,
        observer: ProcessId,
        suspect: ProcessId,
        from: VDur,
        until: VDur,
    ) -> Self {
        self.event(ScenarioEvent::FalseSuspicion {
            observer,
            suspect,
            from,
            until,
        })
    }

    /// Schedules every cluster-level event of this scenario onto
    /// `cluster` (crashes and link faults; [`FalseSuspicion`] events act
    /// at stack-construction time and are skipped here — see
    /// [`Scenario::suspicion_windows`]). The last step of
    /// `fortika_core::scenario_cluster`, which is how a scenario gets
    /// onto a cluster; a direct call is for clusters assembled by hand.
    ///
    /// Call before the first `run_until`, with the cluster clock still
    /// at the start of the run — [`Scenario::suspicion_windows`] anchors
    /// its windows at `VTime::ZERO`, and both halves of a scenario must
    /// share the same origin.
    ///
    /// # Window overlap
    ///
    /// Window boundaries write link state absolutely — a closing window
    /// writes its fault's [`LinkFault::cleared`] value, the fault-free
    /// default, on its links even if another window of the same family
    /// still covers them (its opening value is not re-applied). Declare
    /// overlapping same-family windows as disjoint intervals instead;
    /// the random generator emits at most one window per family, so
    /// generated scenarios are unaffected.
    ///
    /// # Panics
    ///
    /// Panics when the cluster clock has already advanced — applying
    /// late would silently desynchronize cluster-level faults from the
    /// scripted suspicion windows. Also panics when the scenario
    /// contains [`Restart`] events and no node factory is registered
    /// (`Cluster::set_node_factory`).
    ///
    /// [`FalseSuspicion`]: ScenarioEvent::FalseSuspicion
    /// [`Restart`]: ScenarioEvent::Restart
    #[deny(
        clippy::wildcard_enum_match_arm,
        clippy::match_wildcard_for_single_variants
    )]
    pub fn apply(&self, cluster: &mut Cluster) {
        let t0 = cluster.now();
        assert_eq!(
            t0,
            VTime::ZERO,
            "apply the scenario before running the cluster (clock already at {t0})"
        );
        for ev in &self.events {
            match *ev {
                ScenarioEvent::Crash { pid, at } => cluster.schedule_crash(pid, t0 + at),
                ScenarioEvent::Restart { pid, at } => cluster.schedule_restart(pid, t0 + at),
                ScenarioEvent::Link {
                    ref fault,
                    from,
                    until,
                } => {
                    // A window opens by writing its fault and closes, if
                    // it closes, by writing the fault-free value back.
                    cluster.schedule_fault(t0 + from, fault.clone());
                    if let Some(until) = until {
                        cluster.schedule_fault(t0 + until, fault.cleared());
                    }
                }
                ScenarioEvent::SlowNode {
                    pid,
                    factor_milli,
                    from,
                    until,
                } => {
                    cluster.schedule_slowdown(t0 + from, pid, factor_milli);
                    if let Some(until) = until {
                        cluster.schedule_slowdown(t0 + until, pid, 1000);
                    }
                }
                ScenarioEvent::FalseSuspicion { .. } => {}
            }
        }
    }

    /// The scripted false-suspicion windows, as absolute instants from
    /// the start of the run — hand these to each node's detector
    /// ([`fortika_fd::HeartbeatFd::with_windows`]) when building nodes.
    pub fn suspicion_windows(&self) -> Vec<SuspicionWindow> {
        self.events
            .iter()
            .filter_map(|ev| match ev {
                ScenarioEvent::FalseSuspicion {
                    observer,
                    suspect,
                    from,
                    until,
                } => Some(SuspicionWindow {
                    observer: *observer,
                    suspect: *suspect,
                    from: VTime::ZERO + *from,
                    until: VTime::ZERO + *until,
                }),
                _ => None,
            })
            .collect()
    }

    /// Processes this scenario crash-stops **permanently** (they are
    /// *not correct* in the atomic-broadcast sense). A process whose
    /// last crash is followed by a [`Restart`] is correct again: it does
    /// not appear here and does not count against the minority crash
    /// budget.
    ///
    /// [`Restart`]: ScenarioEvent::Restart
    pub fn crashed(&self) -> Vec<ProcessId> {
        self.last_crashes()
            .into_iter()
            .map(|(pid, _)| pid)
            .collect()
    }

    /// [`crashed`](Self::crashed), each with the instant of its final
    /// crash, in pid order.
    fn last_crashes(&self) -> Vec<(ProcessId, VDur)> {
        let mut last_crash: BTreeMap<ProcessId, VDur> = Default::default();
        let mut last_restart: BTreeMap<ProcessId, VDur> = Default::default();
        for ev in &self.events {
            let (last, pid, at) = match ev {
                ScenarioEvent::Crash { pid, at } => (&mut last_crash, pid, at),
                ScenarioEvent::Restart { pid, at } => (&mut last_restart, pid, at),
                _ => continue,
            };
            let e = last.entry(*pid).or_insert(*at);
            *e = (*e).max(*at);
        }
        last_crash
            .into_iter()
            .filter(|(pid, down)| match last_restart.get(pid) {
                Some(up) => up <= down, // revival must strictly follow the crash
                None => true,
            })
            .collect()
    }

    /// Processes that crash and come back at least once.
    pub fn restarted(&self) -> Vec<ProcessId> {
        let revived = self.events.iter().filter_map(|ev| match ev {
            ScenarioEvent::Restart { pid, .. } => Some(*pid),
            _ => None,
        });
        revived.collect::<BTreeSet<_>>().into_iter().collect()
    }

    /// True when the *permanent* crashes stay within the minority the
    /// correct-majority assumption tolerates. Crashed-then-restarted
    /// processes do not count: with votes on stable storage a revived
    /// process re-enters consensus with its locks intact, so only
    /// processes that stay down erode the quorum.
    pub fn quorum_safe(&self, n: usize) -> bool {
        self.last_crashes().len() <= (n - 1) / 2
    }

    /// Processes of a group of `n` that stay correct under this
    /// scenario.
    pub fn correct(&self, n: usize) -> Vec<ProcessId> {
        let crashed = self.crashed();
        ProcessId::all(n).filter(|p| !crashed.contains(p)).collect()
    }

    /// True when every non-crash fault window ends (partitions heal,
    /// loss/dup/delay windows close): after [`Scenario::horizon`] the
    /// network is quasi-reliable again, so validity (liveness) can be
    /// asserted on top of safety.
    #[deny(
        clippy::wildcard_enum_match_arm,
        clippy::match_wildcard_for_single_variants
    )]
    pub fn heals(&self) -> bool {
        self.events.iter().all(|ev| match ev {
            ScenarioEvent::Link { until, .. } | ScenarioEvent::SlowNode { until, .. } => {
                until.is_some()
            }
            ScenarioEvent::Crash { .. }
            | ScenarioEvent::Restart { .. }
            | ScenarioEvent::FalseSuspicion { .. } => true,
        })
    }

    /// The last instant at which this scenario touches the run (crash
    /// instants, window ends). Size run drains relative to this.
    #[deny(
        clippy::wildcard_enum_match_arm,
        clippy::match_wildcard_for_single_variants
    )]
    pub fn horizon(&self) -> VDur {
        self.events
            .iter()
            .map(|ev| match ev {
                ScenarioEvent::Crash { at, .. } | ScenarioEvent::Restart { at, .. } => *at,
                ScenarioEvent::Link { from, until, .. }
                | ScenarioEvent::SlowNode { from, until, .. } => until.unwrap_or(*from),
                ScenarioEvent::FalseSuspicion { until, .. } => *until,
            })
            .fold(VDur::ZERO, |a, b| if a > b { a } else { b })
    }

    /// Draws a random scenario for a group of `n` from `seed`.
    ///
    /// The generator respects the model's assumptions so that safety
    /// *and* (after healing) liveness are fair to assert: at most a
    /// minority of processes crash **permanently** (crash-restart
    /// victims hand their budget slot back — a revived process is
    /// correct again), at least one process never crashes at all (the
    /// decided prefix lives in volatile caches, so somebody must
    /// remember it for rejoining processes; stable storage covers votes,
    /// not values), every partition heals, every loss/duplication/delay
    /// window closes, and all fault activity finishes by
    /// `profile.horizon`.
    pub fn random(n: usize, seed: u64, profile: &ChaosProfile) -> Scenario {
        assert!(n >= 2, "chaos needs at least two processes");
        let mut rng = DetRng::derive(seed, 0xC4A05);
        let mut s = Scenario::new();
        let horizon_ns = profile.horizon.as_nanos();
        let at = |rng: &mut DetRng, lo_frac: f64, hi_frac: f64| {
            let lo = (horizon_ns as f64 * lo_frac) as u64;
            let hi = (horizon_ns as f64 * hi_frac) as u64;
            VDur::nanos(lo + rng.below(hi.saturating_sub(lo).max(1)))
        };

        // Crashes: permanent ones clamp to a minority; crash-restart
        // cycles only consume the "leave one untouched" budget.
        let permanent_budget = (n - 1) / 2;
        let max_events = n - 1;
        let mut victims: Vec<u16> = (0..n as u16).collect();
        let mut used = 0usize;
        let mut permanent = 0usize;
        let mut revived: Vec<(ProcessId, VDur)> = Vec::new();
        for _ in 0..max_events {
            if rng.unit_f64() >= profile.crash_prob {
                continue;
            }
            let revive = profile.restart_prob > 0.0 && rng.unit_f64() < profile.restart_prob;
            if !revive && permanent >= permanent_budget {
                continue; // out of permanent budget, and no revival drawn
            }
            // Pick a not-yet-crashed victim.
            let k = used + rng.below((victims.len() - used) as u64) as usize;
            victims.swap(used, k);
            let pid = ProcessId(victims[used]);
            used += 1;
            if revive {
                let down = at(&mut rng, 0.1, 0.7);
                let up = down + at(&mut rng, 0.05, 0.25);
                s = s.crash(pid, down).restart(pid, up);
                revived.push((pid, up));
            } else {
                permanent += 1;
                s = s.crash(pid, at(&mut rng, 0.1, 0.9));
            }
        }

        // Crash-restart-crash: a revived victim may later go down for
        // good. It then counts against the permanent minority budget
        // exactly like a never-revived crash ([`Scenario::crashed`]
        // treats a process whose last crash follows its last restart as
        // permanently crashed). Drawn from a derived stream so the
        // fault windows below keep their shapes across this feature.
        if profile.recrash_prob > 0.0 {
            let mut recrash_rng = DetRng::derive(seed, 0x2ECA);
            for (pid, up) in revived {
                if permanent >= permanent_budget {
                    break;
                }
                if recrash_rng.unit_f64() < profile.recrash_prob {
                    permanent += 1;
                    // Clamped to the horizon: all fault activity must
                    // finish by `profile.horizon` (revivals land at
                    // 0.95 × horizon at the latest, so the clamp keeps
                    // the recrash strictly after the restart).
                    let down_again = (up + at(&mut recrash_rng, 0.02, 0.2)).min(profile.horizon);
                    s = s.crash(pid, down_again);
                }
            }
        }

        // One partition window: random proper split into two groups.
        if n >= 3 && rng.unit_f64() < profile.partition_prob {
            let (mut left, mut right): (Vec<_>, Vec<_>) =
                ProcessId::all(n).partition(|_| rng.below(2) == 0);
            if left.is_empty() {
                left.push(right.pop().expect("n >= 3"));
            } else if right.is_empty() {
                right.push(left.pop().expect("n >= 3"));
            }
            let from = at(&mut rng, 0.1, 0.5);
            let until = from + at(&mut rng, 0.1, 0.4);
            s = s.partition(vec![left, right], from, until);
        }

        // One lossy window on a random selector.
        if rng.unit_f64() < profile.loss_prob {
            let link = random_selector(&mut rng, n);
            let p = 0.05 + rng.unit_f64() * (MAX_LOSS - 0.05).max(0.0);
            let from = at(&mut rng, 0.0, 0.6);
            let until = from + at(&mut rng, 0.1, 0.35);
            s = s.lossy(link, p, from, until);
        }

        // One duplication window.
        if rng.unit_f64() < profile.dup_prob {
            let link = random_selector(&mut rng, n);
            let p = 0.1 + rng.unit_f64() * 0.4;
            let from = at(&mut rng, 0.0, 0.6);
            let until = from + at(&mut rng, 0.1, 0.35);
            s = s.duplicate(link, p, from, until);
        }

        // One delay spike (2×–20×).
        if rng.unit_f64() < profile.delay_prob {
            let link = random_selector(&mut rng, n);
            let factor = 2000 + rng.below(18_000);
            let from = at(&mut rng, 0.0, 0.6);
            let until = from + at(&mut rng, 0.1, 0.35);
            s = s.delay_spike(link, factor, from, until);
        }

        // Resource-fault windows (degraded link, slow node), drawn from
        // a derived stream so the omission-fault families above keep
        // their shapes across this feature (same pattern as recrash).
        if profile.degrade_prob > 0.0 || profile.slow_prob > 0.0 {
            let mut res_rng = DetRng::derive(seed, 0x2E50);
            if res_rng.unit_f64() < profile.degrade_prob {
                let link = random_selector(&mut res_rng, n);
                // 5 %–50 % of nominal bandwidth.
                let rate = 50 + res_rng.below(451);
                let from = at(&mut res_rng, 0.0, 0.6);
                let until = from + at(&mut res_rng, 0.1, 0.35);
                s = s.degrade_link(link, rate, from, until);
            }
            if res_rng.unit_f64() < profile.slow_prob {
                let pid = ProcessId(res_rng.below(n as u64) as u16);
                // 2×–6× slower.
                let factor = 2000 + res_rng.below(4001);
                let from = at(&mut res_rng, 0.0, 0.6);
                let until = from + at(&mut res_rng, 0.1, 0.35);
                s = s.slow_node(pid, factor, from, until);
            }
        }

        // One scripted false suspicion of a (possibly healthy) process.
        if rng.unit_f64() < profile.false_suspicion_prob {
            let observer = ProcessId(rng.below(n as u64) as u16);
            let mut suspect = ProcessId(rng.below(n as u64) as u16);
            if suspect == observer {
                suspect = ProcessId((suspect.0 + 1) % n as u16);
            }
            let from = at(&mut rng, 0.1, 0.6);
            let until = from + at(&mut rng, 0.05, 0.3);
            s = s.false_suspicion(observer, suspect, from, until);
        }

        // Pipeline depth: a configuration axis, not a fault — drawn
        // uniformly from 1..=MAX_PIPELINE_DEPTH so every fault family
        // above is also fuzzed against pipelined instance execution. A
        // derived stream keeps the fault-window shapes identical across
        // this feature.
        let mut depth_rng = DetRng::derive(seed, 0xA1FA);
        s.pipeline_depth = 1 + depth_rng.below(MAX_PIPELINE_DEPTH as u64) as usize;

        s
    }
}

fn random_selector(rng: &mut DetRng, n: usize) -> LinkSelector {
    let a = ProcessId(rng.below(n as u64) as u16);
    let b = ProcessId(((a.0 as u64 + 1 + rng.below(n as u64 - 1)) % n as u64) as u16);
    match rng.below(5) {
        0 => LinkSelector::All,
        1 => LinkSelector::Between(a, b),
        2 => LinkSelector::Directed { src: a, dst: b },
        3 => LinkSelector::From(a),
        _ => LinkSelector::To(a),
    }
}

/// Cap on the drop probability of a generated lossy window.
const MAX_LOSS: f64 = 0.3;

/// Upper bound of the windowed-sequencer depth the generator draws per
/// scenario (uniform in `1..=MAX_PIPELINE_DEPTH`).
const MAX_PIPELINE_DEPTH: usize = 4;

/// Tunables of the random scenario generator (probabilities per fault
/// family, horizon). The crash budget is fixed: permanent crashes are
/// clamped to a minority, `(n-1)/2`, and crash-restart cycles only so
/// that one process stays untouched.
#[derive(Debug, Clone)]
pub struct ChaosProfile {
    /// All fault activity finishes by this offset.
    pub horizon: VDur,
    /// Probability that each allowed crash slot is used.
    pub crash_prob: f64,
    /// Probability that a drawn crash is followed by a restart
    /// (crash-recovery) instead of being permanent.
    pub restart_prob: f64,
    /// Probability that a crash-restart victim later crashes **again,
    /// permanently** (crash-restart-crash). The second crash consumes a
    /// slot of the permanent minority budget, since a process that
    /// stays down after its revival erodes the quorum like any other
    /// permanent crash.
    pub recrash_prob: f64,
    /// Probability of a (healing) partition window.
    pub partition_prob: f64,
    /// Probability of a lossy window.
    pub loss_prob: f64,
    /// Probability of a duplication window.
    pub dup_prob: f64,
    /// Probability of a delay-spike window.
    pub delay_prob: f64,
    /// Probability of a degraded-link window (bandwidth shrunk to
    /// 5–50 % of nominal; the link serializes at the reduced rate).
    pub degrade_prob: f64,
    /// Probability of a slow-node window (one process's CPU costs
    /// multiplied 2–6×; the victim stays correct, just slower).
    pub slow_prob: f64,
    /// Probability of a scripted false-suspicion window.
    pub false_suspicion_prob: f64,
}

impl Default for ChaosProfile {
    fn default() -> Self {
        ChaosProfile {
            horizon: VDur::secs(2),
            crash_prob: 0.5,
            restart_prob: 0.4,
            recrash_prob: 0.25,
            partition_prob: 0.5,
            loss_prob: 0.5,
            dup_prob: 0.35,
            delay_prob: 0.35,
            degrade_prob: 0.25,
            slow_prob: 0.25,
            false_suspicion_prob: 0.35,
        }
    }
}

impl ChaosProfile {
    /// A profile of **resource faults only** (degraded links, slow
    /// nodes): no process crashes, no message is ever dropped — the
    /// cluster merely runs short of bandwidth and CPU. Latency and
    /// throughput suffer, but every safety *and* liveness obligation
    /// still holds, which is exactly what the resource-fault regression
    /// suite asserts.
    pub fn resource_only() -> Self {
        ChaosProfile {
            crash_prob: 0.0,
            partition_prob: 0.0,
            loss_prob: 0.0,
            dup_prob: 0.0,
            delay_prob: 0.0,
            false_suspicion_prob: 0.0,
            degrade_prob: 0.9,
            slow_prob: 0.9,
            ..ChaosProfile::default()
        }
    }

    /// Coverage-steered reweighting: boosts the probability of every
    /// fault family in proportion to its **coverage deficit** — the
    /// fraction of protocol branches no absorbed run containing that
    /// family has reached ([`CoverageReport::family_deficit`]) — so the
    /// next batch of [`Scenario::random`] draws leans toward the
    /// family × branch cells the campaign has not witnessed yet.
    ///
    /// Three invariants keep steering safe and reproducible:
    ///
    /// * **Empty report ⇒ identity.** With zero absorbed runs the
    ///   profile is returned unchanged, so an unsteered campaign's
    ///   draws are byte-identical to today's.
    /// * **Disabled families stay disabled.** A knob at 0.0 is never
    ///   raised: steering explores within the profile author's fault
    ///   envelope, it does not widen it (a validity-preserving profile
    ///   stays validity-preserving).
    /// * **Same streams.** Steering only changes knob *values*; the
    ///   generator consumes its RNG streams identically, so the same
    ///   `(seed, CoverageReport)` pair always yields the same scenario.
    ///
    /// Boosts are capped at 0.9 so a residual of unsteered draws keeps
    /// exploring combinations outside the deficit-ranked families.
    pub fn steered(&self, report: &CoverageReport) -> ChaosProfile {
        if report.runs() == 0 {
            return self.clone();
        }
        let boost = |prob: f64, deficit: f64| -> f64 {
            if prob <= 0.0 || deficit <= 0.0 {
                prob
            } else {
                let target = prob + (MAX_STEERED_PROB - prob).max(0.0) * deficit;
                target.min(MAX_STEERED_PROB)
            }
        };
        let d = |family: &str| report.family_deficit(family);
        ChaosProfile {
            // Restarts (and recrashes) only happen on crashed
            // processes, so the crash knob carries their deficit too.
            crash_prob: boost(self.crash_prob, d("crash").max(d("restart"))),
            restart_prob: boost(self.restart_prob, d("restart")),
            recrash_prob: boost(self.recrash_prob, d("restart")),
            partition_prob: boost(self.partition_prob, d("partition")),
            loss_prob: boost(self.loss_prob, d("lossy")),
            dup_prob: boost(self.dup_prob, d("duplicate")),
            delay_prob: boost(self.delay_prob, d("delay_spike")),
            degrade_prob: boost(self.degrade_prob, d("degrade_link")),
            slow_prob: boost(self.slow_prob, d("slow_node")),
            false_suspicion_prob: boost(self.false_suspicion_prob, d("false_suspicion")),
            ..self.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates_events() {
        let s = Scenario::new()
            .crash(ProcessId(0), VDur::millis(10))
            .partition(
                vec![vec![ProcessId(0), ProcessId(1)], vec![ProcessId(2)]],
                VDur::millis(5),
                VDur::millis(50),
            )
            .lossy(LinkSelector::All, 0.2, VDur::ZERO, VDur::millis(100));
        assert_eq!(s.events().len(), 3);
        assert_eq!(s.crashed(), vec![ProcessId(0)]);
        assert_eq!(s.correct(3), vec![ProcessId(1), ProcessId(2)]);
        assert!(s.heals());
        assert_eq!(s.horizon(), VDur::millis(100));
    }

    #[test]
    fn permanent_partition_does_not_heal() {
        let s = Scenario::new().partition_forever(
            vec![vec![ProcessId(0)], vec![ProcessId(1)]],
            VDur::millis(1),
        );
        assert!(!s.heals());
    }

    #[test]
    fn random_scenarios_replay_and_respect_minority() {
        for n in [3usize, 5, 7] {
            for seed in 0..40u64 {
                let a = Scenario::random(n, seed, &ChaosProfile::default());
                let b = Scenario::random(n, seed, &ChaosProfile::default());
                assert_eq!(
                    format!("{a:?}"),
                    format!("{b:?}"),
                    "seed {seed} not reproducible"
                );
                assert!(
                    a.crashed().len() <= (n - 1) / 2,
                    "seed {seed}: {} crashes of n={n}",
                    a.crashed().len()
                );
                assert!(a.heals(), "seed {seed}: generated a non-healing fault");
                assert!(a.horizon() <= VDur::secs(2) + VDur::secs(1));
            }
        }
    }

    #[test]
    fn restart_makes_a_crashed_process_correct_again() {
        let s = Scenario::new()
            .crash(ProcessId(0), VDur::millis(10))
            .restart(ProcessId(0), VDur::millis(50))
            .crash(ProcessId(1), VDur::millis(20));
        // p1 came back: only p2 is permanently crashed.
        assert_eq!(s.crashed(), vec![ProcessId(1)]);
        assert_eq!(s.restarted(), vec![ProcessId(0)]);
        assert!(s.quorum_safe(3));
        assert_eq!(s.correct(3), vec![ProcessId(0), ProcessId(2)]);
        assert_eq!(s.horizon(), VDur::millis(50));
        assert!(s.heals());
    }

    #[test]
    fn generator_emits_restarts_within_budgets() {
        let mut any_restart = false;
        for n in [3usize, 5] {
            for seed in 0..60u64 {
                let s = Scenario::random(n, seed, &ChaosProfile::default());
                assert!(
                    s.quorum_safe(n),
                    "seed {seed} n={n}: permanent crashes exceed the minority"
                );
                // Every restart pairs with an earlier crash of the same
                // process, and one process never crashes at all.
                let mut crash_at: std::collections::BTreeMap<ProcessId, VDur> = Default::default();
                for ev in s.events() {
                    match ev {
                        ScenarioEvent::Crash { pid, at } => {
                            crash_at.insert(*pid, *at);
                        }
                        ScenarioEvent::Restart { pid, at } => {
                            let down = crash_at.get(pid).expect("restart without crash");
                            assert!(at > down, "seed {seed}: restart not after crash");
                        }
                        _ => {}
                    }
                }
                assert!(
                    crash_at.len() < n,
                    "seed {seed} n={n}: no process left untouched"
                );
                any_restart |= !s.restarted().is_empty();
            }
        }
        assert!(any_restart, "default profile never generated a restart");
    }

    #[test]
    fn crash_restart_crash_is_a_permanent_crash() {
        // Audit of the quorum accounting: a process that crashes, comes
        // back, and then crashes *again* without a later restart stays
        // down — it must count against the permanent minority, exactly
        // like a never-revived crash.
        let s = Scenario::new()
            .crash(ProcessId(0), VDur::millis(10))
            .restart(ProcessId(0), VDur::millis(20))
            .crash(ProcessId(0), VDur::millis(30))
            .crash(ProcessId(1), VDur::millis(15));
        assert_eq!(s.crashed(), vec![ProcessId(0), ProcessId(1)]);
        assert_eq!(s.restarted(), vec![ProcessId(0)]);
        assert_eq!(s.correct(3), vec![ProcessId(2)]);
        // Two permanent crashes exceed the minority of n = 3 but not 5.
        assert!(!s.quorum_safe(3));
        assert!(s.quorum_safe(5));
    }

    #[test]
    fn generator_recrashes_consume_the_permanent_budget() {
        let profile = ChaosProfile {
            crash_prob: 1.0,
            restart_prob: 0.8,
            recrash_prob: 1.0,
            ..ChaosProfile::default()
        };
        let mut any_recrash = false;
        for n in [3usize, 5, 7] {
            for seed in 0..60u64 {
                let s = Scenario::random(n, seed, &profile);
                assert!(
                    s.quorum_safe(n),
                    "seed {seed} n={n}: {} permanent crashes exceed the minority",
                    s.crashed().len()
                );
                // A crash-restart-crash victim appears in both sets, and
                // its final crash must strictly follow its restart.
                let crashed = s.crashed();
                for pid in s.restarted() {
                    if !crashed.contains(&pid) {
                        continue;
                    }
                    any_recrash = true;
                    let last_restart = s
                        .events()
                        .iter()
                        .filter_map(|ev| match ev {
                            ScenarioEvent::Restart { pid: p, at } if *p == pid => Some(*at),
                            _ => None,
                        })
                        .max()
                        .expect("restarted");
                    let last_crash = s
                        .events()
                        .iter()
                        .filter_map(|ev| match ev {
                            ScenarioEvent::Crash { pid: p, at } if *p == pid => Some(*at),
                            _ => None,
                        })
                        .max()
                        .expect("crashed");
                    assert!(
                        last_crash > last_restart,
                        "seed {seed}: recrash not after restart"
                    );
                }
            }
        }
        assert!(any_recrash, "recrash_prob 1.0 never produced a recrash");
    }

    #[test]
    fn generator_draws_bounded_pipeline_depths() {
        let mut seen = std::collections::BTreeSet::new();
        for seed in 0..60u64 {
            let a = Scenario::random(4, seed, &ChaosProfile::default());
            let b = Scenario::random(4, seed, &ChaosProfile::default());
            assert_eq!(
                a.pipeline_depth(),
                b.pipeline_depth(),
                "seed {seed}: depth draw not reproducible"
            );
            assert!(
                (1..=4).contains(&a.pipeline_depth()),
                "seed {seed}: depth {} out of 1..=4",
                a.pipeline_depth()
            );
            seen.insert(a.pipeline_depth());
        }
        assert!(seen.len() > 2, "depth barely varies: {seen:?}");
        // Hand-built scenarios default to 1 and are overridable.
        assert_eq!(Scenario::new().pipeline_depth(), 1);
        assert_eq!(Scenario::new().with_pipeline_depth(6).pipeline_depth(), 6);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_pipeline_depth_rejected() {
        let _ = Scenario::new().with_pipeline_depth(0);
    }

    #[test]
    fn random_scenarios_vary_with_seed() {
        let distinct: std::collections::BTreeSet<String> = (0..20)
            .map(|seed| format!("{:?}", Scenario::random(5, seed, &ChaosProfile::default())))
            .collect();
        assert!(
            distinct.len() > 10,
            "generator barely varies: {}",
            distinct.len()
        );
    }

    #[test]
    fn resource_fault_windows_heal_and_extend_horizon() {
        let s = Scenario::new()
            .degrade_link(LinkSelector::All, 100, VDur::millis(50), VDur::millis(150))
            .slow_node(ProcessId(2), 4000, VDur::millis(100), VDur::millis(400));
        assert!(s.heals());
        assert_eq!(s.horizon(), VDur::millis(400));
        // Resource faults crash nobody: everyone stays correct.
        assert_eq!(s.crashed(), vec![]);
        assert_eq!(s.correct(3).len(), 3);
        assert!(s.quorum_safe(3));
    }

    #[test]
    fn resource_only_profile_generates_only_resource_faults() {
        let mut any_degrade = false;
        let mut any_slow = false;
        for seed in 0..40u64 {
            let s = Scenario::random(4, seed, &ChaosProfile::resource_only());
            for ev in s.events() {
                match ev {
                    ScenarioEvent::Link {
                        fault: LinkFault::Degrade { rate_milli, .. },
                        ..
                    } => {
                        assert!((1..=1000).contains(rate_milli));
                        any_degrade = true;
                    }
                    ScenarioEvent::SlowNode {
                        pid, factor_milli, ..
                    } => {
                        assert!(pid.index() < 4);
                        assert!(*factor_milli >= 1000, "generator must not speed nodes up");
                        any_slow = true;
                    }
                    other => panic!("resource_only generated {other:?}"),
                }
            }
            assert!(s.heals(), "seed {seed}: resource window never closes");
        }
        assert!(any_degrade, "profile never degraded a link");
        assert!(any_slow, "profile never slowed a node");
    }

    /// Every builder and [`Scenario::event`] refuse an out-of-range
    /// parameter through `LinkFault::check`, and `event` refuses a
    /// closer as a window; the last row panics for the harness.
    #[test]
    #[should_panic(expected = "out of range")]
    fn degrade_rate_zero_rejected() {
        let (link, from, to, until) = (LinkSelector::All, VDur::ZERO, VDur::millis(1), None);
        let refused = |wording: &str, build: &dyn Fn() -> Scenario| {
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(build));
            let err = err.expect_err("accepted");
            let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(msg.contains(wording), "{msg}");
        };
        let (new, range) = (Scenario::new, "out of range");
        let window = |fault| new().event(ScenarioEvent::Link { fault, from, until });
        refused(range, &|| new().lossy(link, 1.5, from, to));
        refused(range, &|| new().duplicate(link, 2.0, from, to));
        refused(range, &|| new().degrade_link(link, 1001, from, to));
        refused(range, &|| window(LinkFault::Loss { link, p: -0.5 }));
        refused("cannot open", &|| window(LinkFault::Heal));
        refused("cannot open", &|| window(LinkFault::Reset));
        let _ = Scenario::new().degrade_link(link, 0, from, to);
    }

    #[test]
    fn families_are_deduped_ordered_and_track_pipelining() {
        let s = Scenario::new()
            .lossy(LinkSelector::All, 0.2, VDur::ZERO, VDur::millis(10))
            .crash(ProcessId(0), VDur::millis(5))
            .crash(ProcessId(1), VDur::millis(6))
            .restart(ProcessId(0), VDur::millis(9));
        // Canonical order, duplicates collapsed, depth 1 => no
        // "pipelined" family.
        assert_eq!(s.families(), vec!["crash", "restart", "lossy"]);
        let piped = s.with_pipeline_depth(3);
        assert_eq!(
            piped.families(),
            vec!["crash", "restart", "lossy", "pipelined"]
        );
        assert_eq!(Scenario::new().families(), Vec::<&str>::new());
        // Every family string the events can produce is in the
        // canonical vocabulary.
        for ev in piped.events() {
            assert!(FAMILIES.contains(&ev.family()), "{:?}", ev.family());
        }
    }

    #[test]
    fn quorum_safe_counts_permanent_crashes_against_the_minority() {
        let one = Scenario::new().crash(ProcessId(0), VDur::millis(500));
        assert!(one.quorum_safe(3));
        let two = one.clone().crash(ProcessId(1), VDur::millis(600));
        assert!(!two.quorum_safe(3));
        assert!(two.quorum_safe(5));
        // A revived process hands its budget slot back, unless it goes
        // down again for good.
        let revived = two.clone().restart(ProcessId(1), VDur::millis(700));
        assert!(revived.quorum_safe(3));
        assert!(!revived
            .crash(ProcessId(1), VDur::millis(800))
            .quorum_safe(3));
    }

    #[test]
    fn suspicion_windows_extracted() {
        let s = Scenario::new().false_suspicion(
            ProcessId(1),
            ProcessId(0),
            VDur::millis(10),
            VDur::millis(20),
        );
        let w = s.suspicion_windows();
        assert_eq!(w.len(), 1);
        assert_eq!(w[0].observer, ProcessId(1));
        assert_eq!(w[0].suspect, ProcessId(0));
        assert_eq!(w[0].from, VTime::ZERO + VDur::millis(10));
    }
}
