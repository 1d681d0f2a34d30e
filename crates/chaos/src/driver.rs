//! Scripted workload driver for scenario runs.
//!
//! Correctness-oriented chaos runs need a driver that (a) submits a
//! known plan of `abcast` calls, (b) honors flow control the way a real
//! blocking caller would, (c) skips senders that have crashed, and
//! (d) feeds everything it learns into the [`DeliveryOracle`]. This
//! module provides that driver so tests and examples do not each
//! reimplement it.

use std::collections::VecDeque;

use bytes::Bytes;
use fortika_net::{Admission, AppMsg, AppRequest, Cluster, ClusterApi, Harness, MsgId, ProcessId};
use fortika_sim::{DetRng, VDur, VTime};

use crate::audit::{AuditTap, LoadSource};
use crate::oracle::DeliveryOracle;

/// One planned `abcast` call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Submission {
    /// The submitting process.
    pub sender: ProcessId,
    /// Offset from the start of the run.
    pub at: VDur,
    /// Payload size in bytes.
    pub size: usize,
}

/// A plan of scripted submissions.
#[derive(Debug, Clone, Default)]
pub struct LoadPlan {
    /// The planned calls (any order; the driver sorts by time).
    pub submissions: Vec<Submission>,
}

impl LoadPlan {
    /// A round-robin plan: `count` messages of `size` bytes, one every
    /// `spacing`, senders rotating through the group.
    pub fn round_robin(n: usize, count: usize, spacing: VDur, size: usize) -> LoadPlan {
        LoadPlan {
            submissions: (0..count)
                .map(|i| Submission {
                    sender: ProcessId((i % n) as u16),
                    at: spacing * (i as u64 + 1),
                    size,
                })
                .collect(),
        }
    }

    /// A seeded random plan: `count` messages at uniform random instants
    /// in `[0, horizon)` from uniform random senders, sized in
    /// `[min(16, max_size), max_size]`.
    ///
    /// # Panics
    ///
    /// Panics if `max_size` is zero (a plan of unsendable messages is a
    /// test bug, not a workload).
    pub fn random(n: usize, seed: u64, count: usize, horizon: VDur, max_size: usize) -> LoadPlan {
        assert!(max_size >= 1, "max_size must admit at least one byte");
        let mut rng = DetRng::derive(seed, 0x10AD);
        // Prefer payloads of at least 16 bytes, but never exceed the
        // configured cap: the old arithmetic generated sizes *above*
        // `max_size` whenever `max_size < 16`.
        let lo = max_size.min(16);
        LoadPlan {
            submissions: (0..count)
                .map(|_| Submission {
                    sender: ProcessId(rng.below(n as u64) as u16),
                    at: VDur::nanos(rng.below(horizon.as_nanos().max(1))),
                    size: lo + rng.below((max_size - lo + 1) as u64) as usize,
                })
                .collect(),
        }
    }
}

/// Drives a [`LoadPlan`] through a cluster while recording every
/// delivery into a [`DeliveryOracle`]: a [`PlanDriver`] under an
/// [`AuditTap`] that always carries an oracle.
///
/// Submission semantics mirror a real blocking `abcast` caller: a
/// blocked submission parks at its sender and is retried when flow
/// control reopens; meanwhile, later planned submissions from that
/// sender queue behind it. Submissions from crashed senders are skipped.
pub type ScriptedDriver = AuditTap<PlanDriver>;

/// The plan-following half of a [`ScriptedDriver`].
pub struct PlanDriver {
    plan: Vec<Submission>,
    next_seq: Vec<u64>,
    /// Parked message + queued plan sizes, per sender.
    parked: Vec<Option<AppMsg>>,
    backlog: Vec<VecDeque<usize>>,
    accepted: Vec<MsgId>,
    /// Incarnation of the sender at acceptance time, parallel to
    /// `accepted`.
    accepted_inc: Vec<u32>,
    /// How many of `accepted` the tap has been told.
    noted: usize,
    /// Restarts observed so far, per process.
    incarnation: Vec<u32>,
}

impl ScriptedDriver {
    /// Creates a driver for a cluster of `n` processes.
    pub fn new(n: usize, mut plan: LoadPlan) -> Self {
        plan.submissions.sort_by_key(|s| s.at);
        let driver = PlanDriver {
            plan: plan.submissions,
            next_seq: vec![0; n],
            parked: vec![None; n],
            backlog: vec![VecDeque::new(); n],
            accepted: Vec::new(),
            accepted_inc: Vec::new(),
            noted: 0,
            incarnation: vec![0; n],
        };
        AuditTap::wrap(driver, Some(DeliveryOracle::new(n)))
    }

    /// Schedules the plan's ticks; call once before running the cluster.
    pub fn start(&mut self, cluster: &mut Cluster) {
        let t0 = cluster.now();
        for (i, sub) in self.driver.plan.iter().enumerate() {
            cluster.schedule_tick(t0 + sub.at, i as u64);
        }
    }

    /// The oracle with everything recorded so far.
    pub fn oracle(&self) -> &DeliveryOracle {
        self.oracle
            .as_ref()
            .expect("a scripted driver is always audited")
    }

    /// Ids of all accepted (admitted) submissions, in acceptance order.
    pub fn accepted(&self) -> &[MsgId] {
        &self.driver.accepted
    }

    /// Ids accepted at processes in `senders` (e.g. the scenario's
    /// correct set) **during the sender's latest incarnation** — the
    /// must-deliver set for validity checks. A message accepted just
    /// before its sender crashed may legitimately die with the crash
    /// even if the sender later restarts (the restarted process has
    /// fresh volatile state and does not re-diffuse it), so pre-crash
    /// acceptances carry no delivery obligation.
    pub fn accepted_at(&self, senders: &[ProcessId]) -> Vec<MsgId> {
        let d = &self.driver;
        d.accepted
            .iter()
            .zip(d.accepted_inc.iter())
            .filter(|(id, &inc)| {
                senders.contains(&id.sender) && inc == d.incarnation[id.sender.index()]
            })
            .map(|(id, _)| *id)
            .collect()
    }
}

impl PlanDriver {
    fn try_submit(&mut self, api: &mut ClusterApi<'_>, sender: ProcessId, size: usize) {
        if !api.alive(sender) {
            return;
        }
        if self.parked[sender.index()].is_some() {
            // Still blocked inside the previous abcast: queue behind it.
            self.backlog[sender.index()].push_back(size);
            return;
        }
        let id = MsgId::new(sender, self.next_seq[sender.index()]);
        let msg = AppMsg::new(id, Bytes::from(vec![sender.0 as u8; size]));
        self.submit(api, sender, msg);
    }

    fn submit(&mut self, api: &mut ClusterApi<'_>, sender: ProcessId, msg: AppMsg) {
        let (adm, _t0) = api.submit(sender, AppRequest::Abcast(msg.clone()));
        match adm {
            Admission::Accepted => {
                self.next_seq[sender.index()] += 1;
                self.accepted.push(msg.id);
                self.accepted_inc.push(self.incarnation[sender.index()]);
            }
            Admission::Blocked => {
                self.parked[sender.index()] = Some(msg);
            }
        }
    }

    /// Retries the parked message and drains the backlog of `pid` (flow
    /// control reopened, or the process restarted with a fresh window).
    fn resume_sender(&mut self, api: &mut ClusterApi<'_>, pid: ProcessId) {
        if let Some(msg) = self.parked[pid.index()].take() {
            self.submit(api, pid, msg);
        }
        while self.parked[pid.index()].is_none() {
            let Some(size) = self.backlog[pid.index()].pop_front() else {
                break;
            };
            self.try_submit(api, pid, size);
        }
    }
}

impl LoadSource for PlanDriver {
    fn drain_accepted(&mut self, note: &mut dyn FnMut(MsgId)) {
        self.accepted[self.noted..].iter().copied().for_each(note);
        self.noted = self.accepted.len();
    }
}

impl Harness for PlanDriver {
    fn on_tick(&mut self, api: &mut ClusterApi<'_>, tick: u64, _at: VTime) {
        let sub = self.plan[tick as usize];
        self.try_submit(api, sub.sender, sub.size);
    }

    fn on_app_ready(&mut self, api: &mut ClusterApi<'_>, pid: ProcessId, _at: VTime) {
        self.resume_sender(api, pid);
    }

    fn on_restart(&mut self, api: &mut ClusterApi<'_>, pid: ProcessId, _at: VTime) {
        self.incarnation[pid.index()] += 1;
        // A blocking caller that died inside abcast() retries against
        // the revived stack (whose flow window is empty again).
        self.resume_sender(api, pid);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_plan_rotates_senders() {
        let plan = LoadPlan::round_robin(3, 6, VDur::millis(2), 64);
        let senders: Vec<u16> = plan.submissions.iter().map(|s| s.sender.0).collect();
        assert_eq!(senders, [0, 1, 2, 0, 1, 2]);
        assert_eq!(plan.submissions[5].at, VDur::millis(12));
    }

    #[test]
    fn random_plan_respects_small_max_size() {
        // Regression: `16 + below(..)` used to generate payloads larger
        // than the configured cap whenever `max_size < 16`.
        for max_size in [1usize, 2, 8, 15, 16] {
            let plan = LoadPlan::random(3, 7, 64, VDur::secs(1), max_size);
            for s in &plan.submissions {
                assert!(
                    s.size <= max_size,
                    "max_size {max_size}: generated {} bytes",
                    s.size
                );
                assert!(s.size >= 1);
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one byte")]
    fn degenerate_plan_size_rejected() {
        let _ = LoadPlan::random(3, 7, 4, VDur::secs(1), 0);
    }

    #[test]
    fn random_plan_is_seeded_and_bounded() {
        let a = LoadPlan::random(4, 9, 32, VDur::secs(1), 1024);
        let b = LoadPlan::random(4, 9, 32, VDur::secs(1), 1024);
        assert_eq!(a.submissions, b.submissions);
        for s in &a.submissions {
            assert!(s.sender.index() < 4);
            assert!(s.at <= VDur::secs(1));
            assert!((16..=1024).contains(&s.size));
        }
        let c = LoadPlan::random(4, 10, 32, VDur::secs(1), 1024);
        assert_ne!(a.submissions, c.submissions);
    }
}
