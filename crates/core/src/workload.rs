//! Workload generation and measurement.
//!
//! The paper's workload (§5.1) is *symmetric*: all `n` processes abcast
//! fixed-size messages at a constant rate, for a global offered load
//! `T_offered` (msgs/s). Abcast is a blocking call: when flow control
//! closes, the generator waits — the offered load is the configured
//! attempt rate, while the measured throughput plateaus at capacity.
//!
//! [`WorkloadDriver`] implements the cluster [`Harness`]: it submits
//! requests on per-process ticks, retries blocked submissions on
//! `app_ready`, and collects the paper's two metrics —
//!
//! * **early latency** `L = (min_i t_i) − t0` per message, with `t0` the
//!   completion of the (admitted) `abcast` call and `t_i` the adeliver
//!   instants, and
//! * **throughput** `T = (1/n) Σ r_i`, the mean adeliver rate.

use std::collections::BTreeMap;

use bytes::Bytes;
use fortika_chaos::LoadSource;
use fortika_net::{Admission, AppMsg, AppRequest, ClusterApi, Delivery, Harness, MsgId, ProcessId};
use fortika_sim::stats::{Histogram, Welford};
use fortika_sim::{DetRng, VDur, VTime};

/// How submission instants are spaced at each sender.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalProcess {
    /// Fixed inter-arrival period — the paper's workload (§5.1).
    ConstantRate,
    /// Exponentially distributed gaps with the same mean — a Poisson
    /// process, the common open-system model (extension; not in the
    /// paper, useful to check the findings aren't artifacts of perfectly
    /// regular arrivals).
    Poisson,
}

/// A symmetric workload: all `n` processes submit at the same rate.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// Global offered load in messages per second (across all senders).
    pub offered_load: f64,
    /// Payload size in bytes (the paper's message size `l`/`s`).
    pub msg_size: usize,
    /// Arrival spacing (constant by default).
    pub arrivals: ArrivalProcess,
}

impl Workload {
    /// A symmetric workload offering `offered_load` msgs/s in total,
    /// each of `msg_size` bytes.
    ///
    /// # Panics
    ///
    /// Panics unless `offered_load` is positive and finite.
    pub fn constant_rate(offered_load: f64, msg_size: usize) -> Self {
        assert!(
            offered_load.is_finite() && offered_load > 0.0,
            "offered load must be positive"
        );
        Workload {
            offered_load,
            msg_size,
            arrivals: ArrivalProcess::ConstantRate,
        }
    }

    /// Like [`constant_rate`](Self::constant_rate), but with Poisson
    /// (exponential-gap) arrivals of the same mean rate.
    pub fn poisson(offered_load: f64, msg_size: usize) -> Self {
        Workload {
            arrivals: ArrivalProcess::Poisson,
            ..Workload::constant_rate(offered_load, msg_size)
        }
    }

    /// Per-process submission period for a group of size `n`.
    pub fn period(&self, n: usize) -> VDur {
        VDur::from_secs_f64(n as f64 / self.offered_load)
    }
}

struct SenderState {
    next_seq: u64,
    blocked: Option<AppMsg>,
    last_tick: VTime,
}

struct PendingMsg {
    t0: VTime,
    earliest: VTime,
    earliest_pid: ProcessId,
    count: usize,
}

/// One finalized early-latency observation, kept only when the sample
/// log is enabled (tracing runs): which message, when its `abcast` call
/// completed, and where/when it was first adelivered. The trace
/// decomposition anchors its per-decision window on these.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencySample {
    /// The sampled message.
    pub id: MsgId,
    /// Completion instant of the admitted `abcast` call.
    pub t0: VTime,
    /// Earliest adeliver instant across all processes.
    pub earliest: VTime,
    /// Process that adelivered first.
    pub earliest_pid: ProcessId,
}

/// Measurement window results for one run.
#[derive(Debug, Clone)]
pub struct WindowStats {
    /// Early-latency samples (milliseconds), over messages admitted in
    /// the window.
    pub latency_ms: Welford,
    /// Full early-latency distribution (milliseconds).
    pub latency_hist: Histogram,
    /// Adeliver events per process with delivery time inside the window.
    pub delivered_per_proc: Vec<u64>,
    /// Messages admitted (abcast completed) inside the window.
    pub admitted: u64,
    /// Admitted-in-window messages never observed delivered by run end.
    pub lost_samples: u64,
    /// Per-message latency observations (empty unless the sample log
    /// was enabled via [`WorkloadDriver::enable_sample_log`]).
    pub samples: Vec<LatencySample>,
}

/// Drives the symmetric workload and records the paper's metrics.
pub struct WorkloadDriver {
    n: usize,
    period: VDur,
    arrivals: ArrivalProcess,
    rng: DetRng,
    window_start: VTime,
    window_end: VTime,
    senders: Vec<SenderState>,
    pending: BTreeMap<MsgId, PendingMsg>,
    latency_ms: Welford,
    latency_hist: Histogram,
    delivered_per_proc: Vec<u64>,
    admitted: u64,
    payload: Bytes,
    /// Accepted ids not yet handed to [`drain_accepted_ids`]
    /// (consumed by the runner's audit tap; drained either way so it
    /// stays small).
    ///
    /// [`drain_accepted_ids`]: Self::drain_accepted_ids
    accepted_ids: Vec<MsgId>,
    /// `Some` when per-message observations should be kept for the
    /// trace decomposition (None on plain benchmark runs: no per-sample
    /// allocation, identical behaviour otherwise).
    sample_log: Option<Vec<LatencySample>>,
}

impl WorkloadDriver {
    /// Creates a driver measuring over `[window_start, window_end]`.
    pub fn new(workload: Workload, n: usize, window_start: VTime, window_end: VTime) -> Self {
        Self::with_seed(workload, n, window_start, window_end, 0x5EED)
    }

    /// Like [`new`](Self::new) with an explicit RNG seed (only used by
    /// the Poisson arrival process).
    pub fn with_seed(
        workload: Workload,
        n: usize,
        window_start: VTime,
        window_end: VTime,
        seed: u64,
    ) -> Self {
        let period = workload.period(n);
        let payload = Bytes::from(vec![0xABu8; workload.msg_size]);
        WorkloadDriver {
            n,
            period,
            arrivals: workload.arrivals,
            rng: DetRng::derive(seed, 0xA11D),
            window_start,
            window_end,
            senders: (0..n)
                .map(|_| SenderState {
                    next_seq: 0,
                    blocked: None,
                    last_tick: VTime::ZERO,
                })
                .collect(),
            pending: BTreeMap::new(),
            latency_ms: Welford::new(),
            latency_hist: Histogram::new(),
            delivered_per_proc: vec![0; n],
            admitted: 0,
            payload,
            accepted_ids: Vec::new(),
            sample_log: None,
        }
    }

    /// Keeps one [`LatencySample`] per in-window message so the runner
    /// can decompose each decision's latency against the event trace.
    /// Off by default; plain benchmark runs never pay for it.
    pub fn enable_sample_log(&mut self) {
        self.sample_log = Some(Vec::new());
    }

    /// Records a finalized in-window observation when the log is on.
    fn log_sample(&mut self, id: MsgId, p: &PendingMsg) {
        if let Some(log) = self.sample_log.as_mut() {
            log.push(LatencySample {
                id,
                t0: p.t0,
                earliest: p.earliest,
                earliest_pid: p.earliest_pid,
            });
        }
    }

    /// Drains the ids accepted since the last call (the runner's audit
    /// tap feeds these to the integrity checker).
    pub fn drain_accepted_ids(&mut self) -> std::vec::Drain<'_, MsgId> {
        self.accepted_ids.drain(..)
    }

    /// The next inter-arrival gap for one sender.
    fn next_gap(&mut self) -> VDur {
        match self.arrivals {
            ArrivalProcess::ConstantRate => self.period,
            ArrivalProcess::Poisson => self.rng.exponential(self.period),
        }
    }

    /// Schedules the first tick of every sender; phases are staggered so
    /// the symmetric load does not arrive in synchronized bursts.
    pub fn start(&mut self, cluster: &mut fortika_net::Cluster) {
        for p in 0..self.n {
            let phase = (self.period / self.n as u64) * p as u64;
            let at = VTime::ZERO + VDur::micros(10) + phase;
            cluster.schedule_tick(at, p as u64);
        }
    }

    /// Finalizes samples and returns the window statistics. Messages
    /// delivered at least once contribute their earliest observed
    /// delivery; admitted messages never delivered are counted lost.
    pub fn finish(mut self) -> WindowStats {
        let mut lost = 0;
        // In id order: the mean is folded sample by sample, so the order
        // of the still-pending ones shows in its last bits.
        for (id, p) in std::mem::take(&mut self.pending) {
            let in_window = p.t0 >= self.window_start && p.t0 <= self.window_end;
            if p.count > 0 {
                if in_window {
                    let ms = p.earliest.since(p.t0).as_millis_f64();
                    self.latency_ms.add(ms);
                    self.latency_hist.record(ms);
                    self.log_sample(id, &p);
                }
            } else if in_window {
                // Admitted during the window but never observed delivered
                // by the end of the drain: a real loss (or a too-short
                // drain) worth surfacing.
                lost += 1;
            }
        }
        WindowStats {
            latency_ms: self.latency_ms,
            latency_hist: self.latency_hist,
            delivered_per_proc: self.delivered_per_proc,
            admitted: self.admitted,
            lost_samples: lost,
            samples: self.sample_log.unwrap_or_default(),
        }
    }

    fn submit(&mut self, api: &mut ClusterApi<'_>, pid: ProcessId, msg: AppMsg) -> bool {
        let (adm, t0) = api.submit(pid, AppRequest::Abcast(msg.clone()));
        match adm {
            Admission::Accepted => {
                if t0 >= self.window_start && t0 <= self.window_end {
                    self.admitted += 1;
                }
                self.accepted_ids.push(msg.id);
                self.pending.insert(
                    msg.id,
                    PendingMsg {
                        t0,
                        earliest: VTime::MAX,
                        earliest_pid: pid,
                        count: 0,
                    },
                );
                true
            }
            Admission::Blocked => {
                self.senders[pid.index()].blocked = Some(msg);
                false
            }
        }
    }

    fn next_msg(&mut self, pid: ProcessId) -> AppMsg {
        let seq = self.senders[pid.index()].next_seq;
        self.senders[pid.index()].next_seq += 1;
        AppMsg::new(MsgId::new(pid, seq), self.payload.clone())
    }

    fn schedule_next(&mut self, api: &mut ClusterApi<'_>, pid: ProcessId) {
        let gap = self.next_gap();
        let s = &mut self.senders[pid.index()];
        // A blocking abcast call does not "catch up" on missed periods.
        let at = (s.last_tick + gap).max(api.now());
        s.last_tick = at;
        api.schedule_tick(at, pid.index() as u64);
    }
}

impl LoadSource for WorkloadDriver {
    fn drain_accepted(&mut self, note: &mut dyn FnMut(MsgId)) {
        self.drain_accepted_ids().for_each(note);
    }
}

impl Harness for WorkloadDriver {
    fn on_tick(&mut self, api: &mut ClusterApi<'_>, tick: u64, at: VTime) {
        // This driver's tick ids are its senders' pids. Anything else —
        // a reserved reconfiguration tick that no `AuditTap` consumed —
        // is not ours to read as one.
        if tick >= self.n as u64 {
            debug_assert!(false, "tick {tick:#x} names no sender of this workload");
            return;
        }
        let pid = ProcessId(tick as u16);
        if self.senders[pid.index()].blocked.is_some() {
            return; // still blocked: the generator is inside abcast()
        }
        self.senders[pid.index()].last_tick = at;
        let msg = self.next_msg(pid);
        if self.submit(api, pid, msg) {
            self.schedule_next(api, pid);
        }
        // If blocked, ticking resumes on app_ready.
    }

    fn on_app_ready(&mut self, api: &mut ClusterApi<'_>, pid: ProcessId, _at: VTime) {
        if pid.index() >= self.n {
            return; // standby process (reconfiguration run): not a sender
        }
        if let Some(msg) = self.senders[pid.index()].blocked.take() {
            if self.submit(api, pid, msg) {
                self.schedule_next(api, pid);
            }
        }
    }

    fn on_restart(&mut self, api: &mut ClusterApi<'_>, pid: ProcessId, at: VTime) {
        // The generator was blocked inside abcast() when the process
        // died: retry against the revived stack (fresh flow window) so
        // the sender's tick chain resumes.
        self.on_app_ready(api, pid, at);
    }

    fn on_delivery(&mut self, _api: &mut ClusterApi<'_>, pid: ProcessId, d: Delivery, at: VTime) {
        if pid.index() >= self.n {
            // Standby / late-added process: it delivers (and the oracle
            // audits it), but the paper's per-sender metrics cover the
            // initial group only.
            return;
        }
        if at >= self.window_start && at <= self.window_end {
            self.delivered_per_proc[pid.index()] += 1;
        }
        if let Some(p) = self.pending.get_mut(&d.msg) {
            p.count += 1;
            if at < p.earliest {
                p.earliest = at;
                p.earliest_pid = pid;
            }
            if p.count == self.n {
                // Everyone delivered: finalize the latency sample.
                let p = self.pending.remove(&d.msg).expect("entry exists");
                if p.t0 >= self.window_start && p.t0 <= self.window_end {
                    let ms = p.earliest.since(p.t0).as_millis_f64();
                    self.latency_ms.add(ms);
                    self.latency_hist.record(ms);
                    self.log_sample(d.msg, &p);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn period_splits_load_across_senders() {
        let w = Workload::constant_rate(1000.0, 64);
        // 1000 msgs/s over 4 senders: each sends every 4 ms.
        assert_eq!(w.period(4), VDur::millis(4));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_load_rejected() {
        let _ = Workload::constant_rate(0.0, 64);
    }

    #[test]
    fn driver_counts_window_admissions_only() {
        let w = Workload::constant_rate(100.0, 8);
        let driver = WorkloadDriver::new(
            w,
            2,
            VTime::ZERO + VDur::secs(1),
            VTime::ZERO + VDur::secs(2),
        );
        let stats = driver.finish();
        assert_eq!(stats.admitted, 0);
        assert_eq!(stats.latency_ms.count(), 0);
        assert_eq!(stats.lost_samples, 0);
    }
}
