//! The audit tap: the one place a run's `Harness` callbacks reach the
//! [`DeliveryOracle`].

use fortika_net::{
    reconfig_payload, Admission, AppMsg, AppRequest, ClusterApi, ConfigChange, ConfigStamp,
    Delivery, Harness, MsgId, ProcessId, SnapshotStamp, RECONFIG_SEQ_BASE,
};
use fortika_sim::{VDur, VTime};

use crate::oracle::DeliveryOracle;
use crate::scenario::parse_reconfig_tick;

/// Retry spacing for a reconfiguration submission that could not be
/// placed yet (flow control blocked it, or no process was alive).
const RECONFIG_RETRY: VDur = VDur::millis(10);

/// A workload driver an [`AuditTap`] can wrap: a [`Harness`] that also
/// reports which submissions the stacks accepted. It is handed the
/// callbacks load generation acts on — delivery, app-ready, tick,
/// restart; snapshot and config stamps stop at the oracle.
pub trait LoadSource: Harness {
    /// Hands every id accepted since the previous call to `note`.
    fn drain_accepted(&mut self, note: &mut dyn FnMut(MsgId));
}

/// A load source under audit.
///
/// Every audited run — a [`ScriptedDriver`](crate::ScriptedDriver) plan
/// or the experiment runner's measured workload — is a load source
/// wrapped in a tap. The tap tees delivery / restart / snapshot /
/// config callbacks into the oracle, feeds it the ids the load source
/// got accepted, and turns the reserved reconfiguration ticks a
/// [`Scenario`](crate::Scenario) schedules into `abcast` submissions,
/// so reconfigurations ride the same submission path as application
/// traffic — decided through the log, like the paper's
/// group-membership service would.
///
/// With no oracle attached the tap only forwards: accepted ids are
/// drained and dropped, so plain benchmark runs skip the bookkeeping.
pub struct AuditTap<D> {
    pub(crate) driver: D,
    pub(crate) oracle: Option<DeliveryOracle>,
    /// Accepted reconfiguration submissions so far: the next one's
    /// sequence number above [`RECONFIG_SEQ_BASE`], and — since each,
    /// once decided, must surface as exactly one config version — the
    /// floor fed to [`DeliveryOracle::expect_configs`].
    reconfigs_accepted: u64,
}

impl<D: LoadSource> AuditTap<D> {
    /// Wraps `driver`; `oracle` audits the run when present.
    pub fn wrap(driver: D, oracle: Option<DeliveryOracle>) -> Self {
        AuditTap {
            driver,
            oracle,
            reconfigs_accepted: 0,
        }
    }

    /// Takes the tap apart once the run is over.
    pub fn into_parts(self) -> (D, Option<DeliveryOracle>) {
        (self.driver, self.oracle)
    }

    /// Arms the oracle's unknown-delivery integrity check with what the
    /// driver got accepted since the last callback.
    fn sync_submissions(&mut self) {
        let oracle = &mut self.oracle;
        self.driver.drain_accepted(&mut |id| {
            if let Some(oracle) = oracle {
                oracle.note_submission(id);
            }
        });
    }

    /// Submits `change` through the first alive process, rescheduling
    /// the reserved `tick` [`RECONFIG_RETRY`] later while flow control
    /// blocks it (or nobody is alive yet).
    fn submit_reconfig(
        &mut self,
        api: &mut ClusterApi<'_>,
        tick: u64,
        change: ConfigChange,
        at: VTime,
    ) {
        let Some(sender) = ProcessId::all(api.n()).find(|p| api.alive(*p)) else {
            api.schedule_tick(at + RECONFIG_RETRY, tick);
            return;
        };
        let id = MsgId::new(sender, RECONFIG_SEQ_BASE + self.reconfigs_accepted);
        let msg = AppMsg::new(id, reconfig_payload(change));
        match api.submit(sender, AppRequest::Abcast(msg)).0 {
            Admission::Accepted => {
                self.reconfigs_accepted += 1;
                if let Some(oracle) = &mut self.oracle {
                    oracle.note_submission(id);
                    // Without the floor, a run where *no* process
                    // processed the change would pass vacuously.
                    oracle.expect_configs(self.reconfigs_accepted);
                }
            }
            Admission::Blocked => api.schedule_tick(at + RECONFIG_RETRY, tick),
        }
    }
}

impl<D: LoadSource> Harness for AuditTap<D> {
    fn on_delivery(&mut self, api: &mut ClusterApi<'_>, pid: ProcessId, d: Delivery, at: VTime) {
        if let Some(oracle) = &mut self.oracle {
            oracle.on_delivery(api, pid, d, at);
        }
        self.driver.on_delivery(api, pid, d, at);
    }

    fn on_app_ready(&mut self, api: &mut ClusterApi<'_>, pid: ProcessId, at: VTime) {
        self.driver.on_app_ready(api, pid, at);
        self.sync_submissions();
    }

    fn on_tick(&mut self, api: &mut ClusterApi<'_>, tick: u64, at: VTime) {
        // A reserved reconfiguration tick is never the driver's to
        // interpret: drivers read their tick ids as senders or plan
        // slots.
        if let Some(change) = parse_reconfig_tick(tick) {
            self.submit_reconfig(api, tick, change, at);
            return;
        }
        self.driver.on_tick(api, tick, at);
        self.sync_submissions();
    }

    fn on_restart(&mut self, api: &mut ClusterApi<'_>, pid: ProcessId, at: VTime) {
        if let Some(oracle) = &mut self.oracle {
            oracle.on_restart(api, pid, at);
        }
        self.driver.on_restart(api, pid, at);
        self.sync_submissions();
    }

    fn on_snapshot(
        &mut self,
        api: &mut ClusterApi<'_>,
        pid: ProcessId,
        stamp: SnapshotStamp,
        at: VTime,
    ) {
        if let Some(oracle) = &mut self.oracle {
            oracle.on_snapshot(api, pid, stamp, at);
        }
    }

    fn on_config(
        &mut self,
        api: &mut ClusterApi<'_>,
        pid: ProcessId,
        stamp: ConfigStamp,
        at: VTime,
    ) {
        if let Some(oracle) = &mut self.oracle {
            oracle.on_config(api, pid, stamp, at);
        }
    }
}
