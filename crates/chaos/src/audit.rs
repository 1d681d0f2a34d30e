//! The audit tap: the one place a run's `Harness` callbacks reach the
//! [`DeliveryOracle`].

use fortika_net::{ClusterApi, Delivery, Harness, MsgId, ProcessId, SnapshotStamp};
use fortika_sim::VTime;

use crate::oracle::DeliveryOracle;

/// A workload driver an [`AuditTap`] can wrap: a [`Harness`] that also
/// reports which submissions the stacks accepted. It is handed the
/// callbacks load generation acts on — delivery, app-ready, tick,
/// restart; snapshot stamps stop at the oracle.
pub trait LoadSource: Harness {
    /// Hands every id accepted since the previous call to `note`.
    fn drain_accepted(&mut self, note: &mut dyn FnMut(MsgId));
}

/// A load source under audit.
///
/// Every audited run — a [`ScriptedDriver`](crate::ScriptedDriver) plan
/// or the experiment runner's measured workload — is a load source
/// wrapped in a tap. The tap tees delivery / restart / snapshot
/// callbacks into the oracle and feeds it the ids the load source got
/// accepted.
///
/// With no oracle attached the tap only forwards: accepted ids are
/// drained and dropped, so plain benchmark runs skip the bookkeeping.
pub struct AuditTap<D> {
    pub(crate) driver: D,
    pub(crate) oracle: Option<DeliveryOracle>,
}

impl<D: LoadSource> AuditTap<D> {
    /// Wraps `driver`; `oracle` audits the run when present.
    pub fn wrap(driver: D, oracle: Option<DeliveryOracle>) -> Self {
        AuditTap { driver, oracle }
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
}
