//! The flow-control microprotocol (top of the modular stack).
//!
//! The paper (§5.1) uses one flow-control mechanism in both stacks: a
//! bound on each process's un-adelivered own messages, tuned so ~M = 4
//! messages are ordered per consensus instance. The window and the
//! resend schedule are [`Outbox`] (shared with the monolithic node,
//! which embeds it); this module is its adapter into the composition
//! framework. It settles the outbox on `Adelivered` and, every
//! [`RESEND_INTERVAL`], re-raises each overdue own message as an
//! `AbcastRequest`, which abcast answers with a fresh dissemination.

use fortika_framework::{Event, EventKind, FrameworkCtx, Microprotocol, ModuleId};
use fortika_net::flow::{Outbox, RESEND_INTERVAL};
use fortika_net::metrics::abcast;
use fortika_net::{Admission, AppRequest, TimerId};

/// Wire demux id of the flow-control module (it sends no messages, but
/// every module needs a unique id).
pub const FLOW_MODULE_ID: ModuleId = 5;

fortika_net::metric_table! {
    /// What flow control counts: its admission decisions.
    pub mod metrics in FLOW {
        events {
            ADMITTED = "flow.admitted",
            BLOCKED = "flow.blocked",
        }
        kinds {}
    }
}

/// Flow-control microprotocol: admits or blocks application requests,
/// reopens the tap when own messages get adelivered, and resends the
/// overdue ones.
pub struct FlowControlModule {
    outbox: Outbox,
}

impl FlowControlModule {
    /// Creates the module with the given window size.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: usize) -> Self {
        FlowControlModule {
            outbox: Outbox::new(window),
        }
    }
}

impl Microprotocol for FlowControlModule {
    fn name(&self) -> &'static str {
        "flow-control"
    }

    fn module_id(&self) -> ModuleId {
        FLOW_MODULE_ID
    }

    fn subscriptions(&self) -> &'static [EventKind] {
        &[EventKind::Adelivered]
    }

    fn on_start(&mut self, ctx: &mut FrameworkCtx<'_, '_>) {
        ctx.set_timer(RESEND_INTERVAL, 0);
    }

    fn on_event(&mut self, ctx: &mut FrameworkCtx<'_, '_>, ev: &Event) {
        if let Event::Adelivered(ids) = ev {
            if self.outbox.settle(|id| ids.contains(&id)) {
                ctx.app_ready();
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut FrameworkCtx<'_, '_>, _timer: TimerId, _tag: u64) {
        for msg in self.outbox.overdue(ctx.now()) {
            ctx.bump(abcast::RETRANSMITS, 1);
            ctx.raise(Event::AbcastRequest(msg));
        }
        ctx.set_timer(RESEND_INTERVAL, 0);
    }

    fn on_request(
        &mut self,
        ctx: &mut FrameworkCtx<'_, '_>,
        req: &AppRequest,
    ) -> Option<Admission> {
        let AppRequest::Abcast(m) = req;
        if self.outbox.admit(m, ctx.now()) {
            ctx.bump(metrics::ADMITTED, 1);
            ctx.raise(Event::AbcastRequest(m.clone()));
            Some(Admission::Accepted)
        } else {
            ctx.bump(metrics::BLOCKED, 1);
            Some(Admission::Blocked)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "must admit something")]
    fn zero_window_rejected() {
        let _ = FlowControlModule::new(0);
    }
}
