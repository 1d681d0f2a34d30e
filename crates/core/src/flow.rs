//! The flow-control microprotocol (top of the modular stack).
//!
//! The paper (§5.1) uses one flow-control mechanism in both stacks: a
//! bound on each process's un-adelivered own messages, tuned so ~M = 4
//! messages are ordered per consensus instance. The window logic itself
//! is [`FlowWindow`] (shared with the monolithic node, which embeds it);
//! this module is its adapter into the composition framework.

use fortika_framework::{Event, EventKind, FrameworkCtx, Microprotocol, ModuleId};
use fortika_net::flow::FlowWindow;
use fortika_net::{Admission, AppRequest};

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

/// Flow-control microprotocol: admits or blocks application requests
/// and reopens the tap when own messages get adelivered.
pub struct FlowControlModule {
    window: FlowWindow,
}

impl FlowControlModule {
    /// Creates the module with the given window size.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: usize) -> Self {
        FlowControlModule {
            window: FlowWindow::new(window),
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

    fn on_event(&mut self, ctx: &mut FrameworkCtx<'_, '_>, ev: &Event) {
        if let Event::Adelivered(ids) = ev {
            let own = ids.iter().filter(|id| id.sender == ctx.pid()).count();
            if self.window.release(own) {
                ctx.app_ready();
            }
        }
    }

    fn on_request(
        &mut self,
        ctx: &mut FrameworkCtx<'_, '_>,
        req: &AppRequest,
    ) -> Option<Admission> {
        let AppRequest::Abcast(m) = req;
        if self.window.try_acquire() {
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
