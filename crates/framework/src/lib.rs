//! Cactus-style microprotocol composition framework.
//!
//! The paper builds its *modular* atomic broadcast stack inside the
//! Cactus protocol framework: independent microprotocol modules composed
//! through typed events, each treating its neighbours as black boxes.
//! This crate reproduces that composition kernel:
//!
//! * [`Microprotocol`] — one module: handles events, its own network
//!   messages and timers.
//! * [`CompositeStack`] — a stack of modules that plugs into the cluster
//!   harness as a single [`fortika_net::Node`]; it demuxes network
//!   messages by [`ModuleId`] and dispatches [`Event`]s FIFO.
//! * [`events`] — the service interfaces between modules (atomic
//!   broadcast, consensus, reliable broadcast, failure detection).
//!
//! Every handler invocation charges the cost model's `dispatch` cost, so
//! the mechanical price of composition appears in the simulated CPU —
//! alongside the algorithmic price (extra messages and bytes) that the
//! paper shows dominates.
//!
//! # Example: a module that counts suspicions
//!
//! ```
//! use fortika_framework::{Event, EventKind, FrameworkCtx, Microprotocol, ModuleId};
//!
//! struct SuspicionCounter {
//!     count: u64,
//! }
//!
//! impl Microprotocol for SuspicionCounter {
//!     fn name(&self) -> &'static str { "suspicion-counter" }
//!     fn module_id(&self) -> ModuleId { 99 }
//!     fn subscriptions(&self) -> &'static [EventKind] { &[EventKind::Suspect] }
//!     fn on_event(&mut self, _ctx: &mut FrameworkCtx<'_, '_>, ev: &Event) {
//!         if let Event::Suspect(_) = ev {
//!             self.count += 1;
//!         }
//!     }
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod events;
pub mod stack;

pub use events::{Event, EventKind};
pub use stack::{CompositeStack, FrameworkCtx, Microprotocol, ModuleId};

fortika_net::metric_table! {
    /// What the composition kernel counts: frames it could not route.
    pub mod metrics in FRAMEWORK {
        events {
            GARBAGE = "framework.garbage",
            UNROUTABLE = "framework.unroutable",
            BAD_TIMER = "framework.bad_timer",
        }
        kinds {}
    }
}
