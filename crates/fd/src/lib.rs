//! The failure detector of the Fortika reproduction.
//!
//! The paper's system model (§2.1) equips every process with a local
//! failure detector (FD) whose output list of suspects "can change over
//! time \[and\] can be inaccurate" — the unreliable failure detectors of
//! Chandra & Toueg. Both stacks run the one detector this crate
//! provides:
//!
//! * [`HeartbeatFd`] — silence-timing, eventually-perfect (◇P-style)
//!   with adaptive timeouts. Chaos runs hand it a scenario's
//!   [`SuspicionWindow`]s ([`HeartbeatFd::with_windows`]), and it
//!   reports forced ∪ genuine suspicion — how `fortika-chaos` exercises
//!   the "inaccurate output" clause.
//! * [`FdModule`] — framework adapter used by the modular stack. The
//!   monolithic stack embeds the detector directly, so both stacks
//!   share identical detector behaviour.
//!
//! The detector is a pure state machine; time comes in through
//! parameters, which keeps it trivially testable.
//!
//! # Any message is a heartbeat
//!
//! Both stacks pace their detector with one rule, [`HeartbeatFd::pace`]:
//! on every polling tick the host feeds the detector the arrival time of
//! each peer's last message — of any kind, read from the cluster's
//! per-link transport clock through a [`LinkClock`] — and then sends a
//! heartbeat only to the peers it sent nothing to within the heartbeat
//! interval, and schedules its next tick for the earliest deadline of
//! the others: one interval after this process last sent on that link.
//! A link that carries protocol traffic carries no heartbeats; a link
//! that falls idle gets one exactly one interval after the last message
//! sent on it, delayed only by the CPU queued ahead of that tick, inside
//! the timeout of one and three quarters intervals. The
//! detection bound is the timeout itself: a crashed peer is suspected
//! `timeout` after the last message that arrived from it, because
//! [`HeartbeatFd`] schedules its next tick at the earliest deadline
//! when that comes before its regular cadence; only the CPU time queued
//! ahead of that tick delays it.
//!
//! # The coordinator is watched at half the timeout
//!
//! Chandra–Toueg consensus waits on one process only, the coordinator
//! of the current round, so each host names it to its detector
//! ([`HeartbeatFd::watch`]; the modular stack through
//! `Event::Coordinator`). That peer is timed out at
//! [`FdConfig::coordinator_timeout`], half the timeout, counted from
//! the hand-off at the latest, so a new coordinator is never suspected
//! for silence it was allowed under member pacing; the process that
//! coordinates heartbeats its own idle links at
//! [`FdConfig::coordinator_interval`], half the interval, by the same
//! seven-quarters rule. Every other link keeps the interval and the
//! timeout, and a loaded run pays nothing, because the coordinator's
//! links carry a message every instance. A crashed coordinator costs
//! half the outage it used to.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod core;
mod module;
mod overlay;

pub use crate::core::{FdConfig, FdEvent, HeartbeatFd, LinkClock, SuspicionWindow};
pub use module::{FdModule, FD_MODULE_ID};

/// The `stack` label of the detector's trace spans: `"suspect"` and
/// `"restore"`, whose `instance` is the process concerned. Both stacks'
/// hosts record them at the transition.
pub const TRACE_STACK: &str = "fd";

fortika_net::metric_table! {
    /// What the failure detector counts. The monolith, which embeds the
    /// detector instead of the module, bumps and sends under these too.
    pub mod metrics in FD {
        events {
            SUSPICIONS = "fd.suspicions",
            RESTORES = "fd.restores",
        }
        kinds {
            HEARTBEAT = "fd.heartbeat",
        }
    }
}
