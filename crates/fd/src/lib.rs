//! Failure detectors for the Fortika reproduction.
//!
//! The paper's system model (§2.1) equips every process with a local
//! failure detector (FD) whose output list of suspects "can change over
//! time \[and\] can be inaccurate" — the unreliable failure detectors of
//! Chandra & Toueg. This crate provides:
//!
//! * [`HeartbeatFd`] — the production detector: silence-timing,
//!   eventually-perfect (◇P-style) with adaptive timeouts.
//! * [`QuiescentFd`] — never suspects; zero traffic (the inner detector
//!   of [`OverlayFd`]'s tests).
//! * [`ScriptedFd`] — replays a pre-programmed suspicion schedule
//!   (fault injection for the correctness test-suite).
//! * [`OverlayFd`] — forces scripted false-suspicion windows *on top of*
//!   a live detector (the `fortika-chaos` scenario hook).
//! * [`FdModule`] — framework adapter used by the modular stack. The
//!   monolithic stack embeds a core directly, so both stacks share
//!   identical detector behaviour.
//!
//! Cores are pure state machines (see [`FailureDetector`]); time comes in
//! through parameters, which keeps them trivially testable.
//!
//! # Any message is a heartbeat
//!
//! Both stacks pace their detector with one rule, [`HeartbeatPacer`]:
//! on every polling tick the host feeds the detector the arrival time of
//! each peer's last message — of any kind, read from the cluster's
//! per-link transport clock through a [`LinkClock`] — and then sends a
//! heartbeat only to the peers it sent nothing to within the heartbeat
//! interval. A link that carries protocol traffic carries no heartbeats;
//! a link that falls idle gets one within two intervals of its last
//! message, well inside the timeout. The detection bound is the same as
//! with explicit heartbeats: a crashed peer is suspected no earlier than
//! `timeout` after the last message that arrived from it, and no later
//! than one polling tick after that.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod core;
mod module;
mod overlay;

pub use crate::core::{
    FailureDetector, FdConfig, FdEvent, HeartbeatFd, HeartbeatPacer, LinkClock, QuiescentFd,
    ScriptedFd,
};
pub use module::{FdModule, FD_MODULE_ID};

/// The `stack` label of the detectors' trace spans: `"suspect"` and
/// `"restore"`, whose `instance` is the process concerned. Both stacks'
/// hosts record them at the transition.
pub const TRACE_STACK: &str = "fd";

fortika_net::metric_table! {
    /// What the failure detectors count. The monolith, which embeds a
    /// core instead of the module, bumps and sends under these too.
    pub mod metrics in FD {
        events {
            SUSPICIONS = "fd.suspicions",
            RESTORES = "fd.restores",
            MEMBER_UPDATES = "fd.member_updates",
        }
        kinds {
            HEARTBEAT = "fd.heartbeat",
        }
    }
}
pub use overlay::{OverlayFd, SuspicionWindow};
