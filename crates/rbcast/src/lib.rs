//! Reliable broadcast microprotocols.
//!
//! Reliable broadcast (rbcast/rdeliver) guarantees that a message is
//! delivered either by all correct processes or by none, even if the
//! sender crashes mid-broadcast — but imposes no delivery order. The
//! modular atomic broadcast stack uses it to disseminate consensus
//! decisions (§3.1 of the paper).
//!
//! The classic algorithm floods: every process re-sends on first
//! receipt, n(n−1) messages per rbcast. This crate relays through a
//! majority instead (see [`RbcastModule`]), whose good-run message count
//! `(n−1)·⌊(n+1)/2⌋` appears in the paper's analytical model. Duplicates are suppressed through a per-origin
//! `fortika_net::WatermarkSet`, which keeps long runs in bounded memory.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod module;

pub use module::{RbcastModule, FALLBACK_TIMEOUT, RBCAST_MODULE_ID, STABLE_SEQ_KEY};

fortika_net::metric_table! {
    /// What reliable broadcast counts and sends.
    pub mod metrics in RBCAST {
        events {
            INITIATED = "rbcast.initiated",
            GARBAGE = "rbcast.garbage",
            FLOODS = "rbcast.floods",
        }
        kinds {
            INITIAL = "rb.initial",
            RELAY = "rb.relay",
            FLOOD = "rb.flood",
        }
    }
}
