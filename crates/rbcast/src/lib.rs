//! Reliable broadcast microprotocols.
//!
//! Reliable broadcast (rbcast/rdeliver) guarantees that a message is
//! delivered either by all correct processes or by none, even if the
//! sender crashes mid-broadcast — but imposes no delivery order. The
//! modular atomic broadcast stack uses it to disseminate consensus
//! decisions (§3.1 of the paper).
//!
//! Two algorithm variants are provided (see [`RbcastVariant`]):
//! the classic flood and the majority-optimized relay scheme whose
//! good-run message count `(n−1)·⌊(n+1)/2⌋` appears in the paper's
//! analytical model. Duplicates are suppressed through a per-origin
//! `fortika_net::WatermarkSet`, which keeps long runs in bounded memory.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod module;

pub use module::{RbcastConfig, RbcastModule, RbcastVariant, RBCAST_MODULE_ID, STABLE_SEQ_KEY};

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
