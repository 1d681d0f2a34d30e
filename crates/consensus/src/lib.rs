//! Chandra–Toueg consensus for the Fortika reproduction.
//!
//! Consensus (propose/decide) lets processes agree on one of their
//! proposed values despite crashes, given an eventually-accurate failure
//! detector and a correct majority. The modular atomic broadcast stack
//! (§3 of the paper) runs a *sequence* of consensus instances, one per
//! ordering step; this crate implements the multi-instance module with
//! the paper's optimizations (skipped round-0 estimate phase,
//! suspicion-driven rounds, `DECISION` tag dissemination).
//!
//! See [`ConsensusModule`] for the algorithm description and
//! [`msg::ConsensusMsg`] for the wire vocabulary. The round machine
//! itself, crash-recovery (durable votes, rejoin), log compaction and
//! snapshot state transfer are not this crate's: the module hosts the
//! [`fortika_net::replica`] core both stacks share — its module docs and
//! those of [`fortika_net::rounds`] describe that protocol.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod module;
pub mod msg;

pub use module::{ConsensusModule, CONSENSUS_MODULE_ID, DECISION_STREAM};
pub use msg::{ConsensusMsg, DecisionNotice, REPLICA_NAMES};
