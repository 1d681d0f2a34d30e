//! The inter-module event vocabulary.
//!
//! In Cactus, microprotocols interact exclusively through *events* bound
//! at composition time; a module knows the service interface of its
//! neighbours but nothing about their implementation. This module is the
//! Rust rendering of those service interfaces:
//!
//! * the **atomic broadcast** boundary ([`Event::AbcastRequest`],
//!   [`Event::Adelivered`]),
//! * the **consensus** service ([`Event::Propose`], [`Event::Decide`]),
//! * the **reliable broadcast** service ([`Event::Rbcast`],
//!   [`Event::RbDeliver`]),
//! * the **failure detector** service ([`Event::Suspect`],
//!   [`Event::Restore`], and [`Event::Coordinator`] the other way).
//!
//! Keeping payloads opaque where the paper requires it (e.g. reliable
//! broadcast carries `Bytes`, not a decision type) is what *enforces* the
//! modularity the paper studies: the modular stack physically cannot
//! implement the monolithic optimizations, because the information they
//! need does not cross these interfaces.

use bytes::Bytes;
use fortika_net::{AppMsg, Batch, MsgId, ProcessId, Snapshot};

/// An event raised on a composite stack's bus.
#[derive(Debug, Clone)]
pub enum Event {
    /// Flow control admitted an application message for atomic broadcast
    /// — or, resending an own message still not adelivered after
    /// `fortika_net::flow::RESEND_INTERVAL`, raises it again. Atomic
    /// broadcast answers both with a dissemination.
    AbcastRequest(AppMsg),
    /// The atomic broadcast module adelivered these messages (in order).
    Adelivered(Vec<MsgId>),
    /// Start consensus `instance` with the given initial value.
    Propose {
        /// Consensus instance number (the paper's `k`).
        instance: u64,
        /// This process's initial value: a batch of undelivered messages.
        value: Batch,
    },
    /// Consensus `instance` decided `value`.
    Decide {
        /// Consensus instance number.
        instance: u64,
        /// The decided batch.
        value: Batch,
    },
    /// Reliably broadcast an opaque payload on a logical stream.
    Rbcast {
        /// Stream discriminator so several users can share the module.
        stream: u8,
        /// Opaque payload (the reliable broadcast module never looks
        /// inside — that opacity is the modularity constraint).
        payload: Bytes,
    },
    /// A reliably broadcast payload was delivered.
    RbDeliver {
        /// Stream discriminator.
        stream: u8,
        /// The process that originally rbcast the payload.
        origin: ProcessId,
        /// The payload.
        payload: Bytes,
    },
    /// The failure detector started suspecting a process.
    Suspect(ProcessId),
    /// The failure detector stopped suspecting a process.
    Restore(ProcessId),
    /// The consensus service now waits on this process, the coordinator
    /// of its current round (raised at start and on every change): the
    /// failure detector watches it closely.
    Coordinator(ProcessId),
    /// The consensus service installed a log-compaction snapshot
    /// (rejoin catch-up past an evicted decided prefix): the delivery
    /// layer must fast-forward to instance `last_included + 1`, seed its
    /// duplicate suppression from the snapshot's delivered sets, and
    /// never expect the compacted instances to be decided again.
    InstallSnapshot {
        /// The installed snapshot.
        snapshot: Snapshot,
    },
}

/// Discriminant of [`Event`], used for subscription routing: the
/// stack's subscription table is indexed by it (`kind as usize`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EventKind {
    /// See [`Event::AbcastRequest`].
    AbcastRequest,
    /// See [`Event::Adelivered`].
    Adelivered,
    /// See [`Event::Propose`].
    Propose,
    /// See [`Event::Decide`].
    Decide,
    /// See [`Event::Rbcast`].
    Rbcast,
    /// See [`Event::RbDeliver`].
    RbDeliver,
    /// See [`Event::Suspect`].
    Suspect,
    /// See [`Event::Restore`].
    Restore,
    /// See [`Event::Coordinator`].
    Coordinator,
    /// See [`Event::InstallSnapshot`].
    InstallSnapshot,
}

impl EventKind {
    /// Number of kinds (the last variant's index + 1: keep
    /// `InstallSnapshot` last).
    pub const COUNT: usize = EventKind::InstallSnapshot as usize + 1;
}

impl Event {
    /// The event's kind (subscription key).
    pub fn kind(&self) -> EventKind {
        match self {
            Event::AbcastRequest(_) => EventKind::AbcastRequest,
            Event::Adelivered(_) => EventKind::Adelivered,
            Event::Propose { .. } => EventKind::Propose,
            Event::Decide { .. } => EventKind::Decide,
            Event::Rbcast { .. } => EventKind::Rbcast,
            Event::RbDeliver { .. } => EventKind::RbDeliver,
            Event::Suspect(_) => EventKind::Suspect,
            Event::Restore(_) => EventKind::Restore,
            Event::Coordinator(_) => EventKind::Coordinator,
            Event::InstallSnapshot { .. } => EventKind::InstallSnapshot,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_match_variants() {
        let m = AppMsg::new(MsgId::new(ProcessId(0), 0), Bytes::new());
        assert_eq!(Event::AbcastRequest(m).kind(), EventKind::AbcastRequest);
        assert_eq!(Event::Adelivered(vec![]).kind(), EventKind::Adelivered);
        assert_eq!(
            Event::Propose {
                instance: 0,
                value: Batch::empty()
            }
            .kind(),
            EventKind::Propose
        );
        assert_eq!(
            Event::Decide {
                instance: 0,
                value: Batch::empty()
            }
            .kind(),
            EventKind::Decide
        );
        assert_eq!(
            Event::Rbcast {
                stream: 0,
                payload: Bytes::new()
            }
            .kind(),
            EventKind::Rbcast
        );
        assert_eq!(
            Event::RbDeliver {
                stream: 0,
                origin: ProcessId(1),
                payload: Bytes::new()
            }
            .kind(),
            EventKind::RbDeliver
        );
        assert_eq!(Event::Suspect(ProcessId(0)).kind(), EventKind::Suspect);
        assert_eq!(Event::Restore(ProcessId(0)).kind(), EventKind::Restore);
        assert_eq!(
            Event::Coordinator(ProcessId(0)).kind(),
            EventKind::Coordinator
        );
    }
}
