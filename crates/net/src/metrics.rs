//! The typed metric registry: counters and send kinds addressed by a
//! dense index, named only at export.
//!
//! Every counter a protocol bumps ([`Metric`]) and every kind a message
//! is sent under ([`Kind`]) is declared once, in a const table of its
//! namespace ([`metric_table!`](crate::metric_table)). A handle is a
//! `(slot, index)` pair — the table's slot in [`slots`], the entry's
//! position in its table — plus the name it exports under, so
//! [`Counters`](crate::Counters) keeps one dense array per handle type
//! and a write is an array index: no map, no hashing, no string
//! comparison. Names come back only where something is printed or looked
//! up by name (`Counters::event`, `iter_events`, `Display`, the trace).
//!
//! A namespace's table lives in the lowest crate that names one of its
//! handles. `fortika-chaos` sits below the stacks and its coverage
//! branches read the cluster's counters, both stacks' recovery counters
//! and the abcast module's; the monolith, which does not see the modular
//! stack's crates, reports its decisions and deliveries under
//! `consensus.decided` and `abcast.delivered`. So [`cluster`],
//! [`consensus`], [`mono`] and [`abcast`] are declared here, and
//! `framework`, `fd`, `rbcast` and `flow` in their own crates. A
//! mistyped handle does not compile; two tables claiming one name fail
//! `fortika-core`'s uniqueness test.

use std::fmt;

/// The slot of every registered table, one per namespace.
///
/// Slots are pairwise distinct — asserted at compile time below — and a
/// table holds at most [`PER_SLOT`] counters and as many send kinds.
pub mod slots {
    /// `cluster.*` and `chaos.*`: what the simulated cluster counts.
    pub const CLUSTER: u8 = 0;
    /// `consensus.*`: the modular stack's consensus module.
    pub const CONSENSUS: u8 = 1;
    /// `mono.*`: the monolithic stack.
    pub const MONO: u8 = 2;
    /// `abcast.*`: the modular stack's atomic-broadcast module.
    pub const ABCAST: u8 = 3;
    /// `framework.*`: the composition kernel.
    pub const FRAMEWORK: u8 = 4;
    /// `fd.*`: the failure detector.
    pub const FD: u8 = 5;
    /// `rbcast.*` / `rb.*`: reliable broadcast.
    pub const RBCAST: u8 = 6;
    /// `flow.*`: flow control.
    pub const FLOW: u8 = 7;
    /// Tables declared by tests and examples (one per cluster: two in
    /// one `Counters` would share indices).
    pub const TEST: u8 = 8;

    /// Number of slots.
    pub const COUNT: usize = ALL.len();

    const ALL: [u8; 9] = [
        CLUSTER, CONSENSUS, MONO, ABCAST, FRAMEWORK, FD, RBCAST, FLOW, TEST,
    ];
    const _: () = {
        let mut i = 0;
        while i < ALL.len() {
            assert!((ALL[i] as usize) < ALL.len(), "slots are dense from 0");
            let mut j = i + 1;
            while j < ALL.len() {
                assert!(ALL[i] != ALL[j], "metric slots collide");
                j += 1;
            }
            i += 1;
        }
    };
}

/// Counters (and, separately, send kinds) one table may declare.
pub const PER_SLOT: usize = 32;

/// One registered name: the slot of its table, its index there, and the
/// name it exports under.
#[derive(Debug)]
pub struct Entry {
    slot: u8,
    index: u8,
    name: &'static str,
}

impl Entry {
    /// The entry at `index` of the table in `slot` (the
    /// [`metric_table!`](crate::metric_table) expansion calls this).
    ///
    /// # Panics
    ///
    /// At compile time, if the slot is not registered or the table is
    /// full.
    #[doc(hidden)]
    pub const fn new(slot: u8, index: usize, name: &'static str) -> Entry {
        assert!((slot as usize) < slots::COUNT, "unregistered metric slot");
        assert!(index < PER_SLOT, "metric table over PER_SLOT entries");
        Entry {
            slot,
            index: index as u8,
            name,
        }
    }

    /// Position in a [`Counters`](crate::Counters) array.
    #[inline]
    pub(crate) fn at(&self) -> usize {
        self.slot as usize * PER_SLOT + self.index as usize
    }

    /// The name it exports under.
    pub(crate) fn name(&self) -> &'static str {
        self.name
    }
}

/// Entries one [`Counters`](crate::Counters) array holds.
pub(crate) const ENTRIES: usize = slots::COUNT * PER_SLOT;

/// Handle of a free-form protocol counter (`NodeCtx::bump`).
#[derive(Clone, Copy)]
pub struct Metric(&'static Entry);

/// Handle of a send kind, the tag traffic accounting files a message
/// under (`NodeCtx::send`).
#[derive(Clone, Copy)]
pub struct Kind(&'static Entry);

macro_rules! handle {
    ($handle:ident) => {
        impl $handle {
            #[doc(hidden)]
            pub const fn of(entry: &'static Entry) -> Self {
                $handle(entry)
            }

            /// The name this handle exports under (`"consensus.ack"`).
            pub fn name(self) -> &'static str {
                self.0.name
            }

            /// Its registry entry.
            #[inline]
            pub(crate) fn entry(self) -> &'static Entry {
                self.0
            }
        }

        impl fmt::Debug for $handle {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str(self.0.name)
            }
        }

        impl fmt::Display for $handle {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str(self.0.name)
            }
        }
    };
}
handle!(Metric);
handle!(Kind);

/// One namespace's declared names, as [`metric_table!`](crate::metric_table)
/// exports them (`TABLE`): its slot, its counters and its send kinds in
/// declaration order.
#[derive(Debug, Clone, Copy)]
pub struct Table {
    /// Slot in [`slots`].
    pub slot: u8,
    /// Counters, in index order.
    pub events: &'static [Metric],
    /// Send kinds, in index order.
    pub kinds: &'static [Kind],
}

/// Declares one namespace's table: a module holding a [`Metric`] const
/// per counter, a [`Kind`] const per send kind, and `TABLE`.
///
/// ```
/// fortika_net::metric_table! {
///     /// The demo's names.
///     pub mod demo in TEST {
///         events {
///             PINGS = "demo.pings",
///         }
///         kinds {
///             PING = "demo.ping",
///         }
///     }
/// }
///
/// let mut counters = fortika_net::Counters::new();
/// counters.bump(demo::PINGS, 2);
/// counters.record_send(demo::PING, 40);
/// assert_eq!(counters.count(demo::PINGS), 2);
/// assert_eq!(counters.event("demo.pings"), 2);
/// assert_eq!(counters.kind("demo.ping").bytes, 40);
/// assert_eq!(demo::TABLE.events.len(), 1);
/// ```
///
/// `in` names the slot, one of [`slots`]; each handle's doc is the name
/// it exports under.
#[macro_export]
macro_rules! metric_table {
    (
        $(#[$attr:meta])*
        $vis:vis mod $module:ident in $slot:ident {
            events {
                $( $(#[$event_attr:meta])* $event:ident = $event_name:literal, )*
            }
            kinds {
                $( $(#[$kind_attr:meta])* $kind:ident = $kind_name:literal, )*
            }
        }
    ) => {
        $(#[$attr])*
        $vis mod $module {
            #[allow(non_camel_case_types, dead_code, clippy::upper_case_acronyms)]
            enum EventIndex { $($event,)* }
            #[allow(non_camel_case_types, dead_code, clippy::upper_case_acronyms)]
            enum KindIndex { $($kind,)* }

            $(
                $(#[$event_attr])*
                #[doc = concat!("`", $event_name, "`")]
                pub const $event: $crate::metrics::Metric = $crate::metrics::Metric::of(
                    &$crate::metrics::Entry::new(
                        $crate::metrics::slots::$slot,
                        EventIndex::$event as usize,
                        $event_name,
                    ),
                );
            )*
            $(
                $(#[$kind_attr])*
                #[doc = concat!("`", $kind_name, "`")]
                pub const $kind: $crate::metrics::Kind = $crate::metrics::Kind::of(
                    &$crate::metrics::Entry::new(
                        $crate::metrics::slots::$slot,
                        KindIndex::$kind as usize,
                        $kind_name,
                    ),
                );
            )*

            /// This namespace's slot, counters and send kinds.
            #[allow(dead_code)]
            pub const TABLE: $crate::metrics::Table = $crate::metrics::Table {
                slot: $crate::metrics::slots::$slot,
                events: &[$($event),*],
                kinds: &[$($kind),*],
            };
        }
    };
}

crate::metric_table! {
    /// What the simulated cluster counts: crashes and restarts, and the
    /// chaos faults it applied.
    pub mod cluster in CLUSTER {
        events {
            CRASHES = "cluster.crashes",
            RESTARTS = "cluster.restarts",
            DROPPED_STALE_INCARNATION = "chaos.dropped_stale_incarnation",
            FAULT_EVENTS = "chaos.fault_events",
            SLOW_EVENTS = "chaos.slow_events",
            DEGRADED_TX = "chaos.degraded_tx",
            DROPPED_PARTITION = "chaos.dropped_partition",
            DROPPED_LOSS = "chaos.dropped_loss",
            DUPLICATED = "chaos.duplicated",
        }
        kinds {}
    }
}

crate::metric_table! {
    /// The modular stack's consensus module, the replica core's counters
    /// under its `ReplicaNames` included. The monolith bumps `DECIDED`
    /// too: both stacks count their decisions under it.
    pub mod consensus in CONSENSUS {
        events {
            DECIDED = "consensus.decided",
            INSTANCES = "consensus.instances",
            GARBAGE = "consensus.garbage",
            GAP_REQUESTS = "consensus.gap_requests",
            JOIN_REQUESTS = "consensus.join_requests",
            STATE_TRANSFERS = "consensus.state_transfers",
            SNAPSHOT_TRANSFERS = "consensus.snapshot_transfers",
            SNAPSHOT_PULLS = "consensus.snapshot_pulls",
            SNAPSHOT_GARBAGE = "consensus.snapshot_garbage",
            SNAPSHOTS = "consensus.snapshots",
            SNAPSHOTS_INSTALLED = "consensus.snapshots_installed",
            JOIN_UNSERVABLE = "consensus.join_unservable",
            REJOINS_COMPLETED = "consensus.rejoins_completed",
            PROPOSALS = "consensus.proposals",
            ROUND_CHANGES = "consensus.round_changes",
            PROGRESS_ROTATIONS = "consensus.progress_rotations",
            REQUEST_RETRIES = "consensus.request_retries",
            TAG_MISSES = "consensus.tag_misses",
            BOGUS_PROPOSALS = "consensus.bogus_proposals",
            PROMISES = "consensus.promises",
            DIRECT_PROPOSALS = "consensus.direct_proposals",
        }
        kinds {
            PROPOSAL = "consensus.proposal",
            ESTIMATE = "consensus.estimate",
            ACK = "consensus.ack",
            PULL = "consensus.pull",
            STATE_TRANSFER = "consensus.state_transfer",
            SNAPSHOT_TRANSFER = "consensus.snapshot_transfer",
            SNAPSHOT_PULL = "consensus.snapshot_pull",
            PROMISE = "consensus.promise",
        }
    }
}

crate::metric_table! {
    /// The monolithic stack, the replica core's counters under its
    /// `ReplicaNames` included.
    pub mod mono in MONO {
        events {
            FORWARDS = "mono.forwards",
            PIPELINED_PROPOSALS = "mono.pipelined_proposals",
            COMBINED_STEPS = "mono.combined_steps",
            DECISION_RELAYS = "mono.decision_relays",
            GARBAGE = "mono.garbage",
            GAP_REQUESTS = "mono.gap_requests",
            JOIN_REQUESTS = "mono.join_requests",
            STATE_TRANSFERS = "mono.state_transfers",
            SNAPSHOT_TRANSFERS = "mono.snapshot_transfers",
            SNAPSHOT_PULLS = "mono.snapshot_pulls",
            SNAPSHOT_GARBAGE = "mono.snapshot_garbage",
            SNAPSHOTS = "mono.snapshots",
            SNAPSHOTS_INSTALLED = "mono.snapshots_installed",
            JOIN_UNSERVABLE = "mono.join_unservable",
            REJOINS_COMPLETED = "mono.rejoins_completed",
            PROPOSALS = "mono.proposals",
            ROUND_CHANGES = "mono.round_changes",
            PROGRESS_ROTATIONS = "mono.progress_rotations",
            REQUEST_RETRIES = "mono.request_retries",
            TAG_MISSES = "mono.tag_misses",
            BOGUS_PROPOSALS = "mono.bogus_proposals",
            PROMISES = "mono.promises",
            DIRECT_PROPOSALS = "mono.direct_proposals",
        }
        kinds {
            FORWARD = "mono.forward",
            DIFFUSE = "mono.diffuse",
            PROPOSAL = "mono.proposal",
            STEP = "mono.step",
            DECISION = "mono.decision",
            DECISION_RELAY = "mono.decision_relay",
            ACK = "mono.ack",
            ESTIMATE = "mono.estimate",
            PULL = "mono.pull",
            STATE_TRANSFER = "mono.state_transfer",
            SNAPSHOT_TRANSFER = "mono.snapshot_transfer",
            SNAPSHOT_PULL = "mono.snapshot_pull",
            PROMISE = "mono.promise",
        }
    }
}

crate::metric_table! {
    /// The modular stack's atomic-broadcast module. The monolith bumps
    /// `DELIVERED` too — both stacks count their deliveries under it —
    /// and counts its admissions under `REQUESTS`.
    pub mod abcast in ABCAST {
        events {
            DELIVERED = "abcast.delivered",
            REQUESTS = "abcast.requests",
            PROPOSALS = "abcast.proposals",
            PIPELINED_PROPOSALS = "abcast.pipelined_proposals",
            IDLE_PROPOSALS = "abcast.idle_proposals",
            INSTANCES_APPLIED = "abcast.instances_applied",
            SNAPSHOT_INSTALLS = "abcast.snapshot_installs",
            RETRANSMITS = "abcast.retransmits",
            GARBAGE = "abcast.garbage",
        }
        kinds {
            DIFFUSE = "abcast.diffuse",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_are_dense_within_their_slot() {
        for table in [cluster::TABLE, consensus::TABLE, mono::TABLE, abcast::TABLE] {
            let events = table.events.iter().map(|m| m.entry());
            let kinds = table.kinds.iter().map(|k| k.entry());
            for list in [events.collect::<Vec<_>>(), kinds.collect()] {
                for (i, entry) in list.iter().enumerate() {
                    assert_eq!((entry.slot, entry.index as usize), (table.slot, i));
                    assert_eq!(entry.at(), table.slot as usize * PER_SLOT + i);
                    assert!(entry.at() < ENTRIES);
                }
            }
        }
        assert_eq!(mono::ACK.name(), "mono.ack");
        assert_eq!(consensus::DECIDED.to_string(), "consensus.decided");
    }
}
