//! Simulated quasi-reliable network, wire codec and cluster harness.
//!
//! This crate is the substrate that stands in for the paper's testbed
//! (cluster + Gigabit Ethernet + TCP): it hosts sans-IO protocol stacks
//! ([`Node`]) on simulated processes, models CPU and NIC contention, and
//! accounts every message and byte so the analytical model of §5.2 can be
//! cross-checked against simulation counters.
//!
//! * [`wire`] — explicit binary codec (no hidden framing bytes).
//! * [`ProcessId`], [`MsgId`], [`AppMsg`], [`Batch`] — identities and
//!   application messages.
//! * [`NetModel`], [`CostModel`], [`ClusterConfig`] — calibration knobs.
//! * [`Cluster`], [`Node`], [`NodeCtx`], [`Harness`] — the simulation
//!   harness (see [`cluster`] module docs for crash semantics).
//! * [`fault`] — link-level fault hooks ([`LinkFault`], [`LinkSelector`]):
//!   partitions, seeded loss, duplication, delay inflation and bandwidth
//!   degradation applied at transmission time, plus per-process CPU
//!   slowdowns ([`Cluster::apply_slowdown`]) — all driven by the
//!   `fortika-chaos` scenario DSL.
//! * [`snapshot`] — log-compaction snapshots for rejoin catch-up:
//!   [`Snapshot`], the deterministic [`SnapshotFold`], the cluster's
//!   [`PayloadDigests`] and the [`AppState`] application hook both
//!   protocol stacks share.
//! * [`replica`] — the replica core both stacks share: durable votes,
//!   log compaction and join / gap / snapshot catch-up ([`ReplicaCore`], [`CatchUp`]), plus the one
//!   stable-key namespace table.
//! * [`rounds`] — the Chandra–Toueg round machine the core runs per
//!   undecided instance: lock, vote, choose, rotate ([`Rounds`]).
//! * [`seq`] — origin sequence counters persisted one block of numbers
//!   at a time ([`ReservedSeq`]).
//! * [`metrics`], [`Counters`] — the typed metric registry: counter
//!   ([`Metric`]) and send-kind ([`Kind`]) handles declared once per
//!   namespace, tallied by dense index, named only at export.
//!
//! # Example: two nodes ping-pong
//!
//! ```
//! use bytes::Bytes;
//! use fortika_net::{
//!     Admission, AppRequest, Cluster, ClusterConfig, Node, NodeCtx, ProcessId,
//! };
//! use fortika_sim::{VDur, VTime};
//!
//! fortika_net::metric_table! {
//!     mod demo in TEST {
//!         events {}
//!         kinds {
//!             PING = "demo.ping",
//!             PONG = "demo.pong",
//!         }
//!     }
//! }
//!
//! struct Echo;
//! impl Node for Echo {
//!     fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
//!         if ctx.pid() == ProcessId(0) {
//!             ctx.send(ProcessId(1), demo::PING, Bytes::from_static(b"ping"));
//!         }
//!     }
//!     fn on_message(&mut self, ctx: &mut NodeCtx<'_>, from: ProcessId, bytes: Bytes) {
//!         if bytes.as_ref() == b"ping" {
//!             ctx.send(from, demo::PONG, Bytes::from_static(b"pong"));
//!         }
//!     }
//!     fn on_request(&mut self, _: &mut NodeCtx<'_>, _: AppRequest) -> Admission {
//!         Admission::Blocked
//!     }
//! }
//!
//! let cfg = ClusterConfig::new(2, 42);
//! let mut cluster = Cluster::new(cfg, vec![Box::new(Echo), Box::new(Echo)]);
//! cluster.run_idle(VTime::ZERO + VDur::secs(1));
//! assert_eq!(cluster.counters().kind("demo.ping").msgs, 1);
//! assert_eq!(cluster.counters().kind("demo.pong").msgs, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod config;
pub mod counters;
pub mod fault;
pub mod flow;
pub mod id;
pub mod message;
pub mod metrics;
pub mod ratelimit;
pub mod replica;
pub mod rounds;
pub mod seq;
pub mod snapshot;
pub mod watermark;
pub mod wire;

pub use cluster::{
    Admission, AppRequest, Cluster, ClusterApi, CollectingHarness, ConfigStamp, Delivery, Harness,
    Node, NodeCtx, NodeFactory, NoopHarness, StableStore, TimerId,
};
pub use config::{ClusterConfig, CostModel, NetModel};
pub use counters::{Counters, KindCounter};
pub use fault::{LinkFault, LinkSelector};
pub use fortika_trace::{Trace, TraceConfig, TraceData, TraceEvent};
pub use id::{MsgId, ProcessId};
pub use message::{AppMsg, Batch};
pub use metrics::{Kind, Metric};
pub use ratelimit::PeerRateLimiter;
pub use replica::{
    CatchUp, PerCatchUp, ReplicaConfig, ReplicaCore, ReplicaCtx, ReplicaHost, ReplicaNames,
    VoteRecord,
};
pub use rounds::{Promise, QuorumChoice, Rotation, Rounds, Vote};
pub use seq::ReservedSeq;
pub use snapshot::{
    AppState, AppStateFactory, ChunkOutcome, PayloadDigests, SenderLog, Snapshot, SnapshotDownload,
    SnapshotFold, SnapshotStamp,
};
pub use watermark::{DeliveredSet, WatermarkSet};
pub use wire::Stored;
