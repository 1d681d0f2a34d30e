//! # Fortika — modular vs. monolithic atomic broadcast
//!
//! A Rust reproduction of *“On the Cost of Modularity in Atomic
//! Broadcast”* (Rütti, Mena, Ekwall, Schiper — DSN 2007).
//!
//! This umbrella crate re-exports the whole workspace:
//!
//! * [`core`] — the public atomic-broadcast stacks (modular and
//!   monolithic), flow control, workload generation, metrics, the
//!   experiment runner and the paper's analytical model (§5.2).
//! * [`sim`] — the deterministic discrete-event simulation kernel.
//! * [`net`] — wire codec, network/cost models, the cluster harness and
//!   link-level fault hooks (partitions, loss, duplication, delay).
//! * [`framework`] — the Cactus-style microprotocol composition kernel.
//! * [`fd`] — the heartbeat ◇P failure detector, which chaos runs hand
//!   scripted suspicion windows.
//! * [`rbcast`] — reliable broadcast microprotocols.
//! * [`consensus`] — Chandra–Toueg rotating-coordinator consensus.
//! * [`abcast`] — the modular atomic broadcast module.
//! * [`mono`] — the monolithic atomic broadcast with optimizations O1–O3.
//! * [`chaos`] — declarative fault scenarios (crash / crash-recovery
//!   restart / partition-heal / lossy / delay-spike / false-suspicion
//!   timelines, plus a seeded random generator), the recovery-aware
//!   delivery-invariant oracle that audits uniform agreement, total
//!   order, integrity, validity, byte-identical replay across process
//!   incarnations and snapshot digest agreement on every run — and the
//!   feedback loop on top: coverage-steered fuzz campaigns (a
//!   fault-family × protocol-branch co-occurrence matrix steers the
//!   generator toward under-explored faults) with ddmin counterexample
//!   minimization of any violating scenario; see `docs/FUZZING.md`.
//! * [`trace`] — bounded deterministic event tracing: wire events,
//!   handler executions, per-instance lifecycle spans, JSONL and
//!   Chrome trace-event exports, and per-decision latency
//!   decomposition. Off by default and free when off; see
//!   `docs/TRACING.md`. Its [`trace::json`] module is the workspace's
//!   one JSON writer and parser.
//!
//! Both stacks compact their decided history: the prefix below the
//! contiguous watermark folds into an application-state [`Snapshot`]
//! (`fortika_net::Snapshot`), persisted per process and served to
//! rejoining processes in chunked snapshot transfers when the log tail
//! no longer covers their gap — so crash-recovery works under
//! unbounded history (see `examples/replicated_kv.rs`).
//!
//! [`Snapshot`]: crate::net::Snapshot
//!
//! # Fault scenarios
//!
//! The paper measures good runs; the [`chaos`] subsystem exercises the
//! bad ones. Attach a scenario to an experiment and the runner wires the
//! faults, hands its suspicion windows to the failure detectors, and
//! audits every delivery:
//!
//! ```
//! use fortika::chaos::Scenario;
//! use fortika::core::{Experiment, StackKind};
//! use fortika::core::workload::Workload;
//! use fortika::net::ProcessId;
//! use fortika::sim::VDur;
//!
//! // Partition the minority {p3} away for 1.5 s, then heal.
//! let scenario = Scenario::new().partition(
//!     vec![vec![ProcessId(0), ProcessId(1)], vec![ProcessId(2)]],
//!     VDur::millis(500),
//!     VDur::millis(2000),
//! );
//! let mut exp = Experiment::builder(StackKind::Monolithic, 3)
//!     .workload(Workload::constant_rate(300.0, 512))
//!     .seed(7)
//!     .warmup_secs(0.3)
//!     .measure_secs(1.5)
//!     .scenario(scenario)
//!     .build();
//! let report = exp.run();
//! assert!(report.oracle.expect("scenario attached").is_ok());
//! ```
//!
//! # Quickstart
//!
//! ```
//! use fortika::core::{Experiment, StackKind};
//! use fortika::core::workload::Workload;
//!
//! // 3 processes, monolithic stack, 500 msg/s of 1 KiB messages.
//! let mut exp = Experiment::builder(StackKind::Monolithic, 3)
//!     .workload(Workload::constant_rate(500.0, 1024))
//!     .seed(7)
//!     .measure_secs(1.0)
//!     .build();
//! let report = exp.run();
//! assert!(report.delivered_total > 0);
//! println!("early latency: {:.3} ms", report.early_latency_ms.mean);
//! ```

pub use fortika_abcast as abcast;
pub use fortika_chaos as chaos;
pub use fortika_consensus as consensus;
pub use fortika_core as core;
pub use fortika_fd as fd;
pub use fortika_framework as framework;
pub use fortika_mono as mono;
pub use fortika_net as net;
pub use fortika_rbcast as rbcast;
pub use fortika_sim as sim;
pub use fortika_trace as trace;
