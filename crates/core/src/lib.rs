//! # fortika-core — the public atomic-broadcast stacks
//!
//! This crate assembles the two implementations the paper compares and
//! provides everything needed to reproduce its evaluation:
//!
//! * [`StackKind`] / [`build_nodes`] — the modular microprotocol stack
//!   and the monolithic merged stack, both over the same algorithms,
//!   flow control and failure detector.
//! * [`scenario_cluster`] / [`run_scripted`] — the one way a fault
//!   [`Scenario`] is stood on a cluster of either stack (and, for the
//!   second, driven by a scripted plan under the delivery oracle).
//! * [`workload`] — the symmetric constant-rate workload of §5.1 and the
//!   measurement driver (early latency, throughput).
//! * [`Experiment`] — one-call experiment runner with warm-up,
//!   stationary measurement window and CPU-utilization tracking, one
//!   seed per run.
//! * [`analysis`] — the closed-form message/byte counts of §5.2.
//!
//! # Example: compare the two stacks at one operating point
//!
//! ```
//! use fortika_core::{Experiment, StackKind};
//! use fortika_core::workload::Workload;
//!
//! let workload = Workload::constant_rate(1000.0, 1024);
//! let mut modular = Experiment::builder(StackKind::Modular, 3)
//!     .workload(workload.clone())
//!     .warmup_secs(0.5)
//!     .measure_secs(0.5)
//!     .build();
//! let mut mono = Experiment::builder(StackKind::Monolithic, 3)
//!     .workload(workload)
//!     .warmup_secs(0.5)
//!     .measure_secs(0.5)
//!     .build();
//! let a = modular.run();
//! let b = mono.run();
//! assert!(a.delivered_total > 0 && b.delivered_total > 0);
//! // The monolithic stack sends fewer messages per ordered batch.
//! assert!(b.msgs_per_instance < a.msgs_per_instance);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod flow;
pub mod fuzz;
pub mod runner;
pub mod stack;
pub mod workload;

pub use flow::{FlowControlModule, FLOW_MODULE_ID};
pub use fuzz::{fuzz_runner, run_fuzz_scenario};
pub use runner::{Experiment, ExperimentBuilder, LatencySummary, RunReport};
pub use stack::{
    build_nodes, build_nodes_with_windows, node_factory, run_scripted, scenario_cluster,
    FaultHooks, StackConfig, StackKind,
};
pub use workload::{ArrivalProcess, LatencySample, Workload, WorkloadDriver};

// Re-export the pieces callers need to configure experiments without
// importing every workspace crate.
pub use fortika_chaos::{
    minimize, CampaignReport, ChaosProfile, CoverageReport, DeliveryOracle, FailingRun,
    FuzzCampaign, FuzzConfig, MinimizeReport, OracleReport, RunOutcome, Scenario, StopReason,
    Violation,
};
pub use fortika_fd::FdConfig;
pub use fortika_mono::MonoOptimizations;
pub use fortika_net::{
    AppState, AppStateFactory, ClusterConfig, CostModel, NetModel, Snapshot, SnapshotStamp,
};
pub use fortika_trace::{
    ComponentSummary, DecompSample, LatencyDecomposition, Trace, TraceConfig, TraceData, TraceEvent,
};

#[cfg(test)]
mod tests {
    use fortika_net::metrics::{self, slots, Table};

    /// Every registered metric table: this crate sees them all.
    const TABLES: [Table; 8] = [
        metrics::cluster::TABLE,
        metrics::consensus::TABLE,
        metrics::mono::TABLE,
        metrics::abcast::TABLE,
        fortika_framework::metrics::TABLE,
        fortika_fd::metrics::TABLE,
        fortika_rbcast::metrics::TABLE,
        crate::flow::metrics::TABLE,
    ];

    #[test]
    fn metric_names_are_unique_across_all_registered_tables() {
        // One table per slot, and every slot but the tests' has one.
        let mut taken: Vec<u8> = TABLES.iter().map(|t| t.slot).collect();
        taken.sort_unstable();
        taken.dedup();
        assert_eq!(taken.len(), TABLES.len(), "two tables share a slot");
        assert_eq!(taken.len(), slots::COUNT - 1);
        assert!(!taken.contains(&slots::TEST));
        // No name twice, counters and send kinds alike: two handles of
        // one name would list as two entries of it.
        let mut names: Vec<&str> = TABLES
            .iter()
            .flat_map(|t| {
                let events = t.events.iter().map(|m| m.name());
                events.chain(t.kinds.iter().map(|k| k.name()))
            })
            .collect();
        names.sort_unstable();
        let twice: Vec<_> = names.windows(2).filter(|w| w[0] == w[1]).collect();
        assert!(twice.is_empty(), "declared twice: {twice:?}");
        assert!(names.len() > 100);
    }
}
