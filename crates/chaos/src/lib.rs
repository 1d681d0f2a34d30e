//! # fortika-chaos — fault injection, scenarios and the delivery oracle
//!
//! The paper evaluates both atomic broadcast stacks in *good runs* only,
//! yet both carry a ◇P failure detector, rotating-coordinator consensus
//! and decision-recovery machinery whose entire purpose is surviving bad
//! runs. This crate opens that axis over the deterministic simulator:
//!
//! * [`Scenario`] — a declarative fault timeline: crashes, **restarts**
//!   (crash-recovery with volatile-state loss), partitions with
//!   healing, lossy/duplicating/delayed link windows, **resource
//!   faults** (degraded-link bandwidth windows, slow-node CPU
//!   windows), scripted false suspicions. Built with chainable
//!   constructors or drawn from the seeded [`Scenario::random`]
//!   generator ([`ChaosProfile`]; [`ChaosProfile::resource_only`] for
//!   the resource family alone) for fuzzing. One call stands a
//!   scenario on a cluster — `fortika_core::scenario_cluster` (standby
//!   capacity, the scenario's configuration axes, suspicion windows,
//!   restart factory, fault schedule), which `run_scripted`,
//!   `Experiment::builder(..).scenario(..)` and the fuzz runner all go
//!   through.
//! * [`DeliveryOracle`] — the delivery-invariant checker: records every
//!   `adeliver` and verifies uniform agreement, total order, integrity
//!   and (when faults heal) validity, reporting typed [`Violation`]s.
//!   Every scenario run is thereby also a correctness check on whichever
//!   stack is under test.
//! * [`ScriptedDriver`] / [`LoadPlan`] — a blocking-caller workload
//!   driver that submits a scripted plan and skips crashed senders,
//!   under the [`AuditTap`] through which every audited run feeds the
//!   oracle.
//! * [`CoverageReport`] — scenario-coverage metrics: folds each run's
//!   protocol counters into a per-branch tally (round changes, gap
//!   pulls, snapshot offers, idle proposals, stale-incarnation drops…)
//!   so a fuzz campaign can print which recovery paths it actually
//!   exercised instead of passing vacuously. Feeding it scenarios too
//!   ([`CoverageReport::absorb_with_scenario`]) builds the event-level
//!   **co-occurrence matrix**: which fault families ran in runs that
//!   reached which branches.
//! * [`FuzzCampaign`] — feedback-directed fuzzing: runs generated
//!   scenarios in batches, folds the matrix, re-steers the profile
//!   toward under-covered family × branch cells between batches
//!   ([`ChaosProfile::steered`]), and stops on a coverage plateau or
//!   the first oracle violation.
//! * [`minimize`] — counterexample minimization: ddmin-shrinks a
//!   failing scenario's event list (and pipeline depth) to a locally
//!   minimal reproducer, using the deterministic simulator as the
//!   "still fails" predicate. See `docs/FUZZING.md` for the loop end
//!   to end.
//!
//! Scenarios also carry a **configuration axis**: the generator draws a
//! windowed-sequencer depth per scenario
//! ([`Scenario::pipeline_depth`], uniform in `1..=4`), so every fault
//! family is fuzzed against pipelined instance execution too — the
//! assembly raises `StackConfig::pipeline_depth` to it and the oracle's
//! obligations are unchanged (pipelining must never show in delivery
//! order).
//!
//! # Dynamic membership
//!
//! [`ScenarioEvent::AddNode`] / [`ScenarioEvent::RemoveNode`] grow and
//! shrink the group **through the log**: the scenario schedules a
//! reserved tick ([`reconfig_tick`]), the run's [`AuditTap`] submits
//! the encoded [`fortika_net::ConfigChange`] like any abcast, and the
//! stacks activate the new configuration a fixed instance offset after
//! it is decided. The oracle is config-aware
//! ([`DeliveryOracle::note_config`], fed through `Harness::on_config`):
//! every process must derive the identical versioned configuration
//! history from the decided prefix, and in drained runs every correct
//! process must have caught up to the group's latest version
//! ([`Violation::ConfigDivergence`]) — which is how a node voting with
//! stale-config quorum math gets caught. The generator's
//! `add_node_prob` / `remove_node_prob` knobs draw at most one grow
//! and one shrink per scenario from a derived stream, with shrinks charged
//! against the permanent-crash budget so every generated timeline stays
//! [`Scenario::quorum_safe`] against the configuration active at each
//! crash.
//!
//! Everything is deterministic: a `(scenario, cluster seed)` pair
//! replays bit-for-bit, so any violation the fuzzer finds is a
//! permanent regression test.
//!
//! # Crash-recovery
//!
//! [`ScenarioEvent::Restart`] revives a crashed process: the cluster's
//! node factory builds it a fresh stack (all volatile state lost; only
//! the stable store with the consensus vote records and the latest
//! log-compaction snapshot survives), bumps its incarnation — stamped
//! at the wire level so stale cross-incarnation messages are fenced —
//! and the revived stack pulls the decided prefix from peers via bulk
//! state transfer, or via chunked **snapshot transfer** when the prefix
//! was compacted away everywhere. The oracle is recovery-aware: it
//! segments each process's log by incarnation
//! ([`DeliveryOracle::note_restart`], fed automatically through
//! `Harness::on_restart`), requires pre-crash deliveries to agree with
//! the common order (uniform agreement outlives the crash), requires
//! the next incarnation to re-deliver that prefix **byte-identically**
//! ([`Violation::ReplayDivergence`]), and judges the process's final
//! incarnation like any correct process's log. It is also
//! snapshot-aware ([`DeliveryOracle::note_snapshot`], fed through
//! `Harness::on_snapshot`): an installed snapshot repositions the
//! incarnation's deliveries at the snapshot's place in the common order
//! — byte-identical replay is owed only for the tail — and every
//! snapshot of the same prefix must agree on digest and count
//! ([`Violation::SnapshotDivergence`]). The generator's `restart_prob`
//! draws crash-restart cycles that do not consume the permanent-crash
//! minority budget — a crashed-then-restarted process is correct again
//! ([`Scenario::crashed`] / [`Scenario::quorum_safe`]) — while
//! `recrash_prob` draws crash-restart-**crash** victims that do.
//!
//! # Example: a minority partition with healing, then a crash
//!
//! ```
//! use fortika_chaos::Scenario;
//! use fortika_net::ProcessId;
//! use fortika_sim::VDur;
//!
//! let scenario = Scenario::new()
//!     .partition(
//!         vec![vec![ProcessId(0), ProcessId(1)], vec![ProcessId(2)]],
//!         VDur::millis(100),
//!         VDur::millis(2100),
//!     )
//!     .crash(ProcessId(1), VDur::millis(3000));
//! assert!(scenario.heals());
//! assert_eq!(scenario.correct(3), vec![ProcessId(0), ProcessId(2)]);
//! ```
//!
//! See `examples/partition_heal.rs` for an end-to-end run through a real
//! stack with the oracle auditing every delivery.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod audit;
mod campaign;
mod coverage;
mod driver;
mod minimize;
mod oracle;
mod scenario;
mod trace_dump;

pub use audit::{AuditTap, LoadSource};
pub use campaign::{CampaignReport, FailingRun, FuzzCampaign, FuzzConfig, RunOutcome, StopReason};
pub use coverage::CoverageReport;
pub use driver::{LoadPlan, PlanDriver, ScriptedDriver, Submission};
pub use minimize::{minimize, MinimizeReport};
pub use oracle::{check_orders, DeliveryOracle, OracleReport, Violation};
pub use scenario::{
    parse_reconfig_tick, reconfig_tick, ChaosProfile, Scenario, ScenarioEvent, RECONFIG_TICK_BASE,
};
pub use trace_dump::{dump_violation_trace, DUMP_WINDOW};

// Re-export the net-level fault vocabulary so scenario authors need
// only this crate.
pub use fortika_net::{LinkFault, LinkSelector};
