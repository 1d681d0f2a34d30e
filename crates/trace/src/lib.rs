//! Bounded, deterministic event tracing for the fortika simulator.
//!
//! The paper's argument is a *breakdown* — where each stack spends its
//! messages and CPU per consensus instance — and this crate records the
//! raw material for that breakdown: a single, totally ordered timeline of
//! wire events (send / deliver / drop, with the fault that affected
//! them), per-instance protocol lifecycle spans (proposed → voted →
//! decided → applied), and resource charges (CPU, durability,
//! degraded-link queueing).
//!
//! Design constraints, in order:
//!
//! 1. **Zero cost when disabled.** The simulator holds an
//!    `Option<TraceBuffer>`; with tracing off every record point is one
//!    branch on `None` and no event is ever constructed. Tracing draws no
//!    randomness and charges no simulated cost, so enabling it cannot
//!    change a run's timing — and disabling it cannot change anything at
//!    all.
//! 2. **Bounded.** The buffer is a ring of configurable capacity; old
//!    events are evicted, and the count of evicted events is reported, so
//!    a trace is always "the last N things that happened".
//! 3. **Deterministic.** Events carry virtual-time nanoseconds and a
//!    monotone sequence number assigned at record time. Two runs with the
//!    same seed produce byte-identical JSONL.
//!
//! The crate deliberately depends on nothing (it sits *below*
//! `fortika-net` in the dependency graph) and speaks only primitive
//! types: `u16` process ids, `u64` instances and nanosecond timestamps,
//! `&'static str` kind/phase labels.
//!
//! * [`TraceConfig`], [`TraceBuffer`], [`Trace`], [`TraceEvents`] —
//!   recording.
//! * [`TraceEvent`], [`TraceData`] — the event model.
//! * [`Trace::to_jsonl`], [`Trace::to_chrome_json`] — exports (JSON
//!   Lines and Chrome trace-event format, loadable in Perfetto).
//! * [`decompose_window`], [`LatencyDecomposition`] — per-decision
//!   latency decomposition (queueing vs transmission vs CPU vs
//!   durability).
//! * [`json`] — the workspace's one JSON writer ([`json::JsonWriter`])
//!   and parser ([`json::parse`]). The exports render through the
//!   writer, and so do the committed bench records and the coverage
//!   matrix; everything that reads an artefact back uses the parser.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod decompose;
mod event;
mod export;
pub mod json;
#[cfg(test)]
mod test_rng;

pub use decompose::{
    decompose_window, ComponentSummary, DecompSample, LatencyDecomposition, WindowSpec,
};
pub use event::{Trace, TraceBuffer, TraceConfig, TraceData, TraceEvent, TraceEvents};
