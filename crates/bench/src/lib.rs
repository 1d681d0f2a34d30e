//! # fortika-bench — the paper's evaluation as benchmark harnesses
//!
//! The paper's evaluation (§5) is reproduced by `harness = false` bench
//! targets under `benches/`, over the simulated testbed:
//!
//! * `figures` — Figs. 8–11: early latency and throughput against
//!   offered load and against message size (each axis swept once, both
//!   of its figures printed from the same runs);
//! * `analysis_messages` / `analysis_data` — the §5.2 analytical
//!   message/byte counts cross-checked against simulation counters;
//! * `ablation_optimizations` / `ablation_flow_control` — the
//!   monolithic optimizations O1–O3 toggled one by one, and the flow
//!   window swept.
//!
//! The `probe` binary complements them: it prints calibration tables
//! and writes the committed `BENCH_*.json` trajectory files, one per
//! row of the [`sweeps`] table (which describes them), re-reading and
//! verifying each through [`json`]. Host-time cost (wire codec, event
//! queue, host time per delivered message) is measured and recorded by
//! the repo's `benchmark/` package, not here.
//!
//! Besides the table this crate holds what the bench targets share: the
//! dependency-free [`json`] validator, and the `FORTIKA_FULL` switch
//! between the quick default sweep and the full paper-resolution sweep.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod sweeps;

/// True when the full (paper-resolution) sweep was requested via the
/// `FORTIKA_FULL=1` environment variable.
pub fn full_sweep() -> bool {
    std::env::var("FORTIKA_FULL").is_ok_and(|v| v == "1")
}

/// Seeds used for replicated runs (fewer in quick mode).
pub fn seeds() -> Vec<u64> {
    if full_sweep() {
        vec![11, 22, 33, 44, 55]
    } else {
        vec![11, 22, 33]
    }
}
