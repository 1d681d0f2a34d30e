//! # fortika-bench — the paper's evaluation as benchmark harnesses
//!
//! Figs. 8–11 of the paper's evaluation (§5) are the `harness = false`
//! bench target `benches/figures.rs`: early latency and throughput
//! against offered load and against message size over the simulated
//! testbed (each axis swept once, both of its figures printed from the
//! same runs).
//!
//! The `probe` binary writes the committed `BENCH_*.json` trajectory
//! files, one per row of the [`sweeps`] table (which describes them),
//! re-reading and verifying each through [`json`]. One of them,
//! `BENCH_decomposition.json`, is the rest of §5 as audited data: the
//! §5.2 message and byte counts beside their closed forms, the O1–O3
//! staircase the paper motivates but never measures, and the §5.1 flow
//! window. Host-time cost (wire codec, event queue, host time per
//! delivered message) is measured and recorded by the repo's
//! `benchmark/` package, not here.
//!
//! Besides the table this crate holds what the figures share: the
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
