//! # fortika-bench — the paper's evaluation as committed sweeps
//!
//! The `probe` binary writes the committed `BENCH_*.json` trajectory
//! files, one per row of the [`sweeps`] table (which describes them),
//! rendering each through [`fortika_trace::json`]'s writer. `cargo
//! test` regenerates every sweep through the same driver,
//! [`sweeps::run_sweep`], and fails unless each comes out byte-equal
//! to its committed file (`tests/sweep_table.rs`). The headline file,
//! `BENCH_modularity.json`, is the paper's Figs. 8–11 (§5): early
//! latency and throughput against offered load and against message
//! size, both n, held by [`sweeps::modularity_check`] to one asserted
//! verdict per claim of the paper and group size. Another,
//! `BENCH_decomposition.json`, is the rest of §5 as audited data: the
//! §5.2 message and byte counts beside their closed forms, the O1–O3
//! staircase the paper motivates but never measures, and the §5.1 flow
//! window. Host-time cost (wire codec, event queue, host time per
//! delivered message) is measured and recorded by the repo's
//! `benchmark/` package, not here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod sweeps;
