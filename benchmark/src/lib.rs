//! # fortika-benchmark — the repo's benchmark
//!
//! One benchmark on two clocks: the *modelled* clock (virtual-time
//! early latency and throughput — the paper's metrics) and the *host*
//! clock (what the simulator, codecs and harness cost to run), over
//! seven workloads, with per-layer attribution measured from outside
//! through the public `fortika::` API. See `README.md` for the metric
//! and workload tables and `../BENCHMARK.json` for the contract.

// The root `clippy.toml` bans `Instant` so protocol code cannot read a
// wall clock. This crate exists to measure wall time, like
// `vendor/criterion`, and carries the same scoped waiver.
#![allow(clippy::disallowed_methods, clippy::disallowed_types)]
#![warn(missing_docs)]

pub mod cli;
pub mod harness;
pub mod json;
pub mod kernels;
pub mod measure;
pub mod metrics;
pub mod report;
pub mod spans;
pub mod stats;
pub mod workloads;
