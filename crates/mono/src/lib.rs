//! Monolithic atomic broadcast — the merged stack of the paper's §4.
//!
//! The same algorithms as the modular stack (Chandra–Toueg atomic
//! broadcast reduced to consensus), implemented as **one** state machine.
//! Merging legalises three cross-module optimizations that the modular
//! composition structurally forbids:
//!
//! | | Optimization | Saves |
//! |---|---|---|
//! | O1 | decision `k` piggybacks on proposal `k+1` (§4.1) | one message per instance |
//! | O2 | abcast messages ride acks to the coordinator (§4.2) | `M(n−1)` diffusion messages per instance |
//! | O3 | implicit decision acks, no rbcast relays (§4.3) | `(n−1)·⌊(n−1)/2⌋` relay messages per decision |
//!
//! Together they shrink an instance from `(n−1)(M+2+⌊(n+1)/2⌋)` to
//! `2(n−1)` messages, and the data volume from `2(n−1)·M·l` to
//! `(n−1)(1+1/n)·M·l` — an overhead of `(n−1)/(n+1)` for the modular
//! stack (50 % at n = 3, 75 % at n = 7). Each optimization can be
//! toggled individually through [`MonoOptimizations`];
//! `BENCH_decomposition.json` switches them on one at a time.
//!
//! The Chandra–Toueg round machine, crash-recovery (durable votes,
//! rejoin), log compaction and snapshot state transfer are what is *not*
//! merged in here: the node hosts the [`fortika_net::replica`] core both
//! stacks share — its module docs and those of [`fortika_net::rounds`]
//! describe that protocol.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod msg;
mod node;

pub use node::{MonoNode, MonoOptimizations};
