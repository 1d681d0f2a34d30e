#!/usr/bin/env bash
# Smoke test of the benchmark, for CI: unit tests, then `run --quick`
# (R = 1, two virtual seconds per workload), which checks the
# correctness gate and the output schema, not performance. Exits
# non-zero if any workload is incorrect. Run from anywhere.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo test --offline --quiet --manifest-path benchmark/Cargo.toml
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- run --quick --seed "${1:-7}"
