#!/usr/bin/env bash
# Repo verification gate: tier-1 build+test plus lint and format checks.
# Everything runs offline — the workspace has no external dependencies.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: cargo build --release =="
cargo build --release

echo "== tier-1: cargo test -q =="
cargo test -q

# Every member crate carries its own unit and property tests, which the
# root `cargo test` above does not run.
echo "== crate tests: every member crate =="
cargo test --release -q -p lzfpga-parallel -p lzfpga-server -p lzfpga-container -p lzfpga-estimator \
    -p lzfpga-deflate -p lzfpga-core -p lzfpga-lzss -p lzfpga-workloads \
    -p lzfpga-obs -p lzfpga-faults -p lzfpga-telemetry -p lzfpga-cam -p lzfpga-sim \
    -p lzfpga-rtlgen -p lzfpga-cli -p lzfpga-bench

echo "== clippy (workspace, all targets, -D warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== rustfmt check =="
cargo fmt --check

echo "verify: all checks passed"
