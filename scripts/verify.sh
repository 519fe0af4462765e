#!/usr/bin/env bash
# Repo verification gate: tier-1 build+test plus lint and format checks.
# Everything runs offline — the workspace has no external dependencies.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: cargo build --release =="
cargo build --release

echo "== tier-1: cargo test -q =="
cargo test -q

# The crates behind the parallel executor, the fault ladder, the LZFC
# stream layout, the Deflate codec and the hardware model carry their own
# unit and property tests.
echo "== crate tests: parallel, server, container, estimator, deflate, core =="
cargo test --release -q -p lzfpga-parallel -p lzfpga-server -p lzfpga-container -p lzfpga-estimator \
    -p lzfpga-deflate -p lzfpga-core

echo "== clippy (workspace, all targets, -D warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== rustfmt check =="
cargo fmt --check

echo "verify: all checks passed"
