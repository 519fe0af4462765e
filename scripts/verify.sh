#!/usr/bin/env bash
# Repo verification gate: tier-1 build+test, lzbench's unit tests, a floor
# on the number of tests run, and lint and format checks.
# Everything runs offline — the workspace has no external dependencies.
set -euo pipefail
cd "$(dirname "$0")/.."

# Tests that must run, at least: the workspace (every member crate, via
# `default-members`) plus lzbench's own unit tests. A drop below this
# count means a suite stopped running, even if everything left is green.
TEST_FLOOR=791

log=$(mktemp)
trap 'rm -f "$log"' EXIT

echo "== tier-1: cargo build --release =="
cargo build --release

# Both test runs read stdin from /dev/null: a test that reads stdin sees
# EOF instead of blocking on a terminal or pipe left open by the caller.
echo "== tier-1: cargo test -q (every workspace member) =="
cargo test -q < /dev/null 2>&1 | tee -a "$log"

# lzbench is a workspace of its own (it must not become a member), so the
# root `cargo test` does not reach its unit tests.
echo "== lzbench unit tests =="
cargo test -q --offline --manifest-path lzbench/Cargo.toml < /dev/null 2>&1 | tee -a "$log"

ran=$(awk '/^test result:/ { n += $4 } END { print n + 0 }' "$log")
echo "== tests run: $ran (floor $TEST_FLOOR) =="
if (( ran < TEST_FLOOR )); then
    echo "verify: only $ran tests ran, below the floor of $TEST_FLOOR" >&2
    exit 1
fi

echo "== clippy (workspace, all targets, -D warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== rustfmt check =="
cargo fmt --check

echo "verify: all checks passed"
