#!/usr/bin/env bash
# Crash-durability smoke: run the crashstorm drill against the real
# `lzfpga serve` binary on one seed. The drill aborts the daemon at each
# armed crash site (journal append; result ready with the token
# announced, on a fresh request and again during its resume), SIGKILLs
# it while a credit-starved transfer is parked mid-stream, restarts it
# on the same state directory, resumes with the surviving session token
# (the server recomputes from the journaled input and replays from the
# acknowledged offset), and asserts: zero wrong bytes, zero leaked
# session files or .part files, admission ledgers at zero after
# the final drain, and a typed `unresumable` refusal for a corrupted
# journal. Everything runs offline on the loopback interface.
set -euo pipefail
cd "$(dirname "$0")/.."

SEED="${1:-1}"

cargo build --release -p lzfpga-cli -p lzfpga-bench

echo "== crashstorm: seed $SEED =="
LZFPGA_BIN=target/release/lzfpga \
    cargo run --release -p lzfpga-bench --bin crashstorm -- "$SEED"

echo "crash smoke OK (seed $SEED)"
