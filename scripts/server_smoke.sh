#!/usr/bin/env bash
# Serve/drain smoke: start the lzfpga-server daemon, run client
# compress/decompress/range roundtrips against it (verified byte-for-byte
# against the local pipeline), then drain it via remote shutdown and
# require a clean exit. Everything runs offline on the loopback interface.
set -euo pipefail
cd "$(dirname "$0")/.."

PORT="${PORT:-46501}"
ADDR="127.0.0.1:${PORT}"
WORK="$(mktemp -d /tmp/lzfpga-server-smoke.XXXXXX)"
trap 'kill "${SERVE_PID:-}" 2>/dev/null || true; rm -rf "$WORK"' EXIT

cargo build --release -p lzfpga-cli
BIN=target/release/lzfpga

"$BIN" gen mixed 400000 --seed 11 -o "$WORK/input.bin"

echo "== serve: starting daemon on $ADDR =="
"$BIN" serve --addr "$ADDR" --allow-shutdown --drain-ms 3000 --metrics "$WORK/serve.jsonl" &
SERVE_PID=$!

echo "== client: compress roundtrip =="
ok=""
for _ in $(seq 1 50); do
  if "$BIN" client --addr "$ADDR" compress -o "$WORK/server.lzfc" "$WORK/input.bin" 2>/dev/null; then
    ok=1
    break
  fi
  sleep 0.1
done
[ -n "$ok" ] || { echo "server never came up on $ADDR"; exit 1; }

# The served bytes must match the local pipeline exactly.
"$BIN" frame -o "$WORK/local.lzfc" "$WORK/input.bin"
cmp "$WORK/server.lzfc" "$WORK/local.lzfc"

echo "== client: decompress roundtrip =="
"$BIN" client --addr "$ADDR" decompress -o "$WORK/restored.bin" "$WORK/server.lzfc"
cmp "$WORK/input.bin" "$WORK/restored.bin"

echo "== client: range read =="
"$BIN" client --addr "$ADDR" range --range 100000..260000 -o "$WORK/range.bin" "$WORK/server.lzfc"
# (dd, not tail|head: head's early close would SIGPIPE tail under pipefail)
dd if="$WORK/input.bin" of="$WORK/range.expect" bs=1000 skip=100 count=160 status=none
cmp "$WORK/range.bin" "$WORK/range.expect"

echo "== drain: remote shutdown while a request is in flight =="
# Kick off one more request and immediately ask for the drain: the request
# races the drain trigger, so it must either finish byte-exact or be
# refused typed — and the daemon must exit 0 either way.
"$BIN" client --addr "$ADDR" compress -o "$WORK/late.lzfc" "$WORK/input.bin" &
LATE_PID=$!
"$BIN" client --addr "$ADDR" shutdown --drain-ms 3000
if wait "$LATE_PID"; then
  cmp "$WORK/late.lzfc" "$WORK/local.lzfc"
else
  echo "late request was refused during the drain (typed) — acceptable"
fi
wait "$SERVE_PID"

# The daemon's compress jobs run the turbo FrameWriter, and its --metrics
# run event must say so whatever --engine defaults to.
grep -q '"engine":"turbo"' "$WORK/serve.jsonl" || {
  echo "serve --metrics run event does not name the turbo engine:"
  head -n 1 "$WORK/serve.jsonl"
  exit 1
}
echo "server_smoke: all checks passed"
