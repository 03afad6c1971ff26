#!/bin/sh
# chaos.sh — the chaos-loadtest CI job, runnable locally.
#
# Boots casad with scheduled network faults (CASA_FAULTS: read-path
# stalls, hard connection resets, trickled responses) and a warm-state
# snapshot, drives hostile traffic with casaload -chaos (stalled
# uploads, mid-response hangups, malformed floods, oversized bodies,
# 1ms deadlines interleaved with healthy load), and gates the result
# with benchdiff: the healthy-traffic p99 must stay inside the
# committed BENCH_baseline.json ceiling, zero unexpected 5xx, and the
# chaos floors must move — a chaos run that injected nothing is a red
# build, not a quiet green one.
#
# Then the crash-recovery half: kill -9 the daemon (no drain, no
# shutdown snapshot), restart it from the periodic snapshot, and prove
# the restart serves byte-identical allocations from the restored cache
# with the warm-start machinery immediately live.
#
# Usage: scripts/chaos.sh        (port via CASA_CHAOS_PORT, default 8347)
set -eu

port="${CASA_CHAOS_PORT:-8347}"
addr="http://127.0.0.1:$port"
dir="$(mktemp -d)"
pid=""
# The daemon has normally drained and exited by now; kill only a leftover.
trap 'if [ -n "$pid" ]; then kill "$pid" 2> /dev/null || true; fi; rm -rf "$dir"' EXIT

go build -o "$dir/casad" ./cmd/casad
go build -o "$dir/casaload" ./cmd/casaload

# boot starts casad (arming the given fault plan) and waits for
# /healthz. A daemon that dies or never turns healthy is a hard exit —
# nothing downstream may gate against a dead server.
boot() {
  CASA_FAULTS="$1" "$dir/casad" -addr "127.0.0.1:$port" -max-inflight 48 \
    -snapshot "$dir/snap.json" -snapshot-every 2s 2>> casad_chaos.log &
  pid=$!
  healthy=0
  for i in $(seq 1 75); do
    if ! kill -0 "$pid" 2>/dev/null; then
      break
    fi
    # --max-time so a daemon that accepts but never answers cannot
    # wedge the wait loop itself.
    if curl -fsS --max-time 2 "$addr/healthz" > /dev/null 2>&1; then
      healthy=1
      break
    fi
    sleep 0.2
  done
  if [ "$healthy" != 1 ]; then
    echo "chaos.sh: casad did not become healthy" >&2
    tail -n 40 casad_chaos.log >&2 || true
    exit 1
  fi
}

allocate() {
  curl -fsS -X POST -H 'Content-Type: application/json' \
    -d "{\"workload\":\"adpcm\",\"hierarchy\":{\"cache_bytes\":2048,\"spm_bytes\":$1}}" \
    "$addr/v1/allocate"
}

# Server-side fault schedule: hit numbers are per-point ordinals, all
# well inside a ~600-request run. Three resets on the delivery path is
# what casaload's -max-net-errors 6 allowance (with headroom) covers.
boot "server-stall-read:15/115/215,server-conn-reset:40/140/240,server-slow-client:25/125"

"$dir/casaload" -addr "$addr" -n 600 -c 16 -chaos -chaos-every 25 \
  -max-net-errors 6 -o chaos_report.json

go run ./cmd/benchdiff -from-load chaos_report.json -chaos -o BENCH_chaos.json
go run ./cmd/benchdiff -baseline BENCH_baseline.json -current BENCH_chaos.json

# Crash recovery: capture a reference answer, give the 2s periodic
# snapshotter a beat to persist it, then kill -9 — the restart has only
# the periodic snapshot to come back from.
allocate 512 > before.json
sleep 3
kill -9 "$pid"
wait "$pid" 2> /dev/null || true
pid=""

boot ""
curl -fsS "$addr/metrics.json" -o restart_metrics.json
python3 - <<'EOF'
import json
m = json.load(open("restart_metrics.json"))
n = m.get("casa_server_snapshot_entries_restored_total", 0)
assert n > 0, "restart restored nothing from the snapshot"
print(f"chaos.sh: restart restored {n:.0f} snapshot entries")
EOF

allocate 512 > after.json
python3 - <<'EOF'
import json
strip = {"elapsed_ms", "cached", "coalesced"}
a = {k: v for k, v in json.load(open("before.json")).items() if k not in strip}
b = {k: v for k, v in json.load(open("after.json")).items() if k not in strip}
assert a == b, f"restored answer differs from pre-kill answer:\nbefore: {a}\nafter:  {b}"
assert json.load(open("after.json"))["cached"], \
    "restored answer was recomputed, not served from the restored cache"
EOF

# Warm-start proof: a request one scratchpad step away from a restored
# donor must pick up a transferred cutoff on its very first solve.
allocate 496 > /dev/null
curl -fsS "$addr/metrics.json" -o warm_metrics.json
python3 - <<'EOF'
import json
m = json.load(open("warm_metrics.json"))
assert m.get("casa_server_warm_solves_total", 0) > 0, \
    "no warm solve after snapshot restore (donors not restored?)"
EOF

curl -fsS -X POST "$addr/quitquitquit" > /dev/null || true
echo "chaos.sh: ok"
