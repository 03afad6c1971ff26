#!/bin/sh
# bench.sh — run the tier-1 benchmarks once each and emit a JSON results
# file for cmd/benchdiff.
#
# Usage: scripts/bench.sh [output.json]   (default BENCH_ci.json)
#        scripts/bench.sh -refresh
#        scripts/bench.sh -load [report.json]   (default load_report.json)
#
# -refresh rewrites the committed baseline in one step: it runs the same
# benchmarks AND the same experiment-report runs the CI report gate
# uses, then merges both into BENCH_baseline.json via benchdiff -refresh
# (which keeps the hand-committed server budgets untouched). Run it
# after an intentional performance change, eyeball the diff, commit.
#
# -load is the local equivalent of the CI loadtest job's core: boot a
# casad on an ephemeral-ish port, wait for /healthz, run the casaload
# smoke, gate the report against the committed server ceilings, drain.
# The boot/healthz-wait step is airtight: a daemon that exits early or
# never turns healthy kills the run with a nonzero exit and its log on
# stderr — the gate can never run against a dead server and pass on
# stale or empty numbers.
#
# -benchtime=1x keeps the run cheap enough for CI: every benchmark
# regenerates a full study, so a single iteration is already seconds of
# simulated work and the timings are stable enough for a 20% gate.
set -eu

baseline="${BENCH_BASELINE:-BENCH_baseline.json}"
refresh=0
loadmode=0
case "${1:-}" in
-refresh)
  refresh=1
  shift
  ;;
-load)
  loadmode=1
  shift
  ;;
esac
out="${1:-BENCH_ci.json}"
[ "$loadmode" = 1 ] && out="${1:-load_report.json}"

# Fail fast, before minutes of benchmarking, if the committed baseline
# the CI gate will compare against is missing or malformed (say, an
# unknown section from a typo or a format from the future). benchdiff
# -validate parses it strictly and names the problem.
if [ ! -f "$baseline" ]; then
  echo "bench.sh: baseline $baseline not found — regenerate it with:" >&2
  echo "  scripts/bench.sh $baseline   (then commit it)" >&2
  exit 1
fi
go run ./cmd/benchdiff -validate "$baseline" || {
  echo "bench.sh: baseline $baseline failed validation (see above)" >&2
  exit 1
}

if [ "$loadmode" = 1 ]; then
  port="${CASA_LOAD_PORT:-8348}"
  bindir="$(mktemp -d)"
  pid=""
  trap '[ -n "$pid" ] && kill "$pid" 2>/dev/null; rm -rf "$bindir"' EXIT

  go build -o "$bindir/casad" ./cmd/casad
  go build -o "$bindir/casaload" ./cmd/casaload

  "$bindir/casad" -addr "127.0.0.1:$port" -max-inflight 48 2> "$bindir/casad.log" &
  pid=$!

  # The healthz wait must fail the whole run, not fall through: check
  # the process is still alive each tick (a daemon that died on boot —
  # bad flag, port in use — is reported immediately, not after the full
  # wait), and exit nonzero with the log if it never turns healthy.
  healthy=0
  for i in $(seq 1 50); do
    if ! kill -0 "$pid" 2> /dev/null; then
      break
    fi
    # --max-time so a daemon (or port squatter) that accepts but never
    # answers cannot wedge the wait loop itself.
    if curl -fsS --max-time 2 "http://127.0.0.1:$port/healthz" > /dev/null 2>&1; then
      healthy=1
      break
    fi
    sleep 0.2
  done
  if [ "$healthy" != 1 ]; then
    echo "bench.sh: casad failed to boot or never became healthy" >&2
    cat "$bindir/casad.log" >&2 || true
    exit 1
  fi

  "$bindir/casaload" -addr "http://127.0.0.1:$port" -n 2000 -c 24 \
    -require-coalescing -max-5xx 0 -o "$out"

  curl -fsS -X POST "http://127.0.0.1:$port/quitquitquit" > /dev/null || true

  go run ./cmd/benchdiff -from-load "$out" -o BENCH_server.json
  go run ./cmd/benchdiff -baseline "$baseline" -current BENCH_server.json
  echo "wrote $out (gated against $baseline)"
  exit 0
fi

tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

# A refresh takes three samples per benchmark; benchdiff -parse keeps
# the slowest, so the committed ns/op baselines are ceilings with the
# jitter of tiny benchmarks already priced in. The CI gate itself stays
# single-sample to stay cheap.
count=1
[ "$refresh" = 1 ] && count=3

go test -run '^$' -bench . -benchtime=1x -count="$count" . | tee "$tmp"

if [ "$refresh" = 1 ]; then
  # Mirror the CI report gate exactly (.github/workflows/ci.yml): fig4
  # twice on one suite (round 2 pins the memo rates) plus the
  # sensitivity grid (the study whose cells share a trace partition, so
  # basis transfer fires). Baselines refreshed from any other
  # command would gate against the wrong measurements. Three samples,
  # folded to the slowest stage times by benchdiff -refresh, price in
  # the jitter of the few-millisecond stages.
  rep1="$(mktemp)" rep2="$(mktemp)" rep3="$(mktemp)" sens="$(mktemp)"
  trap 'rm -f "$tmp" "$rep1" "$rep2" "$rep3" "$sens"' EXIT
  for rep in "$rep1" "$rep2" "$rep3"; do
    go run ./cmd/experiments -exp fig4 -repeat 2 -workers 1 -report "$rep" > /dev/null
    go run ./cmd/experiments -exp sensitivity -repeat 1 -workers 1 -report "$sens" > /dev/null
    cat "$sens" >> "$rep"
  done
  go run ./cmd/benchdiff -refresh "$baseline" -parse "$tmp" -from-report "$rep1,$rep2,$rep3"
else
  go run ./cmd/benchdiff -parse "$tmp" -o "$out"
  echo "wrote $out"
fi
