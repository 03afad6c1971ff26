#!/bin/sh
# bench.sh — CI's timing gate, and the two helpers around the committed
# BENCH_baseline.json.
#
# Usage: scripts/bench.sh [base-ref]              (default HEAD~1)
#        scripts/bench.sh -refresh
#        scripts/bench.sh -load [report.json]     (default load_report.json)
#
# The default mode is a paired A/B of the working tree against the
# merge base of base-ref and HEAD, on the repository benchmark
# (perfbench, BENCHMARK.json). It exports the merge base's tree with git
# archive (a plain tree: an interrupted run leaves nothing registered in
# .git), builds perfbench on each side through perfbench/run.sh with a
# separate CARGO_TARGET_DIR, and runs every workload in PAIRS
# parent/change pairs of SECONDS_PER_RUN each, alternating which side
# goes first so host drift hits both. benchdiff -ab then prints each
# workload × end-to-end metric's medians, interquartile ranges and the
# pairs the change won, and fails when a change median is worse than
# the parent's by more than the metric's BENCHMARK.json bound or the
# change failed more operations. A metric too noisy on the parent side
# to judge prints as unresolved. `scripts/bench.sh HEAD` runs the tree
# against itself.
#
# -refresh rewrites the committed baseline's memo and counter sections
# from three runs of the CI report gate's exact commands (benchdiff
# -refresh refuses runs that disagree; the hand-committed server budgets
# are kept). Run it after a change that deliberately moves a work
# counter, eyeball the diff, commit.
#
# -load is the local equivalent of the CI loadtest job's core: boot a
# casad on an ephemeral-ish port, wait for /healthz, run the casaload
# smoke, gate the report against the committed server ceilings, drain.
# A daemon that exits early or never turns healthy kills the run with a
# nonzero exit and its log on stderr — the gate can never run against a
# dead server and pass on stale or empty numbers.
set -eu

# The A/B protocol: PAIRS alternating pairs of SECONDS_PER_RUN-long runs
# per workload, seed 1 (the grids do not depend on it; serve-mix draws
# its schedule from it).
PAIRS=4
SECONDS_PER_RUN=10
WORKLOADS="fig4-grid sensitivity-grid serve-mix"

baseline="${BENCH_BASELINE:-BENCH_baseline.json}"
mode=ab
case "${1:-}" in
-refresh)
  mode=refresh
  shift
  ;;
-load)
  mode=load
  shift
  ;;
esac

if [ "$mode" = ab ]; then
  base="$(git merge-base "${1:-HEAD~1}" HEAD)"
  dir="$(mktemp -d)"
  trap 'rm -rf "$dir"' EXIT
  mkdir "$dir/parent"
  git archive "$base" | tar -x -C "$dir/parent"
  : > "$dir/parent.jsonl"
  : > "$dir/change.jsonl"

  # run SIDE WORKLOAD appends one perfbench result of SIDE to
  # $dir/SIDE.jsonl, tagged with its workload. A run that exits nonzero
  # stops the gate with its log.
  run() {
    root=.
    [ "$1" = parent ] && root="$dir/parent"
    out="$(CARGO_TARGET_DIR="$dir/build-$1" bash "$root/perfbench/run.sh" \
      --workload "$2" --seed 1 --seconds "$SECONDS_PER_RUN" --trace 0 2> "$dir/log")" || {
      echo "bench.sh: $1 run of $2 failed" >&2
      cat "$dir/log" >&2
      exit 1
    }
    printf '{"workload":"%s","result":%s}\n' "$2" "$(printf '%s\n' "$out" | tail -n 1)" >> "$dir/$1.jsonl"
  }

  echo "bench.sh: A/B of the working tree against $base, $PAIRS pairs of ${SECONDS_PER_RUN}s per workload" >&2
  for w in $WORKLOADS; do
    i=1
    while [ "$i" -le "$PAIRS" ]; do
      if [ $((i % 2)) = 1 ]; then
        run parent "$w"
        run change "$w"
      else
        run change "$w"
        run parent "$w"
      fi
      i=$((i + 1))
    done
  done
  go run ./cmd/benchdiff -ab BENCHMARK.json -baseline "$dir/parent.jsonl" -current "$dir/change.jsonl"
  exit 0
fi

# Fail fast, before any measuring, if the committed baseline is missing
# or malformed (say, an unknown section from a typo or an old format).
# benchdiff -validate parses it strictly and names the problem.
if [ ! -f "$baseline" ]; then
  echo "bench.sh: baseline $baseline not found" >&2
  exit 1
fi
go run ./cmd/benchdiff -validate "$baseline" || {
  echo "bench.sh: baseline $baseline failed validation (see above)" >&2
  exit 1
}

if [ "$mode" = refresh ]; then
  # Mirror the CI report gate exactly (.github/workflows/ci.yml): fig4
  # twice on one suite (round 2 pins the memo rates) plus the
  # sensitivity grid (the study whose cells share a trace partition, so
  # basis transfer fires). Baselines refreshed from any other command
  # would gate against the wrong measurements.
  dir="$(mktemp -d)"
  trap 'rm -rf "$dir"' EXIT
  for i in 1 2 3; do
    go run ./cmd/experiments -exp fig4 -repeat 2 -workers 1 -report "$dir/rep$i.jsonl" > /dev/null
    go run ./cmd/experiments -exp sensitivity -repeat 1 -workers 1 -report "$dir/sens.jsonl" > /dev/null
    cat "$dir/sens.jsonl" >> "$dir/rep$i.jsonl"
  done
  go run ./cmd/benchdiff -refresh "$baseline" -from-report "$dir/rep1.jsonl,$dir/rep2.jsonl,$dir/rep3.jsonl"
  exit 0
fi

out="${1:-load_report.json}"
port="${CASA_LOAD_PORT:-8348}"
bindir="$(mktemp -d)"
pid=""
# The daemon has normally drained and exited by now; kill only a leftover.
trap 'if [ -n "$pid" ]; then kill "$pid" 2> /dev/null || true; fi; rm -rf "$bindir"' EXIT

go build -o "$bindir/casad" ./cmd/casad
go build -o "$bindir/casaload" ./cmd/casaload

"$bindir/casad" -addr "127.0.0.1:$port" -max-inflight 48 2> "$bindir/casad.log" &
pid=$!

# The healthz wait must fail the whole run, not fall through: check the
# process is still alive each tick (a daemon that died on boot — bad
# flag, port in use — is reported immediately, not after the full
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
