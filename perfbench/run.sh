#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload fig4-grid --seed 1 --seconds 20 --trace 0
#
# Every build artifact (binary, Go build and module caches, temporary
# build files, Go's config and telemetry files) stays under
# $CARGO_TARGET_DIR, default .bench_build at the repository root. Build
# output goes to stderr, so the last line of stdout is the benchmark's
# JSON result.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/tmp"

export GOCACHE=$out/gocache GOPATH=$out/gopath GOMODCACHE=$out/gopath/pkg/mod GOTMPDIR=$out/tmp
export XDG_CONFIG_HOME=$out/config GOENV=off GOWORK=off GOTOOLCHAIN=local
export GOPROXY=off GOFLAGS=-mod=readonly CGO_ENABLED=0

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
