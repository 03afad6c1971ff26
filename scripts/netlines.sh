#!/bin/sh
# netlines.sh — the net Go line count a change reports in CHANGES.md.
#
# Usage: scripts/netlines.sh [base-ref]    (default HEAD)
#
# Compares the working tree, staged new files included, with the merge
# base of base-ref and HEAD using git diff --numstat, and prints the Go
# lines added, deleted and net, once over every .go file and once
# without the _test.go files. With the default it counts the uncommitted
# change; after committing, `scripts/netlines.sh HEAD~1` counts the last
# commit. Untracked files are not counted: run `git add -A` first.
set -eu

base="$(git merge-base "${1:-HEAD}" HEAD)"

# count PATHSPEC... prints "+added −deleted (net)" for the Go files the
# pathspecs select.
count() {
  git diff --numstat "$base" -- "$@" | awk '
    { add += $1; del += $2 }
    END { printf "+%d -%d (net %+d)\n", add, del, add - del }'
}

echo "Go lines against $(git rev-parse --short "$base"):"
echo "  all:           $(count '*.go')"
echo "  without tests: $(count '*.go' ':!*_test.go')"
