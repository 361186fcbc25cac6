#!/usr/bin/env bash
# submitratio.sh — ROADMAP item 2's tenancy ratio: Submit/Wait graphs/s
# with 128 graphs in flight must be at least 0.8x that with one.
#
# Usage: scripts/submitratio.sh [min-ratio]
#
# Runs BenchmarkSubmitThroughput (both rows) three times in one process,
# keeps each row's best graphs/s (the min-of-3 time), prints the ratio and
# exits non-zero below min-ratio (default 0.8). Wall clock on a shared
# runner: CI records it in the step summary and does not gate on it.
set -euo pipefail
cd "$(dirname "$0")/.."
min="${1:-0.8}"

out="$(go test -run='^$' -bench='BenchmarkSubmitThroughput$' -benchtime=20000x -count=3 ./internal/core)"
printf '%s\n' "$out"
printf '%s\n' "$out" | awk -v min="$min" '
  /^BenchmarkSubmitThroughput\/inflight-/ {
    row = ($1 ~ /inflight-128/) ? "hi" : "lo"
    for (i = 2; i <= NF; i++) if ($i == "graphs/s" && $(i-1) + 0 > best[row]) best[row] = $(i-1) + 0
  }
  END {
    if (!best["lo"] || !best["hi"]) { print "submitratio: benchmark rows missing"; exit 1 }
    r = best["hi"] / best["lo"]
    printf "submit tenancy ratio: %.0f graphs/s at 128 in flight / %.0f at 1 = %.2f (want >= %s)\n", best["hi"], best["lo"], r, min
    exit (r < min)
  }
'
