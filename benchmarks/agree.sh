#!/usr/bin/env bash
# agree.sh <runs> [workload...]
#
# Runs two alternating sets (A, B) of <runs> untraced runs of every
# workload on the current tree, each run with its own seed (A gets the odd
# seeds, B the even ones), exactly as BENCHMARK.json's command and
# run_seconds say. For every end-to-end metric × workload it prints both
# medians, both interquartile spreads as a share of the median, the gap
# between the medians and the bound. Exit status is non-zero if a spread
# (setup_s excepted) or a gap exceeds the metric's bound: the same code
# must agree with itself before a difference between two commits means
# anything. The raw values are kept in .bench_build/agree.json.
set -euo pipefail
runs=${1:?usage: agree.sh <runs> [workload...]}
shift
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
mkdir -p .bench_build
exec python3 - "$runs" "$@" <<'EOF'
import json, statistics, subprocess, sys

runs, only = int(sys.argv[1]), sys.argv[2:]
spec = json.load(open("BENCHMARK.json"))
workloads = [w["name"] for w in spec["workloads"] if not only or w["name"] in only]
values = {}  # (workload, metric, set) -> [value per run]
failed = 0
for k in range(runs):
    for s in (0, 1) if k % 2 == 0 else (1, 0):  # alternate which set goes first
        for w in workloads:
            cmd = spec["command"] + ["--workload", w, "--seed", str(2 * k + 1 + s),
                                     "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
            res = json.loads(out.strip().splitlines()[-1])
            failed += res["failed"]
            for name, m in res["metrics"].items():
                values.setdefault((w, name, s), []).append(m["value"])
            print(f"run {k + 1}/{runs} set {'AB'[s]} {w}: failed={res['failed']}", file=sys.stderr)

json.dump({f"{w}/{m}/{'AB'[s]}": v for (w, m, s), v in values.items()},
          open(".bench_build/agree.json", "w"), indent=1)

def spread(v):
    if len(v) < 2:
        return 0.0
    q = statistics.quantiles(v, n=4)
    return (q[2] - q[0]) / statistics.median(v)

bad = failed > 0
print(f"{'workload':15} {'metric':15} {'median A':>11} {'iqr A':>7} {'median B':>11} {'iqr B':>7} {'gap':>7} {'bound':>6}")
for w in workloads:
    for m in spec["end_to_end"]:
        a, b = values[(w, m["name"], 0)], values[(w, m["name"], 1)]
        ma, mb = statistics.median(a), statistics.median(b)
        gap = abs(mb - ma) / ma
        sa, sb = spread(a), spread(b)
        over = gap > m["bound"] or (m["name"] != "setup_s" and max(sa, sb) > m["bound"])
        bad |= over
        print(f"{w:15} {m['name']:15} {ma:11.5g} {sa:7.2%} {mb:11.5g} {sb:7.2%} {gap:7.2%} {m['bound']:6.2f}"
              + ("  OVER" if over else ""))
print(f"failed operations: {failed}")
sys.exit(1 if bad else 0)
EOF
