#!/usr/bin/env bash
# A/A check: run the full benchmark twice on this checkout and compare.
#
#   benchmark/aa.sh [runs-per-side]      (default 3; seeds 1..runs)
#
# Both sides are the same code, so every (workload, metric) pair must
# agree within the bound BENCHMARK.json fixes for that metric. Sides A
# and B alternate run by run, so slow drift of the host lands on both.
# Prints each pair's medians and relative difference next to its bound;
# exits non-zero if any difference exceeds its bound, or if a run fails
# its own output checks.
set -euo pipefail
cd "$(dirname "$0")/.."

exec python3 - "${1:-3}" <<'PY'
import json, statistics, subprocess, sys

runs = int(sys.argv[1])
spec = json.load(open("BENCHMARK.json"))
seconds = str(spec["run_seconds"])


def run(workload, seed):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", seconds, "--trace", "0"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stdout[-2000:]}")
    line = json.loads(out.stdout.strip().splitlines()[-1])
    if not line["correct"] or line["failed"]:
        sys.exit(f"{workload} seed {seed}: failed its output checks: {line}")
    return {k: v["value"] for k, v in line["metrics"].items()}


exceeded = 0
print(f"{'workload':<16}{'metric':<24}{'median A':>16}{'median B':>16}{'diff':>9}{'bound':>8}")
for w in (w["name"] for w in spec["workloads"]):
    sides = {"A": [], "B": []}
    for seed in range(1, runs + 1):
        # Alternate which side goes first.
        for side in ("AB" if seed % 2 else "BA"):
            sides[side].append(run(w, seed))
    for m in spec["end_to_end"]:
        a = statistics.median(r[m["name"]] for r in sides["A"])
        b = statistics.median(r[m["name"]] for r in sides["B"])
        diff = abs(b - a) / abs(a) if a else abs(b - a)
        flag = "" if diff <= m["bound"] else "  EXCEEDS"
        exceeded += bool(flag)
        print(f"{w:<16}{m['name']:<24}{a:>16.4f}{b:>16.4f}{100 * diff:>8.2f}%{100 * m['bound']:>7.1f}%{flag}")
print(f"{exceeded} of {len(spec['workloads']) * len(spec['end_to_end'])} pairs exceed their bound")
sys.exit(1 if exceeded else 0)
PY
