#!/usr/bin/env bash
# Every workload of BENCHMARK.json, one process each (a workload's memory
# must not be the next one's peak), arguments passed on:
#
#   benchmark/all.sh              full runs, end-to-end metrics
#   benchmark/all.sh --trace 1    traced runs, per-layer metrics
#   benchmark/all.sh --smoke      reduced sizes, all four in under 20 s
#
# Stops at the first workload that fails its output checks.
set -euo pipefail
cd "$(dirname "$0")/.."

workloads=$(python3 -c 'import json
print(*(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
for w in $workloads; do
    cargo run --release --quiet --offline --manifest-path benchmark/Cargo.toml -- \
        --workload "$w" "$@"
done
