#!/usr/bin/env bash
# Tier-1 verification: everything CI runs, runnable locally.
#
#   scripts/tier1.sh            # build + tests + lint
#
# Matches the ROADMAP.md tier-1 contract (`cargo build --release &&
# cargo test -q`) and adds the workspace test suite and a warning-free
# clippy pass.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== fmt =="
cargo fmt --all -- --check

echo "== metric lookups (no literal-name registry lookup outside crates/obs) =="
# Fixed names go through hka_obs::{counter,gauge,histogram,span}!, which
# look the metric up once per call site; a by-name lookup takes a lock
# and a map walk on every call. Any `.counter("…")`, `.gauge("…")` or
# `.histogram("…")` fails unless its receiver is a snapshot: a
# `snapshot()` call, or a variable bound from one or typed as one.
# Test modules are exempt.
lookups="$(find src crates examples -name '*.rs' -not -path 'crates/obs/*' \
    -not -path '*/tests/*' -print0 |
    xargs -0 perl -0777 -ne '
        s/^#\[cfg\(test\)\]\s*(?:pub(?:\(crate\))?\s+)?mod\b.*//ms;
        my %snap;
        $snap{$1} = 1 while /let\s+(?:mut\s+)?(\w+)[^;=]*=[^;]*snapshot\(\)\s*;/g;
        $snap{$1} = 1 while /(\w+)\s*:\s*&?(?:\w+::)*MetricsSnapshot\b/g;
        while (/(\w+)(\(\))?\s*\.\s*(?:counter|gauge|histogram)\(\s*"/g) {
            next if $2 ? $1 =~ /snapshot$/ : $snap{$1};
            print "$ARGV:", 1 + (substr($_, 0, pos) =~ tr/\n//), "\n";
        }')"
if [ -n "$lookups" ]; then
    echo "literal-name metric lookups (use hka_obs::counter! and friends):"
    echo "$lookups"
    exit 1
fi

echo "== one reader (no tree parse of a frame or journal line in core, gateway, audit) =="
# Wire frames and journal lines are read the one way the journal's
# verifier reads them: a canonical scan (`CanonicalScan` +
# `Payload::get`). A second, lenient reader would accept lines the
# verifier refuses. Any `json::parse(` or `JournalRecord::parse_line(`
# in these crates fails; test modules are exempt.
parses="$(find crates/core crates/gateway crates/audit -name '*.rs' -not -path '*/tests/*' -print0 |
    xargs -0 perl -0777 -ne '
        s/^#\[cfg\(test\)\]\s*(?:pub(?:\(crate\))?\s+)?mod\b.*//ms;
        while (/\b(?:json::parse|JournalRecord::parse_line)\s*\(/g) {
            print "$ARGV:", 1 + (substr($_, 0, pos) =~ tr/\n//), "\n";
        }')"
if [ -n "$parses" ]; then
    echo "tree parses of a frame or journal line (read it with CanonicalScan):"
    echo "$parses"
    exit 1
fi

echo "== benchmark shim (hka_shard only under benchmark/ and crates/shard/) =="
# `hka_shard::ShardedTs` is a shim that only the benchmark harness uses,
# kept until the next change to the harness deletes it; nothing else may
# start calling it.
shim="$(grep -rln --include='*.rs' -e 'hka_shard' -e 'ShardedTs' src crates examples tests |
    grep -v '^crates/shard/' || true)"
if [ -n "$shim" ]; then
    echo "mentions of the benchmark shim outside benchmark/ and crates/shard/:"
    echo "$shim"
    exit 1
fi

echo "== orphan baselines (every BENCH_<name>.json is written by a bench binary) =="
# A bin writes its baseline as `format!("{out_dir}/BENCH_<name>.json")`;
# a baseline no bin writes any more is a number nothing can regenerate.
for f in BENCH_*.json; do
    [ -e "$f" ] || continue
    if ! grep -qF "/$f\"" crates/bench/src/bin/*.rs; then
        echo "$f: no crates/bench/src/bin/*.rs writes it"
        exit 1
    fi
done

echo "== build (release) =="
cargo build --release

echo "== build (examples) =="
cargo build --release --workspace --examples

echo "== tier-1 tests (root package) =="
cargo test -q

echo "== workspace tests =="
cargo test -q --workspace

echo "== clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== chaos (fixed seeds, fail-closed invariant, both journal cadences) =="
cargo run --release -q --bin hka-sim -- chaos --seeds 8 --seed 1 --days 1
cargo run --release -q --bin hka-sim -- chaos --seeds 8 --seed 1 --days 1 --commit group

echo "== audit (journal replay smoke: simulate, then verify + audit) =="
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
cargo run --release -q --bin hka-sim -- simulate --days 2 --commuters 4 \
    --roamers 20 --trace-out "$tmp/ts.journal" > "$tmp/simulate.txt"
cargo run --release -q --bin hka-sim -- audit --journal "$tmp/ts.journal" \
    --json "$tmp/audit.json" --quiet
# The summary's record count is the journal's: one line per record.
records="$(sed -n 's/^journal:.*(\([0-9]*\) records)$/\1/p' "$tmp/simulate.txt")"
lines="$(wc -l < "$tmp/ts.journal")"
echo "  journal: summary says ${records:-no} records, the file has $lines lines"
if [ -z "$records" ] || [ "$records" -ne "$lines" ]; then
    exit 1
fi
# The writer writes journal v2 only, and the CLI still reads a v1 one.
if grep -v '"v":2}$' "$tmp/ts.journal" | grep -q .; then
    echo "the simulated journal has a line that is not v2"
    exit 1
fi
cargo run --release -q --bin hka-sim -- audit --journal tests/fixtures/journal_v1.jsonl --quiet

echo "== watch (live-tail smoke: report byte-identical to offline audit) =="
cargo run --release -q --bin hka-sim -- watch "$tmp/ts.journal" \
    --idle-exit 2 --interval-ms 50 --report "$tmp/watch.json" > /dev/null
cmp "$tmp/watch.json" "$tmp/audit.json"

echo "== group commit (record vs group journals, grid vs brute: bytes invariant) =="
# Per-record and group-commit journals, each through the grid index and
# its brute-force specification: all four must match byte for byte.
for commit in record group; do
    for index in grid brute; do
        cargo run --release -q --bin hka-sim -- simulate --days 2 --commuters 4 \
            --roamers 60 --commit "$commit" --index "$index" \
            --trace-out "$tmp/commit-$commit-$index.journal" > /dev/null
    done
    # The compare is only worth its name if the run searched for crowds
    # and both found and missed one: an unlink (pseudonym change) and an
    # at-risk.
    for kind in ts.pseudonym_changed ts.at_risk; do
        n="$(grep -c "\"kind\":\"$kind\"" "$tmp/commit-$commit-grid.journal" || true)"
        echo "  $commit commit, $kind records: $n"
        [ "$n" -ge 1 ]
    done
    cmp "$tmp/commit-$commit-grid.journal" "$tmp/commit-$commit-brute.journal"
done
cmp "$tmp/commit-record-grid.journal" "$tmp/commit-group-grid.journal"

echo "== gateway (TCP differential + chaos drill + open-loop smoke) =="
cargo test --release -q --test gateway
cargo run --release -q -p hka-bench --bin bench_gateway -- --smoke \
    --out "$tmp" > /dev/null

echo "== checkpoint (drill with checkpoints, then snapshot+suffix == genesis) =="
cargo run --release -q --bin hka-sim -- serve-drill --journal "$tmp/drill.journal" \
    --days 1 --commuters 4 --roamers 20 --checkpoint-every 100 > /dev/null
snap="$(ls "$tmp/drill.journal.ckpt"/checkpoint-*.snap | sort | tail -1)"
cargo run --release -q --bin hka-sim -- audit --journal "$tmp/drill.journal" \
    --snapshot "$snap" --json "$tmp/resume.json" --quiet
cargo run --release -q --bin hka-sim -- audit --journal "$tmp/drill.journal" \
    --json "$tmp/genesis.json" --quiet
cmp "$tmp/resume.json" "$tmp/genesis.json"

echo "== benchmark (stand-alone workspace: compiles against today's API, smoke passes) =="
cargo test --release --offline -q --manifest-path benchmark/Cargo.toml
benchmark/all.sh --smoke > /dev/null

echo "== pair (scripts/pair.sh smoke: one binary on both sides, decisions identical) =="
bench="${CARGO_TARGET_DIR:-benchmark/target}/release/hka-benchmark"
scripts/pair.sh "$bench" "$bench" query_dense 1 --smoke --out "$tmp/pair" 2> /dev/null \
    > "$tmp/pair.txt"
grep -qx "identical: yes" "$tmp/pair.txt" || { cat "$tmp/pair.txt"; exit 1; }

echo "tier-1: OK"
