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

echo "== chaos (fixed seeds, fail-closed invariant) =="
cargo run --release -q --bin hka-sim -- chaos --seeds 8 --seed 1 --days 1

echo "== audit (journal replay smoke: simulate, then verify + audit) =="
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
cargo run --release -q --bin hka-sim -- simulate --days 2 --commuters 4 \
    --roamers 20 --trace-out "$tmp/ts.journal" > /dev/null
cargo run --release -q -p hka-audit --bin hka-audit -- --journal "$tmp/ts.journal" \
    --json "$tmp/audit.json" --quiet
cargo run --release -q --bin hka-sim -- audit --journal "$tmp/ts.journal" --quiet

echo "== watch (live-tail smoke: report byte-identical to offline audit) =="
cargo run --release -q --bin hka-sim -- watch "$tmp/ts.journal" \
    --idle-exit 2 --interval-ms 50 --report "$tmp/watch.json" > /dev/null
cmp "$tmp/watch.json" "$tmp/audit.json"

echo "== shard union (grid index vs its brute-force specification: bytes invariant) =="
# Sequentially (one shard: the server's own index) and through the 4-shard
# union; the sequential and the 4-shard journals must match too.
for shards in 1 4; do
    for index in grid brute; do
        cargo run --release -q --bin hka-sim -- simulate --days 2 --commuters 4 \
            --roamers 60 --shards "$shards" --index "$index" \
            --trace-out "$tmp/union-$shards-$index.journal" > /dev/null
    done
    # The compare is only worth its name if the run searched for crowds
    # and both found and missed one: an unlink (pseudonym change) and an
    # at-risk.
    for kind in ts.pseudonym_changed ts.at_risk; do
        n="$(grep -c "\"kind\":\"$kind\"" "$tmp/union-$shards-grid.journal" || true)"
        echo "  $shards shard(s), $kind records: $n"
        [ "$n" -ge 1 ]
    done
    cmp "$tmp/union-$shards-grid.journal" "$tmp/union-$shards-brute.journal"
done
cmp "$tmp/union-1-grid.journal" "$tmp/union-4-grid.journal"

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

echo "tier-1: OK"
