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
# Inline test modules (`#[cfg(test)] mod name { … }`, up to the first
# `}` in column 0 — rustfmt's end of the module) are exempt; code after
# a one-line `#[cfg(test)] mod name;` is not.
lookups="$(find src crates examples -name '*.rs' -not -path 'crates/obs/*' \
    -not -path '*/tests/*' -print0 |
    xargs -0 perl -0777 -ne '
        s/^#\[cfg\(test\)\]\s*(?:pub(?:\(crate\))?\s+)?mod\s+\w+\s*\{.*?^\}$//gms;
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
# in these crates fails; inline test modules are exempt, as above.
parses="$(find crates/core crates/gateway crates/audit -name '*.rs' -not -path '*/tests/*' -print0 |
    xargs -0 perl -0777 -ne '
        s/^#\[cfg\(test\)\]\s*(?:pub(?:\(crate\))?\s+)?mod\s+\w+\s*\{.*?^\}$//gms;
        while (/\b(?:json::parse|JournalRecord::parse_line)\s*\(/g) {
            print "$ARGV:", 1 + (substr($_, 0, pos) =~ tr/\n//), "\n";
        }')"
if [ -n "$parses" ]; then
    echo "tree parses of a frame or journal line (read it with CanonicalScan):"
    echo "$parses"
    exit 1
fi

echo "== one unsafe (the SHA-NI dispatch in crates/obs/src/sha256.rs, nowhere else) =="
# The workspace's one `unsafe` is the call into the hardware SHA-256
# kernel, made after run-time feature detection. Any other `unsafe`
# token in code (comments aside) under src/ or crates/ fails, inline
# `#[cfg(test)]` modules included; only the crates' tests/ directories
# are exempt. Every library root but
# hka-obs keeps `#![forbid(unsafe_code)]`, and hka-obs keeps
# `#![deny(unsafe_code)]`, so the one site needs its own `allow`.
sites="$(find src crates -name '*.rs' -not -path '*/tests/*' -print0 |
    xargs -0 perl -0777 -ne '
        s{/\*.*?\*/}{$& =~ tr/\n//cdr}gse;
        s{//[^\n]*}{}g;
        while (/\bunsafe\b/g) {
            print "$ARGV:", 1 + (substr($_, 0, pos) =~ tr/\n//), "\n";
        }')"
if [ -n "$sites" ] && { [ "$(grep -c . <<< "$sites")" -ne 1 ] ||
    ! grep -q '^crates/obs/src/sha256\.rs:' <<< "$sites"; }; then
    echo "unsafe outside the one dispatch site in crates/obs/src/sha256.rs:"
    echo "$sites"
    exit 1
fi
for root in src/lib.rs crates/*/src/lib.rs; do
    want='#![forbid(unsafe_code)]'
    [ "$root" = crates/obs/src/lib.rs ] && want='#![deny(unsafe_code)]'
    grep -qxF "$want" "$root" || { echo "$root: no $want line"; exit 1; }
done

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

echo "== orphan bin references (each binary run by name has a source file) =="
# A CI-only step that runs a deleted binary would otherwise fail only on
# the runner.
for name in $(grep -ohE -- '--bin [A-Za-z0-9_-]+' .github/workflows/ci.yml scripts/tier1.sh |
    cut -d' ' -f2 | sort -u); do
    if [ ! -e "src/bin/$name.rs" ] && ! compgen -G "crates/*/src/bin/$name.rs" > /dev/null; then
        echo "--bin $name: no src/bin/$name.rs or crates/*/src/bin/$name.rs"
        exit 1
    fi
done

echo "== orphan subcommand references (every \`hka-sim -- SUB\` run by name is an arm of main) =="
# The same for subcommands: a CI step, a step here or a README example
# that runs a deleted subcommand would otherwise fail only when someone
# runs it. The arms are the quoted names `main` dispatches on.
arms="$(sed -n '/^fn main()/,/^}/p' src/bin/hka-sim.rs |
    grep -oE '(^ *"[a-z-]+" =>|cmd == "[a-z-]+")' | grep -oE '"[a-z-]+"' | tr -d '"')"
readme_code="$(awk '/^```/ { code = !code; next } code' README.md)"
for sub in $( { cat .github/workflows/ci.yml scripts/tier1.sh; echo "$readme_code"; } |
    grep -oE 'hka-sim( --)? [a-z][a-z-]*' | awk '{ print $NF }' | sort -u); do
    if ! grep -qx -- "$sub" <<< "$arms"; then
        echo "runs hka-sim's '$sub', which is no arm of main in src/bin/hka-sim.rs"
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

echo "== Theorem 1 (T1: every pseudonym's set graded from the provider's view, plain and compacted) =="
# Exits 1 on any violation outside an at-risk notification, in either
# block, or on a cell whose outcomes daily compaction moved.
cargo run --release -q -p hka-bench --bin table1_theorem1

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

echo "== checkpoint (restore fidelity at every checkpoint, snapshot+suffix == genesis) =="
cargo test --release -q --test checkpoint

echo "== benchmark (stand-alone workspace: compiles against today's API, smoke passes) =="
cargo test --release --offline -q --manifest-path benchmark/Cargo.toml
benchmark/all.sh --smoke > /dev/null

echo "== pair (scripts/pair.sh smoke: one binary on both sides, decisions identical) =="
bench="${CARGO_TARGET_DIR:-benchmark/target}/release/hka-benchmark"
scripts/pair.sh "$bench" "$bench" query_dense 1 --smoke --out "$tmp/pair" 2> /dev/null \
    > "$tmp/pair.txt"
grep -qx "identical: yes" "$tmp/pair.txt" || { cat "$tmp/pair.txt"; exit 1; }

echo "tier-1: OK"
