#!/usr/bin/env bash
# Paired comparison of two prebuilt benchmark binaries on one workload.
#
#   scripts/pair.sh PARENT_BIN CHANGE_BIN WORKLOAD PAIRS [args…]
#
# Runs PAIRS pairs. Pair i runs both binaries with seed S+i-1 (S is the
# `--seed` among the args, default 1); odd pairs run the parent first,
# even pairs the change, so slow drift of the host lands on both sides.
# Both sides write to one `--out` directory (the one among the args, or a
# fresh temporary one): two directories alone moved an A/A run's
# `gateway_paced` p99 by 24 %, so the journal's directory is held fixed.
# Every other arg (`--seconds 24`, `--smoke`, …) goes to every run.
#
# Keeps each run's contract line (the last stdout line) and its
# `result-WORKLOAD.json` `counts` under OUT/pairs/. Prints, per
# end-to-end metric: the parent's median [quartiles], the change's, the
# change of the medians in %, the pairs the change won, and whether the
# medians differ by more than the parent's inter-quartile range. Then
# `identical: yes|no` — whether ok_share, suppressed_share, area_p50_m2,
# journal_bytes_per_req and counts.journal_sha256 matched within every
# pair. On a workload whose runs print an `open-loop generator lateness
# p99` line (gateway_paced), then prints that lateness for each side of
# each pair and each side's median: milliseconds of lateness mean the
# host starved the harness's own generator, which moves latency without
# any change to the code. Printed only; no run is dropped. Exits 1 if a
# run fails or reports `correct: false`, 2 on usage.
#
# Example (10 pairs of 24 s on query_dense, seeds 11..20):
#   scripts/pair.sh /tmp/parent/hka-benchmark target/release/hka-benchmark \
#       query_dense 10 --seconds 24 --seed 11
set -euo pipefail

if [ $# -lt 4 ]; then
    echo "usage: scripts/pair.sh PARENT_BIN CHANGE_BIN WORKLOAD PAIRS [args...]" >&2
    exit 2
fi
parent="$1" change="$2" workload="$3" pairs="$4"
shift 4
case "$pairs" in '' | *[!0-9]* | 0)
    echo "PAIRS must be a positive integer" >&2
    exit 2
    ;;
esac

seed=1 out="" pass=()
while [ $# -gt 0 ]; do
    case "$1" in
    --seed) seed="$2"; shift 2 ;;
    --out) out="$2"; shift 2 ;;
    *) pass+=("$1"); shift ;;
    esac
done
[ -n "$out" ] || out="$(mktemp -d)"
mkdir -p "$out/pairs"
rm -f "$out/pairs/"*

run() { # side binary pair seed
    local log="$out/pairs/$(printf 'p%03d' "$3")-$1"
    if ! "$2" --workload "$workload" --seed "$4" --out "$out" "${pass[@]}" \
        > "$log.stdout" 2> "$log.stderr"; then
        echo "pair $3, $1 ($2): failed; see $log.stdout" >&2
        exit 1
    fi
    tail -n 1 "$log.stdout" > "$log.contract"
    grep -o '"counts":{[^}]*}' "$out/result-$workload.json" > "$log.counts"
    grep -o '"end_to_end":{.*}}' "$out/result-$workload.json" > "$log.e2e"
    grep -q '"correct":true' "$log.contract" || {
        echo "pair $3, $1: correct is not true: $(cat "$log.contract")" >&2
        exit 1
    }
}

for i in $(seq 1 "$pairs"); do
    s=$((seed + i - 1))
    if [ $((i % 2)) -eq 1 ]; then
        run parent "$parent" "$i" "$s"
        run change "$change" "$i" "$s"
    else
        run change "$change" "$i" "$s"
        run parent "$parent" "$i" "$s"
    fi
    echo "pair $i/$pairs (seed $s) done" >&2
done

echo "$workload, $pairs pair(s), out: $out"
for f in "$out"/pairs/*.contract; do
    base="${f%.contract}"
    echo "$base $(cat "$f") $(cat "$base.counts") $(cat "$base.e2e")"
done | awk '
# One input line per run: "<dir>/pNNN-<side> <contract> <counts> <e2e>".
function field(s, key,    i, rest) { # the raw value after "key":
    i = index(s, "\"" key "\":")
    if (i == 0) return ""
    rest = substr(s, i + length(key) + 3)
    if (substr(rest, 1, 1) == "\"") {
        rest = substr(rest, 2)
        return substr(rest, 1, index(rest, "\"") - 1)
    }
    match(rest, /^[-+0-9.eE]+/)
    return substr(rest, 1, RLENGTH)
}
function sort(a, n,    i, j, v) {
    for (i = 2; i <= n; i++) {
        v = a[i]
        for (j = i - 1; j >= 1 && a[j] > v; j--) a[j + 1] = a[j]
        a[j + 1] = v
    }
}
function num(v) { # large values in full, small ones to 5 digits
    return (v >= 1e4 || v <= -1e4) ? sprintf("%.0f", v) : sprintf("%.5g", v)
}
function quantile(a, n, p,    h, lo) { # linear interpolation, a sorted
    h = (n - 1) * p + 1
    lo = int(h)
    return lo >= n ? a[n] : a[lo] + (h - lo) * (a[lo + 1] - a[lo])
}
{
    n = split($1, path, "/")
    split(path[n], id, "-")
    pair = id[1]; side = id[2]
    pairs[pair] = 1
    metrics = substr($2, index($2, "\"metrics\":"))
    e2e = $4
    n = split(metrics, parts, "},\"")
    for (k = 1; k <= n; k++) {
        piece = parts[k]
        sub(/^"metrics":\{"/, "", piece)
        name = substr(piece, 1, index(piece, "\"") - 1)
        if (!(name in order)) { order[name] = ++names; byindex[names] = name }
        value[side, pair, name] = field(piece, "value") + 0
        raw[side, pair, name] = field(piece, "value")
        better[name] = field(substr(e2e, index(e2e, "\"" name "\":{")), "better")
    }
    sha[side, pair] = field($3, "journal_sha256")
}
END {
    npairs = 0
    for (p in pairs) list[++npairs] = p
    sort(list, npairs)
    identical = "yes"
    split("ok_share suppressed_share area_p50_m2 journal_bytes_per_req", det, " ")
    for (i = 1; i <= npairs; i++) {
        p = list[i]
        if (sha["parent", p] != sha["change", p] || sha["parent", p] == "") {
            identical = "no"; print "  " p ": journal_sha256 differs"
        }
        for (d = 1; d <= 4; d++) if (raw["parent", p, det[d]] != raw["change", p, det[d]]) {
            identical = "no"; print "  " p ": " det[d] " differs"
        }
    }
    printf "%-22s %-34s %-34s %9s %7s %s\n", "metric", "parent median [q1-q3]", \
        "change median [q1-q3]", "change", "better", "beyond parent IQR"
    for (m = 1; m <= names; m++) {
        name = byindex[m]
        wins = 0
        for (i = 1; i <= npairs; i++) {
            a[i] = value["parent", list[i], name]; b[i] = value["change", list[i], name]
            if ((better[name] == "lower") ? (b[i] < a[i]) : (b[i] > a[i])) wins++
        }
        sort(a, npairs); sort(b, npairs)
        pm = quantile(a, npairs, 0.5); cm = quantile(b, npairs, 0.5)
        pq1 = quantile(a, npairs, 0.25); pq3 = quantile(a, npairs, 0.75)
        pct = pm != 0 ? 100 * (cm - pm) / pm : 0
        diff = cm - pm; if (diff < 0) diff = -diff
        beyond = (diff > pq3 - pq1) ? "yes" : "no"
        printf "%-22s %-34s %-34s %+8.1f%% %3d/%-3d %s\n", name, \
            num(pm) " [" num(pq1) "-" num(pq3) "]", \
            num(cm) " [" num(quantile(b, npairs, 0.25)) "-" num(quantile(b, npairs, 0.75)) "]", \
            pct, wins, npairs, beyond
    }
    print "identical: " identical
}'

if grep -q 'open-loop generator lateness p99' "$out"/pairs/*.stdout; then
    for f in "$out"/pairs/*.stdout; do
        base="${f##*/}"
        late="$(grep -o 'open-loop generator lateness p99: [-0-9.]*' "$f" | tail -n 1)"
        echo "${base%.stdout} ${late##* }"
    done | awk '
    # One input line per run: "pNNN-<side> <lateness us>".
    function median(a, n,    i, j, v) {
        for (i = 2; i <= n; i++) {
            v = a[i]
            for (j = i - 1; j >= 1 && a[j] > v; j--) a[j + 1] = a[j]
            a[j + 1] = v
        }
        return n % 2 ? a[(n + 1) / 2] : (a[n / 2] + a[n / 2 + 1]) / 2
    }
    {
        split($1, id, "-")
        if (!(id[1] in seen)) { seen[id[1]] = 1; order[++npairs] = id[1] }
        late[id[2], id[1]] = $2
    }
    END {
        print "generator lateness p99 (us)    parent     change"
        for (i = 1; i <= npairs; i++) {
            p = order[i]
            printf "  %-28s %9s  %9s\n", p, late["parent", p], late["change", p]
            a[i] = late["parent", p] + 0; b[i] = late["change", p] + 0
        }
        printf "  %-28s %9.1f  %9.1f\n", "median", median(a, npairs), median(b, npairs)
    }'
fi
