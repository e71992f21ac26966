#!/usr/bin/env bash
# bench-diff.sh — compare two BENCH_PR<n>.json perf snapshots (see
# bench-json.sh for the shape) and print the ns/op and allocs/op deltas
# as a table, so a PR's perf story is one command instead of two JSON
# files side by side.
#
# Usage:
#   scripts/bench-diff.sh [--gate] OLD.json NEW.json
#
# With --gate the exit status enforces the hot-path perf contract: any
# benchmark that was allocation-free in OLD must stay allocation-free
# and within +25% ns/op in NEW. Allocating benchmarks are reported but
# never gated — their costs are dominated by work the snapshots already
# track explicitly. The ns/op gate also requires the regression to be
# at least 50ns absolute: snapshots come from -benchtime=100x runs,
# where a tens-of-ns benchmark's total measured time is a few µs and
# clock quantization alone can fake a >25% swing.
#
# The hot paths that must never allocate (histogram Observe, ADSS
# encode, ADSP frame encode/decode, hash-ring Lookup) are pinned by
# the `Test…Allocs` tests of their packages, so `go test ./...` fails on
# them without a snapshot to compare against.
#
# Benchmarks present in only one snapshot are listed as added/removed
# and never gated.
set -euo pipefail

gate=0
args=()
for a in "$@"; do
    case "$a" in
        --gate) gate=1 ;;
        *) args+=("$a") ;;
    esac
done
if [ "${#args[@]}" -ne 2 ] || [ ! -r "${args[0]}" ] || [ ! -r "${args[1]}" ]; then
    echo "usage: $0 [--gate] <old.json> <new.json>" >&2
    exit 2
fi
old=${args[0]}
new=${args[1]}

extract() {
    jq -r '.benchmarks[] |
        [.package + "/" + .name, .ns_per_op, (.allocs_per_op // "-")] | @tsv' "$1"
}

{ extract "$old" | sed 's/^/OLD\t/'; extract "$new" | sed 's/^/NEW\t/'; } |
awk -F'\t' -v gate="$gate" -v oldfile="$old" -v newfile="$new" '
$1 == "OLD" { ons[$2] = $3; oal[$2] = $4; names[$2] = 1 }
$1 == "NEW" { nns[$2] = $3; nal[$2] = $4; names[$2] = 1 }
END {
    n = 0
    for (k in names) keys[n++] = k
    # Sort for a stable table regardless of map iteration order.
    for (i = 0; i < n; i++)
        for (j = i + 1; j < n; j++)
            if (keys[j] < keys[i]) { t = keys[i]; keys[i] = keys[j]; keys[j] = t }

    printf "%-64s %12s %12s %8s %8s %8s\n", \
        "benchmark (" oldfile " -> " newfile ")", "old ns/op", "new ns/op", "ns %", "old al", "new al"
    failures = 0
    for (i = 0; i < n; i++) {
        k = keys[i]
        if (!(k in ons)) {
            printf "%-64s %12s %12s %8s %8s %8s\n", k, "-", nns[k], "added", "-", nal[k]
            continue
        }
        if (!(k in nns)) {
            printf "%-64s %12s %12s %8s %8s %8s\n", k, ons[k], "-", "removed", oal[k], "-"
            continue
        }
        pct = (nns[k] - ons[k]) / ons[k] * 100
        flag = ""
        if (gate && oal[k] == "0") {
            if (nal[k] != "0") {
                flag = " GATE: allocation-free benchmark now allocates"
                failures++
            } else if (pct > 25 && nns[k] - ons[k] >= 50) {
                flag = " GATE: >25% ns/op regression on allocation-free hot path"
                failures++
            }
        }
        printf "%-64s %12s %12s %+7.1f%% %8s %8s%s\n", k, ons[k], nns[k], pct, oal[k], nal[k], flag
    }
    if (failures > 0) {
        printf "\nbench-diff: %d hot-path perf gate failure(s)\n", failures > "/dev/stderr"
        exit 1
    }
}
'
