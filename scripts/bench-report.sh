#!/usr/bin/env bash
# bench-report.sh — render every committed BENCH_PR<n>.json perf
# snapshot into one benchmark×snapshot markdown table (docs/perf.md),
# so the repo's perf trajectory reads as a single page instead of a
# pile of JSON files.
#
# Usage:
#   scripts/bench-report.sh            # rewrite docs/perf.md
#   scripts/bench-report.sh --check    # fail if docs/perf.md is stale
#
# The report is a pure function of the committed snapshots (the
# timestamp column is each snapshot's git commit date, not the clock),
# so CI regenerates it and diffs: a PR that lands a new snapshot
# without re-running this script fails the check.
set -euo pipefail
cd "$(dirname "$0")/.." || exit 1

mode=write
if [ "${1:-}" = "--check" ]; then
    mode=check
fi

shopt -s nullglob
snaps=$(printf '%s\n' BENCH_PR*.json | sort -V)
if [ -z "$snaps" ]; then
    echo "bench-report: no BENCH_PR*.json snapshots found" >&2
    exit 1
fi

render() {
    echo "# Performance trend"
    echo
    echo "Cross-PR \`ns/op\` trajectory of every benchmark, one column per"
    echo "committed perf snapshot (see \`scripts/bench-json.sh\` for how a"
    echo "snapshot is taken). Regenerate with \`scripts/bench-report.sh\`;"
    echo "CI fails if this page lags the snapshots."
    echo
    echo "The \`BenchmarkStreamPush*\` rows compare one sensor-batch push over"
    echo "HTTP/JSON against the same gateway's ADSP streaming ingress"
    echo "(HTTP upgrade and raw TCP, [streaming.md](streaming.md)). Their ns/op"
    echo "ratio is the streaming path's measured per-push speedup; no test holds"
    echo "it to a floor, and it narrowed once the JSON door decoded batches"
    echo "without reflection. Snapshots up to BENCH_PR10 measured"
    echo "\`BenchmarkStreamPushADSP\` over a WebSocket framing layer since"
    echo "replaced by a plain HTTP/1.1 upgrade that carries the raw frames."
    echo
    echo "| snapshot | commit date | goos/goarch |"
    echo "|---|---|---|"
    while IFS= read -r s; do
        # Uncommitted snapshots (a fresh CI run) carry no commit date.
        date=$(git log -1 --format=%cs -- "$s" 2>/dev/null || true)
        printf '| %s | %s | %s |\n' "${s%.json}" "${date:-uncommitted}" \
            "$(jq -r '.goos + "/" + .goarch' "$s")"
    done <<< "$snaps"
    echo

    # One row per benchmark, one ns/op column per snapshot, plus the
    # latest snapshot's allocs/op. Missing cells mean the benchmark did
    # not exist in that snapshot.
    {
        while IFS= read -r s; do
            jq -r --arg tag "${s%.json}" '.benchmarks[] |
                [$tag, .package + " " + .name, (.ns_per_op | tostring),
                 ((.allocs_per_op // "") | tostring)] | @tsv' "$s"
        done <<< "$snaps"
    } | awk -F'\t' '
    {
        if (!($1 in tagseen)) { tagseen[$1] = 1; tags[nt++] = $1 }
        if (!($2 in keyseen)) { keyseen[$2] = 1; keys[nk++] = $2 }
        ns[$1 SUBSEP $2] = $3
        al[$1 SUBSEP $2] = $4
    }
    END {
        for (i = 0; i < nk; i++)
            for (j = i + 1; j < nk; j++)
                if (keys[j] < keys[i]) { t = keys[i]; keys[i] = keys[j]; keys[j] = t }
        last = tags[nt - 1]
        printf "| benchmark |"
        for (i = 0; i < nt; i++) printf " %s ns/op |", tags[i]
        printf " allocs/op (%s) |\n", last
        printf "|---|"
        for (i = 0; i < nt; i++) printf "---|"
        printf "---|\n"
        for (k = 0; k < nk; k++) {
            key = keys[k]
            split(key, parts, " ")
            printf "| `%s` `%s` |", parts[1], parts[2]
            for (i = 0; i < nt; i++) {
                v = ns[tags[i] SUBSEP key]
                printf " %s |", (v == "" ? "—" : v)
            }
            a = al[last SUBSEP key]
            printf " %s |\n", (a == "" ? "—" : a)
        }
    }'
}

if [ "$mode" = "check" ]; then
    if ! diff -u docs/perf.md <(render) >&2; then
        echo "bench-report: docs/perf.md is stale — run scripts/bench-report.sh" >&2
        exit 1
    fi
    echo "bench-report: docs/perf.md is current"
else
    render > docs/perf.md
    echo "bench-report: wrote docs/perf.md ($(echo "$snaps" | wc -l | tr -d ' ') snapshot(s))"
fi
