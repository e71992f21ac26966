#!/usr/bin/env bash
# bench-json.sh — convert `go test -bench` text output into a JSON perf
# snapshot, so two runs can be compared by bench-diff.sh instead of by
# reading build logs. CI's bench-snapshot job benchmarks the merge base
# and the head on the same runner, five 200 ms runs of each benchmark per
# side in rounds that alternate the sides, and converts each side's
# appended output.
#
# Usage:
#   for round in 1 2 3 4 5; do
#     go test -bench=. -benchtime=200ms -count=1 -run '^$' ./... | tee -a head.out
#   done
#   scripts/bench-json.sh head.out > head.json
#
# A benchmark that appears more than once (-count=N, or appended runs)
# gets one entry: the run with the median ns/op (the lower middle one for
# an even count), whose iterations, B/op, allocs/op and metrics come with
# it. Entries keep the order of each benchmark's first line.
#
# Output shape:
#   {
#     "goos": "linux", "goarch": "amd64",
#     "benchmarks": [
#       {"package": "adasense", "name": "BenchmarkServiceClassify-8",
#        "iterations": 100, "ns_per_op": 12345.0,
#        "bytes_per_op": 64, "allocs_per_op": 1,
#        "metrics": {"ns/sample": 41.2, "MB/s": 120.5}},
#       ...
#     ]
#   }
# bytes_per_op/allocs_per_op appear only for benchmarks reporting them.
# "metrics" holds every other unit on the line (b.SetBytes' MB/s and
# each b.ReportMetric unit) and appears only when there is one.
set -euo pipefail

if [ $# -ne 1 ] || [ ! -r "$1" ]; then
    echo "usage: $0 <go-test-bench-output-file>" >&2
    exit 2
fi

awk '
/^goos: /   { goos = $2 }
/^goarch: / { goarch = $2 }
/^pkg: /    { pkg = $2 }
$1 ~ /^Benchmark/ && NF >= 4 {
    name = $1; iters = $2
    ns = ""; bytes = ""; allocs = ""; metrics = ""
    for (i = 3; i + 1 <= NF; i += 2) {
        if ($(i+1) == "ns/op") ns = $(i)
        else if ($(i+1) == "B/op") bytes = $(i)
        else if ($(i+1) == "allocs/op") allocs = $(i)
        else metrics = metrics sprintf("%s\"%s\": %s", (metrics == "" ? "" : ", "), $(i+1), $(i))
    }
    if (ns == "") next
    line = sprintf("    {\"package\": \"%s\", \"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s", pkg, name, iters, ns)
    if (bytes != "")  line = line sprintf(", \"bytes_per_op\": %s", bytes)
    if (allocs != "") line = line sprintf(", \"allocs_per_op\": %s", allocs)
    if (metrics != "") line = line ", \"metrics\": {" metrics "}"
    key = pkg SUBSEP name
    if (!(key in runs)) order[n++] = key
    r = runs[key]++
    nsof[key, r] = ns + 0
    lineof[key, r] = line "}"
}
END {
    for (i = 0; i < n; i++) {
        key = order[i]
        # Insertion sort of the runs by ns/op; keep the median one.
        for (r = 0; r < runs[key]; r++) {
            idx[r] = r
            for (j = r; j > 0 && nsof[key, idx[j-1]] > nsof[key, idx[j]]; j--) {
                t = idx[j]; idx[j] = idx[j-1]; idx[j-1] = t
            }
        }
        bench[i] = lineof[key, idx[int((runs[key] - 1) / 2)]]
    }
    if (n == 0) {
        print "bench-json: no benchmark lines found" > "/dev/stderr"
        exit 1
    }
    printf "{\n"
    printf "  \"goos\": \"%s\",\n", goos
    printf "  \"goarch\": \"%s\",\n", goarch
    printf "  \"benchmarks\": [\n"
    for (i = 0; i < n; i++) printf "%s%s\n", bench[i], (i < n - 1 ? "," : "")
    printf "  ]\n}\n"
}
' "$1"
