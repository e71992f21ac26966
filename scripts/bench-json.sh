#!/usr/bin/env bash
# bench-json.sh — convert `go test -bench` text output into a JSON perf
# snapshot, so CI can archive one BENCH_PR<n>.json per change and the
# perf trajectory becomes diffable instead of buried in build logs.
#
# Usage:
#   go test -bench=. -benchtime=100x -run '^$' ./... | tee bench.out
#   scripts/bench-json.sh bench.out > BENCH_PR5.json
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
    bench[n++] = line "}"
}
END {
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
