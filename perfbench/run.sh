#!/usr/bin/env bash
# Builds adasense-gateway and the benchmark from the checkout's sources,
# then runs the benchmark. Run it from the root of the checkout:
#
#   bash perfbench/run.sh --workload stream_push --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache, the served model, the gateway log and
# the trace spans all stay under $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/adasense-gateway || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the root of an adasense checkout" >&2
	exit 2
fi
build=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$build/tmp" "$build/bin"
build=$(cd "$build" && pwd)
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go build -o "$build/bin/adasense-gateway" ./cmd/adasense-gateway
(cd perfbench && go build -o "$build/bin/perfbench" .)
# With two or more CPUs the client runs on the first and the gateway on the
# second, so neither competes with the other for a core.
client=()
gateway_cpu=-1
if command -v taskset >/dev/null; then
	mapfile -t cpus < <(taskset -pc $$ | sed 's/.*: //' | tr ',' '\n' |
		while IFS=- read -r lo hi; do seq "$lo" "${hi:-$lo}"; done)
	if ((${#cpus[@]} >= 2)); then
		client=(taskset -c "${cpus[0]}")
		gateway_cpu=${cpus[1]}
	fi
fi
exec "${client[@]}" "$build/bin/perfbench" -gateway "$build/bin/adasense-gateway" -gateway-cpu "$gateway_cpu" \
	-work "$build/run" "$@"
