#!/usr/bin/env bash
# loadgen-smoke.sh — end-to-end smoke for the load-generation path: build
# the real binaries, federate two gateway processes, drive a strict
# fixed-budget loadgen run against them, and validate the JSON report.
#
# Strict mode makes the run the gate: any non-2xx push, shed offer,
# transport error or malformed report exits non-zero. The event budget
# (rather than wall clock) keeps the run deterministic in CI.
set -euo pipefail
cd "$(dirname "$0")/.." || exit 1

workdir=$(mktemp -d)
pid_a=""
pid_b=""
cleanup() {
    [ -n "$pid_a" ] && kill "$pid_a" 2>/dev/null
    [ -n "$pid_b" ] && kill "$pid_b" 2>/dev/null
    wait 2>/dev/null
    rm -rf "$workdir"
}
trap cleanup EXIT

echo "loadgen-smoke: building binaries"
go build -o "$workdir/adasense-gateway" ./cmd/adasense-gateway
go build -o "$workdir/adasense-loadgen" ./cmd/adasense-loadgen

# Fixed high ports: CI runners are single-tenant, and fixed ports keep
# the peer list printable in failure logs.
port_a=18734
port_b=18735
stream_a=18744
stream_b=18745
peers="gw-a=http://127.0.0.1:${port_a},gw-b=http://127.0.0.1:${port_b}"

# Small startup-training corpus: the smoke gates the serving path, not
# model quality.
"$workdir/adasense-gateway" -addr "127.0.0.1:${port_a}" -train-windows 300 \
    -self gw-a -peers "$peers" -stream-addr "127.0.0.1:${stream_a}" -log-level warn &
pid_a=$!
"$workdir/adasense-gateway" -addr "127.0.0.1:${port_b}" -train-windows 300 \
    -self gw-b -peers "$peers" -stream-addr "127.0.0.1:${stream_b}" -log-level warn &
pid_b=$!

wait_healthy() {
    local url=$1 i
    for i in $(seq 1 120); do
        if curl -sf "$url/healthz" > /dev/null 2>&1; then
            return 0
        fi
        sleep 0.5
    done
    echo "loadgen-smoke: $url never became healthy" >&2
    return 1
}
wait_healthy "http://127.0.0.1:${port_a}"
wait_healthy "http://127.0.0.1:${port_b}"

echo "loadgen-smoke: driving the fleet"
report="$workdir/report.json"
"$workdir/adasense-loadgen" \
    -targets "http://127.0.0.1:${port_a},http://127.0.0.1:${port_b}" \
    -devices 40 -rate 100 -events 600 -seed 7 \
    -workers 64 -attempts 4 -strict -out "$report"

echo "loadgen-smoke: validating the report"
jq -e '
    .totals.offered == 600 and
    .totals.push_2xx == 600 and
    .totals.lost == 0 and
    (.phases | length) == 1 and
    .routes.push.count == 600 and
    .routes.push.p50_s <= .routes.push.p95_s and
    .routes.push.p95_s <= .routes.push.p99_s and
    .routes.open.count >= 40 and
    (.cohorts | to_entries | map(.value) | add) == 40
' "$report" > /dev/null || {
    echo "loadgen-smoke: report failed validation:" >&2
    cat "$report" >&2
    exit 1
}
echo "loadgen-smoke: OK ($(jq -c '.routes.push' "$report"))"

# Second strict pass over the ADSP streaming ingress: one persistent
# binary connection per device instead of a request per push. Targets
# mix the transports deliberately — gw-a's raw -stream-addr listener and
# gw-b's HTTP upgrade at /v1/stream — and devices entering at the wrong replica
# must follow the redirect to their owner for the run to stay clean.
echo "loadgen-smoke: driving the fleet over ADSP streams"
stream_report="$workdir/report-stream.json"
"$workdir/adasense-loadgen" \
    -targets "tcp://127.0.0.1:${stream_a},http://127.0.0.1:${port_b}" \
    -transport stream \
    -devices 40 -rate 100 -events 600 -seed 7 \
    -workers 64 -attempts 4 -strict -out "$stream_report"

echo "loadgen-smoke: validating the stream report"
jq -e '
    .transport == "stream" and
    .totals.offered == 600 and
    .totals.push_2xx == 600 and
    .totals.lost == 0 and
    .routes.push.count == 600 and
    .routes.push.p50_s <= .routes.push.p95_s and
    .routes.open.count >= 40
' "$stream_report" > /dev/null || {
    echo "loadgen-smoke: stream report failed validation:" >&2
    cat "$stream_report" >&2
    exit 1
}
echo "loadgen-smoke: OK over streams ($(jq -c '.routes.push' "$stream_report"))"
