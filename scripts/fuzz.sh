#!/usr/bin/env bash
# fuzz.sh — run every native Go fuzz target in the module for a fixed
# time budget each. The committed seed corpora (testdata/fuzz/**) replay
# on every `go test`; this script is the part that searches for new
# failing inputs.
#
# Usage:
#   scripts/fuzz.sh          # 30s per target
#   scripts/fuzz.sh 2m       # any -fuzztime value per target
#
# Targets are discovered with `go test -list '^Fuzz' ./...`, so a new
# fuzz target is picked up without editing this script. A failing
# input is written by `go test` to the target's testdata/fuzz/<Target>/
# directory and the script exits non-zero: fix the code and commit that
# input as a regression seed.
set -euo pipefail
cd "$(dirname "$0")/.." || exit 1

fuzztime="${1:-30s}"

# `go test -list` prints each package's matching names, then its
# "ok <package>" line; pair them up as "<package> <target>".
targets=$(go test -list '^Fuzz' ./... | awk '
    /^Fuzz/ { names[n++] = $1; next }
    /^ok/   { for (i = 0; i < n; i++) print $2, names[i] }
            { n = 0 }')
if [ -z "$targets" ]; then
    echo "fuzz: no fuzz targets found" >&2
    exit 1
fi

count=0
while read -r pkg target; do
    echo "fuzz: $pkg $target for $fuzztime"
    go test -run '^$' -fuzz "^${target}\$" -fuzztime "$fuzztime" "$pkg"
    count=$((count + 1))
done <<< "$targets"
echo "fuzz: $count target(s) ran $fuzztime each without a failure"
