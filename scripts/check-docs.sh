#!/usr/bin/env bash
# check-docs.sh — fail if the documentation has gone stale:
#   1. every backticked `adasense.Name` / `adasense.Type.Method` cited
#      in docs/*.md must resolve via `go doc`, and so must every
#      `pkg.Name` / `pkg.Type.Method` whose pkg is a directory under
#      internal/, so renames and removals cannot silently strand the
#      documentation;
#   2. every relative markdown link in README.md and docs/*.md must
#      point at an existing file, and so must every *.md path a Go
#      comment cites (resolved from the repository root or from the
#      citing file's directory), so neither a docs page nor the code
#      can point a reader at a page that was moved or never written;
#   3. every Prometheus series the code emits must be documented in
#      docs/operations.md or docs/observability.md, so a new metric
#      cannot ship without its reference entry, and every series those
#      pages name must still be emitted, so a removed or renamed metric
#      cannot linger in the reference;
#   4. docs/streaming.md (the normative ADSP wire reference) must list
#      every frame type and close code internal/stream/frame.go defines
#      with its wire value, and must not cite a constant the code has
#      dropped — the spec and the implementation cannot drift apart.
#   5. docs/operations.md's flag table must have a row for every flag
#      cmd/adasense-gateway/main.go defines, and every row must name a
#      flag the binary still defines.
set -euo pipefail
cd "$(dirname "$0")/.." || exit 1

fail=0

# --- cross-reference links ---------------------------------------------
for f in README.md docs/*.md; do
    dir=$(dirname "$f")
    while IFS= read -r target; do
        case "$target" in
        http://*|https://*|mailto:*|'#'*) continue ;;
        esac
        path="$dir/${target%%#*}"
        if [ ! -e "$path" ]; then
            echo "check-docs: $f links to missing file: $target" >&2
            fail=1
        fi
    done < <(grep -oE '\]\([^)]+\)' "$f" | sed -E 's/^\]\(//; s/\)$//')
done
# The text from a line's first "//" on is taken as its comment; a token
# starting with "/" is the tail of a URL, not a repository path.
ncited=0
while IFS=: read -r f comment; do
    while IFS= read -r md; do
        case "$md" in /*) continue ;; esac
        ncited=$((ncited + 1))
        if [ ! -e "$md" ] && [ ! -e "$(dirname "$f")/$md" ]; then
            echo "check-docs: $f cites missing file: $md" >&2
            fail=1
        fi
    done < <(grep -oE '[A-Za-z0-9_./-]+\.md\b' <<< "$comment")
done < <(grep -rHoE '//.*\.md\b.*' --include='*.go' --exclude-dir=.bench_build .)
if [ "$fail" -eq 0 ]; then
    echo "check-docs: all relative doc links and $ncited *.md citation(s) in Go comments resolve"
fi

# --- API symbol citations ----------------------------------------------
syms=$(grep -rhoE '`adasense\.[A-Za-z0-9]+(\.[A-Za-z0-9]+)?`' docs/*.md | tr -d '`' | sort -u || true)
if [ -z "$syms" ]; then
    echo "check-docs: no adasense symbol references found in docs/*.md" >&2
    exit 1
fi

while IFS= read -r sym; do
    if ! go doc "$sym" >/dev/null 2>&1; then
        echo "check-docs: docs reference unresolved symbol: $sym" >&2
        fail=1
    fi
done <<< "$syms"
# Citations of internal packages resolve against ./internal/<pkg>.
ipkgs=$(find internal -mindepth 1 -maxdepth 1 -type d -printf '%f\n' | paste -sd'|')
isyms=$(grep -rhoE "\`(${ipkgs})\.[A-Za-z0-9]+(\.[A-Za-z0-9]+)?\`" docs/*.md | tr -d '`' | sort -u || true)
while IFS= read -r sym; do
    [ -n "$sym" ] || continue
    if ! go doc "./internal/${sym%%.*}" "${sym#*.}" >/dev/null 2>&1; then
        echo "check-docs: docs reference unresolved internal symbol: $sym" >&2
        fail=1
    fi
done <<< "$isyms"
if [ "$fail" -eq 0 ]; then
    echo "check-docs: $(echo "$syms" | wc -l | tr -d ' ') symbol and $(echo "$isyms" | grep -c . || true) internal symbol reference(s) resolve"
fi

# --- metric series coverage --------------------------------------------
# Every series emitted through the telemetry encoder (Counter / Gauge /
# GaugeWith / Histogram calls in non-test code) must appear in the
# metrics reference pages.
series=$(grep -rhoE '\.(Counter|CounterVec|Gauge|GaugeWith|Histogram)\("adasense_[a-z0-9_]+"' \
    --include='*.go' --exclude='*_test.go' . |
    sed -E 's/.*"(adasense_[a-z0-9_]+)"/\1/' | sort -u)
if [ -z "$series" ]; then
    echo "check-docs: no emitted metric series found in the code" >&2
    exit 1
fi
while IFS= read -r s; do
    if ! grep -q "$s" docs/operations.md docs/observability.md; then
        echo "check-docs: emitted series $s is documented in neither docs/operations.md nor docs/observability.md" >&2
        fail=1
    fi
done <<< "$series"
if [ "$fail" -eq 0 ]; then
    echo "check-docs: $(echo "$series" | wc -l | tr -d ' ') emitted metric series documented"
fi
# The reverse: every series the reference pages name (histogram sample
# suffixes folded into their family; a name ending in "_", as in
# adasense_stream_*, is a family wildcard) must be emitted by the code.
documented=$(grep -ohE 'adasense_[a-z0-9_]+' docs/operations.md docs/observability.md |
    grep -v '_$' | sed -E 's/_(bucket|sum|count)$//' | sort -u)
while IFS= read -r s; do
    if ! grep -qxF "$s" <<< "$series"; then
        echo "check-docs: documented series $s is not emitted by any non-test code" >&2
        fail=1
    fi
done <<< "$documented"
if [ "$fail" -eq 0 ]; then
    echo "check-docs: $(echo "$documented" | wc -l | tr -d ' ') documented metric series emitted"
fi

# --- ADSP wire-protocol constants --------------------------------------
# Both directions: every frame type / close code the code defines must
# appear in docs/streaming.md with its wire value on the same line, and
# every constant the spec cites must still exist in the code.
spec=docs/streaming.md
if [ ! -f "$spec" ]; then
    echo "check-docs: $spec missing (normative ADSP wire reference)" >&2
    fail=1
else
    nconst=0
    while IFS=$'\t' read -r name val; do
        nconst=$((nconst + 1))
        if ! grep -qE "\b${name}\b.*\b${val}\b|\b${val}\b.*\b${name}\b" "$spec"; then
            echo "check-docs: $spec does not document $name = $val" >&2
            fail=1
        fi
    done < <(awk '/FrameType = 0x/  { printf "%s\t%s\n", $1, $4 }
                  /CloseCode = [0-9]+$/ { printf "%s\t%s\n", $1, $4 }' internal/stream/frame.go)
    if [ "$nconst" -lt 20 ]; then
        echo "check-docs: extracted only $nconst ADSP constants from internal/stream/frame.go (extraction broken?)" >&2
        fail=1
    fi
    while IFS= read -r name; do
        if ! grep -q "\b${name}\b" internal/stream/frame.go; then
            echo "check-docs: $spec cites unknown stream constant $name" >&2
            fail=1
        fi
    done < <(grep -ohE '`(Frame[A-Z][A-Za-z]*|Code[A-Z][A-Za-z]*)`' "$spec" | tr -d '`' | sort -u)
    if [ "$fail" -eq 0 ]; then
        echo "check-docs: $nconst ADSP wire constants match $spec"
    fi
fi

# --- gateway flag table ------------------------------------------------
# Both directions: every flag main.go defines has a row in the
# operations.md "## Flags" table, and every row names a defined flag.
ops=docs/operations.md
defined=$(grep -ohE 'flag\.[A-Za-z0-9]*Var\([^,]+, "[a-z0-9-]+"' cmd/adasense-gateway/main.go |
    sed -E 's/.*"([a-z0-9-]+)"$/\1/' | sort -u)
rows=$(awk '/^## /{ in_flags = ($0 == "## Flags") } in_flags' "$ops" |
    grep -oE '^\| `-[a-z0-9-]+`' | sed -E 's/^\| `-//; s/`$//' | sort -u)
if [ -z "$defined" ] || [ -z "$rows" ]; then
    echo "check-docs: could not extract the gateway flags or the $ops flag table" >&2
    fail=1
else
    flagfail=0
    while IFS= read -r f; do
        if ! grep -qxF "$f" <<< "$rows"; then
            echo "check-docs: gateway flag -$f has no row in $ops" >&2
            flagfail=1
        fi
    done <<< "$defined"
    while IFS= read -r f; do
        if ! grep -qxF "$f" <<< "$defined"; then
            echo "check-docs: $ops documents -$f, which the gateway no longer defines" >&2
            flagfail=1
        fi
    done <<< "$rows"
    if [ "$flagfail" -eq 0 ]; then
        echo "check-docs: $(echo "$defined" | wc -l | tr -d ' ') gateway flags match the $ops flag table"
    else
        fail=1
    fi
fi
exit $fail
