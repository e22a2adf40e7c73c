#!/usr/bin/env bash
# Multi-process smoke test: run a small D-CAND (and D-SEQ) job across three
# seqmine-worker processes over the TCP shuffle transport (coordinated by
# seqmine -cluster) and verify that the pattern set is identical to the
# single-process in-process engine.
#
# Used by CI (.github/workflows/ci.yml) and runnable locally:
#
#	./scripts/multiproc-smoke.sh
set -euo pipefail

cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
cleanup() {
    kill $(jobs -p) 2>/dev/null || true
    wait 2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT

echo "== building binaries"
go build -o "$workdir/bin/" ./cmd/seqgen ./cmd/seqmine ./cmd/seqmine-worker

echo "== generating dataset"
"$workdir/bin/seqgen" -dataset nyt -n 400 -seed 7 -out "$workdir/data"

echo "== starting 3 workers"
"$workdir/bin/seqmine-worker" -listen 127.0.0.1:19090 -data-listen 127.0.0.1:19190 &
"$workdir/bin/seqmine-worker" -listen 127.0.0.1:19091 -data-listen 127.0.0.1:19191 &
"$workdir/bin/seqmine-worker" -listen 127.0.0.1:19092 -data-listen 127.0.0.1:19192 &

for port in 19090 19091 19092; do
    up=0
    for _ in $(seq 1 100); do
        if curl -fsS "http://127.0.0.1:$port/healthz" >/dev/null 2>&1; then
            up=1
            break
        fi
        sleep 0.1
    done
    if [ "$up" != 1 ]; then
        echo "worker on port $port did not come up" >&2
        exit 1
    fi
done

workers=http://127.0.0.1:19090,http://127.0.0.1:19091,http://127.0.0.1:19092
pattern='[.*(.)]{1,3}.*'
sigma=40

for algo in dcand dseq; do
    echo "== $algo: single-process reference"
    "$workdir/bin/seqmine" -data "$workdir/data/sequences.txt" -hierarchy "$workdir/data/hierarchy.txt" \
        -pattern "$pattern" -sigma "$sigma" -algorithm "$algo" -top 0 -metrics=false |
        grep -E '^ +[0-9]+  ' | sort >"$workdir/single-$algo.txt"

    echo "== $algo: 3-process cluster run"
    "$workdir/bin/seqmine" -cluster "$workers" \
        -data "$workdir/data/sequences.txt" -hierarchy "$workdir/data/hierarchy.txt" \
        -pattern "$pattern" -sigma "$sigma" -algorithm "$algo" -top 0 -metrics=false |
        grep -E '^ +[0-9]+  ' | sort >"$workdir/multi-$algo.txt"

    if [ ! -s "$workdir/single-$algo.txt" ]; then
        echo "$algo: single-process run found no patterns — smoke test is vacuous" >&2
        exit 1
    fi
    if ! diff -u "$workdir/single-$algo.txt" "$workdir/multi-$algo.txt"; then
        echo "$algo: multi-process pattern set differs from single-process" >&2
        exit 1
    fi
    echo "== $algo: $(wc -l <"$workdir/single-$algo.txt") patterns identical across 3 processes"
done

echo "== multi-process smoke test passed"
