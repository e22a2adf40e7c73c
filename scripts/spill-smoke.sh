#!/usr/bin/env bash
# Spill + streaming smoke test: mine a generated dataset whose shuffle
# footprint dwarfs a few-KB spill threshold, both in a single process and
# across three seqmine-worker processes (seqmine -cluster), and verify that
#
#   1. the spilling runs produce a pattern set identical to the in-memory
#      reference run,
#   2. data actually spilled (SpilledBytes > 0), so the test is not vacuous,
#   3. the streaming pipelined shuffle (tiny -send-buffer, with spill)
#      produces the same pattern set as barrier mode, single-process and on
#      the 3-worker cluster, and actually streamed batches.
#
# Used by CI (.github/workflows/ci.yml) and runnable locally:
#
#	./scripts/spill-smoke.sh
set -euo pipefail

cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
cleanup() {
    kill $(jobs -p) 2>/dev/null || true
    wait 2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT

threshold=4096
sendbuf=1024

echo "== building binaries"
go build -o "$workdir/bin/" ./cmd/seqgen ./cmd/seqmine ./cmd/seqmine-worker

echo "== generating dataset"
"$workdir/bin/seqgen" -dataset nyt -n 400 -seed 7 -out "$workdir/data"

echo "== starting 3 workers (spill segments under $workdir/spill)"
mkdir -p "$workdir/spill"
"$workdir/bin/seqmine-worker" -listen 127.0.0.1:19290 -data-listen 127.0.0.1:19390 -spill-dir "$workdir/spill" &
"$workdir/bin/seqmine-worker" -listen 127.0.0.1:19291 -data-listen 127.0.0.1:19391 -spill-dir "$workdir/spill" &
"$workdir/bin/seqmine-worker" -listen 127.0.0.1:19292 -data-listen 127.0.0.1:19392 -spill-dir "$workdir/spill" &

for port in 19290 19291 19292; do
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

workers=http://127.0.0.1:19290,http://127.0.0.1:19291,http://127.0.0.1:19292
pattern='[.*(.)]{1,3}.*'
sigma=40

for algo in dseq dcand; do
    echo "== $algo: in-memory single-process reference"
    "$workdir/bin/seqmine" -data "$workdir/data/sequences.txt" -hierarchy "$workdir/data/hierarchy.txt" \
        -pattern "$pattern" -sigma "$sigma" -algorithm "$algo" -top 0 -metrics=false |
        grep -E '^ +[0-9]+  ' | sort >"$workdir/ref-$algo.txt"
    if [ ! -s "$workdir/ref-$algo.txt" ]; then
        echo "$algo: reference run found no patterns — smoke test is vacuous" >&2
        exit 1
    fi

    echo "== $algo: single-process run with -spill-threshold $threshold"
    "$workdir/bin/seqmine" -data "$workdir/data/sequences.txt" -hierarchy "$workdir/data/hierarchy.txt" \
        -pattern "$pattern" -sigma "$sigma" -algorithm "$algo" -top 0 \
        -spill-threshold "$threshold" -spill-dir "$workdir/spill" >"$workdir/local-$algo.out"
    grep -E '^ +[0-9]+  ' "$workdir/local-$algo.out" | sort >"$workdir/local-$algo.txt"
    if ! diff -u "$workdir/ref-$algo.txt" "$workdir/local-$algo.txt"; then
        echo "$algo: single-process spilling pattern set differs from the in-memory run" >&2
        exit 1
    fi
    spilled=$(sed -n 's/^spilled \([0-9]*\) bytes in \([0-9]*\) segments$/\1/p' "$workdir/local-$algo.out")
    if [ -z "$spilled" ] || [ "$spilled" -eq 0 ]; then
        echo "$algo: single-process run did not spill (threshold $threshold) — smoke test is vacuous" >&2
        cat "$workdir/local-$algo.out" >&2
        exit 1
    fi
    echo "== $algo: single process spilled $spilled bytes"

    echo "== $algo: 3-process cluster run with -spill-threshold $threshold"
    "$workdir/bin/seqmine" -cluster "$workers" \
        -data "$workdir/data/sequences.txt" -hierarchy "$workdir/data/hierarchy.txt" \
        -pattern "$pattern" -sigma "$sigma" -algorithm "$algo" -top 0 \
        -spill-threshold "$threshold" >"$workdir/multi-$algo.out"
    grep -E '^ +[0-9]+  ' "$workdir/multi-$algo.out" | sort >"$workdir/multi-$algo.txt"
    if ! diff -u "$workdir/ref-$algo.txt" "$workdir/multi-$algo.txt"; then
        echo "$algo: multi-process spilling pattern set differs from the in-memory run" >&2
        exit 1
    fi
    spilled=$(sed -n 's/^spilled \([0-9]*\) bytes in \([0-9]*\) segments$/\1/p' "$workdir/multi-$algo.out")
    if [ -z "$spilled" ] || [ "$spilled" -eq 0 ]; then
        echo "$algo: cluster run did not spill (threshold $threshold) — smoke test is vacuous" >&2
        cat "$workdir/multi-$algo.out" >&2
        exit 1
    fi
    echo "== $algo: cluster spilled $spilled bytes; $(wc -l <"$workdir/ref-$algo.txt") patterns identical across all three runs"

    echo "== $algo: single-process streaming run with -send-buffer $sendbuf (+spill)"
    "$workdir/bin/seqmine" -data "$workdir/data/sequences.txt" -hierarchy "$workdir/data/hierarchy.txt" \
        -pattern "$pattern" -sigma "$sigma" -algorithm "$algo" -top 0 \
        -send-buffer "$sendbuf" -spill-threshold "$threshold" \
        -spill-dir "$workdir/spill" >"$workdir/stream-$algo.out"
    grep -E '^ +[0-9]+  ' "$workdir/stream-$algo.out" | sort >"$workdir/stream-$algo.txt"
    if ! diff -u "$workdir/ref-$algo.txt" "$workdir/stream-$algo.txt"; then
        echo "$algo: single-process streaming pattern set differs from the barrier-mode run" >&2
        exit 1
    fi
    streamed=$(sed -n 's/^streamed \([0-9]*\) batches (shuffle time .*$/\1/p' "$workdir/stream-$algo.out")
    if [ -z "$streamed" ] || [ "$streamed" -eq 0 ]; then
        echo "$algo: single-process run did not stream (send buffer $sendbuf) — smoke test is vacuous" >&2
        cat "$workdir/stream-$algo.out" >&2
        exit 1
    fi
    echo "== $algo: single process streamed $streamed batches"

    echo "== $algo: 3-process streaming cluster run with -send-buffer $sendbuf"
    "$workdir/bin/seqmine" -cluster "$workers" \
        -data "$workdir/data/sequences.txt" -hierarchy "$workdir/data/hierarchy.txt" \
        -pattern "$pattern" -sigma "$sigma" -algorithm "$algo" -top 0 \
        -send-buffer "$sendbuf" >"$workdir/stream-multi-$algo.out"
    grep -E '^ +[0-9]+  ' "$workdir/stream-multi-$algo.out" | sort >"$workdir/stream-multi-$algo.txt"
    if ! diff -u "$workdir/ref-$algo.txt" "$workdir/stream-multi-$algo.txt"; then
        echo "$algo: multi-process streaming pattern set differs from the barrier-mode run" >&2
        exit 1
    fi
    streamed=$(sed -n 's/^streamed \([0-9]*\) batches (shuffle time .*$/\1/p' "$workdir/stream-multi-$algo.out")
    if [ -z "$streamed" ] || [ "$streamed" -eq 0 ]; then
        echo "$algo: cluster run did not stream (send buffer $sendbuf) — smoke test is vacuous" >&2
        cat "$workdir/stream-multi-$algo.out" >&2
        exit 1
    fi
    echo "== $algo: cluster streamed $streamed batches; patterns identical across all five runs"
done

if find "$workdir/spill" -mindepth 1 | grep -q .; then
    echo "leftover spill segments were not cleaned up:" >&2
    find "$workdir/spill" >&2
    exit 1
fi

echo "== spill smoke test passed"
