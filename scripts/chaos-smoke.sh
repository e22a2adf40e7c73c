#!/usr/bin/env bash
# Chaos smoke test: run a distributed D-SEQ job across three seqmine-worker
# processes and SIGKILL one of them mid-job. The task-based scheduler must
#
#   1. declare the killed worker dead and retry the attempt on the two
#      survivors under a fresh epoch (non-zero retry metrics),
#   2. produce a pattern set byte-identical to the single-process run,
#   3. ship zero sequence bytes on the retry (the dataset store already
#      holds the bundle on the survivors).
#
# The submit client also writes the job's merged trace as Chrome trace-event
# JSON (-trace-out). Set CHAOS_ARTIFACT_DIR to keep the trace of the passing
# round (CI uploads it as a workflow artifact).
#
# The kill lands on a wall-clock timer, so a freakishly fast job could finish
# before it; the run is retried a few times and fails only if no round
# observes a retry. Used by CI (.github/workflows/ci.yml) and runnable
# locally:
#
#	./scripts/chaos-smoke.sh
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
# Large enough that a distributed job comfortably outlives the kill delay
# below — the shuffle-spine and hot-path optimizations keep shortening the
# job, and a job that finishes before the kill lands exercises nothing.
"$workdir/bin/seqgen" -dataset nyt -n 6000 -seed 7 -out "$workdir/data"

pattern='[.*(.)]{1,3}.*'
sigma=60

echo "== single-process reference"
"$workdir/bin/seqmine" -data "$workdir/data/sequences.txt" -hierarchy "$workdir/data/hierarchy.txt" \
    -pattern "$pattern" -sigma "$sigma" -algorithm dseq -top 0 -metrics=false |
    grep -E '^ +[0-9]+  ' | sort >"$workdir/single.txt"
if [ ! -s "$workdir/single.txt" ]; then
    echo "single-process run found no patterns — smoke test is vacuous" >&2
    exit 1
fi

start_worker() { # port dataport -> pid
    # Redirect stdout/stderr to a log: the worker must not inherit the
    # command-substitution pipe, or $(start_worker ...) would block until the
    # worker exits.
    "$workdir/bin/seqmine-worker" -listen "127.0.0.1:$1" -data-listen "127.0.0.1:$2" \
        >"$workdir/worker-$1.log" 2>&1 &
    echo $!
}

wait_healthy() { # port
    for _ in $(seq 1 100); do
        if curl -fsS "http://127.0.0.1:$1/healthz" >/dev/null 2>&1; then
            return 0
        fi
        sleep 0.1
    done
    echo "worker on port $1 did not come up" >&2
    return 1
}

workers=http://127.0.0.1:19590,http://127.0.0.1:19591,http://127.0.0.1:19592

for round in 1 2 3; do
    echo "== round $round: starting 3 workers"
    W1=$(start_worker 19590 19690)
    W2=$(start_worker 19591 19691)
    W3=$(start_worker 19592 19692)
    wait_healthy 19590
    wait_healthy 19591
    wait_healthy 19592

    echo "== round $round: submitting job, SIGKILLing worker 3 mid-job"
    (sleep 0.25; kill -9 "$W3" 2>/dev/null || true) &
    killer=$!
    set +e
    "$workdir/bin/seqmine-worker" -submit -workers "$workers" \
        -data "$workdir/data/sequences.txt" -hierarchy "$workdir/data/hierarchy.txt" \
        -pattern "$pattern" -sigma "$sigma" -algorithm dseq -top 0 -task-retries 3 \
        -trace-out "$workdir/trace.json" \
        >"$workdir/chaos.out" 2>"$workdir/chaos.err"
    status=$?
    set -e
    wait "$killer" 2>/dev/null || true

    kill "$W1" "$W2" 2>/dev/null || true
    kill -9 "$W3" 2>/dev/null || true
    wait 2>/dev/null || true

    if [ "$status" -ne 0 ]; then
        echo "round $round: submission failed despite the retry budget:" >&2
        cat "$workdir/chaos.err" >&2
        exit 1
    fi

    grep -E '^ +[0-9]+  ' "$workdir/chaos.out" | sort >"$workdir/chaos.txt"
    if ! diff -u "$workdir/single.txt" "$workdir/chaos.txt"; then
        echo "round $round: pattern set after the kill differs from the single-process run" >&2
        exit 1
    fi
    echo "== round $round: $(wc -l <"$workdir/single.txt") patterns identical after the kill"

    retries=$(sed -n 's/^scheduler: .* \([0-9][0-9]*\) retries.*$/\1/p' "$workdir/chaos.out")
    dead=$(sed -n 's/^scheduler: .* \([0-9][0-9]*\) dead workers.*$/\1/p' "$workdir/chaos.out")
    echo "== round $round: retries=$retries dead_workers=$dead"
    if [ -n "$retries" ] && [ "$retries" -gt 0 ] && [ -n "$dead" ] && [ "$dead" -gt 0 ]; then
        echo "== chaos smoke test passed (round $round observed the kill: $retries retries, $dead dead workers)"
        sed -n 's/^\(scheduler: .*\)$/   \1/p;s/^\(dataset store: .*\)$/   \1/p' "$workdir/chaos.out"
        if [ -n "${CHAOS_ARTIFACT_DIR:-}" ]; then
            mkdir -p "$CHAOS_ARTIFACT_DIR"
            cp "$workdir/trace.json" "$CHAOS_ARTIFACT_DIR/chaos-trace.json"
            echo "== trace kept in $CHAOS_ARTIFACT_DIR"
        fi
        exit 0
    fi
    echo "== round $round: job finished before the kill landed (retries=$retries); retrying with a fresh cluster"
done

echo "no round observed a mid-job kill with retries — scheduler fault tolerance not exercised" >&2
exit 1
