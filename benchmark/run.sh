#!/usr/bin/env bash
# Builds the benchmark from source into the checkout's .bench_build and runs
# it from the checkout's root. Everything the go tool writes — build cache,
# temporary files, module cache, its own configuration — is kept inside the
# checkout, and nothing is fetched: the benchmark and the module it measures
# depend on the standard library alone.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
cd "$root"
env GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	GOMODCACHE="$build/gomod" XDG_CONFIG_HOME="$build/config" \
	GOENV=off GOWORK=off GOPROXY=off GOTOOLCHAIN=local GOFLAGS= \
	go build -C benchmark -o "$build/seqbench" . >&2
exec "$build/seqbench" "$@"
