#!/usr/bin/env bash
# Prints the number of non-test Go lines outside benchmark/ — the figure the
# roadmap's "least code" aim tracks. CI fails when it exceeds LOC_CEILING
# (.github/workflows/ci.yml); lower the ceiling whenever a PR shrinks it.
set -euo pipefail
cd "$(dirname "$0")/.."
find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' -print0 |
    xargs -0 cat | wc -l
