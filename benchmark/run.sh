#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the driver from source
# (build cache and binary under .bench_build/ in the checkout, so nothing
# is written outside it) and runs it with the arguments given.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOWORK=off GOTOOLCHAIN=local
commit="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
(cd "$here" && go build -buildvcs=false -ldflags "-X main.commit=$commit" -o "$build/spatialtf-benchmark" .)
cd "$root"
exec "$build/spatialtf-benchmark" "$@"
