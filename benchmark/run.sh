#!/usr/bin/env bash
# Builds the harness from source into .bench_build/ and runs it from the
# repository root. Everything go writes (build cache, module cache,
# temporary files) is kept inside the checkout, and nothing is fetched.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
# A directory holding only the benchmark has no stopss module beside it:
# say so instead of letting the compiler fail on the replace directive.
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/stopss-server" ]; then
    echo "benchmark: $root holds no stopss source to build; run from a full checkout" >&2
    exit 1
fi
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/gomodcache" "$build/gotmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/gotmp"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go build -C "$root/benchmark" -o "$build/bin/stopss-bench" .
cd "$root"
exec "$build/bin/stopss-bench" "$@"
