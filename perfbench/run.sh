#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload blast16 --seed 1 --seconds 10 --trace 0
#
# Every build product and Go cache stays under .bench_build/ at the root of
# the checkout, and the toolchain is kept offline.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off GOFLAGS=

(cd "$here" && go build -o "$build/perfbench" .)
cd "$root"
exec "$build/perfbench" --out "$build/traces" "$@"
