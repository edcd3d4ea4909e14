#!/usr/bin/env bash
# Builds spybench from source and runs it from the repository root,
# passing every argument through:
#
#   bash bench/run.sh --workload covert --seed 1 --seconds 20 --trace 0
#
# Build cache, Go temp files, the binary and run output all stay under
# .bench_build/ in the repository, so a run writes nothing outside it.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=mod
go build -C bench -o "$build/spybench" .
exec "$build/spybench" "$@"
