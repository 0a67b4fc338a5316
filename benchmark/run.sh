#!/usr/bin/env bash
# Builds and runs the benchmark from a checkout, keeping everything it
# writes — build cache, binaries, temp files, results — under the
# checkout's .bench_build/. Arguments go to the benchmark; see README.md.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
if [ ! -f "$root/go.mod" ]; then
	echo "benchmark: $root has no go.mod: run from a checkout of the repository" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local
cd "$root/benchmark"
go build -o "$build/bin/benchmark" .
exec "$build/bin/benchmark" "$@"
