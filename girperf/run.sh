#!/usr/bin/env bash
# Builds girperf from source and runs it with the given arguments, from
# the repository root: bash girperf/run.sh --workload hot --seed 1.
# Build caches and run files stay under .bench_build in the repository.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/bin"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
(cd "$root/girperf" && go build -o "$out/bin/girperf" .)
exec "$out/bin/girperf" --workdir "$out/girperf" "$@"
