#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload fleet-sweep --seed 1 --seconds 10 --trace 0
#
# Build outputs (binary, Go build cache) go to $CARGO_TARGET_DIR, default
# .bench_build, inside the working directory.
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
# Everything the go command writes (build cache, module cache, telemetry
# counters under the user config directory) stays under $out.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
