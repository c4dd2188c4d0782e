#!/usr/bin/env bash
# The one command: builds eventdbd and the benchmark from source into
# .bench_build/ at the repository root, then runs the benchmark with the
# given flags (see README.md). Everything the build writes stays inside
# the checkout: the Go build cache, the toolchain's temporary files and
# its per-user configuration directory are all pointed under .bench_build/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
mkdir -p .bench_build/tmp
export GOCACHE="$root/.bench_build/gocache"
export GOTMPDIR="$root/.bench_build/tmp"
export XDG_CONFIG_HOME="$root/.bench_build/config"
# The go command's first run under a fresh configuration directory starts
# a telemetry child that outlives it; with the mode file saying off it
# starts none, so no process of the benchmark's is left behind a run.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off > "$XDG_CONFIG_HOME/go/telemetry/mode"
go build -o .bench_build/eventdbd ./cmd/eventdbd
go build -C bench -o ../.bench_build/e23 .
exec .bench_build/e23 -daemon .bench_build/eventdbd "$@"
