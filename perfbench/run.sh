#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload adhoc --seed 1 --seconds 12 --trace 0
#
# Build output, the Go build cache and trace files stay under
# .bench_build/ in the current directory.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache"
export GOTOOLCHAIN=local
export GOFLAGS=-mod=mod
export XDG_CONFIG_HOME="$out/config"
go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" -out "$out/traces" "$@"
