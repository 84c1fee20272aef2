#!/usr/bin/env bash
# Builds cmd/hetarchbench from source and runs it with the given flags.
# Run it from the repository root:
#
#   bash cmd/hetarchbench/run.sh --workload uec --seed 1 --seconds 10 --trace 0
#
# The build cache, the binary and every temporary file (the uec-resume
# checkpoints included) stay under .bench_build/ in the current directory.
set -euo pipefail

build="$(pwd)/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
  TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
  GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0

go -C cmd/hetarchbench build -o "$build/hetarchbench" .
exec "$build/hetarchbench" "$@"
