#!/usr/bin/env bash
# Builds the CAISP benchmark from the checkout it is run in and
# executes it. Run from the repository root:
#
#   bash caispbench/run.sh --workload backfill --seed 1 --seconds 15 --trace 0
#
# Every build and run artifact (Go build cache, binary, prepared data
# directories) lands under .bench_build/ in the current directory.
set -euo pipefail
root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
# The toolchain's cache, temporary files, environment file and telemetry
# all stay in the checkout; nothing is downloaded.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$here" && go build -o "$out/caispbench" .)
exec "$out/caispbench" -workdir "$out" "$@"
