#!/usr/bin/env bash
# Builds cmd/approxload from source and runs it with the given arguments.
# Run it from the repository root, e.g.
#
#	bash cmd/approxload/run.sh --workload ingest --seed 1 --seconds 20 --trace 0
#
# Every build artifact (Go build cache, temporary files, binary, span
# files) stays under .bench_build/ in the current directory, and the
# toolchain is pinned to the local one with the module proxy off, so the
# build never writes outside the checkout or touches the network.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/go-cache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=

go -C "$root/cmd/approxload" build -o "$out/approxload" .
exec "$out/approxload" "$@"
