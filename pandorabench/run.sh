#!/usr/bin/env bash
# Builds the benchmark and pandora-node from the checkout's sources,
# then runs the benchmark with the given arguments. Run it from the
# repository root:
#
#   bash pandorabench/run.sh --workload conference --seed 1 --seconds 20 --trace 0
#
# Every build product, Go cache and trace file stays under .bench_build
# in the checkout.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOPROXY=off GOTOOLCHAIN=local

(cd "$root/pandorabench" && go build -o "$build/pandorabench" .)
go build -o "$build/pandora-node" ./cmd/pandora-node

exec "$build/pandorabench" --node "$build/pandora-node" --out "$build" "$@"
