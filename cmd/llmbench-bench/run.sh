#!/usr/bin/env bash
# Builds llmbench-bench from source and runs it with the given flags.
# Run it from the repository root:
#
#   bash cmd/llmbench-bench/run.sh --workload chat-day --seed 1 --seconds 25 --trace 0
#   bash cmd/llmbench-bench/run.sh -out results.json       # every workload, 5+1 children each
#   bash cmd/llmbench-bench/run.sh -compare a.json b.json
#
# Build outputs, the Go build cache and the go command's own config
# files all stay under .bench_build/ in the working directory, so a run
# writes nothing outside the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$root/cmd/llmbench-bench" && go build -o "$out/bin/llmbench-bench" .)
exec "$out/bin/llmbench-bench" "$@"
