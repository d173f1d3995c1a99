#!/usr/bin/env bash
# Builds the loadbench binary and algrecd from this checkout, then runs
# loadbench with the given arguments. Run it from the repository root:
#
#   bash loadbench/run.sh --workload read-hot --seed 1 --seconds 16 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# working directory; the Go toolchain never touches the network.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/loadbench"
mkdir -p "$out/home" "$out/tmp"
export HOME="$out/home" TMPDIR="$out/tmp" GOTMPDIR="$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS= GOWORK=off GOTELEMETRY=off
(cd "$root/loadbench" && go build -o "$out/bin/loadbench" . && go build -o "$out/bin/algrecd" algrec/cmd/algrecd)
exec "$out/bin/loadbench" --algrecd "$out/bin/algrecd" --workdir "$out/work" "$@"
