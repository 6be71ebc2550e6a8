#!/usr/bin/env bash
# Builds the benchmark from source and runs it; run from the repository
# root:
#
#   bash perfbench/run.sh --workload paper --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (binary, Go build cache, toolchain config)
# stays under .bench_build/ in the repository root. Set PERFBENCH_COMMIT
# to stamp the result with the commit being measured.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out"
(
	cd perfbench
	export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
		XDG_CONFIG_HOME="$out/config" GOENV=off GOFLAGS=-mod=readonly GOPROXY=off \
		GOWORK=off GOTOOLCHAIN=local CGO_ENABLED=0
	go build -o "$out/perfbench" .
)
exec "$out/perfbench" -commit "${PERFBENCH_COMMIT:-unknown}" "$@"
