#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it:
#
#   bash perfbench/run.sh --workload bm-llc --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Everything the build and the run write stays
# under .bench_build/ in that directory: the Go build cache, temporary files
# and the binary. The Go toolchain is used as installed; nothing is fetched.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp" "$out/gocache" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" HOME="$out/home" \
	XDG_CONFIG_HOME="$out/home" XDG_CACHE_HOME="$out/home" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
