#!/usr/bin/env bash
# Builds the Qurk benchmark from the checkout in the working directory
# and runs it, passing every argument through:
#
#   bash perfbench/run.sh --workload filter_cascade --seed 1 --seconds 15 --trace 0
#
# Every build and run artifact (Go build cache, temp dirs, knowledge
# stores) lands under .bench_build in the checkout: TMPDIR points there.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOFLAGS=-mod=mod
commit=$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" -commit "$commit" "$@"
