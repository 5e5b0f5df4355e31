#!/usr/bin/env bash
# Builds the mvdb benchmark from source and runs it. Run it from the
# repository root, for example:
#
#   bash perfbench/run.sh --workload update-mem --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (Go build cache, binary, the
# databases and logs) stays under .bench_build in the current directory.
set -euo pipefail
root=$PWD
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off
(cd "$root/perfbench" && go build -o "$out/mvdbbench" .)
exec "$out/mvdbbench" -dir "$out" "$@"
