#!/usr/bin/env bash
# Builds the bridge benchmark from source and runs it. Run from the root of a
# checkout; arguments pass through, e.g.
#
#   bash bridgebench/run.sh --workload ie_hits --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory.
set -euo pipefail

root="$(pwd)"
src="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export HOME="$out/home" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOTELEMETRY=off

(cd "$src" && go build -o "$out/bridgebench" .) >&2
exec "$out/bridgebench" --workdir "$out/work" "$@"
