#!/usr/bin/env bash
# Builds sdnpc-bench from source and runs it. Everything the build and the
# run write stays under benchmark/out/ (Go build cache included), so the
# command works in a checkout that is not a git repository and has no $HOME.
#
#   benchmark/run.sh [--workload W] [--seed N] [--seconds S] [--trace 0|1]
#
# Without --workload all four workloads run one after the other. The last
# line of each workload's output is its result as one JSON object.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$here/out"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath"

# A hermetic build: caches inside the checkout, no user go env, no VCS stamp
# (the checkout is not a repository), no toolchain or module download (the
# module has no dependency outside the repository).
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export GOENV=off GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off

(cd "$here" && go build -o "$out/sdnpc-bench" .)
exec "$out/sdnpc-bench" --out "$out" "$@"
