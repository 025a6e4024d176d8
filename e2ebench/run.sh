#!/usr/bin/env bash
# Builds the end-to-end benchmark (e2ebench) and runs it. Run from the
# repository root; all arguments go to the benchmark, for example:
#
#   bash e2ebench/run.sh --workload cold-durable --seed 1 --seconds 15 --trace 0
#
# Everything the build and the runs write stays under .bench_build/ in the
# repository: the Go build cache and temporary files, the binaries,
# lrserved's logs and cache directories, and span files.
set -euo pipefail

if [[ ! -f go.mod || ! -f cmd/lrserved/main.go || ! -f e2ebench/go.mod ]]; then
	echo "e2ebench/run.sh: run from the repository root (go.mod, cmd/lrserved and e2ebench/go.mod must exist)" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd e2ebench && go build -o "$out/e2e" .)
exec "$out/e2e" "$@"
