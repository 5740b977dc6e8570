#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in, then runs
# it with the given arguments, e.g.
#
#   bash bench/run.sh --workload admit-wire --seed 1 --seconds 10 --trace 0
#   bash bench/run.sh compare before/*.json -- after/*.json
#
# The build cache, the binary, result files, span files and WAL directories
# all go under .bench_build/ at the checkout root; nothing is written
# anywhere else and nothing is downloaded.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
(cd bench && go build -o "$out/bench" .) >&2
exec "$out/bench" "$@"
