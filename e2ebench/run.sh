#!/usr/bin/env bash
# Builds the end-to-end benchmark from the sources of the checkout it is run
# from, then runs it. Run it from the repository root:
#
#   bash e2ebench/run.sh --workload align-world --seed 42 --seconds 45 --trace 0
#
# Every build and run artifact (Go build cache, binary, scratch state, span
# dumps) stays under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
  GOPATH="$out/gopath" HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" \
  GOENV=off GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=

(cd "$here" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" "$@"
