#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it.
#
#   bash perfbench/run.sh --workload paper-micro --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Every build artifact (binary, Go build
# cache and work directory, Go's config and telemetry directory) and the
# traced run's span dump stay under the build directory:
# $CARGO_TARGET_DIR when set, .bench_build otherwise.
set -euo pipefail

root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/gocache" "$out/gopath" "$out/config" "$out/tmp"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOENV=off GOTELEMETRY=off

(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --span-dir "$out" "$@"
