#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and runs
# it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload engine --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at the
# checkout root: the Go build cache, temporary files, the binary, run logs
# and span dumps. Without the repository's sources next to this directory
# the build fails and the script exits non-zero without printing a result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOPATH="$out/gopath"
export GOTOOLCHAIN=local
export GOENV=off
export GOTELEMETRY=off

# Freed heap pages stay mapped between operations, so an operation does not
# pay for faulting its memory in again from the host (see measure.go).
export GODEBUG=madvdontneed=0

go -C "$here" build -o "$out/perfbench" . >&2
cd "$root"
exec "$out/perfbench" "$@"
