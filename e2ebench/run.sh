#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash e2ebench/run.sh --workload serve --seed 1 --seconds 40 --trace 0
#
# Everything the build writes (binary, Go build cache, temporary files)
# goes under the build directory, .bench_build by default. A checkout
# without the repository's Go module fails to build, and the script then
# exits non-zero without printing a result.
set -euo pipefail

bench_dir="$(cd "$(dirname "$0")" && pwd)"
root="$(dirname "$bench_dir")"
cd "$root"

build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/gocache" "$build/gotmp" "$build/gomodcache" "$build/config"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/gotmp"
export GOMODCACHE="$build/gomodcache"
export XDG_CONFIG_HOME="$build/config"
export GOFLAGS=
export GOPROXY=off
export GOTOOLCHAIN=local
export GOWORK=off
export CGO_ENABLED=0

(cd "$bench_dir" && go build -o "$build/e2ebench" .)
exec "$build/e2ebench" --out "$build/e2ebench-spans" "$@"
