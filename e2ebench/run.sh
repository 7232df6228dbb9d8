#!/usr/bin/env bash
# Builds ccserve and the benchmark harness from the checkout this script
# lives in, then runs the harness with the given arguments, e.g.
#
#   bash e2ebench/run.sh --workload serve-hot --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything the Go toolchain and the
# harness write (binaries, build cache, ccserve data directories, traces)
# stays under $CARGO_TARGET_DIR, or .bench_build when that is unset.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"

export GOCACHE="$out/go/cache"
export GOPATH="$out/go/path"
export GOMODCACHE="$out/go/path/pkg/mod"
export GOTMPDIR="$out/go/tmp"
export XDG_CONFIG_HOME="$out/go/config"
export XDG_CACHE_HOME="$out/go/xdgcache"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=
mkdir -p "$GOTMPDIR" "$out/bin" "$XDG_CONFIG_HOME/go/telemetry"
# With telemetry on (the default is "local"), the go command forks a
# detached sidecar that outlives it; "off" keeps every go process a child
# that has ended when the go command returns.
printf 'off' >"$XDG_CONFIG_HOME/go/telemetry/mode"

(cd "$root" && go build -o "$out/bin/ccserve" ./cmd/ccserve)
(cd "$here" && go build -o "$out/bin/e2ebench" .)
exec "$out/bin/e2ebench" -ccserve "$out/bin/ccserve" -workdir "$out" "$@"
