#!/usr/bin/env bash
# Builds perfbench from source and runs it from the repository root:
#
#   bash perfbench/run.sh --workload mesh-steady --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh --smoke
#
# Everything the build writes (binary, Go build cache, temporary files)
# goes under $CARGO_TARGET_DIR, default .bench_build, inside the checkout.
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$PWD/$out" ;; esac
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
