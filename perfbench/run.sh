#!/usr/bin/env bash
# Builds the benchmark and cmd/dictserve from the enclosing checkout, then
# runs the benchmark with the arguments given:
#
#   bash perfbench/run.sh --workload serve-lowhit --seed 1 --seconds 10 --trace 0
#
# Every build output, cache and scratch file stays under .bench_build/ at the
# checkout root, so a run reads and writes nothing outside the checkout.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/tmp" "$out/home" "$out/run"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/home/go" \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" \
	XDG_CACHE_HOME="$out/home/.cache" GOTOOLCHAIN=local GOPROXY=off \
	GOFLAGS=-mod=mod
(
	cd "$root/perfbench"
	go build -o "$out/bin/perfbench" . >&2
	go build -o "$out/bin/dictserve" pardict/cmd/dictserve >&2
)
exec "$out/bin/perfbench" -dictserve "$out/bin/dictserve" -workdir "$out/run" -root "$root" "$@"
