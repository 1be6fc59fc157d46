#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in, then runs it:
#   bash perfbench/run.sh --workload classify-el --seed 1 --seconds 20 --trace 0
# Everything it writes (the Go build cache and config, the binary,
# scratch checkpoint dirs, traces) stays under .bench_build in the
# checkout, or under $CARGO_TARGET_DIR when that is set.
set -euo pipefail
root=$(pwd)
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/tmp" "$build/home"
(
	export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" \
		GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath" \
		GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
	cd "$root/perfbench"
	go build -o "$build/perfbench" .
)
exec "$build/perfbench" "$@"
