#!/usr/bin/env bash
# Entry point of the benchmark (see BENCHMARK.json): builds the benchmark's
# module (bench/go.mod) from source inside the checkout and runs it, from the
# root of the checkout, with the arguments given.
#
#	bash bench/run.sh --workload W --seed N --seconds S --trace 0|1   what the driver runs
#	bash bench/run.sh                                                 all workloads, see README.md
#
# Everything the Go toolchain writes — build cache, module path, its own
# config — is kept under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ] || [ ! -f "$root/bench/go.mod" ]; then
	# Nothing to measure: say so before the Go toolchain is started at all.
	echo "bench: $root is not a checkout of the program (no go.mod, internal/ or bench/go.mod); run from its root" >&2
	exit 3
fi
build="$root/.bench_build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOWORK=off GOPROXY=off
# go >= 1.23 starts a detached telemetry child that outlives `go build` (it
# was the process a failed build left behind); with the mode off it does not.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"
go build -C "$root/bench" -o "$build/owan-bench" .
exec "$build/owan-bench" "$@"
