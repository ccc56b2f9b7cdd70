#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload figsweep --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. The build cache, the go command's
# config and temporary files, the binary and the serve-mix journal all
# live under .bench_build, so nothing is written outside the checkout.
# Build output goes to stderr: the last line of stdout stays the
# benchmark's JSON result.
set -euo pipefail
root="$(pwd)"
build="${root}/.bench_build"
mkdir -p "${build}/gotmp"
GOCACHE="${build}/gocache" GOMODCACHE="${build}/gomodcache" GOPATH="${build}/gopath" \
	GOTMPDIR="${build}/gotmp" XDG_CONFIG_HOME="${build}/config" \
	GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off \
	go -C "${root}/perfbench" build -o "${build}/perfbench" . 1>&2
exec "${build}/perfbench" "$@"
