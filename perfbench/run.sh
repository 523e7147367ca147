#!/usr/bin/env bash
# Builds omxsim's benchmark from the sources of this checkout and runs
# it; every argument is passed on to the benchmark:
#
#   bash perfbench/run.sh --workload pingpong-large --seed 1 --seconds 8 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache,
# the Go command's own configuration and telemetry files, and the
# traced run's span files go to the build directory (CARGO_TARGET_DIR
# when set, else .bench_build), so nothing is written outside the
# checkout.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -f perfbench/go.mod ]; then
	echo "perfbench: run from the repository root" >&2
	exit 2
fi
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$PWD/$out ;; esac
mkdir -p "$out/tmp"
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOPATH=$out/gopath XDG_CONFIG_HOME=$out/config
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOENV=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out" "$@"
