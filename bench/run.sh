#!/bin/sh
# Builds the benchmark from source and runs it, from the root of a
# checkout:
#
#     bash bench/run.sh [flags]        see bench/README.md
#
# Everything it writes — the Go build cache, the toolchain's scratch
# and configuration directories, the binary, the trace files — stays
# inside the checkout, under .bench_build/ and bench/out/.
set -eu
root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/bench/go.mod" ]; then
	echo "bench/run.sh: run from the root of a checkout of the repository (go.mod and bench/go.mod must exist)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go build -C "$root/bench" -o "$build/karbench" .
exec "$build/karbench" "$@"
