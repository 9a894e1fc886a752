#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ in the current
# checkout and runs it with the given arguments. Everything the go tool
# writes (build cache, temporary files, its own bookkeeping under $HOME)
# is kept inside the checkout.
set -euo pipefail

root=$PWD
build=$root/.bench_build
mkdir -p "$build/home" "$build/tmp"

HOME=$build/home GOCACHE=$build/gocache GOPATH=$build/gopath GOTMPDIR=$build/tmp \
	GOTOOLCHAIN=local GOWORK=off \
	go -C "$root/bench" build -o "$build/tkvbench" .

exec "$build/tkvbench" "$@"
