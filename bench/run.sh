#!/usr/bin/env bash
# Builds heapmark from source and runs one benchmark invocation; heapmark
# builds the heapd it drives. Everything the builds write (binaries, Go build
# cache, temporary files) stays under .bench_build/ in the checkout.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
out="$(dirname "$here")/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off
go build -C "$here" -o "$out/heapmark" .
exec "$out/heapmark" "$@"
