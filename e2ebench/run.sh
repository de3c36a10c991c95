#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it. Every
# file it writes stays under .bench_build/ in the checkout root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTOOLCHAIN=local \
	GOFLAGS=-mod=readonly GOTELEMETRY=off XDG_CONFIG_HOME="$build/config" GOENV=off
(cd "$root/e2ebench" && go build -trimpath -o "$build/e2ebench" .)
cd "$root"
exec "$build/e2ebench" -workdir "$build/work" "$@"
