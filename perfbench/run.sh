#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources into .bench_build/ and
# runs it with the given arguments. Every file the Go toolchain writes (build
# cache, temporary files, its config) stays under .bench_build/, so a run
# touches nothing outside the checkout. The build only needs the module in
# this checkout; without it the build fails and nothing is printed on stdout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
bin="$out/perfbench.$$"
(
	cd "$root/perfbench"
	env HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" GOPATH="$out/home/go" \
		GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOWORK=off \
		GOFLAGS= go build -o "$bin" .
) >&2
mv -f "$bin" "$out/perfbench"
exec "$out/perfbench" "$@"
