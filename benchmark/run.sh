#!/usr/bin/env bash
# Builds the benchmark into .bench_build/ under the checkout root and runs
# it there with the given arguments. Everything the build and the run
# write stays inside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$out/htapbench" .)
exec "$out/htapbench" "$@"
