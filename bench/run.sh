#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything the build and the
# run leave behind (Go build cache, temporaries, the binary, the serve
# workload's unix socket, the span file) lands in .bench_build/ at the root
# of the checkout, and the Go tool is told to keep its own state there too,
# so nothing outside the checkout is read for state or written. A build
# failure exits non-zero before any result is printed.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOENV=off
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-buildvcs=false
# The result header names the commit when the checkout is a repository; git
# may not look for one above the checkout.
BENCH_COMMIT="$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" git -C "$root" rev-parse HEAD 2>/dev/null || true)"
export BENCH_COMMIT
(cd "$here" && go build -o "$build/mealib-bench" .)
cd "$root"
exec "$build/mealib-bench" "$@"
