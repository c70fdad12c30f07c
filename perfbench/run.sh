#!/usr/bin/env bash
# Builds the benchmark, and the repository packages it drives, from source
# into .bench_build/ at the checkout root, then runs it:
#
#   bash perfbench/run.sh --workload water-vqe --seed 1 --seconds 20 --trace 0
#
# Run it from the root of a checkout. Every file it writes (build cache,
# binary, daemon spool, span dumps) stays under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOWORK=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -out "$out" "$@"
