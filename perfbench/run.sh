#!/usr/bin/env bash
# run.sh — entry point of the rsgend benchmark. Run it from the repository
# root:
#
#   bash perfbench/run.sh --workload spec-hot --seed 1 --seconds 15 --trace 0
#   bash perfbench/run.sh compare --base <checkout> --workload spec-hot
#
# It builds rsgend, the benchmark driver and the traced replay from source
# into .bench_build/ (Go build cache included, so nothing is written outside
# the checkout) and hands every argument to the driver. The driver imports
# nothing of rsgen; only the replay, which --trace 1 runs, compiles against
# rsgen's internal packages, so a checkout where it does not build can still
# run the untraced benchmark. The driver prints one JSON object as
# the last line of standard output; see perfbench/README.md.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/rsgend || ! -f perfbench/go.mod ]]; then
    echo "perfbench: run from the root of an rsgen checkout (cmd/rsgend and go.mod not found)" >&2
    exit 2
fi

ROOT="$(pwd)"
BUILD="$ROOT/.bench_build"
mkdir -p "$BUILD/bin" "$BUILD/go-tmp"
export GOCACHE="$BUILD/go-cache"
export GOMODCACHE="$BUILD/go-mod"
export GOTMPDIR="$BUILD/go-tmp"
# The go command keeps telemetry counters under the user config directory.
export XDG_CONFIG_HOME="$BUILD/go-config"
export GOFLAGS="-buildvcs=false"
export GOTOOLCHAIN=local

go build -o "$BUILD/bin/rsgend" ./cmd/rsgend
(cd perfbench && go build -o "$BUILD/bin/perfbench" .)
rm -f "$BUILD/bin/perfbench-replay"
(cd perfbench && go build -o "$BUILD/bin/perfbench-replay" ./replay) ||
    echo "perfbench: the traced replay does not build here; --trace 1 will fail" >&2
exec "$BUILD/bin/perfbench" "$@"
