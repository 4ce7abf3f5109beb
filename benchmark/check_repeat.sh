#!/bin/sh
# Runs the full set of workloads K times (default 2) on one build and
# fails if any two sets differ, on any end-to-end metric of any workload,
# by more than the bound BENCHMARK.json fixes for that metric.
#
#   benchmark/check_repeat.sh [K] [SECONDS] [SEED]
set -eu
here=$(dirname "$0")
exec cargo run --release --quiet --manifest-path "$here/Cargo.toml" -- \
    --repeat "${1:-2}" --seconds "${2:-20}" --seed "${3:-3269}"
