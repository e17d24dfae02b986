#!/usr/bin/env bash
# Build the benchmark, run every workload untraced (end-to-end metrics) and
# traced (per-layer metrics + spans), and keep the results.
#
#   benchmark/run.sh [seed] [seconds]
#
# Results go to benchmark/results/ (git-ignored): e2e-<workload>.txt,
# layers-<workload>.txt, trace-<workload>.json. The last line of each .txt
# is the JSON object the pipeline reads; the lines before it are
# `workload/metric value unit`.
#
# ATLAS_DATA_ROOT stays unset on purpose: replica data directories are then
# ephemeral and removed with each cluster.
set -euo pipefail

seed="${1:-1}"
seconds="${2:-16}"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
results="$here/results"
mkdir -p "$results"
unset ATLAS_DATA_ROOT

cargo build --release --offline --manifest-path "$here/Cargo.toml"
bin="${CARGO_TARGET_DIR:-$here/target}/release/atlas-benchmark"

status=0
for workload in $("$bin" list | cut -f1); do
    "$bin" run --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 \
        | tee "$results/e2e-$workload.txt" || status=1
    "$bin" run --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 1 \
        --trace-out "$results/trace-$workload.json" \
        | tee "$results/layers-$workload.txt" || status=1
done
exit "$status"
