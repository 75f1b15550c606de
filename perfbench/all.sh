#!/bin/sh
# Run every workload untraced (end-to-end metrics) and traced (per-layer
# metrics) and print all of them. Run from the root of a gapinterp checkout:
#
#     sh perfbench/all.sh [seed] [seconds]
set -e
seed=${1:-1}
seconds=${2:-20}
for workload in finite_batch long_gap robust_verify; do
    for trace in 0 1; do
        python3 perfbench/run.py --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace"
    done
done
