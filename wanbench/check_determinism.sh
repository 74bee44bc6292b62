#!/usr/bin/env bash
# Bit-identity check of the benchmark workloads.
#
# Runs every workload at --smoke size under WANIFY_THREADS=1 and =4,
# each untraced and traced, and fails unless the four result_hash lines
# of a workload agree. The hash covers every query's virtual latency,
# cost, minimum BW, WAN bytes and failure flag, so this checks both the
# bit-identity across thread counts and that the timing decorators do
# not change results.
#
# Usage, from the root of a checkout:  bash wanbench/check_determinism.sh

set -u
cd "$(dirname "$0")/.."

# Build once through the normal entry point (its JSON line is dropped).
python3 wanbench/run.py --workload mesh-cascade-64dc --seconds 1 \
    --trace 0 --smoke > /dev/null || exit 1
bench="${CARGO_TARGET_DIR:-.bench_build}/bench_wanify"

status=0
for workload in tpcds-8dc terasort-dynamics-8dc serve-burst-128 \
    mesh-cascade-64dc; do
    hashes=""
    for threads in 1 4; do
        for trace in 0 1; do
            hash=$(WANIFY_THREADS=$threads "$bench" --workload "$workload" \
                --seconds 1 --trace "$trace" --smoke |
                awk '$1 == "info" && $2 == "result_hash" { print $3 }')
            echo "$workload threads=$threads trace=$trace result_hash=${hash:-none}"
            hashes="$hashes ${hash:-none}"
        done
    done
    distinct=$(echo $hashes | tr ' ' '\n' | sort -u | wc -l)
    if [ "$distinct" -ne 1 ] || [[ $hashes == *none* ]]; then
        echo "FAIL: $workload result hashes differ or a run failed"
        status=1
    fi
done
[ $status -eq 0 ] && echo "determinism: all workloads bit-identical"
exit $status
